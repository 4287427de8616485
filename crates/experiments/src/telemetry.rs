//! Per-cell telemetry: tagging one experiment cell's observability
//! record and rendering the human-readable views `trace_dump` prints.
//!
//! An experiment grid is a set of `(strategy, err_rate, seed)` cells;
//! with [`crate::runner::run_named_observed`] each cell yields a
//! [`CellTelemetry`] carrying the drained event trace and the metrics
//! snapshot of that one run. A context's journey through the Fig. 8
//! life cycle — creation, detections, Δ membership with its count,
//! bad-marking, and the final delivery/discard — is its [`ProvNode`] in
//! the trace's [`ProvenanceGraph`], the one fold `explain`, the
//! transition table and `trace_dump`'s discarded-context view read.

use ctxres_context::ContextState;
use ctxres_obs::{ObsRegistry, ObsSnapshot, ProvNode, ProvenanceGraph, TraceRecord};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One experiment cell's full observability record.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellTelemetry {
    /// Strategy paper name of the cell.
    pub strategy: String,
    /// Workload corruption probability of the cell.
    pub err_rate: f64,
    /// Workload seed of the cell.
    pub seed: u64,
    /// Point-in-time metrics of every layer — counters, histograms,
    /// and with [`ctxres_obs::ObsConfig::with_tail`] the end-to-end
    /// histograms and over-p99 exemplars — taken before the trace drain
    /// so `ctxres_trace_events_buffered` reflects the run.
    pub snapshot: ObsSnapshot,
    /// The drained event trace, ordered by logical time.
    pub trace: Vec<TraceRecord>,
    /// Events evicted from full rings during the run (0 means the trace
    /// is complete).
    pub dropped: u64,
}

impl CellTelemetry {
    /// Drains `registry` into a telemetry record tagged with its cell.
    pub fn collect(strategy: &str, err_rate: f64, seed: u64, registry: &ObsRegistry) -> Self {
        let snapshot = registry.snapshot();
        CellTelemetry {
            strategy: strategy.to_owned(),
            err_rate,
            seed,
            snapshot,
            trace: registry.drain(),
            dropped: registry.dropped(),
        }
    }
}

/// Life-cycle transition tallies keyed `(from, to)`.
pub type TransitionCounts = BTreeMap<(ContextState, ContextState), u64>;

/// Counts the life-cycle transitions of a folded trace, keyed
/// `(from, to)`: each verdict edge of a context's chain moves it from
/// the state its previous verdict left it in (the first from
/// `undecided`) to the state it names.
pub fn transition_counts(graph: &ProvenanceGraph) -> TransitionCounts {
    let mut counts = BTreeMap::new();
    for node in graph.nodes() {
        let mut from = ContextState::Undecided;
        for to in node.chain.iter().filter_map(|e| e.verdict) {
            *counts.entry((from, to)).or_insert(0) += 1;
            from = to;
        }
    }
    counts
}

/// Renders a per-strategy state-transition summary table: one labelled
/// row set per `(label, trace)` pair.
///
/// ```text
/// strategy   transition                  count
/// d-bad      undecided -> consistent     42
/// d-bad      undecided -> bad            3
/// ```
pub fn render_transition_table(rows: &[(String, TransitionCounts)]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<12} {:<32} {:>8}",
        "strategy", "transition", "count"
    );
    for (label, counts) in rows {
        if counts.is_empty() {
            let _ = writeln!(out, "{label:<12} {:<32} {:>8}", "(no transitions)", 0);
            continue;
        }
        for ((from, to), n) in counts {
            let transition = format!("{from} -> {to}");
            let _ = writeln!(out, "{label:<12} {transition:<32} {n:>8}");
        }
    }
    out
}

/// One `(from, to)` row of the transition table, in a shape that
/// serializes to flat JSON (the map key `(ContextState, ContextState)`
/// does not).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitionRow {
    /// Source state.
    pub from: ContextState,
    /// Destination state.
    pub to: ContextState,
    /// How many contexts made this transition.
    pub count: u64,
}

/// Everything `trace_dump --json` emits: the full timeline, the
/// transition tallies, and the provenance node of every discarded
/// context — the same views the human renderer prints, as one JSON
/// document.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceDumpJson {
    /// Strategy label the dump was rendered under.
    pub label: String,
    /// Total events in the trace.
    pub events: usize,
    /// The full event timeline (never elided — machines don't scroll).
    pub timeline: Vec<TraceRecord>,
    /// Life-cycle transition tallies ([`transition_counts`]).
    pub transitions: Vec<TransitionRow>,
    /// Every discarded context's provenance node, as
    /// `explain --discarded --json` carries it in its chains.
    pub discarded_lifecycles: Vec<ProvNode>,
    /// Distinct contexts the trace touches.
    pub contexts_traced: usize,
    /// How many of them were discarded.
    pub discarded: usize,
    /// Aggregated observability counters of the cell the trace came
    /// from (name → cross-shard total, [`ctxres_obs::SeriesList::counters`]) —
    /// includes the compiled-eval and situation-eval counters and the
    /// ring's `trace_events_dropped`. Empty when the dumper had no
    /// metrics snapshot alongside the trace (a bare JSONL file).
    pub counters: BTreeMap<String, u64>,
}

/// Builds the machine-readable dump of a trace — the `--json` face of
/// `trace_dump`.
pub fn json_dump(trace: &[TraceRecord], label: &str) -> TraceDumpJson {
    let graph = ProvenanceGraph::from_records(trace);
    let transitions = transition_counts(&graph)
        .into_iter()
        .map(|((from, to), count)| TransitionRow { from, to, count })
        .collect();
    let discarded_lifecycles: Vec<ProvNode> = graph.discarded().into_iter().cloned().collect();
    TraceDumpJson {
        label: label.to_owned(),
        events: trace.len(),
        timeline: trace.to_vec(),
        discarded: discarded_lifecycles.len(),
        transitions,
        discarded_lifecycles,
        contexts_traced: graph.len(),
        counters: BTreeMap::new(),
    }
}

/// Like [`json_dump`], but also embeds the cell's aggregated counters
/// (cross-shard totals keyed by counter name, the ring's drops
/// included) so the `--json` document carries the compiled-eval and
/// truncation figures next to the trace they explain.
pub fn json_dump_with_snapshot(
    trace: &[TraceRecord],
    label: &str,
    snapshot: &ObsSnapshot,
) -> TraceDumpJson {
    TraceDumpJson {
        counters: snapshot.counters(),
        ..json_dump(trace, label)
    }
}

/// Renders a trace as a human-readable timeline, one event per line,
/// capped at `limit` lines (0 = unlimited) with an elision note.
pub fn render_timeline(trace: &[TraceRecord], limit: usize) -> String {
    let mut out = String::new();
    let shown = if limit == 0 {
        trace.len()
    } else {
        limit.min(trace.len())
    };
    for record in &trace[..shown] {
        let _ = writeln!(out, "{record}");
    }
    if shown < trace.len() {
        let _ = writeln!(out, "... ({} more events)", trace.len() - shown);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explain::fate;
    use crate::runner::{run_named_observed, DEFAULT_WINDOW};
    use ctxres_apps::call_forwarding::CallForwarding;
    use ctxres_apps::PervasiveApp;
    use ctxres_obs::ObsConfig;
    use ctxres_obs::{CauseKind, TraceEvent};

    /// The `trace_dump --demo` cell.
    fn observed_cell() -> CellTelemetry {
        let app = CallForwarding::new();
        let (_, telemetry) = run_named_observed(
            &app,
            "d-bad",
            0.3,
            3,
            200,
            app.recommended_window(),
            ObsConfig::enabled(),
        );
        telemetry
    }

    #[test]
    fn cell_is_tagged_and_complete() {
        let cell = observed_cell();
        assert_eq!(cell.strategy, "d-bad");
        assert_eq!(cell.seed, 3);
        assert_eq!(cell.dropped, 0, "default ring must hold a full run");
        assert!(!cell.trace.is_empty());
        // The snapshot was taken pre-drain: the buffered count matches
        // the trace we got.
        let buffered = cell
            .snapshot
            .find("ctxres_trace_events_buffered", &[("shard", "0")])
            .and_then(|s| s.value.gauge());
        assert_eq!(buffered, Some(cell.trace.len() as f64));
    }

    /// Every context that ends the run `Inconsistent` has a receive
    /// record, a violation, Δ membership with its count and an
    /// inconsistent verdict in its provenance node, a chain without
    /// gaps, and nothing was evicted from the ring.
    #[test]
    fn trace_is_complete_for_every_discarded_context() {
        let cell = observed_cell();
        assert_eq!(cell.dropped, 0);
        let graph = ProvenanceGraph::from_records(&cell.trace);
        let discarded = graph.discarded();
        assert!(
            !discarded.is_empty(),
            "a 30% error rate drop-bad run must discard something"
        );
        for node in discarded {
            let id = node.id;
            assert!(node.received_at.is_some(), "{id}: no receive record");
            assert!(
                node.chain.iter().any(|e| e.cause == CauseKind::ViolatedBy),
                "{id}: discarded without a violation"
            );
            assert!(
                node.chain
                    .iter()
                    .any(|e| e.cause == CauseKind::JoinedDelta && e.count.is_some()),
                "{id}: drop-bad discards carry count evidence"
            );
            assert_eq!(
                node.verdict_edge().and_then(|e| e.verdict),
                Some(ContextState::Inconsistent),
                "{id}: ended Inconsistent without an inconsistent verdict"
            );
            assert_eq!(node.completeness_gaps(), Vec::<String>::new(), "{id}");
        }
    }

    /// The demo cell's trace states each fact once: a `Received` root
    /// per context, one edge per violation member, Δ membership (with
    /// its count) and verdict, and a record per delivery, expiry and Δ
    /// removal.
    #[test]
    fn demo_cell_trace_states_each_fact_once() {
        let cell = observed_cell();
        assert_eq!((cell.trace.len(), cell.dropped), (853, 0));
        let mut by_type: BTreeMap<&str, usize> = BTreeMap::new();
        for record in &cell.trace {
            let name = match &record.event {
                TraceEvent::Received { .. } => "Received",
                TraceEvent::Caused { cause, .. } => cause.name(),
                TraceEvent::DeltaRemoved { .. } => "DeltaRemoved",
                TraceEvent::Delivered { .. } => "Delivered",
                TraceEvent::Expired { .. } => "Expired",
            };
            *by_type.entry(name).or_default() += 1;
        }
        assert_eq!(
            by_type,
            BTreeMap::from([
                ("Received", 200),
                ("violated_by", 108),
                ("joined_delta", 108),
                ("resolved_because", 200),
                ("superseded_by", 13),
                ("Delivered", 165),
                ("Expired", 3),
                ("DeltaRemoved", 56),
            ])
        );
    }

    /// The transition table counts every verdict: on the demo cell,
    /// the contexts each state gained minus those it lost are the
    /// pool's contexts in that state at the end of the run (the three
    /// contexts drop-bad finds expired at use end consistent too).
    #[test]
    fn transitions_end_in_the_pools_final_states() {
        use ctxres_context::Ticks;
        use ctxres_middleware::{Middleware, MiddlewareConfig};
        let app = CallForwarding::new();
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        let mut mw = Middleware::builder()
            .constraints(app.constraints())
            .situations(app.situations())
            .registry(app.registry())
            .strategy(ctxres_core::strategies::by_name("d-bad", 3).unwrap())
            .config(MiddlewareConfig {
                window: Ticks::new(app.recommended_window()),
                track_ground_truth: true,
                retention: None,
            })
            .obs(registry.handle(0))
            .build();
        for ctx in app.generate(0.3, 3, 200) {
            mw.submit(ctx);
        }
        mw.drain();
        let counts = transition_counts(&ProvenanceGraph::from_records(&registry.drain()));
        use ContextState::{Bad, Consistent, Inconsistent, Undecided};
        assert_eq!(
            counts,
            BTreeMap::from([
                ((Undecided, Consistent), 168),
                ((Undecided, Bad), 13),
                ((Undecided, Inconsistent), 19),
                ((Bad, Inconsistent), 13),
            ])
        );
        let mut ended: BTreeMap<ContextState, i64> = BTreeMap::new();
        for ((from, to), n) in counts {
            *ended.entry(from).or_default() -= n as i64;
            *ended.entry(to).or_default() += n as i64;
        }
        let mut pool: BTreeMap<ContextState, i64> = BTreeMap::new();
        for (_, ctx) in mw.pool().iter() {
            *pool.entry(ctx.state()).or_default() += 1;
            *pool.entry(Undecided).or_default() -= 1;
        }
        ended.retain(|_, n| *n != 0);
        assert_eq!(ended, pool);
        assert_eq!(
            pool,
            BTreeMap::from([(Undecided, -200), (Consistent, 168), (Inconsistent, 32)])
        );
    }

    #[test]
    fn every_context_lifecycle_is_reconstructable() {
        let cell = observed_cell();
        let graph = ProvenanceGraph::from_records(&cell.trace);
        for node in graph.nodes() {
            // Every traced context entered through a Received event
            // (partners of a detection included: detection follows
            // reception in the same trace).
            assert!(node.received_at.is_some(), "{}: no receive event", node.id);
            assert_ne!(fate(node), "pending", "{}: undecided after drain", node.id);
        }
        let dump = json_dump(&cell.trace, &cell.strategy);
        assert_eq!(dump.contexts_traced, graph.len());
    }

    #[test]
    fn transition_table_renders_by_strategy() {
        let cell = observed_cell();
        let counts = transition_counts(&ProvenanceGraph::from_records(&cell.trace));
        assert!(!counts.is_empty());
        let table = render_transition_table(&[(cell.strategy.clone(), counts.clone())]);
        assert!(table.contains("d-bad"), "{table}");
        assert!(table.contains("->"), "{table}");
        // Deliveries dominate: the undecided -> consistent row exists.
        assert!(
            counts
                .keys()
                .any(|(f, t)| *f == ContextState::Undecided && *t == ContextState::Consistent),
            "{counts:?}"
        );
    }

    #[test]
    fn timeline_caps_and_elides() {
        let cell = observed_cell();
        let full = render_timeline(&cell.trace, 0);
        assert_eq!(full.lines().count(), cell.trace.len());
        let capped = render_timeline(&cell.trace, 5);
        assert_eq!(capped.lines().count(), 6, "5 events + elision note");
        assert!(capped.contains("more events"), "{capped}");
    }

    #[test]
    fn json_dump_carries_all_three_views() {
        let cell = observed_cell();
        let dump = json_dump(&cell.trace, &cell.strategy);
        assert_eq!(dump.label, "d-bad");
        assert_eq!(dump.events, cell.trace.len());
        assert_eq!(dump.timeline, cell.trace, "timeline is never elided");
        assert!(!dump.transitions.is_empty());
        let graph = ProvenanceGraph::from_records(&cell.trace);
        let table_total: u64 = transition_counts(&graph).values().sum();
        let rows_total: u64 = dump.transitions.iter().map(|r| r.count).sum();
        assert_eq!(table_total, rows_total);
        assert!(!dump.discarded_lifecycles.is_empty());
        assert_eq!(dump.discarded, dump.discarded_lifecycles.len());
        for node in &dump.discarded_lifecycles {
            assert_eq!(fate(node), "discarded");
            assert!(!node.chain.is_empty());
        }
        // And it round-trips through the serializer as one document.
        let text = serde_json::to_string_pretty(&dump).unwrap();
        assert!(text.contains("\"discarded_lifecycles\""), "{text}");
        assert!(text.contains("\"timeline\""));
    }

    #[test]
    fn tail_view_rides_the_cell_when_enabled() {
        let app = CallForwarding::new();
        let (_, cell) = run_named_observed(
            &app,
            "d-bad",
            0.3,
            3,
            200,
            app.recommended_window(),
            ObsConfig::enabled(),
        );
        let spans = |cell: &CellTelemetry| -> u64 {
            cell.snapshot
                .family("ctxres_e2e_latency_us")
                .filter_map(|s| s.value.histogram())
                .map(|h| h.count)
                .sum()
        };
        assert_eq!(spans(&cell), 200, "every context folds a terminal span");
        assert!(!cell.snapshot.exemplars.is_empty());
        let (_, plain) = run_named_observed(
            &app,
            "d-bad",
            0.3,
            3,
            200,
            app.recommended_window(),
            ObsConfig::metrics_only(),
        );
        assert_eq!(spans(&plain), 0, "metrics_only leaves tail off");
        assert!(plain.snapshot.exemplars.is_empty());
        let json = serde_json::to_string(&cell).unwrap();
        let back: CellTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(back, cell, "the record round-trips");
    }

    #[test]
    fn json_dump_with_snapshot_exposes_evaluation_counters() {
        let cell = observed_cell();
        let dump = json_dump_with_snapshot(&cell.trace, &cell.strategy, &cell.snapshot);
        let counters = &dump.counters;
        assert!(counters["situation_evals"] > 0, "{counters:?}");
        assert!(counters["compiled_evals"] > 0, "{counters:?}");
        assert_eq!(counters["trace_events_dropped"], cell.dropped);
        assert!(!counters.contains_key("events_dropped"), "{counters:?}");
        let text = serde_json::to_string(&dump).unwrap();
        assert!(text.contains("\"situation_evals\""));
        // The plain dump has no snapshot to report from.
        assert!(json_dump(&cell.trace, &cell.strategy).counters.is_empty());
    }

    #[test]
    fn disabled_config_yields_empty_telemetry() {
        let app = CallForwarding::new();
        let (metrics, telemetry) = run_named_observed(
            &app,
            "d-bad",
            0.3,
            3,
            200,
            app.recommended_window(),
            ObsConfig::disabled(),
        );
        assert!(telemetry.trace.is_empty());
        assert_eq!(telemetry.dropped, 0);
        // And observation does not perturb results: the observed run
        // matches a plain run bit-for-bit.
        let plain = crate::runner::run_named(&app, "d-bad", 0.3, 3, 200, app.recommended_window());
        assert_eq!(metrics, plain);
        let _ = DEFAULT_WINDOW;
    }

    #[test]
    fn enabled_observation_does_not_change_results() {
        let app = CallForwarding::new();
        let (observed, _) = run_named_observed(
            &app,
            "d-bad",
            0.2,
            7,
            150,
            app.recommended_window(),
            ObsConfig::enabled(),
        );
        let plain = crate::runner::run_named(&app, "d-bad", 0.2, 7, 150, app.recommended_window());
        assert_eq!(observed, plain);
    }
}
