//! Per-cell telemetry: tagging one experiment cell's observability
//! record and rendering the human-readable views `trace_dump` prints.
//!
//! An experiment grid is a set of `(strategy, err_rate, seed)` cells;
//! with [`crate::runner::run_named_observed`] each cell yields a
//! [`CellTelemetry`] carrying the drained event trace and the metrics
//! snapshot of that one run. A context's journey through the Fig. 8
//! life cycle — creation, detections, count bumps, bad-marking, and the
//! final delivery/discard — is its [`ProvNode`] in the trace's
//! [`ProvenanceGraph`], the one fold `explain` reads too;
//! [`DiscardedNode`] flattens a discarded node for `trace_dump`.

use crate::explain::fate;
use ctxres_context::{ContextId, ContextState};
use ctxres_obs::{
    CauseEdge, NodeId, ObsRegistry, ObsSnapshot, ProvNode, ProvenanceGraph, TraceEvent, TraceRecord,
};
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

/// `StateChanged` tallies keyed `(from, to)`.
pub type TransitionCounts = BTreeMap<(ContextState, ContextState), u64>;

/// Counts the `StateChanged` transitions of a trace, keyed
/// `(from, to)`.
pub fn transition_counts(trace: &[TraceRecord]) -> TransitionCounts {
    let mut counts = BTreeMap::new();
    for record in trace {
        if let TraceEvent::StateChanged { from, to, .. } = &record.event {
            *counts.entry((*from, *to)).or_insert(0) += 1;
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

/// One discarded context's provenance node, flattened for machine
/// consumption and for `trace_dump`'s discarded-context section.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct DiscardedNode {
    /// Owning shard.
    pub shard: u32,
    /// The context (ids are shard-local).
    pub ctx: ContextId,
    /// The human one-liner (`shard 0 ctx#3: received t2, …`).
    pub summary: String,
    /// The node's one-word fate ([`fate`]).
    pub fate: String,
    /// Tick the context entered the middleware.
    pub received_at: Option<u64>,
    /// Count-value history (one bump per tracked inconsistency).
    pub counts: Vec<u64>,
    /// The node's flat events and its own cause edges, in trace order.
    pub events: Vec<TraceRecord>,
}

impl DiscardedNode {
    /// Flattens one provenance node.
    pub fn new(node: &ProvNode) -> Self {
        let counts: Vec<u64> = node
            .timeline
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::CountBumped { count, .. } => Some(*count),
                _ => None,
            })
            .collect();
        let mut summary = format!("shard {} {}: ", node.id.shard, node.id.ctx);
        match node.received_at {
            Some(t) => {
                let _ = write!(summary, "received t{t}");
            }
            None => summary.push_str("(no receive event)"),
        }
        if !counts.is_empty() {
            let _ = write!(summary, ", counts {counts:?}");
        }
        let fate = fate(node);
        let _ = write!(summary, ", {fate}");
        let mut events: Vec<TraceRecord> = node.timeline.clone();
        events.extend(node.chain.iter().map(|e| edge_record(node.id, e)));
        events.sort_by_key(|r| (r.at, r.seq));
        DiscardedNode {
            shard: node.id.shard,
            ctx: node.id.ctx,
            summary,
            fate: fate.to_owned(),
            received_at: node.received_at,
            counts,
            events,
        }
    }
}

/// The trace record that carried a cause edge of `node`'s chain.
fn edge_record(node: NodeId, edge: &CauseEdge) -> TraceRecord {
    TraceRecord {
        shard: node.shard,
        seq: edge.seq,
        at: edge.at,
        event: TraceEvent::Caused {
            ctx: node.ctx,
            cause: edge.cause,
            constraint: edge.constraint.clone(),
            partners: edge.partners.iter().map(|p| p.ctx).collect(),
            count: edge.count,
            verdict: edge.verdict,
        },
    }
}

/// Everything `trace_dump --json` emits: the full timeline, the
/// transition tallies, the SLO alert timeline, and the reconstructed
/// life cycle of every discarded context — the same views the human
/// renderer prints, as one JSON document.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct TraceDumpJson {
    /// Strategy label the dump was rendered under.
    pub label: String,
    /// Total events in the trace.
    pub events: usize,
    /// The full event timeline (never elided — machines don't scroll).
    pub timeline: Vec<TraceRecord>,
    /// `StateChanged` tallies.
    pub transitions: Vec<TransitionRow>,
    /// Every discarded context's provenance node, flattened.
    pub discarded_lifecycles: Vec<DiscardedNode>,
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
    /// Every SLO alert transition (`TraceEvent::Alert`) in the trace,
    /// in trace order — the firing/clearing timeline of the health SLO
    /// engine, pre-filtered so dashboards don't have to scan the full
    /// timeline for the `alert` tag.
    pub alerts: Vec<TraceRecord>,
    /// Every slow-batch postmortem (`TraceEvent::SlowBatch`) in the
    /// trace, in trace order — each bundles the breaching batch's
    /// per-phase self times and over-p99 exemplar ids.
    pub postmortems: Vec<TraceRecord>,
}

/// Builds the machine-readable dump of a trace — the `--json` face of
/// `trace_dump`.
pub fn json_dump(trace: &[TraceRecord], label: &str) -> TraceDumpJson {
    let transitions = transition_counts(trace)
        .into_iter()
        .map(|((from, to), count)| TransitionRow { from, to, count })
        .collect();
    let graph = ProvenanceGraph::from_records(trace);
    let discarded_lifecycles: Vec<DiscardedNode> = graph
        .discarded()
        .into_iter()
        .map(DiscardedNode::new)
        .collect();
    let alerts = trace
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::Alert { .. }))
        .cloned()
        .collect();
    let postmortems = trace
        .iter()
        .filter(|r| matches!(r.event, TraceEvent::SlowBatch { .. }))
        .cloned()
        .collect();
    TraceDumpJson {
        label: label.to_owned(),
        events: trace.len(),
        timeline: trace.to_vec(),
        discarded: discarded_lifecycles.len(),
        transitions,
        discarded_lifecycles,
        contexts_traced: graph.len(),
        counters: BTreeMap::new(),
        alerts,
        postmortems,
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
    use crate::runner::{run_named_observed, DEFAULT_WINDOW};
    use ctxres_apps::call_forwarding::CallForwarding;
    use ctxres_apps::PervasiveApp;
    use ctxres_obs::ObsConfig;

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
    /// event, a detection, count evidence and a discard event in its
    /// provenance node, a chain without gaps, and nothing was evicted
    /// from the ring.
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
        let has = |node: &ProvNode, pred: fn(&TraceEvent) -> bool| {
            node.timeline.iter().any(|r| pred(&r.event))
        };
        for node in discarded {
            let id = node.id;
            assert!(node.received_at.is_some(), "{id}: no creation event");
            assert!(
                has(node, |e| matches!(e, TraceEvent::Detected { .. })),
                "{id}: discarded without a detection event"
            );
            assert!(
                has(node, |e| matches!(e, TraceEvent::Discarded { .. })),
                "{id}: ended Inconsistent without a discard event"
            );
            assert!(
                has(node, |e| matches!(e, TraceEvent::CountBumped { .. })),
                "{id}: drop-bad discards carry count evidence"
            );
            assert_eq!(node.completeness_gaps(), Vec::<String>::new(), "{id}");
        }
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
        for (l, node) in dump.discarded_lifecycles.iter().zip(graph.discarded()) {
            assert_eq!((l.shard, l.ctx), (node.id.shard, node.id.ctx));
            let own_edges = l
                .events
                .iter()
                .filter(|r| matches!(r.event, TraceEvent::Caused { .. }))
                .count();
            assert_eq!(own_edges, node.chain_depth(), "{}", l.summary);
            assert!(
                l.events
                    .windows(2)
                    .all(|w| (w[0].at, w[0].seq) < (w[1].at, w[1].seq)),
                "{}: events out of trace order",
                l.summary
            );
        }
    }

    #[test]
    fn transition_table_renders_by_strategy() {
        let cell = observed_cell();
        let counts = transition_counts(&cell.trace);
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
        let table_total: u64 = transition_counts(&cell.trace).values().sum();
        let rows_total: u64 = dump.transitions.iter().map(|r| r.count).sum();
        assert_eq!(table_total, rows_total);
        assert!(!dump.discarded_lifecycles.is_empty());
        assert_eq!(dump.discarded, dump.discarded_lifecycles.len());
        for l in &dump.discarded_lifecycles {
            assert_eq!(l.fate, "discarded");
            assert!(!l.events.is_empty());
        }
        // And it round-trips through the serializer as one document.
        let text = serde_json::to_string_pretty(&dump).unwrap();
        assert!(text.contains("\"discarded_lifecycles\""), "{text}");
        assert!(text.contains("\"timeline\""));
    }

    #[test]
    fn json_dump_surfaces_slo_alerts() {
        let cell = observed_cell();
        // A plain run raises no alerts — the pre-filtered view is empty.
        assert!(json_dump(&cell.trace, &cell.strategy).alerts.is_empty());

        // Splice an SLO transition into the trace the way the sampler
        // records it, and the dump surfaces it without a timeline scan.
        let mut trace = cell.trace.clone();
        let alert = TraceRecord {
            shard: 0,
            seq: trace.last().map(|r| r.seq + 1).unwrap_or(0),
            at: 99,
            event: TraceEvent::Alert {
                rule: "discard_rate > 0.3 for 2".to_owned(),
                metric: "discard_rate".to_owned(),
                kind: Some("rfid".to_owned()),
                value: 0.41,
                threshold: 0.3,
                firing: true,
            },
        };
        trace.push(alert.clone());
        let dump = json_dump(&trace, &cell.strategy);
        assert_eq!(dump.alerts, vec![alert]);
        assert_eq!(dump.events, trace.len(), "alerts stay in the timeline");
        let text = serde_json::to_string(&dump).unwrap();
        assert!(text.contains("\"alerts\""), "{text}");
        assert!(text.contains("discard_rate"), "{text}");
    }

    #[test]
    fn json_dump_surfaces_slow_batch_postmortems() {
        let cell = observed_cell();
        assert!(json_dump(&cell.trace, &cell.strategy)
            .postmortems
            .is_empty());

        // Splice a postmortem the way `batch_add` records it.
        let mut trace = cell.trace.clone();
        let post = TraceRecord {
            shard: 0,
            seq: trace.last().map(|r| r.seq + 1).unwrap_or(0),
            at: 42,
            event: TraceEvent::SlowBatch {
                batch: 3,
                contexts: 128,
                elapsed_ns: 9_000_000,
                bound_ns: 5_000_000,
                phase_self_ns: vec![
                    ("index_maint".to_owned(), 1_000_000),
                    ("constraint_check".to_owned(), 6_000_000),
                    ("resolution".to_owned(), 2_000_000),
                ],
                exemplars: vec![ContextId::from_raw(7)],
            },
        };
        trace.push(post.clone());
        let dump = json_dump(&trace, &cell.strategy);
        assert_eq!(dump.postmortems, vec![post]);
        assert_eq!(dump.events, trace.len(), "postmortems stay in the timeline");
        let text = serde_json::to_string(&dump).unwrap();
        assert!(text.contains("\"postmortems\""), "{text}");
        assert!(text.contains("constraint_check"), "{text}");
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
