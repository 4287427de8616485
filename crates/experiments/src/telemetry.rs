//! Per-cell telemetry: tagging one experiment cell's observability
//! record, reconstructing context life cycles from its trace, and
//! rendering the human-readable views `trace_dump` prints.
//!
//! An experiment grid is a set of `(strategy, err_rate, seed)` cells;
//! with [`crate::runner::run_named_observed`] each cell yields a
//! [`CellTelemetry`] carrying the drained event trace and the metrics
//! snapshot of that one run. From a trace, [`reconstruct_lifecycles`]
//! rebuilds each context's journey through the Fig. 8 life cycle —
//! creation, detections, count bumps, bad-marking, and the final
//! delivery/discard — which is how the acceptance check "every discarded
//! context's life cycle is reconstructable" is implemented.

use ctxres_context::{ContextId, ContextState};
use ctxres_obs::{ObsRegistry, ObsSnapshot, TraceEvent, TraceRecord};
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

    /// The reconstructed life cycles of this cell's trace.
    pub fn lifecycles(&self) -> Vec<Lifecycle> {
        reconstruct_lifecycles(&self.trace)
    }
}

/// One context's reconstructed journey through the middleware: every
/// trace event involving it, in trace order.
#[derive(Debug, Clone, PartialEq)]
pub struct Lifecycle {
    /// The shard whose engine owned the context (ids are shard-local).
    pub shard: u32,
    /// The context.
    pub ctx: ContextId,
    /// Every event involving the context, in trace order.
    pub events: Vec<TraceRecord>,
}

impl Lifecycle {
    /// The tick the context entered the middleware, when traced.
    pub fn received_at(&self) -> Option<u64> {
        self.events
            .iter()
            .find(|r| matches!(r.event, TraceEvent::Received { .. }))
            .map(|r| r.at)
    }

    /// The last life-cycle state the trace saw the context in
    /// (`None` when no `StateChanged` involved it — it ended the run
    /// still `Undecided`).
    pub fn final_state(&self) -> Option<ContextState> {
        self.events.iter().rev().find_map(|r| match &r.event {
            TraceEvent::StateChanged { to, .. } => Some(*to),
            _ => None,
        })
    }

    /// The context's count-value history (each tracked inconsistency it
    /// joined bumped it once).
    pub fn count_values(&self) -> Vec<u64> {
        self.events
            .iter()
            .filter_map(|r| match &r.event {
                TraceEvent::CountBumped { count, .. } => Some(*count),
                _ => None,
            })
            .collect()
    }

    /// Whether detection ever implicated the context.
    pub fn was_detected(&self) -> bool {
        self.events
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Detected { .. }))
    }

    /// Whether the context was discarded.
    pub fn was_discarded(&self) -> bool {
        self.events
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Discarded { .. }))
    }

    /// Whether the context was delivered to applications.
    pub fn was_delivered(&self) -> bool {
        self.events
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Delivered { .. }))
    }

    /// A one-word fate for summaries.
    pub fn fate(&self) -> &'static str {
        if self.was_discarded() {
            "discarded"
        } else if self.was_delivered() {
            "delivered"
        } else if self
            .events
            .iter()
            .any(|r| matches!(r.event, TraceEvent::Expired { .. }))
        {
            "expired"
        } else {
            "pending"
        }
    }

    /// One line: `shard 0 ctx#3: received t2, counts [1, 2], discarded`.
    pub fn summary(&self) -> String {
        let mut out = format!("shard {} {}: ", self.shard, self.ctx);
        match self.received_at() {
            Some(t) => {
                let _ = write!(out, "received t{t}");
            }
            None => out.push_str("(no receive event)"),
        }
        let counts = self.count_values();
        if !counts.is_empty() {
            let _ = write!(out, ", counts {counts:?}");
        }
        let _ = write!(out, ", {}", self.fate());
        out
    }
}

/// Groups a trace by `(shard, context)` and returns each context's life
/// cycle, ordered by shard then context id. Detection and Δ events are
/// attributed to **every** context they involve.
pub fn reconstruct_lifecycles(trace: &[TraceRecord]) -> Vec<Lifecycle> {
    let mut by_ctx: BTreeMap<(u32, ContextId), Vec<TraceRecord>> = BTreeMap::new();
    for record in trace {
        for ctx in record.event.contexts() {
            by_ctx
                .entry((record.shard, ctx))
                .or_default()
                .push(record.clone());
        }
    }
    by_ctx
        .into_iter()
        .map(|((shard, ctx), events)| Lifecycle { shard, ctx, events })
        .collect()
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

/// One discarded (or otherwise notable) context's reconstructed life
/// cycle, flattened for machine consumption.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LifecycleDump {
    /// Owning shard.
    pub shard: u32,
    /// The context (ids are shard-local).
    pub ctx: ContextId,
    /// The human one-liner (`shard 0 ctx#3: received t2, …`).
    pub summary: String,
    /// `delivered` / `discarded` / `expired` / `pending`.
    pub fate: String,
    /// Tick the context entered the middleware.
    pub received_at: Option<u64>,
    /// Count-value history (one bump per tracked inconsistency).
    pub counts: Vec<u64>,
    /// Every event involving the context, in trace order.
    pub events: Vec<TraceRecord>,
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
    /// Life cycles of every context that ended `Inconsistent`.
    pub discarded_lifecycles: Vec<LifecycleDump>,
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
    let lifecycles = reconstruct_lifecycles(trace);
    let discarded_lifecycles: Vec<LifecycleDump> = lifecycles
        .iter()
        .filter(|l| l.final_state() == Some(ContextState::Inconsistent))
        .map(|l| LifecycleDump {
            shard: l.shard,
            ctx: l.ctx,
            summary: l.summary(),
            fate: l.fate().to_owned(),
            received_at: l.received_at(),
            counts: l.count_values(),
            events: l.events.clone(),
        })
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
        contexts_traced: lifecycles.len(),
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

    /// Satellite acceptance: every context that ends the run
    /// `Inconsistent` has a matching detection and discard event, and
    /// nothing was evicted from the ring.
    #[test]
    fn trace_is_complete_for_every_discarded_context() {
        let cell = observed_cell();
        assert_eq!(cell.dropped, 0);
        let lifecycles = cell.lifecycles();
        let discarded: Vec<&Lifecycle> = lifecycles
            .iter()
            .filter(|l| l.final_state() == Some(ContextState::Inconsistent))
            .collect();
        assert!(
            !discarded.is_empty(),
            "a 30% error rate drop-bad run must discard something"
        );
        for l in discarded {
            assert!(
                l.was_detected(),
                "{}: discarded without a detection event",
                l.ctx
            );
            assert!(
                l.was_discarded(),
                "{}: ended Inconsistent without a discard event",
                l.ctx
            );
            assert!(l.received_at().is_some(), "{}: no creation event", l.ctx);
            assert!(
                !l.count_values().is_empty(),
                "{}: drop-bad discards carry count evidence",
                l.ctx
            );
        }
    }

    #[test]
    fn every_context_lifecycle_is_reconstructable() {
        let cell = observed_cell();
        for l in cell.lifecycles() {
            // Every traced context entered through a Received event
            // (delta/detected-only entries aside, which still carry it
            // because detection follows reception in the same trace).
            assert!(l.received_at().is_some(), "{}: no receive event", l.ctx);
            assert_ne!(l.fate(), "pending", "{}: undecided after drain", l.ctx);
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
