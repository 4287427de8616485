//! End-to-end tail-latency spans, slow-context exemplars, and queue
//! wait-versus-service telemetry.
//!
//! The timed phase guards ([`crate::ShardObs::timed`]) time *stages*
//! ([`crate::MetricKind::CheckLatency`], …); nothing in the stack could
//! say how long one context waited from the door to its verdict — the
//! quantity the paper's delay-versus-accuracy trade-off (§3.3) is
//! actually about. This module adds that axis from the same readings:
//!
//! * **context spans** ([`ContextSpan`]): four monotonic stamps per
//!   context — batch/submit ingress, constraint verdict, resolution
//!   decision, and the terminal delivery/discard/expiry — whose three
//!   segments telescope exactly to the end-to-end total;
//! * **per-(shard, outcome) histograms**: totals fold into log-bucketed
//!   histograms (microsecond resolution, so multi-second tails stay in
//!   finite buckets) keyed by [`TailOutcome`], with windowed
//!   p50/p95/p99/p999 computed by the interpolated
//!   [`HistogramSnapshot::quantile_est`];
//! * **exemplar capture** ([`Exemplar`]): contexts whose total exceeds
//!   a rolling p99 threshold land in a bounded per-shard reservoir,
//!   each carrying the causal ID `s<shard>/ctx#<id>` (resolvable by the
//!   `explain` bin) and the packed profiler phase path it completed
//!   under;
//! * **queue decomposition**: the sharded engine reports lock-wait
//!   versus service time for its queues.
//!
//! The outcome histograms, the capture counter and its threshold, and
//! the queue's times and counts are cells in the shard's metric table
//! (`crate::table`): [`E2E`] per outcome, [`CAPTURE_CELLS`] and
//! [`QUEUE_CELLS`], each reported once written. `tail::derive` adds each
//! window's per-outcome quantiles and the queue's wait share, which
//! `/metrics`, `/snapshot`, `obs_top` and the SLO engine read.

use crate::metrics::{quantile_est, HistogramSnapshot, BUCKETS};
use crate::profile::{Phase, PHASES};
use crate::snapshot::{Family, MetricType, Reading, Series, Value};
use crate::table::Table;
use ctxres_context::ContextId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Quantiles the tail surfaces report, in order.
pub const TAIL_QUANTILES: [f64; 4] = [0.5, 0.95, 0.99, 0.999];

/// Exemplar reservoir capacity per shard: big enough to hold the slow
/// contexts a tail investigation starts from, small enough that a
/// snapshot clone is trivial.
pub const EXEMPLAR_CAPACITY: usize = 32;

/// How many end-to-end records pass between rolling-p99 threshold
/// refreshes.
const THRESHOLD_RECALC_EVERY: u64 = 32;

/// End-to-end histograms record in microseconds: the power-of-two
/// buckets then span 1µs..2^23µs (~8.4s) before overflowing, where
/// nanosecond recording would overflow past ~16ms — far too low for
/// spans that include queue waits.
const NS_PER_BUCKET_UNIT: u64 = 1_000;

/// The terminal outcome of a context's end-to-end span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TailOutcome {
    /// The context was used and delivered to the application.
    Delivered,
    /// The context was discarded by the resolution strategy.
    Discarded,
    /// The context aged out of its use window without a delivery.
    Expired,
}

/// Every [`TailOutcome`], in index order.
pub const TAIL_OUTCOMES: [TailOutcome; 3] = [
    TailOutcome::Delivered,
    TailOutcome::Discarded,
    TailOutcome::Expired,
];

impl TailOutcome {
    /// Index of the outcome's end-to-end histogram in a shard's table.
    pub fn index(self) -> usize {
        match self {
            TailOutcome::Delivered => 0,
            TailOutcome::Discarded => 1,
            TailOutcome::Expired => 2,
        }
    }

    /// Snake-case outcome name (stable; used in exports).
    pub fn name(self) -> &'static str {
        match self {
            TailOutcome::Delivered => "delivered",
            TailOutcome::Discarded => "discarded",
            TailOutcome::Expired => "expired",
        }
    }
}

/// One context's end-to-end span: monotonic nanosecond stamps (shared
/// registry epoch) at ingress, constraint verdict, resolution decision,
/// and the terminal event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ContextSpan {
    /// Stamp at submit/batch ingress.
    pub ingress_ns: u64,
    /// Stamp when the constraint verdict for this context landed.
    pub verdict_ns: u64,
    /// Stamp when the resolution strategy decided what to do with it.
    pub decision_ns: u64,
    /// Stamp at delivery, discard, or expiry.
    pub end_ns: u64,
}

/// Names of the three [`ContextSpan::segments`], in order.
pub const SEGMENT_NAMES: [&str; 3] = [
    "ingress_to_verdict",
    "verdict_to_decision",
    "decision_to_end",
];

impl ContextSpan {
    /// The end-to-end total, ingress to terminal event.
    pub fn total_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.ingress_ns)
    }

    /// The three stage segments (ingress→verdict, verdict→decision,
    /// decision→end). For monotone stamps — which the shared-epoch
    /// clock guarantees — these telescope exactly to
    /// [`ContextSpan::total_ns`]; out-of-order stamps are clamped
    /// forward so the sum never exceeds the total.
    pub fn segments(&self) -> [u64; 3] {
        let end = self.end_ns.max(self.ingress_ns);
        let v = self.verdict_ns.clamp(self.ingress_ns, end);
        let d = self.decision_ns.clamp(v, end);
        [v - self.ingress_ns, d - v, end - d]
    }
}

/// A captured slow context: everything needed to chase it.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Exemplar {
    /// The shard that resolved the context (presentation; filled at
    /// snapshot time like [`crate::SpanRecord::shard`]).
    pub shard: usize,
    /// The context id; `causal_id()` renders it for `explain`.
    pub ctx: ContextId,
    /// Terminal outcome of the span.
    pub outcome: TailOutcome,
    /// The full four-stamp span.
    pub span: ContextSpan,
    /// The packed profiler phase path open when the terminal event
    /// recorded (4 bits per level, root in the lowest nibble; 0 when
    /// profiling is off or no phase was open).
    pub phase_path: u64,
    /// Nesting depth of `phase_path` (number of open frames).
    pub phase_depth: u8,
    /// Logical tick of the terminal event.
    pub at: u64,
}

impl Exemplar {
    /// The causal ID in the provenance notation `s<shard>/ctx#<id>`,
    /// accepted verbatim by the `explain` bin.
    pub fn causal_id(&self) -> String {
        format!("s{}/ctx#{}", self.shard, self.ctx.raw())
    }

    /// Decodes the packed phase path into phases, root first.
    pub fn phase_stack(&self) -> Vec<Phase> {
        (0..self.phase_depth as usize)
            .map(|i| PHASES[((self.phase_path >> (4 * i)) & 0xF) as usize % PHASES.len()])
            .collect()
    }
}

/// The bounded exemplar reservoir: at capacity, new captures overwrite
/// the oldest.
#[derive(Debug, Default)]
struct ExemplarRing {
    buf: Vec<Exemplar>,
    next: usize,
}

impl ExemplarRing {
    fn push(&mut self, ex: Exemplar) {
        if self.buf.len() < EXEMPLAR_CAPACITY {
            self.buf.push(ex);
        } else {
            self.buf[self.next] = ex;
            self.next = (self.next + 1) % EXEMPLAR_CAPACITY;
        }
    }
}

/// One shard's exemplar reservoir and its rolling-p99 capture state.
#[derive(Debug, Default)]
pub(crate) struct ShardTailSlot {
    records: AtomicU64,
    exemplars: Mutex<ExemplarRing>,
}

impl ShardTailSlot {
    /// Folds a finished span into the outcome's histogram in `table` and
    /// decides whether it crosses the rolling p99 capture threshold. The
    /// threshold starts at zero (everything early is an exemplar — the
    /// reservoir overwrites the oldest anyway) and refreshes to the
    /// merged p99 estimate every [`THRESHOLD_RECALC_EVERY`] records.
    pub(crate) fn observe(&self, table: &Table, outcome: TailOutcome, total_ns: u64) -> bool {
        table.outcomes[outcome.index()][0].add(total_ns / NS_PER_BUCKET_UNIT);
        let threshold = &table.capture[1];
        let n = self.records.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(THRESHOLD_RECALC_EVERY) {
            // Merged in place: the refresh allocates nothing.
            let mut merged = [0; BUCKETS];
            for group in &table.outcomes {
                group[0].merge_buckets(&mut merged);
            }
            if let Some(p99) = quantile_est(&merged, merged.iter().sum(), 0.99) {
                let t = if p99.is_finite() {
                    ((p99 * NS_PER_BUCKET_UNIT as f64) as u64) as f64
                } else {
                    f64::INFINITY
                };
                threshold.set(Some(t));
            }
        }
        total_ns as f64 >= threshold.read().0.gauge().unwrap_or(0.0)
    }

    /// Stores a captured exemplar (bounded; oldest overwritten) and
    /// counts it in `table`.
    pub(crate) fn capture(&self, table: &Table, ex: Exemplar) {
        table.capture[0].add(1);
        self.exemplars.lock().push(ex);
    }

    /// The reservoir's exemplars, stamped with `shard`.
    pub(crate) fn exemplars(&self, shard: usize) -> Vec<Exemplar> {
        let ring = self.exemplars.lock();
        ring.buf
            .iter()
            .map(|ex| Exemplar {
                shard,
                ..ex.clone()
            })
            .collect()
    }
}

const SHARD: &[&str] = &["shard"];

/// End-to-end totals per (shard, outcome), in microseconds.
pub(crate) const E2E: Family = Family::new(
    MetricType::Histogram,
    "ctxres_e2e_latency_us",
    &["shard", "outcome"],
);
/// Windowed interpolated quantiles per outcome and across all, in
/// nanoseconds.
pub(crate) const E2E_QUANTILE: Family = Family::new(
    MetricType::Gauge,
    "ctxres_e2e_window_quantile_ns",
    &["outcome", "q"],
);
const CAPTURED: Family = Family::new(
    MetricType::Counter,
    "ctxres_e2e_exemplars_captured_total",
    SHARD,
);
const THRESHOLD: Family = Family::new(MetricType::Gauge, "ctxres_e2e_capture_threshold_ns", SHARD);
const QUEUE_WAIT: Family = Family::scaled(
    MetricType::Counter,
    "ctxres_queue_wait_seconds_total",
    SHARD,
    1e9,
);
const QUEUE_SERVICE: Family = Family::scaled(
    MetricType::Counter,
    "ctxres_queue_service_seconds_total",
    SHARD,
    1e9,
);
/// Lock waits recorded.
const QUEUE_WAITS: Family = Family::new(MetricType::Counter, "ctxres_queue_waits_total", SHARD);
/// Service intervals recorded.
const QUEUE_SERVICES: Family =
    Family::new(MetricType::Counter, "ctxres_queue_services_total", SHARD);
const QUEUE_WAIT_SHARE: Family = Family::new(MetricType::Gauge, "ctxres_queue_wait_share", &[]);
/// A shard's capture cells, in cell order: exemplars captured, then the
/// rolling-p99 threshold the next span must reach.
pub(crate) const CAPTURE_CELLS: [Family; 2] = [CAPTURED, THRESHOLD];
/// A shard's queue cells, in cell order: wait and service time, then
/// the waits and service intervals recorded.
pub(crate) const QUEUE_CELLS: [Family; 4] =
    [QUEUE_WAIT, QUEUE_SERVICE, QUEUE_WAITS, QUEUE_SERVICES];

/// The tail families, in exposition order.
pub(crate) fn families() -> Vec<Family> {
    let mut out = vec![E2E, E2E_QUANTILE];
    out.extend(CAPTURE_CELLS);
    out.extend(QUEUE_CELLS);
    out.push(QUEUE_WAIT_SHARE);
    out
}

/// The tail gauges derived from one window: p50/p95/p99/p999 of the
/// end-to-end totals per outcome and across all outcomes (interpolated,
/// in nanoseconds; a rank in the overflow bucket has no estimate), and
/// the queue's wait share `wait / (wait + service)`.
pub(crate) fn derive(series: &[Series], out: &mut Vec<Series>) {
    let window = |s: &Series| s.window.as_ref().and_then(Value::histogram).cloned();
    let mut all = HistogramSnapshot::empty();
    let mut quantiles = |name: &str, h: &HistogramSnapshot| {
        if h.count == 0 {
            return;
        }
        for q in TAIL_QUANTILES {
            if let Some(v) = h.quantile_est(q).filter(|v| v.is_finite()) {
                let ns = v * NS_PER_BUCKET_UNIT as f64;
                out.push(E2E_QUANTILE.series(&[name, &q.to_string()], Value::Gauge(Reading(ns))));
            }
        }
    };
    for outcome in TAIL_OUTCOMES {
        let mut merged = HistogramSnapshot::empty();
        for s in series
            .iter()
            .filter(|s| s.family == E2E.name && s.label("outcome") == Some(outcome.name()))
        {
            if let Some(h) = window(s) {
                merged.merge(&h);
            }
        }
        all.merge(&merged);
        quantiles(outcome.name(), &merged);
    }
    quantiles("all", &all);
    let delta = |family: &Family| -> u64 {
        series
            .iter()
            .filter(|s| s.family == family.name)
            .map(Series::delta)
            .sum()
    };
    let (wait, service) = (delta(&QUEUE_WAIT), delta(&QUEUE_SERVICE));
    if wait + service > 0 {
        let share = wait as f64 / (wait + service) as f64;
        out.push(QUEUE_WAIT_SHARE.series(&[], Value::Gauge(Reading(share))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ObsConfig, ObsRegistry, ShardObs};
    use crate::snapshot::{Sample, Sampler};
    use ctxres_context::LogicalTime;
    use std::sync::Arc;

    fn span(ingress: u64, verdict: u64, decision: u64, end: u64) -> ContextSpan {
        ContextSpan {
            ingress_ns: ingress,
            verdict_ns: verdict,
            decision_ns: decision,
            end_ns: end,
        }
    }

    fn ex(ctx: u64, total_ns: u64) -> Exemplar {
        Exemplar {
            shard: 0,
            ctx: ContextId::from_raw(ctx),
            outcome: TailOutcome::Delivered,
            span: span(0, 1, 2, total_ns),
            phase_path: 0,
            phase_depth: 0,
            at: 0,
        }
    }

    /// A metrics-only registry of `shards` slots, the tail layer on or
    /// off.
    pub(super) fn registry(shards: usize, tail: bool) -> Arc<ObsRegistry> {
        ObsRegistry::shared(ObsConfig::metrics_only().with_tail(tail), shards)
    }

    /// Records a delivered span of `total_ns` for context `ctx`.
    pub(super) fn record(h: &ShardObs, ctx: u64, total_ns: u64) {
        h.record_e2e(
            ContextId::from_raw(ctx),
            TailOutcome::Delivered,
            span(0, 0, 0, total_ns),
            LogicalTime::new(ctx),
        );
    }

    /// Records like [`record`] on shard 0 and returns whether the span
    /// was captured as an exemplar.
    fn captures(registry: &Arc<ObsRegistry>, ctx: u64, total_ns: u64) -> bool {
        let captured = || registry.snapshot().total(CAPTURED.name);
        let before = captured();
        record(&registry.handle(0), ctx, total_ns);
        captured() > before
    }

    /// The registry's first sample: every window is the whole history,
    /// followed by the gauges derived from it.
    fn windowed(registry: &Arc<ObsRegistry>) -> Sample {
        Sampler::new(Arc::clone(registry)).sample_after(0.0)
    }

    fn quantile(out: &Sample, outcome: &str, q: &str) -> Option<f64> {
        out.gauge(E2E_QUANTILE.name, &[("outcome", outcome), ("q", q)])
    }

    #[test]
    fn segments_telescope_for_monotone_stamps() {
        let s = span(10, 40, 45, 100);
        assert_eq!(s.segments(), [30, 5, 55]);
        assert_eq!(s.segments().iter().sum::<u64>(), s.total_ns());
    }

    #[test]
    fn causal_id_matches_provenance_notation() {
        let mut e = ex(12, 100);
        e.shard = 3;
        assert_eq!(e.causal_id(), "s3/ctx#12");
    }

    #[test]
    fn phase_stack_round_trips_the_packed_path() {
        let mut e = ex(1, 100);
        // ingest (index 0) at root, constraint_check (index 2) nested.
        e.phase_path = 2 << 4;
        e.phase_depth = 2;
        assert_eq!(e.phase_stack(), vec![Phase::Ingest, Phase::ConstraintCheck]);
    }

    #[test]
    fn disabled_slot_records_nothing() {
        let registry = registry(1, false);
        let h = registry.handle(0);
        record(&h, 1, 1_000_000);
        h.record_queue_wait(5);
        let snap = registry.snapshot();
        assert!(
            families()
                .iter()
                .all(|f| snap.family(f.name).next().is_none()),
            "{:?}",
            snap.series
        );
        assert!(snap.exemplars.is_empty());
    }

    #[test]
    fn threshold_starts_open_then_tracks_p99() {
        let registry = registry(1, true);
        // Before the first refresh everything crosses the zero
        // threshold.
        assert!(captures(&registry, 0, 10_000));
        // A uniform fast load pushes the threshold up past the slow
        // refresh point; after it, a fast span no longer captures but a
        // slow one does.
        for i in 0..THRESHOLD_RECALC_EVERY * 2 {
            record(&registry.handle(0), i, 1_000);
        }
        assert!(!captures(&registry, 1, 500));
        assert!(captures(&registry, 2, u64::MAX / 2));
    }

    /// The refreshed threshold is the interpolated p99 of the three
    /// outcome histograms merged into one snapshot.
    #[test]
    fn threshold_refresh_equals_the_merged_snapshot_p99() {
        let registry = registry(1, true);
        let h = registry.handle(0);
        for i in 0..THRESHOLD_RECALC_EVERY {
            let outcome = TAIL_OUTCOMES[i as usize % 3];
            let total_ns = (i + 1) * (i + 1) * 7_919;
            h.record_e2e(
                ContextId::from_raw(i),
                outcome,
                span(0, 0, 0, total_ns),
                LogicalTime::new(i),
            );
        }
        let snap = registry.snapshot();
        let mut merged = HistogramSnapshot::empty();
        for s in snap.family(E2E.name) {
            merged.merge(s.value.histogram().unwrap());
        }
        assert_eq!(merged.count, THRESHOLD_RECALC_EVERY);
        let p99 = merged.quantile_est(0.99).unwrap();
        let threshold = snap.gauge(THRESHOLD.name, &[("shard", "0")]);
        assert_eq!(
            threshold,
            Some(((p99 * NS_PER_BUCKET_UNIT as f64) as u64) as f64)
        );
    }

    #[test]
    fn reservoir_is_bounded_and_keeps_newest() {
        let registry = registry(3, true);
        let h = registry.handle(2);
        // Equal totals never fall below the rolling p99, so every span
        // is captured.
        for i in 0..(EXEMPLAR_CAPACITY as u64 + 10) {
            record(&h, i, 1_000);
        }
        let snap = registry.snapshot();
        let exemplars = &snap.exemplars;
        assert_eq!(exemplars.len(), EXEMPLAR_CAPACITY);
        let captured = snap.family(CAPTURED.name).collect::<Vec<_>>();
        assert_eq!(captured.len(), 1, "only the capturing shard reports");
        assert_eq!(captured[0].value.counter(), EXEMPLAR_CAPACITY as u64 + 10);
        assert_eq!(captured[0].label("shard"), Some("2"));
        assert!(exemplars.iter().all(|e| e.shard == 2));
        // The overwritten slots hold the newest ids.
        assert!(exemplars
            .iter()
            .any(|e| e.ctx == ContextId::from_raw(EXEMPLAR_CAPACITY as u64 + 9)));
        assert!(!exemplars.iter().any(|e| e.ctx == ContextId::from_raw(0)));
    }

    #[test]
    fn windowed_sample_subtracts_the_previous_snapshot() {
        let registry = registry(1, true);
        let record = |outcome, total_ns| {
            registry.handle(0).record_e2e(
                ContextId::from_raw(1),
                outcome,
                span(0, 0, 0, total_ns),
                LogicalTime::new(1),
            );
        };
        for _ in 0..10 {
            record(TailOutcome::Delivered, 2_000_000);
        }
        let mut sampler = Sampler::new(Arc::clone(&registry));
        sampler.sample_after(0.0);
        for _ in 0..5 {
            record(TailOutcome::Discarded, 8_000_000);
        }
        let s = sampler.sample_after(1.0);
        assert_eq!(s.window_histogram(E2E.name, &[]).count, 5);
        let discarded = [("outcome", "discarded")];
        assert_eq!(s.window_histogram(E2E.name, &discarded).count, 5);
        assert_eq!(
            s.window_histogram(E2E.name, &[("outcome", "delivered")])
                .count,
            0
        );
        let p99 = quantile(&s, "discarded", "0.99").unwrap();
        assert!(p99 <= 8192.0 * 1_000.0 && p99 > 4_000_000.0, "{p99}");
        assert!(quantile(&s, "delivered", "0.99").is_none());
    }

    #[test]
    fn queue_window_decomposes_wait_vs_service() {
        let registry = registry(1, true);
        let h = registry.handle(0);
        h.record_queue_wait(100);
        h.record_queue_wait(300);
        h.record_queue_service(600);
        let out = windowed(&registry);
        let avg = |ns: Family, n: Family| out.delta(ns.name) as f64 / out.delta(n.name) as f64;
        assert_eq!(avg(QUEUE_WAIT, QUEUE_WAITS), 200.0);
        assert_eq!(avg(QUEUE_SERVICE, QUEUE_SERVICES), 600.0);
        assert_eq!(out.gauge(QUEUE_WAIT_SHARE.name, &[]), Some(0.4));
    }

    #[test]
    fn tail_sample_round_trips_through_serde() {
        let registry = registry(1, true);
        let h = registry.handle(0);
        h.record_e2e(
            ContextId::from_raw(9),
            TailOutcome::Expired,
            span(0, 1_000_000, 2_000_000, 3_000_000),
            LogicalTime::new(2),
        );
        h.record_queue_wait(40);
        let sample = Sampler::new(registry).sample_after(0.0);
        assert_eq!(sample.exemplars.len(), 1);
        let json = serde_json::to_string(&sample).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sample);
    }

    #[test]
    fn overflow_bucket_quantiles_are_none_not_infinite() {
        let registry = registry(1, true);
        record(&registry.handle(0), 1, u64::MAX);
        let out = windowed(&registry);
        assert_eq!(
            quantile(&out, "all", "0.99"),
            None,
            "infinite estimates have no series"
        );
        let e2e = out.find(E2E.name, &[]).unwrap();
        assert_eq!(e2e.value.histogram().unwrap().count, 1);
    }
}

#[cfg(test)]
mod invariant_proptests {
    //! The two reservoir/span invariants the tail layer pins: the
    //! exemplar reservoir never exceeds its bound (even under concurrent
    //! writers), and a context span's segments telescope exactly to the
    //! end-to-end total.

    use super::tests::{record, registry};
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn segments_telescope_to_the_total(
            ingress in 0u64..1 << 40,
            d1 in 0u64..1 << 30,
            d2 in 0u64..1 << 30,
            d3 in 0u64..1 << 30,
        ) {
            let s = ContextSpan {
                ingress_ns: ingress,
                verdict_ns: ingress + d1,
                decision_ns: ingress + d1 + d2,
                end_ns: ingress + d1 + d2 + d3,
            };
            prop_assert_eq!(s.segments(), [d1, d2, d3]);
            prop_assert_eq!(s.segments().iter().sum::<u64>(), s.total_ns());
        }

        #[test]
        fn out_of_order_stamps_never_overshoot_the_total(
            ingress in 0u64..1 << 30,
            verdict in 0u64..1 << 30,
            decision in 0u64..1 << 30,
            end in 0u64..1 << 30,
        ) {
            let s = ContextSpan {
                ingress_ns: ingress,
                verdict_ns: verdict,
                decision_ns: decision,
                end_ns: end,
            };
            // Clamping keeps every segment inside [ingress, end], so
            // the telescoped sum still equals the saturating total.
            prop_assert_eq!(s.segments().iter().sum::<u64>(), s.total_ns());
        }

        #[test]
        fn reservoir_never_exceeds_its_bound(
            captures in 0usize..200,
        ) {
            let registry = registry(1, true);
            let h = registry.handle(0);
            for i in 0..captures {
                // Equal totals: every span is captured.
                record(&h, i as u64, 1_000);
            }
            let snap = registry.snapshot();
            prop_assert!(snap.exemplars.len() <= EXEMPLAR_CAPACITY);
            prop_assert_eq!(snap.exemplars.len(), captures.min(EXEMPLAR_CAPACITY));
            prop_assert_eq!(snap.total(CAPTURED.name), captures as u64);
        }

        #[test]
        fn reservoir_bound_survives_concurrent_writers(
            per_thread in 1usize..40,
            threads in 2usize..5,
        ) {
            let registry = registry(1, true);
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let h = registry.handle(0);
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            let n = (t * per_thread + i) as u64;
                            record(&h, n, n * 1_000);
                        }
                    });
                }
            });
            let snap = registry.snapshot();
            prop_assert!(snap.exemplars.len() <= EXEMPLAR_CAPACITY);
            prop_assert!(snap.total(CAPTURED.name) <= (per_thread * threads) as u64);
            let spans: u64 = snap
                .family(E2E.name)
                .filter_map(|s| s.value.histogram())
                .map(|h| h.count)
                .sum();
            prop_assert_eq!(spans, (per_thread * threads) as u64);
        }
    }
}
