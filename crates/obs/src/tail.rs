//! End-to-end tail-latency spans, slow-context exemplars, and queue
//! wait-versus-service telemetry.
//!
//! The per-operation histograms ([`crate::MetricKind::CheckLatency`],
//! [`crate::MetricKind::IngestLatency`], …) time *stages*; nothing in
//! the stack could say how long one context waited from the door to its
//! verdict — the quantity the paper's delay-versus-accuracy trade-off
//! (§3.3) is actually about. This module adds that missing axis:
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
//!   `explain` bin), the packed profiler phase path it completed under,
//!   and its batch index;
//! * **queue decomposition**: the sharded engine reports lock-wait
//!   versus service time for its queues.
//!
//! Everything is cumulative at the slot level and reports into the
//! registry's one snapshot; `tail::derive` adds each window's per-outcome
//! quantiles and the queue's wait share, which `/metrics`,
//! `/snapshot`, `obs_top` and the SLO engine read.

use crate::metrics::{Histogram, HistogramSnapshot};
use crate::profile::{Phase, PHASES};
use crate::snapshot::{Family, MetricType, Reading, Series, Value};
use ctxres_context::ContextId;
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Quantiles the tail surfaces report, in order.
pub const TAIL_QUANTILES: [f64; 4] = [0.5, 0.95, 0.99, 0.999];

/// Exemplar reservoir capacity per shard: big enough to catch a
/// postmortem's worth of slow contexts, small enough that a snapshot
/// clone is trivial.
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
    /// Index into a tail slot's histogram array.
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

/// A captured slow context: everything a postmortem needs to chase it.
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
    /// Which ingestion batch the context arrived in (engine-local,
    /// monotone; 0 for non-batch submits).
    pub batch_index: u64,
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

/// One shard's tail-telemetry state: per-outcome histograms, the
/// rolling-p99 capture threshold, the exemplar reservoir, and the
/// queue counters. Everything but the reservoir is lock-free.
#[derive(Debug)]
pub(crate) struct ShardTailSlot {
    enabled: bool,
    hists: [Histogram; TAIL_OUTCOMES.len()],
    threshold_ns: AtomicU64,
    records: AtomicU64,
    captured: AtomicU64,
    exemplars: Mutex<ExemplarRing>,
    wait_ns: AtomicU64,
    wait_count: AtomicU64,
    service_ns: AtomicU64,
    service_count: AtomicU64,
}

impl ShardTailSlot {
    pub(crate) fn new(enabled: bool) -> Self {
        ShardTailSlot {
            enabled,
            hists: Default::default(),
            threshold_ns: AtomicU64::new(0),
            records: AtomicU64::new(0),
            captured: AtomicU64::new(0),
            exemplars: Mutex::new(ExemplarRing::default()),
            wait_ns: AtomicU64::new(0),
            wait_count: AtomicU64::new(0),
            service_ns: AtomicU64::new(0),
            service_count: AtomicU64::new(0),
        }
    }

    pub(crate) fn enabled(&self) -> bool {
        self.enabled
    }

    /// Folds a finished span into the outcome histogram and decides
    /// whether it crosses the rolling p99 capture threshold. The
    /// threshold starts at zero (everything early is an exemplar — the
    /// reservoir overwrites the oldest anyway) and refreshes to the
    /// merged p99 estimate every [`THRESHOLD_RECALC_EVERY`] records.
    pub(crate) fn observe(&self, outcome: TailOutcome, total_ns: u64) -> bool {
        if !self.enabled {
            return false;
        }
        self.hists[outcome.index()].record(total_ns / NS_PER_BUCKET_UNIT);
        let n = self.records.fetch_add(1, Ordering::Relaxed) + 1;
        if n.is_multiple_of(THRESHOLD_RECALC_EVERY) {
            let mut merged = self.hists[0].snapshot();
            for h in &self.hists[1..] {
                merged.merge(&h.snapshot());
            }
            if let Some(p99) = merged.quantile_est(0.99) {
                let t = if p99.is_finite() {
                    (p99 * NS_PER_BUCKET_UNIT as f64) as u64
                } else {
                    u64::MAX
                };
                self.threshold_ns.store(t, Ordering::Relaxed);
            }
        }
        total_ns >= self.threshold_ns.load(Ordering::Relaxed)
    }

    /// Stores a captured exemplar (bounded; oldest overwritten).
    pub(crate) fn capture(&self, ex: Exemplar) {
        if !self.enabled {
            return;
        }
        self.captured.fetch_add(1, Ordering::Relaxed);
        self.exemplars.lock().push(ex);
    }

    /// Records one lock-wait interval for this shard's queue.
    pub(crate) fn record_queue_wait(&self, ns: u64) {
        if !self.enabled {
            return;
        }
        self.wait_ns.fetch_add(ns, Ordering::Relaxed);
        self.wait_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one service interval for this shard's queue.
    pub(crate) fn record_queue_service(&self, ns: u64) {
        if !self.enabled {
            return;
        }
        self.service_ns.fetch_add(ns, Ordering::Relaxed);
        self.service_count.fetch_add(1, Ordering::Relaxed);
    }
}

const SHARD: &[&str] = &["shard"];

/// End-to-end totals per (shard, outcome), in microseconds.
const E2E: Family = Family::new(
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

/// The tail families, in exposition order.
pub(crate) fn families() -> Vec<Family> {
    vec![
        E2E,
        E2E_QUANTILE,
        CAPTURED,
        THRESHOLD,
        QUEUE_WAIT,
        QUEUE_SERVICE,
        QUEUE_WAITS,
        QUEUE_SERVICES,
        QUEUE_WAIT_SHARE,
    ]
}

/// Reports every shard's recorded outcome histograms, capture counters
/// (once something was captured) and queue times and counts (once
/// something queued), and returns the reservoirs' exemplars stamped
/// with their shard.
pub(crate) fn report<'a>(
    slots: impl Iterator<Item = &'a ShardTailSlot>,
    out: &mut Vec<Series>,
) -> Vec<Exemplar> {
    let mut exemplars = Vec::new();
    for (i, slot) in slots.enumerate() {
        let label = i.to_string();
        let shard = [label.as_str()];
        for outcome in TAIL_OUTCOMES {
            let h = slot.hists[outcome.index()].snapshot();
            if h.count > 0 {
                out.push(E2E.series(&[shard[0], outcome.name()], Value::Histogram(h)));
            }
        }
        let captured = slot.captured.load(Ordering::Relaxed);
        if captured > 0 {
            let t = slot.threshold_ns.load(Ordering::Relaxed);
            let t = if t == u64::MAX {
                f64::INFINITY
            } else {
                t as f64
            };
            out.push(CAPTURED.series(&shard, Value::Counter(captured)));
            out.push(THRESHOLD.series(&shard, Value::Gauge(Reading(t))));
        }
        let (waits, services) = (
            slot.wait_count.load(Ordering::Relaxed),
            slot.service_count.load(Ordering::Relaxed),
        );
        if waits > 0 || services > 0 {
            let load = |cell: &AtomicU64| Value::Counter(cell.load(Ordering::Relaxed));
            out.push(QUEUE_WAIT.series(&shard, load(&slot.wait_ns)));
            out.push(QUEUE_SERVICE.series(&shard, load(&slot.service_ns)));
            out.push(QUEUE_WAITS.series(&shard, Value::Counter(waits)));
            out.push(QUEUE_SERVICES.series(&shard, Value::Counter(services)));
        }
        exemplars.extend(slot.exemplars.lock().buf.iter().map(|ex| Exemplar {
            shard: i,
            ..ex.clone()
        }));
    }
    exemplars
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
    use crate::snapshot::SeriesList;

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
            batch_index: 0,
            phase_path: 0,
            phase_depth: 0,
            at: 0,
        }
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

    /// One slot's reported series and exemplars, as shard `shard`.
    fn reported(slot: &ShardTailSlot, shard: usize) -> (Vec<Series>, Vec<Exemplar>) {
        let mut out = Vec::new();
        let idle = (0..shard)
            .map(|_| ShardTailSlot::new(false))
            .collect::<Vec<_>>();
        let exemplars = report(idle.iter().chain([slot]), &mut out);
        (out, exemplars)
    }

    /// One window whose histograms and queue counters are the slot's
    /// whole history: the reported series, then the derived gauges.
    fn windowed(slot: &ShardTailSlot) -> SeriesList {
        let (mut series, _) = reported(slot, 0);
        for s in &mut series {
            s.window = Some(s.value.clone());
        }
        let mut derived = Vec::new();
        derive(&series, &mut derived);
        series.append(&mut derived);
        SeriesList(series)
    }

    fn quantile(out: &SeriesList, outcome: &str, q: &str) -> Option<f64> {
        out.gauge(E2E_QUANTILE.name, &[("outcome", outcome), ("q", q)])
    }

    #[test]
    fn disabled_slot_records_nothing() {
        let slot = ShardTailSlot::new(false);
        assert!(!slot.observe(TailOutcome::Delivered, 1_000_000));
        slot.capture(ex(1, 1_000_000));
        slot.record_queue_wait(5);
        let (series, exemplars) = reported(&slot, 0);
        assert!(series.is_empty(), "{series:?}");
        assert!(exemplars.is_empty());
    }

    #[test]
    fn threshold_starts_open_then_tracks_p99() {
        let slot = ShardTailSlot::new(true);
        // Before the first refresh everything crosses the zero
        // threshold.
        assert!(slot.observe(TailOutcome::Delivered, 10_000));
        // A uniform fast load pushes the threshold up past the slow
        // refresh point; after it, a fast span no longer captures but a
        // slow one does.
        for _ in 0..THRESHOLD_RECALC_EVERY * 2 {
            slot.observe(TailOutcome::Delivered, 1_000);
        }
        assert!(!slot.observe(TailOutcome::Delivered, 500));
        assert!(slot.observe(TailOutcome::Delivered, u64::MAX / 2));
    }

    #[test]
    fn reservoir_is_bounded_and_keeps_newest() {
        let slot = ShardTailSlot::new(true);
        for i in 0..(EXEMPLAR_CAPACITY as u64 + 10) {
            slot.capture(ex(i, 1_000));
        }
        let (series, exemplars) = reported(&slot, 2);
        assert_eq!(exemplars.len(), EXEMPLAR_CAPACITY);
        let captured = series.iter().find(|s| s.family == CAPTURED.name).unwrap();
        assert_eq!(captured.value.counter(), EXEMPLAR_CAPACITY as u64 + 10);
        assert_eq!(captured.label("shard"), Some("2"));
        assert!(exemplars.iter().all(|e| e.shard == 2));
        // The overwritten slots hold the newest ids.
        assert!(exemplars
            .iter()
            .any(|e| e.ctx == ContextId::from_raw(EXEMPLAR_CAPACITY as u64 + 9)));
        assert!(!exemplars.iter().any(|e| e.ctx == ContextId::from_raw(0)));
    }

    #[test]
    fn windowed_sample_subtracts_the_previous_snapshot() {
        use crate::registry::{ObsConfig, ObsRegistry};
        use crate::snapshot::Sampler;
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_tail(true), 1);
        let record = |outcome, total_ns| {
            registry.handle(0).record_e2e(
                ContextId::from_raw(1),
                outcome,
                span(0, 0, 0, total_ns),
                0,
                ctxres_context::LogicalTime::new(1),
            );
        };
        for _ in 0..10 {
            record(TailOutcome::Delivered, 2_000_000);
        }
        let mut sampler = Sampler::new(std::sync::Arc::clone(&registry));
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
        let p99 = s
            .gauge(
                E2E_QUANTILE.name,
                &[("outcome", "discarded"), ("q", "0.99")],
            )
            .unwrap();
        assert!(p99 <= 8192.0 * 1_000.0 && p99 > 4_000_000.0, "{p99}");
        assert!(s
            .gauge(
                E2E_QUANTILE.name,
                &[("outcome", "delivered"), ("q", "0.99")]
            )
            .is_none());
    }

    #[test]
    fn queue_window_decomposes_wait_vs_service() {
        let slot = ShardTailSlot::new(true);
        slot.record_queue_wait(100);
        slot.record_queue_wait(300);
        slot.record_queue_service(600);
        let out = windowed(&slot);
        let avg = |ns: Family, n: Family| out.delta(ns.name) as f64 / out.delta(n.name) as f64;
        assert_eq!(avg(QUEUE_WAIT, QUEUE_WAITS), 200.0);
        assert_eq!(avg(QUEUE_SERVICE, QUEUE_SERVICES), 600.0);
        assert_eq!(out.gauge(QUEUE_WAIT_SHARE.name, &[]), Some(0.4));
    }

    #[test]
    fn tail_sample_round_trips_through_serde() {
        use crate::registry::{ObsConfig, ObsRegistry};
        use crate::snapshot::{Sample, Sampler};
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_tail(true), 1);
        let h = registry.handle(0);
        h.record_e2e(
            ContextId::from_raw(9),
            TailOutcome::Expired,
            span(0, 1_000_000, 2_000_000, 3_000_000),
            4,
            ctxres_context::LogicalTime::new(2),
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
        let slot = ShardTailSlot::new(true);
        slot.observe(TailOutcome::Delivered, u64::MAX);
        let out = windowed(&slot);
        assert_eq!(
            quantile(&out, "all", "0.99"),
            None,
            "infinite estimates have no series"
        );
        let (series, _) = reported(&slot, 0);
        assert_eq!(series[0].value.histogram().unwrap().count, 1);
    }
}

#[cfg(test)]
mod invariant_proptests {
    //! The two reservoir/span invariants the issue pins: the exemplar
    //! reservoir never exceeds its bound (even under concurrent
    //! writers), and a context span's segments telescope exactly to the
    //! end-to-end total.

    use super::*;
    use proptest::prelude::*;
    use std::sync::Arc;

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
            let slot = ShardTailSlot::new(true);
            for i in 0..captures {
                slot.capture(Exemplar {
                    shard: 0,
                    ctx: ContextId::from_raw(i as u64),
                    outcome: TailOutcome::Delivered,
                    span: ContextSpan::default(),
                    batch_index: 0,
                    phase_path: 0,
                    phase_depth: 0,
                    at: 0,
                });
            }
            let mut series = Vec::new();
            let exemplars = report(std::iter::once(&slot), &mut series);
            prop_assert!(exemplars.len() <= EXEMPLAR_CAPACITY);
            prop_assert_eq!(exemplars.len(), captures.min(EXEMPLAR_CAPACITY));
            let captured: u64 = series.iter().map(|s| s.value.counter()).sum();
            prop_assert_eq!(captured, captures as u64);
        }

        #[test]
        fn reservoir_bound_survives_concurrent_writers(
            per_thread in 1usize..40,
            threads in 2usize..5,
        ) {
            let slot = Arc::new(ShardTailSlot::new(true));
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let slot = Arc::clone(&slot);
                    scope.spawn(move || {
                        for i in 0..per_thread {
                            let n = (t * per_thread + i) as u64;
                            if slot.observe(TailOutcome::Delivered, n * 1_000) {
                                slot.capture(Exemplar {
                                    shard: 0,
                                    ctx: ContextId::from_raw(n),
                                    outcome: TailOutcome::Delivered,
                                    span: ContextSpan::default(),
                                    batch_index: 0,
                                    phase_path: 0,
                                    phase_depth: 0,
                                    at: n,
                                });
                            }
                        }
                    });
                }
            });
            let mut series = Vec::new();
            let exemplars = report(std::iter::once(&*slot), &mut series);
            prop_assert!(exemplars.len() <= EXEMPLAR_CAPACITY);
            let captured = series.iter().find(|s| s.family == CAPTURED.name);
            prop_assert!(captured.map_or(0, |s| s.value.counter()) <= (per_thread * threads) as u64);
            let spans: u64 = series
                .iter()
                .filter_map(|s| s.value.histogram())
                .map(|h| h.count)
                .sum();
            prop_assert_eq!(spans, (per_thread * threads) as u64);
        }
    }
}
