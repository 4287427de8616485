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
//! * **queue decomposition** ([`QueueStats`]): the sharded engine
//!   reports lock-wait versus service time for its queues.
//!
//! Everything is cumulative at the slot level; [`TailSample::between`]
//! turns two snapshots into the windowed view `/metrics`, `/snapshot`,
//! `obs_top`, and the SLO engine consume.

use crate::metrics::{Histogram, HistogramSnapshot};
use crate::profile::{Phase, PHASES};
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

/// Cumulative wait-versus-service decomposition for one shard's engine
/// queue: how long `batch_add` chunks waited for the shard lock versus
/// how long the engine spent serving them.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Total nanoseconds chunks spent waiting for the shard lock.
    pub wait_ns: u64,
    /// Lock waits recorded.
    pub wait_count: u64,
    /// Total nanoseconds the engine spent serving chunks.
    pub service_ns: u64,
    /// Service intervals recorded.
    pub service_count: u64,
}

impl QueueStats {
    /// Adds another shard's stats into this one.
    pub fn merge(&mut self, other: &QueueStats) {
        self.wait_ns += other.wait_ns;
        self.wait_count += other.wait_count;
        self.service_ns += other.service_ns;
        self.service_count += other.service_count;
    }

    /// Whether nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.wait_count == 0 && self.service_count == 0
    }

    fn delta(cur: &QueueStats, prev: &QueueStats) -> QueueStats {
        QueueStats {
            wait_ns: cur.wait_ns.saturating_sub(prev.wait_ns),
            wait_count: cur.wait_count.saturating_sub(prev.wait_count),
            service_ns: cur.service_ns.saturating_sub(prev.service_ns),
            service_count: cur.service_count.saturating_sub(prev.service_count),
        }
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

    /// Point-in-time copy of this shard's tail state.
    pub(crate) fn snapshot(&self, shard: usize) -> ShardTail {
        let exemplars = {
            let ring = self.exemplars.lock();
            ring.buf
                .iter()
                .cloned()
                .map(|mut ex| {
                    ex.shard = shard;
                    ex
                })
                .collect()
        };
        ShardTail {
            shard,
            outcomes: TAIL_OUTCOMES
                .iter()
                .map(|o| OutcomeTail {
                    outcome: *o,
                    hist: self.hists[o.index()].snapshot(),
                })
                .collect(),
            threshold_ns: self.threshold_ns.load(Ordering::Relaxed),
            captured: self.captured.load(Ordering::Relaxed),
            exemplars,
            queue: QueueStats {
                wait_ns: self.wait_ns.load(Ordering::Relaxed),
                wait_count: self.wait_count.load(Ordering::Relaxed),
                service_ns: self.service_ns.load(Ordering::Relaxed),
                service_count: self.service_count.load(Ordering::Relaxed),
            },
        }
    }
}

/// A point-in-time copy of one shard's tail telemetry.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTail {
    /// The shard index.
    pub shard: usize,
    /// Per-outcome end-to-end histograms (microsecond buckets), in
    /// [`TAIL_OUTCOMES`] order.
    pub outcomes: Vec<OutcomeTail>,
    /// The rolling p99 capture threshold at snapshot time, nanoseconds.
    pub threshold_ns: u64,
    /// Exemplars captured over the shard's lifetime (the reservoir
    /// holds only the newest [`EXEMPLAR_CAPACITY`]).
    pub captured: u64,
    /// The current reservoir contents.
    pub exemplars: Vec<Exemplar>,
    /// Cumulative queue wait/service counters.
    pub queue: QueueStats,
}

/// One outcome's cumulative end-to-end histogram.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct OutcomeTail {
    /// The terminal outcome the histogram covers.
    pub outcome: TailOutcome,
    /// The distribution of end-to-end totals, in microseconds.
    pub hist: HistogramSnapshot,
}

/// A whole registry's tail snapshot: one record per shard.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TailSnapshot {
    /// Per-shard tail records, in shard order.
    pub shards: Vec<ShardTail>,
}

impl TailSnapshot {
    /// Whether no tail telemetry was ever recorded anywhere.
    pub fn is_empty(&self) -> bool {
        self.shards
            .iter()
            .all(|s| s.outcomes.iter().all(|o| o.hist.count == 0) && s.queue.is_empty())
    }

    /// Cross-shard merged histogram for one outcome index.
    fn merged(&self, outcome_ix: usize) -> HistogramSnapshot {
        let mut m = HistogramSnapshot::empty();
        for s in &self.shards {
            if let Some(o) = s.outcomes.get(outcome_ix) {
                m.merge(&o.hist);
            }
        }
        m
    }

    /// Cross-shard merged queue stats.
    fn merged_queue(&self) -> QueueStats {
        let mut m = QueueStats::default();
        for s in &self.shards {
            m.merge(&s.queue);
        }
        m
    }

    /// Every exemplar across shards, newest state of each reservoir.
    pub fn exemplars(&self) -> Vec<&Exemplar> {
        self.shards
            .iter()
            .flat_map(|s| s.exemplars.iter())
            .collect()
    }
}

/// Windowed quantile summary of one end-to-end distribution, in
/// nanoseconds (interpolated; `None` when the window is empty or the
/// rank overflows the finite buckets).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct TailWindow {
    /// Spans finished in the window.
    pub count: u64,
    /// Mean end-to-end total, nanoseconds.
    pub mean_ns: Option<f64>,
    /// Interpolated p50, nanoseconds.
    pub p50_ns: Option<f64>,
    /// Interpolated p95, nanoseconds.
    pub p95_ns: Option<f64>,
    /// Interpolated p99, nanoseconds.
    pub p99_ns: Option<f64>,
    /// Interpolated p999, nanoseconds.
    pub p999_ns: Option<f64>,
}

impl TailWindow {
    fn from_hist(h: &HistogramSnapshot) -> TailWindow {
        let scale = NS_PER_BUCKET_UNIT as f64;
        let q = |q: f64| {
            h.quantile_est(q)
                .filter(|v| v.is_finite())
                .map(|v| v * scale)
        };
        TailWindow {
            count: h.count,
            mean_ns: h.mean().map(|m| m * scale),
            p50_ns: q(TAIL_QUANTILES[0]),
            p95_ns: q(TAIL_QUANTILES[1]),
            p99_ns: q(TAIL_QUANTILES[2]),
            p999_ns: q(TAIL_QUANTILES[3]),
        }
    }
}

/// One outcome's windowed tail summary.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OutcomeWindow {
    /// The terminal outcome.
    pub outcome: TailOutcome,
    /// The windowed summary for that outcome.
    pub window: TailWindow,
}

/// Windowed queue wait-versus-service summary across shards.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueWindow {
    /// Lock waits in the window.
    pub wait_count: u64,
    /// Service intervals in the window.
    pub service_count: u64,
    /// Mean lock wait, nanoseconds.
    pub avg_wait_ns: Option<f64>,
    /// Mean service time, nanoseconds.
    pub avg_service_ns: Option<f64>,
    /// Wait share of total queue time: `wait / (wait + service)`.
    pub wait_share: Option<f64>,
}

impl QueueWindow {
    fn from_stats(q: &QueueStats) -> QueueWindow {
        let total = q.wait_ns + q.service_ns;
        QueueWindow {
            wait_count: q.wait_count,
            service_count: q.service_count,
            avg_wait_ns: (q.wait_count > 0).then(|| q.wait_ns as f64 / q.wait_count as f64),
            avg_service_ns: (q.service_count > 0)
                .then(|| q.service_ns as f64 / q.service_count as f64),
            wait_share: (total > 0).then(|| q.wait_ns as f64 / total as f64),
        }
    }
}

/// Per-field saturating histogram difference.
fn hist_delta(cur: &HistogramSnapshot, prev: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: cur.count.saturating_sub(prev.count),
        sum: cur.sum.saturating_sub(prev.sum),
        buckets: cur
            .buckets
            .iter()
            .enumerate()
            .map(|(i, b)| b.saturating_sub(prev.buckets.get(i).copied().unwrap_or(0)))
            .collect(),
    }
}

/// The windowed tail view a scrape hands out: cumulative snapshot plus
/// per-outcome and combined quantiles and the queue decomposition,
/// covering the interval since the previous scrape.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TailSample {
    /// The cumulative tail snapshot at sample time (exemplar
    /// reservoirs ride along here).
    pub snapshot: TailSnapshot,
    /// Windowed per-outcome summaries, in [`TAIL_OUTCOMES`] order.
    pub outcomes: Vec<OutcomeWindow>,
    /// Windowed summary across all outcomes.
    pub all: TailWindow,
    /// Windowed queue wait/service decomposition.
    pub queue: QueueWindow,
}

impl TailSample {
    /// The windowed view between two snapshots (`prev = None` means
    /// "since the beginning").
    pub fn between(prev: Option<&TailSnapshot>, cur: TailSnapshot) -> TailSample {
        let mut outcomes = Vec::with_capacity(TAIL_OUTCOMES.len());
        let mut all = HistogramSnapshot::empty();
        for (oi, outcome) in TAIL_OUTCOMES.iter().enumerate() {
            let cur_m = cur.merged(oi);
            let delta = match prev {
                Some(p) => hist_delta(&cur_m, &p.merged(oi)),
                None => cur_m,
            };
            all.merge(&delta);
            outcomes.push(OutcomeWindow {
                outcome: *outcome,
                window: TailWindow::from_hist(&delta),
            });
        }
        let queue = match prev {
            Some(p) => QueueStats::delta(&cur.merged_queue(), &p.merged_queue()),
            None => cur.merged_queue(),
        };
        TailSample {
            outcomes,
            all: TailWindow::from_hist(&all),
            queue: QueueWindow::from_stats(&queue),
            snapshot: cur,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn disabled_slot_records_nothing() {
        let slot = ShardTailSlot::new(false);
        assert!(!slot.observe(TailOutcome::Delivered, 1_000_000));
        slot.capture(ex(1, 1_000_000));
        slot.record_queue_wait(5);
        let snap = slot.snapshot(0);
        assert_eq!(snap.captured, 0);
        assert!(snap.exemplars.is_empty());
        assert!(TailSnapshot { shards: vec![snap] }.is_empty());
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
        let snap = slot.snapshot(2);
        assert_eq!(snap.exemplars.len(), EXEMPLAR_CAPACITY);
        assert_eq!(snap.captured, EXEMPLAR_CAPACITY as u64 + 10);
        assert!(snap.exemplars.iter().all(|e| e.shard == 2));
        // The overwritten slots hold the newest ids.
        assert!(snap
            .exemplars
            .iter()
            .any(|e| e.ctx == ContextId::from_raw(EXEMPLAR_CAPACITY as u64 + 9)));
        assert!(!snap
            .exemplars
            .iter()
            .any(|e| e.ctx == ContextId::from_raw(0)));
    }

    #[test]
    fn windowed_sample_subtracts_the_previous_snapshot() {
        let slot = ShardTailSlot::new(true);
        for _ in 0..10 {
            slot.observe(TailOutcome::Delivered, 2_000_000);
        }
        let prev = TailSnapshot {
            shards: vec![slot.snapshot(0)],
        };
        for _ in 0..5 {
            slot.observe(TailOutcome::Discarded, 8_000_000);
        }
        let cur = TailSnapshot {
            shards: vec![slot.snapshot(0)],
        };
        let sample = TailSample::between(Some(&prev), cur);
        assert_eq!(sample.all.count, 5);
        let discarded = &sample.outcomes[TailOutcome::Discarded.index()];
        assert_eq!(discarded.window.count, 5);
        assert_eq!(
            sample.outcomes[TailOutcome::Delivered.index()].window.count,
            0
        );
        let p99 = discarded.window.p99_ns.unwrap();
        assert!(p99 <= 8192.0 * 1_000.0 && p99 > 4_000_000.0, "{p99}");
    }

    #[test]
    fn queue_window_decomposes_wait_vs_service() {
        let slot = ShardTailSlot::new(true);
        slot.record_queue_wait(100);
        slot.record_queue_wait(300);
        slot.record_queue_service(600);
        let cur = TailSnapshot {
            shards: vec![slot.snapshot(0)],
        };
        let sample = TailSample::between(None, cur);
        assert_eq!(sample.queue.avg_wait_ns, Some(200.0));
        assert_eq!(sample.queue.avg_service_ns, Some(600.0));
        assert_eq!(sample.queue.wait_share, Some(0.4));
    }

    #[test]
    fn tail_sample_round_trips_through_serde() {
        let slot = ShardTailSlot::new(true);
        if slot.observe(TailOutcome::Expired, 3_000_000) {
            slot.capture(ex(9, 3_000_000));
        }
        slot.record_queue_wait(40);
        let cur = TailSnapshot {
            shards: vec![slot.snapshot(0)],
        };
        let sample = TailSample::between(None, cur);
        let json = serde_json::to_string(&sample).unwrap();
        let back: TailSample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, sample);
    }

    #[test]
    fn overflow_bucket_quantiles_are_none_not_infinite() {
        let slot = ShardTailSlot::new(true);
        slot.observe(TailOutcome::Delivered, u64::MAX);
        let cur = TailSnapshot {
            shards: vec![slot.snapshot(0)],
        };
        let sample = TailSample::between(None, cur);
        assert_eq!(sample.all.count, 1);
        assert_eq!(
            sample.all.p99_ns, None,
            "infinite estimates stay out of JSON"
        );
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
            let snap = slot.snapshot(0);
            prop_assert!(snap.exemplars.len() <= EXEMPLAR_CAPACITY);
            prop_assert_eq!(snap.exemplars.len(), captures.min(EXEMPLAR_CAPACITY));
            prop_assert_eq!(snap.captured, captures as u64);
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
            let snap = slot.snapshot(0);
            prop_assert!(snap.exemplars.len() <= EXEMPLAR_CAPACITY);
            prop_assert!(snap.captured <= (per_thread * threads) as u64);
            let all = TailSnapshot { shards: vec![snap] };
            let sample = TailSample::between(None, all);
            prop_assert_eq!(sample.all.count, (per_thread * threads) as u64);
        }
    }
}
