//! Fixed-bucket histograms and counters, recorded with atomics, and
//! the core families they export.

use crate::snapshot::{Family, MetricType, Reading, Series, Value};
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets: powers of two from 1 to 2^23, plus one
/// overflow bucket.
pub const BUCKETS: usize = 25;

/// The upper bound (inclusive) of bucket `i` for `i < BUCKETS - 1`; the
/// last bucket catches everything larger. Exposed for exposition-format
/// renderers that need the `le` bound of each finite bucket.
pub fn bucket_bound(i: usize) -> u64 {
    1u64 << i
}

/// The bucket a value lands in.
fn bucket_of(value: u64) -> usize {
    for i in 0..BUCKETS - 1 {
        if value <= bucket_bound(i) {
            return i;
        }
    }
    BUCKETS - 1
}

/// The fixed set of per-shard latency/size distributions the middleware
/// records. Indexes a shard's core histogram cells.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MetricKind {
    /// Incremental consistency-check latency per addition change (ns).
    CheckLatency,
    /// Per-shard `batch_add` chunk ingest latency (ns).
    IngestLatency,
    /// Strategy resolution latency per use (ns).
    ResolveLatency,
    /// Batch partitioning / shard routing latency (ns).
    RouteLatency,
    /// How many ticks past its scheduled use instant a buffered context
    /// was actually used (logical ticks; 0 under a timely drain).
    UseResidualDelay,
    /// Size of the tracked set Δ after each change (count).
    DeltaSize,
    /// Buffered contexts awaiting use, sampled after each submit
    /// (count).
    QueueDepth,
}

/// Every [`MetricKind`], in index order.
pub const METRIC_KINDS: [MetricKind; 7] = [
    MetricKind::CheckLatency,
    MetricKind::IngestLatency,
    MetricKind::ResolveLatency,
    MetricKind::RouteLatency,
    MetricKind::UseResidualDelay,
    MetricKind::DeltaSize,
    MetricKind::QueueDepth,
];

impl MetricKind {
    /// Index of the kind's cell among a shard's core histograms: its
    /// position in [`METRIC_KINDS`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Snake-case metric name (stable; used in exports).
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::CheckLatency => "check_latency",
            MetricKind::IngestLatency => "ingest_latency",
            MetricKind::ResolveLatency => "resolve_latency",
            MetricKind::RouteLatency => "route_latency",
            MetricKind::UseResidualDelay => "use_residual_delay",
            MetricKind::DeltaSize => "delta_size",
            MetricKind::QueueDepth => "queue_depth",
        }
    }

    /// The unit recorded values are measured in.
    pub fn unit(self) -> &'static str {
        match self {
            MetricKind::CheckLatency
            | MetricKind::IngestLatency
            | MetricKind::ResolveLatency
            | MetricKind::RouteLatency => "ns",
            MetricKind::UseResidualDelay => "ticks",
            MetricKind::DeltaSize | MetricKind::QueueDepth => "count",
        }
    }
}

/// Per-shard monotonic counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CounterKind {
    /// Trace events accepted into the ring buffer (the ring's own
    /// `ctxres_trace_events_dropped_total` counts what it evicted).
    EventsRecorded,
    /// Inconsistency detections observed.
    Detections,
    /// Discard decisions observed.
    Discards,
    /// Deliveries observed.
    Deliveries,
    /// Contexts accepted by a shard engine (context addition changes).
    Ingested,
    /// Situation evaluations: every situation, once per dirty round.
    SituationEvals,
    /// Compiled-program evaluations: every constraint check the
    /// incremental checker runs (pinned and full) plus every situation
    /// evaluation. Every constraint and situation compiles, so this is
    /// the engine's whole evaluation count.
    CompiledEvals,
    /// Pinned checks with a seq guard that scanned the partner's subject
    /// bucket because the pool could not vouch for its seq order.
    SeqFallbacks,
    /// Typed cause edges emitted into the trace (provenance).
    ProvEdges,
    /// Provenance graph nodes implied by the trace: one per context
    /// whose causal chain opened with a submission edge.
    ProvNodes,
}

/// Every [`CounterKind`], in index order.
pub const COUNTER_KINDS: [CounterKind; 10] = [
    CounterKind::EventsRecorded,
    CounterKind::Detections,
    CounterKind::Discards,
    CounterKind::Deliveries,
    CounterKind::Ingested,
    CounterKind::SituationEvals,
    CounterKind::CompiledEvals,
    CounterKind::SeqFallbacks,
    CounterKind::ProvEdges,
    CounterKind::ProvNodes,
];

impl CounterKind {
    /// Index of the kind's cell among a shard's core counters: its
    /// position in [`COUNTER_KINDS`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Snake-case counter name (stable; used in exports).
    pub fn name(self) -> &'static str {
        match self {
            CounterKind::EventsRecorded => "events_recorded",
            CounterKind::Detections => "detections",
            CounterKind::Discards => "discards",
            CounterKind::Deliveries => "deliveries",
            CounterKind::Ingested => "ingested",
            CounterKind::SituationEvals => "situation_evals",
            CounterKind::CompiledEvals => "compiled_evals",
            CounterKind::SeqFallbacks => "seq_fallbacks",
            CounterKind::ProvEdges => "prov_edges",
            CounterKind::ProvNodes => "prov_nodes",
        }
    }
}

const SHARD: &[&str] = &["shard"];
const SHARD_Q: &[&str] = &["shard", "q"];

/// How many shard slots the registry has.
pub(crate) const OBS_SHARDS: Family = Family::new(MetricType::Gauge, "ctxres_obs_shards", &[]);
/// The sample's window length (derived).
pub(crate) const SCRAPE_WINDOW: Family =
    Family::new(MetricType::Gauge, "ctxres_scrape_window_seconds", &[]);
/// Trace events evicted from a full ring (lifetime).
pub(crate) const RING_DROPPED: Family = Family::new(
    MetricType::Counter,
    "ctxres_trace_events_dropped_total",
    SHARD,
);
/// Trace events currently buffered in the ring.
pub(crate) const RING_BUFFERED: Family =
    Family::new(MetricType::Gauge, "ctxres_trace_events_buffered", SHARD);

/// The quantiles the core histograms' derived gauges report.
const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

impl CounterKind {
    /// The names of the counter's family and of its derived rate.
    fn family_names(self) -> [&'static str; 2] {
        macro_rules! names {
            ($name:literal) => {
                [
                    concat!("ctxres_", $name, "_total"),
                    concat!("ctxres_", $name, "_per_sec"),
                ]
            };
        }
        match self {
            CounterKind::EventsRecorded => names!("events_recorded"),
            CounterKind::Detections => names!("detections"),
            CounterKind::Discards => names!("discards"),
            CounterKind::Deliveries => names!("deliveries"),
            CounterKind::Ingested => names!("ingested"),
            CounterKind::SituationEvals => names!("situation_evals"),
            CounterKind::CompiledEvals => names!("compiled_evals"),
            CounterKind::SeqFallbacks => names!("seq_fallbacks"),
            CounterKind::ProvEdges => names!("prov_edges"),
            CounterKind::ProvNodes => names!("prov_nodes"),
        }
    }

    /// The counter's family, `ctxres_<name>_total{shard}`.
    pub fn family(self) -> Family {
        Family::new(MetricType::Counter, self.family_names()[0], SHARD)
    }

    /// The derived per-second rate over the window.
    fn rate_family(self) -> Family {
        Family::new(MetricType::Gauge, self.family_names()[1], SHARD)
    }
}

impl MetricKind {
    /// The names of the histogram's family and of its derived quantile
    /// bound and estimate, unit-suffixed for non-count units.
    fn family_names(self) -> [&'static str; 3] {
        macro_rules! names {
            ($name:literal) => {
                [
                    concat!("ctxres_", $name),
                    concat!("ctxres_", $name, "_quantile_bound"),
                    concat!("ctxres_", $name, "_quantile_est"),
                ]
            };
        }
        match self {
            MetricKind::CheckLatency => names!("check_latency_ns"),
            MetricKind::IngestLatency => names!("ingest_latency_ns"),
            MetricKind::ResolveLatency => names!("resolve_latency_ns"),
            MetricKind::RouteLatency => names!("route_latency_ns"),
            MetricKind::UseResidualDelay => names!("use_residual_delay_ticks"),
            MetricKind::DeltaSize => names!("delta_size"),
            MetricKind::QueueDepth => names!("queue_depth"),
        }
    }

    /// The histogram's family (`ctxres_check_latency_ns{shard}`,
    /// `ctxres_delta_size{shard}`).
    pub fn family(self) -> Family {
        Family::new(MetricType::Histogram, self.family_names()[0], SHARD)
    }

    /// The derived gauges over each shard's cumulative distribution:
    /// the winning bucket's bound and the interpolated estimate.
    fn quantile_families(self) -> [Family; 2] {
        let [_, bound, est] = self.family_names();
        [
            Family::new(MetricType::Gauge, bound, SHARD_Q),
            Family::new(MetricType::Gauge, est, SHARD_Q),
        ]
    }
}

/// The core families, in exposition order.
pub(crate) fn families() -> Vec<Family> {
    let mut out = vec![OBS_SHARDS, SCRAPE_WINDOW];
    for kind in COUNTER_KINDS {
        out.extend([kind.family(), kind.rate_family()]);
    }
    out.extend([RING_DROPPED, RING_BUFFERED]);
    for kind in METRIC_KINDS {
        out.push(kind.family());
        out.extend(kind.quantile_families());
    }
    out
}

/// The core derived gauges: each counter's per-second rate over the
/// window (0 for an empty window), and each shard's p50/p95/p99 bound
/// and estimate over its cumulative histogram (the overflow bucket
/// reads `+Inf`).
pub(crate) fn derive(series: &[Series], secs: f64, out: &mut Vec<Series>) {
    for kind in COUNTER_KINDS {
        let (family, rate) = (kind.family(), kind.rate_family());
        for s in series.iter().filter(|s| s.family == family.name) {
            let per_sec = if secs > 0.0 {
                s.delta() as f64 / secs
            } else {
                0.0
            };
            out.push(rate.series(
                &[s.label("shard").unwrap_or("")],
                Value::Gauge(Reading(per_sec)),
            ));
        }
    }
    for kind in METRIC_KINDS {
        let family = kind.family();
        let [bound, est] = kind.quantile_families();
        for s in series.iter().filter(|s| s.family == family.name) {
            let (Some(h), Some(shard)) = (s.value.histogram(), s.label("shard")) else {
                continue;
            };
            for q in QUANTILES {
                if let Some(b) = h.quantile_bound(q) {
                    let b = if b == u64::MAX {
                        f64::INFINITY
                    } else {
                        b as f64
                    };
                    out.push(bound.series(&[shard, &q.to_string()], Value::Gauge(Reading(b))));
                }
            }
            for q in QUANTILES {
                if let Some(e) = h.quantile_est(q) {
                    out.push(est.series(&[shard, &q.to_string()], Value::Gauge(Reading(e))));
                }
            }
        }
    }
}

/// A fixed-bucket histogram with power-of-two bounds, recordable from
/// any thread without a lock.
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Adds the histogram's bucket counts into `into`, allocating
    /// nothing.
    pub(crate) fn merge_buckets(&self, into: &mut [u64; BUCKETS]) {
        for (sum, bucket) in into.iter_mut().zip(&self.buckets) {
            *sum += bucket.load(Ordering::Relaxed);
        }
    }

    /// A point-in-time copy of the distribution.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

/// A point-in-time copy of a [`Histogram`], mergeable across shards.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Per-bucket observation counts (bucket `i` holds values in
    /// `(2^(i-1), 2^i]`; the last bucket is the overflow).
    pub buckets: Vec<u64>,
}

impl HistogramSnapshot {
    /// An empty snapshot with the standard bucket count.
    pub fn empty() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0,
            buckets: vec![0; BUCKETS],
        }
    }

    /// Adds another snapshot's observations into this one (cross-shard
    /// aggregation; commutative and associative).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum += other.sum;
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += *theirs;
        }
    }

    /// The observations recorded since `earlier` (saturating per field,
    /// so a concurrent writer racing the snapshot can never produce a
    /// negative count).
    pub fn delta(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let field = |now: u64, was: u64| now.saturating_sub(was);
        HistogramSnapshot {
            count: field(self.count, earlier.count),
            sum: field(self.sum, earlier.sum),
            buckets: (0..self.buckets.len())
                .map(|i| {
                    field(
                        self.buckets[i],
                        earlier.buckets.get(i).copied().unwrap_or(0),
                    )
                })
                .collect(),
        }
    }

    /// Mean recorded value, if anything was recorded.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// An upper bound on the `q`-quantile (`0.0..=1.0`): the bound of
    /// the first bucket at which the cumulative count reaches
    /// `q * count`. Returns `None` for an empty histogram; the overflow
    /// bucket reports `u64::MAX`.
    pub fn quantile_bound(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut cum = 0;
        for (i, n) in self.buckets.iter().enumerate() {
            cum += n;
            if cum >= target {
                return Some(if i == self.buckets.len() - 1 {
                    u64::MAX
                } else {
                    bucket_bound(i)
                });
            }
        }
        Some(u64::MAX)
    }

    /// A linearly interpolated estimate of the `q`-quantile
    /// (`0.0..=1.0`). Where [`Self::quantile_bound`] always reports the
    /// winning bucket's upper bound — up to 2x over on power-of-two
    /// buckets — this interpolates the target rank's position between
    /// the bucket's lower and upper bound, assuming observations spread
    /// uniformly within it. Returns `None` for an empty histogram and
    /// `f64::INFINITY` when the rank lands in the unbounded overflow
    /// bucket.
    pub fn quantile_est(&self, q: f64) -> Option<f64> {
        quantile_est(&self.buckets, self.count, q)
    }
}

/// [`HistogramSnapshot::quantile_est`] over bucket counts holding
/// `count` observations — the one interpolation, shared with readers
/// that merge buckets without building a snapshot.
pub(crate) fn quantile_est(buckets: &[u64], count: u64, q: f64) -> Option<f64> {
    if count == 0 {
        return None;
    }
    let target = (q.clamp(0.0, 1.0) * count as f64).ceil().max(1.0) as u64;
    let mut cum = 0u64;
    for (i, n) in buckets.iter().enumerate() {
        cum += n;
        if cum >= target {
            if i == buckets.len() - 1 {
                return Some(f64::INFINITY);
            }
            let lower = if i == 0 { 0 } else { bucket_bound(i - 1) };
            let upper = bucket_bound(i);
            let pos = (target - (cum - n)) as f64 / *n as f64;
            return Some(lower as f64 + (upper - lower) as f64 * pos);
        }
    }
    Some(f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn family_names_follow_the_kind_names() {
        for kind in COUNTER_KINDS {
            let name = kind.name();
            assert_eq!(kind.family().name, format!("ctxres_{name}_total"));
            assert_eq!(kind.rate_family().name, format!("ctxres_{name}_per_sec"));
        }
        for kind in METRIC_KINDS {
            let family = match kind.unit() {
                "count" => format!("ctxres_{}", kind.name()),
                unit => format!("ctxres_{}_{unit}", kind.name()),
            };
            assert_eq!(kind.family().name, family);
            let [bound, est] = kind.quantile_families().map(|f| f.name);
            assert_eq!(bound, format!("{family}_quantile_bound"));
            assert_eq!(est, format!("{family}_quantile_est"));
        }
    }

    /// Each kind indexes its cell by its discriminant, so the kind
    /// arrays must list the variants in declaration order.
    #[test]
    fn kind_arrays_list_each_kind_at_its_index() {
        for (i, kind) in METRIC_KINDS.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
        for (i, kind) in COUNTER_KINDS.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind:?}");
        }
        for (i, phase) in crate::PHASES.iter().enumerate() {
            assert_eq!(phase.index(), i, "{phase:?}");
        }
    }

    #[test]
    fn buckets_are_powers_of_two() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn record_accumulates() {
        let h = Histogram::new();
        for v in [1, 2, 3, 1000] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 1006);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
    }

    #[test]
    fn merge_is_commutative() {
        let a0 = {
            let h = Histogram::new();
            h.record(5);
            h.record(700);
            h.snapshot()
        };
        let b0 = {
            let h = Histogram::new();
            h.record(1);
            h.snapshot()
        };
        let mut ab = a0.clone();
        ab.merge(&b0);
        let mut ba = b0.clone();
        ba.merge(&a0);
        assert_eq!(ab, ba);
        assert_eq!(ab.count, 3);
    }

    #[test]
    fn quantiles_bound_the_distribution() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let p50 = s.quantile_bound(0.5).unwrap();
        let p100 = s.quantile_bound(1.0).unwrap();
        assert!((50..=64).contains(&p50), "{p50}");
        assert!((100..=128).contains(&p100), "{p100}");
        assert_eq!(HistogramSnapshot::empty().quantile_bound(0.5), None);
    }

    /// The interpolated estimator never exceeds the bucket bound and is
    /// strictly tighter whenever the rank falls inside a bucket: for a
    /// uniform 1..=100 load the p50 estimate is exact (50.0) where the
    /// bound over-reports at 64.
    #[test]
    fn quantile_est_interpolates_within_the_bucket() {
        let h = Histogram::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        let s = h.snapshot();
        let est = s.quantile_est(0.5).unwrap();
        assert!((est - 50.0).abs() < 1e-9, "{est}");
        assert!(est <= s.quantile_bound(0.5).unwrap() as f64);
        for q in [0.1, 0.5, 0.9, 0.95, 0.99, 1.0] {
            let est = s.quantile_est(q).unwrap();
            let bound = s.quantile_bound(q).unwrap();
            assert!(est <= bound as f64, "q={q}: est {est} > bound {bound}");
        }
        assert_eq!(HistogramSnapshot::empty().quantile_est(0.5), None);
    }

    /// Overflow-bucket ranks have no finite upper bound: the estimate
    /// is infinite there, matching `quantile_bound`'s `u64::MAX`.
    #[test]
    fn quantile_est_overflow_is_infinite() {
        let h = Histogram::new();
        h.record(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.quantile_est(0.5), Some(f64::INFINITY));
        assert_eq!(s.quantile_bound(0.5), Some(u64::MAX));
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert_eq!(HistogramSnapshot::empty().mean(), None);
    }

    #[test]
    fn kind_indexes_are_dense() {
        for (i, k) in METRIC_KINDS.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
        for (i, k) in COUNTER_KINDS.iter().enumerate() {
            assert_eq!(k.index(), i);
        }
    }
}
