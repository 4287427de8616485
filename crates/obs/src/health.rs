//! Streaming quality-of-context ("health") telemetry.
//!
//! The core counters watch *mechanics* — throughput, latencies, ring
//! pressure — but say nothing about the *quality* trade the paper is
//! actually about: how much of each kind's traffic the active strategy
//! is discarding, how often constraints fire, and whether the surviving
//! contexts are fresh enough to matter. This layer adds that:
//!
//! * **per-(shard, kind) cells** ([`KIND_CELLS`] behind a cloneable
//!   [`KindHandle`]): cumulative counters — ingested, delivered,
//!   discarded, expired-on-use, violations — plus the live-count gauge
//!   and the watermark the engine publishes from
//!   `ContextPool::kind_watermarks`: the oldest live context's age and
//!   its staleness, which report as each kind's worst shard. Handles
//!   from a disabled registry are `None` inside, so every hook is a
//!   branch-and-return, exactly like [`crate::ShardObs`];
//! * **pool cells** ([`POOL_CELLS`]): the arena's occupancy
//!   (`live_slots`/`free_slots`) and lifetime slot-recycle count, per
//!   shard, once published;
//! * **derived gauges** (`health::derive`): from each window's deltas, the
//!   per-kind cross-shard `discard_rate` (discards / ingested),
//!   `violation_rate` (violations / ingested) and the paper's
//!   `ctxUseRate` (deliveries / (deliveries + discards)), an EWMA of the
//!   use rate ([`DEFAULT_EWMA_ALPHA`]) seeded with the first non-empty
//!   window so a steady workload makes the two agree exactly (asserted
//!   by a proptest below), and the arena's occupancy. Staleness is the
//!   oldest live context's age over its lifespan: ≥ 1.0 means the
//!   freshest data a constraint can see has already expired.
//!
//! The cells live in the shard's metric table (`crate::table`), so
//! `/metrics`, `/snapshot`, `obs_top` and the SLO engine read them from
//! the one sample. Runs without health publishing report no health
//! series at all.

use crate::snapshot::{Family, MetricType, Reading, Series, Value};
use crate::table::Group;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Smoothing factor of the EWMA `ctxUseRate` variant: each non-empty
/// window contributes 30%, the history 70%. High enough to follow a
/// regression within a few windows, low enough to ignore one noisy one.
pub const DEFAULT_EWMA_ALPHA: f64 = 0.3;

/// A cheap, cloneable handle to one (shard, kind) group of cells.
/// Handles from a disabled registry hold `None` and make every bump a
/// branch-and-return; engines cache one handle per kind so the hot
/// path never touches the interning lock.
#[derive(Debug, Clone, Default)]
pub struct KindHandle {
    cells: Option<Arc<Group>>,
}

impl KindHandle {
    /// A handle that records nothing (the default everywhere).
    pub fn disabled() -> Self {
        KindHandle { cells: None }
    }

    pub(crate) fn new(cells: Arc<Group>) -> Self {
        KindHandle { cells: Some(cells) }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.cells.is_some()
    }

    /// Adds `n` to the counter at `cell` in [`KIND_CELLS`].
    fn add(&self, cell: usize, n: u64) {
        if let Some(cells) = &self.cells {
            cells[cell].add(n);
        }
    }

    /// Bumps the kind's ingested-context counter.
    pub fn ingested(&self, n: u64) {
        self.add(0, n);
    }

    /// Bumps the kind's delivered-to-application counter.
    pub fn delivered(&self, n: u64) {
        self.add(1, n);
    }

    /// Bumps the kind's discarded-context counter.
    pub fn discarded(&self, n: u64) {
        self.add(2, n);
    }

    /// Bumps the kind's expired-on-use counter.
    pub fn expired(&self, n: u64) {
        self.add(3, n);
    }

    /// Bumps the kind's constraint-violation counter.
    pub fn violations(&self, n: u64) {
        self.add(4, n);
    }

    /// Publishes the kind's occupancy watermark: live context count,
    /// age of the oldest live context in ticks, and that context's
    /// lifespan (`None` when it never expires).
    pub fn set_watermark(&self, live: u64, oldest_age: Option<u64>, lifespan: Option<u64>) {
        if let Some(cells) = &self.cells {
            let staleness = match (oldest_age, lifespan) {
                (Some(age), Some(life)) if life > 0 => Some(age as f64 / life as f64),
                _ => None,
            };
            cells[5].set(Some(live as f64));
            cells[6].set(oldest_age.map(|age| age as f64));
            cells[7].set(staleness);
        }
    }
}

const SHARD: &[&str] = &["shard"];
const SHARD_KIND: &[&str] = &["shard", "kind"];
const KIND: &[&str] = &["kind"];

const POOL_LIVE: Family = Family::new(MetricType::Gauge, "ctxres_pool_live_slots", SHARD);
const POOL_FREE: Family = Family::new(MetricType::Gauge, "ctxres_pool_free_slots", SHARD);
/// A shard's pool cells, in cell order: live and free slots, then the
/// lifetime slot-recycle count.
pub(crate) const POOL_CELLS: [Family; 3] = [
    POOL_LIVE,
    POOL_FREE,
    Family::new(
        MetricType::Counter,
        "ctxres_pool_generation_recycles_total",
        SHARD,
    ),
];
/// `live / (live + free)` across shards: 1.0 means the arena is at its
/// high-water mark, lower means churn is reusing slots.
pub(crate) const POOL_OCCUPANCY: Family =
    Family::new(MetricType::Gauge, "ctxres_pool_occupancy", &[]);
/// A kind's cells, in cell order: the five counters, the live gauge,
/// then the oldest live age and the staleness, whose families have no
/// `shard` label and so report each kind's worst shard.
pub(crate) const KIND_CELLS: [Family; 8] = [
    Family::new(
        MetricType::Counter,
        "ctxres_health_ingested_total",
        SHARD_KIND,
    ),
    Family::new(
        MetricType::Counter,
        "ctxres_health_delivered_total",
        SHARD_KIND,
    ),
    Family::new(
        MetricType::Counter,
        "ctxres_health_discarded_total",
        SHARD_KIND,
    ),
    Family::new(
        MetricType::Counter,
        "ctxres_health_expired_total",
        SHARD_KIND,
    ),
    Family::new(
        MetricType::Counter,
        "ctxres_health_violations_total",
        SHARD_KIND,
    ),
    Family::new(MetricType::Gauge, "ctxres_health_kind_live", SHARD_KIND),
    OLDEST_AGE,
    STALENESS,
];
/// Windowed `discarded / ingested` per kind.
pub(crate) const DISCARD_RATE: Family =
    Family::new(MetricType::Gauge, "ctxres_health_discard_rate", KIND);
/// Windowed `violations / ingested` per kind.
pub(crate) const VIOLATION_RATE: Family =
    Family::new(MetricType::Gauge, "ctxres_health_violation_rate", KIND);
/// Windowed `delivered / (delivered + discarded)` per kind.
pub(crate) const USE_RATE: Family = Family::new(MetricType::Gauge, "ctxres_health_use_rate", KIND);
const USE_RATE_EWMA: Family = Family::new(MetricType::Gauge, "ctxres_health_use_rate_ewma", KIND);
/// The worst shard's `oldest_age / lifespan` per kind.
pub(crate) const STALENESS: Family =
    Family::new(MetricType::Gauge, "ctxres_health_staleness", KIND);
const OLDEST_AGE: Family = Family::new(MetricType::Gauge, "ctxres_health_oldest_age_ticks", KIND);

/// The health families, in exposition order.
pub(crate) fn families() -> Vec<Family> {
    let mut out = POOL_CELLS.to_vec();
    out.push(POOL_OCCUPANCY);
    out.extend(&KIND_CELLS[..6]);
    out.extend([
        DISCARD_RATE,
        VIOLATION_RATE,
        USE_RATE,
        USE_RATE_EWMA,
        STALENESS,
        OLDEST_AGE,
    ]);
    out
}

fn ratio(num: u64, den: u64) -> Option<f64> {
    (den > 0).then(|| num as f64 / den as f64)
}

/// The health gauges derived from one window: per kind across shards,
/// the discard, violation and use rates (each only when its
/// denominator moved), the use rate's EWMA (`alpha·window +
/// (1−alpha)·previous`, seeded with the first defined window, held
/// through idle ones; `ewma` carries it between windows), and the
/// arena's occupancy.
pub(crate) fn derive(
    series: &[Series],
    ewma: &mut HashMap<String, f64>,
    alpha: f64,
    out: &mut Vec<Series>,
) {
    // Windowed [ingested, delivered, discarded, violations] per kind.
    let mut kinds: BTreeMap<&str, [u64; 4]> = BTreeMap::new();
    for (slot, family) in [0, 1, 2, 4].into_iter().enumerate() {
        let name = &KIND_CELLS[family].name;
        for s in series.iter().filter(|s| s.family == *name) {
            kinds.entry(s.label("kind").unwrap_or("")).or_default()[slot] += s.delta();
        }
    }
    for (kind, [ingested, delivered, discarded, violations]) in kinds {
        let use_rate = ratio(delivered, delivered + discarded);
        let smoothed = match (use_rate, ewma.get(kind).copied()) {
            (Some(x), Some(prev)) => Some(alpha * x + (1.0 - alpha) * prev),
            (x, prev) => x.or(prev),
        };
        if let Some(e) = smoothed {
            ewma.insert(kind.to_owned(), e);
        }
        for (family, value) in [
            (&DISCARD_RATE, ratio(discarded, ingested)),
            (&VIOLATION_RATE, ratio(violations, ingested)),
            (&USE_RATE, use_rate),
            (&USE_RATE_EWMA, smoothed),
        ] {
            if let Some(v) = value {
                out.push(family.series(&[kind], Value::Gauge(Reading(v))));
            }
        }
    }
    let gauge_sum = |family: &Family| -> f64 {
        series
            .iter()
            .filter(|s| s.family == family.name)
            .filter_map(|s| s.value.gauge())
            .sum()
    };
    let (live, free) = (gauge_sum(&POOL_LIVE), gauge_sum(&POOL_FREE));
    if live + free > 0.0 {
        out.push(POOL_OCCUPANCY.series(&[], Value::Gauge(Reading(live / (live + free)))));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ObsConfig, ObsRegistry};
    use crate::snapshot::Sampler;

    #[test]
    fn disabled_handles_record_nothing() {
        let registry = ObsRegistry::shared(ObsConfig::disabled(), 2);
        let h = registry.handle(0).kind_handle("location");
        assert!(!h.is_enabled());
        h.ingested(5);
        h.set_watermark(3, Some(2), Some(10));
        registry.handle(0).publish_pool(1, 2, 3, 4);
        let snap = registry.snapshot();
        assert!(families()
            .iter()
            .all(|f| snap.family(f.name).next().is_none()));
        assert_eq!(registry.now_tick(), 0);
    }

    #[test]
    fn kind_handles_intern_per_shard_and_accumulate() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 2);
        let a = registry.handle(0).kind_handle("location");
        let a2 = registry.handle(0).kind_handle("location");
        let b = registry.handle(1).kind_handle("location");
        a.ingested(3);
        a2.ingested(2); // same cell as `a`
        a.delivered(4);
        a.discarded(1);
        a.violations(2);
        a.expired(1);
        b.ingested(7);
        a.set_watermark(5, Some(9), Some(12));

        let snap = registry.snapshot();
        let s0 = [("shard", "0"), ("kind", "location")];
        let count = |family: &str, labels: &[(&str, &str)]| {
            snap.find(family, labels).map(|s| s.value.counter())
        };
        assert_eq!(count("ctxres_health_ingested_total", &s0), Some(5));
        assert_eq!(count("ctxres_health_delivered_total", &s0), Some(4));
        assert_eq!(count("ctxres_health_discarded_total", &s0), Some(1));
        assert_eq!(count("ctxres_health_violations_total", &s0), Some(2));
        assert_eq!(count("ctxres_health_expired_total", &s0), Some(1));
        let gauge = |family: &str, labels: &[(&str, &str)]| {
            snap.find(family, labels).and_then(|s| s.value.gauge())
        };
        assert_eq!(gauge("ctxres_health_kind_live", &s0), Some(5.0));
        let kind = [("kind", "location")];
        assert_eq!(gauge("ctxres_health_oldest_age_ticks", &kind), Some(9.0));
        assert_eq!(gauge("ctxres_health_staleness", &kind), Some(0.75));
        let s1 = [("shard", "1"), ("kind", "location")];
        assert_eq!(count("ctxres_health_ingested_total", &s1), Some(7));
        assert!(
            snap.family("ctxres_pool_live_slots").next().is_none(),
            "pool not yet published"
        );
    }

    #[test]
    fn pool_gauges_publish_per_shard() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 2);
        registry.handle(0).publish_pool(10, 4, 7, 99);
        let snap = registry.snapshot();
        let s0 = [("shard", "0")];
        let gauge = |family: &str| snap.find(family, &s0).and_then(|s| s.value.gauge());
        assert_eq!(gauge("ctxres_pool_live_slots"), Some(10.0));
        assert_eq!(gauge("ctxres_pool_free_slots"), Some(4.0));
        assert_eq!(snap.total("ctxres_pool_generation_recycles_total"), 7);
        assert_eq!(registry.now_tick(), 99);
        assert_eq!(
            snap.family("ctxres_pool_live_slots").count(),
            1,
            "shard 1 unpublished"
        );
    }

    /// A one-shard, one-kind window: counter series carrying the given
    /// deltas, as a sample holds them.
    pub(super) fn window(ingested: u64, delivered: u64, discarded: u64) -> Vec<Series> {
        [(0, ingested), (1, delivered), (2, discarded)]
            .into_iter()
            .map(|(i, delta)| {
                let mut s = KIND_CELLS[i].series(&["0", "location"], Value::Counter(delta));
                s.window = Some(Value::Counter(delta));
                s
            })
            .collect()
    }

    fn derived(series: &[Series], ewma: &mut HashMap<String, f64>, alpha: f64) -> Vec<Series> {
        let mut out = Vec::new();
        derive(series, ewma, alpha, &mut out);
        out
    }

    pub(super) fn reading(out: &[Series], family: &Family) -> Option<f64> {
        out.iter()
            .find(|s| s.family == family.name)
            .and_then(|s| s.value.gauge())
    }

    #[test]
    fn windowed_rates_difference_consecutive_snapshots() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let kh = registry.handle(0).kind_handle("location");
        let mut sampler = Sampler::new(std::sync::Arc::clone(&registry));
        kh.ingested(40);
        kh.delivered(30);
        kh.discarded(10);
        let base = sampler.sample_after(0.0);
        let kind = [("kind", "location")];
        assert_eq!(base.gauge("ctxres_health_discard_rate", &kind), Some(0.25));
        assert_eq!(base.gauge("ctxres_health_use_rate", &kind), Some(0.75));
        assert_eq!(
            base.gauge("ctxres_health_use_rate_ewma", &kind),
            Some(0.75),
            "EWMA seeds at first window"
        );

        kh.ingested(60);
        kh.delivered(30);
        kh.discarded(20);
        let w = sampler.sample_after(1.0);
        assert_eq!(w.delta("ctxres_health_ingested_total"), 60);
        assert_eq!(w.gauge("ctxres_health_use_rate", &kind), Some(0.6));
        let e = w.gauge("ctxres_health_use_rate_ewma", &kind).unwrap();
        assert!((e - (0.3 * 0.6 + 0.7 * 0.75)).abs() < 1e-12, "{e}");
    }

    #[test]
    fn empty_windows_keep_the_ewma_and_yield_no_rates() {
        let mut ewma = HashMap::new();
        derived(&window(40, 30, 10), &mut ewma, DEFAULT_EWMA_ALPHA);
        let idle = derived(&window(0, 0, 0), &mut ewma, DEFAULT_EWMA_ALPHA);
        assert_eq!(reading(&idle, &USE_RATE), None);
        assert_eq!(reading(&idle, &DISCARD_RATE), None);
        assert_eq!(
            reading(&idle, &USE_RATE_EWMA),
            Some(0.75),
            "held through the idle window"
        );
    }

    #[test]
    fn totals_sum_shards_and_take_the_worst_staleness() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 2);
        for (shard, live, free, recycles, tick, kind_live, age, (ing, del, dis)) in [
            (0, 10, 10, 5, 50, 3, 8, (10, 6, 4)),
            (1, 20, 0, 2, 60, 4, 12, (10, 8, 2)),
        ] {
            let h = registry.handle(shard);
            h.publish_pool(live, free, recycles, tick);
            let kh = h.kind_handle("location");
            kh.ingested(ing);
            kh.delivered(del);
            kh.discarded(dis);
            kh.set_watermark(kind_live, Some(age), Some(16));
        }
        let s = Sampler::new(std::sync::Arc::clone(&registry)).sample_after(0.0);
        let kind = [("kind", "location")];
        let live: f64 = s
            .family("ctxres_health_kind_live")
            .filter_map(|s| s.value.gauge())
            .sum();
        assert_eq!(live, 7.0);
        assert_eq!(s.delta("ctxres_health_ingested_total"), 20);
        assert_eq!(s.gauge("ctxres_health_use_rate", &kind), Some(0.7));
        assert_eq!(
            s.gauge("ctxres_health_oldest_age_ticks", &kind),
            Some(12.0),
            "worst across shards"
        );
        assert_eq!(s.gauge("ctxres_health_staleness", &kind), Some(0.75));
        assert_eq!(s.family("ctxres_health_ingested_total").count(), 2);
        assert_eq!(s.total("ctxres_pool_generation_recycles_total"), 7);
        assert_eq!(registry.now_tick(), 60);
        assert_eq!(s.gauge("ctxres_pool_occupancy", &[]), Some(0.75));
    }

    #[test]
    fn health_sample_round_trips_through_serde() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let h = registry.handle(0).kind_handle("rfid");
        h.ingested(4);
        h.discarded(1);
        h.delivered(3);
        registry.handle(0).publish_pool(4, 0, 0, 9);
        let s = Sampler::new(registry).sample_after(0.0);
        assert!(s
            .gauge("ctxres_health_use_rate", &[("kind", "rfid")])
            .is_some());
        let json = serde_json::to_string(&s).unwrap();
        let back: crate::snapshot::Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}

#[cfg(test)]
mod estimator_proptests {
    //! The estimator properties:
    //!
    //! * per-kind window deltas telescope: summing each window's delta
    //!   of the kind counter families reproduces the raw cumulative
    //!   counters (the kind-scoped case of the sampler's property over
    //!   every counter series);
    //! * EWMA agrees with windowed-exact in steady state: when every
    //!   window carries the same exact `ctxUseRate`, the EWMA equals
    //!   it from the very first window (seed = first value, and
    //!   `α·x + (1−α)·x = x` inductively).

    use super::tests::{reading, window};
    use super::*;
    use crate::registry::{ObsConfig, ObsRegistry};
    use crate::snapshot::Sampler;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn kind_deltas_telescope_to_the_raw_counters(
            steps in proptest::collection::vec((0u64..50, 0u64..50, 0u64..50), 1..20),
        ) {
            let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
            let kind = registry.handle(0).kind_handle("location");
            let mut sampler = Sampler::new(std::sync::Arc::clone(&registry));
            let families = [
                "ctxres_health_ingested_total",
                "ctxres_health_delivered_total",
                "ctxres_health_discarded_total",
            ];
            // The baseline window covers the (zero) history.
            let base = sampler.sample_after(0.0);
            let mut summed = families.map(|f| base.delta(f));
            let mut cum = [0u64; 3];
            for (i, d, x) in steps {
                kind.ingested(i);
                kind.delivered(d);
                kind.discarded(x);
                for (c, n) in cum.iter_mut().zip([i, d, x]) {
                    *c += n;
                }
                let w = sampler.sample_after(1.0);
                for (s, f) in summed.iter_mut().zip(families) {
                    *s += w.delta(f);
                }
            }
            prop_assert_eq!(summed, cum);
            let raw = registry.snapshot();
            let labels = [("shard", "0"), ("kind", "location")];
            let raw = families.map(|f| raw.find(f, &labels).map_or(0, |s| s.value.counter()));
            prop_assert_eq!(summed, raw);
        }

        #[test]
        fn ewma_equals_exact_use_rate_in_steady_state(
            delivered in 1u64..1000,
            discarded in 0u64..1000,
            windows in 1usize..20,
            alpha in 0.01f64..1.0,
        ) {
            let mut ewma = HashMap::new();
            let exact = delivered as f64 / (delivered + discarded) as f64;
            for _ in 0..windows {
                let mut out = Vec::new();
                derive(&window(delivered + discarded, delivered, discarded), &mut ewma, alpha, &mut out);
                prop_assert_eq!(reading(&out, &USE_RATE), Some(exact));
                let e = reading(&out, &USE_RATE_EWMA).unwrap();
                prop_assert!((e - exact).abs() < 1e-9,
                    "steady-state EWMA {} must equal exact {}", e, exact);
            }
        }
    }
}
