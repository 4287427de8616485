//! The one metric model: labelled families, one cumulative snapshot,
//! and one windowed sample.
//!
//! Every layer (core counters and histograms, health, tail, profiler)
//! declares its metrics as [`Family`]s next to its domain code and
//! records into cells of its shard's one table; the registry reads every
//! table into one [`ObsSnapshot`] of labelled [`Series`]. A [`Sampler`]
//! keeps the previous snapshot and turns the
//! next one into a [`Sample`] with one diff keyed on (family, labels):
//! counters and histograms get their windowed delta
//! ([`Series::window`]), and each layer then adds the gauges it derives
//! from the window — per-second rates, quantiles, quality ratios,
//! shares. Because counters are monotonic and each is read atomically,
//! windowed deltas telescope exactly: summing a counter series' deltas
//! over every sample since the sampler started equals the raw counter
//! (asserted by a proptest below, with concurrent writers).
//!
//! The sampler is what the `/metrics` and `/snapshot` endpoints
//! ([`crate::MetricsServer`]), the `obs_top` dashboard and the `soak`
//! harness read; each sample advances the window, so rates cover "since
//! the previous sample".

use crate::health::DEFAULT_EWMA_ALPHA;
use crate::metrics::{CounterKind, HistogramSnapshot, MetricKind};
use crate::profile::Phase;
use crate::registry::{clock_ns, ObsRegistry, ShardObs};
use crate::slo::{HealthAlert, SloEngine};
use crate::tail::Exemplar;
use serde::de::{Deserializer, Error as _};
use serde::{Deserialize, Serialize, Serializer};
use std::collections::{BTreeMap, HashMap};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

/// A family's Prometheus type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricType {
    /// A monotonic count.
    Counter,
    /// A point-in-time reading.
    Gauge,
    /// A fixed-bucket [`crate::Histogram`].
    Histogram,
}

impl MetricType {
    /// The exposition `# TYPE` name.
    pub fn name(self) -> &'static str {
        match self {
            MetricType::Counter => "counter",
            MetricType::Gauge => "gauge",
            MetricType::Histogram => "histogram",
        }
    }
}

/// One metric family: the name, type, label names and render scale
/// every series of it shares.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Family {
    /// The exported name.
    pub name: &'static str,
    /// The Prometheus type.
    pub kind: MetricType,
    /// Label names, in exposition order.
    pub labels: &'static [&'static str],
    /// Render scale: the exposition writes `value / scale` (1 writes
    /// values as recorded, 1e9 turns nanoseconds into seconds).
    pub scale: f64,
}

impl Family {
    /// A family rendered as recorded.
    pub(crate) const fn new(
        kind: MetricType,
        name: &'static str,
        labels: &'static [&'static str],
    ) -> Self {
        Family::scaled(kind, name, labels, 1.0)
    }

    /// A family whose values render divided by `scale`.
    pub(crate) const fn scaled(
        kind: MetricType,
        name: &'static str,
        labels: &'static [&'static str],
        scale: f64,
    ) -> Self {
        Family {
            name,
            kind,
            labels,
            scale,
        }
    }

    /// One series of this family: `values` pair up with the declared
    /// label names, in order.
    pub(crate) fn series(&self, values: &[&str], value: Value) -> Series {
        debug_assert_eq!(
            values.len(),
            self.labels.len(),
            "{}: label arity",
            self.name
        );
        Series {
            family: self.name.to_owned(),
            labels: self
                .labels
                .iter()
                .zip(values)
                .map(|(k, v)| ((*k).to_owned(), (*v).to_owned()))
                .collect(),
            value,
            window: None,
        }
    }
}

/// One series' value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Value {
    /// A counter's count.
    Counter(u64),
    /// A gauge's reading (an overflowed quantile bound reads `+Inf`).
    Gauge(Reading),
    /// A histogram's distribution.
    Histogram(HistogramSnapshot),
}

/// A gauge's reading. JSON has no number for a non-finite one, so it
/// travels as the exposition's spelling (`"+Inf"`, `"-Inf"`, `"NaN"`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading(pub f64);

impl Serialize for Reading {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        if self.0.is_finite() {
            serializer.serialize_f64(self.0)
        } else {
            serializer.serialize_str(&fmt_f64(self.0))
        }
    }
}

impl<'de> Deserialize<'de> for Reading {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        match deserializer.take_value()? {
            serde::Value::F64(x) => Ok(Reading(x)),
            serde::Value::I64(n) => Ok(Reading(n as f64)),
            serde::Value::U64(n) => Ok(Reading(n as f64)),
            serde::Value::Str(s) => s
                .parse()
                .map(Reading)
                .map_err(|e| D::Error::custom(format!("gauge {s:?}: {e}"))),
            other => Err(D::Error::custom(format!(
                "expected a gauge, found {other:?}"
            ))),
        }
    }
}

impl Value {
    /// A counter's count (0 for other types).
    pub fn counter(&self) -> u64 {
        match self {
            Value::Counter(n) => *n,
            _ => 0,
        }
    }

    /// A gauge's reading.
    pub fn gauge(&self) -> Option<f64> {
        match self {
            Value::Gauge(Reading(x)) => Some(*x),
            _ => None,
        }
    }

    /// A histogram's distribution.
    pub fn histogram(&self) -> Option<&HistogramSnapshot> {
        match self {
            Value::Histogram(h) => Some(h),
            _ => None,
        }
    }

    /// The windowed difference `self - earlier` of a counter or a
    /// histogram (`earlier = None`: everything since the start); gauges
    /// have no window.
    fn since(&self, earlier: Option<&Value>) -> Option<Value> {
        match self {
            Value::Counter(n) => Some(Value::Counter(
                n.saturating_sub(earlier.map_or(0, Value::counter)),
            )),
            Value::Histogram(h) => {
                Some(Value::Histogram(match earlier.and_then(Value::histogram) {
                    Some(e) => h.delta(e),
                    None => h.clone(),
                }))
            }
            Value::Gauge(_) => None,
        }
    }
}

/// Formats a reading the way the text exposition spells it: non-finite
/// values as `+Inf`, `-Inf` and `NaN`.
pub(crate) fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        "NaN".to_owned()
    } else if x.is_infinite() {
        if x > 0.0 { "+Inf" } else { "-Inf" }.to_owned()
    } else {
        x.to_string()
    }
}

/// One labelled series of a family.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// The family's name.
    pub family: String,
    /// `(name, value)` label pairs, in the family's label order.
    pub labels: Vec<(String, String)>,
    /// The cumulative value (counters, histograms) or the reading
    /// (gauges).
    pub value: Value,
    /// In a [`Sample`], a counter's or histogram's delta over the
    /// window; `None` in a snapshot and for gauges.
    pub window: Option<Value>,
}

impl Series {
    /// The value of label `name`, when the series carries it.
    pub fn label(&self, name: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether every `(name, value)` pair in `labels` matches.
    pub fn matches(&self, labels: &[(&str, &str)]) -> bool {
        labels.iter().all(|(k, v)| self.label(k) == Some(v))
    }

    /// A counter's windowed delta (0 outside a sample).
    pub fn delta(&self) -> u64 {
        self.window.as_ref().map_or(0, Value::counter)
    }
}

/// A list of labelled series with the lookups every reader of a
/// snapshot or a sample uses (both dereference to it). Serializes as
/// the bare list.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct SeriesList(pub Vec<Series>);

impl Deref for SeriesList {
    type Target = Vec<Series>;

    fn deref(&self) -> &Vec<Series> {
        &self.0
    }
}

impl DerefMut for SeriesList {
    fn deref_mut(&mut self) -> &mut Vec<Series> {
        &mut self.0
    }
}

impl SeriesList {
    /// The series of `family`, in report order.
    pub fn family<'a>(&'a self, family: &'a str) -> impl Iterator<Item = &'a Series> + 'a {
        self.iter().filter(move |s| s.family == family)
    }

    /// The series of `family` carrying `labels`.
    pub fn find(&self, family: &str, labels: &[(&str, &str)]) -> Option<&Series> {
        self.iter()
            .find(|s| s.family == family && s.matches(labels))
    }

    /// The reading of the gauge series of `family` carrying `labels`.
    pub fn gauge(&self, family: &str, labels: &[(&str, &str)]) -> Option<f64> {
        self.find(family, labels).and_then(|s| s.value.gauge())
    }

    /// A counter family's cross-shard total.
    pub fn total(&self, family: &str) -> u64 {
        self.family(family).map(|s| s.value.counter()).sum()
    }

    /// A counter family's cross-shard delta over a sample's window.
    pub fn delta(&self, family: &str) -> u64 {
        self.family(family).map(Series::delta).sum()
    }

    /// The sum of `family`'s counts or readings among the series
    /// carrying `labels` (all of them with no labels).
    pub fn sum(&self, family: &str, labels: &[(&str, &str)]) -> f64 {
        self.family(family)
            .filter(|s| s.matches(labels))
            .map(|s| s.value.gauge().unwrap_or(s.value.counter() as f64))
            .sum()
    }

    /// How many shard slots the reporting registry has.
    pub fn shards(&self) -> usize {
        self.gauge(crate::metrics::OBS_SHARDS.name, &[])
            .unwrap_or(0.0) as usize
    }

    /// A core counter's cross-shard total.
    pub fn counter(&self, kind: CounterKind) -> u64 {
        self.total(kind.family().name)
    }

    /// A core histogram merged across shards.
    pub fn histogram(&self, kind: MetricKind) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for h in self
            .family(kind.family().name)
            .filter_map(|s| s.value.histogram())
        {
            merged.merge(h);
        }
        merged
    }

    /// The windowed slices of the histogram series of `family` carrying
    /// `labels`, merged (empty outside a sample).
    pub fn window_histogram(&self, family: &str, labels: &[(&str, &str)]) -> HistogramSnapshot {
        let mut merged = HistogramSnapshot::empty();
        for s in self.family(family).filter(|s| s.matches(labels)) {
            if let Some(h) = s.window.as_ref().and_then(Value::histogram) {
                merged.merge(h);
            }
        }
        merged
    }

    /// The core counters' cross-shard totals keyed by short name
    /// (`ingested`, `deliveries`, …), plus the ring's
    /// `trace_events_dropped` — what `trace_dump --json` reports.
    pub fn counters(&self) -> BTreeMap<String, u64> {
        crate::metrics::COUNTER_KINDS
            .iter()
            .map(|k| (k.name().to_owned(), self.counter(*k)))
            .chain([(
                "trace_events_dropped".to_owned(),
                self.total(crate::metrics::RING_DROPPED.name),
            )])
            .collect()
    }
}

/// A point-in-time copy of every layer's cumulative state, collected
/// shard by shard without a global lock, plus the exemplar reservoirs
/// (domain data rather than metrics).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsSnapshot {
    /// Every reported series.
    pub series: SeriesList,
    /// Every shard's reservoir of over-p99 contexts.
    pub exemplars: Vec<Exemplar>,
}

impl Deref for ObsSnapshot {
    type Target = SeriesList;

    fn deref(&self) -> &SeriesList {
        &self.series
    }
}

/// Build identity stamps for the process being scraped, so exported
/// series are attributable to a specific commit and host.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BuildInfo {
    /// Short commit hash (`GITHUB_SHA` env, then `git rev-parse
    /// --short HEAD`, else `"unknown"`).
    pub commit: String,
    /// Host name (`HOSTNAME` env, then `uname -n`, else `"unknown"`).
    pub host: String,
}

impl BuildInfo {
    /// Collects the stamps from the environment, falling back to git
    /// and `uname` and finally to `"unknown"` — never fails.
    pub fn collect() -> BuildInfo {
        BuildInfo {
            commit: env_or_cmd("GITHUB_SHA", "git", &["rev-parse", "--short", "HEAD"]),
            host: env_or_cmd("HOSTNAME", "uname", &["-n"]),
        }
    }
}

fn env_or_cmd(env: &str, cmd: &str, args: &[&str]) -> String {
    if let Ok(v) = std::env::var(env) {
        let v = v.trim().to_string();
        if !v.is_empty() {
            return v;
        }
    }
    std::process::Command::new(cmd)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The build identity gauge: constant 1, identity rides the labels.
pub(crate) const BUILD_INFO: Family =
    Family::new(MetricType::Gauge, "ctxres_build_info", &["commit", "host"]);

/// One observation window: every snapshot series with its windowed
/// delta, the gauges the layers derive from the window, the exemplar
/// reservoirs, and the SLO transitions the window raised.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Length of this window in seconds (0 for the first sample).
    pub elapsed_secs: f64,
    /// Whether this is the sampler's first sample (rates are all zero;
    /// windows cover everything since the start).
    pub first: bool,
    /// The registry's logical clock at the window's end
    /// ([`ObsRegistry::now_tick`]); SLO transitions are stamped with it.
    pub tick: u64,
    /// Snapshot series (with [`Series::window`] set), then derived
    /// gauges.
    pub series: SeriesList,
    /// Every shard's exemplar reservoir at the window's end.
    pub exemplars: Vec<Exemplar>,
    /// SLO transitions (fired / cleared) during this window.
    pub alerts: Vec<HealthAlert>,
}

impl Deref for Sample {
    type Target = SeriesList;

    fn deref(&self) -> &SeriesList {
        &self.series
    }
}

/// What the window diff keys series on: (family, labels).
type SeriesKey = (String, Vec<(String, String)>);

/// Periodically captures an [`ObsRegistry`]'s state and derives the
/// windowed view between consecutive captures.
///
/// ```
/// use ctxres_obs::{CounterKind, ObsConfig, ObsRegistry, Sampler};
///
/// let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
/// let mut sampler = Sampler::new(Arc::clone(&registry));
/// sampler.sample(); // establish the baseline
/// registry.handle(0).count(CounterKind::Ingested, 40);
/// let s = sampler.sample_after(2.0); // a deterministic 2-second window
/// assert_eq!(s.delta("ctxres_ingested_total"), 40);
/// assert_eq!(s.gauge("ctxres_ingested_per_sec", &[("shard", "0")]), Some(20.0));
/// # use std::sync::Arc;
/// ```
#[derive(Debug)]
pub struct Sampler {
    registry: Arc<ObsRegistry>,
    /// The previous sample's end (ns since the registry epoch) and values.
    prev: Option<(u64, HashMap<SeriesKey, Value>)>,
    ewma: HashMap<String, f64>,
    slo: Option<SloEngine>,
    build: Option<BuildInfo>,
}

impl Sampler {
    /// A sampler over `registry`; the first [`Sampler::sample`] is the
    /// baseline (empty window, zero rates).
    pub fn new(registry: Arc<ObsRegistry>) -> Self {
        Sampler {
            registry,
            prev: None,
            ewma: HashMap::new(),
            slo: None,
            build: None,
        }
    }

    /// Attaches build identity stamps: every sample carries a
    /// `ctxres_build_info` gauge. Opt-in because the stamps are
    /// machine-dependent (golden outputs stay reproducible without).
    pub fn with_build_info(mut self, build: BuildInfo) -> Self {
        self.build = Some(build);
        self
    }

    /// Attaches an SLO engine: each sample evaluates the rules against
    /// the window's gauges and fills [`Sample::alerts`] and the
    /// `ctxres_slo_firing` gauges.
    pub fn with_slo(mut self, engine: SloEngine) -> Self {
        self.slo = Some(engine);
        self
    }

    /// The attached SLO engine, when one is.
    pub fn slo(&self) -> Option<&SloEngine> {
        self.slo.as_ref()
    }

    /// The registry this sampler reads.
    pub fn registry(&self) -> &Arc<ObsRegistry> {
        &self.registry
    }

    /// Takes a sample; the window is the wall-clock time since the
    /// previous call.
    pub fn sample(&mut self) -> Sample {
        let secs = self.prev.as_ref().map_or(0.0, |(t, _)| {
            clock_ns(self.registry.epoch).saturating_sub(*t) as f64 / 1e9
        });
        self.sample_after(secs)
    }

    /// Takes a sample with an explicitly supplied window length — the
    /// deterministic entry point tests and golden exports use.
    pub fn sample_after(&mut self, elapsed_secs: f64) -> Sample {
        // Attribute the sampler's own cost to the Export phase on the
        // last slot (the engine slot in sharded setups) so profiled
        // runs see what scraping costs them.
        let export_obs = match self.registry.shards() {
            0 => ShardObs::disabled(),
            n => self.registry.handle(n - 1),
        };
        let _export_phase = export_obs.phase(Phase::Export);
        let snapshot = self.registry.snapshot();
        let (first, prev) = match self.prev.take() {
            Some((_, prev)) => (false, prev),
            None => (true, HashMap::new()),
        };
        let mut series = snapshot.series;
        let mut cumulative = HashMap::with_capacity(series.len());
        for s in series.iter_mut() {
            let key = (s.family.clone(), s.labels.clone());
            s.window = s.value.since(prev.get(&key));
            if s.window.is_some() {
                cumulative.insert(key, s.value.clone());
            }
        }
        self.prev = Some((clock_ns(self.registry.epoch), cumulative));

        let mut derived =
            vec![crate::metrics::SCRAPE_WINDOW.series(&[], Value::Gauge(Reading(elapsed_secs)))];
        crate::metrics::derive(&series, elapsed_secs, &mut derived);
        crate::health::derive(&series, &mut self.ewma, DEFAULT_EWMA_ALPHA, &mut derived);
        crate::tail::derive(&series, &mut derived);
        crate::profile::derive(&series, &mut derived);
        series.append(&mut derived);
        let mut sample = Sample {
            elapsed_secs,
            first,
            tick: self.registry.now_tick(),
            series,
            exemplars: snapshot.exemplars,
            alerts: Vec::new(),
        };
        if let Some(engine) = &mut self.slo {
            sample.alerts = engine.evaluate(&sample, sample.tick);
            for rule in engine.active() {
                sample
                    .series
                    .push(crate::slo::SLO_FIRING.series(&[&rule], Value::Gauge(Reading(1.0))));
            }
        }
        if let Some(build) = &self.build {
            sample
                .series
                .push(BUILD_INFO.series(&[&build.commit, &build.host], Value::Gauge(Reading(1.0))));
        }
        sample
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ObsConfig;
    use ctxres_context::LogicalTime;

    #[test]
    fn first_sample_is_a_baseline_with_zero_rates() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 2);
        registry.handle(1).count(CounterKind::Deliveries, 5);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        let s = sampler.sample_after(0.0);
        assert!(s.first);
        // The baseline window is empty time but carries the full
        // cumulative delta from zero.
        assert_eq!(s.delta("ctxres_deliveries_total"), 5);
        assert_eq!(
            s.gauge("ctxres_deliveries_per_sec", &[("shard", "1")]),
            Some(0.0)
        );
    }

    #[test]
    fn windows_carry_only_new_activity() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        registry.handle(0).count(CounterKind::Ingested, 10);
        sampler.sample_after(0.0);
        registry.handle(0).count(CounterKind::Ingested, 6);
        registry.handle(1).count(CounterKind::Ingested, 4);
        let s = sampler.sample_after(2.0);
        assert!(!s.first);
        let shard = |i: &str| s.find("ctxres_ingested_total", &[("shard", i)]).unwrap();
        assert_eq!(shard("0").delta(), 6);
        assert_eq!(shard("1").delta(), 4);
        assert_eq!(s.delta("ctxres_ingested_total"), 10);
        assert_eq!(s.total("ctxres_ingested_total"), 20);
        assert_eq!(
            s.gauge("ctxres_ingested_per_sec", &[("shard", "0")]),
            Some(3.0)
        );
        // And the next window starts empty.
        let s2 = sampler.sample_after(1.0);
        assert_eq!(s2.delta("ctxres_ingested_total"), 0);
    }

    #[test]
    fn histogram_windows_slice_the_distribution() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        let h = registry.handle(0);
        h.observe(MetricKind::DeltaSize, 3);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        sampler.sample_after(0.0);
        h.observe(MetricKind::DeltaSize, 100);
        h.observe(MetricKind::DeltaSize, 200);
        let s = sampler.sample_after(1.0);
        let w = s.window_histogram("ctxres_delta_size", &[]);
        assert_eq!(w.count, 2);
        assert_eq!(w.sum, 300);
        assert_eq!(w.buckets.iter().sum::<u64>(), 2);
        // The cumulative value still holds all three observations.
        let series = s.find("ctxres_delta_size", &[("shard", "0")]).unwrap();
        assert_eq!(series.value.histogram().unwrap().count, 3);
    }

    #[test]
    fn quantile_bounds_come_from_the_cumulative_distribution() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        for v in 1..=100u64 {
            registry.handle(0).observe(MetricKind::CheckLatency, v);
        }
        let mut sampler = Sampler::new(Arc::clone(&registry));
        sampler.sample_after(0.0);
        // The second window is empty, yet the bounds still describe
        // the cumulative distribution.
        let s = sampler.sample_after(1.0);
        let bound = |q: &str| {
            s.gauge(
                "ctxres_check_latency_ns_quantile_bound",
                &[("shard", "0"), ("q", q)],
            )
            .unwrap()
        };
        let (p50, p95, p99) = (bound("0.5"), bound("0.95"), bound("0.99"));
        assert!(p50 <= p95 && p95 <= p99);
        assert!((50.0..=64.0).contains(&p50), "{p50}");
        assert!(s
            .family("ctxres_route_latency_ns_quantile_bound")
            .next()
            .is_none());
    }

    #[test]
    fn health_rides_the_sampler_once_published() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        let s = sampler.sample_after(0.0);
        assert!(
            s.family("ctxres_health_ingested_total").next().is_none(),
            "no health published yet"
        );

        let kh = registry.handle(0).kind_handle("location");
        kh.ingested(10);
        kh.delivered(6);
        kh.discarded(4);
        registry.handle(1).publish_pool(8, 2, 3, 41);
        let s = sampler.sample_after(1.0);
        assert_eq!(
            s.gauge("ctxres_health_use_rate", &[("kind", "location")]),
            Some(0.6)
        );
        assert_eq!(
            s.gauge("ctxres_pool_live_slots", &[("shard", "1")]),
            Some(8.0)
        );
        assert_eq!(s.gauge("ctxres_pool_occupancy", &[]), Some(0.8));
        assert_eq!(registry.now_tick(), 41);
        let json = serde_json::to_string(&s).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn phases_ride_the_sampler_once_profiled() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_profile(1), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        // The baseline sample's own Export span is recorded *after* its
        // snapshot, so what matters is that real work shows next.
        sampler.sample_after(0.0);
        let h = registry.handle(0);
        {
            let _g = h.phase(Phase::Ingest);
            let h2 = registry.handle(0);
            let _c = h2.phase(Phase::ConstraintCheck);
        }
        let s = sampler.sample_after(1.0);
        let calls = |shard: &str, phase: &str| {
            s.find(
                "ctxres_phase_calls_total",
                &[("shard", shard), ("phase", phase)],
            )
            .map_or(0, |s| s.value.counter())
        };
        assert_eq!(calls("0", "ingest"), 1);
        assert_eq!(calls("0", "constraint_check"), 1);
        // The sampler's own export guard landed on the last slot.
        assert!(calls("1", "export") >= 1);
        assert!(s
            .gauge("ctxres_phase_self_share", &[("phase", "ingest")])
            .is_some());
        let json = serde_json::to_string(&s).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn phases_stay_none_without_profiling() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        let h = registry.handle(0);
        let _ = h.phase(Phase::Ingest);
        let s = sampler.sample_after(1.0);
        assert!(
            s.series
                .iter()
                .all(|s| !s.family.starts_with("ctxres_phase_")),
            "profile off ⇒ no phase series"
        );
    }

    #[test]
    fn build_info_is_opt_in_and_round_trips() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        assert!(sampler
            .sample_after(0.0)
            .family("ctxres_build_info")
            .next()
            .is_none());

        let build = BuildInfo {
            commit: "abc1234".into(),
            host: "bench-host".into(),
        };
        let mut sampler = Sampler::new(registry).with_build_info(build);
        let s = sampler.sample_after(0.0);
        let labels = [("commit", "abc1234"), ("host", "bench-host")];
        assert_eq!(s.gauge("ctxres_build_info", &labels), Some(1.0));
        let json = serde_json::to_string(&s).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back.gauge("ctxres_build_info", &labels), Some(1.0));
    }

    #[test]
    fn build_info_collect_never_fails() {
        let b = BuildInfo::collect();
        assert!(!b.commit.is_empty());
        assert!(!b.host.is_empty());
    }

    #[test]
    fn tail_rides_the_sampler_once_recorded() {
        use crate::tail::{ContextSpan, TailOutcome};
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_tail(true), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        let s = sampler.sample_after(0.0);
        assert!(
            s.family("ctxres_e2e_latency_us").next().is_none(),
            "nothing recorded yet"
        );

        let span = ContextSpan {
            ingress_ns: 0,
            verdict_ns: 40_000,
            decision_ns: 60_000,
            end_ns: 100_000,
        };
        registry.handle(0).record_e2e(
            ctxres_context::ContextId::from_raw(7),
            TailOutcome::Delivered,
            span,
            LogicalTime::new(9),
        );
        let s = sampler.sample_after(1.0);
        assert_eq!(s.window_histogram("ctxres_e2e_latency_us", &[]).count, 1);
        let p99 = [("outcome", "all"), ("q", "0.99")];
        assert!(s.gauge("ctxres_e2e_window_quantile_ns", &p99).is_some());
        let json = serde_json::to_string(&s).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // The next window starts empty but the cumulative series and
        // the exemplars stay visible.
        let s2 = sampler.sample_after(1.0);
        assert_eq!(s2.window_histogram("ctxres_e2e_latency_us", &[]).count, 0);
        assert!(s2.gauge("ctxres_e2e_window_quantile_ns", &p99).is_none());
        assert_eq!(s2.exemplars.len(), 1);
    }

    #[test]
    fn tail_stays_none_without_the_lever() {
        use crate::tail::{ContextSpan, TailOutcome};
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        registry.handle(0).record_e2e(
            ctxres_context::ContextId::from_raw(1),
            TailOutcome::Discarded,
            ContextSpan {
                ingress_ns: 0,
                verdict_ns: 1,
                decision_ns: 2,
                end_ns: 3,
            },
            LogicalTime::new(1),
        );
        let mut sampler = Sampler::new(registry);
        let s = sampler.sample_after(1.0);
        assert!(
            s.series
                .iter()
                .all(|s| !s.family.starts_with("ctxres_e2e_")),
            "tail off ⇒ no tail series"
        );
        assert!(s.exemplars.is_empty());
    }

    #[test]
    fn slo_alerts_fire_through_the_sampler() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        let engine = SloEngine::from_spec("discard_rate > 0.3 for 2").unwrap();
        let mut sampler = Sampler::new(Arc::clone(&registry)).with_slo(engine);
        let kh = registry.handle(0).kind_handle("location");
        sampler.sample_after(0.0);
        kh.ingested(10);
        kh.discarded(9);
        kh.delivered(1);
        let s = sampler.sample_after(1.0); // first breach: armed
        assert!(s.alerts.is_empty());
        kh.ingested(10);
        kh.discarded(9);
        kh.delivered(1);
        let s = sampler.sample_after(1.0); // second breach: fires
        assert_eq!(s.alerts.len(), 1);
        assert!(s.alerts[0].firing);
        let firing = [("rule", "discard_rate > 0.3 for 2")];
        assert_eq!(s.gauge("ctxres_slo_firing", &firing), Some(1.0));
        assert!(sampler.slo().unwrap().is_firing("discard_rate > 0.3 for 2"));
    }

    #[test]
    fn sample_round_trips_through_serde() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 2);
        registry.handle(0).count(CounterKind::Discards, 2);
        // An overflow-bucket observation makes the quantile bounds +Inf,
        // which JSON numbers cannot hold.
        registry.handle(1).observe(MetricKind::QueueDepth, u64::MAX);
        let mut sampler = Sampler::new(registry);
        sampler.sample_after(0.0);
        let s = sampler.sample_after(1.5);
        let bound = [("shard", "1"), ("q", "0.5")];
        assert_eq!(
            s.gauge("ctxres_queue_depth_quantile_bound", &bound),
            Some(f64::INFINITY)
        );
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains(r#"{"Gauge":"+Inf"}"#), "{json}");
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}

#[cfg(test)]
mod delta_proptests {
    //! The windowed diff is sum-consistent: for every counter series of
    //! every layer, summing the deltas of every window reproduces the
    //! cumulative value exactly, and so does summing every histogram
    //! series' windowed count and sum, even when the samples were taken
    //! while shard writer threads were racing.

    use super::*;
    use crate::registry::ObsConfig;
    use crate::tail::{ContextSpan, TailOutcome};
    use ctxres_context::LogicalTime;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn windowed_deltas_sum_to_the_raw_counters(
            per_writer in proptest::collection::vec(
                proptest::collection::vec((0usize..7, 1u64..50), 1..40),
                1..4,
            ),
            mid_samples in 1usize..4,
        ) {
            let shards = per_writer.len();
            let config = ObsConfig::metrics_only().with_tail(true).with_profile(1);
            let registry = ObsRegistry::shared(config, shards);
            let mut sampler = Sampler::new(Arc::clone(&registry));
            // Per series: the summed counter deltas, or the summed
            // windowed histogram count and sum.
            let mut summed: HashMap<SeriesKey, (u64, u64)> = HashMap::new();
            let mut fold = |s: &Sample| {
                for series in s.series.iter() {
                    let window = match &series.window {
                        Some(Value::Counter(n)) => (*n, 0),
                        Some(Value::Histogram(h)) => (h.count, h.sum),
                        _ => continue,
                    };
                    let total = summed
                        .entry((series.family.clone(), series.labels.clone()))
                        .or_default();
                    total.0 += window.0;
                    total.1 += window.1;
                }
            };
            fold(&sampler.sample_after(0.0));

            std::thread::scope(|scope| {
                for (shard, ops) in per_writer.iter().enumerate() {
                    let h = registry.handle(shard);
                    let ops = ops.clone();
                    scope.spawn(move || {
                        let kind = h.kind_handle("location");
                        for (op, n) in ops {
                            match op {
                                0 => h.count(CounterKind::Detections, n),
                                1 => h.count(CounterKind::Ingested, n),
                                2 => kind.ingested(n),
                                3 => kind.discarded(n),
                                4 => h.record_queue_wait(n),
                                5 => h.observe(MetricKind::DeltaSize, n),
                                _ => {
                                    let _g = h.phase(Phase::Resolution);
                                    h.record_e2e(
                                        ctxres_context::ContextId::from_raw(n),
                                        TailOutcome::Delivered,
                                        ContextSpan { end_ns: n * 1_000, ..ContextSpan::default() },
                                        LogicalTime::new(n),
                                    );
                                }
                            }
                        }
                    });
                }
                // Sample concurrently with the writers: a lost or
                // double-counted window would break the sum below.
                for _ in 0..mid_samples {
                    fold(&sampler.sample_after(0.01));
                }
            });

            // Writers are done; a final sample closes the telescope.
            // (The sampler's own export span moves the profiler's
            // counters after each snapshot, so the oracle is the last
            // sample's cumulative values, not a fresh snapshot.)
            let last = sampler.sample_after(0.01);
            fold(&last);
            let mut checked = 0;
            let mut histograms = 0;
            for series in last.series.iter() {
                let cumulative = match &series.value {
                    Value::Counter(n) => (*n, 0),
                    Value::Histogram(h) => {
                        histograms += 1;
                        (h.count, h.sum)
                    }
                    Value::Gauge(_) => continue,
                };
                let key = (series.family.clone(), series.labels.clone());
                prop_assert_eq!(
                    summed.get(&key).copied().unwrap_or_default(),
                    cumulative,
                    "{} {:?} must telescope", series.family, series.labels
                );
                checked += 1;
            }
            prop_assert!(checked > 0);
            prop_assert!(histograms > 0);
        }
    }
}
