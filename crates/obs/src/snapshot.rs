//! Windowed sampling over an [`ObsRegistry`]: deltas and rates between
//! consecutive snapshots.
//!
//! A raw [`ObsSnapshot`] is cumulative — counters only ever grow — which
//! is the right shape for correctness oracles but useless for watching a
//! run: "120 000 deliveries so far" says nothing about whether the
//! engine is currently moving. A [`Sampler`] remembers the previous
//! snapshot and, on each [`Sampler::sample`], produces a [`Sample`]
//! carrying both the cumulative state and the **windowed** view since
//! the last sample: per-shard counter deltas, per-second rates, and the
//! windowed slice of every histogram. Because counters are monotonic and
//! each is read atomically, per-window deltas telescope exactly: summing
//! a counter's deltas over all samples since the sampler started equals
//! the raw counter (asserted by a proptest below, with concurrent shard
//! writers).
//!
//! The sampler is what the `/metrics` and `/snapshot` endpoints
//! ([`crate::MetricsServer`]) and the `obs_top` dashboard scrape; each
//! scrape advances the window, so reported rates are "since the previous
//! scrape".

use crate::event::TraceEvent;
use crate::health::{HealthSample, HealthSnapshot, DEFAULT_EWMA_ALPHA};
use crate::metrics::{CounterKind, HistogramSnapshot, MetricKind, COUNTER_KINDS, METRIC_KINDS};
use crate::profile::{Phase, PhaseSample, ProfileSnapshot};
use crate::registry::{ObsRegistry, ObsSnapshot, ShardObs, ShardSnapshot};
use crate::slo::SloEngine;
use crate::tail::{TailSample, TailSnapshot};
use ctxres_context::LogicalTime;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

/// One shard's windowed view: counter deltas since the previous sample,
/// the same deltas as per-second rates, and the windowed slice of each
/// histogram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardRates {
    /// The shard index (0 for a merged total).
    pub shard: usize,
    /// Counter deltas since the previous sample, indexed by
    /// [`CounterKind::index`]. Never negative: counters are monotonic.
    pub counter_deltas: Vec<u64>,
    /// The deltas divided by the window length in seconds (all zero on
    /// the first sample, whose window is empty).
    pub counter_rates: Vec<f64>,
    /// The windowed slice of each histogram (observations recorded
    /// during this window), indexed by [`MetricKind::index`].
    pub histogram_deltas: Vec<HistogramSnapshot>,
    /// Events currently buffered in the shard's ring (a gauge).
    pub events_buffered: u64,
    /// Lifetime events evicted from the shard's full ring.
    pub events_dropped: u64,
}

impl ShardRates {
    /// A counter's delta over this window.
    pub fn delta(&self, kind: CounterKind) -> u64 {
        self.counter_deltas.get(kind.index()).copied().unwrap_or(0)
    }

    /// A counter's per-second rate over this window.
    pub fn rate(&self, kind: CounterKind) -> f64 {
        self.counter_rates.get(kind.index()).copied().unwrap_or(0.0)
    }

    /// A histogram's windowed slice.
    pub fn window(&self, kind: MetricKind) -> &HistogramSnapshot {
        &self.histogram_deltas[kind.index()]
    }

    fn between(shard: usize, prev: Option<&ShardSnapshot>, cur: &ShardSnapshot, secs: f64) -> Self {
        let zero = ShardSnapshot::zero();
        let prev = prev.unwrap_or(&zero);
        let counter_deltas: Vec<u64> = (0..COUNTER_KINDS.len())
            .map(|i| {
                let now = cur.counters.get(i).copied().unwrap_or(0);
                let was = prev.counters.get(i).copied().unwrap_or(0);
                now.saturating_sub(was)
            })
            .collect();
        let counter_rates = counter_deltas
            .iter()
            .map(|d| if secs > 0.0 { *d as f64 / secs } else { 0.0 })
            .collect();
        let histogram_deltas = (0..METRIC_KINDS.len())
            .map(|i| {
                let empty = HistogramSnapshot::empty();
                let now = cur.histograms.get(i).unwrap_or(&empty);
                let was = prev.histograms.get(i).unwrap_or(&empty);
                histogram_delta(was, now)
            })
            .collect();
        ShardRates {
            shard,
            counter_deltas,
            counter_rates,
            histogram_deltas,
            events_buffered: cur.events_buffered,
            events_dropped: cur.events_dropped,
        }
    }

    /// Adds another shard's windowed view into this one (cross-shard
    /// totals; rates sum because they share one window).
    pub fn merge(&mut self, other: &ShardRates) {
        for (mine, theirs) in self.counter_deltas.iter_mut().zip(&other.counter_deltas) {
            *mine += *theirs;
        }
        for (mine, theirs) in self.counter_rates.iter_mut().zip(&other.counter_rates) {
            *mine += *theirs;
        }
        for (mine, theirs) in self
            .histogram_deltas
            .iter_mut()
            .zip(&other.histogram_deltas)
        {
            mine.merge(theirs);
        }
        self.events_buffered += other.events_buffered;
        self.events_dropped += other.events_dropped;
    }
}

/// The windowed difference `now - was` of two cumulative histogram
/// snapshots (saturating per field, so a concurrent writer racing the
/// snapshot can never produce a negative count).
fn histogram_delta(was: &HistogramSnapshot, now: &HistogramSnapshot) -> HistogramSnapshot {
    HistogramSnapshot {
        count: now.count.saturating_sub(was.count),
        sum: now.sum.saturating_sub(was.sum),
        buckets: (0..now.buckets.len().max(was.buckets.len()))
            .map(|i| {
                let n = now.buckets.get(i).copied().unwrap_or(0);
                let w = was.buckets.get(i).copied().unwrap_or(0);
                n.saturating_sub(w)
            })
            .collect(),
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

/// One observation window: the cumulative registry state plus the
/// windowed deltas/rates since the previous sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Length of this window in seconds (0 for the first sample).
    pub elapsed_secs: f64,
    /// Whether this is the sampler's first sample (rates are all zero).
    pub first: bool,
    /// The cumulative registry snapshot the window ends at.
    pub snapshot: ObsSnapshot,
    /// Per-shard windowed views, in shard order.
    pub shards: Vec<ShardRates>,
    /// All shards' windowed views merged (the `shard` field is
    /// meaningless and left 0).
    pub total: ShardRates,
    /// Quality telemetry for the window — per-kind rates, staleness
    /// and arena gauges, plus SLO alerts when an engine is attached.
    /// `None` (serialized as `null`, and tolerated when absent —
    /// pre-health dumps still load) until some engine publishes health
    /// state; the Prometheus exposition renders health sections only
    /// when present, so pre-health output is byte-identical.
    pub health: Option<HealthSample>,
    /// Per-phase profiler view — cumulative and windowed self/total
    /// times per shard × [`Phase`]. `None` unless the registry was
    /// built with [`crate::ObsConfig::with_profile`] and at least one
    /// phase has run; pre-profiler dumps (no `phases` key) still load.
    pub phases: Option<PhaseSample>,
    /// Build identity stamps, attached via
    /// [`Sampler::with_build_info`] (the metrics server does this
    /// automatically). `None` keeps older dumps and golden expositions
    /// byte-identical.
    pub build: Option<BuildInfo>,
    /// End-to-end tail-latency view for the window — per-outcome
    /// p50/p95/p99/p999, exemplar reservoirs, and queue wait/service
    /// decomposition. `None` unless the
    /// registry was built with [`crate::ObsConfig::with_tail`] and
    /// something recorded; pre-tail dumps (no `tail` key) still load.
    pub tail: Option<TailSample>,
}

/// The quantiles the exporter and dashboards report.
pub const QUANTILES: [f64; 3] = [0.50, 0.95, 0.99];

impl Sample {
    /// Upper bounds on the p50/p95/p99 of a metric's **cumulative**
    /// cross-shard distribution, or `None` when nothing was recorded.
    pub fn quantile_bounds(&self, kind: MetricKind) -> Option<[u64; 3]> {
        let agg = self.snapshot.aggregate();
        let h = agg.histogram(kind);
        Some([
            h.quantile_bound(QUANTILES[0])?,
            h.quantile_bound(QUANTILES[1])?,
            h.quantile_bound(QUANTILES[2])?,
        ])
    }
}

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
/// assert_eq!(s.total.delta(CounterKind::Ingested), 40);
/// assert_eq!(s.total.rate(CounterKind::Ingested), 20.0);
/// # use std::sync::Arc;
/// ```
#[derive(Debug)]
pub struct Sampler {
    registry: Arc<ObsRegistry>,
    prev: Option<(Instant, ObsSnapshot)>,
    prev_health: Option<HealthSnapshot>,
    prev_profile: Option<ProfileSnapshot>,
    prev_tail: Option<TailSnapshot>,
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
            prev_health: None,
            prev_profile: None,
            prev_tail: None,
            ewma: HashMap::new(),
            slo: None,
            build: None,
        }
    }

    /// Attaches build identity stamps: every sample carries them in
    /// [`Sample::build`] and the Prometheus exposition renders a
    /// `ctxres_build_info` gauge. Opt-in because the stamps are
    /// machine-dependent (golden outputs stay reproducible without).
    pub fn with_build_info(mut self, build: BuildInfo) -> Self {
        self.build = Some(build);
        self
    }

    /// Attaches an SLO engine: each sample evaluates the rules against
    /// the window's health view, fills [`Sample::health`]'s alert
    /// fields, and (when event tracing is on) records each transition
    /// as a [`TraceEvent::Alert`] into shard 0's ring.
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
        let secs = self
            .prev
            .as_ref()
            .map(|(t, _)| t.elapsed().as_secs_f64())
            .unwrap_or(0.0);
        self.sample_after(secs)
    }

    /// Takes a sample with an explicitly supplied window length — the
    /// deterministic entry point tests and golden exports use.
    pub fn sample_after(&mut self, elapsed_secs: f64) -> Sample {
        // Attribute the sampler's own cost to the Export phase on the
        // last slot (the engine slot in sharded setups) so profiled
        // runs see what scraping costs them.
        let export_obs = if self.registry.shards() > 0 {
            self.registry.handle(self.registry.shards() - 1)
        } else {
            ShardObs::disabled()
        };
        let _export_phase = export_obs.phase(Phase::Export);
        let snapshot = self.registry.snapshot();
        let first = self.prev.is_none();
        let prev_snapshot = self.prev.take().map(|(_, s)| s);
        let shards: Vec<ShardRates> = snapshot
            .shards
            .iter()
            .enumerate()
            .map(|(i, cur)| {
                let prev = prev_snapshot.as_ref().and_then(|p| p.shards.get(i));
                ShardRates::between(i, prev, cur, elapsed_secs)
            })
            .collect();
        let mut total = ShardRates {
            shard: 0,
            counter_deltas: vec![0; COUNTER_KINDS.len()],
            counter_rates: vec![0.0; COUNTER_KINDS.len()],
            histogram_deltas: vec![HistogramSnapshot::empty(); METRIC_KINDS.len()],
            events_buffered: 0,
            events_dropped: 0,
        };
        for s in &shards {
            total.merge(s);
        }
        self.prev = Some((Instant::now(), snapshot.clone()));
        let tail = self.sample_tail();
        let health = self.sample_health(tail.as_ref());
        let phases = self.sample_phases();
        Sample {
            elapsed_secs,
            first,
            snapshot,
            shards,
            total,
            health,
            phases,
            build: self.build.clone(),
            tail,
        }
    }

    /// Computes the window's end-to-end tail view and advances the tail
    /// baseline. `None` while the tail layer is off or nothing has been
    /// recorded yet (the pre-tail shape).
    fn sample_tail(&mut self) -> Option<TailSample> {
        if !self.registry.config().tail {
            return None;
        }
        let cur = self.registry.tail_snapshot();
        if cur.is_empty() && self.prev_tail.is_none() {
            return None;
        }
        let sample = TailSample::between(self.prev_tail.as_ref(), cur.clone());
        self.prev_tail = Some(cur);
        Some(sample)
    }

    /// Computes the window's phase-profiler view and advances the
    /// profile baseline. `None` while profiling is off or no phase has
    /// run yet (the pre-profiler shape).
    fn sample_phases(&mut self) -> Option<PhaseSample> {
        if !self.registry.config().profile {
            return None;
        }
        let cur = self.registry.profile_snapshot();
        if cur.is_empty() && self.prev_profile.is_none() {
            return None;
        }
        let sample = PhaseSample::between(self.prev_profile.as_ref(), &cur);
        self.prev_profile = Some(cur);
        Some(sample)
    }

    /// Computes the window's health view, runs the SLO engine over it
    /// (with the window's tail view, so latency rules like `e2e_p99_ms`
    /// can fire), and advances the health baseline. `None` while nothing
    /// has published health state (the pre-health-telemetry shape).
    fn sample_health(&mut self, tail: Option<&TailSample>) -> Option<HealthSample> {
        let cur = self.registry.health_snapshot();
        if cur.is_empty() && self.prev_health.is_none() {
            return None;
        }
        let mut health = HealthSample::between(
            self.prev_health.as_ref(),
            &cur,
            &mut self.ewma,
            DEFAULT_EWMA_ALPHA,
        );
        if let Some(engine) = &mut self.slo {
            let at = cur.max_now_tick();
            let alerts = engine.evaluate_with_tail(&health, tail, at);
            if self.registry.shards() > 0 {
                let h = self.registry.handle(0);
                for a in &alerts {
                    h.record(
                        LogicalTime::new(a.at),
                        TraceEvent::Alert {
                            rule: a.rule.clone(),
                            metric: a.metric.clone(),
                            kind: a.kind.clone(),
                            value: a.value,
                            threshold: a.threshold,
                            firing: a.firing,
                        },
                    );
                }
            }
            health.alerts = alerts;
            health.active_alerts = engine.active();
        }
        self.prev_health = Some(cur);
        Some(health)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ObsConfig;

    #[test]
    fn first_sample_is_a_baseline_with_zero_rates() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 2);
        registry.handle(1).count(CounterKind::Deliveries, 5);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        let s = sampler.sample_after(0.0);
        assert!(s.first);
        // The baseline window is empty time but carries the full
        // cumulative delta from zero.
        assert_eq!(s.total.delta(CounterKind::Deliveries), 5);
        assert_eq!(s.total.rate(CounterKind::Deliveries), 0.0);
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
        assert_eq!(s.shards[0].delta(CounterKind::Ingested), 6);
        assert_eq!(s.shards[1].delta(CounterKind::Ingested), 4);
        assert_eq!(s.total.delta(CounterKind::Ingested), 10);
        assert_eq!(s.total.rate(CounterKind::Ingested), 5.0);
        // And the next window starts empty.
        let s2 = sampler.sample_after(1.0);
        assert_eq!(s2.total.delta(CounterKind::Ingested), 0);
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
        let w = s.total.window(MetricKind::DeltaSize);
        assert_eq!(w.count, 2);
        assert_eq!(w.sum, 300);
        assert_eq!(w.buckets.iter().sum::<u64>(), 2);
        // Cumulative quantiles still see all three observations.
        assert_eq!(
            s.snapshot
                .aggregate()
                .histogram(MetricKind::DeltaSize)
                .count,
            3
        );
    }

    #[test]
    fn quantile_bounds_come_from_the_cumulative_distribution() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        for v in 1..=100u64 {
            registry.handle(0).observe(MetricKind::CheckLatency, v);
        }
        let mut sampler = Sampler::new(Arc::clone(&registry));
        let s = sampler.sample_after(0.0);
        let [p50, p95, p99] = s.quantile_bounds(MetricKind::CheckLatency).unwrap();
        assert!(p50 <= p95 && p95 <= p99);
        assert!((50..=64).contains(&p50), "{p50}");
        assert_eq!(s.quantile_bounds(MetricKind::RouteLatency), None);
    }

    #[test]
    fn health_rides_the_sampler_once_published() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        let s = sampler.sample_after(0.0);
        assert!(s.health.is_none(), "no health published yet");

        let kh = registry.handle(0).kind_handle("location");
        kh.ingested(10);
        kh.delivered(6);
        kh.discarded(4);
        registry.handle(1).publish_pool(8, 2, 3, 41);
        let s = sampler.sample_after(1.0);
        let h = s.health.clone().expect("health attached");
        assert_eq!(h.kind("location").unwrap().use_rate, Some(0.6));
        let p = h.pool.unwrap();
        assert_eq!((p.live_slots, p.free_slots, p.now_tick), (8, 2, 41));
        let json = serde_json::to_string(&s).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn pre_health_samples_still_deserialize() {
        // A Sample dumped before the health field existed has no
        // "health" key; the field tolerates absence as None.
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let mut sampler = Sampler::new(registry);
        let s = sampler.sample_after(0.0);
        let json = serde_json::to_string(&s).unwrap();
        let stripped = json.replacen(",\"health\":null", "", 1);
        assert_ne!(stripped, json, "fixture actually dropped the field");
        let back: Sample = serde_json::from_str(&stripped).unwrap();
        assert!(back.health.is_none());
    }

    #[test]
    fn phases_ride_the_sampler_once_profiled() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_profile(1), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        let s = sampler.sample_after(0.0);
        // The baseline sample's own Export span is recorded *after*
        // the profile snapshot was taken, so the first sample may or
        // may not carry phases; what matters is that real work shows.
        drop(s);
        let h = registry.handle(0);
        {
            let _g = h.phase(Phase::Ingest);
            let h2 = registry.handle(0);
            let _c = h2.phase(Phase::ConstraintCheck);
        }
        let s = sampler.sample_after(1.0);
        let phases = s.phases.clone().expect("phases attached");
        let shard0 = &phases.shards[0];
        let calls = |stats: &[crate::profile::PhaseStat], p: Phase| {
            stats
                .iter()
                .find(|s| s.phase == p.name())
                .map(|s| s.calls)
                .unwrap_or(0)
        };
        assert_eq!(calls(&shard0.cumulative, Phase::Ingest), 1);
        assert_eq!(calls(&shard0.cumulative, Phase::ConstraintCheck), 1);
        // The sampler's own export guard landed on the last slot.
        assert!(calls(&phases.cumulative_total, Phase::Export) >= 1);
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
        assert!(s.phases.is_none(), "profile off ⇒ no phases block");
    }

    #[test]
    fn build_info_is_opt_in_and_round_trips() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        assert!(sampler.sample_after(0.0).build.is_none());

        let build = BuildInfo {
            commit: "abc1234".into(),
            host: "bench-host".into(),
        };
        let mut sampler = Sampler::new(registry).with_build_info(build.clone());
        let s = sampler.sample_after(0.0);
        assert_eq!(s.build.as_ref(), Some(&build));
        let json = serde_json::to_string(&s).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back.build, Some(build));
    }

    #[test]
    fn build_info_collect_never_fails() {
        let b = BuildInfo::collect();
        assert!(!b.commit.is_empty());
        assert!(!b.host.is_empty());
    }

    #[test]
    fn pre_phase_samples_still_deserialize() {
        // A Sample dumped before the profiler/build fields existed has
        // no "phases"/"build" keys; both tolerate absence as None.
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let mut sampler = Sampler::new(registry);
        let s = sampler.sample_after(0.0);
        let json = serde_json::to_string(&s).unwrap();
        let stripped = json
            .replacen(",\"phases\":null", "", 1)
            .replacen(",\"build\":null", "", 1);
        assert_ne!(stripped, json, "fixture actually dropped the fields");
        let back: Sample = serde_json::from_str(&stripped).unwrap();
        assert!(back.phases.is_none());
        assert!(back.build.is_none());
    }

    #[test]
    fn tail_rides_the_sampler_once_recorded() {
        use crate::tail::{ContextSpan, TailOutcome};
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_tail(true), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        let s = sampler.sample_after(0.0);
        assert!(s.tail.is_none(), "nothing recorded yet");

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
            3,
            LogicalTime::new(9),
        );
        let s = sampler.sample_after(1.0);
        let tail = s.tail.clone().expect("tail attached");
        assert_eq!(tail.all.count, 1);
        assert!(tail.all.p99_ns.is_some());
        let json = serde_json::to_string(&s).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
        // The next window starts empty but the cumulative snapshot and
        // its exemplars stay visible.
        let s2 = sampler.sample_after(1.0);
        let tail2 = s2.tail.expect("tail stays attached");
        assert_eq!(tail2.all.count, 0);
        assert_eq!(tail2.snapshot.exemplars().len(), 1);
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
            0,
            LogicalTime::new(1),
        );
        let mut sampler = Sampler::new(registry);
        let s = sampler.sample_after(1.0);
        assert!(s.tail.is_none(), "tail off ⇒ no tail block");
    }

    #[test]
    fn pre_tail_samples_still_deserialize() {
        // A Sample dumped before the tail field existed has no "tail"
        // key; the field tolerates absence as None.
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let mut sampler = Sampler::new(registry);
        let s = sampler.sample_after(0.0);
        let json = serde_json::to_string(&s).unwrap();
        let stripped = json.replacen(",\"tail\":null", "", 1);
        assert_ne!(stripped, json, "fixture actually dropped the field");
        let back: Sample = serde_json::from_str(&stripped).unwrap();
        assert!(back.tail.is_none());
    }

    #[test]
    fn slo_alerts_fire_through_the_sampler_and_land_in_the_trace() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        let engine = SloEngine::from_spec("discard_rate > 0.3 for 2").unwrap();
        let mut sampler = Sampler::new(Arc::clone(&registry)).with_slo(engine);
        let kh = registry.handle(0).kind_handle("location");
        sampler.sample_after(0.0);
        kh.ingested(10);
        kh.discarded(9);
        kh.delivered(1);
        let s = sampler.sample_after(1.0); // first breach: armed
        assert!(s.health.unwrap().alerts.is_empty());
        kh.ingested(10);
        kh.discarded(9);
        kh.delivered(1);
        let s = sampler.sample_after(1.0); // second breach: fires
        let h = s.health.unwrap();
        assert_eq!(h.alerts.len(), 1);
        assert!(h.alerts[0].firing);
        assert_eq!(h.active_alerts.len(), 1);
        assert!(sampler.slo().unwrap().is_firing("discard_rate > 0.3 for 2"));
        let trace = registry.drain();
        assert!(
            trace
                .iter()
                .any(|r| matches!(&r.event, TraceEvent::Alert { firing: true, .. })),
            "the transition rides the trace ring"
        );
    }

    #[test]
    fn sample_round_trips_through_serde() {
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 2);
        registry.handle(0).count(CounterKind::Discards, 2);
        registry.handle(1).observe(MetricKind::QueueDepth, 9);
        let mut sampler = Sampler::new(registry);
        sampler.sample_after(0.0);
        let s = sampler.sample_after(1.5);
        let json = serde_json::to_string(&s).unwrap();
        let back: Sample = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}

#[cfg(test)]
mod delta_proptests {
    //! The satellite property: sampler deltas are non-negative by type
    //! (u64) and **sum-consistent** — summing every window's delta for a
    //! counter reproduces the raw registry counter exactly, even when
    //! the samples were taken while shard writer threads were racing.

    use super::*;
    use crate::registry::ObsConfig;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicBool, Ordering};

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn windowed_deltas_sum_to_the_raw_counters(
            per_writer in proptest::collection::vec(
                proptest::collection::vec((0usize..3, 1u64..50), 1..40),
                1..4,
            ),
            mid_samples in 1usize..4,
        ) {
            let shards = per_writer.len();
            let registry = ObsRegistry::shared(ObsConfig::metrics_only(), shards);
            let mut sampler = Sampler::new(Arc::clone(&registry));
            sampler.sample_after(0.0);
            let mut summed = vec![0u64; COUNTER_KINDS.len()];

            let done = AtomicBool::new(false);
            std::thread::scope(|scope| {
                for (shard, ops) in per_writer.iter().enumerate() {
                    let h = registry.handle(shard);
                    let ops = ops.clone();
                    scope.spawn(move || {
                        for (kind_ix, n) in ops {
                            // Skip the ring-managed kinds: writers bump
                            // the strategy counters the middleware uses.
                            let kind = [
                                CounterKind::Detections,
                                CounterKind::Discards,
                                CounterKind::Ingested,
                            ][kind_ix];
                            h.count(kind, n);
                            h.observe(MetricKind::DeltaSize, n);
                        }
                    });
                }
                // Sample concurrently with the writers: every delta must
                // still be consistent (we only assert the telescoped sum
                // at the end, but each mid-flight sample's deltas feed
                // it, so a lost or double-counted window would show).
                for _ in 0..mid_samples {
                    let s = sampler.sample_after(0.01);
                    for (i, d) in s.total.counter_deltas.iter().enumerate() {
                        summed[i] += d;
                    }
                }
                done.store(true, Ordering::Relaxed);
            });

            // Writers are done; a final sample closes the telescope.
            let s = sampler.sample_after(0.01);
            for (i, d) in s.total.counter_deltas.iter().enumerate() {
                summed[i] += d;
            }
            let agg = registry.snapshot().aggregate();
            for kind in COUNTER_KINDS {
                prop_assert_eq!(
                    summed[kind.index()],
                    agg.counter(kind),
                    "counter {} must telescope", kind.name()
                );
            }
            // The histogram window slices telescope too.
            prop_assert!(done.load(Ordering::Relaxed));
        }
    }
}
