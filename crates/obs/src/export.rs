//! Prometheus text exposition (format v0.0.4) of a [`Sample`].
//!
//! Everything is rendered by hand — no exporter crate — because the
//! format is line-oriented and tiny: `name{labels} value`, preceded by
//! `# TYPE` headers. The renderer is deterministic for a deterministic
//! sample (fixed shard order, fixed kind order, buckets emitted up to
//! the last non-empty bound), which is what lets a golden test pin the
//! entire output of a seeded run.
//!
//! Conventions:
//!
//! * counters: `ctxres_<kind>_total{shard="i"}` plus a windowed
//!   `ctxres_<kind>_per_sec{shard="i"}` gauge (rates cover the interval
//!   since the previous scrape — each scrape advances the sampler);
//! * ring health: `ctxres_trace_events_dropped_total` /
//!   `ctxres_trace_events_buffered`;
//! * histograms: `ctxres_<kind>[_<unit>]` with cumulative `_bucket`
//!   lines (`le` = the power-of-two bounds), `_sum`, `_count`, and
//!   precomputed p50/p95/p99 upper bounds as
//!   `..._quantile_bound{q="…"}` gauges. Kinds nothing has recorded are
//!   omitted to keep the exposition proportional to what actually ran.

use crate::health::HealthSample;
use crate::metrics::{bucket_bound, CounterKind, MetricKind, COUNTER_KINDS, METRIC_KINDS};
use crate::profile::PhaseSample;
use crate::snapshot::{BuildInfo, Sample, QUANTILES};
use crate::tail::{TailSample, TailWindow, TAIL_QUANTILES};
use std::fmt::Write as _;

/// The exposition-format content type, for HTTP responses.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// The exported metric name of a counter kind.
pub fn counter_metric_name(kind: CounterKind) -> String {
    format!("ctxres_{}_total", kind.name())
}

/// The exported base metric name of a histogram kind (unit-suffixed for
/// non-count units, Prometheus style).
pub fn histogram_metric_name(kind: MetricKind) -> String {
    match kind.unit() {
        "count" => format!("ctxres_{}", kind.name()),
        unit => format!("ctxres_{}_{unit}", kind.name()),
    }
}

/// A quantile bound as an exposition value: the overflow bucket has no
/// finite bound, so it exports as `+Inf`.
fn quantile_value(bound: u64) -> String {
    if bound == u64::MAX {
        "+Inf".to_owned()
    } else {
        bound.to_string()
    }
}

/// An interpolated quantile estimate as an exposition value: ranks in
/// the overflow bucket estimate to infinity, exported as `+Inf`.
fn quantile_est_value(est: f64) -> String {
    if est.is_infinite() {
        "+Inf".to_owned()
    } else {
        est.to_string()
    }
}

/// Renders a sample as Prometheus text exposition.
pub fn render_prometheus(sample: &Sample) -> String {
    let mut out = String::new();
    let w = &mut out;

    let _ = writeln!(w, "# ctxres telemetry (Prometheus text exposition v0.0.4)");
    let _ = writeln!(w, "# rates cover the window since the previous scrape");
    let _ = writeln!(w, "# TYPE ctxres_obs_shards gauge");
    let _ = writeln!(w, "ctxres_obs_shards {}", sample.shards.len());
    let _ = writeln!(w, "# TYPE ctxres_scrape_window_seconds gauge");
    let _ = writeln!(w, "ctxres_scrape_window_seconds {}", sample.elapsed_secs);

    for kind in COUNTER_KINDS {
        let name = counter_metric_name(kind);
        let _ = writeln!(w, "# TYPE {name} counter");
        for (i, shard) in sample.snapshot.shards.iter().enumerate() {
            let _ = writeln!(w, "{name}{{shard=\"{i}\"}} {}", shard.counter(kind));
        }
        let rate = format!("ctxres_{}_per_sec", kind.name());
        let _ = writeln!(w, "# TYPE {rate} gauge");
        for rates in &sample.shards {
            let _ = writeln!(
                w,
                "{rate}{{shard=\"{}\"}} {}",
                rates.shard,
                rates.rate(kind)
            );
        }
    }

    let _ = writeln!(w, "# TYPE ctxres_trace_events_dropped_total counter");
    for (i, shard) in sample.snapshot.shards.iter().enumerate() {
        let _ = writeln!(
            w,
            "ctxres_trace_events_dropped_total{{shard=\"{i}\"}} {}",
            shard.events_dropped
        );
    }
    let _ = writeln!(w, "# TYPE ctxres_trace_events_buffered gauge");
    for (i, shard) in sample.snapshot.shards.iter().enumerate() {
        let _ = writeln!(
            w,
            "ctxres_trace_events_buffered{{shard=\"{i}\"}} {}",
            shard.events_buffered
        );
    }

    let aggregate = sample.snapshot.aggregate();
    for kind in METRIC_KINDS {
        if aggregate.histogram(kind).count == 0 {
            continue;
        }
        let name = histogram_metric_name(kind);
        let _ = writeln!(w, "# TYPE {name} histogram");
        for (i, shard) in sample.snapshot.shards.iter().enumerate() {
            let h = shard.histogram(kind);
            let last_nonempty = h.buckets[..h.buckets.len().saturating_sub(1)]
                .iter()
                .rposition(|n| *n > 0);
            let mut cum = 0u64;
            if let Some(last) = last_nonempty {
                for (b, n) in h.buckets[..=last].iter().enumerate() {
                    cum += n;
                    let _ = writeln!(
                        w,
                        "{name}_bucket{{shard=\"{i}\",le=\"{}\"}} {cum}",
                        bucket_bound(b)
                    );
                }
            }
            let _ = writeln!(w, "{name}_bucket{{shard=\"{i}\",le=\"+Inf\"}} {}", h.count);
            let _ = writeln!(w, "{name}_sum{{shard=\"{i}\"}} {}", h.sum);
            let _ = writeln!(w, "{name}_count{{shard=\"{i}\"}} {}", h.count);
        }
        let _ = writeln!(w, "# TYPE {name}_quantile_bound gauge");
        for (i, shard) in sample.snapshot.shards.iter().enumerate() {
            let h = shard.histogram(kind);
            for q in QUANTILES {
                if let Some(bound) = h.quantile_bound(q) {
                    let _ = writeln!(
                        w,
                        "{name}_quantile_bound{{shard=\"{i}\",q=\"{q}\"}} {}",
                        quantile_value(bound)
                    );
                }
            }
        }
        let _ = writeln!(w, "# TYPE {name}_quantile_est gauge");
        for (i, shard) in sample.snapshot.shards.iter().enumerate() {
            let h = shard.histogram(kind);
            for q in QUANTILES {
                if let Some(est) = h.quantile_est(q) {
                    let _ = writeln!(
                        w,
                        "{name}_quantile_est{{shard=\"{i}\",q=\"{q}\"}} {}",
                        quantile_est_value(est)
                    );
                }
            }
        }
    }

    // Health telemetry is rendered only when something published it, so
    // runs without the health hooks export byte-identical text (the
    // golden test above never sees these sections).
    if let Some(health) = &sample.health {
        render_health(w, health);
    }

    // End-to-end tail series render only when the tail layer is on and
    // recorded — pre-tail setups export byte-identical text.
    if let Some(tail) = &sample.tail {
        render_tail(w, tail);
    }

    // Phase-profiler series render only when profiling is on and ran,
    // and the build stamp only when one was attached — both keep the
    // golden exposition byte-identical for pre-profiler setups.
    if let Some(phases) = &sample.phases {
        render_phases(w, phases);
    }
    if let Some(build) = &sample.build {
        render_build_info(w, build);
    }

    out
}

/// Renders the phase-profiler sections: cumulative per-(shard, phase)
/// self/total seconds and call counters (phases that never ran are
/// omitted), per-shard root/sampling/ring counters, and the window's
/// cross-shard self-time share per phase.
fn render_phases(w: &mut String, phases: &PhaseSample) {
    let rows: Vec<_> = phases
        .shards
        .iter()
        .flat_map(|s| {
            s.cumulative
                .iter()
                .filter(|p| p.calls > 0)
                .map(move |p| (s.shard, p))
        })
        .collect();
    if !rows.is_empty() {
        let _ = writeln!(w, "# TYPE ctxres_phase_self_seconds_total counter");
        for (i, p) in &rows {
            let _ = writeln!(
                w,
                "ctxres_phase_self_seconds_total{{shard=\"{i}\",phase=\"{}\"}} {}",
                p.phase,
                p.self_ns as f64 / 1e9
            );
        }
        let _ = writeln!(w, "# TYPE ctxres_phase_total_seconds_total counter");
        for (i, p) in &rows {
            let _ = writeln!(
                w,
                "ctxres_phase_total_seconds_total{{shard=\"{i}\",phase=\"{}\"}} {}",
                p.phase,
                p.total_ns as f64 / 1e9
            );
        }
        let _ = writeln!(w, "# TYPE ctxres_phase_calls_total counter");
        for (i, p) in &rows {
            let _ = writeln!(
                w,
                "ctxres_phase_calls_total{{shard=\"{i}\",phase=\"{}\"}} {}",
                p.phase, p.calls
            );
        }
    }

    let _ = writeln!(w, "# TYPE ctxres_phase_roots_total counter");
    for s in &phases.shards {
        let _ = writeln!(
            w,
            "ctxres_phase_roots_total{{shard=\"{}\"}} {}",
            s.shard, s.roots
        );
    }
    let _ = writeln!(w, "# TYPE ctxres_phase_sampled_roots_total counter");
    for s in &phases.shards {
        let _ = writeln!(
            w,
            "ctxres_phase_sampled_roots_total{{shard=\"{}\"}} {}",
            s.shard, s.sampled_roots
        );
    }
    let _ = writeln!(w, "# TYPE ctxres_phase_spans_dropped_total counter");
    for s in &phases.shards {
        let _ = writeln!(
            w,
            "ctxres_phase_spans_dropped_total{{shard=\"{}\"}} {}",
            s.shard, s.spans_dropped
        );
    }

    let window_self: u64 = phases.window_total.iter().map(|p| p.self_ns).sum();
    if window_self > 0 {
        let _ = writeln!(w, "# TYPE ctxres_phase_self_share gauge");
        for p in phases.window_total.iter().filter(|p| p.calls > 0) {
            let _ = writeln!(
                w,
                "ctxres_phase_self_share{{phase=\"{}\"}} {}",
                p.phase,
                p.self_ns as f64 / window_self as f64
            );
        }
    }
}

/// Renders the end-to-end tail sections: cumulative per-(shard,
/// outcome) latency summaries (microsecond-bucketed), windowed
/// interpolated quantiles per outcome, exemplar-capture counters and
/// thresholds, and the queue wait/service series.
fn render_tail(w: &mut String, tail: &TailSample) {
    let rows: Vec<_> = tail
        .snapshot
        .shards
        .iter()
        .flat_map(|s| {
            s.outcomes
                .iter()
                .filter(|o| o.hist.count > 0)
                .map(move |o| (s.shard, o))
        })
        .collect();
    if !rows.is_empty() {
        let _ = writeln!(w, "# TYPE ctxres_e2e_latency_us histogram");
        for (i, o) in &rows {
            let name = o.outcome.name();
            let _ = writeln!(
                w,
                "ctxres_e2e_latency_us_bucket{{shard=\"{i}\",outcome=\"{name}\",le=\"+Inf\"}} {}",
                o.hist.count
            );
            let _ = writeln!(
                w,
                "ctxres_e2e_latency_us_sum{{shard=\"{i}\",outcome=\"{name}\"}} {}",
                o.hist.sum
            );
            let _ = writeln!(
                w,
                "ctxres_e2e_latency_us_count{{shard=\"{i}\",outcome=\"{name}\"}} {}",
                o.hist.count
            );
        }
    }

    // Windowed interpolated quantiles, per outcome and across all.
    let quantiles = |win: &TailWindow| {
        [
            (TAIL_QUANTILES[0], win.p50_ns),
            (TAIL_QUANTILES[1], win.p95_ns),
            (TAIL_QUANTILES[2], win.p99_ns),
            (TAIL_QUANTILES[3], win.p999_ns),
        ]
    };
    let windows: Vec<(&str, &TailWindow)> = tail
        .outcomes
        .iter()
        .filter(|o| o.window.count > 0)
        .map(|o| (o.outcome.name(), &o.window))
        .chain((tail.all.count > 0).then_some(("all", &tail.all)))
        .collect();
    if !windows.is_empty() {
        let _ = writeln!(w, "# TYPE ctxres_e2e_window_quantile_ns gauge");
        for (name, win) in &windows {
            for (q, v) in quantiles(win) {
                if let Some(v) = v {
                    let _ = writeln!(
                        w,
                        "ctxres_e2e_window_quantile_ns{{outcome=\"{name}\",q=\"{q}\"}} {v}"
                    );
                }
            }
        }
    }

    let capturing: Vec<_> = tail
        .snapshot
        .shards
        .iter()
        .filter(|s| s.captured > 0)
        .collect();
    if !capturing.is_empty() {
        let _ = writeln!(w, "# TYPE ctxres_e2e_exemplars_captured_total counter");
        for s in &capturing {
            let _ = writeln!(
                w,
                "ctxres_e2e_exemplars_captured_total{{shard=\"{}\"}} {}",
                s.shard, s.captured
            );
        }
        let _ = writeln!(w, "# TYPE ctxres_e2e_capture_threshold_ns gauge");
        for s in &capturing {
            let v = if s.threshold_ns == u64::MAX {
                "+Inf".to_owned()
            } else {
                s.threshold_ns.to_string()
            };
            let _ = writeln!(
                w,
                "ctxres_e2e_capture_threshold_ns{{shard=\"{}\"}} {v}",
                s.shard
            );
        }
    }

    let queued: Vec<_> = tail
        .snapshot
        .shards
        .iter()
        .filter(|s| !s.queue.is_empty())
        .collect();
    if !queued.is_empty() {
        let _ = writeln!(w, "# TYPE ctxres_queue_wait_seconds_total counter");
        for s in &queued {
            let _ = writeln!(
                w,
                "ctxres_queue_wait_seconds_total{{shard=\"{}\"}} {}",
                s.shard,
                s.queue.wait_ns as f64 / 1e9
            );
        }
        let _ = writeln!(w, "# TYPE ctxres_queue_service_seconds_total counter");
        for s in &queued {
            let _ = writeln!(
                w,
                "ctxres_queue_service_seconds_total{{shard=\"{}\"}} {}",
                s.shard,
                s.queue.service_ns as f64 / 1e9
            );
        }
        if let Some(share) = tail.queue.wait_share {
            let _ = writeln!(w, "# TYPE ctxres_queue_wait_share gauge");
            let _ = writeln!(w, "ctxres_queue_wait_share {share}");
        }
    }
}

/// Renders the build identity gauge (constant 1; identity rides the
/// labels, the standard `*_build_info` convention).
fn render_build_info(w: &mut String, build: &BuildInfo) {
    let escape = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
    let _ = writeln!(w, "# TYPE ctxres_build_info gauge");
    let _ = writeln!(
        w,
        "ctxres_build_info{{commit=\"{}\",host=\"{}\"}} 1",
        escape(&build.commit),
        escape(&build.host)
    );
}

/// Renders the health sections: arena gauges per shard, cumulative
/// per-(shard, kind) quality counters, windowed cross-shard estimators,
/// and the currently firing SLO rules.
fn render_health(w: &mut String, health: &HealthSample) {
    let shards_with_pool: Vec<_> = health
        .snapshot
        .shards
        .iter()
        .filter_map(|s| s.pool.map(|p| (s.shard, p)))
        .collect();
    if !shards_with_pool.is_empty() {
        let _ = writeln!(w, "# TYPE ctxres_pool_live_slots gauge");
        for (i, p) in &shards_with_pool {
            let _ = writeln!(
                w,
                "ctxres_pool_live_slots{{shard=\"{i}\"}} {}",
                p.live_slots
            );
        }
        let _ = writeln!(w, "# TYPE ctxres_pool_free_slots gauge");
        for (i, p) in &shards_with_pool {
            let _ = writeln!(
                w,
                "ctxres_pool_free_slots{{shard=\"{i}\"}} {}",
                p.free_slots
            );
        }
        let _ = writeln!(w, "# TYPE ctxres_pool_generation_recycles_total counter");
        for (i, p) in &shards_with_pool {
            let _ = writeln!(
                w,
                "ctxres_pool_generation_recycles_total{{shard=\"{i}\"}} {}",
                p.recycles
            );
        }
    }

    let kind_rows: Vec<_> = health
        .snapshot
        .shards
        .iter()
        .flat_map(|s| s.kinds.iter().map(move |k| (s.shard, k)))
        .collect();
    if !kind_rows.is_empty() {
        for (field, get) in [
            (
                "ingested",
                &(|k: &crate::health::KindHealth| k.ingested) as &dyn Fn(_) -> u64,
            ),
            ("delivered", &|k: &crate::health::KindHealth| k.delivered),
            ("discarded", &|k: &crate::health::KindHealth| k.discarded),
            ("expired", &|k: &crate::health::KindHealth| k.expired),
            ("violations", &|k: &crate::health::KindHealth| k.violations),
        ] {
            let _ = writeln!(w, "# TYPE ctxres_health_{field}_total counter");
            for (i, k) in &kind_rows {
                let _ = writeln!(
                    w,
                    "ctxres_health_{field}_total{{shard=\"{i}\",kind=\"{}\"}} {}",
                    k.kind,
                    get(k)
                );
            }
        }
        let _ = writeln!(w, "# TYPE ctxres_health_kind_live gauge");
        for (i, k) in &kind_rows {
            let _ = writeln!(
                w,
                "ctxres_health_kind_live{{shard=\"{i}\",kind=\"{}\"}} {}",
                k.kind, k.live
            );
        }
    }

    // Windowed cross-shard estimators: one row per kind, rendered only
    // when the window defined them (no traffic, no line).
    for (metric, get) in [
        (
            "discard_rate",
            &(|k: &crate::health::KindQuality| k.discard_rate) as &dyn Fn(_) -> Option<f64>,
        ),
        ("violation_rate", &|k: &crate::health::KindQuality| {
            k.violation_rate
        }),
        ("use_rate", &|k: &crate::health::KindQuality| k.use_rate),
        ("use_rate_ewma", &|k: &crate::health::KindQuality| {
            k.use_rate_ewma
        }),
        ("staleness", &|k: &crate::health::KindQuality| k.staleness),
    ] {
        let rows: Vec<_> = health
            .kinds
            .iter()
            .filter_map(|k| get(k).map(|v| (&k.kind, v)))
            .collect();
        if rows.is_empty() {
            continue;
        }
        let _ = writeln!(w, "# TYPE ctxres_health_{metric} gauge");
        for (kind, v) in rows {
            let _ = writeln!(w, "ctxres_health_{metric}{{kind=\"{kind}\"}} {v}");
        }
    }
    let ages: Vec<_> = health
        .kinds
        .iter()
        .filter_map(|k| k.oldest_age_ticks.map(|v| (&k.kind, v)))
        .collect();
    if !ages.is_empty() {
        let _ = writeln!(w, "# TYPE ctxres_health_oldest_age_ticks gauge");
        for (kind, v) in ages {
            let _ = writeln!(w, "ctxres_health_oldest_age_ticks{{kind=\"{kind}\"}} {v}");
        }
    }

    if !health.active_alerts.is_empty() {
        let _ = writeln!(w, "# TYPE ctxres_slo_firing gauge");
        for rule in &health.active_alerts {
            let escaped = rule.replace('\\', "\\\\").replace('"', "\\\"");
            let _ = writeln!(w, "ctxres_slo_firing{{rule=\"{escaped}\"}} 1");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::{ObsConfig, ObsRegistry};
    use crate::snapshot::Sampler;
    use std::sync::Arc;

    /// A small deterministic registry: two shards, seeded counters, one
    /// histogram with known observations.
    fn seeded_sample() -> Sample {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        sampler.sample_after(0.0);
        let a = registry.handle(0);
        let b = registry.handle(1);
        a.count(CounterKind::Ingested, 40);
        a.count(CounterKind::Deliveries, 30);
        a.count(CounterKind::Discards, 10);
        a.count(CounterKind::Detections, 12);
        b.count(CounterKind::Ingested, 20);
        a.observe(MetricKind::DeltaSize, 1);
        a.observe(MetricKind::DeltaSize, 3);
        a.observe(MetricKind::DeltaSize, 100);
        b.observe(MetricKind::QueueDepth, 7);
        sampler.sample_after(2.0)
    }

    /// The golden test: the full exposition of the seeded run, pinned
    /// byte for byte. If you change the export format, update this
    /// string *deliberately* — scrapers and the CI artifact diff on it.
    #[test]
    fn golden_exposition_for_a_seeded_run() {
        let text = render_prometheus(&seeded_sample());
        let expected = "\
# ctxres telemetry (Prometheus text exposition v0.0.4)
# rates cover the window since the previous scrape
# TYPE ctxres_obs_shards gauge
ctxres_obs_shards 2
# TYPE ctxres_scrape_window_seconds gauge
ctxres_scrape_window_seconds 2
# TYPE ctxres_events_recorded_total counter
ctxres_events_recorded_total{shard=\"0\"} 0
ctxres_events_recorded_total{shard=\"1\"} 0
# TYPE ctxres_events_recorded_per_sec gauge
ctxres_events_recorded_per_sec{shard=\"0\"} 0
ctxres_events_recorded_per_sec{shard=\"1\"} 0
# TYPE ctxres_events_dropped_total counter
ctxres_events_dropped_total{shard=\"0\"} 0
ctxres_events_dropped_total{shard=\"1\"} 0
# TYPE ctxres_events_dropped_per_sec gauge
ctxres_events_dropped_per_sec{shard=\"0\"} 0
ctxres_events_dropped_per_sec{shard=\"1\"} 0
# TYPE ctxres_detections_total counter
ctxres_detections_total{shard=\"0\"} 12
ctxres_detections_total{shard=\"1\"} 0
# TYPE ctxres_detections_per_sec gauge
ctxres_detections_per_sec{shard=\"0\"} 6
ctxres_detections_per_sec{shard=\"1\"} 0
# TYPE ctxres_discards_total counter
ctxres_discards_total{shard=\"0\"} 10
ctxres_discards_total{shard=\"1\"} 0
# TYPE ctxres_discards_per_sec gauge
ctxres_discards_per_sec{shard=\"0\"} 5
ctxres_discards_per_sec{shard=\"1\"} 0
# TYPE ctxres_deliveries_total counter
ctxres_deliveries_total{shard=\"0\"} 30
ctxres_deliveries_total{shard=\"1\"} 0
# TYPE ctxres_deliveries_per_sec gauge
ctxres_deliveries_per_sec{shard=\"0\"} 15
ctxres_deliveries_per_sec{shard=\"1\"} 0
# TYPE ctxres_ingested_total counter
ctxres_ingested_total{shard=\"0\"} 40
ctxres_ingested_total{shard=\"1\"} 20
# TYPE ctxres_ingested_per_sec gauge
ctxres_ingested_per_sec{shard=\"0\"} 20
ctxres_ingested_per_sec{shard=\"1\"} 10
# TYPE ctxres_situation_evals_total counter
ctxres_situation_evals_total{shard=\"0\"} 0
ctxres_situation_evals_total{shard=\"1\"} 0
# TYPE ctxres_situation_evals_per_sec gauge
ctxres_situation_evals_per_sec{shard=\"0\"} 0
ctxres_situation_evals_per_sec{shard=\"1\"} 0
# TYPE ctxres_compiled_evals_total counter
ctxres_compiled_evals_total{shard=\"0\"} 0
ctxres_compiled_evals_total{shard=\"1\"} 0
# TYPE ctxres_compiled_evals_per_sec gauge
ctxres_compiled_evals_per_sec{shard=\"0\"} 0
ctxres_compiled_evals_per_sec{shard=\"1\"} 0
# TYPE ctxres_seq_fallbacks_total counter
ctxres_seq_fallbacks_total{shard=\"0\"} 0
ctxres_seq_fallbacks_total{shard=\"1\"} 0
# TYPE ctxres_seq_fallbacks_per_sec gauge
ctxres_seq_fallbacks_per_sec{shard=\"0\"} 0
ctxres_seq_fallbacks_per_sec{shard=\"1\"} 0
# TYPE ctxres_prov_edges_total counter
ctxres_prov_edges_total{shard=\"0\"} 0
ctxres_prov_edges_total{shard=\"1\"} 0
# TYPE ctxres_prov_edges_per_sec gauge
ctxres_prov_edges_per_sec{shard=\"0\"} 0
ctxres_prov_edges_per_sec{shard=\"1\"} 0
# TYPE ctxres_prov_nodes_total counter
ctxres_prov_nodes_total{shard=\"0\"} 0
ctxres_prov_nodes_total{shard=\"1\"} 0
# TYPE ctxres_prov_nodes_per_sec gauge
ctxres_prov_nodes_per_sec{shard=\"0\"} 0
ctxres_prov_nodes_per_sec{shard=\"1\"} 0
# TYPE ctxres_trace_events_dropped_total counter
ctxres_trace_events_dropped_total{shard=\"0\"} 0
ctxres_trace_events_dropped_total{shard=\"1\"} 0
# TYPE ctxres_trace_events_buffered gauge
ctxres_trace_events_buffered{shard=\"0\"} 0
ctxres_trace_events_buffered{shard=\"1\"} 0
# TYPE ctxres_delta_size histogram
ctxres_delta_size_bucket{shard=\"0\",le=\"1\"} 1
ctxres_delta_size_bucket{shard=\"0\",le=\"2\"} 1
ctxres_delta_size_bucket{shard=\"0\",le=\"4\"} 2
ctxres_delta_size_bucket{shard=\"0\",le=\"8\"} 2
ctxres_delta_size_bucket{shard=\"0\",le=\"16\"} 2
ctxres_delta_size_bucket{shard=\"0\",le=\"32\"} 2
ctxres_delta_size_bucket{shard=\"0\",le=\"64\"} 2
ctxres_delta_size_bucket{shard=\"0\",le=\"128\"} 3
ctxres_delta_size_bucket{shard=\"0\",le=\"+Inf\"} 3
ctxres_delta_size_sum{shard=\"0\"} 104
ctxres_delta_size_count{shard=\"0\"} 3
ctxres_delta_size_bucket{shard=\"1\",le=\"+Inf\"} 0
ctxres_delta_size_sum{shard=\"1\"} 0
ctxres_delta_size_count{shard=\"1\"} 0
# TYPE ctxres_delta_size_quantile_bound gauge
ctxres_delta_size_quantile_bound{shard=\"0\",q=\"0.5\"} 4
ctxres_delta_size_quantile_bound{shard=\"0\",q=\"0.95\"} 128
ctxres_delta_size_quantile_bound{shard=\"0\",q=\"0.99\"} 128
# TYPE ctxres_delta_size_quantile_est gauge
ctxres_delta_size_quantile_est{shard=\"0\",q=\"0.5\"} 4
ctxres_delta_size_quantile_est{shard=\"0\",q=\"0.95\"} 128
ctxres_delta_size_quantile_est{shard=\"0\",q=\"0.99\"} 128
# TYPE ctxres_queue_depth histogram
ctxres_queue_depth_bucket{shard=\"0\",le=\"+Inf\"} 0
ctxres_queue_depth_sum{shard=\"0\"} 0
ctxres_queue_depth_count{shard=\"0\"} 0
ctxres_queue_depth_bucket{shard=\"1\",le=\"1\"} 0
ctxres_queue_depth_bucket{shard=\"1\",le=\"2\"} 0
ctxres_queue_depth_bucket{shard=\"1\",le=\"4\"} 0
ctxres_queue_depth_bucket{shard=\"1\",le=\"8\"} 1
ctxres_queue_depth_bucket{shard=\"1\",le=\"+Inf\"} 1
ctxres_queue_depth_sum{shard=\"1\"} 7
ctxres_queue_depth_count{shard=\"1\"} 1
# TYPE ctxres_queue_depth_quantile_bound gauge
ctxres_queue_depth_quantile_bound{shard=\"1\",q=\"0.5\"} 8
ctxres_queue_depth_quantile_bound{shard=\"1\",q=\"0.95\"} 8
ctxres_queue_depth_quantile_bound{shard=\"1\",q=\"0.99\"} 8
# TYPE ctxres_queue_depth_quantile_est gauge
ctxres_queue_depth_quantile_est{shard=\"1\",q=\"0.5\"} 8
ctxres_queue_depth_quantile_est{shard=\"1\",q=\"0.95\"} 8
ctxres_queue_depth_quantile_est{shard=\"1\",q=\"0.99\"} 8
";
        assert_eq!(text, expected, "exposition drifted from the golden copy");
    }

    /// Like [`seeded_sample`] but with health telemetry published and a
    /// breaching SLO rule attached, so every health section renders.
    fn seeded_health_sample() -> Sample {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 2);
        let engine = crate::slo::SloEngine::from_spec("discard_rate > 0.3 for 1").unwrap();
        let mut sampler = Sampler::new(Arc::clone(&registry)).with_slo(engine);
        let a = registry.handle(0);
        let b = registry.handle(1);
        let rfid = a.kind_handle("rfid");
        rfid.ingested(10);
        rfid.delivered(4);
        rfid.discarded(6);
        rfid.violations(2);
        rfid.set_watermark(3, Some(40), Some(64));
        let loc = b.kind_handle("location");
        loc.ingested(8);
        loc.delivered(8);
        a.publish_pool(12, 4, 5, 100);
        b.publish_pool(9, 7, 2, 100);
        sampler.sample_after(0.0);
        rfid.ingested(10);
        rfid.discarded(6);
        rfid.delivered(4);
        sampler.sample_after(2.0)
    }

    /// The health sections only appear once something published health
    /// telemetry, and then carry the arena gauges, per-kind quality
    /// counters, windowed estimators, and firing SLO rules.
    #[test]
    fn health_sections_render_only_when_published() {
        let plain = render_prometheus(&seeded_sample());
        assert!(
            !plain.contains("ctxres_pool_live_slots"),
            "unpublished health must not render"
        );

        let text = render_prometheus(&seeded_health_sample());
        for needle in [
            "ctxres_pool_live_slots{shard=\"0\"} 12",
            "ctxres_pool_free_slots{shard=\"1\"} 7",
            "ctxres_pool_generation_recycles_total{shard=\"0\"} 5",
            "ctxres_health_ingested_total{shard=\"0\",kind=\"rfid\"} 20",
            "ctxres_health_delivered_total{shard=\"1\",kind=\"location\"} 8",
            "ctxres_health_kind_live{shard=\"0\",kind=\"rfid\"} 3",
            "ctxres_health_discard_rate{kind=\"rfid\"} 0.6",
            "ctxres_health_use_rate{kind=\"rfid\"} 0.4",
            "ctxres_health_use_rate_ewma{kind=\"location\"} 1",
            "ctxres_health_staleness{kind=\"rfid\"} 0.625",
            "ctxres_health_oldest_age_ticks{kind=\"rfid\"} 40",
            "ctxres_slo_firing{rule=\"discard_rate > 0.3 for 1\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    /// Health lines obey the same exposition rules as the core metrics.
    #[test]
    fn health_lines_are_valid_exposition() {
        assert_valid_exposition(&render_prometheus(&seeded_health_sample()));
    }

    /// Like [`seeded_sample`] but with profiling on, phases run, and a
    /// build stamp attached, so every new section renders.
    fn seeded_profiled_sample() -> Sample {
        use crate::profile::Phase;
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_profile(1), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry)).with_build_info(crate::BuildInfo {
            commit: "abc1234".into(),
            host: "bench\"host\"".into(),
        });
        sampler.sample_after(0.0);
        let h = registry.handle(0);
        {
            let _root = h.phase(Phase::Ingest);
            let h2 = registry.handle(0);
            let _child = h2.phase(Phase::ConstraintCheck);
        }
        sampler.sample_after(2.0)
    }

    /// The phase/build sections only appear once profiling ran / a
    /// stamp was attached, and then carry per-(shard, phase) series,
    /// sampling counters, windowed shares, and the identity gauge.
    #[test]
    fn phase_and_build_sections_render_only_when_present() {
        let plain = render_prometheus(&seeded_sample());
        assert!(!plain.contains("ctxres_phase_"), "no profiling, no phases");
        assert!(!plain.contains("ctxres_build_info"), "no stamp, no gauge");

        let text = render_prometheus(&seeded_profiled_sample());
        for needle in [
            "ctxres_phase_self_seconds_total{shard=\"0\",phase=\"ingest\"}",
            "ctxres_phase_total_seconds_total{shard=\"0\",phase=\"constraint_check\"}",
            "ctxres_phase_calls_total{shard=\"0\",phase=\"ingest\"} 1",
            "ctxres_phase_roots_total{shard=\"0\"} 1",
            "ctxres_phase_sampled_roots_total{shard=\"0\"} 1",
            "ctxres_phase_spans_dropped_total{shard=\"1\"} 0",
            "ctxres_phase_self_share{phase=\"ingest\"}",
            "ctxres_build_info{commit=\"abc1234\",host=\"bench\\\"host\\\"\"} 1",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    /// Phase/build lines obey the exposition rules too.
    #[test]
    fn phase_lines_are_valid_exposition() {
        assert_valid_exposition(&render_prometheus(&seeded_profiled_sample()));
    }

    /// Like [`seeded_sample`] but with the tail layer on and spans and
    /// queue timings recorded, so every tail section renders.
    fn seeded_tail_sample() -> Sample {
        use crate::tail::{ContextSpan, TailOutcome};
        use ctxres_context::{ContextId, LogicalTime};
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_tail(true), 2);
        let mut sampler = Sampler::new(Arc::clone(&registry));
        sampler.sample_after(0.0);
        let a = registry.handle(0);
        for (i, total_us) in [(1u64, 50u64), (2, 100), (3, 4000)] {
            a.record_e2e(
                ContextId::from_raw(i),
                TailOutcome::Delivered,
                ContextSpan {
                    ingress_ns: 0,
                    verdict_ns: total_us * 400,
                    decision_ns: total_us * 600,
                    end_ns: total_us * 1000,
                },
                0,
                LogicalTime::new(i),
            );
        }
        let b = registry.handle(1);
        b.record_queue_wait(3_000_000);
        b.record_queue_service(9_000_000);
        sampler.sample_after(2.0)
    }

    /// The tail sections only appear once the tail layer recorded, and
    /// then carry the per-outcome latency series, windowed quantiles,
    /// exemplar counters, and the queue decomposition.
    #[test]
    fn tail_sections_render_only_when_recorded() {
        let plain = render_prometheus(&seeded_sample());
        assert!(!plain.contains("ctxres_e2e_"), "tail off, no e2e series");
        assert!(
            !plain.contains("ctxres_queue_wait"),
            "tail off, no queue series"
        );

        let text = render_prometheus(&seeded_tail_sample());
        for needle in [
            "ctxres_e2e_latency_us_count{shard=\"0\",outcome=\"delivered\"} 3",
            "ctxres_e2e_latency_us_sum{shard=\"0\",outcome=\"delivered\"} 4150",
            "ctxres_e2e_window_quantile_ns{outcome=\"delivered\",q=\"0.5\"}",
            "ctxres_e2e_window_quantile_ns{outcome=\"all\",q=\"0.99\"}",
            "ctxres_e2e_exemplars_captured_total{shard=\"0\"} 3",
            "ctxres_e2e_capture_threshold_ns{shard=\"0\"}",
            "ctxres_queue_wait_seconds_total{shard=\"1\"} 0.003",
            "ctxres_queue_service_seconds_total{shard=\"1\"} 0.009",
            "ctxres_queue_wait_share 0.25",
        ] {
            assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
        }
    }

    /// Tail lines obey the exposition rules too.
    #[test]
    fn tail_lines_are_valid_exposition() {
        assert_valid_exposition(&render_prometheus(&seeded_tail_sample()));
    }

    /// Every non-comment line must parse as `name{labels} value` (or a
    /// bare `name value`), with a numeric (or ±Inf) value.
    #[test]
    fn every_line_is_valid_exposition() {
        assert_valid_exposition(&render_prometheus(&seeded_sample()));
    }

    fn assert_valid_exposition(text: &str) {
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (series, value) = line.rsplit_once(' ').expect("name value");
            assert!(
                value == "+Inf" || value.parse::<f64>().is_ok(),
                "bad value in {line:?}"
            );
            let name = series.split('{').next().unwrap();
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
            assert!(name.starts_with("ctxres_"), "unprefixed metric {line:?}");
            if let Some(rest) = series.strip_prefix(name) {
                if !rest.is_empty() {
                    assert!(
                        rest.starts_with('{') && rest.ends_with('}'),
                        "bad label block in {line:?}"
                    );
                }
            }
        }
    }

    /// Cumulative `_bucket` lines are monotone and end at `_count`.
    #[test]
    fn histogram_buckets_are_cumulative() {
        let text = render_prometheus(&seeded_sample());
        let bucket_values: Vec<u64> = text
            .lines()
            .filter(|l| l.starts_with("ctxres_delta_size_bucket{shard=\"0\""))
            .map(|l| l.rsplit_once(' ').unwrap().1.parse().unwrap())
            .collect();
        assert!(!bucket_values.is_empty());
        assert!(
            bucket_values.windows(2).all(|w| w[0] <= w[1]),
            "{bucket_values:?}"
        );
        assert_eq!(*bucket_values.last().unwrap(), 3, "le=+Inf equals count");
    }

    #[test]
    fn metric_names_are_unit_suffixed() {
        assert_eq!(
            histogram_metric_name(MetricKind::CheckLatency),
            "ctxres_check_latency_ns"
        );
        assert_eq!(
            histogram_metric_name(MetricKind::UseResidualDelay),
            "ctxres_use_residual_delay_ticks"
        );
        assert_eq!(
            histogram_metric_name(MetricKind::QueueDepth),
            "ctxres_queue_depth"
        );
        assert_eq!(
            counter_metric_name(CounterKind::Ingested),
            "ctxres_ingested_total"
        );
    }
}
