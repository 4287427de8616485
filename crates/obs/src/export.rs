//! Prometheus text exposition (format v0.0.4) of a [`Sample`].
//!
//! One renderer for every layer: [`render_prometheus`] walks the
//! declared [`families`] in order and writes each family's series the
//! same way — a `# TYPE` header, then `name{labels} value` lines, with
//! histograms expanded into cumulative `_bucket` lines (`le` = the
//! power-of-two bounds, up to the last non-empty one), `_sum` and
//! `_count`. Every label value is escaped as the text format requires,
//! counters render divided by their family's scale, and non-finite
//! readings render as `+Inf`/`-Inf`/`NaN`. A family without series — or
//! a histogram family nothing has recorded into — is omitted, which
//! keeps the exposition proportional to what actually ran. The output
//! is deterministic for a deterministic sample, which is what lets a
//! golden test pin it.

use crate::metrics::bucket_bound;
use crate::snapshot::{fmt_f64, Family, MetricType, Reading, Sample, Series, Value};
use std::collections::HashMap;
use std::fmt::Write as _;

/// The exposition-format content type, for HTTP responses.
pub const PROMETHEUS_CONTENT_TYPE: &str = "text/plain; version=0.0.4";

/// Every layer's families, in exposition order: core counters, ring
/// and histograms, then health, SLO, tail, profiler and build identity.
pub fn families() -> Vec<Family> {
    let mut out = crate::metrics::families();
    out.extend(crate::health::families());
    out.push(crate::slo::SLO_FIRING);
    out.extend(crate::tail::families());
    out.extend(crate::profile::families());
    out.push(crate::snapshot::BUILD_INFO);
    out
}

/// Renders a sample as Prometheus text exposition.
pub fn render_prometheus(sample: &Sample) -> String {
    let mut by_family: HashMap<&str, Vec<&Series>> = HashMap::new();
    for s in sample.iter() {
        by_family.entry(&s.family).or_default().push(s);
    }
    let mut out = String::from(
        "# ctxres telemetry (Prometheus text exposition v0.0.4)\n\
         # rates cover the window since the previous scrape\n",
    );
    for family in families() {
        let Some(series) = by_family.get(family.name) else {
            continue;
        };
        let recorded = |s: &&Series| s.value.histogram().is_some_and(|h| h.count > 0);
        if family.kind == MetricType::Histogram && !series.iter().any(recorded) {
            continue;
        }
        let _ = writeln!(out, "# TYPE {} {}", family.name, family.kind.name());
        for s in series {
            write_series(&mut out, &family, s);
        }
    }
    out
}

/// Writes one series' line(s).
fn write_series(out: &mut String, family: &Family, s: &Series) {
    let name = &family.name;
    let labels = |le: Option<&str>| label_block(&s.labels, le);
    match &s.value {
        Value::Counter(n) if family.scale == 1.0 => {
            let _ = writeln!(out, "{name}{} {n}", labels(None));
        }
        Value::Counter(n) => {
            let _ = writeln!(
                out,
                "{name}{} {}",
                labels(None),
                fmt_f64(*n as f64 / family.scale)
            );
        }
        Value::Gauge(Reading(x)) => {
            let _ = writeln!(out, "{name}{} {}", labels(None), fmt_f64(x / family.scale));
        }
        Value::Histogram(h) => {
            let finite = &h.buckets[..h.buckets.len().saturating_sub(1)];
            let last = finite.iter().rposition(|n| *n > 0).map_or(0, |i| i + 1);
            let mut cum = 0u64;
            for (b, n) in finite[..last].iter().enumerate() {
                cum += n;
                let le = bucket_bound(b).to_string();
                let _ = writeln!(out, "{name}_bucket{} {cum}", labels(Some(&le)));
            }
            let _ = writeln!(out, "{name}_bucket{} {}", labels(Some("+Inf")), h.count);
            let _ = writeln!(out, "{name}_sum{} {}", labels(None), h.sum);
            let _ = writeln!(out, "{name}_count{} {}", labels(None), h.count);
        }
    }
}

/// `{k="v",...}` (empty for no labels), `le` appended when given. Label
/// values are escaped as the text format requires: `\` → `\\`, `"` →
/// `\"`, newline → `\n`.
fn label_block(labels: &[(String, String)], le: Option<&str>) -> String {
    let pairs: Vec<String> = labels
        .iter()
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .chain(le.map(|le| ("le", le)))
        .map(|(k, v)| {
            let v = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("{k}=\"{v}\"")
        })
        .collect();
    if pairs.is_empty() {
        String::new()
    } else {
        format!("{{{}}}", pairs.join(","))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{CounterKind, MetricKind};
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

    /// The full exposition of the health-bearing seeded run, pinned
    /// byte for byte like [`golden_exposition_for_a_seeded_run`].
    #[test]
    fn golden_exposition_for_a_seeded_health_run() {
        let text = render_prometheus(&seeded_health_sample());
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
# TYPE ctxres_detections_total counter
ctxres_detections_total{shard=\"0\"} 0
ctxres_detections_total{shard=\"1\"} 0
# TYPE ctxres_detections_per_sec gauge
ctxres_detections_per_sec{shard=\"0\"} 0
ctxres_detections_per_sec{shard=\"1\"} 0
# TYPE ctxres_discards_total counter
ctxres_discards_total{shard=\"0\"} 0
ctxres_discards_total{shard=\"1\"} 0
# TYPE ctxres_discards_per_sec gauge
ctxres_discards_per_sec{shard=\"0\"} 0
ctxres_discards_per_sec{shard=\"1\"} 0
# TYPE ctxres_deliveries_total counter
ctxres_deliveries_total{shard=\"0\"} 0
ctxres_deliveries_total{shard=\"1\"} 0
# TYPE ctxres_deliveries_per_sec gauge
ctxres_deliveries_per_sec{shard=\"0\"} 0
ctxres_deliveries_per_sec{shard=\"1\"} 0
# TYPE ctxres_ingested_total counter
ctxres_ingested_total{shard=\"0\"} 0
ctxres_ingested_total{shard=\"1\"} 0
# TYPE ctxres_ingested_per_sec gauge
ctxres_ingested_per_sec{shard=\"0\"} 0
ctxres_ingested_per_sec{shard=\"1\"} 0
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
# TYPE ctxres_pool_live_slots gauge
ctxres_pool_live_slots{shard=\"0\"} 12
ctxres_pool_live_slots{shard=\"1\"} 9
# TYPE ctxres_pool_free_slots gauge
ctxres_pool_free_slots{shard=\"0\"} 4
ctxres_pool_free_slots{shard=\"1\"} 7
# TYPE ctxres_pool_generation_recycles_total counter
ctxres_pool_generation_recycles_total{shard=\"0\"} 5
ctxres_pool_generation_recycles_total{shard=\"1\"} 2
# TYPE ctxres_pool_occupancy gauge
ctxres_pool_occupancy 0.65625
# TYPE ctxres_health_ingested_total counter
ctxres_health_ingested_total{shard=\"0\",kind=\"rfid\"} 20
ctxres_health_ingested_total{shard=\"1\",kind=\"location\"} 8
# TYPE ctxres_health_delivered_total counter
ctxres_health_delivered_total{shard=\"0\",kind=\"rfid\"} 8
ctxres_health_delivered_total{shard=\"1\",kind=\"location\"} 8
# TYPE ctxres_health_discarded_total counter
ctxres_health_discarded_total{shard=\"0\",kind=\"rfid\"} 12
ctxres_health_discarded_total{shard=\"1\",kind=\"location\"} 0
# TYPE ctxres_health_expired_total counter
ctxres_health_expired_total{shard=\"0\",kind=\"rfid\"} 0
ctxres_health_expired_total{shard=\"1\",kind=\"location\"} 0
# TYPE ctxres_health_violations_total counter
ctxres_health_violations_total{shard=\"0\",kind=\"rfid\"} 2
ctxres_health_violations_total{shard=\"1\",kind=\"location\"} 0
# TYPE ctxres_health_kind_live gauge
ctxres_health_kind_live{shard=\"0\",kind=\"rfid\"} 3
ctxres_health_kind_live{shard=\"1\",kind=\"location\"} 0
# TYPE ctxres_health_discard_rate gauge
ctxres_health_discard_rate{kind=\"rfid\"} 0.6
# TYPE ctxres_health_violation_rate gauge
ctxres_health_violation_rate{kind=\"rfid\"} 0
# TYPE ctxres_health_use_rate gauge
ctxres_health_use_rate{kind=\"rfid\"} 0.4
# TYPE ctxres_health_use_rate_ewma gauge
ctxres_health_use_rate_ewma{kind=\"location\"} 1
ctxres_health_use_rate_ewma{kind=\"rfid\"} 0.39999999999999997
# TYPE ctxres_health_staleness gauge
ctxres_health_staleness{kind=\"rfid\"} 0.625
# TYPE ctxres_health_oldest_age_ticks gauge
ctxres_health_oldest_age_ticks{kind=\"rfid\"} 40
# TYPE ctxres_slo_firing gauge
ctxres_slo_firing{rule=\"discard_rate > 0.3 for 1\"} 1
";
        assert_eq!(
            text, expected,
            "health exposition drifted from the golden copy"
        );
    }

    /// Health lines obey the same exposition rules as the core metrics,
    /// even for a kind name (which comes from a context source) that
    /// carries a quote, a backslash and a newline.
    #[test]
    fn health_lines_are_valid_exposition() {
        assert_valid_exposition(&render_prometheus(&seeded_health_sample()));
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        registry.handle(0).kind_handle("bad\"kind\nx\\").ingested(1);
        let text = render_prometheus(&Sampler::new(registry).sample_after(0.0));
        assert!(text.contains("kind=\"bad\\\"kind\\nx\\\\\"}"), "{text}");
        assert_valid_exposition(&text);
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

    /// The profiled run's values are wall-clock times, so only its
    /// shape is pinned: every `# TYPE` header and every series' name
    /// and labels, in order.
    #[test]
    fn golden_series_of_a_seeded_profiled_run() {
        let text = render_prometheus(&seeded_profiled_sample());
        let shape: String = text
            .lines()
            .map(|line| match line.rsplit_once(' ') {
                Some((series, _)) if !line.starts_with('#') => format!("{series}\n"),
                _ => format!("{line}\n"),
            })
            .collect();
        let expected = "\
# ctxres telemetry (Prometheus text exposition v0.0.4)
# rates cover the window since the previous scrape
# TYPE ctxres_obs_shards gauge
ctxres_obs_shards
# TYPE ctxres_scrape_window_seconds gauge
ctxres_scrape_window_seconds
# TYPE ctxres_events_recorded_total counter
ctxres_events_recorded_total{shard=\"0\"}
ctxres_events_recorded_total{shard=\"1\"}
# TYPE ctxres_events_recorded_per_sec gauge
ctxres_events_recorded_per_sec{shard=\"0\"}
ctxres_events_recorded_per_sec{shard=\"1\"}
# TYPE ctxres_detections_total counter
ctxres_detections_total{shard=\"0\"}
ctxres_detections_total{shard=\"1\"}
# TYPE ctxres_detections_per_sec gauge
ctxres_detections_per_sec{shard=\"0\"}
ctxres_detections_per_sec{shard=\"1\"}
# TYPE ctxres_discards_total counter
ctxres_discards_total{shard=\"0\"}
ctxres_discards_total{shard=\"1\"}
# TYPE ctxres_discards_per_sec gauge
ctxres_discards_per_sec{shard=\"0\"}
ctxres_discards_per_sec{shard=\"1\"}
# TYPE ctxres_deliveries_total counter
ctxres_deliveries_total{shard=\"0\"}
ctxres_deliveries_total{shard=\"1\"}
# TYPE ctxres_deliveries_per_sec gauge
ctxres_deliveries_per_sec{shard=\"0\"}
ctxres_deliveries_per_sec{shard=\"1\"}
# TYPE ctxres_ingested_total counter
ctxres_ingested_total{shard=\"0\"}
ctxres_ingested_total{shard=\"1\"}
# TYPE ctxres_ingested_per_sec gauge
ctxres_ingested_per_sec{shard=\"0\"}
ctxres_ingested_per_sec{shard=\"1\"}
# TYPE ctxres_situation_evals_total counter
ctxres_situation_evals_total{shard=\"0\"}
ctxres_situation_evals_total{shard=\"1\"}
# TYPE ctxres_situation_evals_per_sec gauge
ctxres_situation_evals_per_sec{shard=\"0\"}
ctxres_situation_evals_per_sec{shard=\"1\"}
# TYPE ctxres_compiled_evals_total counter
ctxres_compiled_evals_total{shard=\"0\"}
ctxres_compiled_evals_total{shard=\"1\"}
# TYPE ctxres_compiled_evals_per_sec gauge
ctxres_compiled_evals_per_sec{shard=\"0\"}
ctxres_compiled_evals_per_sec{shard=\"1\"}
# TYPE ctxres_seq_fallbacks_total counter
ctxres_seq_fallbacks_total{shard=\"0\"}
ctxres_seq_fallbacks_total{shard=\"1\"}
# TYPE ctxres_seq_fallbacks_per_sec gauge
ctxres_seq_fallbacks_per_sec{shard=\"0\"}
ctxres_seq_fallbacks_per_sec{shard=\"1\"}
# TYPE ctxres_prov_edges_total counter
ctxres_prov_edges_total{shard=\"0\"}
ctxres_prov_edges_total{shard=\"1\"}
# TYPE ctxres_prov_edges_per_sec gauge
ctxres_prov_edges_per_sec{shard=\"0\"}
ctxres_prov_edges_per_sec{shard=\"1\"}
# TYPE ctxres_prov_nodes_total counter
ctxres_prov_nodes_total{shard=\"0\"}
ctxres_prov_nodes_total{shard=\"1\"}
# TYPE ctxres_prov_nodes_per_sec gauge
ctxres_prov_nodes_per_sec{shard=\"0\"}
ctxres_prov_nodes_per_sec{shard=\"1\"}
# TYPE ctxres_trace_events_dropped_total counter
ctxres_trace_events_dropped_total{shard=\"0\"}
ctxres_trace_events_dropped_total{shard=\"1\"}
# TYPE ctxres_trace_events_buffered gauge
ctxres_trace_events_buffered{shard=\"0\"}
ctxres_trace_events_buffered{shard=\"1\"}
# TYPE ctxres_phase_self_seconds_total counter
ctxres_phase_self_seconds_total{shard=\"0\",phase=\"ingest\"}
ctxres_phase_self_seconds_total{shard=\"0\",phase=\"constraint_check\"}
ctxres_phase_self_seconds_total{shard=\"1\",phase=\"export\"}
# TYPE ctxres_phase_total_seconds_total counter
ctxres_phase_total_seconds_total{shard=\"0\",phase=\"ingest\"}
ctxres_phase_total_seconds_total{shard=\"0\",phase=\"constraint_check\"}
ctxres_phase_total_seconds_total{shard=\"1\",phase=\"export\"}
# TYPE ctxres_phase_calls_total counter
ctxres_phase_calls_total{shard=\"0\",phase=\"ingest\"}
ctxres_phase_calls_total{shard=\"0\",phase=\"constraint_check\"}
ctxres_phase_calls_total{shard=\"1\",phase=\"export\"}
# TYPE ctxres_phase_roots_total counter
ctxres_phase_roots_total{shard=\"0\"}
ctxres_phase_roots_total{shard=\"1\"}
# TYPE ctxres_phase_sampled_roots_total counter
ctxres_phase_sampled_roots_total{shard=\"0\"}
ctxres_phase_sampled_roots_total{shard=\"1\"}
# TYPE ctxres_phase_spans_dropped_total counter
ctxres_phase_spans_dropped_total{shard=\"0\"}
ctxres_phase_spans_dropped_total{shard=\"1\"}
# TYPE ctxres_phase_self_share gauge
ctxres_phase_self_share{phase=\"ingest\"}
ctxres_phase_self_share{phase=\"constraint_check\"}
ctxres_phase_self_share{phase=\"export\"}
# TYPE ctxres_build_info gauge
ctxres_build_info{commit=\"abc1234\",host=\"bench\\\"host\\\"\"}
";
        assert_eq!(
            shape, expected,
            "profiled series drifted from the golden copy"
        );
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

    /// The full exposition of the tail-bearing seeded run, pinned byte
    /// for byte.
    #[test]
    fn golden_exposition_for_a_seeded_tail_run() {
        let text = render_prometheus(&seeded_tail_sample());
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
# TYPE ctxres_detections_total counter
ctxres_detections_total{shard=\"0\"} 0
ctxres_detections_total{shard=\"1\"} 0
# TYPE ctxres_detections_per_sec gauge
ctxres_detections_per_sec{shard=\"0\"} 0
ctxres_detections_per_sec{shard=\"1\"} 0
# TYPE ctxres_discards_total counter
ctxres_discards_total{shard=\"0\"} 0
ctxres_discards_total{shard=\"1\"} 0
# TYPE ctxres_discards_per_sec gauge
ctxres_discards_per_sec{shard=\"0\"} 0
ctxres_discards_per_sec{shard=\"1\"} 0
# TYPE ctxres_deliveries_total counter
ctxres_deliveries_total{shard=\"0\"} 0
ctxres_deliveries_total{shard=\"1\"} 0
# TYPE ctxres_deliveries_per_sec gauge
ctxres_deliveries_per_sec{shard=\"0\"} 0
ctxres_deliveries_per_sec{shard=\"1\"} 0
# TYPE ctxres_ingested_total counter
ctxres_ingested_total{shard=\"0\"} 0
ctxres_ingested_total{shard=\"1\"} 0
# TYPE ctxres_ingested_per_sec gauge
ctxres_ingested_per_sec{shard=\"0\"} 0
ctxres_ingested_per_sec{shard=\"1\"} 0
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
# TYPE ctxres_e2e_latency_us histogram
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"1\"} 0
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"2\"} 0
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"4\"} 0
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"8\"} 0
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"16\"} 0
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"32\"} 0
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"64\"} 1
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"128\"} 2
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"256\"} 2
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"512\"} 2
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"1024\"} 2
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"2048\"} 2
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"4096\"} 3
ctxres_e2e_latency_us_bucket{shard=\"0\",outcome=\"delivered\",le=\"+Inf\"} 3
ctxres_e2e_latency_us_sum{shard=\"0\",outcome=\"delivered\"} 4150
ctxres_e2e_latency_us_count{shard=\"0\",outcome=\"delivered\"} 3
# TYPE ctxres_e2e_window_quantile_ns gauge
ctxres_e2e_window_quantile_ns{outcome=\"delivered\",q=\"0.5\"} 128000
ctxres_e2e_window_quantile_ns{outcome=\"delivered\",q=\"0.95\"} 4096000
ctxres_e2e_window_quantile_ns{outcome=\"delivered\",q=\"0.99\"} 4096000
ctxres_e2e_window_quantile_ns{outcome=\"delivered\",q=\"0.999\"} 4096000
ctxres_e2e_window_quantile_ns{outcome=\"all\",q=\"0.5\"} 128000
ctxres_e2e_window_quantile_ns{outcome=\"all\",q=\"0.95\"} 4096000
ctxres_e2e_window_quantile_ns{outcome=\"all\",q=\"0.99\"} 4096000
ctxres_e2e_window_quantile_ns{outcome=\"all\",q=\"0.999\"} 4096000
# TYPE ctxres_e2e_exemplars_captured_total counter
ctxres_e2e_exemplars_captured_total{shard=\"0\"} 3
# TYPE ctxres_e2e_capture_threshold_ns gauge
ctxres_e2e_capture_threshold_ns{shard=\"0\"} 0
# TYPE ctxres_queue_wait_seconds_total counter
ctxres_queue_wait_seconds_total{shard=\"1\"} 0.003
# TYPE ctxres_queue_service_seconds_total counter
ctxres_queue_service_seconds_total{shard=\"1\"} 0.009
# TYPE ctxres_queue_waits_total counter
ctxres_queue_waits_total{shard=\"1\"} 1
# TYPE ctxres_queue_services_total counter
ctxres_queue_services_total{shard=\"1\"} 1
# TYPE ctxres_queue_wait_share gauge
ctxres_queue_wait_share 0.25
";
        assert_eq!(
            text, expected,
            "tail exposition drifted from the golden copy"
        );
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

    /// Parses a `{name="value",...}` block under the text format's
    /// escapes (`\\`, `\"`, `\n`); `None` when malformed.
    fn parse_labels(block: &str) -> Option<Vec<(String, String)>> {
        let mut rest = block
            .strip_prefix('{')?
            .strip_suffix('}')?
            .chars()
            .peekable();
        let mut pairs = Vec::new();
        while rest.peek().is_some() {
            let name: String = rest.by_ref().take_while(|c| *c != '=').collect();
            let valid = |c: char| c.is_ascii_alphanumeric() || c == '_';
            if name.is_empty() || !name.chars().all(valid) || rest.next()? != '"' {
                return None;
            }
            let mut value = String::new();
            loop {
                match rest.next()? {
                    '"' => break,
                    '\\' => value.push(match rest.next()? {
                        '\\' => '\\',
                        '"' => '"',
                        'n' => '\n',
                        _ => return None,
                    }),
                    '\n' => return None,
                    c => value.push(c),
                }
            }
            pairs.push((name, value));
            match rest.next() {
                None => break,
                Some(',') => {}
                Some(_) => return None,
            }
        }
        Some(pairs)
    }

    /// Every non-comment line must parse as `name{labels} value` (or a
    /// bare `name value`): a prefixed metric name, `name="value"` label
    /// pairs under the format's escapes, and a numeric (or ±Inf) value.
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
            let name_end = series.find('{').unwrap_or(series.len());
            let (name, labels) = series.split_at(name_end);
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
                "bad metric name in {line:?}"
            );
            assert!(name.starts_with("ctxres_"), "unprefixed metric {line:?}");
            if !labels.is_empty() {
                assert!(
                    parse_labels(labels).is_some(),
                    "bad label block in {line:?}"
                );
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
        let name = |kind: MetricKind| kind.family().name;
        assert_eq!(name(MetricKind::CheckLatency), "ctxres_check_latency_ns");
        assert_eq!(
            name(MetricKind::UseResidualDelay),
            "ctxres_use_residual_delay_ticks"
        );
        assert_eq!(name(MetricKind::QueueDepth), "ctxres_queue_depth");
        assert_eq!(CounterKind::Ingested.family().name, "ctxres_ingested_total");
    }
}
