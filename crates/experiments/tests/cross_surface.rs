//! The export surfaces agree on real engines. Two seeded runs — the
//! `trace_dump --demo` cell and a 2-shard city run with health, tail and
//! the profiler on — each sit behind a `MetricsServer`. Every series
//! must belong to a declared family, with its type and label names (the
//! renderer drops any other from `/metrics`), every counter series must
//! read the same in `/metrics` and in `/snapshot`, and the
//! core counters must equal both `trace_dump --json`'s counters and the
//! engine's own `MiddlewareStats`. On the demo cell, `trace_dump --json`
//! and `explain --discarded --json` must list the same discarded
//! contexts, as many as the engine discarded, each with a complete
//! causal chain, and the trace counters must equal the records, cause
//! edges and provenance nodes of the drained trace.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::PervasiveApp;
use ctxres_constraint::parse_constraints;
use ctxres_context::Ticks;
use ctxres_core::strategies::{by_name, DropBad};
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_experiments::explain::ExplainDoc;
use ctxres_experiments::telemetry::{json_dump, json_dump_with_snapshot};
use ctxres_middleware::{
    Middleware, MiddlewareConfig, MiddlewareStats, ShardPlan, ShardedMiddleware,
};
use ctxres_obs::{
    families, MetricType, MetricsServer, ObsConfig, ObsRegistry, ProvenanceGraph, Sample, Series,
    TraceRecord, Value,
};
use std::collections::HashMap;
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

fn get(server: &MetricsServer, path: &str) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    let (_, body) = response.split_once("\r\n\r\n").expect("header block");
    body.to_owned()
}

/// A series' exposition key, `name{label="value",...}`.
fn exposition_key(s: &Series) -> String {
    let labels: Vec<String> = s
        .labels
        .iter()
        .map(|(k, v)| {
            let v = v
                .replace('\\', "\\\\")
                .replace('"', "\\\"")
                .replace('\n', "\\n");
            format!("{k}=\"{v}\"")
        })
        .collect();
    if labels.is_empty() {
        s.family.clone()
    } else {
        format!("{}{{{}}}", s.family, labels.join(","))
    }
}

/// Scrapes `/metrics`, then `/snapshot`, and asserts every series of
/// the sample belongs to a declared family — the family's type and its
/// label names, in order — and every counter series reads the same on
/// both. The only writer between the two scrapes is the first scrape's
/// own `export` phase span on the registry's last slot, so the profiler
/// counters it moves are not compared. Returns the `/snapshot` sample.
fn assert_counters_agree(registry: &Arc<ObsRegistry>) -> Sample {
    let server = MetricsServer::spawn(Arc::clone(registry), "127.0.0.1:0").unwrap();
    let metrics = get(&server, "/metrics");
    let sample: Sample = serde_json::from_str(&get(&server, "/snapshot")).unwrap();
    server.shutdown();

    let exposed: HashMap<&str, &str> = metrics
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| l.rsplit_once(' '))
        .collect();
    let families = families();
    let scraper_slot = (registry.shards() - 1).to_string();
    let mut checked = 0;
    for s in sample.iter() {
        let family = families
            .iter()
            .find(|f| f.name == s.family)
            .unwrap_or_else(|| panic!("{} is not a declared family", s.family));
        let kind = match s.value {
            Value::Counter(_) => MetricType::Counter,
            Value::Gauge(_) => MetricType::Gauge,
            Value::Histogram(_) => MetricType::Histogram,
        };
        assert_eq!(kind, family.kind, "{} is a {:?}", s.family, family.kind);
        let names: Vec<&str> = s.labels.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, family.labels, "{} label names", s.family);
        let Value::Counter(n) = s.value else {
            continue;
        };
        let scrape_moved = s.label("phase") == Some("export")
            || (s.family.contains("roots") && s.label("shard") == Some(scraper_slot.as_str()));
        if scrape_moved {
            continue;
        }
        let expected = if family.scale == 1.0 {
            n.to_string()
        } else {
            (n as f64 / family.scale).to_string()
        };
        let key = exposition_key(s);
        assert_eq!(exposed.get(key.as_str()), Some(&expected.as_str()), "{key}");
        checked += 1;
    }
    assert!(checked > 0, "no counter series compared");
    sample
}

/// The core counters equal `trace_dump --json`'s counters, the sample's
/// totals and the engine's statistics. Returns the drained trace.
fn assert_core_counters(
    registry: &ObsRegistry,
    sample: &Sample,
    stats: &MiddlewareStats,
) -> Vec<TraceRecord> {
    let snapshot = registry.snapshot();
    let trace = registry.drain();
    let dump = json_dump_with_snapshot(&trace, "cell", &snapshot);
    for (counter, engine) in [
        ("ingested", stats.received),
        ("deliveries", stats.delivered),
        ("discards", stats.discarded),
        ("detections", stats.inconsistencies),
    ] {
        assert_eq!(
            dump.counters[counter], engine,
            "trace_dump --json {counter}"
        );
        let family = format!("ctxres_{counter}_total");
        assert_eq!(sample.total(&family), engine, "/snapshot {family}");
    }
    trace
}

/// The documents `trace_dump --json` and `explain --discarded --json`
/// print carry equal discarded provenance nodes, as many as the engine
/// discarded, each chain without a completeness gap.
fn assert_discards_agree(trace: &[TraceRecord], stats: &MiddlewareStats) {
    let dump = json_dump(trace, "cell");
    let graph = ProvenanceGraph::from_records(trace);
    let explain = ExplainDoc::new("cell", &graph, graph.discarded());
    assert_eq!(dump.discarded_lifecycles, explain.chains);
    assert_eq!(dump.discarded_lifecycles.len() as u64, stats.discarded);
    assert_eq!(dump.discarded as u64, stats.discarded);
    assert_eq!(explain.stats.discarded as u64, stats.discarded);
    for node in &explain.chains {
        assert_eq!(
            node.completeness_gaps(),
            Vec::<String>::new(),
            "{}",
            node.id
        );
    }
}

#[test]
fn demo_cell_counters_agree_across_surfaces() {
    let app = CallForwarding::new();
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    let mut mw = Middleware::builder()
        .constraints(app.constraints())
        .situations(app.situations())
        .registry(app.registry())
        .strategy(by_name("d-bad", 3).unwrap())
        .config(MiddlewareConfig {
            window: Ticks::new(app.recommended_window()),
            track_ground_truth: true,
            retention: None,
        })
        .obs(registry.handle(0))
        .build();
    for ctx in app.generate(0.3, 3, 200) {
        mw.submit(ctx);
    }
    mw.drain();
    let stats = *mw.stats();
    assert_eq!(
        (
            stats.received,
            stats.delivered,
            stats.discarded,
            stats.inconsistencies
        ),
        (200, 165, 32, 56),
        "the trace_dump --demo cell"
    );

    let sample = assert_counters_agree(&registry);
    let trace = assert_core_counters(&registry, &sample, &stats);
    assert_discards_agree(&trace, &stats);

    // The trace counters count the records they describe: every record,
    // every cause edge (a `Received` record is its chain's root edge)
    // and every provenance node.
    let graph = ProvenanceGraph::from_records(&trace);
    let counted = |family: &str| sample.total(family) as usize;
    assert_eq!(
        [
            counted("ctxres_events_recorded_total"),
            counted("ctxres_prov_edges_total"),
            counted("ctxres_prov_nodes_total"),
        ],
        [trace.len(), graph.edge_count(), graph.len()]
    );
    assert_eq!(
        (trace.len(), graph.edge_count(), graph.len()),
        (853, 629, 200)
    );
}

#[test]
fn sharded_city_counters_agree_across_surfaces() {
    let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), 2);
    let config = ObsConfig::metrics_only().with_tail(true).with_profile(1);
    let registry = ShardedMiddleware::obs_registry(&plan, config);
    let sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
        Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(0),
                track_ground_truth: false,
                retention: Some(Ticks::new(512)),
            })
            .obs(obs)
            .build()
    });
    let mut city = CityWorkload::new(CityConfig {
        subjects: 200,
        ..CityConfig::default()
    });
    for _ in 0..4 {
        sharded.batch_add(&city.batch(500));
    }
    sharded.drain();
    let stats = sharded.stats();
    assert!(
        stats.inconsistencies > 0,
        "the city trace plants violations"
    );

    let sample = assert_counters_agree(&registry);
    for family in [
        "ctxres_health_ingested_total",
        "ctxres_e2e_exemplars_captured_total",
        "ctxres_queue_service_seconds_total",
        "ctxres_phase_calls_total",
    ] {
        assert!(sample.family(family).next().is_some(), "{family} compared");
    }
    assert_core_counters(&registry, &sample, &stats);
}
