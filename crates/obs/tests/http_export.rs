//! End-to-end export pipeline: registry → sampler → HTTP endpoint,
//! scraped over a real TCP connection.
//!
//! Includes the acceptance check that a deliberately overflowed event
//! ring surfaces a nonzero `ctxres_trace_events_dropped_total` through
//! `/metrics` and in the counters `trace_dump --json` reports —
//! truncation is never silent, not even one indirection away from the
//! ring.

use ctxres_context::{ContextId, LogicalTime};
use ctxres_obs::{
    CounterKind, MetricsServer, ObsConfig, ObsRegistry, Sample, TraceEvent, RING_CAPACITY,
};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn get(server: &MetricsServer, path: &str) -> String {
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();
    write!(stream, "GET {path} HTTP/1.1\r\nHost: test\r\n\r\n").unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    response
        .split_once("\r\n\r\n")
        .expect("header block")
        .1
        .to_owned()
}

/// One series' value from an exposition body.
fn series_value(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .find(|l| l.starts_with(series) && l.as_bytes().get(series.len()) == Some(&b' '))
        .and_then(|l| l.rsplit_once(' '))
        .and_then(|(_, v)| v.parse().ok())
}

#[test]
fn overflowed_ring_surfaces_dropped_events_in_metrics() {
    // The ring fed 16 events past its capacity must drop 16, and the
    // drop count must be visible to an external scraper.
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    let h = registry.handle(0);
    let events = RING_CAPACITY as u64 + 16;
    for i in 0..events {
        h.record(
            LogicalTime::new(i),
            TraceEvent::Delivered {
                ctx: ContextId::from_raw(i),
            },
        );
    }
    assert_eq!(registry.dropped(), 16, "precondition: the ring overflowed");
    // The counters `trace_dump --json` reports carry the ring's drops.
    assert_eq!(registry.snapshot().counters()["trace_events_dropped"], 16);

    let server = MetricsServer::spawn(Arc::clone(&registry), "127.0.0.1:0").unwrap();
    let body = get(&server, "/metrics");
    let dropped = series_value(&body, "ctxres_trace_events_dropped_total{shard=\"0\"}")
        .expect("dropped series present");
    assert_eq!(dropped, 16.0, "{body}");
    assert!(
        !body.contains("ctxres_events_dropped"),
        "the ring family is the only record of drops"
    );
    let buffered = series_value(&body, "ctxres_trace_events_buffered{shard=\"0\"}").unwrap();
    assert_eq!(buffered, RING_CAPACITY as f64);
    // The recorded counter still counts every accepted event.
    let recorded = series_value(&body, "ctxres_events_recorded_total{shard=\"0\"}").unwrap();
    assert_eq!(recorded, events as f64);
}

#[test]
fn aggregation_totals_flow_through_the_endpoint() {
    let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 3);
    for shard in 0..3 {
        registry
            .handle(shard)
            .count(CounterKind::Ingested, 10 * (shard as u64 + 1));
        registry
            .handle(shard)
            .count(CounterKind::Discards, shard as u64);
    }
    let server = MetricsServer::spawn(Arc::clone(&registry), "127.0.0.1:0").unwrap();

    // First scrape: the baseline sample still carries the cumulative
    // deltas from zero. (Scrapes share one sampler — each one advances
    // the window, so ordering matters in this test.)
    let json = get(&server, "/snapshot");
    let sample: Sample = serde_json::from_str(&json).unwrap();
    assert_eq!(
        sample.total("ctxres_ingested_total"),
        registry.snapshot().counter(CounterKind::Ingested),
    );
    assert_eq!(sample.delta("ctxres_discards_total"), 3);

    let body = get(&server, "/metrics");
    let total: f64 = (0..3)
        .map(|s| series_value(&body, &format!("ctxres_ingested_total{{shard=\"{s}\"}}")).unwrap())
        .sum();
    assert_eq!(total, 60.0, "{body}");
}

#[test]
fn scrape_rates_reflect_activity_between_scrapes() {
    let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
    let server = MetricsServer::spawn(Arc::clone(&registry), "127.0.0.1:0").unwrap();
    let _ = get(&server, "/metrics"); // baseline scrape
    registry.handle(0).count(CounterKind::Deliveries, 50);
    std::thread::sleep(std::time::Duration::from_millis(30));
    let body = get(&server, "/metrics");
    let rate = series_value(&body, "ctxres_deliveries_per_sec{shard=\"0\"}").unwrap();
    assert!(rate > 0.0, "a positive delivery rate, got {rate} in {body}");
}
