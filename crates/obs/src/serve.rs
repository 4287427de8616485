//! A hand-rolled HTTP endpoint serving live telemetry: `/metrics`
//! (Prometheus text exposition) and `/snapshot` (the same
//! [`Sample`](crate::snapshot::Sample) as JSON).
//!
//! Built directly on [`std::net::TcpListener`] — the workspace has no
//! HTTP crate and the build runs offline, and the protocol surface a
//! scraper needs is one request line and a fixed response header block.
//! The server owns a [`Sampler`] behind a mutex: every scrape advances
//! the sampling window, so the rates in each response cover the interval
//! since the previous scrape (scrape at a fixed cadence for a steady
//! denominator, as Prometheus does).
//!
//! Engines opt in by running with an [`ObsRegistry`] and either calling
//! [`MetricsServer::spawn`] with an address, or exporting
//! `CTXRES_METRICS_ADDR=127.0.0.1:9464` and calling
//! [`MetricsServer::from_env`] — which is what `figure9` and
//! `figure10` do (`obs_top --serve` calls [`MetricsServer::spawn`]).

use crate::export::{render_prometheus, PROMETHEUS_CONTENT_TYPE};
use crate::registry::ObsRegistry;
use crate::slo::{SloEngine, SLO_RULES_ENV};
use crate::snapshot::Sampler;
use parking_lot::Mutex;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The environment variable naming the export bind address
/// (`host:port`); unset or empty means "don't serve".
pub const METRICS_ADDR_ENV: &str = "CTXRES_METRICS_ADDR";

/// A background thread serving `/metrics` and `/snapshot` for one
/// registry until dropped (or [`MetricsServer::shutdown`]).
#[derive(Debug)]
pub struct MetricsServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl MetricsServer {
    /// Binds `addr` (e.g. `127.0.0.1:9464`, or port `0` for an
    /// ephemeral port) and serves the registry from a background
    /// thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error (address in use, permission, parse).
    pub fn spawn(registry: Arc<ObsRegistry>, addr: &str) -> std::io::Result<MetricsServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop_flag = Arc::clone(&stop);
        let mut sampler =
            Sampler::new(registry).with_build_info(crate::snapshot::BuildInfo::collect());
        if let Some(engine) = slo_engine_from_env() {
            sampler = sampler.with_slo(engine);
        }
        let sampler = Mutex::new(sampler);
        let handle = std::thread::Builder::new()
            .name("ctxres-metrics".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop_flag.load(Ordering::Relaxed) {
                        break;
                    }
                    let Ok(mut stream) = stream else { continue };
                    let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
                    let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
                    let _ = serve_one(&mut stream, &sampler);
                }
            })?;
        Ok(MetricsServer {
            addr: local,
            stop,
            handle: Some(handle),
        })
    }

    /// [`MetricsServer::spawn`] at the address named by
    /// `CTXRES_METRICS_ADDR`, or `None` when the variable is unset or
    /// empty. A bind failure is reported on stderr and treated as
    /// opting out — a monitoring endpoint must never take down the run
    /// it watches.
    pub fn from_env(registry: &Arc<ObsRegistry>) -> Option<MetricsServer> {
        let addr = std::env::var(METRICS_ADDR_ENV).ok()?;
        let addr = addr.trim();
        if addr.is_empty() {
            return None;
        }
        match MetricsServer::spawn(Arc::clone(registry), addr) {
            Ok(server) => {
                eprintln!(
                    "telemetry: serving /metrics and /snapshot on http://{}",
                    server.local_addr()
                );
                Some(server)
            }
            Err(e) => {
                eprintln!("telemetry: could not bind {addr}: {e}; export disabled");
                None
            }
        }
    }

    /// The bound address (useful with port `0`).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the accept loop and joins the server thread.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // Unblock the accept loop with one last connection. A bind
            // to an unspecified address (0.0.0.0 / ::) is not
            // connectable everywhere, so aim the wake-up at loopback on
            // the bound port — otherwise the join below can hang in
            // `accept` until a real scrape happens to arrive.
            let _ = TcpStream::connect_timeout(&self.wake_addr(), Duration::from_secs(1));
            let _ = handle.join();
        }
    }

    /// The address the shutdown wake-up connects to: the bound address,
    /// with unspecified IPs replaced by the matching loopback.
    fn wake_addr(&self) -> SocketAddr {
        let mut addr = self.addr;
        if addr.ip().is_unspecified() {
            addr.set_ip(match addr {
                SocketAddr::V4(_) => std::net::IpAddr::V4(std::net::Ipv4Addr::LOCALHOST),
                SocketAddr::V6(_) => std::net::IpAddr::V6(std::net::Ipv6Addr::LOCALHOST),
            });
        }
        addr
    }
}

/// Parses `CTXRES_SLO_RULES` into an [`SloEngine`], or `None` when the
/// variable is unset/empty. A malformed spec is reported on stderr and
/// treated as opting out — same policy as a bind failure: monitoring
/// must never take down the run it watches.
fn slo_engine_from_env() -> Option<SloEngine> {
    let spec = std::env::var(SLO_RULES_ENV).ok()?;
    if spec.trim().is_empty() {
        return None;
    }
    match SloEngine::from_spec(&spec) {
        Ok(engine) => {
            eprintln!("telemetry: {} SLO rule(s) active", engine.rules().len());
            Some(engine)
        }
        Err(e) => {
            eprintln!("telemetry: bad {SLO_RULES_ENV}: {e}; SLO evaluation disabled");
            None
        }
    }
}

impl Drop for MetricsServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Handles one connection: read the request line, route, respond,
/// close (`Connection: close`; scrapers reconnect per scrape).
fn serve_one(stream: &mut TcpStream, sampler: &Mutex<Sampler>) -> std::io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut request_line = String::new();
    reader.read_line(&mut request_line)?;
    let path = request_line.split_whitespace().nth(1).unwrap_or("/");
    // Drain the header block so well-behaved clients see a clean close.
    let mut header = String::new();
    while reader.read_line(&mut header)? > 2 {
        header.clear();
    }

    let (status, content_type, body) = match path {
        "/metrics" => {
            let sample = sampler.lock().sample();
            (
                "200 OK",
                PROMETHEUS_CONTENT_TYPE,
                render_prometheus(&sample),
            )
        }
        "/snapshot" => {
            let sample = sampler.lock().sample();
            match serde_json::to_string(&sample) {
                Ok(json) => ("200 OK", "application/json", json),
                Err(e) => (
                    "500 Internal Server Error",
                    "text/plain",
                    format!("serialize snapshot: {e}\n"),
                ),
            }
        }
        "/" => (
            "200 OK",
            "text/plain",
            "ctxres telemetry endpoints:\n  /metrics   Prometheus text exposition\n  /snapshot  full sampler state as JSON\n".to_owned(),
        ),
        _ => (
            "404 Not Found",
            "text/plain",
            format!("no such endpoint: {path}\n"),
        ),
    };
    write!(
        stream,
        "HTTP/1.1 {status}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ObsConfig;
    use std::io::Read;

    fn get(addr: SocketAddr, path: &str) -> (String, String) {
        let mut stream = TcpStream::connect(addr).unwrap();
        write!(stream, "GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").expect("header block");
        (head.to_owned(), body.to_owned())
    }

    #[test]
    fn serves_metrics_snapshot_and_404() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 2);
        registry
            .handle(0)
            .count(crate::metrics::CounterKind::Ingested, 9);
        let server = MetricsServer::spawn(Arc::clone(&registry), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();

        let (head, body) = get(addr, "/metrics");
        assert!(head.starts_with("HTTP/1.1 200"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        assert!(
            body.contains("ctxres_ingested_total{shard=\"0\"} 9"),
            "{body}"
        );

        let (head, body) = get(addr, "/snapshot");
        assert!(head.contains("application/json"), "{head}");
        let sample: crate::snapshot::Sample = serde_json::from_str(&body).unwrap();
        assert_eq!(sample.gauge("ctxres_obs_shards", &[]), Some(2.0));

        let (head, _) = get(addr, "/nope");
        assert!(head.starts_with("HTTP/1.1 404"), "{head}");

        server.shutdown();
    }

    #[test]
    fn consecutive_scrapes_advance_the_window() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let server = MetricsServer::spawn(Arc::clone(&registry), "127.0.0.1:0").unwrap();
        let addr = server.local_addr();
        let (_, _) = get(addr, "/snapshot"); // baseline
        registry
            .handle(0)
            .count(crate::metrics::CounterKind::Deliveries, 4);
        let (_, body) = get(addr, "/snapshot");
        let sample: crate::snapshot::Sample = serde_json::from_str(&body).unwrap();
        assert!(!sample.first);
        assert_eq!(sample.delta("ctxres_deliveries_total"), 4);
    }

    #[test]
    fn snapshot_serves_tail_fields_when_enabled() {
        use crate::tail::{ContextSpan, TailOutcome};
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_tail(true), 1);
        registry.handle(0).record_e2e(
            ctxres_context::ContextId::from_raw(3),
            TailOutcome::Delivered,
            ContextSpan {
                ingress_ns: 0,
                verdict_ns: 10_000,
                decision_ns: 20_000,
                end_ns: 50_000,
            },
            7.into(),
        );
        let server = MetricsServer::spawn(Arc::clone(&registry), "127.0.0.1:0").unwrap();
        let (_, body) = get(server.local_addr(), "/snapshot");
        let sample: crate::snapshot::Sample = serde_json::from_str(&body).unwrap();
        assert_eq!(
            sample.window_histogram("ctxres_e2e_latency_us", &[]).count,
            1
        );
        let p99 = [("outcome", "all"), ("q", "0.99")];
        assert!(sample
            .gauge("ctxres_e2e_window_quantile_ns", &p99)
            .is_some());
        assert_eq!(sample.exemplars.len(), 1);
        server.shutdown();
    }

    // The accept thread's sampler owns the only registry handle besides
    // the test's, and the thread drops it when it exits: a strong count
    // back at one proves the join. (Probing the freed port instead races
    // with parallel tests that bind a new ephemeral port.)

    #[test]
    fn shutdown_joins_the_accept_loop() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let server = MetricsServer::spawn(Arc::clone(&registry), "127.0.0.1:0").unwrap();
        assert_eq!(
            Arc::strong_count(&registry),
            2,
            "the sampler holds a handle"
        );
        server.shutdown();
        assert_eq!(
            Arc::strong_count(&registry),
            1,
            "listener thread still alive after shutdown"
        );
    }

    #[test]
    fn drop_joins_the_accept_loop() {
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        {
            let _server = MetricsServer::spawn(Arc::clone(&registry), "127.0.0.1:0").unwrap();
            assert_eq!(
                Arc::strong_count(&registry),
                2,
                "the sampler holds a handle"
            );
            // Drop here must stop and join, not leak the thread.
        }
        assert_eq!(
            Arc::strong_count(&registry),
            1,
            "listener thread leaked past drop"
        );
    }

    #[test]
    fn shutdown_works_for_unspecified_bind_addresses() {
        // Binding 0.0.0.0 yields an unspecified local IP; the shutdown
        // wake-up must still reach the accept loop (via loopback) or
        // this test hangs in join.
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let server = MetricsServer::spawn(Arc::clone(&registry), "0.0.0.0:0").unwrap();
        assert!(server.local_addr().ip().is_unspecified());
        assert!(!server.wake_addr().ip().is_unspecified());
        server.shutdown();
    }

    #[test]
    fn from_env_is_none_without_the_variable() {
        // The test runner does not export CTXRES_METRICS_ADDR; guard
        // against an ambient value leaking in.
        if std::env::var(METRICS_ADDR_ENV).is_ok() {
            return;
        }
        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        assert!(MetricsServer::from_env(&registry).is_none());
    }
}
