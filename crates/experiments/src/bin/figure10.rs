//! Regenerates **Figure 10**: resolution comparison for the RFID data
//! anomalies application (`ctxUseRate` and `sitActRate` vs error rate).
//!
//! Usage: `figure10 [--quick]`. The seeded grid is fanned over worker
//! threads (`CTXRES_THREADS` overrides the count); the output is
//! bit-identical to a serial run.
//!
//! Set `CTXRES_METRICS_ADDR` (e.g. `127.0.0.1:9900`) to serve live
//! Prometheus metrics (`/metrics`) and JSON snapshots (`/snapshot`)
//! while the grid runs.

use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_experiments::figures::figure_for_parallel;
use ctxres_experiments::outln;
use ctxres_experiments::render::{render_figure, write_json};
use ctxres_experiments::runner::{default_threads, export_registry_from_env};
use ctxres_experiments::{RUNS_PER_POINT, TRACE_LEN};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick {
        (3, 240)
    } else {
        (RUNS_PER_POINT, TRACE_LEN)
    };
    let threads = default_threads();
    eprintln!(
        "figure 10: rfid data anomalies, {runs} runs/point, {len} contexts/run, {threads} thread(s) …"
    );
    let app = RfidAnomalies::new();
    let exported = export_registry_from_env(threads);
    if let Some((_, server)) = &exported {
        eprintln!(
            "serving live metrics at http://{}/metrics",
            server.local_addr()
        );
    }
    let registry = exported.as_ref().map(|(registry, _)| registry);
    let fig = figure_for_parallel(&app, runs, len, threads, registry);
    outln!("{}", render_figure(&fig));
    write_json("figure10", &fig);
}
