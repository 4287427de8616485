//! Runs the **latency/accuracy dial** (paper §3.3's unquantified
//! trade-off): drop-bad across use windows, reporting total activation
//! latency next to the accuracy metrics, on both subject applications.
//!
//! Terminology: *activation latency* here is the paper's §3.3 notion —
//! how many **logical ticks** a context sits in the use window before
//! the application may act on it, a property of the resolution policy,
//! not of the machine. It is unrelated to the engine's **wall-clock
//! end-to-end latency** telemetry (nanosecond span stamps, p99
//! histograms, exemplars), which lives in `ctxres_obs::tail` and
//! surfaces through `/snapshot`, `obs_top` and `soak`. This bin never
//! touches a clock.
//!
//! Usage: `latency [--quick]`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::PervasiveApp;
use ctxres_experiments::latency::{latency_window_tradeoff, render_latency};
use ctxres_experiments::outln;
use ctxres_experiments::render::write_json;
use ctxres_experiments::runner::default_threads;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick { (3, 240) } else { (10, 600) };
    let windows = [0u64, 1, 2, 3, 4];
    let mut all = Vec::new();
    for app in [
        Box::new(CallForwarding::new()) as Box<dyn PervasiveApp + Sync>,
        Box::new(RfidAnomalies::new()),
    ] {
        eprintln!("latency dial: {} …", app.name());
        let points =
            latency_window_tradeoff(app.as_ref(), 0.3, &windows, runs, len, default_threads());
        outln!("{}", render_latency(&points, app.name(), 0.3));
        all.push((app.name().to_owned(), points));
    }
    write_json("latency", &all);
}
