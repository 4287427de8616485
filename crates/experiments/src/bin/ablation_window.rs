//! Regenerates the **§5.3 time-window study** from one grid: drop-bad
//! effectiveness as the use window varies on Call Forwarding, with the
//! window-0 point degenerating to drop-latest (`ablation_window.json`),
//! and the **latency/accuracy dial** (paper §3.3's unquantified
//! trade-off) — total activation latency next to the accuracy metrics
//! — on both subject applications (`latency.json`).
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
//! Usage: `ablation_window [--quick]`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_experiments::ablation::window_study;
use ctxres_experiments::latency::render_latency;
use ctxres_experiments::outln;
use ctxres_experiments::render::{render_window_ablation, write_json};
use ctxres_experiments::runner::default_threads;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick { (2, 180) } else { (10, 600) };
    // Windows are bounded by the workload's context TTL (5 ticks):
    // beyond it every context expires before the application can use it.
    let windows = [0u64, 1, 2, 3, 4];
    eprintln!(
        "§5.3 window study: call forwarding + rfid, drop-bad, {runs} runs × {len} contexts …"
    );
    let (cf, rfid) = (CallForwarding::new(), RfidAnomalies::new());
    let study = window_study(&[&cf, &rfid], &windows, 0.3, runs, len, default_threads());
    outln!("{}", render_window_ablation(&study.ablation));
    for (app, points) in &study.dials {
        outln!("{}", render_latency(points, app, 0.3));
    }
    write_json("ablation_window", &study.ablation);
    write_json("latency", &study.dials);
}
