//! Prints the **constraint coverage** report for every application:
//! which deployed constraints actually fire, and whether their
//! detections involve corrupted contexts (the per-constraint Rule 1
//! picture). Flags constraints that never fire.
//!
//! Usage: `coverage [--quick]`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::location_tracking::LocationTracking;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::smart_ringer::SmartRinger;
use ctxres_apps::PervasiveApp;
use ctxres_experiments::coverage::{constraint_coverage, render_coverage};
use ctxres_experiments::outln;
use ctxres_experiments::render::write_json;
use ctxres_experiments::runner::default_threads;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick { (2, 240) } else { (5, 600) };
    let mut all = Vec::new();
    for app in [
        Box::new(CallForwarding::new()) as Box<dyn PervasiveApp + Sync>,
        Box::new(RfidAnomalies::new()),
        Box::new(LocationTracking::new()),
        Box::new(SmartRinger::new()),
    ] {
        let report = constraint_coverage(app.as_ref(), 0.3, runs, len, default_threads());
        outln!("{}", render_coverage(&report));
        all.push(report);
    }
    write_json("coverage", &all);
}
