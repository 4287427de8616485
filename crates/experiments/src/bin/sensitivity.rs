//! Runs the **high-error stress sweep**: the strategy comparison pushed
//! to error rates the paper never tested (up to 80 %), on both subject
//! applications — probing where the count-value heuristic (Rule 2)
//! starts to erode.
//!
//! Usage: `sensitivity [--quick]`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::PervasiveApp;
use ctxres_core::strategies::EXPERIMENT_STRATEGIES;
use ctxres_experiments::outln;
use ctxres_experiments::render::{render_rate_table, write_json, Rate};
use ctxres_experiments::runner::default_threads;
use ctxres_experiments::sensitivity::stress_error_rates;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick { (3, 240) } else { (10, 600) };
    let rates = [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8];
    let mut all = Vec::new();
    for app in [
        Box::new(CallForwarding::new()) as Box<dyn PervasiveApp + Sync>,
        Box::new(RfidAnomalies::new()),
    ] {
        eprintln!("stress sweep: {} …", app.name());
        let sweep = stress_error_rates(app.as_ref(), &rates, runs, len, default_threads());
        outln!(
            "{}",
            render_rate_table(
                &format!("high-error stress, {}", sweep.application),
                Rate::CtxUse,
                &sweep.points,
                &EXPERIMENT_STRATEGIES,
                &sweep.err_rates,
            )
        );
        all.push(sweep);
    }
    write_json("sensitivity", &all);
}
