//! Runs the **extended strategy comparison**: the paper's four plus
//! drop-random, user-policy (§2.3's "unreliable" baselines) and the
//! impact-aware drop-bad extension (§5.1/§7 future work), on both
//! subject applications.
//!
//! Usage: `extended_comparison [--quick]`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::PervasiveApp;
use ctxres_experiments::extended::{extended_comparison, EXTENDED_STRATEGIES};
use ctxres_experiments::outln;
use ctxres_experiments::render::{render_rate_table, write_json, Rate};
use ctxres_experiments::runner::default_threads;
use ctxres_experiments::ERROR_RATES;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick { (3, 240) } else { (10, 600) };
    let mut all = Vec::new();
    for app in [
        Box::new(CallForwarding::new()) as Box<dyn PervasiveApp + Sync>,
        Box::new(RfidAnomalies::new()),
    ] {
        eprintln!("extended comparison: {} …", app.name());
        let cmp = extended_comparison(app.as_ref(), &ERROR_RATES, runs, len, default_threads());
        outln!(
            "{}",
            render_rate_table(
                &format!("extended comparison, {}", cmp.application),
                Rate::CtxUse,
                &cmp.points,
                &EXTENDED_STRATEGIES,
                &ERROR_RATES,
            )
        );
        all.push(cmp);
    }
    write_json("extended_comparison", &all);
}
