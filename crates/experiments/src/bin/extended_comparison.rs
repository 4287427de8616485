//! Runs the **extended strategy comparison**: the paper's four plus
//! drop-random, user-policy (§2.3's "unreliable" baselines) and the
//! impact-aware drop-bad extension (§5.1/§7 future work), on both
//! subject applications.
//!
//! Usage: `extended_comparison [--quick]`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::PervasiveApp;
use ctxres_experiments::extended::{extended_comparison, render_extended};
use ctxres_experiments::outln;
use ctxres_experiments::render::write_json;
use ctxres_experiments::ERROR_RATES;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick { (3, 240) } else { (10, 600) };
    let mut all = Vec::new();
    for app in [
        Box::new(CallForwarding::new()) as Box<dyn PervasiveApp>,
        Box::new(RfidAnomalies::new()),
    ] {
        eprintln!("extended comparison: {} …", app.name());
        let cmp = extended_comparison(app.as_ref(), &ERROR_RATES, runs, len);
        outln!("{}", render_extended(&cmp, &ERROR_RATES));
        all.push(cmp);
    }
    match write_json("extended_comparison", &all) {
        Ok(path) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write results json: {e}"),
    }
}
