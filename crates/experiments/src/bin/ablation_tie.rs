//! Regenerates the **§5.1 tie-case ablation**: what drop-bad should do
//! when the used context ties for the maximal count value — discard it
//! (`DoomUsed`, the default) or deliver it and mark a tied rival bad
//! (`BlamePeer`). The paper leaves this open; the table answers it for
//! both subject applications.
//!
//! Usage: `ablation_tie [--quick]`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::PervasiveApp;
use ctxres_experiments::ablation::tie_policy_comparison;
use ctxres_experiments::outln;
use ctxres_experiments::render::write_json;
use ctxres_experiments::runner::default_threads;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick { (3, 240) } else { (10, 600) };
    let mut all = Vec::new();
    for app in [
        Box::new(CallForwarding::new()) as Box<dyn PervasiveApp + Sync>,
        Box::new(RfidAnomalies::new()),
    ] {
        eprintln!("§5.1 tie ablation: {} …", app.name());
        let points = tie_policy_comparison(
            app.as_ref(),
            &[0.2, 0.4],
            runs,
            len,
            app.recommended_window(),
            default_threads(),
        );
        outln!("{} (used_expected / survival / precision):", app.name());
        outln!(
            "{:>10}{:>10}{:>12}{:>10}{:>10}",
            "policy",
            "err",
            "used",
            "surv",
            "prec"
        );
        for p in &points {
            outln!(
                "{:>10}{:>9.0}%{:>12.1}{:>9.1}%{:>9.1}%",
                p.policy,
                p.err_rate * 100.0,
                p.used_expected,
                p.survival * 100.0,
                p.precision * 100.0
            );
        }
        outln!();
        all.push((app.name().to_owned(), points));
    }
    write_json("ablation_tie", &all);
}
