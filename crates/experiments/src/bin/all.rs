//! Runs every experiment in sequence (the full reproduction pass used
//! to fill EXPERIMENTS.md).
//!
//! Usage: `all [--quick]`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_experiments::ablation::window_study;
use ctxres_experiments::case_study::run_case_study;
use ctxres_experiments::figures::figure_for_parallel;
use ctxres_experiments::latency::render_latency;
use ctxres_experiments::outln;
use ctxres_experiments::render::{
    render_case_study, render_figure, render_window_ablation, write_json,
};
use ctxres_experiments::runner::default_threads;
use ctxres_experiments::{RUNS_PER_POINT, TRACE_LEN};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick {
        (3, 240)
    } else {
        (RUNS_PER_POINT, TRACE_LEN)
    };

    let threads = default_threads();
    eprintln!("[1/4] figure 9 (call forwarding) …");
    let fig9 = figure_for_parallel(&CallForwarding::new(), runs, len, threads, None);
    outln!("{}", render_figure(&fig9));
    write_json("figure9", &fig9);

    eprintln!("[2/4] figure 10 (rfid data anomalies) …");
    let fig10 = figure_for_parallel(&RfidAnomalies::new(), runs, len, threads, None);
    outln!("{}", render_figure(&fig10));
    write_json("figure10", &fig10);

    eprintln!("[3/4] §5.2 case study …");
    let cs = run_case_study(
        0.2,
        if quick { 3 } else { 10 },
        if quick { 200 } else { 600 },
        threads,
    );
    outln!("{}", render_case_study(&cs));
    write_json("case_study", &cs);

    eprintln!("[4/4] §5.3 window study …");
    let study = window_study(
        &[&CallForwarding::new(), &RfidAnomalies::new()],
        &[0, 1, 2, 3, 4],
        0.3,
        if quick { 2 } else { 10 },
        if quick { 180 } else { 600 },
        threads,
    );
    outln!("{}", render_window_ablation(&study.ablation));
    for (app, points) in &study.dials {
        outln!("{}", render_latency(points, app, 0.3));
    }
    write_json("ablation_window", &study.ablation);
    write_json("latency", &study.dials);
}
