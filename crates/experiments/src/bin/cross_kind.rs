//! Runs the **cross-kind generality check** (paper §3.4 / §7): the
//! smart-ringer workload, whose key constraint relates *different kinds*
//! of contexts (venue fixes vs noise samples), through the full strategy
//! grid. Drop-bad's count values are kind-agnostic, so its advantage
//! should persist — "our approach applies to different types and numbers
//! of contexts".
//!
//! Usage: `cross_kind [--quick]`.

use ctxres_apps::smart_ringer::SmartRinger;
use ctxres_experiments::figures::figure_for_parallel;
use ctxres_experiments::outln;
use ctxres_experiments::render::{render_figure, write_json};
use ctxres_experiments::runner::default_threads;
use ctxres_experiments::{RUNS_PER_POINT, TRACE_LEN};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick {
        (3, 240)
    } else {
        (RUNS_PER_POINT, TRACE_LEN)
    };
    eprintln!("cross-kind generality: smart ringer, {runs} runs/point, {len} contexts/run …");
    let fig = figure_for_parallel(&SmartRinger::new(), runs, len, default_threads(), None);
    outln!("{}", render_figure(&fig));
    write_json("cross_kind", &fig);
}
