//! Regenerates the **§5.3 time-window study**: drop-bad effectiveness
//! as the use window varies, with the window-0 point degenerating to
//! drop-latest.
//!
//! Usage: `ablation_window [--quick]`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_experiments::ablation::window_sweep;
use ctxres_experiments::outln;
use ctxres_experiments::render::{render_window_ablation, write_json};
use ctxres_experiments::runner::default_threads;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick { (2, 180) } else { (10, 600) };
    // Windows are bounded by the workload's context TTL (5 ticks):
    // beyond it every context expires before the application can use it.
    let windows = [0u64, 1, 2, 3, 4];
    eprintln!("§5.3 window ablation: call forwarding + drop-bad, {runs} runs × {len} contexts …");
    let ab = window_sweep(
        &CallForwarding::new(),
        &windows,
        0.3,
        runs,
        len,
        default_threads(),
    );
    outln!("{}", render_window_ablation(&ab));
    write_json("ablation_window", &ab);
}
