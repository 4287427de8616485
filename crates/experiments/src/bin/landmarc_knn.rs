//! Runs the LANDMARC estimator ablation (error vs k and grid density) —
//! the substrate-validity check behind the §5.2 case study.
//!
//! Usage: `landmarc_knn [--quick]`.

use ctxres_experiments::landmarc_knn::{knn_sweep, render_knn};
use ctxres_experiments::outln;
use ctxres_experiments::render::write_json;
use ctxres_experiments::runner::default_threads;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let samples = if quick { 300 } else { 2000 };
    eprintln!("landmarc estimator ablation, {samples} fixes per configuration …");
    let points = knn_sweep(
        &[1, 2, 3, 4, 6, 8],
        &[1.0, 2.0, 4.0, 6.0],
        samples,
        11,
        default_threads(),
    );
    outln!("{}", render_knn(&points));
    write_json("landmarc_knn", &points);
}
