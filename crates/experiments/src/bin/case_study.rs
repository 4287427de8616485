//! Regenerates the **§5.2 case study**: drop-bad on the LANDMARC
//! location workload — survival rate, removal precision, and how often
//! heuristic Rules 1, 2 and 2′ held.
//!
//! Usage: `case_study [--quick]`.

use ctxres_experiments::case_study::run_case_study;
use ctxres_experiments::outln;
use ctxres_experiments::render::{render_case_study, write_json};
use ctxres_experiments::runner::default_threads;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick { (3, 200) } else { (10, 600) };
    eprintln!("§5.2 case study: landmarc + drop-bad, {runs} runs × {len} fixes …");
    let cs = run_case_study(0.2, runs, len, default_threads());
    outln!("{}", render_case_study(&cs));
    write_json("case_study", &cs);
}
