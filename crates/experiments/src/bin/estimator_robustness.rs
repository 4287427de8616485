//! Runs the **estimator-robustness check**: the §5.2 case study with the
//! localization technique swapped between LANDMARC k-NN, trilateration,
//! and their fusion. §6 positions drop-bad as orthogonal to
//! technique-level redundancy — the survival/precision/rule numbers
//! should hold across techniques.
//!
//! Usage: `estimator_robustness [--quick]`.

use ctxres_experiments::case_study::run_case_study_for_estimator;
use ctxres_experiments::outln;
use ctxres_experiments::render::write_json;
use ctxres_experiments::runner::default_threads;
use ctxres_landmarc::EstimatorKind;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let (runs, len) = if quick { (3, 200) } else { (10, 600) };
    outln!(
        "{:<16}{:>10}{:>11}{:>9}{:>9}{:>10}",
        "estimator",
        "survival",
        "precision",
        "rule1",
        "rule2'",
        "incons."
    );
    let mut all = Vec::new();
    for kind in [
        EstimatorKind::Knn,
        EstimatorKind::Trilateration,
        EstimatorKind::Fused,
    ] {
        eprintln!("estimator robustness: {kind:?} …");
        let cs = run_case_study_for_estimator(kind, 0.2, runs, len, default_threads());
        outln!(
            "{:<16}{:>9.1}%{:>10.1}%{:>8.1}%{:>8.1}%{:>10}",
            format!("{kind:?}").to_lowercase(),
            cs.survival * 100.0,
            cs.precision * 100.0,
            cs.rule1_rate * 100.0,
            cs.rule2_relaxed_rate * 100.0,
            cs.inconsistencies
        );
        all.push((format!("{kind:?}").to_lowercase(), cs));
    }
    write_json("estimator_robustness", &all);
}
