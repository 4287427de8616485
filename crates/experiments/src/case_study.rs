//! The §5.2 Landmarc case study: survival rate, removal precision, and
//! how often the heuristic rules held.
//!
//! Paper reference values (real Landmarc testbed): survival 96.5 %,
//! removal precision 84.7 %, Rule 1 held always, Rule 2′ held in 91.7 %
//! of cases.

use crate::metrics::Accuracy;
use crate::runner::{fan_out, run_logged, DEFAULT_WINDOW};
use ctxres_apps::location_tracking::LocationTracking;
use ctxres_core::theory::{hold_rates, rule_report};
use ctxres_landmarc::{EstimatorKind, LandmarcConfig};
use serde::{Deserialize, Serialize};

/// Aggregated case-study results.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseStudy {
    /// Corruption probability used.
    pub err_rate: f64,
    /// Seeds aggregated.
    pub runs: usize,
    /// Mean location-context survival rate.
    pub survival: f64,
    /// Mean removal precision.
    pub precision: f64,
    /// Fraction of detected inconsistencies containing ≥ 1 corrupted
    /// context (Rule 1).
    pub rule1_rate: f64,
    /// Fraction where every corrupted member out-counted every expected
    /// member (Rule 2).
    pub rule2_rate: f64,
    /// Fraction where some corrupted member out-counted every expected
    /// member (Rule 2′).
    pub rule2_relaxed_rate: f64,
    /// Total inconsistencies inspected.
    pub inconsistencies: u64,
}

/// Runs the drop-bad case study on the Landmarc location workload,
/// seeds `0..runs`, over `threads` worker threads.
///
/// Each seed runs once: its run yields the survival and precision and
/// logs its detections, and rule rates are measured over each run's
/// full detection log with counts computed across that log — the "how
/// do the heuristic rules hold in practice?" question of §5.2.
pub fn run_case_study(err_rate: f64, runs: usize, len: usize, threads: usize) -> CaseStudy {
    run_case_study_with(LocationTracking::new(), err_rate, runs, len, threads)
}

/// The §5.2 case study with the localization technique swapped — does
/// drop-bad's performance depend on *how* locations are estimated, or
/// only on the error-injection profile? (§6 positions drop-bad as
/// orthogonal to technique-level redundancy; this measures it.)
pub fn run_case_study_for_estimator(
    estimator: EstimatorKind,
    err_rate: f64,
    runs: usize,
    len: usize,
    threads: usize,
) -> CaseStudy {
    let base = LocationTracking::new();
    let config = LandmarcConfig {
        estimator,
        ..base.config().clone()
    };
    run_case_study_with(base.with_config(config), err_rate, runs, len, threads)
}

fn run_case_study_with(
    app: LocationTracking,
    err_rate: f64,
    runs: usize,
    len: usize,
    threads: usize,
) -> CaseStudy {
    let seeds: Vec<u64> = (0..runs as u64).collect();
    let logged = fan_out(&seeds, threads, |_, &seed| {
        run_logged(&app, err_rate, seed, len, DEFAULT_WINDOW)
    });
    let accuracy = Accuracy::mean(logged.iter().map(|run| &run.metrics));
    let verdicts: Vec<_> = logged
        .iter()
        .flat_map(|run| rule_report(&run.detections, |id| run.is_corrupted(id)))
        .collect();
    let (rule1_rate, rule2_rate, rule2_relaxed_rate) = hold_rates(&verdicts);
    CaseStudy {
        err_rate,
        runs,
        survival: accuracy.survival,
        precision: accuracy.precision,
        rule1_rate,
        rule2_rate,
        rule2_relaxed_rate,
        inconsistencies: logged.iter().map(|run| run.detections.len() as u64).sum(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_study_shape_matches_the_paper() {
        // Small-scale run; the binary uses more seeds and longer traces.
        let cs = run_case_study(0.2, 3, 200, 2);
        assert!(cs.inconsistencies > 0, "no inconsistencies detected");
        // Paper: survival 96.5 %, precision 84.7 % — survival should be
        // high and exceed precision.
        assert!(cs.survival > 0.9, "survival {}", cs.survival);
        assert!(cs.precision > 0.5, "precision {}", cs.precision);
        assert!(cs.survival > cs.precision, "survival below precision");
        // Paper: Rule 1 always held; Rule 2' held in 91.7 % of cases.
        assert!(cs.rule1_rate > 0.95, "rule1 {}", cs.rule1_rate);
        assert!(
            cs.rule2_relaxed_rate > 0.6,
            "rule2' {}",
            cs.rule2_relaxed_rate
        );
        assert!(cs.rule2_relaxed_rate >= cs.rule2_rate);
    }
}

#[cfg(test)]
mod estimator_tests {
    use super::*;

    #[test]
    fn fusion_recovers_rule1_that_trilateration_loses() {
        let tri = run_case_study_for_estimator(EstimatorKind::Trilateration, 0.2, 2, 150, 2);
        let fused = run_case_study_for_estimator(EstimatorKind::Fused, 0.2, 2, 150, 2);
        assert!(
            fused.rule1_rate > tri.rule1_rate,
            "fused {:.3} vs trilateration {:.3}",
            fused.rule1_rate,
            tri.rule1_rate
        );
        assert!(fused.survival > tri.survival);
    }
}
