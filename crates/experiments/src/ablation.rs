//! Ablations: the §5.3 time-window study and the §5.1 tie-policy
//! comparison.

use crate::latency::{latency_dial, LatencyPoint};
use crate::metrics::{Accuracy, RunMetrics};
use crate::runner::{fan_out, run_jobs, run_named, run_with, RunJob};
use ctxres_apps::PervasiveApp;
use ctxres_core::strategies::DropBad;
use ctxres_core::TiePolicy;
use serde::{Deserialize, Serialize};

/// One point of the window sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowPoint {
    /// The middleware window, in ticks.
    pub window: u64,
    /// Mean expected contexts used by drop-bad at this window.
    pub used_expected: f64,
    /// Mean survival rate.
    pub survival: f64,
    /// Mean removal precision.
    pub precision: f64,
}

/// Result of the window ablation: drop-bad across windows, plus the
/// drop-latest reference the zero window must degenerate to (§5.3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WindowAblation {
    /// Swept points, ascending window.
    pub points: Vec<WindowPoint>,
    /// Drop-latest at the same workload (reference line).
    pub drop_latest_used_expected: f64,
    /// Error rate used.
    pub err_rate: f64,
}

/// The §5.3 window study, both of its summaries from one grid.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct WindowStudy {
    /// Drop-bad across windows on the first application, against its
    /// drop-latest reference (`ablation_window.json`).
    pub ablation: WindowAblation,
    /// Each application's latency dial, keyed by its name
    /// (`latency.json`).
    pub dials: Vec<(String, Vec<LatencyPoint>)>,
}

/// One job per (window, seed) for `strategy`: window-major, seeds
/// `0..runs`.
fn window_jobs(strategy: &str, windows: &[u64], err_rate: f64, runs: usize) -> Vec<RunJob> {
    windows
        .iter()
        .flat_map(|&window| {
            (0..runs as u64).map(move |seed| RunJob {
                strategy: strategy.to_owned(),
                err_rate,
                seed,
                window,
            })
        })
        .collect()
}

/// Drop-bad's cells, window-major with `runs` seeds per window, as the
/// sweep's points.
fn window_points(windows: &[u64], cells: &[RunMetrics], runs: usize) -> Vec<WindowPoint> {
    windows
        .iter()
        .zip(cells.chunks(runs))
        .map(|(&window, runs)| {
            let accuracy = Accuracy::mean(runs);
            WindowPoint {
                window,
                used_expected: accuracy.used_expected,
                survival: accuracy.survival,
                precision: accuracy.precision,
            }
        })
        .collect()
}

/// Sweeps the drop-bad time window over `windows` on every application
/// of `apps` (paper §5.3: "the study of impact of time window on the
/// effectiveness of the drop-bad resolution strategy would deserve
/// exploring" — this is that study), plus drop-latest at window 0 on
/// the first, over `threads` worker threads. One grid runs every cell
/// once; the first application's cells make the window ablation and
/// each application's its latency dial.
///
/// # Panics
///
/// Panics when `apps` is empty.
pub fn window_study(
    apps: &[&(dyn PervasiveApp + Sync)],
    windows: &[u64],
    err_rate: f64,
    runs: usize,
    len: usize,
    threads: usize,
) -> WindowStudy {
    assert!(!apps.is_empty(), "the window study needs an application");
    let mut cells: Vec<(usize, RunJob)> = Vec::new();
    for app in 0..apps.len() {
        let jobs = window_jobs("d-bad", windows, err_rate, runs);
        cells.extend(jobs.into_iter().map(|job| (app, job)));
    }
    let jobs = window_jobs("d-lat", &[0], err_rate, runs);
    cells.extend(jobs.into_iter().map(|job| (0, job)));
    let results = fan_out(&cells, threads, |_, (app, job)| {
        let app = apps[*app];
        run_named(app, &job.strategy, job.err_rate, job.seed, len, job.window)
    });
    let per_app = windows.len() * runs;
    let (swept, drop_latest) = results.split_at(apps.len() * per_app);
    WindowStudy {
        ablation: WindowAblation {
            points: window_points(windows, &swept[..per_app], runs),
            drop_latest_used_expected: Accuracy::mean(drop_latest).used_expected,
            err_rate,
        },
        dials: (apps.iter().zip(swept.chunks(per_app)))
            .map(|(app, cells)| (app.name().to_owned(), latency_dial(windows, cells, runs)))
            .collect(),
    }
}

/// Picks the window maximizing drop-bad's expected-context throughput
/// for a workload — how the per-application
/// [`PervasiveApp::recommended_window`] values in `ctxres-apps` were
/// chosen. Returns `(best_window, its mean used_expected)`.
pub fn calibrate_window(
    app: &(dyn PervasiveApp + Sync),
    candidates: &[u64],
    err_rate: f64,
    runs: usize,
    len: usize,
    threads: usize,
) -> (u64, f64) {
    let jobs = window_jobs("d-bad", candidates, err_rate, runs);
    let cells = run_jobs(app, &jobs, len, threads, None);
    window_points(candidates, &cells, runs)
        .into_iter()
        .map(|p| (p.window, p.used_expected))
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("at least one candidate window")
}

/// One aggregated row of the tie-policy ablation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TiePolicyPoint {
    /// Policy name (`doomused` / `blamepeer`).
    pub policy: String,
    /// Error rate.
    pub err_rate: f64,
    /// Mean expected contexts used.
    pub used_expected: f64,
    /// Mean survival rate.
    pub survival: f64,
    /// Mean removal precision.
    pub precision: f64,
}

/// Compares the two §5.1 tie *policies* (what to do when the used
/// context ties at the maximal count value): discard it, or deliver it
/// and mark a tied rival bad. Seeds `0..runs` per (rate, policy), over
/// `threads` worker threads.
pub fn tie_policy_comparison(
    app: &(dyn PervasiveApp + Sync),
    err_rates: &[f64],
    runs: usize,
    len: usize,
    window: u64,
    threads: usize,
) -> Vec<TiePolicyPoint> {
    let mut cells = Vec::new();
    for &err_rate in err_rates {
        for policy in [TiePolicy::DoomUsed, TiePolicy::BlamePeer] {
            cells.extend((0..runs as u64).map(|seed| (err_rate, policy, seed)));
        }
    }
    let results = fan_out(&cells, threads, |_, &(err_rate, policy, seed)| {
        let strategy = Box::new(DropBad::with_tie_policy(policy));
        run_with(app, strategy, err_rate, seed, len, window)
    });
    cells
        .chunks(runs)
        .zip(results.chunks(runs))
        .map(|(cells, runs)| {
            let (err_rate, policy, _) = cells[0];
            let accuracy = Accuracy::mean(runs);
            TiePolicyPoint {
                policy: format!("{policy:?}").to_lowercase(),
                err_rate,
                used_expected: accuracy.used_expected,
                survival: accuracy.survival,
                precision: accuracy.precision,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_apps::call_forwarding::CallForwarding;

    #[test]
    fn zero_window_matches_drop_latest() {
        let app = CallForwarding::new();
        let ab = window_study(&[&app], &[0, 3], 0.3, 2, 180, 2).ablation;
        let zero = &ab.points[0];
        assert_eq!(zero.window, 0);
        assert!(
            (zero.used_expected - ab.drop_latest_used_expected).abs() < 1e-9,
            "window 0 drop-bad {} vs drop-latest {}",
            zero.used_expected,
            ab.drop_latest_used_expected
        );
    }

    #[test]
    fn wider_window_recovers_expected_contexts() {
        // §5.3: the window is what lets drop-bad outperform drop-latest;
        // with it, fewer expected contexts are lost.
        let app = CallForwarding::new();
        let ab = window_study(&[&app], &[0, 3], 0.3, 2, 180, 2).ablation;
        assert!(
            ab.points[1].used_expected > ab.points[0].used_expected,
            "window 12 used {} not above window 0 {}",
            ab.points[1].used_expected,
            ab.points[0].used_expected
        );
    }

    #[test]
    fn calibration_recovers_the_recommended_window() {
        let app = CallForwarding::new();
        let (best, used) = calibrate_window(&app, &[0, 2, 3, 4], 0.3, 3, 240, 2);
        assert!(used > 0.0);
        let recommended = app.recommended_window();
        assert!(
            (best as i64 - recommended as i64).abs() <= 1,
            "calibrated {best} vs recommended {recommended}"
        );
    }

    #[test]
    fn tie_policy_comparison_covers_grid() {
        let app = CallForwarding::new();
        let points = tie_policy_comparison(&app, &[0.2, 0.4], 1, 90, 3, 2);
        assert_eq!(points.len(), 4);
        assert!(points.iter().any(|p| p.policy == "doomused"));
        assert!(points.iter().any(|p| p.policy == "blamepeer"));
    }
}
