//! Assembling Figures 9 and 10: strategy-vs-error-rate grids, and the
//! OPT-R-normalised grid every such comparison runs.

use crate::metrics::{find_point, normalize_against_oracle, FigurePoint};
use crate::runner::{run_jobs, RunJob};
use crate::ERROR_RATES;
use ctxres_apps::PervasiveApp;
use ctxres_core::strategies::EXPERIMENT_STRATEGIES;
use ctxres_obs::ObsRegistry;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A regenerated figure: every (strategy, error-rate) point of one
/// application's comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Figure {
    /// Which application the figure is about.
    pub application: String,
    /// All points, rate-major in presentation order.
    pub points: Vec<FigurePoint>,
    /// Trace length per run.
    pub trace_len: usize,
    /// Seeds per point.
    pub runs_per_point: usize,
}

impl Figure {
    /// The point for a strategy at an error rate.
    pub fn point(&self, strategy: &str, err_rate: f64) -> Option<&FigurePoint> {
        find_point(&self.points, strategy, err_rate)
    }
}

/// Runs the full grid for one application (Figure 9 for Call
/// Forwarding, Figure 10 for RFID data anomalies): the paper's four
/// strategies at its four error rates, `runs` seeds per point (the
/// paper uses 20, [`RUNS_PER_POINT`](crate::RUNS_PER_POINT)), over
/// `threads` worker threads.
///
/// With a `registry`, the grid's runs are recorded into it live (one
/// slot per worker): a scraper hitting the
/// [`ctxres_obs::MetricsServer`] *during* the grid sees real-time
/// ingest/discard/detection rates per worker while the figure
/// computes. Observation never perturbs the figure.
pub fn figure_for_parallel(
    app: &(dyn PervasiveApp + Sync),
    runs: usize,
    len: usize,
    threads: usize,
    registry: Option<&Arc<ObsRegistry>>,
) -> Figure {
    Figure {
        application: app.name().to_owned(),
        points: oracle_grid(
            app,
            &EXPERIMENT_STRATEGIES,
            &ERROR_RATES,
            seed_for,
            runs,
            len,
            threads,
            registry,
        ),
        trace_len: len,
        runs_per_point: runs,
    }
}

/// Runs an OPT-R-normalised strategy × error-rate grid (§4): `runs`
/// cells per (rate, strategy), the `run`-th seeded `seed(rate, run)`,
/// each at the app's recommended window. Every strategy's runs are
/// paired per seed against the OPT-R runs at the same rate, so
/// `strategies` must include `opt-r`; its cells run once and serve as
/// both its own point and the baseline.
///
/// Every cell is one job of [`run_jobs`], so the points — and their
/// serialized JSON — are **bit-identical** whatever the thread count.
/// They come rate-major, in `strategies` order.
///
/// # Panics
///
/// Panics when `strategies` lacks `opt-r` or names an unknown strategy.
#[allow(clippy::too_many_arguments)]
pub(crate) fn oracle_grid(
    app: &(dyn PervasiveApp + Sync),
    strategies: &[&str],
    err_rates: &[f64],
    seed: fn(f64, usize) -> u64,
    runs: usize,
    len: usize,
    threads: usize,
    registry: Option<&Arc<ObsRegistry>>,
) -> Vec<FigurePoint> {
    let oracle = strategies
        .iter()
        .position(|s| *s == "opt-r")
        .expect("an OPT-R-normalised grid runs opt-r");
    let window = app.recommended_window();
    let mut jobs = Vec::new();
    for &err_rate in err_rates {
        for strategy in strategies {
            for run in 0..runs {
                jobs.push(RunJob {
                    strategy: (*strategy).to_owned(),
                    err_rate,
                    seed: seed(err_rate, run),
                    window,
                });
            }
        }
    }
    let results = run_jobs(app, &jobs, len, threads, registry);
    let mut points = Vec::new();
    for (at_rate, &err_rate) in results.chunks(strategies.len() * runs).zip(err_rates) {
        let by_strategy: Vec<_> = at_rate.chunks(runs).collect();
        for (strategy, strategy_runs) in strategies.iter().zip(&by_strategy) {
            points.push(normalize_against_oracle(
                strategy,
                err_rate,
                strategy_runs,
                by_strategy[oracle],
            ));
        }
    }
    points
}

/// The figures' seed rule: distinct, stable seeds per (rate, run
/// index).
fn seed_for(err_rate: f64, run: usize) -> u64 {
    (err_rate * 1000.0) as u64 * 10_000 + run as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_apps::call_forwarding::CallForwarding;

    /// A reduced-scale grid still shows the paper's ordering:
    /// OPT-R ≥ D-BAD > D-LAT, D-ALL; D-ALL worst.
    #[test]
    fn small_grid_reproduces_strategy_ordering() {
        let app = CallForwarding::new();
        let fig = figure_for_parallel(&app, 3, 240, 2, None);
        for &err in &[0.2, 0.3] {
            let opt = fig.point("opt-r", err).unwrap();
            let bad = fig.point("d-bad", err).unwrap();
            let lat = fig.point("d-lat", err).unwrap();
            let all = fig.point("d-all", err).unwrap();
            assert!((opt.ctx_use_rate - 1.0).abs() < 1e-9);
            assert!(
                bad.ctx_use_rate > lat.ctx_use_rate,
                "err {err}: d-bad {} vs d-lat {}",
                bad.ctx_use_rate,
                lat.ctx_use_rate
            );
            assert!(
                bad.ctx_use_rate > all.ctx_use_rate,
                "err {err}: d-bad {} vs d-all {}",
                bad.ctx_use_rate,
                all.ctx_use_rate
            );
            assert!(
                lat.ctx_use_rate > all.ctx_use_rate,
                "err {err}: d-lat {} vs d-all {}",
                lat.ctx_use_rate,
                all.ctx_use_rate
            );
        }
    }

    /// The acceptance bar for the parallel runner: scheduling must not
    /// leak into the output. Serialize a one-thread and a three-thread
    /// figure and compare the *bytes*.
    #[test]
    fn parallel_grid_json_is_byte_identical_to_serial() {
        let app = CallForwarding::new();
        let serial = figure_for_parallel(&app, 2, 60, 1, None);
        let parallel = figure_for_parallel(&app, 2, 60, 3, None);
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }

    #[test]
    fn single_thread_parallel_path_matches_too() {
        let app = CallForwarding::new();
        assert_eq!(
            figure_for_parallel(&app, 1, 40, 1, None),
            figure_for_parallel(&app, 1, 40, 3, None)
        );
    }

    #[test]
    fn exported_grid_is_byte_identical_and_fills_the_registry() {
        let app = CallForwarding::new();
        let registry = ObsRegistry::shared(ctxres_obs::ObsConfig::metrics_only(), 3);
        let serial = figure_for_parallel(&app, 2, 60, 1, None);
        let exported = figure_for_parallel(&app, 2, 60, 3, Some(&registry));
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&exported).unwrap()
        );
        let ingested = registry
            .snapshot()
            .counter(ctxres_obs::CounterKind::Ingested);
        // 4 rates × 4 strategies × 2 seeds × 60 contexts each.
        assert_eq!(ingested, 4 * 4 * 2 * 60);
    }

    #[test]
    fn points_cover_the_full_grid() {
        let app = CallForwarding::new();
        let fig = figure_for_parallel(&app, 1, 60, 2, None);
        assert_eq!(fig.points.len(), 16);
        for &err in &crate::ERROR_RATES {
            for s in ctxres_core::strategies::EXPERIMENT_STRATEGIES {
                assert!(fig.point(s, err).is_some(), "missing ({s}, {err})");
            }
        }
    }
}
