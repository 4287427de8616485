//! Assembling Figures 9 and 10: strategy-vs-error-rate grids.

use crate::metrics::{normalize_against_oracle, FigurePoint, RunMetrics};
use crate::runner::{run_jobs_parallel, RunJob};
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
    /// All points, strategy-major in presentation order.
    pub points: Vec<FigurePoint>,
    /// Trace length per run.
    pub trace_len: usize,
    /// Seeds per point.
    pub runs_per_point: usize,
}

impl Figure {
    /// The point for a strategy at an error rate.
    pub fn point(&self, strategy: &str, err_rate: f64) -> Option<&FigurePoint> {
        self.points
            .iter()
            .find(|p| p.strategy == strategy && (p.err_rate - err_rate).abs() < 1e-9)
    }
}

/// Runs the full grid for one application (Figure 9 for Call
/// Forwarding, Figure 10 for RFID data anomalies), fanning the seeded
/// runs over `threads` worker threads.
///
/// `runs` seeds per point; the paper uses 20
/// ([`RUNS_PER_POINT`](crate::RUNS_PER_POINT)). Every strategy is paired
/// per-seed against the OPT-R run with the same seed and workload.
///
/// Every `(strategy, error rate, seed)` cell is one independent job
/// ([`RunJob`]); the workers race through the job queue and the results
/// are reassembled in grid order. Because each run is deterministic in
/// its seed, the returned figure — and its serialized JSON — is
/// **bit-identical** whatever the thread count (asserted by a test
/// below). `threads <= 1` runs the grid on the calling thread.
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
    let window = app.recommended_window();
    let jobs = grid_jobs(runs);
    let results = run_jobs_parallel(app, &jobs, len, window, threads, registry);
    assemble_grid(app, &results, runs, len)
}

/// One job per (rate, strategy, seed) cell, opt-r first per rate so its
/// results double as the oracle baseline for that rate.
fn grid_jobs(runs: usize) -> Vec<RunJob> {
    let mut jobs = Vec::new();
    for &err_rate in &ERROR_RATES {
        for strategy in EXPERIMENT_STRATEGIES {
            for i in 0..runs {
                jobs.push(RunJob {
                    strategy: (*strategy).to_owned(),
                    err_rate,
                    seed: seed_for(err_rate, i),
                });
            }
        }
    }
    jobs
}

/// Reassembles fan-out results (in [`grid_jobs`] order) into a
/// [`Figure`].
fn assemble_grid(
    app: &dyn PervasiveApp,
    results: &[RunMetrics],
    runs: usize,
    len: usize,
) -> Figure {
    let mut points = Vec::new();
    let mut cursor = results.chunks(runs);
    for &err_rate in &ERROR_RATES {
        let mut oracle_runs: Vec<RunMetrics> = Vec::new();
        for strategy in EXPERIMENT_STRATEGIES {
            let strategy_runs = cursor
                .next()
                .expect("a chunk per (rate, strategy)")
                .to_vec();
            if strategy == "opt-r" {
                oracle_runs = strategy_runs.clone();
            }
            points.push(normalize_against_oracle(
                strategy,
                err_rate,
                &strategy_runs,
                &oracle_runs,
            ));
        }
    }
    Figure {
        application: app.name().to_owned(),
        points,
        trace_len: len,
        runs_per_point: runs,
    }
}

fn seed_for(err_rate: f64, run: usize) -> u64 {
    // Distinct, stable seeds per (rate, run index).
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
