//! Driving application traces through middleware configurations: one
//! run per cell of an experiment grid, and the one fan-out that spreads
//! a grid's cells over worker threads.

use crate::metrics::RunMetrics;
use crate::telemetry::CellTelemetry;
use ctxres_apps::{impact_profile, PervasiveApp};
use ctxres_context::{Context, ContextId, Ticks};
use ctxres_core::strategies::{by_name, DropBad, ImpactAwareDropBad, UserPolicy};
use ctxres_core::{Inconsistency, ResolutionStrategy};
use ctxres_middleware::{Middleware, MiddlewareBuilder, MiddlewareConfig, MiddlewareObserver};
use ctxres_obs::{MetricsServer, ObsConfig, ObsRegistry, ShardObs, METRICS_ADDR_ENV};
use std::sync::{Arc, Mutex};

/// The middleware time window used by the figure experiments: long
/// enough for drop-bad to accumulate count evidence across each
/// subject's next few contexts (subjects emit every 3–6 ticks).
pub const DEFAULT_WINDOW: u64 = 12;

/// Records every inconsistency an engine detects, in detection order,
/// behind a handle its clones share.
#[derive(Debug, Default, Clone)]
struct DetectionLog(Arc<Mutex<Vec<Inconsistency>>>);

impl MiddlewareObserver for DetectionLog {
    fn on_detections(&mut self, fresh: &[Inconsistency]) {
        self.0
            .lock()
            .expect("no holder of the detection log panicked")
            .extend_from_slice(fresh);
    }
}

/// The strategy a grid cell names: one of the paper's ([`by_name`]), or
/// the extended comparison's `d-bad-impact` (profiled from `app`'s
/// situations) and `d-pol` (no rules, so every member is equally
/// trusted).
///
/// # Panics
///
/// Panics on an unknown strategy name (the experiment grids only use
/// the fixed sets of §4 and the extended comparison).
pub(crate) fn strategy_for(
    app: &dyn PervasiveApp,
    name: &str,
    seed: u64,
) -> Box<dyn ResolutionStrategy + Send> {
    match name {
        "d-bad-impact" => Box::new(ImpactAwareDropBad::new(impact_profile(&app.situations()))),
        "d-pol" => Box::new(UserPolicy::default()),
        other => by_name(other, seed).unwrap_or_else(|| panic!("unknown strategy {other:?}")),
    }
}

/// Runs `app`'s workload through a freshly built middleware using the
/// given strategy instance, and harvests metrics.
pub fn run_with(
    app: &dyn PervasiveApp,
    strategy: Box<dyn ResolutionStrategy + Send>,
    err_rate: f64,
    seed: u64,
    len: usize,
    window: u64,
) -> RunMetrics {
    run_instrumented(
        app,
        strategy,
        err_rate,
        seed,
        len,
        window,
        ShardObs::disabled(),
    )
}

/// A drop-bad run with its detection log: the input of the §5.2
/// heuristic-rule monitors and of constraint coverage.
#[derive(Debug, Clone)]
pub(crate) struct LoggedRun {
    /// The run's metrics, as [`run_with`] harvests them.
    pub metrics: RunMetrics,
    /// Every inconsistency the engine detected, in detection order.
    pub detections: Vec<Inconsistency>,
    /// Whether each context of the trace, indexed by its id, was
    /// generated corrupted.
    corrupted: Vec<bool>,
}

impl LoggedRun {
    /// Whether the run's context `id` was generated corrupted.
    pub(crate) fn is_corrupted(&self, id: ContextId) -> bool {
        self.corrupted
            .get(id.raw() as usize)
            .copied()
            .unwrap_or(false)
    }
}

/// [`run_with`] for drop-bad, logging every inconsistency the run's
/// engine detects next to the metrics it harvests.
pub(crate) fn run_logged(
    app: &dyn PervasiveApp,
    err_rate: f64,
    seed: u64,
    len: usize,
    window: u64,
) -> LoggedRun {
    let trace = app.generate(err_rate, seed, len);
    let corrupted = trace.iter().map(|c| c.truth().is_corrupted()).collect();
    let log = DetectionLog::default();
    let mw = engine(app, Box::new(DropBad::new()), window, ShardObs::disabled())
        .observer(Box::new(log.clone()))
        .build();
    let metrics = run_trace(mw, trace, err_rate, seed);
    let detections = std::mem::take(
        &mut *log
            .0
            .lock()
            .expect("no holder of the detection log panicked"),
    );
    LoggedRun {
        metrics,
        detections,
        corrupted,
    }
}

fn run_instrumented(
    app: &dyn PervasiveApp,
    strategy: Box<dyn ResolutionStrategy + Send>,
    err_rate: f64,
    seed: u64,
    len: usize,
    window: u64,
    obs: ShardObs,
) -> RunMetrics {
    let mw = engine(app, strategy, window, obs).build();
    run_trace(mw, app.generate(err_rate, seed, len), err_rate, seed)
}

/// Submits `trace` one context at a time, drains, and harvests the
/// cell's metrics.
fn run_trace(mut mw: Middleware, trace: Vec<Context>, err_rate: f64, seed: u64) -> RunMetrics {
    for ctx in trace {
        mw.submit(ctx);
    }
    mw.drain();
    harvest_metrics(&mut mw, err_rate, seed)
}

/// The middleware every run deploys: the app's constraints, situations
/// and registry, ground-truth tracking on.
fn engine(
    app: &dyn PervasiveApp,
    strategy: Box<dyn ResolutionStrategy + Send>,
    window: u64,
    obs: ShardObs,
) -> MiddlewareBuilder {
    Middleware::builder()
        .constraints(app.constraints())
        .situations(app.situations())
        .registry(app.registry())
        .strategy(strategy)
        .config(MiddlewareConfig {
            window: Ticks::new(window),
            track_ground_truth: true,
            retention: None,
        })
        .obs(obs)
}

/// Folds a drained middleware's counters into the cell's [`RunMetrics`].
fn harvest_metrics(mw: &mut Middleware, err_rate: f64, seed: u64) -> RunMetrics {
    let stats = *mw.stats();
    RunMetrics {
        strategy: mw.strategy_name().to_owned(),
        err_rate,
        seed,
        used_expected: stats.delivered_expected,
        used_corrupted: stats.delivered_corrupted,
        matched_activations: mw.matched_activations(),
        raw_activations: stats.situation_activations,
        discarded: stats.discarded,
        discarded_expected: stats.discarded_expected,
        discarded_corrupted: stats.discarded_corrupted,
        inconsistencies: stats.inconsistencies,
        survival: stats.survival_rate(),
        precision: stats.removal_precision(),
        activation_latency: mw.mean_activation_latency(),
    }
}

/// [`run_with`] for a strategy identified by its name: one of the
/// paper's, `d-bad-impact` or `d-pol`.
///
/// # Panics
///
/// Panics on an unknown strategy name.
pub fn run_named(
    app: &dyn PervasiveApp,
    strategy: &str,
    err_rate: f64,
    seed: u64,
    len: usize,
    window: u64,
) -> RunMetrics {
    let strategy = strategy_for(app, strategy, seed);
    run_with(app, strategy, err_rate, seed, len, window)
}

/// [`run_named`] recording a full observability record: the run's
/// middleware gets a handle into a fresh single-shard [`ObsRegistry`],
/// and the harvested [`CellTelemetry`] tags the drained trace and
/// metrics snapshot with the `(strategy, err_rate, seed)` cell they
/// came from.
///
/// # Panics
///
/// Panics on an unknown strategy name.
pub fn run_named_observed(
    app: &dyn PervasiveApp,
    strategy: &str,
    err_rate: f64,
    seed: u64,
    len: usize,
    window: u64,
    config: ObsConfig,
) -> (RunMetrics, CellTelemetry) {
    let registry = ObsRegistry::shared(config, 1);
    let (strategy, obs) = (strategy_for(app, strategy, seed), registry.handle(0));
    let metrics = run_instrumented(app, strategy, err_rate, seed, len, window, obs);
    let telemetry = CellTelemetry::collect(&metrics.strategy, err_rate, seed, &registry);
    (metrics, telemetry)
}

/// One cell of a grid of named strategies: a strategy at an error rate
/// and a use window, with a seed.
#[derive(Debug, Clone, PartialEq)]
pub struct RunJob {
    /// Strategy name (`opt-r`, `d-bad`, …, `d-bad-impact`, `d-pol`).
    pub strategy: String,
    /// Workload corruption probability.
    pub err_rate: f64,
    /// Workload seed.
    pub seed: u64,
    /// Middleware use window, in ticks.
    pub window: u64,
}

/// Runs a list of jobs over `threads` worker threads, through the one
/// fan-out every experiment grid uses, and returns their metrics in job
/// order, bit-identical at every thread count.
///
/// With a `registry`, worker `w` records live metrics into registry
/// slot `w % registry.shards()`, so a [`ctxres_obs::Sampler`] or
/// [`MetricsServer`] scraping the registry *while the grid runs* sees
/// per-worker ingest/discard/delivery rates; the results are the same —
/// the registry only observes. Use [`ObsConfig::metrics_only`] for the
/// registry unless the event timeline is wanted too: counters and
/// histograms are atomics, so workers sharing a slot never contend on a
/// lock.
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated) or on an unknown
/// strategy name.
pub fn run_jobs(
    app: &(dyn PervasiveApp + Sync),
    jobs: &[RunJob],
    len: usize,
    threads: usize,
    registry: Option<&Arc<ObsRegistry>>,
) -> Vec<RunMetrics> {
    fan_out(jobs, threads, |worker, job| {
        let obs = registry.map_or_else(ShardObs::disabled, |r| r.handle(worker % r.shards()));
        let strategy = strategy_for(app, &job.strategy, job.seed);
        run_instrumented(app, strategy, job.err_rate, job.seed, len, job.window, obs)
    })
}

/// Opt-in live telemetry for experiment binaries: when
/// [`METRICS_ADDR_ENV`] (`CTXRES_METRICS_ADDR`) is set, builds a
/// metrics-only registry with `slots` shards (one per worker thread)
/// and serves it at that address. Returns `None` — run unobserved —
/// when the variable is unset; a bind failure is reported on stderr and
/// also degrades to `None` rather than killing the run.
pub fn export_registry_from_env(slots: usize) -> Option<(Arc<ObsRegistry>, MetricsServer)> {
    if std::env::var(METRICS_ADDR_ENV).map_or(true, |v| v.trim().is_empty()) {
        return None;
    }
    let registry = ObsRegistry::shared(ObsConfig::metrics_only(), slots.max(1));
    let server = MetricsServer::from_env(&registry)?;
    Some((registry, server))
}

/// The one runner of every experiment grid: a work queue feeding
/// `threads` workers, each cell's result reassembled **in cell order**,
/// so the output is the same whatever the scheduling (every run is
/// seeded) and bit-identical at every thread count (asserted by this
/// module's tests). Each invocation gets the index of the worker thread
/// running it (`0..threads`; always `0` on the serial path), which
/// picks a stable registry slot per worker, so live rates decompose by
/// worker rather than smearing over one counter.
///
/// `threads <= 1` runs the cells serially on the calling thread.
///
/// # Panics
///
/// Panics if a worker panics (the panic is propagated).
pub(crate) fn fan_out<C: Sync, T: Send>(
    cells: &[C],
    threads: usize,
    run: impl Fn(usize, &C) -> T + Sync,
) -> Vec<T> {
    let workers = threads.min(cells.len());
    if workers <= 1 {
        return cells.iter().map(|cell| run(0, cell)).collect();
    }
    let (cell_tx, cell_rx) = crossbeam::channel::unbounded::<usize>();
    let (out_tx, out_rx) = crossbeam::channel::unbounded::<(usize, T)>();
    for idx in 0..cells.len() {
        cell_tx.send(idx).expect("queue cells");
    }
    drop(cell_tx);

    let mut slots: Vec<Option<T>> = Vec::new();
    slots.resize_with(cells.len(), || None);
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for worker in 0..workers {
            let cell_rx = cell_rx.clone();
            let out_tx = out_tx.clone();
            let run = &run;
            handles.push(scope.spawn(move || {
                for idx in cell_rx {
                    if out_tx.send((idx, run(worker, &cells[idx]))).is_err() {
                        break;
                    }
                }
            }));
        }
        drop(out_tx);
        for (idx, result) in out_rx {
            slots[idx] = Some(result);
        }
        for h in handles {
            if let Err(payload) = h.join() {
                std::panic::resume_unwind(payload);
            }
        }
    });
    slots
        .into_iter()
        .map(|m| m.expect("every cell produced a result"))
        .collect()
}

/// Worker-thread count for experiment grids: `CTXRES_THREADS` when set,
/// otherwise the machine's available parallelism.
pub fn default_threads() -> usize {
    if let Ok(v) = std::env::var("CTXRES_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_apps::call_forwarding::CallForwarding;
    use ctxres_apps::rfid_anomalies::RfidAnomalies;

    #[test]
    fn oracle_run_has_perfect_rates() {
        let app = CallForwarding::new();
        let m = run_named(&app, "opt-r", 0.2, 7, 120, app.recommended_window());
        assert_eq!(m.used_corrupted, 0);
        assert_eq!(m.discarded_expected, 0);
        assert_eq!(m.survival, 1.0);
        assert_eq!(m.precision, 1.0);
        assert!(m.used_expected > 0);
    }

    #[test]
    fn drop_bad_beats_drop_all_on_used_contexts() {
        let app = CallForwarding::new();
        let bad = run_named(&app, "d-bad", 0.3, 3, 200, app.recommended_window());
        let all = run_named(&app, "d-all", 0.3, 3, 200, app.recommended_window());
        assert!(
            bad.used_expected > all.used_expected,
            "d-bad {} vs d-all {}",
            bad.used_expected,
            all.used_expected
        );
    }

    #[test]
    fn runs_are_reproducible() {
        let app = RfidAnomalies::new();
        let a = run_named(&app, "d-bad", 0.2, 5, 150, app.recommended_window());
        let b = run_named(&app, "d-bad", 0.2, 5, 150, app.recommended_window());
        assert_eq!(a, b);
    }

    #[test]
    fn zero_error_rate_all_strategies_agree_with_oracle() {
        let app = RfidAnomalies::new();
        let oracle = run_named(&app, "opt-r", 0.0, 9, 150, app.recommended_window());
        for s in ["d-bad", "d-lat", "d-all"] {
            let m = run_named(&app, s, 0.0, 9, 150, app.recommended_window());
            assert_eq!(m.used_expected, oracle.used_expected, "{s}");
            assert_eq!(m.discarded, 0, "{s} discarded on a clean trace");
        }
    }

    #[test]
    #[should_panic(expected = "unknown strategy")]
    fn unknown_strategy_panics() {
        let app = CallForwarding::new();
        let _ = run_named(&app, "d-nope", 0.1, 1, 10, DEFAULT_WINDOW);
    }

    #[test]
    fn exported_grid_matches_serial_and_counts_every_submission() {
        let app = CallForwarding::new();
        let jobs: Vec<RunJob> = ["d-bad", "d-all", "d-lat", "opt-r"]
            .iter()
            .flat_map(|s| {
                (0..3).map(|seed| RunJob {
                    strategy: (*s).to_owned(),
                    err_rate: 0.2,
                    seed,
                    window: app.recommended_window(),
                })
            })
            .collect();
        let len = 80;
        let serial = run_jobs(&app, &jobs, len, 1, None);

        let registry = ObsRegistry::shared(ObsConfig::metrics_only(), 3);
        let exported = run_jobs(&app, &jobs, len, 3, Some(&registry));
        assert_eq!(serial, exported, "observation must not perturb results");
        // Every submitted context of every job landed in the shared
        // registry: the live endpoint sees the whole grid.
        assert_eq!(
            registry
                .snapshot()
                .counter(ctxres_obs::CounterKind::Ingested),
            (jobs.len() * len) as u64
        );
        // Metrics-only: no per-event ring traffic from the grid.
        assert!(registry.drain().is_empty());
    }

    /// Every experiment that fans its cells out serialises the same
    /// bytes on one worker thread as on three.
    #[test]
    fn every_grid_is_thread_count_independent() {
        use crate::ablation::{tie_policy_comparison, window_study};
        use crate::case_study::run_case_study;
        use crate::coverage::constraint_coverage;
        use crate::extended::extended_comparison;
        use crate::landmarc_knn::knn_sweep;
        use crate::sensitivity::stress_error_rates;
        fn json(value: &impl serde::Serialize) -> String {
            serde_json::to_string(value).expect("results serialise")
        }
        let (app, rfid) = (CallForwarding::new(), RfidAnomalies::new());
        let grids = |threads: usize| {
            [
                json(&extended_comparison(&app, &[0.3], 2, 60, threads)),
                json(&stress_error_rates(&app, &[0.6], 2, 60, threads)),
                json(&window_study(&[&app, &rfid], &[0, 2], 0.3, 2, 60, threads)),
                json(&tie_policy_comparison(&app, &[0.3], 2, 60, 3, threads)),
                json(&run_case_study(0.2, 2, 60, threads)),
                json(&constraint_coverage(&app, 0.3, 2, 60, threads)),
                json(&knn_sweep(&[1, 4], &[4.0], 40, 1, threads)),
            ]
        };
        assert_eq!(grids(1), grids(3));
    }

    #[test]
    fn export_registry_from_env_is_none_when_unset() {
        // The test runner does not set CTXRES_METRICS_ADDR (and tests
        // must not mutate the process environment); the helper must
        // degrade to unobserved.
        if std::env::var(METRICS_ADDR_ENV).is_err() {
            assert!(export_registry_from_env(4).is_none());
        }
    }
}
