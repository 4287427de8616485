//! The `paper-apps` workload: the Figure 9/10 grids — call forwarding
//! and RFID anomalies, all four experiment strategies, error rates
//! 0.1–0.4, 600-context traces, the app's recommended window, ground
//! truth tracked — through serial `Middleware::submit`.
//!
//! An episode is the whole grid for one seed index `i` (the figures'
//! `i`-th seed of every point: 32 cells). Every cell's outcome is
//! checked against `reference/paper_apps.txt`, which holds a digest of
//! each cell of all 20 seed indices and was written by
//! [`write_reference`] only after the same cells, averaged, reproduced
//! `results/figure9.json` and `results/figure10.json` byte for byte.

use crate::digest::{fnv, mix, Digest, VerdictTap};
use crate::layers::{replay_stream, Instruments, ReplayCost};
use crate::measure::nanos;
use crate::run::{close_call, engine_call, fold_stamps, open_call, Bench, Episode, Layers, Shape};
use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::PervasiveApp;
use ctxres_context::{Context, Ticks};
use ctxres_core::strategies::{by_name, EXPERIMENT_STRATEGIES};
use ctxres_experiments::figures::Figure;
use ctxres_experiments::metrics::{normalize_against_oracle, RunMetrics};
use ctxres_experiments::runner::run_named;
use ctxres_experiments::{ERROR_RATES, RUNS_PER_POINT, TRACE_LEN};
use ctxres_middleware::{Middleware, MiddlewareConfig};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

/// The committed per-cell reference digests.
pub const REFERENCE: &str = include_str!("../reference/paper_apps.txt");

/// Retention horizon of the isolated replay (the engine keeps
/// everything; the replay compacts like the city deployment would).
const REPLAY_RETENTION: u64 = 512;

/// The figures' seed for the `run`-th seed index of a point (the same
/// rule `ctxres_experiments::figures` uses).
pub fn seed_for(err_rate: f64, run: usize) -> u64 {
    (err_rate * 1000.0) as u64 * 10_000 + run as u64
}

/// The two paper applications, in figure order.
pub fn apps() -> Vec<Box<dyn PervasiveApp + Sync>> {
    vec![
        Box::new(CallForwarding::new()),
        Box::new(RfidAnomalies::new()),
    ]
}

/// A digest of one cell's metrics, every field at full precision.
pub fn cell_hash(m: &RunMetrics) -> u64 {
    let words = [
        m.err_rate.to_bits(),
        m.seed,
        m.used_expected,
        m.used_corrupted,
        m.matched_activations,
        m.raw_activations,
        m.discarded,
        m.discarded_expected,
        m.discarded_corrupted,
        m.inconsistencies,
        m.survival.to_bits(),
        m.precision.to_bits(),
        m.activation_latency.map_or(u64::MAX, f64::to_bits),
    ];
    let h = fnv(0xcbf2_9ce4_8422_2325, m.strategy.as_bytes());
    words.iter().fold(h, |h, w| mix(h ^ w))
}

fn cell_key(app: &str, strategy: &str, seed: u64) -> String {
    format!("{app}/{strategy}/{seed}")
}

/// Parses the committed reference into `key → digest`.
pub fn parse_reference(text: &str) -> HashMap<String, u64> {
    text.lines()
        .filter(|l| !l.trim().is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let mut parts = l.split_whitespace();
            let (app, strategy, seed, hash) =
                (parts.next()?, parts.next()?, parts.next()?, parts.next()?);
            let seed = seed.parse().ok()?;
            let hash = u64::from_str_radix(hash, 16).ok()?;
            Some((cell_key(app, strategy, seed), hash))
        })
        .collect()
}

/// The paper grids for one seed index, with every trace generated up
/// front (so memory growth measures the engine, not the traces).
pub struct PaperBench {
    apps: Vec<Box<dyn PervasiveApp + Sync>>,
    seed_index: usize,
    /// `traces[app][rate]`.
    traces: Vec<Vec<Vec<Context>>>,
    reference: HashMap<String, u64>,
}

impl PaperBench {
    /// The grids for seed index `seed % 20`: the workload has only 20
    /// distinct inputs, and index 19 is the held-out one (see the
    /// README).
    pub fn new(seed: u64) -> Self {
        let apps = apps();
        let seed_index = (seed % RUNS_PER_POINT as u64) as usize;
        let traces = apps
            .iter()
            .map(|app| {
                ERROR_RATES
                    .iter()
                    .map(|&rate| app.generate(rate, seed_for(rate, seed_index), TRACE_LEN))
                    .collect()
            })
            .collect();
        PaperBench {
            apps,
            seed_index,
            traces,
            reference: parse_reference(REFERENCE),
        }
    }
}

/// The engine a figure cell deploys (the experiments runner's
/// configuration), with instruments attached in a traced episode.
fn cell_engine(
    app: &dyn PervasiveApp,
    strategy: &str,
    seed: u64,
    inst: Option<&Instruments>,
    tap: Option<&VerdictTap>,
) -> Middleware {
    let strategy = by_name(strategy, seed).expect("experiment strategies resolve by name");
    let constraints = app.constraints();
    let situations = app.situations();
    let mut registry = app.registry();
    let mut b = Middleware::builder().config(MiddlewareConfig {
        window: Ticks::new(app.recommended_window()),
        track_ground_truth: true,
        retention: None,
    });
    match inst {
        None => b = b.strategy(strategy),
        Some(inst) => {
            let formulas: Vec<_> = constraints.iter().chain(&situations).cloned().collect();
            registry = inst.registry(registry, &formulas);
            b = b.strategy(inst.strategy(strategy)).obs(inst.obs.handle(0));
        }
    }
    if let Some(tap) = tap {
        b = b.observer(Box::new(tap.clone()));
    }
    b.constraints(constraints)
        .situations(situations)
        .registry(registry)
        .build()
}

/// A drained cell's metrics (the experiments runner's harvest).
fn harvest(mw: &Middleware, strategy: &str, err_rate: f64, seed: u64) -> RunMetrics {
    let stats = *mw.stats();
    RunMetrics {
        strategy: strategy.to_owned(),
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

impl Bench for PaperBench {
    fn shape(&self) -> Shape {
        let strategies = EXPERIMENT_STRATEGIES.len();
        let cells = self.traces.iter().map(Vec::len).sum::<usize>() * strategies;
        let calls = self.traces.iter().flatten().map(Vec::len).sum::<usize>() * strategies;
        // One drain per cell.
        Shape {
            ops: calls + cells,
            calls,
            setups: cells,
        }
    }

    fn episode(&mut self, inst: Option<&Instruments>, layers: &mut Layers, ep: &mut Episode) {
        let traced = inst.is_some();
        let idx = self.seed_index;
        let spans = inst.map(|i| i.spans.clone()).unwrap_or_default();
        let root = traced.then(|| spans.open("episode", None, idx as u64));
        let mut cell_no = 0u64;
        for (a, app) in self.apps.iter().enumerate() {
            for (r, &rate) in ERROR_RATES.iter().enumerate() {
                let seed = seed_for(rate, idx);
                let trace = &self.traces[a][r];
                for strategy in EXPERIMENT_STRATEGIES {
                    let tag = cell_no;
                    cell_no += 1;
                    let start = Instant::now();
                    let tap = traced.then(VerdictTap::stamped);
                    let mut mw = cell_engine(app.as_ref(), strategy, seed, inst, tap.as_ref());
                    ep.setup_s.push(ep.seconds(start.elapsed()));
                    let cell = traced.then(|| spans.open("paper.cell", root, tag));
                    for ctx in trace {
                        let ctx = ctx.clone();
                        let call =
                            traced.then(|| open_call(&spans, "middleware.submit", cell, tag));
                        let start = Instant::now();
                        let (res, took) = engine_call(ep, traced, || {
                            catch_unwind(AssertUnwindSafe(|| mw.submit(ctx)))
                        });
                        ep.contexts += 1;
                        if res.is_err() {
                            ep.failed += 1;
                        }
                        ep.call_us.push(ep.micros(took));
                        if let (Some(call), Some(tap)) = (call, &tap) {
                            close_call(&spans, call);
                            layers.submit_ns += nanos(took);
                            fold_stamps(layers, &spans, call, tag, start, &tap.take_stamps());
                            layers.live_slots_max =
                                layers.live_slots_max.max(mw.pool().live_slots() as u64);
                        }
                    }
                    let call = traced.then(|| open_call(&spans, "middleware.drain", cell, tag));
                    let (_, took) = engine_call(ep, traced, || mw.drain());
                    if let Some(call) = call {
                        close_call(&spans, call);
                        layers.drain_ns += nanos(took);
                    }
                    if let Some(cell) = cell {
                        spans.close(cell);
                    }

                    let m = harvest(&mw, strategy, rate, seed);
                    let hash = cell_hash(&m);
                    let key = cell_key(app.name(), strategy, seed);
                    if self.reference.get(&key) != Some(&hash) {
                        eprintln!("cell {key}: metrics differ from the reference: {m:?}");
                        ep.mismatches += 1;
                    }
                    let stats = *mw.stats();
                    ep.failed += stats.eval_errors;
                    ep.digest.absorb(&Digest {
                        contexts: trace.len() as u64,
                        detections: stats.inconsistencies,
                        discards: stats.discarded,
                        delivered: stats.delivered,
                        withheld: stats.expired_on_use,
                        unused: 0,
                        hash,
                    });
                    if traced {
                        let checker = mw.checker_stats();
                        layers.compacted += stats.compacted;
                        layers.situation_activations += stats.situation_activations;
                        layers.pinned_evals += checker.pinned_evals;
                        layers.full_evals += checker.full_evals;
                        layers.detections += checker.detections;
                        layers.slot_recycles += mw.pool().slot_recycles();
                    }
                }
            }
        }
        if let Some(root) = root {
            spans.close(root);
        }
        layers.shard_skew = 1.0;
    }

    fn verify(&mut self, episodes: &[Episode], perturb: bool) -> bool {
        // The episode digest sums the cell hashes, so the reference sum
        // over the same cells must match it as well as every cell.
        let mut expected = 0u64;
        for app in &self.apps {
            for &rate in &ERROR_RATES {
                for strategy in EXPERIMENT_STRATEGIES {
                    let key = cell_key(app.name(), strategy, seed_for(rate, self.seed_index));
                    let hash = self.reference.get(&key).copied().unwrap_or_default();
                    expected = expected.wrapping_add(hash);
                }
            }
        }
        if perturb {
            expected ^= 1;
        }
        episodes
            .iter()
            .all(|e| e.mismatches == 0 && e.digest.hash == expected)
    }

    fn replay(&self) -> ReplayCost {
        let mut total = ReplayCost::default();
        for (a, app) in self.apps.iter().enumerate() {
            let registry = app.registry();
            for r in 0..ERROR_RATES.len() {
                let cost = replay_stream(
                    self.traces[a][r].iter().cloned(),
                    app.constraints(),
                    &registry,
                    REPLAY_RETENTION,
                );
                total.absorb(&cost);
            }
        }
        total
    }

    fn obs_slots(&self) -> usize {
        1
    }
}

/// Regenerates the committed reference: runs every cell of both grids
/// through the experiments runner, checks that the averaged points
/// equal `figures_dir/figure9.json` and `figure10.json` byte for byte,
/// and only then writes one digest line per cell to `out`.
///
/// # Errors
///
/// A figure file that cannot be read or differs, or an unwritable `out`.
pub fn write_reference(figures_dir: &Path, out: &Path) -> Result<usize, String> {
    let mut lines = vec![
        "# app strategy seed digest — one line per Figure 9/10 cell".to_owned(),
        "# regenerate: ctxbench --write-paper-reference <path> (from the repository root)"
            .to_owned(),
    ];
    for (app, figure) in apps().iter().zip(["figure9", "figure10"]) {
        let window = app.recommended_window();
        let mut points = Vec::new();
        for &rate in &ERROR_RATES {
            let run = |strategy: &str| -> Vec<RunMetrics> {
                (0..RUNS_PER_POINT)
                    .map(|i| {
                        run_named(
                            app.as_ref(),
                            strategy,
                            rate,
                            seed_for(rate, i),
                            TRACE_LEN,
                            window,
                        )
                    })
                    .collect()
            };
            let oracle = run("opt-r");
            for strategy in EXPERIMENT_STRATEGIES {
                let runs = if strategy == "opt-r" {
                    oracle.clone()
                } else {
                    run(strategy)
                };
                for m in &runs {
                    lines.push(format!(
                        "{} {} {} {:016x}",
                        app.name(),
                        strategy,
                        m.seed,
                        cell_hash(m)
                    ));
                }
                points.push(normalize_against_oracle(strategy, rate, &runs, &oracle));
            }
        }
        let rebuilt = Figure {
            application: app.name().to_owned(),
            points,
            trace_len: TRACE_LEN,
            runs_per_point: RUNS_PER_POINT,
        };
        let path = figures_dir.join(format!("{figure}.json"));
        let committed =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let json = serde_json::to_string_pretty(&rebuilt).map_err(|e| e.to_string())?;
        if json.trim_end() != committed.trim_end() {
            return Err(format!(
                "the rebuilt {figure} differs from {}",
                path.display()
            ));
        }
    }
    let cells = lines.len() - 2;
    lines.push(String::new());
    std::fs::write(out, lines.join("\n")).map_err(|e| format!("{}: {e}", out.display()))?;
    Ok(cells)
}
