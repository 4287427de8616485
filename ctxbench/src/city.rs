//! The `city-batch` and `city-stream` workloads: the
//! `ctxres_experiments::city` trace under the §2.2 speed constraint,
//! drop-bad at window 0, retention 512.

use crate::digest::{identity, mix, Digest, VerdictTap};
use crate::layers::{replay_batched, replay_stream, Instruments, ReplayCost};
use crate::measure::nanos;
use crate::run::{close_call, engine_call, fold_stamps, open_call, Bench, Episode, Layers, Shape};
use ctxres_constraint::{parse_constraints, Constraint, PredicateRegistry};
use ctxres_context::{Context, Ticks};
use ctxres_core::strategies::DropBad;
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_middleware::{
    Middleware, MiddlewareBuilder, MiddlewareConfig, ShardPlan, ShardedMiddleware,
};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// The speed constraint `city_bench` deploys.
pub const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

/// Subject shards of `city-batch`.
pub const SHARDS: usize = 2;
/// Contexts per `batch_add_owned` call.
pub const BATCH: usize = 512;
/// The drain → loads → rebalance → apply cycle runs every this many batches.
pub const REBALANCE_EVERY: usize = 8;
/// Shards hotter than this factor × mean load trigger a rebalance.
pub const HOT_FACTOR: f64 = 1.2;
/// Retention horizon in ticks.
pub const RETENTION: u64 = 512;
/// Contexts per episode: 128 batches, 16 rebalancing cycles.
pub const CONTEXTS: usize = 65_536;
/// Set-ups timed per episode; the last one's engine runs the episode.
const SETUP_REPS: usize = 8;

/// The first [`CONTEXTS`] readings of the city trace for `seed`: 100k
/// subjects, Zipf 1.0, churn, 2% teleports, TTL 512 (the generator's
/// defaults).
pub fn city_trace(seed: u64) -> Vec<Context> {
    CityWorkload::new(CityConfig {
        seed,
        ..CityConfig::default()
    })
    .batch(CONTEXTS)
}

/// A fingerprint of a trace's content (subjects, stamps, attributes).
pub fn trace_fingerprint(trace: &[Context]) -> u64 {
    trace.iter().fold(0u64, |h, c| {
        let attrs = format!("{:?}{:?}", c.attr("pos"), c.attr("seq"));
        mix(h ^ identity(c) ^ crate::digest::fnv(0, attrs.as_bytes()))
    })
}

fn speed() -> Vec<Constraint> {
    parse_constraints(SPEED).expect("the speed constraint parses")
}

fn builder(constraints: &[Constraint], inst: Option<&Instruments>) -> MiddlewareBuilder {
    let strategy = Box::new(DropBad::new());
    let mut b = Middleware::builder()
        .constraints(constraints.to_vec())
        .config(MiddlewareConfig {
            window: Ticks::new(0),
            track_ground_truth: false,
            retention: Some(Ticks::new(RETENTION)),
        });
    match inst {
        None => b = b.strategy(strategy),
        Some(inst) => {
            b = b
                .strategy(inst.strategy(strategy))
                .registry(inst.registry(PredicateRegistry::with_builtins(), constraints));
        }
    }
    b
}

/// Which city workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Sharded batches (`city-batch`).
    Batch,
    /// Single-engine submits (`city-stream`).
    Stream,
}

/// A city workload over one seeded trace, generated once before any
/// engine runs; each ingest call gets a fresh copy of its contexts.
#[derive(Debug)]
pub struct CityBench {
    mode: Mode,
    trace: Vec<Context>,
}

impl CityBench {
    /// The workload over the trace for `seed`.
    pub fn new(mode: Mode, seed: u64) -> Self {
        CityBench {
            mode,
            trace: city_trace(seed),
        }
    }

    fn batches(&self) -> impl Iterator<Item = Vec<Context>> + '_ {
        self.trace.chunks(BATCH).map(<[Context]>::to_vec)
    }

    fn contexts(&self) -> impl Iterator<Item = Context> + '_ {
        self.trace.iter().cloned()
    }

    fn tap(inst: Option<&Instruments>) -> VerdictTap {
        if inst.is_some() {
            VerdictTap::stamped()
        } else {
            VerdictTap::default()
        }
    }

    fn batch_episode(&self, inst: Option<&Instruments>, layers: &mut Layers, ep: &mut Episode) {
        let traced = inst.is_some();
        let mut engine: Option<(ShardedMiddleware, Vec<VerdictTap>)> = None;
        for _ in 0..SETUP_REPS {
            drop(engine.take());
            let start = Instant::now();
            let constraints = speed();
            let plan = ShardPlan::analyze(&constraints, SHARDS);
            let taps: Vec<VerdictTap> = (0..plan.total_shards()).map(|_| Self::tap(inst)).collect();
            let sharded = match inst {
                None => ShardedMiddleware::new(plan, |i| {
                    builder(&constraints, None)
                        .observer(Box::new(taps[i].clone()))
                        .build()
                }),
                Some(inst) => ShardedMiddleware::new_observed(plan, &inst.obs, |i, obs| {
                    builder(&constraints, Some(inst))
                        .observer(Box::new(taps[i].clone()))
                        .obs(obs)
                        .build()
                }),
            };
            ep.setup_s.push(ep.seconds(start.elapsed()));
            engine = Some((sharded, taps));
        }
        let (mut sharded, taps) = engine.expect("at least one set-up");
        let spans = inst.map(|i| i.spans.clone()).unwrap_or_default();
        let root = traced.then(|| spans.open("episode", None, 0));
        let shards = sharded.plan().total_shards();

        for (b, batch) in self.batches().enumerate() {
            let tag = b as u64;
            let len = batch.len() as u64;
            let call = traced.then(|| open_call(&spans, "shard.batch_add_owned", root, tag));
            let start = Instant::now();
            let (res, took) = engine_call(ep, traced, || {
                catch_unwind(AssertUnwindSafe(|| sharded.batch_add_owned(batch)))
            });
            ep.contexts += len;
            if res.is_err() {
                ep.failed += len;
            }
            ep.call_us.push(ep.micros(took));
            if let Some(call) = call {
                close_call(&spans, call);
                layers.shard_batch_add_ns += nanos(took);
                for tap in &taps {
                    fold_stamps(layers, &spans, call, tag, start, &tap.take_stamps());
                }
                let live: usize = (0..shards)
                    .map(|s| sharded.with_shard(s, |mw| mw.pool().live_slots()))
                    .sum();
                layers.live_slots_max = layers.live_slots_max.max(live as u64);
            }
            if (b + 1) % REBALANCE_EVERY == 0 {
                self.rebalance(&mut sharded, ep, traced, &spans, root, tag, layers);
            }
        }
        let call = traced.then(|| open_call(&spans, "middleware.drain", root, u64::MAX));
        let (_, took) = engine_call(ep, traced, || sharded.drain());
        if let Some(call) = call {
            close_call(&spans, call);
            layers.drain_ns += nanos(took);
        }
        if let Some(root) = root {
            spans.close(root);
        }

        for tap in &taps {
            ep.digest.absorb(&tap.digest());
        }
        let stats = sharded.stats();
        ep.failed += stats.eval_errors;
        if traced {
            layers.compacted = stats.compacted;
            layers.situation_activations = stats.situation_activations;
            for s in 0..shards {
                let (checker, recycles) =
                    sharded.with_shard(s, |mw| (mw.checker_stats(), mw.pool().slot_recycles()));
                layers.pinned_evals += checker.pinned_evals;
                layers.full_evals += checker.full_evals;
                layers.detections += checker.detections;
                layers.slot_recycles += recycles;
            }
            let ingested: Vec<f64> = sharded
                .shard_stats()
                .iter()
                .filter(|s| !s.shared_scope)
                .map(|s| s.ingested as f64)
                .collect();
            let mean = ingested.iter().sum::<f64>() / ingested.len().max(1) as f64;
            let max = ingested.iter().copied().fold(0.0, f64::max);
            layers.shard_skew = if mean > 0.0 { max / mean } else { 1.0 };
        }
    }

    /// The benchmark-side rebalancing cycle: drain, read subject loads,
    /// plan, apply.
    #[allow(clippy::too_many_arguments)]
    fn rebalance(
        &self,
        sharded: &mut ShardedMiddleware,
        ep: &mut Episode,
        traced: bool,
        spans: &crate::spans::SpanLog,
        root: Option<u32>,
        tag: u64,
        layers: &mut Layers,
    ) {
        let cycle = traced.then(|| spans.open("shard.rebalance_cycle", root, tag));
        let t = Instant::now();
        let (_, drained) = engine_call(ep, traced, || sharded.drain());
        let t_loads = Instant::now();
        let (loads, _) = engine_call(ep, traced, || sharded.subject_loads());
        let t_plan = Instant::now();
        let (next, _) = engine_call(ep, traced, || sharded.plan().rebalance(&loads, HOT_FACTOR));
        let t_apply = Instant::now();
        let applied = next.is_some();
        if let Some(next) = next {
            engine_call(ep, traced, || sharded.apply_plan(next));
        }
        let t_end = Instant::now();
        if let Some(cycle) = cycle {
            spans.close(cycle);
            spans.record("middleware.drain", t, t_loads, Some(cycle), tag);
            spans.record("shard.subject_loads", t_loads, t_plan, Some(cycle), tag);
            spans.record("shard.rebalance", t_plan, t_apply, Some(cycle), tag);
            if applied {
                spans.record("shard.apply_plan", t_apply, t_end, Some(cycle), tag);
                layers.shard_rebalances += 1;
            }
            layers.drain_ns += nanos(drained);
            layers.shard_rebalance_ns += nanos(t_end - t_loads);
        }
    }

    fn stream_episode(&self, inst: Option<&Instruments>, layers: &mut Layers, ep: &mut Episode) {
        let traced = inst.is_some();
        let mut engine: Option<(Middleware, VerdictTap)> = None;
        for _ in 0..SETUP_REPS {
            drop(engine.take());
            let start = Instant::now();
            let constraints = speed();
            let tap = Self::tap(inst);
            let mut b = builder(&constraints, inst).observer(Box::new(tap.clone()));
            if let Some(inst) = inst {
                b = b.obs(inst.obs.handle(0));
            }
            let mw = b.build();
            ep.setup_s.push(ep.seconds(start.elapsed()));
            engine = Some((mw, tap));
        }
        let (mut mw, tap) = engine.expect("at least one set-up");
        let spans = inst.map(|i| i.spans.clone()).unwrap_or_default();
        let root = traced.then(|| spans.open("episode", None, 0));
        for (i, ctx) in self.contexts().enumerate() {
            let tag = i as u64;
            let call = traced.then(|| open_call(&spans, "middleware.submit", root, tag));
            let start = Instant::now();
            let (res, took) = engine_call(ep, traced, || {
                catch_unwind(AssertUnwindSafe(|| mw.submit(ctx)))
            });
            ep.contexts += 1;
            if res.is_err() {
                ep.failed += 1;
            }
            ep.call_us.push(ep.micros(took));
            if let Some(call) = call {
                close_call(&spans, call);
                layers.submit_ns += nanos(took);
                fold_stamps(layers, &spans, call, tag, start, &tap.take_stamps());
                layers.live_slots_max = layers.live_slots_max.max(mw.pool().live_slots() as u64);
            }
        }
        let call = traced.then(|| open_call(&spans, "middleware.drain", root, u64::MAX));
        let (_, took) = engine_call(ep, traced, || mw.drain());
        if let Some(call) = call {
            close_call(&spans, call);
            layers.drain_ns += nanos(took);
        }
        if let Some(root) = root {
            spans.close(root);
        }
        ep.digest = tap.digest();
        let stats = *mw.stats();
        ep.failed += stats.eval_errors;
        if traced {
            let checker = mw.checker_stats();
            layers.compacted = stats.compacted;
            layers.situation_activations = stats.situation_activations;
            layers.pinned_evals = checker.pinned_evals;
            layers.full_evals = checker.full_evals;
            layers.detections = checker.detections;
            layers.slot_recycles = mw.pool().slot_recycles();
            layers.shard_skew = 1.0;
        }
    }

    /// The reference verdicts, from a path the workload does not take:
    /// `city-batch` is checked against one engine fed by sequential
    /// `submit`s; `city-stream` against one engine fed by fused
    /// `batch_add`s.
    pub fn reference(&self) -> Digest {
        let tap = VerdictTap::default();
        let mut mw = builder(&speed(), None)
            .observer(Box::new(tap.clone()))
            .build();
        match self.mode {
            Mode::Batch => {
                for ctx in self.contexts() {
                    mw.submit(ctx);
                }
            }
            Mode::Stream => {
                for batch in self.batches() {
                    mw.batch_add(batch);
                }
            }
        }
        mw.drain();
        let digest = tap.digest();
        assert_eq!(
            digest.detections,
            mw.stats().inconsistencies,
            "every detection reaches the observer"
        );
        digest
    }
}

impl Bench for CityBench {
    fn shape(&self) -> Shape {
        let contexts = self.trace.len();
        match self.mode {
            Mode::Batch => {
                let calls = contexts.div_ceil(BATCH);
                // Each rebalancing cycle makes at most four engine calls;
                // the final drain makes one more.
                Shape {
                    ops: calls + calls / REBALANCE_EVERY * 4 + 1,
                    calls,
                    setups: SETUP_REPS,
                }
            }
            Mode::Stream => Shape {
                ops: contexts + 1,
                calls: contexts,
                setups: SETUP_REPS,
            },
        }
    }

    fn episode(&mut self, inst: Option<&Instruments>, layers: &mut Layers, ep: &mut Episode) {
        match self.mode {
            Mode::Batch => self.batch_episode(inst, layers, ep),
            Mode::Stream => self.stream_episode(inst, layers, ep),
        }
    }

    fn verify(&mut self, episodes: &[Episode], perturb: bool) -> bool {
        let mut reference = self.reference();
        if perturb {
            reference.hash ^= 1;
        }
        let mut ok = reference.detections > 0;
        if !ok {
            eprintln!("the reference found no inconsistency: detection is broken");
        }
        for (i, ep) in episodes.iter().enumerate() {
            if ep.digest != reference {
                eprintln!(
                    "episode {i} verdicts differ from the reference:\n  got       {}\n  reference {}",
                    ep.digest.render(),
                    reference.render()
                );
                ok = false;
            }
        }
        ok
    }

    fn replay(&self) -> ReplayCost {
        let registry = PredicateRegistry::with_builtins();
        match self.mode {
            Mode::Batch => replay_batched(self.batches(), speed(), &registry, RETENTION),
            Mode::Stream => replay_stream(self.contexts(), speed(), &registry, RETENTION),
        }
    }

    fn obs_slots(&self) -> usize {
        match self.mode {
            Mode::Batch => SHARDS + 2,
            Mode::Stream => 1,
        }
    }
}
