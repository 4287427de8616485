//! Outside-in instruments for the traced run. Each wraps a public
//! extension point of one layer — a resolution strategy, the predicate
//! registry, the phase profiler's registry — or replays one layer's
//! public calls in isolation. None of them changes what the engine
//! decides.

use crate::alloc;
use crate::measure::nanos;
use crate::spans::SpanLog;
use ctxres_constraint::{
    Constraint, ConstraintSet, EvalScratch, Formula, IncrementalChecker, KindPlan, PredMemo,
    PredicateRegistry,
};
use ctxres_context::{Context, ContextId, ContextKind, ContextPool, LogicalTime};
use ctxres_core::{AdditionOutcome, Inconsistency, ResolutionStrategy, UseOutcome};
use ctxres_obs::{ObsConfig, ObsRegistry};
use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The profiler phases whose self-time shares the traced run reports.
pub const PROFILE_PHASES: [&str; 6] = [
    "ingest",
    "index_maint",
    "constraint_check",
    "resolution",
    "situation_eval",
    "rebalance",
];

/// Strategy-layer counters, shared by every decorated strategy of a run.
/// Relaxed atomics: they publish no other data.
#[derive(Debug, Default)]
pub struct CoreCounters {
    /// `on_addition` calls.
    pub on_addition_calls: AtomicU64,
    /// Nanoseconds inside `on_addition`.
    pub on_addition_ns: AtomicU64,
    /// `on_use` calls.
    pub on_use_calls: AtomicU64,
    /// Nanoseconds inside `on_use`.
    pub on_use_ns: AtomicU64,
    /// Contexts the strategy discarded.
    pub discards: AtomicU64,
    /// Discarded contexts that were ground-truth corrupted.
    pub discards_corrupted: AtomicU64,
}

impl CoreCounters {
    fn count_discards(&self, pool: &ContextPool, discarded: &[ContextId]) {
        self.discards
            .fetch_add(discarded.len() as u64, Ordering::Relaxed);
        let corrupted = discarded
            .iter()
            .filter(|id| pool.get(**id).is_some_and(|c| c.truth().is_corrupted()))
            .count();
        self.discards_corrupted
            .fetch_add(corrupted as u64, Ordering::Relaxed);
    }
}

/// A [`ResolutionStrategy`] decorator that forwards every trait method
/// and times `on_addition` / `on_use` from outside the strategy.
pub struct TimedStrategy {
    inner: Box<dyn ResolutionStrategy + Send>,
    counters: Arc<CoreCounters>,
    spans: SpanLog,
}

impl TimedStrategy {
    /// Wraps `inner`.
    pub fn new(
        inner: Box<dyn ResolutionStrategy + Send>,
        counters: Arc<CoreCounters>,
        spans: SpanLog,
    ) -> Self {
        TimedStrategy {
            inner,
            counters,
            spans,
        }
    }

    fn span(&self, name: &'static str, start: Instant, end: Instant, id: ContextId) {
        alloc::uncounted(|| {
            self.spans
                .record(name, start, end, self.spans.current(), id.raw())
        });
    }
}

impl ResolutionStrategy for TimedStrategy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn defers_decision(&self) -> bool {
        self.inner.defers_decision()
    }

    fn on_addition(
        &mut self,
        pool: &mut ContextPool,
        now: LogicalTime,
        id: ContextId,
        fresh: &[Inconsistency],
    ) -> AdditionOutcome {
        let start = Instant::now();
        let out = self.inner.on_addition(pool, now, id, fresh);
        let end = Instant::now();
        let c = &self.counters;
        c.on_addition_calls.fetch_add(1, Ordering::Relaxed);
        c.on_addition_ns
            .fetch_add(nanos(end - start), Ordering::Relaxed);
        c.count_discards(pool, &out.discarded);
        self.span("core.on_addition", start, end, id);
        out
    }

    fn on_use(&mut self, pool: &mut ContextPool, now: LogicalTime, id: ContextId) -> UseOutcome {
        let start = Instant::now();
        let out = self.inner.on_use(pool, now, id);
        let end = Instant::now();
        let c = &self.counters;
        c.on_use_calls.fetch_add(1, Ordering::Relaxed);
        c.on_use_ns.fetch_add(nanos(end - start), Ordering::Relaxed);
        c.count_discards(pool, &out.discarded);
        self.span("core.on_use", start, end, id);
        out
    }

    fn attach_obs(&mut self, obs: ctxres_obs::ShardObs) {
        self.inner.attach_obs(obs);
    }

    fn emits_provenance(&self) -> bool {
        self.inner.emits_provenance()
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

/// Every `(predicate name, arity)` the formulas call.
fn predicate_calls(formulas: &[Constraint]) -> Vec<(String, usize)> {
    let mut calls: Vec<(String, usize)> = Vec::new();
    for c in formulas {
        c.formula().visit(&mut |f| {
            if let Formula::Pred(call) = f {
                let key = (call.name.clone(), call.args.len());
                if !calls.contains(&key) {
                    calls.push(key);
                }
            }
        });
    }
    calls
}

/// A registry whose every predicate `formulas` call is a counting
/// forwarder to the same-named predicate of `base`. Errors (unknown
/// names, arity mismatches) come from `base` exactly as before.
pub fn counting_registry(
    base: PredicateRegistry,
    formulas: &[Constraint],
    counter: &Arc<AtomicU64>,
) -> PredicateRegistry {
    let base = Arc::new(base);
    let mut reg = PredicateRegistry::new();
    for (name, arity) in predicate_calls(formulas) {
        let base = Arc::clone(&base);
        let counter = Arc::clone(counter);
        let forwarded = name.clone();
        reg.register(&name, arity, move |args| {
            counter.fetch_add(1, Ordering::Relaxed);
            base.eval(&forwarded, args)
        });
    }
    reg
}

/// The instruments one traced episode attaches to its engines.
#[derive(Debug, Clone)]
pub struct Instruments {
    /// Strategy-layer counters.
    pub core: Arc<CoreCounters>,
    /// Predicate evaluations through the counting registry.
    pub pred_evals: Arc<AtomicU64>,
    /// The span log.
    pub spans: SpanLog,
    /// Registry with the existing phase profiler on (every root sampled).
    pub obs: Arc<ObsRegistry>,
}

impl Instruments {
    /// Fresh instruments; `slots` profiler slots (one per engine, plus
    /// one for a sharded front-end).
    pub fn new(slots: usize) -> Self {
        Instruments {
            core: Arc::default(),
            pred_evals: Arc::default(),
            spans: SpanLog::default(),
            obs: ObsRegistry::shared(Self::obs_config(), slots),
        }
    }

    /// The profiler configuration: metrics only, health off, every
    /// profiler root recorded.
    fn obs_config() -> ObsConfig {
        ObsConfig::metrics_only().with_health(false).with_profile(1)
    }

    /// Decorates a strategy.
    pub fn strategy(
        &self,
        inner: Box<dyn ResolutionStrategy + Send>,
    ) -> Box<dyn ResolutionStrategy + Send> {
        Box::new(TimedStrategy::new(
            inner,
            Arc::clone(&self.core),
            self.spans.clone(),
        ))
    }

    /// Wraps a registry in counting forwarders.
    pub fn registry(&self, base: PredicateRegistry, formulas: &[Constraint]) -> PredicateRegistry {
        counting_registry(base, formulas, &self.pred_evals)
    }

    /// Self-time share of each of [`PROFILE_PHASES`] in `registry`.
    pub fn profile_shares(registry: &ObsRegistry) -> Vec<(&'static str, f64)> {
        let agg = registry.profile_snapshot().aggregate();
        let total: u64 = agg.iter().map(|s| s.self_ns).sum();
        PROFILE_PHASES
            .iter()
            .map(|&phase| {
                let own = agg
                    .iter()
                    .find(|s| s.phase == phase)
                    .map_or(0, |s| s.self_ns);
                (phase, own as f64 / total.max(1) as f64)
            })
            .collect()
    }
}

/// Per-context costs of one isolated layer replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct ReplayCost {
    /// Contexts replayed.
    pub contexts: u64,
    /// Nanoseconds in `ContextPool::insert` / `insert_batch`.
    pub insert_ns: u64,
    /// Nanoseconds in the checker.
    pub check_ns: u64,
    /// Nanoseconds in `ContextPool::compact`.
    pub compact_ns: u64,
}

impl ReplayCost {
    fn per_ctx(&self, ns: u64) -> f64 {
        ns as f64 / self.contexts.max(1) as f64
    }

    /// Insert nanoseconds per context.
    pub fn insert_per_ctx(&self) -> f64 {
        self.per_ctx(self.insert_ns)
    }

    /// Checker nanoseconds per context.
    pub fn check_per_ctx(&self) -> f64 {
        self.per_ctx(self.check_ns)
    }

    /// Compaction nanoseconds per context.
    pub fn compact_per_ctx(&self) -> f64 {
        self.per_ctx(self.compact_ns)
    }

    /// Adds another replay's costs.
    pub fn absorb(&mut self, other: &ReplayCost) {
        self.contexts += other.contexts;
        self.insert_ns += other.insert_ns;
        self.check_ns += other.check_ns;
        self.compact_ns += other.compact_ns;
    }
}

fn horizon(now: LogicalTime, retention: u64) -> Option<LogicalTime> {
    (now.tick() > retention).then(|| LogicalTime::new(now.tick() - retention))
}

/// Replays `trace` through a bare pool and checker one context at a
/// time — `insert`, `on_added_planned`, then `compact` at the retention
/// horizon — timing each layer call.
pub fn replay_stream(
    trace: impl IntoIterator<Item = Context>,
    constraints: Vec<Constraint>,
    registry: &PredicateRegistry,
    retention: u64,
) -> ReplayCost {
    let mut checker = IncrementalChecker::new(constraints.into_iter().collect::<ConstraintSet>());
    let mut plans: HashMap<ContextKind, KindPlan> = HashMap::new();
    let mut pool = ContextPool::new();
    let mut cost = ReplayCost::default();
    for ctx in trace {
        let now = ctx.stamp();
        if !plans.contains_key(ctx.kind()) {
            plans.insert(ctx.kind().clone(), checker.plan_for(ctx.kind()));
        }
        let plan = &plans[ctx.kind()];
        let t = Instant::now();
        let id = pool.insert(ctx);
        cost.insert_ns += nanos(t.elapsed());
        let t = Instant::now();
        let found = checker.on_added_planned(plan, registry, &pool, now, id);
        cost.check_ns += nanos(t.elapsed());
        black_box(found.map(|d| d.len()).unwrap_or(0));
        if let Some(h) = horizon(now, retention) {
            let t = Instant::now();
            black_box(pool.compact(h));
            cost.compact_ns += nanos(t.elapsed());
        }
        cost.contexts += 1;
    }
    cost
}

/// Replays a batched trace through a bare pool and checker —
/// `insert_batch`, `check_with_plan` per position (capped at
/// its own id, as the fused path checks), then `compact` at the
/// retention horizon — timing each layer call.
///
/// # Panics
///
/// Panics when the constraints are not eligible for batch fusion.
pub fn replay_batched(
    batches: impl IntoIterator<Item = Vec<Context>>,
    constraints: Vec<Constraint>,
    registry: &PredicateRegistry,
    retention: u64,
) -> ReplayCost {
    let checker = IncrementalChecker::new(constraints.into_iter().collect::<ConstraintSet>());
    assert!(
        checker.supports_batch_fusion(),
        "the batched replay needs fusion-eligible constraints"
    );
    let mut plans: HashMap<ContextKind, KindPlan> = HashMap::new();
    let mut pool = ContextPool::new();
    let mut scratch = EvalScratch::new();
    let mut cost = ReplayCost::default();
    for batch in batches {
        let keys: Vec<(ContextKind, LogicalTime)> = batch
            .iter()
            .map(|c| (c.kind().clone(), c.stamp()))
            .collect();
        let t = Instant::now();
        let ids = pool.insert_batch(batch);
        cost.insert_ns += nanos(t.elapsed());
        let mut memo = PredMemo::new();
        let t = Instant::now();
        for (&id, (kind, stamp)) in ids.iter().zip(&keys) {
            let plan = plans
                .entry(kind.clone())
                .or_insert_with(|| checker.plan_for(kind));
            let (found, counts) = checker.check_with_plan(
                plan,
                registry,
                &pool,
                *stamp,
                id,
                id,
                &mut scratch,
                &mut memo,
            );
            black_box((found.map(|d| d.len()).unwrap_or(0), counts));
        }
        cost.check_ns += nanos(t.elapsed());
        if let Some(h) = keys
            .last()
            .and_then(|(_, stamp)| horizon(*stamp, retention))
        {
            let t = Instant::now();
            black_box(pool.compact(h));
            cost.compact_ns += nanos(t.elapsed());
        }
        cost.contexts += keys.len() as u64;
    }
    cost
}
