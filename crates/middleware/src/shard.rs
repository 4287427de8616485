//! Sharded middleware: partition contexts by subject into independent
//! engines.
//!
//! The global-mutex front-end ([`crate::SharedMiddleware`]) serializes
//! every submission through one lock. But the paper's workhorse
//! constraints (the §2.2 speed constraint and friends) guard their
//! quantifier pairs with `same_subject`: only contexts of one subject
//! can meet in a binding that decides them. [`ShardedMiddleware`]
//! exploits that:
//!
//! * deploy time: [`ShardPlan::analyze`] compiles each constraint and
//!   routes by [`CompiledConstraint::is_per_subject`], the proof pinned
//!   checks narrow by. Every kind of a constraint that is not
//!   per-subject goes to a dedicated **shared-scope shard**, and so
//!   does every kind of any constraint sharing a kind with those, until
//!   the set stops growing; all other kinds partition by subject hash
//!   across N **subject shards**;
//! * run time: each shard is a full [`Middleware`] (own pool, own
//!   incremental checker, own strategy instance) behind its **own**
//!   lock, so producers on their own threads submitting different
//!   subjects never contend. The engine starts no threads: a batch
//!   ingests its shards' chunks one after another on the calling
//!   thread. Sharding does not shrink check work: one engine's pinned
//!   check already visits only the new context's subject bucket, so the
//!   shards' predicate calls sum to one engine's;
//! * counters: [`ShardedMiddleware::stats`] /
//!   [`ShardedMiddleware::shard_stats`] aggregate per-shard counters by
//!   visiting each shard lock in turn — there is no global lock.
//!
//! Routing is sound, not heuristic. Every constraint over a partitioned
//! kind is per-subject and quantifies only over partitioned kinds, so it
//! is checked by pinning and relates contexts of one subject only; all
//! contexts of one subject — the empty subject included — land in one
//! shard; and the shared-scope shard holds every context of every other
//! constraint's kinds. So shard-local checking reports exactly the
//! inconsistencies the single-engine middleware would, provided each
//! subject shard's registry
//! [trusts `same_subject`](ctxres_constraint::PredicateRegistry::trusts_same_subject),
//! which [`ShardedMiddleware::new`] checks. Situations are a
//! cross-subject aggregate concern and stay with the single-engine
//! experiment path.

use crate::middleware::{Middleware, SubmitReport};
use crate::stats::{MiddlewareStats, ShardStats};
use crossbeam::channel::Receiver;
use ctxres_constraint::{CompiledConstraint, Constraint};
use ctxres_context::{Context, ContextKind, ContextState, LogicalTime};
use ctxres_core::ResolutionStrategy;
use ctxres_obs::{MetricKind, ObsConfig, ObsRegistry, Phase, ShardObs};
use parking_lot::Mutex;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Instant;

/// FNV-1a, for a stable subject → shard assignment (independent of the
/// process and of `RandomState`, so test expectations hold).
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The deploy-time routing decision: how many subject shards, and which
/// context kinds must bypass them for the shared-scope shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    subject_shards: usize,
    global_kinds: BTreeSet<ContextKind>,
    /// A constraint whose kinds the plan partitions and whose
    /// per-subject proof reads `same_subject` guards (it has two or more
    /// quantifiers), if there is one: every subject shard's registry
    /// must then trust `same_subject`.
    guarded: Option<String>,
    /// Subjects pinned to a specific shard by rebalancing, overriding
    /// the hash route. Empty until [`ShardPlan::rebalance`] produces a
    /// successor plan.
    overrides: BTreeMap<String, usize>,
}

/// The live-context load of one subject shard, as harvested by
/// [`ShardedMiddleware::subject_loads`] — the input to hot-shard
/// detection and [`ShardPlan::rebalance`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardLoad {
    /// Subject-shard index.
    pub shard: usize,
    /// Live contexts per subject (sorted by subject).
    pub subjects: Vec<(String, usize)>,
}

impl ShardLoad {
    /// Total live contexts on the shard.
    pub fn total(&self) -> usize {
        self.subjects.iter().map(|(_, n)| n).sum()
    }
}

impl ShardPlan {
    /// Analyzes a constraint set by the one per-subject proof,
    /// [`CompiledConstraint::is_per_subject`]: every kind of a
    /// constraint that is not per-subject is pinned to the shared-scope
    /// shard, then every kind of any constraint that shares a kind with
    /// that set, until the set stops growing. Everything else
    /// partitions by subject across `subject_shards` shards, so each
    /// constraint sees all of its kinds' contexts in one shard: the
    /// shared one, or the subject's.
    ///
    /// # Panics
    ///
    /// Panics when `subject_shards` is zero.
    pub fn analyze(constraints: &[Constraint], subject_shards: usize) -> Self {
        assert!(subject_shards > 0, "need at least one subject shard");
        let compiled: Vec<CompiledConstraint> = constraints
            .iter()
            .map(CompiledConstraint::compile)
            .collect();
        let mut global_kinds = BTreeSet::new();
        let mut grew = true;
        while grew {
            grew = false;
            for c in &compiled {
                if !c.is_per_subject() || c.kinds().iter().any(|k| global_kinds.contains(k)) {
                    for kind in c.kinds() {
                        grew |= global_kinds.insert(kind.clone());
                    }
                }
            }
        }
        let guarded = compiled
            .iter()
            .find(|c| c.slot_count() > 1 && !c.kinds().iter().any(|k| global_kinds.contains(k)))
            .map(|c| c.name().to_owned());
        ShardPlan {
            subject_shards,
            global_kinds,
            guarded,
            overrides: BTreeMap::new(),
        }
    }

    /// Number of subject shards (the shared-scope shard is extra).
    pub fn subject_shards(&self) -> usize {
        self.subject_shards
    }

    /// Total engines: subject shards plus the shared-scope shard.
    pub fn total_shards(&self) -> usize {
        self.subject_shards + 1
    }

    /// Index of the shared-scope shard (always the last).
    pub fn shared_shard(&self) -> usize {
        self.subject_shards
    }

    /// The kinds routed to the shared-scope shard.
    pub fn global_kinds(&self) -> &BTreeSet<ContextKind> {
        &self.global_kinds
    }

    /// The shard a context belongs to: shared-scope for global kinds,
    /// otherwise its subject's shard — a rebalancing override, or a
    /// stable hash of the subject. The empty subject is routed like any
    /// other, so every subject-less context lands on one shard, as
    /// `same_subject` relates them all.
    pub fn route(&self, ctx: &Context) -> usize {
        if self.global_kinds.contains(ctx.kind()) {
            return self.shared_shard();
        }
        if let Some(&pinned) = self.overrides.get(ctx.subject()) {
            return pinned;
        }
        (fnv1a64(ctx.subject().as_bytes()) % self.subject_shards as u64) as usize
    }

    /// The rebalancing overrides currently pinning subjects to shards.
    pub fn overrides(&self) -> &BTreeMap<String, usize> {
        &self.overrides
    }

    /// Subject shards carrying more than `factor`× the mean
    /// subject-shard load, hottest first (ties broken by index). The
    /// shared-scope shard never counts: its load is fixed by the
    /// constraint set, not subject placement.
    pub fn hot_shards(&self, loads: &[ShardLoad], factor: f64) -> Vec<usize> {
        let totals = self.load_totals(loads);
        let mean = totals.iter().sum::<usize>() as f64 / self.subject_shards as f64;
        let mut hot: Vec<usize> = (0..self.subject_shards)
            .filter(|&i| totals[i] as f64 > factor * mean && totals[i] > 0)
            .collect();
        hot.sort_by_key(|&i| (std::cmp::Reverse(totals[i]), i));
        hot
    }

    /// Plans a deterministic rebalancing pass: every shard hotter than
    /// `factor`× the mean subject-shard load sheds its heaviest subjects
    /// (ties broken by subject name) to the least-loaded shard until it
    /// reaches the mean. Returns the successor plan carrying the updated
    /// overrides, or `None` when no shard is hot — routing, and thus the
    /// engine, is untouched in that case.
    ///
    /// The plan is pure: feeding the same loads always yields the same
    /// plan, so a sharded engine applying it between batches stays
    /// deterministic.
    pub fn rebalance(&self, loads: &[ShardLoad], factor: f64) -> Option<ShardPlan> {
        let hot = self.hot_shards(loads, factor);
        if hot.is_empty() {
            return None;
        }
        let mut totals = self.load_totals(loads);
        let mean = (totals.iter().sum::<usize>() as f64 / self.subject_shards as f64).ceil();
        let mut overrides = self.overrides.clone();
        for h in hot {
            let mut subjects: Vec<(String, usize)> = loads
                .iter()
                .filter(|l| l.shard == h)
                .flat_map(|l| l.subjects.iter().cloned())
                .collect();
            subjects.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
            for (subject, count) in subjects {
                if (totals[h] as f64) <= mean {
                    break;
                }
                let target = (0..self.subject_shards)
                    .min_by_key(|&i| (totals[i], i))
                    .expect("at least one subject shard");
                if target == h || totals[target] + count > totals[h] - count {
                    // Moving would not reduce the imbalance.
                    continue;
                }
                totals[h] -= count;
                totals[target] += count;
                overrides.insert(subject, target);
            }
        }
        if overrides == self.overrides {
            return None;
        }
        Some(ShardPlan {
            overrides,
            ..self.clone()
        })
    }

    /// Per-subject-shard totals from `loads` (missing shards count 0).
    fn load_totals(&self, loads: &[ShardLoad]) -> Vec<usize> {
        let mut totals = vec![0usize; self.subject_shards];
        for l in loads {
            if l.shard < self.subject_shards {
                totals[l.shard] += l.total();
            }
        }
        totals
    }
}

/// A middleware partitioned into independently locked shards.
///
/// Construct with [`ShardedMiddleware::new`], giving a factory that
/// builds each shard's engine (every shard deploys the same constraints
/// and its own strategy instance):
///
/// ```
/// use ctxres_constraint::parse_constraints;
/// use ctxres_core::strategies::DropBad;
/// use ctxres_middleware::{Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware};
/// use ctxres_context::Ticks;
///
/// let constraints = parse_constraints(
///     "constraint speed:
///        forall a: location, b: location .
///          (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)",
/// )?;
/// let plan = ShardPlan::analyze(&constraints, 4);
/// let sharded = ShardedMiddleware::new(plan, |_| {
///     Middleware::builder()
///         .constraints(constraints.clone())
///         .strategy(Box::new(DropBad::new()))
///         .config(MiddlewareConfig {
///             window: Ticks::new(0),
///             track_ground_truth: false,
///             retention: None,
///         })
///         .build()
/// });
/// assert_eq!(sharded.plan().total_shards(), 5);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct ShardedMiddleware {
    plan: ShardPlan,
    shards: Vec<Mutex<Middleware>>,
    /// Engine-level handle (routing spans); per-shard events go through
    /// each shard middleware's own handle.
    obs: ShardObs,
    /// The registry behind `obs`, kept so samplers and metrics servers
    /// ([`ctxres_obs::Sampler`], [`ctxres_obs::MetricsServer`]) can be
    /// attached to a running engine. `None` for unobserved engines.
    registry: Option<Arc<ObsRegistry>>,
}

impl std::fmt::Debug for ShardedMiddleware {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardedMiddleware")
            .field("plan", &self.plan)
            .finish_non_exhaustive()
    }
}

impl ShardedMiddleware {
    /// Builds the engine: `make(i)` constructs shard `i`'s middleware
    /// (index [`ShardPlan::shared_shard`] is the shared-scope shard).
    ///
    /// # Panics
    ///
    /// Panics, naming the shard, when `plan` partitions the kinds of a
    /// constraint guarded by `same_subject` and a subject shard's
    /// registry fails [`trusts_same_subject`]: there every guard
    /// raises, contexts of different subjects meet in the bindings that
    /// raise, and the shards would report fewer errors than one engine.
    ///
    /// [`trusts_same_subject`]: ctxres_constraint::PredicateRegistry::trusts_same_subject
    pub fn new(plan: ShardPlan, mut make: impl FnMut(usize) -> Middleware) -> Self {
        let shards = (0..plan.total_shards())
            .map(|i| Mutex::new(make(i)))
            .collect();
        ShardedMiddleware::assemble(plan, shards, ShardObs::disabled(), None)
    }

    /// An [`ObsRegistry`] sized for `plan`: one slot per shard plus a
    /// final **engine slot** holding the cross-shard front-end's own
    /// metrics (routing latency). Pass it to
    /// [`ShardedMiddleware::new_observed`].
    pub fn obs_registry(plan: &ShardPlan, config: ObsConfig) -> Arc<ObsRegistry> {
        ObsRegistry::shared(config, plan.total_shards() + 1)
    }

    /// [`ShardedMiddleware::new`] with instrumentation: `make(i, obs)`
    /// receives shard `i`'s recording handle to attach via
    /// [`crate::MiddlewareBuilder::obs`], and the engine keeps the extra
    /// last slot of `registry` for its own front-end metrics.
    ///
    /// # Panics
    ///
    /// Panics when an enabled `registry` has fewer than
    /// `plan.total_shards() + 1` slots (build it with
    /// [`ShardedMiddleware::obs_registry`]), and where
    /// [`ShardedMiddleware::new`] does.
    pub fn new_observed(
        plan: ShardPlan,
        registry: &Arc<ObsRegistry>,
        mut make: impl FnMut(usize, ShardObs) -> Middleware,
    ) -> Self {
        let shards = (0..plan.total_shards())
            .map(|i| Mutex::new(make(i, registry.handle(i))))
            .collect();
        let obs = registry.handle(plan.total_shards());
        ShardedMiddleware::assemble(plan, shards, obs, Some(Arc::clone(registry)))
    }

    /// The engine over built `shards`, once every subject shard's
    /// registry trusts the `same_subject` guards `plan` partitions by.
    fn assemble(
        plan: ShardPlan,
        shards: Vec<Mutex<Middleware>>,
        obs: ShardObs,
        registry: Option<Arc<ObsRegistry>>,
    ) -> Self {
        if let Some(guarded) = &plan.guarded {
            for (i, shard) in shards[..plan.subject_shards()].iter().enumerate() {
                assert!(
                    shard.lock().registry().trusts_same_subject(),
                    "subject shard {i}: its registry does not define `same_subject` at \
                     arity 2, but the plan partitions the kinds of `{guarded}` by subject"
                );
            }
        }
        ShardedMiddleware {
            plan,
            shards,
            obs,
            registry,
        }
    }

    /// The routing plan.
    pub fn plan(&self) -> &ShardPlan {
        &self.plan
    }

    /// The observability registry this engine records into, when built
    /// with [`ShardedMiddleware::new_observed`] — the handle a live
    /// sampler or `/metrics` server attaches to.
    pub fn registry(&self) -> Option<&Arc<ObsRegistry>> {
        self.registry.as_ref()
    }

    /// Submits one context to its shard, locking only that shard.
    /// Returns the shard index and the shard's report.
    ///
    /// With [`ObsConfig::with_tail`] on, the time spent waiting for the
    /// shard lock and the time spent inside it are recorded separately
    /// (the wait-versus-service decomposition of the shard queues).
    pub fn submit(&self, ctx: Context) -> (usize, SubmitReport) {
        let shard = self.plan.route(&ctx);
        (shard, self.serve(shard, |mw| mw.submit(ctx)))
    }

    /// Runs `f` on shard `shard`'s engine under that shard's lock only,
    /// recording the lock's wait and service times as
    /// [`ShardedMiddleware::submit`] describes.
    fn serve<R>(&self, shard: usize, f: impl FnOnce(&mut Middleware) -> R) -> R {
        let elapsed_ns = |t: Instant| u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let tail_on = self.obs.tail_enabled();
        let waited = tail_on.then(Instant::now);
        let mut mw = self.shards[shard].lock();
        if let Some(t) = waited {
            mw.obs().record_queue_wait(elapsed_ns(t));
        }
        let served = tail_on.then(Instant::now);
        let out = f(&mut mw);
        if let Some(t) = served {
            mw.obs().record_queue_service(elapsed_ns(t));
        }
        out
    }

    /// Ingests a batch on the calling thread: partitions it by shard,
    /// then ingests every non-empty partition in shard order, each under
    /// its own shard's lock only. Returns how many contexts were
    /// ingested.
    ///
    /// Within a shard, batch order is preserved, so per-subject stamp
    /// order — the order detection semantics care about — matches a
    /// serial submission of the same batch.
    pub fn batch_add(&self, batch: &[Context]) -> usize {
        self.batch_add_owned(batch.to_vec())
    }

    /// [`ShardedMiddleware::batch_add`] taking ownership: partitioning
    /// moves each context handle into its shard's chunk instead of
    /// cloning it (a clone would only bump its body's reference count;
    /// see [`Context`]). Each shard then ingests its whole chunk through
    /// [`Middleware::batch_add`], recording its lock's wait and service
    /// times as [`ShardedMiddleware::submit`] does.
    ///
    /// # Panics
    ///
    /// A panic in one shard's chunk (a panicking observer or predicate)
    /// unwinds out of this call at once, with its original payload. The
    /// chunks of later shards in the call are not ingested, and the
    /// shard that panicked is poisoned, as after a panicking
    /// [`Middleware::submit`]: drop the engine rather than use it again.
    pub fn batch_add_owned(&self, batch: Vec<Context>) -> usize {
        let total = batch.len();
        let route_span = self.obs.span(MetricKind::RouteLatency);
        // Routing cost lands on the engine slot as ingest self time;
        // each shard's own ingest root opens on its own slot below.
        let route_phase = self.obs.phase(Phase::Ingest);
        let mut per_shard: Vec<Vec<Context>> = vec![Vec::new(); self.shards.len()];
        for ctx in batch {
            per_shard[self.plan.route(&ctx)].push(ctx);
        }
        route_phase.finish();
        route_span.finish();
        for (shard, chunk) in per_shard.into_iter().enumerate() {
            if chunk.is_empty() {
                continue;
            }
            self.serve(shard, |mw| {
                // The shard's own handle, cloned out of the engine so the
                // ingest span can outlive `mw`'s borrows.
                let obs = mw.obs().clone();
                let span = obs.span(MetricKind::IngestLatency);
                mw.batch_add(chunk);
                span.finish();
            });
        }
        total
    }

    /// The per-subject live-context load of every subject shard,
    /// harvested shard by shard under each shard's own lock — the input
    /// [`ShardPlan::rebalance`] consumes.
    pub fn subject_loads(&self) -> Vec<ShardLoad> {
        (0..self.plan.subject_shards())
            .map(|i| ShardLoad {
                shard: i,
                subjects: self.shards[i].lock().pool().subject_counts(),
            })
            .collect()
    }

    /// Adopts a rebalanced routing plan between batches: every stored
    /// context whose shard changes under `new_plan` migrates pool to
    /// pool (its state travels with it), and subsequent submissions
    /// route by the new plan. Migration is deterministic: sources are
    /// visited in shard order and each yields its contexts in arrival
    /// order.
    ///
    /// Detections already reported are unaffected — per-subject
    /// constraint checking sees the same subject-complete bucket on the
    /// new shard.
    ///
    /// # Panics
    ///
    /// Panics when `new_plan` changes the shard count or global kinds
    /// (only subject overrides may differ), or when any shard still has
    /// buffered contexts — call [`ShardedMiddleware::drain`] first, so
    /// no in-flight use or strategy decision can refer to a migrating
    /// context.
    pub fn apply_plan(&mut self, new_plan: ShardPlan) {
        // Migration cost — extraction, re-routing, adoption — lands on
        // the engine slot as a rebalance root.
        let obs = self.obs.clone();
        let _rebalance_phase = obs.phase(Phase::Rebalance);
        assert_eq!(
            new_plan.subject_shards(),
            self.plan.subject_shards(),
            "apply_plan cannot change the shard count"
        );
        assert_eq!(
            new_plan.global_kinds(),
            self.plan.global_kinds(),
            "apply_plan cannot change the global-kind set"
        );
        for (i, shard) in self.shards.iter().enumerate() {
            assert_eq!(
                shard.lock().buffered(),
                0,
                "apply_plan requires drained shards; shard {i} still buffers contexts"
            );
        }
        let mut moves: Vec<Vec<Context>> = vec![Vec::new(); self.shards.len()];
        for i in 0..self.plan.subject_shards() {
            let migrated = self.shards[i]
                .lock()
                .extract_where(|c| new_plan.route(c) != i);
            for ctx in migrated {
                moves[new_plan.route(&ctx)].push(ctx);
            }
        }
        for (target, ctxs) in moves.into_iter().enumerate() {
            if !ctxs.is_empty() {
                self.shards[target].lock().adopt_contexts(ctxs);
            }
        }
        self.plan = new_plan;
    }

    /// Consumes a context channel to exhaustion, routing each context
    /// to its shard. The sharded analogue of
    /// [`crate::SharedMiddleware::pump`]: run one per producer thread —
    /// producers of different subjects proceed without contending.
    pub fn pump(&self, source: Receiver<Context>) -> usize {
        let mut n = 0;
        for ctx in source {
            self.submit(ctx);
            n += 1;
        }
        n
    }

    /// Uses every buffered context in every shard (end of a run).
    pub fn drain(&self) {
        for shard in &self.shards {
            shard.lock().drain();
        }
    }

    /// Hot-swaps the resolution strategy on every shard (see
    /// [`Middleware::swap_strategy`]): `make` builds one fresh strategy
    /// per shard, each attached to its shard's observability handle.
    /// Shards are swapped one at a time under their own locks, so
    /// concurrent submitters see either the old or the new policy per
    /// context, never a torn state.
    pub fn swap_strategy(&self, mut make: impl FnMut(usize) -> Box<dyn ResolutionStrategy + Send>) {
        for (i, shard) in self.shards.iter().enumerate() {
            shard.lock().swap_strategy(make(i));
        }
    }

    /// Runs `f` against one shard's engine (e.g. to subscribe, poll, or
    /// inspect its pool).
    ///
    /// # Panics
    ///
    /// Panics when `shard` is out of range.
    pub fn with_shard<R>(&self, shard: usize, f: impl FnOnce(&mut Middleware) -> R) -> R {
        f(&mut self.shards[shard].lock())
    }

    /// Aggregated run counters, summed shard by shard under each
    /// shard's own lock (no global lock).
    pub fn stats(&self) -> MiddlewareStats {
        let mut total = MiddlewareStats::default();
        for shard in &self.shards {
            total.absorb(shard.lock().stats());
        }
        total
    }

    /// Per-shard counters: ingestion, checker evaluations, detections,
    /// and fast-path hits for each shard.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| {
                let mw = shard.lock();
                let stats = mw.stats();
                let checker = mw.checker_stats();
                ShardStats {
                    shard: i,
                    shared_scope: i == self.plan.shared_shard(),
                    ingested: stats.received,
                    checks: checker.pinned_evals + checker.full_evals,
                    inconsistencies: stats.inconsistencies,
                    fast_path_hits: stats.irrelevant,
                }
            })
            .collect()
    }

    /// The id-free content fingerprint of all shard pools combined
    /// (see [`ctxres_context::ContextPool::signature`]) — equal to a
    /// single-engine pool signature over the same workload, which is the
    /// determinism oracle the stress tests assert.
    pub fn signature(&self) -> Vec<(ContextKind, String, LogicalTime, ContextState)> {
        let mut sig = Vec::new();
        for shard in &self.shards {
            sig.extend(shard.lock().pool().signature());
        }
        sig.sort_by(|a, b| (&a.0, &a.1, a.2, a.3 as u8).cmp(&(&b.0, &b.1, b.2, b.3 as u8)));
        sig
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::middleware::{MiddlewareBuilder, MiddlewareConfig};
    use ctxres_constraint::{parse_constraints, PredicateRegistry};
    use ctxres_context::{Point, Ticks};
    use ctxres_core::strategies::DropBad;
    use std::sync::atomic::{AtomicU64, Ordering};

    const SPEED: &str = "constraint speed:
        forall a: location, b: location .
          (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

    const PAIRWISE: &str = "constraint reader_gap:
        forall r: rfid, s: rfid . velocity_le(r, s, 1000.0)";

    fn loc(subject: &str, seq: i64, x: f64) -> Context {
        Context::builder(ContextKind::new("location"), subject)
            .attr("pos", Point::new(x, 0.0))
            .attr("seq", seq)
            .stamp(LogicalTime::new(seq as u64))
            .build()
    }

    /// One engine under `constraints_src`: DropBad, window 0, no
    /// retention.
    fn shard_mw(constraints_src: &str) -> MiddlewareBuilder {
        Middleware::builder()
            .constraints(parse_constraints(constraints_src).unwrap())
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(0),
                track_ground_truth: false,
                retention: None,
            })
    }

    /// `SPEED`'s predicates, each counting its calls into `calls`.
    fn counting_registry(calls: &Arc<AtomicU64>) -> PredicateRegistry {
        let builtins = Arc::new(PredicateRegistry::with_builtins());
        let mut registry = PredicateRegistry::new();
        for (name, arity) in [("same_subject", 2), ("seq_gap", 3), ("velocity_le", 3)] {
            let (builtins, calls) = (Arc::clone(&builtins), Arc::clone(calls));
            registry.register(name, arity, move |args| {
                calls.fetch_add(1, Ordering::Relaxed);
                builtins.eval(name, args)
            });
        }
        registry
    }

    fn engine(constraints_src: &str, subject_shards: usize) -> ShardedMiddleware {
        let constraints = parse_constraints(constraints_src).unwrap();
        let plan = ShardPlan::analyze(&constraints, subject_shards);
        ShardedMiddleware::new(plan, |_| shard_mw(constraints_src).build())
    }

    /// A `SPEED` engine built via [`ShardedMiddleware::new_observed`]
    /// over a registry configured by `config`.
    fn observed_engine(
        subject_shards: usize,
        config: ObsConfig,
    ) -> (ShardedMiddleware, Arc<ObsRegistry>) {
        let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), subject_shards);
        let registry = ShardedMiddleware::obs_registry(&plan, config);
        let sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
            shard_mw(SPEED).obs(obs).build()
        });
        (sharded, registry)
    }

    #[test]
    fn per_subject_kinds_partition_by_subject() {
        let sharded = engine(SPEED, 4);
        assert!(sharded.plan().global_kinds().is_empty());
        let a = sharded.plan().route(&loc("alice", 0, 0.0));
        assert!(a < 4, "subject kinds never route to the shared shard");
        // Same subject always lands on the same shard.
        assert_eq!(a, sharded.plan().route(&loc("alice", 7, 3.0)));
    }

    #[test]
    fn global_kind_routes_to_shared_shard() {
        let sharded = engine(&format!("{SPEED}\n{PAIRWISE}"), 4);
        assert!(sharded
            .plan()
            .global_kinds()
            .contains(&ContextKind::new("rfid")));
        let tag = Context::builder(ContextKind::new("rfid"), "tag-1").build();
        assert_eq!(sharded.plan().route(&tag), sharded.plan().shared_shard());
        // Per-subject kinds still partition normally.
        assert!(sharded.plan().route(&loc("alice", 0, 0.0)) < 4);
    }

    #[test]
    fn sharded_detection_matches_single_engine() {
        let trace: Vec<Context> = (0..40)
            .flat_map(|t| {
                ["alice", "bob", "carol", "dave"]
                    .into_iter()
                    .enumerate()
                    .map(move |(i, s)| {
                        // Every 10th context per subject teleports: a violation.
                        let x = if t % 10 == 9 { 500.0 } else { t as f64 * 0.5 };
                        loc(s, (t * 4 + i as i64) / 4, x)
                    })
            })
            .collect();

        let single_calls = Arc::new(AtomicU64::new(0));
        let mut single = shard_mw(SPEED)
            .registry(counting_registry(&single_calls))
            .build();
        for ctx in &trace {
            single.submit(ctx.clone());
        }
        single.drain();
        assert!(single.stats().inconsistencies > 0, "the trace teleports");
        let single_calls = single_calls.load(Ordering::Relaxed);
        assert!(single_calls > 0);

        // Observability must not change results: the bare engine and
        // every registry configuration find what one engine finds.
        let configs = [
            None,
            Some(ObsConfig::disabled()),
            Some(ObsConfig::metrics_only()),
            Some(ObsConfig::metrics_only().with_health(false)),
            Some(ObsConfig::metrics_only().with_profile(1)),
            Some(ObsConfig::metrics_only().with_tail(true)),
            Some(ObsConfig::enabled()),
        ];
        for config in configs {
            let sharded = match config {
                None => engine(SPEED, 4),
                Some(config) => observed_engine(4, config).0,
            };
            sharded.batch_add(&trace);
            sharded.drain();

            assert_eq!(
                sharded.stats().inconsistencies,
                single.stats().inconsistencies,
                "{config:?}"
            );
            assert_eq!(
                sharded.stats().discarded,
                single.stats().discarded,
                "{config:?}"
            );
            assert_eq!(sharded.signature(), single.pool().signature(), "{config:?}");
        }

        // Nor does sharding change the check work: the shards'
        // predicate calls sum to the single engine's.
        for shards in [1, 2, 4] {
            let calls = Arc::new(AtomicU64::new(0));
            let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), shards);
            let sharded = ShardedMiddleware::new(plan, |_| {
                shard_mw(SPEED).registry(counting_registry(&calls)).build()
            });
            sharded.batch_add(&trace);
            sharded.drain();
            assert_eq!(
                calls.load(Ordering::Relaxed),
                single_calls,
                "{shards} shards"
            );
        }
    }

    #[test]
    fn shard_stats_expose_per_shard_counters() {
        let sharded = engine(SPEED, 2);
        let trace: Vec<Context> = (0..12)
            .map(|t| loc(if t % 2 == 0 { "a" } else { "b" }, t, 0.1))
            .collect();
        sharded.batch_add(&trace);
        // An irrelevant kind exercises the fast path.
        sharded.submit(Context::builder(ContextKind::new("temperature"), "room").build());

        let stats = sharded.shard_stats();
        assert_eq!(stats.len(), 3, "2 subject shards + shared shard");
        assert_eq!(stats.iter().map(|s| s.ingested).sum::<u64>(), 13);
        assert_eq!(stats.iter().filter(|s| s.shared_scope).count(), 1);
        assert!(stats.iter().any(|s| s.checks > 0));
        assert_eq!(stats.iter().map(|s| s.fast_path_hits).sum::<u64>(), 1);
        assert_eq!(sharded.stats().received, 13);
    }

    #[test]
    fn empty_subject_routes_to_one_shard() {
        let plan = ShardPlan::analyze(&parse_constraints(CROSS_KIND).unwrap(), 4);
        assert!(plan.global_kinds().is_empty());
        let anon = |kind: &str| Context::builder(ContextKind::new(kind), "").build();
        let shard = plan.route(&anon("location"));
        assert!(shard < 4);
        assert_eq!(shard, plan.route(&anon("badge")));
        // A rebalancing override for the empty subject takes effect.
        let moved = ShardPlan {
            overrides: BTreeMap::from([(String::new(), (shard + 1) % 4)]),
            ..plan
        };
        assert_eq!(moved.route(&anon("badge")), (shard + 1) % 4);
    }

    const CROSS_KIND: &str = "constraint cross_kind:
        forall a: location, b: badge . same_subject(a, b) implies false";

    fn badge(subject: &str, stamp: u64) -> Context {
        Context::builder(ContextKind::new("badge"), subject)
            .stamp(LogicalTime::new(stamp))
            .build()
    }

    /// A `kind` context of `subject` at `(x, x)`, stamped `stamp`.
    fn placed(kind: &str, subject: &str, stamp: u64, x: f64) -> Context {
        Context::builder(ContextKind::new(kind), subject)
            .attr("pos", Point::new(x, x))
            .stamp(LogicalTime::new(stamp))
            .build()
    }

    /// The stats of one engine and of a 4-subject-shard engine under
    /// `src` and `registry`, each fed `trace` one context at a time;
    /// the two pools must end equal.
    fn one_and_sharded(
        src: &str,
        registry: PredicateRegistry,
        trace: &[Context],
    ) -> (MiddlewareStats, MiddlewareStats) {
        let mut single = shard_mw(src).registry(registry.clone()).build();
        let plan = ShardPlan::analyze(&parse_constraints(src).unwrap(), 4);
        let sharded =
            ShardedMiddleware::new(plan, |_| shard_mw(src).registry(registry.clone()).build());
        for ctx in trace {
            single.submit(ctx.clone());
            sharded.submit(ctx.clone());
        }
        single.drain();
        sharded.drain();
        assert_eq!(sharded.signature(), single.pool().signature());
        (*single.stats(), sharded.stats())
    }

    /// A leaf that can raise ahead of the guard: the pair is not
    /// per-subject, so every badge meets the location and raises.
    #[test]
    fn a_raising_leaf_before_the_guard_keeps_the_pair_shared() {
        let src = "constraint ghostly: forall a: location, b: badge .
            (ghost(a) and same_subject(a, b)) implies true";
        let mut trace = vec![placed("location", "p", 0, 0.0)];
        trace.extend(["q", "r", "s", "t", "u"].map(|s| badge(s, 1)));
        let (one, sharded) = one_and_sharded(src, PredicateRegistry::with_builtins(), &trace);
        assert_eq!(one.eval_errors, 5);
        assert_eq!(sharded.eval_errors, one.eval_errors);
    }

    /// `not forall` needs every context of its kind: a shard holding
    /// only alice's would see a violation one engine does not.
    #[test]
    fn a_negated_forall_sees_every_subject() {
        let src = "constraint somewhere_outside:
            not forall a: location . within(a, 0.0, 0.0, 1.0, 1.0)";
        let trace = [
            placed("location", "bob", 0, 5.0),
            placed("location", "alice", 1, 0.5),
        ];
        let (one, sharded) = one_and_sharded(src, PredicateRegistry::with_builtins(), &trace);
        assert_eq!(one.inconsistencies, 0);
        assert_eq!(sharded.inconsistencies, one.inconsistencies);
    }

    /// Subject-less contexts of two kinds share the empty subject, so
    /// they must meet on one shard.
    #[test]
    fn subject_less_contexts_meet_on_one_shard() {
        let src = "constraint anon: forall a: venue, b: noise . same_subject(a, b) implies false";
        let trace = [placed("venue", "", 0, 0.0), placed("noise", "", 1, 0.0)];
        let (one, sharded) = one_and_sharded(src, PredicateRegistry::with_builtins(), &trace);
        assert_eq!(one.inconsistencies, 1);
        assert_eq!(sharded.inconsistencies, one.inconsistencies);
    }

    /// A per-subject constraint over a shared kind is shared whole: its
    /// other kinds follow, or alice's location and badge would sit on
    /// different shards.
    #[test]
    fn kinds_sharing_a_constraint_with_a_shared_kind_are_shared() {
        let src = format!(
            "{CROSS_KIND}
             constraint pairs: forall x: badge, y: badge . distinct(x, y) implies true"
        );
        let plan = ShardPlan::analyze(&parse_constraints(&src).unwrap(), 4);
        assert_eq!(
            plan.global_kinds(),
            &BTreeSet::from([ContextKind::new("badge"), ContextKind::new("location")])
        );
        let trace = [placed("location", "alice", 0, 0.0), badge("alice", 1)];
        let (one, sharded) = one_and_sharded(&src, PredicateRegistry::with_builtins(), &trace);
        assert_eq!(one.inconsistencies, 1);
        assert_eq!(sharded.inconsistencies, one.inconsistencies);
    }

    /// Without `same_subject` every guard raises, in cross-subject
    /// bindings too, so partitioning the guarded kinds would hide
    /// errors: building the engine refuses, naming the shard.
    #[test]
    #[should_panic(expected = "subject shard 0: its registry does not define `same_subject`")]
    fn a_registry_without_same_subject_refuses_to_shard() {
        let trace = [
            placed("location", "alice", 0, 0.0),
            badge("bob", 1),
            badge("carol", 2),
            badge("dave", 3),
            badge("erin", 4),
        ];
        one_and_sharded(CROSS_KIND, PredicateRegistry::new(), &trace);
    }

    #[test]
    fn profiled_sharded_ingest_and_rebalance_record_phases() {
        let (mut sharded, registry) = observed_engine(2, ObsConfig::metrics_only().with_profile(1));
        sharded.batch_add_owned(vec![loc("alice", 0, 0.0), loc("bob", 0, 1.0)]);
        sharded.drain();
        let plan = sharded.plan().clone();
        sharded.apply_plan(plan);
        let snap = registry.profile_snapshot();
        let calls = |shard: usize, phase: &str| {
            snap.shards[shard]
                .iter()
                .find(|p| p.phase == phase)
                .map(|p| p.calls)
                .unwrap_or(0)
        };
        let engine_slot = snap.shards.len() - 1;
        assert_eq!(calls(engine_slot, "rebalance"), 1, "apply_plan recorded");
        assert_eq!(calls(engine_slot, "ingest"), 1, "routing recorded");
        let shard_ingests: u64 = (0..engine_slot).map(|i| calls(i, "ingest")).sum();
        assert!(shard_ingests >= 1, "shards record their batches");
    }

    #[test]
    fn observed_engine_tags_events_with_the_routing_shard() {
        let (sharded, registry) = observed_engine(4, ObsConfig::enabled());
        let batch: Vec<Context> = (0..10)
            .flat_map(|t| ["alice", "bob"].map(|s| loc(s, t, t as f64 * 0.1)))
            .collect();
        sharded.batch_add(&batch);
        sharded.drain();

        let trace = registry.drain();
        assert!(!trace.is_empty());
        // Every event of one subject carries that subject's shard id.
        let alice_shard = sharded.plan().route(&loc("alice", 0, 0.0)) as u32;
        let alice_received: Vec<u32> = trace
            .iter()
            .filter(|r| {
                matches!(&r.event, ctxres_obs::TraceEvent::Received { subject, .. }
                    if subject.as_ref() == "alice")
            })
            .map(|r| r.shard)
            .collect();
        assert_eq!(alice_received.len(), 10);
        assert!(alice_received.iter().all(|s| *s == alice_shard));
        // Metrics landed without a drop.
        assert_eq!(registry.dropped(), 0);
        let agg = registry.snapshot();
        assert_eq!(
            agg.counter(ctxres_obs::CounterKind::Deliveries),
            sharded.stats().delivered
        );
        assert!(agg.histogram(MetricKind::IngestLatency).count >= 1);
        assert!(agg.histogram(MetricKind::RouteLatency).count >= 1);
        // Every submission bumps the ingest counter, and the registry is
        // reachable from the engine for samplers / metrics servers.
        assert_eq!(
            agg.counter(ctxres_obs::CounterKind::Ingested),
            sharded.stats().received
        );
        let held = sharded.registry().expect("observed engine keeps registry");
        assert!(Arc::ptr_eq(held, &registry));
    }

    #[test]
    fn tail_engine_decomposes_queue_wait_and_service() {
        let (sharded, registry) = observed_engine(2, ObsConfig::metrics_only().with_tail(true));
        let batch: Vec<Context> = (0..6)
            .flat_map(|t| ["alice", "bob"].map(|s| loc(s, t, t as f64 * 0.1)))
            .collect();
        sharded.batch_add_owned(batch);
        sharded.submit(loc("alice", 6, 0.6));
        sharded.drain();
        let snap = registry.snapshot();
        let waits = snap.total("ctxres_queue_waits_total");
        let services = snap.total("ctxres_queue_services_total");
        assert!(waits >= 2, "each ingested chunk and submit queues once");
        assert_eq!(waits, services, "every wait is followed by service");
        // The delivered spans flowed through too.
        let folded: u64 = snap
            .family("ctxres_e2e_latency_us")
            .filter_map(|s| s.value.histogram())
            .map(|h| h.count)
            .sum();
        assert_eq!(folded, 13, "one terminal outcome per context");
    }

    #[test]
    fn unobserved_engine_has_no_registry() {
        let sharded = engine(SPEED, 2);
        assert!(sharded.registry().is_none());
    }

    #[test]
    fn disabled_observed_engine_records_nothing() {
        let (sharded, registry) = observed_engine(2, ObsConfig::disabled());
        assert!((0..sharded.plan().total_shards())
            .all(|s| sharded.with_shard(s, |mw| !mw.obs().is_enabled())));
        sharded.batch_add(&[loc("alice", 0, 0.0)]);
        sharded.drain();
        assert!(registry.drain().is_empty());
    }

    #[test]
    fn batch_add_owned_matches_borrowed_batch_add() {
        let trace: Vec<Context> = (0..30)
            .flat_map(|t| {
                ["alice", "bob", "carol"].into_iter().map(move |s| {
                    let x = if t % 10 == 9 { 500.0 } else { t as f64 * 0.5 };
                    loc(s, t, x)
                })
            })
            .collect();
        let borrowed = engine(SPEED, 3);
        borrowed.batch_add(&trace);
        borrowed.drain();
        let owned = engine(SPEED, 3);
        owned.batch_add_owned(trace);
        owned.drain();
        assert_eq!(borrowed.signature(), owned.signature());
        assert_eq!(
            borrowed.stats().inconsistencies,
            owned.stats().inconsistencies
        );
    }

    #[test]
    fn hot_shard_detection_flags_overloaded_shards() {
        let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), 4);
        let loads = vec![
            ShardLoad {
                shard: 0,
                subjects: vec![("a".into(), 90), ("b".into(), 10)],
            },
            ShardLoad {
                shard: 1,
                subjects: vec![("c".into(), 10)],
            },
            ShardLoad {
                shard: 2,
                subjects: vec![("d".into(), 12)],
            },
            ShardLoad {
                shard: 3,
                subjects: vec![],
            },
        ];
        // Mean load is (100+10+12)/4 = 30.5; only shard 0 exceeds 1.5×.
        assert_eq!(plan.hot_shards(&loads, 1.5), vec![0]);
        assert!(plan.hot_shards(&loads, 4.0).is_empty());
    }

    #[test]
    fn rebalance_pins_heavy_subjects_to_cold_shards() {
        let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), 2);
        let loads = vec![
            ShardLoad {
                shard: 0,
                subjects: vec![("whale".into(), 80), ("minnow".into(), 20)],
            },
            ShardLoad {
                shard: 1,
                subjects: vec![("shrimp".into(), 10)],
            },
        ];
        let balanced = plan.rebalance(&loads, 1.2).expect("shard 0 is hot");
        // Deterministic: same input, same plan.
        assert_eq!(plan.rebalance(&loads, 1.2), Some(balanced.clone()));
        // The heaviest movable subject lands on the cold shard, and
        // routing follows the override.
        assert_eq!(balanced.overrides().get("minnow"), Some(&1));
        assert_eq!(balanced.route(&loc("minnow", 0, 0.0)), 1);
        // A balanced cluster yields no successor plan at all.
        let even = vec![
            ShardLoad {
                shard: 0,
                subjects: vec![("a".into(), 50)],
            },
            ShardLoad {
                shard: 1,
                subjects: vec![("b".into(), 50)],
            },
        ];
        assert_eq!(plan.rebalance(&even, 1.2), None);
    }

    #[test]
    fn apply_plan_migrates_contexts_and_detection_continues() {
        let mut sharded = engine(SPEED, 2);
        // Subjects that all hash-route to one shard: a synthetic hot shard.
        let home = sharded.plan().route(&loc("s0", 0, 0.0));
        let colocated: Vec<String> = (0..50)
            .map(|i| format!("s{i}"))
            .filter(|s| {
                sharded
                    .plan()
                    .route(&Context::builder(ContextKind::new("location"), s.as_str()).build())
                    == home
            })
            .take(3)
            .collect();
        assert_eq!(colocated.len(), 3, "need three colocated subjects");
        let mut batch = Vec::new();
        for t in 0..8 {
            for s in &colocated {
                batch.push(loc(s, t, t as f64 * 0.5));
            }
        }
        sharded.batch_add_owned(batch);
        sharded.drain();
        let before = sharded.signature();

        let loads = sharded.subject_loads();
        let plan = sharded
            .plan()
            .rebalance(&loads, 1.2)
            .expect("one shard holds everything");
        sharded.apply_plan(plan);

        // Contents survive the migration bit-for-bit...
        assert_eq!(sharded.signature(), before);
        // ...the load actually spread...
        let totals: Vec<usize> = sharded
            .subject_loads()
            .iter()
            .map(ShardLoad::total)
            .collect();
        assert!(
            totals.iter().all(|&t| t > 0),
            "both shards now loaded: {totals:?}"
        );
        // ...and detection still sees the migrated subject's history: a
        // teleport right after its last fix is caught on the new shard.
        let moved = sharded
            .plan()
            .overrides()
            .keys()
            .next()
            .expect("rebalance pinned a subject")
            .clone();
        let inc_before = sharded.stats().inconsistencies;
        sharded.submit(loc(&moved, 8, 500.0));
        assert!(sharded.stats().inconsistencies > inc_before);
    }

    #[test]
    #[should_panic(expected = "requires drained shards")]
    fn apply_plan_rejects_undrained_shards() {
        let constraints = parse_constraints(SPEED).unwrap();
        let plan = ShardPlan::analyze(&constraints, 2);
        let mut sharded = ShardedMiddleware::new(plan.clone(), |_| {
            Middleware::builder()
                .constraints(parse_constraints(SPEED).unwrap())
                .strategy(Box::new(DropBad::new()))
                .config(MiddlewareConfig {
                    window: Ticks::new(10),
                    track_ground_truth: false,
                    retention: None,
                })
                .build()
        });
        sharded.submit(loc("alice", 0, 0.0));
        // alice is still buffered (window 10): migration must refuse.
        sharded.apply_plan(plan);
    }

    #[test]
    #[should_panic(expected = "shard exploded on charlie")]
    fn batch_add_preserves_string_panic_payloads() {
        struct Exploder;
        impl crate::observer::MiddlewareObserver for Exploder {
            fn on_submitted(&mut self, _report: &SubmitReport, ctx: &Context) {
                if ctx.subject() == "charlie" {
                    panic!("shard exploded on {}", ctx.subject());
                }
            }
        }
        let constraints = parse_constraints(SPEED).unwrap();
        let plan = ShardPlan::analyze(&constraints, 2);
        let sharded = ShardedMiddleware::new(plan, |_| {
            Middleware::builder()
                .constraints(parse_constraints(SPEED).unwrap())
                .strategy(Box::new(DropBad::new()))
                .observer(Box::new(Exploder))
                .build()
        });
        sharded.batch_add(&[loc("alice", 0, 0.0), loc("charlie", 0, 0.0)]);
    }

    /// A batch ingests on its caller's thread: every shard's observer
    /// sees the caller, and a shard's panic reaches the caller with its
    /// own payload.
    #[test]
    fn batch_add_runs_on_the_callers_thread() {
        struct Recorder(Arc<Mutex<Vec<std::thread::ThreadId>>>);
        impl crate::observer::MiddlewareObserver for Recorder {
            fn on_submitted(&mut self, _report: &SubmitReport, _ctx: &Context) {
                self.0.lock().push(std::thread::current().id());
            }
        }
        let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), 2);
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sharded = ShardedMiddleware::new(plan.clone(), |_| {
            shard_mw(SPEED)
                .observer(Box::new(Recorder(Arc::clone(&seen))))
                .build()
        });
        let batch: Vec<Context> = (0..16).map(|i| loc(&format!("s{i}"), 0, 0.0)).collect();
        let reached: BTreeSet<usize> = batch.iter().map(|c| plan.route(c)).collect();
        assert_eq!(reached, BTreeSet::from([0, 1]), "both subject shards");
        sharded.batch_add_owned(batch);
        assert_eq!(*seen.lock(), vec![std::thread::current().id(); 16]);

        struct Exploder;
        impl crate::observer::MiddlewareObserver for Exploder {
            fn on_submitted(&mut self, _report: &SubmitReport, _ctx: &Context) {
                std::panic::panic_any(42_u32);
            }
        }
        let sharded = ShardedMiddleware::new(plan, |_| {
            shard_mw(SPEED).observer(Box::new(Exploder)).build()
        });
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sharded.batch_add(&[loc("alice", 0, 0.0)])
        }));
        let payload = outcome.expect_err("the shard panic must propagate");
        assert_eq!(payload.downcast_ref::<u32>(), Some(&42));
    }
}
