//! The middleware core: detection, buffering, plug-in resolution.

use crate::observer::MiddlewareObserver;
use crate::situation::{SituationEngine, SituationStatus};
use crate::stats::MiddlewareStats;
use crate::subscription::{SubscriptionFilter, SubscriptionId, SubscriptionTable};
use ctxres_constraint::{
    CheckerStats, Constraint, ConstraintSet, IncrementalChecker, PredicateRegistry,
};
use ctxres_context::{
    Context, ContextId, ContextKind, ContextPool, ContextState, LogicalTime, Ticks, TruthTag,
};
use ctxres_core::{Inconsistency, ResolutionStrategy};
use ctxres_obs::{
    CauseKind, ContextSpan, CounterKind, KindHandle, MetricKind, Phase, ShardObs, TailOutcome,
    TraceEvent,
};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// Safety valve on the pending end-to-end span map: contexts that
/// never reach a terminal outcome (e.g. removed by retention while
/// still buffered) would otherwise accumulate stamps forever. Crossing
/// this bound drops the whole map — tail telemetry is advisory, the
/// engine must stay bounded.
const TAIL_PENDING_MAX: usize = 1 << 20;

/// Tunables of a middleware instance.
#[derive(Debug, Clone, Copy)]
pub struct MiddlewareConfig {
    /// The **time window**: how long after arrival a buffered context is
    /// used by the application (paper §5.3). Window 0 means contexts are
    /// used immediately on arrival, degenerating drop-bad into
    /// drop-latest.
    pub window: Ticks,
    /// Maintain the ground-truth shadow view for matched-activation
    /// accounting (experiment instrumentation; costs one shadow pool).
    pub track_ground_truth: bool,
    /// When set, contexts that are discarded or expired and older than
    /// this horizon are physically removed from the pools — bounding
    /// memory in long-running deployments. `None` keeps everything (the
    /// experiments want the full record).
    pub retention: Option<Ticks>,
}

impl Default for MiddlewareConfig {
    fn default() -> Self {
        MiddlewareConfig {
            window: Ticks::new(5),
            track_ground_truth: true,
            retention: None,
        }
    }
}

/// What happened when a context was submitted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubmitReport {
    /// The id assigned to the context.
    pub id: ContextId,
    /// Number of fresh inconsistencies detected.
    pub fresh: usize,
    /// Contexts the strategy discarded during this addition change.
    pub discarded: Vec<ContextId>,
    /// Whether the context was irrelevant to every constraint (fast
    /// path: made `Consistent` immediately, Fig. 7 Part 1).
    pub irrelevant: bool,
}

/// The doom notes of one pool: `(due, filing order, id)` in a min-heap,
/// so notes pop by due instant and, among notes due at one instant, in
/// the order they were filed. Its buffer grows to the notes pending at
/// once and is reused from then on.
#[derive(Debug, Default)]
struct DoomQueue {
    heap: BinaryHeap<Reverse<(LogicalTime, u64, ContextId)>>,
    filed: u64,
}

impl DoomQueue {
    fn file(&mut self, due: LogicalTime, id: ContextId) {
        self.heap.push(Reverse((due, self.filed, id)));
        self.filed += 1;
    }

    /// Notes when `id` first becomes eligible for retention compaction
    /// through its lifespan: the first instant whose horizon is past
    /// both the stamp and the expiry deadline. Every path that puts a
    /// context into a pool calls this. No-op without retention or for
    /// immortal contexts — those can only doom via a discard note
    /// ([`Middleware::count_discard`]).
    fn file_expiry(
        &mut self,
        retention: Option<Ticks>,
        id: ContextId,
        stamp: LogicalTime,
        expires: Option<LogicalTime>,
    ) {
        if let (Some(retention), Some(deadline)) = (retention, expires) {
            let due = LogicalTime::new(
                (stamp.tick().saturating_add(1))
                    .max(deadline.tick())
                    .saturating_add(retention.count()),
            );
            self.file(due, id);
        }
    }

    /// Whether some note is due at `now`.
    fn has_due(&self, now: LogicalTime) -> bool {
        self.heap
            .peek()
            .is_some_and(|Reverse((due, _, _))| *due <= now)
    }

    /// Pops the next note due at `now`.
    fn pop_due(&mut self, now: LogicalTime) -> Option<ContextId> {
        if !self.has_due(now) {
            return None;
        }
        self.heap.pop().map(|Reverse((_, _, id))| id)
    }
}

/// One application use of a context (a context-deletion change).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UseRecord {
    /// The used context.
    pub id: ContextId,
    /// Whether it was delivered (vs discarded/expired).
    pub delivered: bool,
    /// Ground-truth tag (instrumentation).
    pub truth: TruthTag,
    /// When the use happened.
    pub at: LogicalTime,
}

/// The Cabot-style middleware: context pool + incremental detection +
/// plug-in resolution strategy + situation engine.
///
/// See the crate-level example. Drive it by [`Middleware::submit`]-ting
/// contexts (stamps advance the logical clock) and
/// [`Middleware::advance_to`] / [`Middleware::drain`] to let the time
/// window elapse.
pub struct Middleware {
    pool: ContextPool,
    registry: PredicateRegistry,
    checker: IncrementalChecker,
    strategy: Box<dyn ResolutionStrategy + Send>,
    situations: SituationEngine,
    gt_situations: SituationEngine,
    gt_pool: ContextPool,
    gt_buffer: VecDeque<(LogicalTime, ContextId)>,
    config: MiddlewareConfig,
    clock: LogicalTime,
    buffer: VecDeque<(LogicalTime, ContextId)>,
    stats: MiddlewareStats,
    /// Doom notes, the engine's only retention mechanism: the first
    /// instant at which a retention sweep *could* remove each context
    /// (its stamp and deadline — or discard instant — aged past the
    /// horizon). [`Middleware::process_due`] pops due notes instead of
    /// running the O(slots) [`ContextPool::compact`] scan per position;
    /// because the compact predicate is monotone in the horizon,
    /// popping at the note's instant removes each context at exactly
    /// the position a per-position sweep would have.
    doom_queue: DoomQueue,
    gt_doom_queue: DoomQueue,
    /// Checker counters already forwarded to `obs` (evaluations and seq
    /// fallbacks).
    reported: CheckerStats,
    matched: u64,
    covered: Vec<bool>,
    epoch_started: Vec<Option<LogicalTime>>,
    latency_sum: u64,
    observers: Vec<Box<dyn MiddlewareObserver>>,
    subscriptions: SubscriptionTable,
    obs: ShardObs,
    /// Cached per-kind health handles: each handle wraps the shard's
    /// interned [`ctxres_obs`] kind cell, so the per-event quality
    /// counters (ingested / delivered / discarded / expired /
    /// violations) are plain atomic bumps after the first lookup.
    kind_cells: HashMap<ContextKind, KindHandle>,
    /// In-flight end-to-end spans, keyed by context: stamped at
    /// ingress/verdict/decision, folded into the tail histograms at the
    /// terminal delivery/discard/expiry. Empty unless
    /// [`ctxres_obs::ObsConfig::with_tail`] is on.
    tail_pending: HashMap<ContextId, ContextSpan>,
}

impl fmt::Debug for Middleware {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Middleware")
            .field("strategy", &self.strategy.name())
            .field("clock", &self.clock)
            .field("buffered", &self.buffer.len())
            .field("stats", &self.stats)
            .finish()
    }
}

impl Middleware {
    /// Starts building a middleware.
    pub fn builder() -> MiddlewareBuilder {
        MiddlewareBuilder::default()
    }

    /// The logical clock (max of all seen stamps and advance targets).
    pub fn now(&self) -> LogicalTime {
        self.clock
    }

    /// The managed context pool.
    pub fn pool(&self) -> &ContextPool {
        &self.pool
    }

    /// Run counters.
    pub fn stats(&self) -> &MiddlewareStats {
        &self.stats
    }

    /// The incremental checker's evaluation counters (how many pinned
    /// and full constraint checks ran).
    pub fn checker_stats(&self) -> CheckerStats {
        self.checker.stats()
    }

    /// Matched situation activations: ground-truth situation *epochs*
    /// (maximal intervals where the situation truly held) that the
    /// strategy's view also activated. The experiments normalize this
    /// against OPT-R to obtain `sitActRate`.
    pub fn matched_activations(&self) -> u64 {
        self.matched
    }

    /// Mean activation latency in ticks: how long after a ground-truth
    /// situation epoch began the strategy's view first reflected it.
    /// Quantifies the §3.3 trade-off — drop-bad buys accuracy by waiting
    /// for count evidence, eager strategies react immediately.
    pub fn mean_activation_latency(&self) -> Option<f64> {
        (self.matched > 0).then(|| self.latency_sum as f64 / self.matched as f64)
    }

    /// The plugged-in strategy's name.
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Hot-swaps the resolution strategy, returning the previous one.
    /// The incoming strategy is attached to the engine's observability
    /// handle (as [`MiddlewareBuilder::build`] does). Pool state,
    /// buffered uses and stats carry over — the swap only changes how
    /// *future* additions and uses are resolved, which is exactly the
    /// mid-run policy change the soak harness exercises.
    pub fn swap_strategy(
        &mut self,
        mut strategy: Box<dyn ResolutionStrategy + Send>,
    ) -> Box<dyn ResolutionStrategy + Send> {
        strategy.attach_obs(self.obs.clone());
        std::mem::replace(&mut self.strategy, strategy)
    }

    /// Number of contexts awaiting use in the buffer.
    pub fn buffered(&self) -> usize {
        self.buffer.len()
    }

    /// The predicate registry in use.
    pub fn registry(&self) -> &PredicateRegistry {
        &self.registry
    }

    /// Whether this engine deploys any situation.
    pub(crate) fn deploys_situations(&self) -> bool {
        !self.situations.is_empty()
    }

    /// The observability handle this instance records through (a
    /// disabled no-op handle unless one was attached at build time).
    pub fn obs(&self) -> &ShardObs {
        &self.obs
    }

    /// Registers an application subscription; every *delivered* context
    /// matching `filter` is enqueued for it.
    pub fn subscribe(&mut self, filter: SubscriptionFilter) -> SubscriptionId {
        self.subscriptions.subscribe(filter)
    }

    /// Drains a subscription's pending deliveries (oldest first).
    pub fn poll(&mut self, sub: SubscriptionId) -> Vec<ContextId> {
        self.subscriptions.drain(sub)
    }

    /// Submits a context (a **context addition change**). The context's
    /// stamp advances the logical clock; buffered contexts whose window
    /// elapsed are used first.
    pub fn submit(&mut self, ctx: Context) -> SubmitReport {
        let ingress_ns = if self.obs.tail_enabled() {
            self.obs.now_ns()
        } else {
            0
        };
        self.submit_one(ctx, ingress_ns)
    }

    /// Submits a whole batch in arrival order: each context goes
    /// through the same per-context routine as [`Middleware::submit`],
    /// so the verdict stream — discards, provenance, situation rounds,
    /// and the reports observers receive through
    /// [`MiddlewareObserver::on_submitted`] — is identical to submitting
    /// the contexts one at a time (enforced by the batch-equivalence
    /// proptests). The reports are not collected: a caller that needs
    /// them registers an observer, so a batch allocates no report
    /// list. What the batch adds is accounting: one health publish and
    /// one ingress stamp for every context's end-to-end span.
    pub fn batch_add(&mut self, batch: Vec<Context>) {
        // The profiler root for the whole ingest pipeline: checking,
        // resolution, situation rounds and health publishing nest under
        // it, so its self time is the batch bookkeeping proper. Its open
        // is the batch's ingress stamp.
        let obs = self.obs.clone();
        let ingest_phase = obs.timed(Phase::Ingest, MetricKind::IngestLatency);
        let ingress_ns = ingest_phase.start_ns();
        for ctx in batch {
            self.submit_one(ctx, ingress_ns);
        }
        self.publish_health();
    }

    /// Notes when a just-discarded context becomes compactable: its
    /// stamp aged past the horizon (the `Inconsistent` arm of the
    /// compact predicate, which is absorbing).
    fn schedule_discard_doom(&mut self, id: ContextId, stamp: LogicalTime) {
        if let Some(retention) = self.config.retention {
            let due = LogicalTime::new(
                stamp
                    .tick()
                    .saturating_add(1)
                    .saturating_add(retention.count()),
            );
            self.doom_queue.file(due, id);
        }
    }

    /// Index/arena maintenance at instant `now`, run before and after
    /// every submission and batch position, on every clock advance and
    /// at drain: pops the due doom notes — each context leaves the
    /// arena at the first position the (monotone) compact predicate
    /// holds for it, exactly where a per-position
    /// [`ContextPool::compact`] scan would have removed it — then drains
    /// the due ground-truth and use buffers. The use loop's resolution
    /// work nests under it as [`Phase::Resolution`], so this phase's
    /// self time is the maintenance proper.
    fn process_due(&mut self, now: LogicalTime) {
        // Fast path: almost no call has maintenance due. When no doom
        // note, buffered context, or ground-truth window has come due,
        // the body below is a pure no-op — skip it before paying the
        // registry clone and phase guard.
        let nothing_due = !self.doom_queue.has_due(now)
            && !self.gt_doom_queue.has_due(now)
            && self.buffer.front().is_none_or(|(due, _)| *due > now)
            && self.gt_buffer.front().is_none_or(|(due, _)| *due > now);
        if nothing_due {
            return;
        }
        let obs = self.obs.clone();
        let _maint_phase = obs.phase(Phase::IndexMaint);
        if let Some(retention) = self.config.retention {
            if now.tick() > retention.count() {
                let horizon = LogicalTime::new(now.tick() - retention.count());
                let compactable = |c: &Context| {
                    c.stamp() < horizon
                        && (c.state() == ContextState::Inconsistent || !c.is_live(horizon))
                };
                while let Some(id) = self.doom_queue.pop_due(now) {
                    if self.pool.get(id).is_some_and(compactable) {
                        self.pool.remove(id);
                        self.stats.compacted += 1;
                    }
                }
                while let Some(gid) = self.gt_doom_queue.pop_due(now) {
                    if self.gt_pool.get(gid).is_some_and(compactable) {
                        self.gt_pool.remove(gid);
                    }
                }
            }
        }
        self.drain_due_buffers(now);
    }

    /// The per-context routine behind [`Middleware::submit`] and every
    /// position of [`Middleware::batch_add`]. `ingress_ns` is the
    /// end-to-end span's ingress stamp (ignored with tail telemetry
    /// off).
    fn submit_one(&mut self, ctx: Context, ingress_ns: u64) -> SubmitReport {
        let stamp = ctx.stamp();
        if stamp > self.clock {
            self.clock = stamp;
        }
        let now = self.clock;
        let tail_on = self.obs.tail_enabled();
        self.process_due(now);

        let truth = ctx.truth();
        let kind = ctx.kind().clone();
        let expires = ctx.lifespan().expires_at();
        let subject = self
            .obs
            .provenance_enabled()
            .then(|| Arc::clone(ctx.subject_arc()));
        let gt_clone =
            (self.config.track_ground_truth && truth == TruthTag::Expected).then(|| ctx.clone());
        let id = self.pool.insert(ctx);
        self.doom_queue
            .file_expiry(self.config.retention, id, stamp, expires);
        self.stats.received += 1;
        self.obs.count(CounterKind::Ingested, 1);
        if self.obs.health_enabled() {
            self.kind_cell(&kind).ingested(1);
        }
        if let Some(subject) = subject {
            // The root of the context's causal chain.
            self.obs.record(
                now,
                TraceEvent::Received {
                    ctx: id,
                    kind: Arc::clone(kind.name_arc()),
                    subject,
                },
            );
        }
        if let Some(clone) = gt_clone {
            // The ground-truth shadow view: an expected context joins it
            // when its use window elapses — the instant a *perfect*
            // strategy under the same middleware timing would make it
            // available — so epoch coverage compares discard decisions,
            // not buffering latency. The schedule is independent of what
            // the plugged-in strategy discards.
            let gid = self.gt_pool.insert(clone);
            self.gt_doom_queue
                .file_expiry(self.config.retention, gid, stamp, expires);
            self.gt_buffer.push_back((now + self.config.window, gid));
        }

        if !self.checker.is_relevant(&kind) {
            // Fig. 7 Part 1: irrelevant contexts become consistent and
            // available immediately; applications use them on their
            // normal cadence.
            self.stats.irrelevant += 1;
            let _ = self.pool.set_state(id, ContextState::Consistent);
            if self.obs.provenance_enabled() {
                // The middleware itself decides the irrelevant fast
                // path, so it owns the verdict edge regardless of the
                // plugged-in strategy's own instrumentation.
                self.obs.record(
                    now,
                    TraceEvent::Caused {
                        ctx: id,
                        cause: CauseKind::ResolvedBecause,
                        constraint: None,
                        partners: Vec::new(),
                        count: None,
                        verdict: Some(ContextState::Consistent),
                    },
                );
            }
            if tail_on {
                // Irrelevant contexts get no constraint verdict or
                // resolution decision; both stamps collapse onto the
                // moment the fast path classified them.
                let classified_ns = self.obs.now_ns();
                self.stamp_tail(id, ingress_ns, classified_ns, classified_ns);
            }
            self.buffer.push_back((now + self.config.window, id));
            self.obs
                .observe(MetricKind::QueueDepth, self.buffer.len() as u64);
            self.process_due(now);
            self.refresh_situations(now);
            let report = SubmitReport {
                id,
                fresh: 0,
                discarded: Vec::new(),
                irrelevant: true,
            };
            self.notify(|obs, mw| {
                if let Some(ctx) = mw.pool.get(id) {
                    obs.on_submitted(&report, ctx);
                }
            });
            return report;
        }

        let check_phase = self
            .obs
            .timed(Phase::ConstraintCheck, MetricKind::CheckLatency);
        let checked = self.checker.on_added(&self.registry, &self.pool, now, id);
        let fresh: Vec<Inconsistency> = match checked {
            Ok(ds) => ds
                .into_iter()
                .map(|d| Inconsistency::from_detection(d, now))
                .collect(),
            Err(_) => {
                // A constraint referenced a predicate/attribute this
                // context lacks: detection is skipped for this addition
                // but the middleware keeps running (and counts it).
                self.stats.eval_errors += 1;
                Vec::new()
            }
        };
        let verdict_ns = check_phase.finish();
        let checker_stats = self.checker.stats();
        let evals = |s: CheckerStats| s.pinned_evals + s.full_evals;
        let compiled_delta = evals(checker_stats) - evals(self.reported);
        if compiled_delta > 0 {
            self.obs.count(CounterKind::CompiledEvals, compiled_delta);
        }
        let fallback_delta = checker_stats.seq_fallbacks - self.reported.seq_fallbacks;
        if fallback_delta > 0 {
            self.obs.count(CounterKind::SeqFallbacks, fallback_delta);
        }
        self.reported = checker_stats;
        self.stats.inconsistencies += fresh.len() as u64;
        if self.obs.is_enabled() {
            self.obs.count(CounterKind::Detections, fresh.len() as u64);
            if !fresh.is_empty() && self.obs.health_enabled() {
                // Violations are attributed to the submitted kind: the
                // arriving context is the change that surfaced them.
                self.kind_cell(&kind).violations(fresh.len() as u64);
            }
            if !fresh.is_empty() && self.obs.provenance_enabled() {
                let _prov_phase = self.obs.phase(Phase::ProvenanceEmit);
                // Every member of a fresh inconsistency gains a
                // violation edge citing the constraint and the bound
                // partners — the evidence later verdicts build on.
                for inc in &fresh {
                    let members = inc.contexts();
                    for &c in members {
                        let partners = members.iter().copied().filter(|p| *p != c).collect();
                        self.obs.record(
                            now,
                            TraceEvent::Caused {
                                ctx: c,
                                cause: CauseKind::ViolatedBy,
                                constraint: Some(inc.constraint().to_string()),
                                partners,
                                count: None,
                                verdict: None,
                            },
                        );
                    }
                }
            }
        }

        let resolve_phase = self
            .obs
            .timed(Phase::Resolution, MetricKind::ResolveLatency);
        let outcome = self.strategy.on_addition(&mut self.pool, now, id, &fresh);
        let decision_ns = resolve_phase.finish();
        if tail_on {
            // Stamp before the discard loop: the strategy may have
            // discarded this very context, and `count_discard` needs the
            // pending span to fold it as `Discarded`.
            self.stamp_tail(id, ingress_ns, verdict_ns, decision_ns);
        }
        for did in &outcome.discarded {
            // Addition-path discards (eager strategies) always take a
            // still-undecided context out; the verdict edge cites the
            // fresh inconsistency that implicated the casualty.
            let cause = fresh
                .iter()
                .find(|inc| inc.contexts().iter().any(|c| c == did));
            self.count_discard(*did, now, cause);
        }
        if outcome.accepted {
            self.buffer.push_back((now + self.config.window, id));
            self.obs
                .observe(MetricKind::QueueDepth, self.buffer.len() as u64);
        }
        self.process_due(now);
        self.refresh_situations(now);
        let report = SubmitReport {
            id,
            fresh: fresh.len(),
            discarded: outcome.discarded,
            irrelevant: false,
        };
        self.notify(|obs, mw| {
            if !fresh.is_empty() {
                obs.on_detections(&fresh);
            }
            if let Some(ctx) = mw.pool.get(id) {
                obs.on_submitted(&report, ctx);
            }
        });
        report
    }

    /// Removes and returns every stored context `select` matches, in
    /// arrival order. Used by shard rebalancing to migrate subjects
    /// between shard engines; callers must ensure nothing in flight
    /// (buffered uses, strategy decisions) refers to the departing ids.
    pub(crate) fn extract_where(&mut self, select: impl Fn(&Context) -> bool) -> Vec<Context> {
        let ids: Vec<ContextId> = self
            .pool
            .iter()
            .filter(|(_, c)| select(c))
            .map(|(id, _)| id)
            .collect();
        ids.into_iter()
            .filter_map(|id| self.pool.remove(id))
            .collect()
    }

    /// Inserts contexts migrated from another shard, assigning fresh
    /// ids and rescheduling their expiries. States travel with the
    /// contexts; stats are untouched — the contexts were already
    /// counted where they were first received.
    pub(crate) fn adopt_contexts(&mut self, ctxs: Vec<Context>) {
        for ctx in ctxs {
            let expires = ctx.lifespan().expires_at();
            let stamp = ctx.stamp();
            let discarded = ctx.state() == ContextState::Inconsistent;
            let id = self.pool.insert(ctx);
            self.doom_queue
                .file_expiry(self.config.retention, id, stamp, expires);
            if discarded {
                self.schedule_discard_doom(id, stamp);
            }
        }
    }

    /// Advances the logical clock, using every buffered context whose
    /// window has elapsed.
    pub fn advance_to(&mut self, t: LogicalTime) {
        if t > self.clock {
            self.clock = t;
        }
        let now = self.clock;
        self.process_due(now);
        self.refresh_situations(now);
        self.publish_health();
        self.notify(|obs, _| obs.on_advanced(now));
    }

    /// Uses every remaining buffered context, advancing the clock as far
    /// as needed (end of an experiment run).
    pub fn drain(&mut self) {
        let last_due = self
            .buffer
            .back()
            .map(|(due, _)| *due)
            .into_iter()
            .chain(self.gt_buffer.back().map(|(due, _)| *due))
            .max();
        if let Some(due) = last_due {
            let target = if due > self.clock { due } else { self.clock };
            self.advance_to(target);
        }
    }

    /// Explicitly uses a context now, ahead of its window (an
    /// application actively reading it). Returns the use record, or
    /// `None` if the context is unknown.
    pub fn use_now(&mut self, id: ContextId) -> Option<UseRecord> {
        if !self.pool.contains(id) {
            return None;
        }
        self.buffer.retain(|(_, bid)| *bid != id);
        let now = self.clock;
        let rec = self.use_one(id, now, None);
        self.refresh_situations(now);
        Some(rec)
    }

    /// The deadline-queue drains of [`Middleware::process_due`]:
    /// ground-truth contexts whose window elapsed join the shadow
    /// available view, and buffered contexts whose window elapsed are
    /// used.
    fn drain_due_buffers(&mut self, now: LogicalTime) {
        while let Some((due, gid)) = self.gt_buffer.front().copied() {
            if due > now {
                break;
            }
            self.gt_buffer.pop_front();
            let _ = self.gt_pool.set_state(gid, ContextState::Consistent);
        }
        while let Some((due, id)) = self.buffer.front().copied() {
            if due > now {
                break;
            }
            self.buffer.pop_front();
            self.use_one(id, now, Some(due));
        }
    }

    /// Processes a context-deletion change. `due` is the buffer deadline
    /// that triggered this use (`None` for an explicit [`Middleware::use_now`]);
    /// the gap between it and `now` is the use-window residual delay —
    /// how long past its window a context lingered before a clock
    /// advance finally used it.
    fn use_one(&mut self, id: ContextId, now: LogicalTime, due: Option<LogicalTime>) -> UseRecord {
        // A use is a resolution decision end to end: the strategy's
        // `on_use` plus the delivery/discard bookkeeping it triggers.
        let obs = self.obs.clone();
        let _resolve_phase = obs.timed(Phase::Resolution, MetricKind::ResolveLatency);
        if let Some(due) = due {
            self.obs
                .observe(MetricKind::UseResidualDelay, (now - due).count());
        }
        let truth = self.pool.get(id).map(|c| c.truth()).unwrap_or_default();
        let kind = self.pool.get(id).map(|c| c.kind().clone());
        let was_live = self.pool.get(id).map(|c| c.is_live(now)).unwrap_or(false);
        let prev_state = self
            .pool
            .get(id)
            .map(|c| c.state())
            .unwrap_or(ContextState::Undecided);
        let outcome = self.strategy.on_use(&mut self.pool, now, id);
        if outcome.delivered {
            self.stats.delivered += 1;
            match truth {
                TruthTag::Expected => self.stats.delivered_expected += 1,
                TruthTag::Corrupted => self.stats.delivered_corrupted += 1,
            }
            if self.obs.is_enabled() {
                self.obs.count(CounterKind::Deliveries, 1);
                if self.obs.health_enabled() {
                    if let Some(kind) = &kind {
                        self.kind_cell(kind).delivered(1);
                    }
                }
                if self.obs.provenance_enabled() {
                    self.obs.record(now, TraceEvent::Delivered { ctx: id });
                    if prev_state == ContextState::Undecided && !self.strategy.emits_provenance() {
                        let _prov_phase = self.obs.phase(Phase::ProvenanceEmit);
                        self.obs.record(
                            now,
                            TraceEvent::Caused {
                                ctx: id,
                                cause: CauseKind::ResolvedBecause,
                                constraint: None,
                                partners: Vec::new(),
                                count: None,
                                verdict: Some(ContextState::Consistent),
                            },
                        );
                    }
                }
            }
            if !self.subscriptions.is_empty() {
                if let Some(ctx) = self.pool.get(id) {
                    self.subscriptions.offer(id, ctx);
                }
            }
        } else if !outcome.discarded.contains(&id) && !was_live {
            self.stats.expired_on_use += 1;
            if self.obs.provenance_enabled() {
                self.obs.record(now, TraceEvent::Expired { ctx: id });
            }
            if self.obs.health_enabled() {
                if let Some(kind) = &kind {
                    self.kind_cell(kind).expired(1);
                }
            }
        }
        for did in &outcome.discarded {
            self.count_discard(*did, now, None);
        }
        self.stats.marked_bad += outcome.marked_bad.len() as u64;
        if self.obs.provenance_enabled() && !self.strategy.emits_provenance() {
            for bid in &outcome.marked_bad {
                self.obs.record(
                    now,
                    TraceEvent::Caused {
                        ctx: *bid,
                        cause: CauseKind::SupersededBy,
                        constraint: None,
                        partners: vec![id],
                        count: None,
                        verdict: Some(ContextState::Bad),
                    },
                );
            }
        }
        if self.obs.tail_enabled() {
            if outcome.delivered {
                self.finish_tail(id, TailOutcome::Delivered, now);
            } else if !outcome.discarded.contains(&id) && !was_live {
                self.finish_tail(id, TailOutcome::Expired, now);
            }
        }
        let rec = UseRecord {
            id,
            delivered: outcome.delivered,
            truth,
            at: now,
        };
        self.notify(|obs, _| obs.on_used(&rec));
        rec
    }

    fn notify(&mut self, mut f: impl FnMut(&mut dyn MiddlewareObserver, &Middleware)) {
        if self.observers.is_empty() {
            return;
        }
        let mut observers = std::mem::take(&mut self.observers);
        for obs in &mut observers {
            f(obs.as_mut(), self);
        }
        self.observers = observers;
    }

    fn count_discard(&mut self, id: ContextId, now: LogicalTime, cause: Option<&Inconsistency>) {
        if let Some((kind, stamp)) = self.pool.get(id).map(|c| (c.kind().clone(), c.stamp())) {
            if self.obs.health_enabled() {
                self.kind_cell(&kind).discarded(1);
            }
            // Every Inconsistent transition funnels through here, so
            // this is where a context's compaction instant becomes
            // known (doom note).
            self.schedule_discard_doom(id, stamp);
        }
        self.stats.discarded += 1;
        match self.pool.get(id).map(|c| c.truth()).unwrap_or_default() {
            TruthTag::Expected => self.stats.discarded_expected += 1,
            TruthTag::Corrupted => self.stats.discarded_corrupted += 1,
        }
        if self.obs.is_enabled() {
            self.obs.count(CounterKind::Discards, 1);
            if self.obs.provenance_enabled() && !self.strategy.emits_provenance() {
                // Generic verdict edge for strategies without their own
                // provenance instrumentation.
                let _prov_phase = self.obs.phase(Phase::ProvenanceEmit);
                self.obs.record(
                    now,
                    TraceEvent::Caused {
                        ctx: id,
                        cause: CauseKind::ResolvedBecause,
                        constraint: cause.map(|inc| inc.constraint().to_string()),
                        partners: cause
                            .map(|inc| {
                                inc.contexts()
                                    .iter()
                                    .copied()
                                    .filter(|c| *c != id)
                                    .collect()
                            })
                            .unwrap_or_default(),
                        count: None,
                        verdict: Some(ContextState::Inconsistent),
                    },
                );
            }
        }
        if self.obs.tail_enabled() {
            self.finish_tail(id, TailOutcome::Discarded, now);
        }
    }

    /// Stamps a context's in-flight end-to-end span (ingress → verdict
    /// → decision, nanoseconds on the obs epoch clock). Only called on
    /// tail-enabled paths; the pending map is bounded by
    /// [`TAIL_PENDING_MAX`].
    fn stamp_tail(&mut self, id: ContextId, ingress_ns: u64, verdict_ns: u64, decision_ns: u64) {
        if self.tail_pending.len() >= TAIL_PENDING_MAX {
            self.tail_pending.clear();
        }
        let span = ContextSpan {
            ingress_ns,
            verdict_ns,
            decision_ns,
            end_ns: 0,
        };
        self.tail_pending.insert(id, span);
    }

    /// Folds a context's terminal outcome into the tail histograms,
    /// capturing it as an exemplar when it lands past the shard's
    /// rolling p99 threshold. No-op for contexts without pending
    /// stamps.
    fn finish_tail(&mut self, id: ContextId, outcome: TailOutcome, at: LogicalTime) {
        let Some(mut span) = self.tail_pending.remove(&id) else {
            return;
        };
        span.end_ns = self.obs.now_ns();
        self.obs.record_e2e(id, outcome, span, at);
    }

    /// The cached health handle for `kind`. Only called on
    /// health-enabled paths; after the first lookup per kind this is a
    /// `HashMap` hit plus an `Arc` clone.
    fn kind_cell(&mut self, kind: &ContextKind) -> KindHandle {
        if let Some(h) = self.kind_cells.get(kind) {
            return h.clone();
        }
        let h = self.obs.kind_handle(kind.name());
        self.kind_cells.insert(kind.clone(), h.clone());
        h
    }

    /// Publishes arena-occupancy gauges and per-kind staleness
    /// watermarks to the attached observability handle. A single branch
    /// when obs is disabled. Runs at batch boundaries ([`Middleware::batch_add`],
    /// [`Middleware::advance_to`], and therefore [`Middleware::drain`]) rather
    /// than per submission, so the hot path stays counter bumps only;
    /// call it directly to refresh gauges on a custom cadence.
    pub fn publish_health(&mut self) {
        if !self.obs.health_enabled() {
            return;
        }
        let obs = self.obs.clone();
        let _health_phase = obs.phase(Phase::HealthPublish);
        let now = self.clock;
        self.obs.publish_pool(
            self.pool.live_slots() as u64,
            self.pool.free_slots() as u64,
            self.pool.slot_recycles(),
            now.tick(),
        );
        for wm in self.pool.kind_watermarks() {
            let oldest_age = wm.oldest_stamp.map(|s| (now - s).count());
            self.kind_cell(&wm.kind)
                .set_watermark(wm.live as u64, oldest_age, wm.oldest_ttl);
        }
    }

    /// The situation round that ends every engine call: each engine
    /// re-evaluates the situations whose clock or watched pool slices
    /// moved since their last evaluation (see [`SituationEngine::watch`])
    /// and reports the rest unchanged, then rising edges and
    /// ground-truth epochs are counted.
    fn refresh_situations(&mut self, now: LogicalTime) {
        if self.situations.is_empty() {
            return;
        }
        let _sit_phase = self.obs.phase(Phase::SituationEval);
        let evaluated_before = self.situation_evaluations();
        let gt_statuses: &[SituationStatus] = if self.config.track_ground_truth {
            self.gt_situations
                .evaluate(&self.registry, &self.gt_pool, now)
        } else {
            &[]
        };
        let statuses = self.situations.evaluate(&self.registry, &self.pool, now);
        for (i, s) in statuses.iter().enumerate() {
            if s.activated {
                self.stats.situation_activations += 1;
            }
            // Matched-activation accounting by ground-truth *epochs*: a
            // maximal interval where the situation truly holds counts as
            // covered (once) if the strategy view also activates it at
            // some round within the interval. Counting per-epoch instead
            // of per-edge keeps a flickering strategy view from scoring
            // the same true episode repeatedly.
            if let Some(g) = gt_statuses.get(i) {
                if g.activated {
                    self.covered[i] = false; // a new ground-truth epoch
                    self.epoch_started[i] = Some(now);
                }
                if g.active && s.active && !self.covered[i] {
                    self.covered[i] = true;
                    self.matched += 1;
                    if let Some(start) = self.epoch_started[i] {
                        self.latency_sum += (now - start).count();
                    }
                }
            }
        }
        let evaluated = self.situation_evaluations() - evaluated_before;
        if evaluated > 0 {
            self.obs.count(CounterKind::SituationEvals, evaluated);
            self.obs.count(CounterKind::CompiledEvals, evaluated);
        }
    }

    /// Situations evaluated so far over both views.
    fn situation_evaluations(&self) -> u64 {
        self.situations.evaluations() + self.gt_situations.evaluations()
    }
}

/// Builder for [`Middleware`] (C-BUILDER).
#[derive(Default)]
pub struct MiddlewareBuilder {
    constraints: Vec<Constraint>,
    situations: Vec<Constraint>,
    strategy: Option<Box<dyn ResolutionStrategy + Send>>,
    registry: Option<PredicateRegistry>,
    config: MiddlewareConfig,
    observers: Vec<Box<dyn MiddlewareObserver>>,
    obs: ShardObs,
}

impl fmt::Debug for MiddlewareBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MiddlewareBuilder")
            .field("constraints", &self.constraints.len())
            .field("situations", &self.situations.len())
            .field("config", &self.config)
            .finish()
    }
}

impl MiddlewareBuilder {
    /// Sets the consistency constraints to deploy.
    pub fn constraints(mut self, constraints: Vec<Constraint>) -> Self {
        self.constraints = constraints;
        self
    }

    /// Sets the application situations to evaluate.
    pub fn situations(mut self, situations: Vec<Constraint>) -> Self {
        self.situations = situations;
        self
    }

    /// Plugs in the resolution strategy (required).
    pub fn strategy(mut self, strategy: Box<dyn ResolutionStrategy + Send>) -> Self {
        self.strategy = Some(strategy);
        self
    }

    /// Overrides the predicate registry (default: builtins).
    pub fn registry(mut self, registry: PredicateRegistry) -> Self {
        self.registry = Some(registry);
        self
    }

    /// Sets the configuration.
    pub fn config(mut self, config: MiddlewareConfig) -> Self {
        self.config = config;
        self
    }

    /// Registers a plug-in observer (Cabot-style passive service); may
    /// be called repeatedly. Register an `Arc<Mutex<...>>` to keep a
    /// reading handle.
    pub fn observer(mut self, observer: Box<dyn MiddlewareObserver>) -> Self {
        self.observers.push(observer);
        self
    }

    /// Attaches an observability handle (from
    /// [`ctxres_obs::ObsRegistry::handle`]); the built middleware *and*
    /// its strategy record life-cycle events and latency metrics through
    /// it. Default: a disabled no-op handle.
    pub fn obs(mut self, obs: ShardObs) -> Self {
        self.obs = obs;
        self
    }

    /// Builds the middleware.
    ///
    /// # Panics
    ///
    /// Panics if no strategy was supplied (C-VALIDATE: there is no
    /// sensible default resolution behaviour), or if two constraints
    /// share a name — inconsistency identity is `(constraint name,
    /// context set)`, so duplicate names would silently merge distinct
    /// inconsistencies in the tracked set.
    pub fn build(self) -> Middleware {
        let mut strategy = self.strategy.expect("a resolution strategy is required");
        // The strategy records into the same per-shard ring as the
        // engine, so its Δ and verdict records interleave with the
        // engine's.
        strategy.attach_obs(self.obs.clone());
        {
            let mut seen = std::collections::BTreeSet::new();
            for c in &self.constraints {
                assert!(
                    seen.insert(c.name()),
                    "duplicate constraint name {:?}",
                    c.name()
                );
            }
        }
        let constraint_set: ConstraintSet = self.constraints.into_iter().collect();
        let covered = vec![false; self.situations.len()];
        let epoch_started_init = vec![None; self.situations.len()];
        let registry = self
            .registry
            .unwrap_or_else(PredicateRegistry::with_builtins);
        let mut pool = ContextPool::new();
        let mut gt_pool = ContextPool::new();
        let mut situations = SituationEngine::new(self.situations);
        let mut gt_situations = situations.twin();
        situations.watch(&registry, &mut pool);
        gt_situations.watch(&registry, &mut gt_pool);
        Middleware {
            pool,
            registry,
            checker: IncrementalChecker::new(constraint_set),
            strategy,
            situations,
            gt_situations,
            gt_pool,
            gt_buffer: VecDeque::new(),
            config: self.config,
            clock: LogicalTime::ZERO,
            buffer: VecDeque::new(),
            stats: MiddlewareStats::default(),
            doom_queue: DoomQueue::default(),
            gt_doom_queue: DoomQueue::default(),
            reported: CheckerStats::default(),
            matched: 0,
            covered,
            epoch_started: epoch_started_init,
            latency_sum: 0,
            observers: self.observers,
            subscriptions: SubscriptionTable::new(),
            obs: self.obs,
            kind_cells: HashMap::new(),
            tail_pending: HashMap::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_constraint::parse_constraints;
    use ctxres_context::{ContextKind, Point};
    use ctxres_core::strategies::{DropBad, DropLatest, Oracle};

    const SPEED: &str = "constraint speed:
        forall a: location, b: location .
          (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

    fn loc(subject: &str, seq: i64, x: f64, y: f64) -> Context {
        Context::builder(ContextKind::new("location"), subject)
            .attr("pos", Point::new(x, y))
            .attr("seq", seq)
            .stamp(LogicalTime::new(seq as u64))
            .build()
    }

    fn corrupted(subject: &str, seq: i64, x: f64, y: f64) -> Context {
        Context::builder(ContextKind::new("location"), subject)
            .attr("pos", Point::new(x, y))
            .attr("seq", seq)
            .stamp(LogicalTime::new(seq as u64))
            .truth(TruthTag::Corrupted)
            .build()
    }

    fn builder(strategy: Box<dyn ResolutionStrategy + Send>, window: u64) -> MiddlewareBuilder {
        Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(strategy)
            .config(MiddlewareConfig {
                window: Ticks::new(window),
                track_ground_truth: true,
                retention: None,
            })
    }

    fn mw(strategy: Box<dyn ResolutionStrategy + Send>, window: u64) -> Middleware {
        builder(strategy, window).build()
    }

    #[test]
    fn irrelevant_kind_takes_the_fast_path() {
        let mut m = mw(Box::new(DropBad::new()), 3);
        let report = m.submit(Context::builder(ContextKind::new("temperature"), "room").build());
        assert!(report.irrelevant);
        assert_eq!(
            m.pool().get(report.id).unwrap().state(),
            ContextState::Consistent
        );
        assert_eq!(m.stats().irrelevant, 1);
    }

    #[test]
    fn window_defers_use_and_drain_flushes() {
        let mut m = mw(Box::new(DropBad::new()), 5);
        m.submit(loc("p", 0, 0.0, 0.0));
        assert_eq!(m.stats().delivered, 0);
        assert_eq!(m.buffered(), 1);
        m.advance_to(LogicalTime::new(5));
        assert_eq!(m.stats().delivered, 1, "window elapsed");
        m.submit(loc("p", 6, 0.5, 0.0));
        m.drain();
        assert_eq!(m.stats().delivered, 2);
        assert_eq!(m.buffered(), 0);
    }

    #[test]
    fn drop_bad_catches_the_deviating_context() {
        // Paper Fig. 5 Scenario A shape with gap-1 + gap-2 constraints.
        let constraints = parse_constraints(
            "constraint gap1:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)
             constraint gap2:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 2)) implies velocity_le(a, b, 3.0)",
        )
        .unwrap();
        let mut m = Middleware::builder()
            .constraints(constraints)
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(10),
                track_ground_truth: true,
                retention: None,
            })
            .build();
        // Steady walk with a wild outlier at seq 2.
        m.submit(loc("p", 0, 0.0, 0.0));
        m.submit(loc("p", 1, 1.0, 0.0));
        m.submit(corrupted("p", 2, 30.0, 30.0));
        m.submit(loc("p", 3, 3.0, 0.0));
        m.submit(loc("p", 4, 4.0, 0.0));
        m.drain();
        assert_eq!(m.stats().discarded, 1);
        assert_eq!(m.stats().discarded_corrupted, 1);
        assert_eq!(m.stats().delivered, 4);
        assert_eq!(m.stats().delivered_expected, 4);
    }

    #[test]
    fn health_counters_and_pool_gauges_ride_the_obs_handle() {
        let registry = ctxres_obs::ObsRegistry::shared(ctxres_obs::ObsConfig::metrics_only(), 1);
        let mut m = Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(10),
                track_ground_truth: false,
                retention: None,
            })
            .obs(registry.handle(0))
            .build();
        m.batch_add(vec![
            loc("p", 0, 0.0, 0.0),
            loc("p", 1, 1.0, 0.0),
            corrupted("p", 2, 30.0, 30.0),
            loc("p", 3, 3.0, 0.0),
        ]);
        m.drain();

        let snap = registry.snapshot();
        let location = [("shard", "0"), ("kind", "location")];
        let count = |snap: &ctxres_obs::ObsSnapshot, field: &str| {
            snap.find(&format!("ctxres_health_{field}_total"), &location)
                .expect("location kind cell")
                .value
                .counter()
        };
        assert_eq!(count(&snap, "ingested"), 4);
        assert_eq!(count(&snap, "discarded"), 1, "outlier discarded");
        assert_eq!(count(&snap, "delivered"), 3);
        assert!(
            count(&snap, "violations") >= 1,
            "speed violations attributed"
        );
        let gauge = |family: &str, labels: &[(&str, &str)]| {
            snap.find(family, labels).and_then(|s| s.value.gauge())
        };
        let shard = [("shard", "0")];
        assert_eq!(
            gauge("ctxres_pool_live_slots", &shard),
            Some(m.pool().live_slots() as f64),
            "pool gauges published at drain"
        );
        assert_eq!(
            snap.total("ctxres_pool_generation_recycles_total"),
            m.pool().slot_recycles()
        );
        assert_eq!(
            gauge("ctxres_health_kind_live", &location),
            Some(3.0),
            "watermark live count tracks the pool"
        );

        // A swap keeps the handle attached: post-swap traffic still
        // lands in the same kind cell.
        let before = m.strategy_name();
        let old = m.swap_strategy(Box::new(DropLatest::new()));
        assert_eq!(old.name(), before);
        assert_ne!(m.strategy_name(), before);
        m.submit(loc("p", 20, 4.0, 0.0));
        m.drain();
        let snap = registry.snapshot();
        assert_eq!(count(&snap, "ingested"), 5);
        assert_eq!(count(&snap, "delivered"), 4);
    }

    #[test]
    fn seq_fallbacks_reach_the_obs_counter() {
        // A duplicate seq breaks p's bucket order for good: the pinned
        // checks of its arrival and of every later p arrival scan the
        // bucket, and the checker's count reaches the shard's counter.
        let registry = ctxres_obs::ObsRegistry::shared(ctxres_obs::ObsConfig::metrics_only(), 1);
        let mut m = Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(Box::new(DropBad::new()))
            .obs(registry.handle(0))
            .build();
        for ctx in [
            loc("p", 0, 0.0, 0.0),
            loc("p", 1, 1.0, 0.0),
            loc("q", 2, 5.0, 5.0),
        ] {
            m.submit(ctx);
        }
        assert_eq!(m.checker_stats().seq_fallbacks, 0, "rising buckets");
        let duplicate = Context::builder(ContextKind::new("location"), "p")
            .attr("pos", Point::new(1.5, 0.0))
            .attr("seq", 1i64)
            .stamp(LogicalTime::new(3))
            .build();
        m.submit(duplicate);
        m.submit(loc("q", 4, 5.5, 5.0));
        m.submit(loc("p", 5, 2.0, 0.0));
        m.drain();
        assert_eq!(m.checker_stats().seq_fallbacks, 4, "two pins per p arrival");
        assert_eq!(registry.snapshot().counter(CounterKind::SeqFallbacks), 4);
    }

    #[test]
    fn disabled_obs_keeps_the_health_path_inert() {
        let mut m = mw(Box::new(DropBad::new()), 3);
        m.submit(loc("p", 0, 0.0, 0.0));
        m.publish_health();
        m.drain();
        assert!(m.kind_cells.is_empty(), "no cells cached when disabled");
    }

    #[test]
    fn metrics_without_health_skips_the_quality_layer() {
        // `with_health(false)` keeps the health layer out of a metrics
        // registry (the benchmark's traced run profiles this way):
        // counters and trace metrics still record, but no kind cells
        // are interned and no gauges are published.
        let registry = ctxres_obs::ObsRegistry::shared(
            ctxres_obs::ObsConfig::metrics_only().with_health(false),
            1,
        );
        let mut m = Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(10),
                track_ground_truth: false,
                retention: None,
            })
            .obs(registry.handle(0))
            .build();
        m.batch_add(vec![
            loc("p", 0, 0.0, 0.0),
            corrupted("p", 1, 30.0, 30.0),
            loc("p", 2, 2.0, 0.0),
        ]);
        m.drain();
        assert!(m.kind_cells.is_empty(), "no cells cached when health off");
        let snap = registry.snapshot();
        assert!(
            snap.family("ctxres_health_ingested_total").next().is_none(),
            "no kind rows published"
        );
        assert!(
            snap.family("ctxres_pool_live_slots").next().is_none(),
            "no pool gauges published"
        );
        // The ordinary metrics layer is unaffected.
        assert!(snap.counter(CounterKind::Ingested) >= 3);
    }

    #[test]
    fn window_zero_degenerates_drop_bad_to_drop_latest() {
        // §5.3: with an empty window the drop-bad strategy behaves like
        // drop-latest. Scenario B shape: the corrupted context slips in
        // cleanly, its correct successor gets blamed.
        let run = |strategy: Box<dyn ResolutionStrategy + Send>| {
            let mut m = mw(strategy, 0);
            m.submit(loc("p", 0, 0.0, 0.0));
            m.submit(corrupted("p", 1, 10.0, 10.0)); // violates vs seq 0? dist ~14 > 1.5 => caught
            m.submit(loc("p", 2, 2.0, 0.0));
            m.drain();
            (m.stats().delivered, m.stats().discarded)
        };
        let bad = run(Box::new(DropBad::new()));
        let lat = run(Box::new(DropLatest::new()));
        assert_eq!(bad, lat);
    }

    #[test]
    fn oracle_stats_are_perfect() {
        let mut m = mw(Box::new(Oracle::new()), 2);
        m.submit(loc("p", 0, 0.0, 0.0));
        m.submit(corrupted("p", 1, 10.0, 10.0));
        m.submit(loc("p", 2, 2.0, 0.0));
        m.drain();
        assert_eq!(m.stats().delivered_expected, 2);
        assert_eq!(m.stats().delivered_corrupted, 0);
        assert_eq!(m.stats().discarded_corrupted, 1);
        assert_eq!(m.stats().discarded_expected, 0);
        assert_eq!(m.stats().survival_rate(), 1.0);
        assert_eq!(m.stats().removal_precision(), 1.0);
    }

    #[test]
    fn use_now_bypasses_the_window() {
        let mut m = mw(Box::new(DropBad::new()), 100);
        let report = m.submit(loc("p", 0, 0.0, 0.0));
        let rec = m.use_now(report.id).unwrap();
        assert!(rec.delivered);
        assert_eq!(m.buffered(), 0, "buffer entry consumed");
        assert_eq!(m.stats().delivered, 1);
        // Draining afterwards must not double-use it.
        m.drain();
        assert_eq!(m.stats().delivered, 1);
    }

    #[test]
    fn use_now_unknown_context_is_none() {
        let mut m = mw(Box::new(DropBad::new()), 1);
        assert!(m.use_now(ContextId::from_raw(99)).is_none());
    }

    #[test]
    fn situations_activate_on_delivery_not_buffering() {
        let situations = parse_constraints(
            "constraint near_door: exists a: location . within(a, -1.0, -1.0, 1.0, 1.0)",
        )
        .unwrap();
        let mut m = Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .situations(situations)
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(4),
                track_ground_truth: true,
                retention: None,
            })
            .build();
        m.submit(loc("p", 0, 0.0, 0.0));
        assert_eq!(m.stats().situation_activations, 0, "still buffered");
        m.drain();
        assert_eq!(m.stats().situation_activations, 1);
        assert_eq!(
            m.matched_activations(),
            1,
            "activation agrees with ground truth"
        );
    }

    #[test]
    fn corrupted_only_activation_is_not_matched() {
        let situations = parse_constraints(
            "constraint near_door: exists a: location . within(a, 9.0, 9.0, 11.0, 11.0)",
        )
        .unwrap();
        let mut m = Middleware::builder()
            .situations(situations)
            .strategy(Box::new(DropLatest::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(0),
                track_ground_truth: true,
                retention: None,
            })
            .build();
        // No constraints deployed: the corrupted context sails through
        // (irrelevant fast path) and falsely activates the situation.
        m.submit(corrupted("p", 0, 10.0, 10.0));
        m.drain();
        assert_eq!(m.stats().situation_activations, 1);
        assert_eq!(m.matched_activations(), 0, "ground truth never had it");
    }

    /// [`mw`] with an [`EventLog`](crate::EventLog) observer, the
    /// engine's record of detections and uses.
    fn logged(
        strategy: Box<dyn ResolutionStrategy + Send>,
        window: u64,
    ) -> (Middleware, Arc<parking_lot::Mutex<crate::EventLog>>) {
        let log = Arc::new(parking_lot::Mutex::new(crate::EventLog::new()));
        let m = builder(strategy, window)
            .observer(Box::new(Arc::clone(&log)))
            .build();
        (m, log)
    }

    #[test]
    fn detections_log_accumulates() {
        let (mut m, log) = logged(Box::new(DropBad::new()), 10);
        m.submit(loc("p", 0, 0.0, 0.0));
        m.submit(corrupted("p", 1, 10.0, 10.0));
        let detected = log
            .lock()
            .events()
            .iter()
            .filter(|e| matches!(e, crate::Event::Detected(_)))
            .count();
        assert_eq!(detected, 1);
        assert_eq!(m.stats().inconsistencies, 1);
    }

    #[test]
    fn use_log_records_every_use() {
        let (mut m, log) = logged(Box::new(DropBad::new()), 1);
        m.submit(loc("p", 0, 0.0, 0.0));
        m.submit(loc("p", 5, 0.5, 0.0));
        m.drain();
        let log = log.lock();
        let uses: Vec<&UseRecord> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                crate::Event::Used(r) => Some(r),
                _ => None,
            })
            .collect();
        assert_eq!(uses.len(), 2);
        assert!(uses.iter().all(|r| r.delivered));
    }

    #[test]
    fn doom_notes_due_together_pop_in_filing_order() {
        let mut queue = DoomQueue::default();
        let id = ContextId::from_raw;
        for (due, raw) in [(5, 9), (3, 7), (5, 2), (5, 4), (4, 1)] {
            queue.file(LogicalTime::new(due), id(raw));
        }
        let mut popped = |now: u64| {
            std::iter::from_fn(|| queue.pop_due(LogicalTime::new(now))).collect::<Vec<_>>()
        };
        assert_eq!(popped(2), vec![]);
        assert_eq!(popped(4), vec![id(7), id(1)]);
        assert_eq!(
            popped(9),
            vec![id(9), id(2), id(4)],
            "filing order, not id order"
        );
        assert_eq!(popped(9), vec![]);
    }

    #[test]
    fn clock_is_monotonic_even_with_stale_stamps() {
        let mut m = mw(Box::new(DropBad::new()), 1);
        m.submit(loc("p", 5, 0.0, 0.0));
        m.submit(loc("p", 3, 0.5, 0.0)); // stale stamp must not rewind
        assert_eq!(m.now(), LogicalTime::new(5));
        m.advance_to(LogicalTime::new(2));
        assert_eq!(m.now(), LogicalTime::new(5));
    }

    #[test]
    #[should_panic(expected = "resolution strategy is required")]
    fn builder_requires_strategy() {
        let _ = Middleware::builder().build();
    }
}

#[cfg(test)]
mod eval_error_tests {
    use super::*;
    use ctxres_constraint::parse_constraints;
    use ctxres_context::ContextKind;
    use ctxres_core::strategies::DropBad;

    #[test]
    fn eval_errors_are_counted_not_fatal() {
        // The constraint reads an attribute the context does not carry.
        let mut m = Middleware::builder()
            .constraints(
                parse_constraints("constraint c: forall a: badge . eq(a.room, \"x\")").unwrap(),
            )
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(1),
                track_ground_truth: false,
                retention: None,
            })
            .build();
        let report = m.submit(Context::builder(ContextKind::new("badge"), "p").build());
        assert_eq!(report.fresh, 0);
        assert_eq!(m.stats().eval_errors, 1);
        m.drain();
        assert_eq!(m.stats().delivered, 1, "context admitted unchecked");
    }
}

#[cfg(test)]
mod observer_tests {
    use super::*;
    use crate::observer::{Event, EventLog};
    use ctxres_constraint::parse_constraints;
    use ctxres_context::{ContextKind, Point};
    use ctxres_core::strategies::DropBad;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn observers_see_the_full_event_stream() {
        let log = Arc::new(Mutex::new(EventLog::new()));
        let mut m = Middleware::builder()
            .constraints(
                parse_constraints(
                    "constraint speed:
                       forall a: location, b: location .
                         (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)",
                )
                .unwrap(),
            )
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(2),
                track_ground_truth: false,
                retention: None,
            })
            .observer(Box::new(Arc::clone(&log)))
            .build();
        for (i, (x, y)) in [(0.0, 0.0), (9.0, 9.0), (1.0, 0.0)].iter().enumerate() {
            m.submit(
                Context::builder(ContextKind::new("location"), "p")
                    .attr("pos", Point::new(*x, *y))
                    .attr("seq", i as i64)
                    .stamp(LogicalTime::new(i as u64))
                    .build(),
            );
        }
        m.drain();
        let events = log.lock();
        let submitted = events
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Submitted { .. }))
            .count();
        let detected = events
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Detected(_)))
            .count();
        let used = events
            .events()
            .iter()
            .filter(|e| matches!(e, Event::Used(_)))
            .count();
        assert_eq!(submitted, 3);
        assert!(detected >= 2, "the outlier conflicts with both neighbours");
        assert_eq!(used, 3);
    }
}

#[cfg(test)]
mod subscription_tests {
    use super::*;
    use crate::subscription::SubscriptionFilter;
    use ctxres_constraint::parse_constraints;
    use ctxres_context::{ContextKind, Point};
    use ctxres_core::strategies::DropBad;

    #[test]
    fn subscriptions_receive_only_delivered_matches() {
        let mut m = Middleware::builder()
            .constraints(
                parse_constraints(
                    "constraint region: forall a: location . within(a, 0.0, 0.0, 10.0, 10.0)",
                )
                .unwrap(),
            )
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(1),
                track_ground_truth: false,
                retention: None,
            })
            .build();
        let peter_locations = m.subscribe(
            SubscriptionFilter::all()
                .of_kind("location")
                .of_subject("peter"),
        );
        let everything = m.subscribe(SubscriptionFilter::all());

        let good = m
            .submit(
                Context::builder(ContextKind::new("location"), "peter")
                    .attr("pos", Point::new(1.0, 1.0))
                    .stamp(LogicalTime::new(0))
                    .build(),
            )
            .id;
        m.submit(
            Context::builder(ContextKind::new("location"), "mary")
                .attr("pos", Point::new(2.0, 2.0))
                .stamp(LogicalTime::new(1))
                .build(),
        );
        // Off the floor: detected and (eventually) discarded, never
        // delivered to subscribers.
        m.submit(
            Context::builder(ContextKind::new("location"), "peter")
                .attr("pos", Point::new(50.0, 50.0))
                .stamp(LogicalTime::new(2))
                .build(),
        );
        m.drain();

        assert_eq!(m.poll(peter_locations), vec![good]);
        assert_eq!(m.poll(everything).len(), 2);
        assert!(m.poll(everything).is_empty(), "polling drains");
    }
}

#[cfg(test)]
mod retention_tests {
    use super::*;
    use ctxres_constraint::parse_constraints;
    use ctxres_context::{ContextKind, Lifespan, Point};
    use ctxres_core::strategies::DropLatest;

    #[test]
    fn retention_bounds_pool_size_on_long_runs() {
        let mut m = Middleware::builder()
            .constraints(
                parse_constraints(
                    "constraint region: forall a: location . within(a, -1.0, -1.0, 1.0, 1.0)",
                )
                .unwrap(),
            )
            .strategy(Box::new(DropLatest::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(1),
                track_ground_truth: false,
                retention: Some(Ticks::new(20)),
            })
            .build();
        for i in 0..500u64 {
            // Alternate on-floor and off-floor fixes (the latter get
            // discarded); everything carries a short lifespan.
            let x = if i % 2 == 0 { 0.0 } else { 50.0 };
            m.submit(
                Context::builder(ContextKind::new("location"), "p")
                    .attr("pos", Point::new(x, 0.0))
                    .attr("seq", i as i64)
                    .stamp(LogicalTime::new(i))
                    .lifespan(Lifespan::with_ttl(LogicalTime::new(i), Ticks::new(5)))
                    .build(),
            );
        }
        m.drain();
        assert!(
            m.stats().compacted > 400,
            "compacted {}",
            m.stats().compacted
        );
        assert!(
            m.pool().len() < 60,
            "pool must stay bounded, holds {}",
            m.pool().len()
        );
        // Accounting unaffected by compaction.
        assert_eq!(m.stats().received, 500);
        assert_eq!(
            m.stats().delivered + m.stats().discarded,
            500,
            "every context decided"
        );
    }

    /// A TTL too long to add to its creation instant saturates at the
    /// end of the clock instead of wrapping to an early deadline (or
    /// panicking in a debug build): the context stays live, is
    /// delivered, and its doom notes never come due while retention
    /// compacts its short-lived neighbours.
    #[test]
    fn near_infinite_ttl_stays_live_and_is_never_compacted() {
        let log = Arc::new(parking_lot::Mutex::new(crate::EventLog::new()));
        let mut m = Middleware::builder()
            .constraints(
                parse_constraints(
                    "constraint region: forall a: location . within(a, -1.0, -1.0, 1.0, 1.0)",
                )
                .unwrap(),
            )
            .strategy(Box::new(DropLatest::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(1),
                track_ground_truth: true,
                retention: Some(Ticks::new(20)),
            })
            .observer(Box::new(Arc::clone(&log)))
            .build();
        let fix = |i: u64, ttl: u64| {
            Context::builder(ContextKind::new("location"), "p")
                .attr("pos", Point::new(0.0, 0.0))
                .attr("seq", i as i64)
                .stamp(LogicalTime::new(i))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(i), Ticks::new(ttl)))
                .build()
        };
        let long = m.submit(fix(5, u64::MAX - 1)).id;
        for i in 6..200u64 {
            m.submit(fix(i, 5));
        }
        m.drain();
        let ctx = m.pool().get(long).expect("never compacted");
        assert!(ctx.is_live(LogicalTime::new(u64::MAX - 1)));
        assert_eq!(ctx.state(), ContextState::Consistent);
        assert!(log
            .lock()
            .events()
            .iter()
            .any(|e| matches!(e, crate::Event::Used(u) if u.id == long && u.delivered)));
        assert!(
            m.stats().compacted > 150,
            "neighbours compacted: {}",
            m.stats().compacted
        );
    }

    #[test]
    fn profiled_run_attributes_nested_phase_time() {
        use ctxres_constraint::parse_constraints;
        use ctxres_context::{ContextKind, Point};
        use ctxres_core::strategies::DropBad;
        use ctxres_obs::{ObsConfig, ObsRegistry};
        const SPEED: &str = "constraint speed:
            forall a: location, b: location .
              (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";
        let loc = |subject: &str, seq: i64, x: f64| {
            Context::builder(ContextKind::new("location"), subject)
                .attr("pos", Point::new(x, 0.0))
                .attr("seq", seq)
                .stamp(LogicalTime::new(seq as u64))
                .build()
        };
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_profile(1), 1);
        let mut m = Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(Box::new(DropBad::new()))
            .obs(registry.handle(0))
            .build();
        m.batch_add(vec![loc("p", 0, 0.0), loc("p", 1, 50.0)]);
        m.drain();
        let agg = registry.profile_snapshot().aggregate();
        let stat = |p: Phase| agg.iter().find(|s| s.phase == p.name()).cloned().unwrap();
        assert_eq!(stat(Phase::Ingest).calls, 1, "one batch, one root");
        assert_eq!(
            stat(Phase::ConstraintCheck).calls,
            2,
            "one check per relevant context"
        );
        assert!(stat(Phase::Resolution).calls >= 2, "on_addition + uses");
        assert!(
            stat(Phase::IndexMaint).calls >= 1,
            "maintenance runs once the drain's uses come due"
        );
        for s in &agg {
            assert!(s.self_ns <= s.total_ns, "{}: self exceeds total", s.phase);
        }
        // Checking nests entirely inside the batch's ingest root.
        assert!(stat(Phase::Ingest).total_ns >= stat(Phase::ConstraintCheck).total_ns);
        // With profiling off the same run records nothing.
        let off = ObsRegistry::shared(ObsConfig::metrics_only(), 1);
        let mut m = Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(Box::new(DropBad::new()))
            .obs(off.handle(0))
            .build();
        m.batch_add(vec![loc("p", 0, 0.0)]);
        m.drain();
        assert!(off.profile_snapshot().is_empty());
    }

    #[test]
    fn tail_spans_fold_through_a_batch() {
        use ctxres_constraint::parse_constraints;
        use ctxres_context::{ContextKind, Point};
        use ctxres_core::strategies::DropBad;
        use ctxres_obs::{ObsConfig, ObsRegistry, TailOutcome};
        const SPEED: &str = "constraint speed:
            forall a: location, b: location .
              (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";
        let loc = |subject: &str, seq: i64, x: f64| {
            Context::builder(ContextKind::new("location"), subject)
                .attr("pos", Point::new(x, 0.0))
                .attr("seq", seq)
                .stamp(LogicalTime::new(seq as u64))
                .build()
        };
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_tail(true), 1);
        let mut m = Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(Box::new(DropBad::new()))
            .obs(registry.handle(0))
            .build();
        m.batch_add(vec![loc("p", 0, 0.0), loc("p", 1, 50.0), loc("q", 0, 0.0)]);
        m.drain();
        assert!(
            m.tail_pending.is_empty(),
            "every span reached a terminal outcome"
        );
        let snap = registry.snapshot();
        let by = |o: Option<TailOutcome>| -> u64 {
            snap.family("ctxres_e2e_latency_us")
                .filter(|s| o.is_none_or(|o| s.label("outcome") == Some(o.name())))
                .filter_map(|s| s.value.histogram())
                .map(|h| h.count)
                .sum()
        };
        assert_eq!(by(None), 3, "one terminal fold per context");
        assert!(
            by(Some(TailOutcome::Delivered)) >= 1,
            "the clean track delivers"
        );
        assert!(
            by(Some(TailOutcome::Discarded)) >= 1,
            "the violator is dropped"
        );
        // Early records land under the warm-up threshold, so the
        // reservoir holds exemplars; each carries a resolvable causal
        // ID and a telescoping span.
        let exemplars = &snap.exemplars;
        assert!(!exemplars.is_empty());
        for ex in exemplars {
            assert!(ex.causal_id().starts_with("s0/ctx#"), "{}", ex.causal_id());
            let seg_sum: u64 = ex.span.segments().iter().sum();
            assert_eq!(seg_sum, ex.span.total_ns());
        }
    }

    #[test]
    fn single_submits_record_tail_spans_too() {
        use ctxres_constraint::parse_constraints;
        use ctxres_context::{ContextKind, Point};
        use ctxres_core::strategies::DropBad;
        use ctxres_obs::{ObsConfig, ObsRegistry, TailOutcome};
        let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_tail(true), 1);
        let mut m = Middleware::builder()
            .constraints(
                parse_constraints(
                    "constraint region: forall a: location . within(a, -1.0, -1.0, 1.0, 1.0)",
                )
                .unwrap(),
            )
            .strategy(Box::new(DropBad::new()))
            .obs(registry.handle(0))
            .build();
        m.submit(
            Context::builder(ContextKind::new("location"), "p")
                .attr("pos", Point::new(0.0, 0.0))
                .stamp(LogicalTime::new(0))
                .build(),
        );
        m.drain();
        assert!(m.tail_pending.is_empty());
        let delivered = registry
            .snapshot()
            .find(
                "ctxres_e2e_latency_us",
                &[("outcome", TailOutcome::Delivered.name())],
            )
            .and_then(|s| s.value.histogram())
            .map_or(0, |h| h.count);
        assert_eq!(delivered, 1, "single submits stamp spans as well");
    }
}

#[cfg(test)]
mod builder_validation_tests {
    use super::*;
    use ctxres_constraint::parse_constraints;
    use ctxres_core::strategies::DropBad;

    #[test]
    #[should_panic(expected = "duplicate constraint name")]
    fn duplicate_constraint_names_rejected() {
        let constraints = parse_constraints(
            "constraint same: forall a: k . true
             constraint same: forall a: k . false",
        )
        .unwrap();
        let _ = Middleware::builder()
            .constraints(constraints)
            .strategy(Box::new(DropBad::new()))
            .build();
    }
}

#[cfg(test)]
mod situation_skip_tests {
    use super::*;
    use ctxres_constraint::parse_constraints;
    use ctxres_context::Lifespan;
    use ctxres_core::strategies::{by_name, DropBad};
    use proptest::prelude::*;

    /// Pair constraints that make the strategies discard: a `noise`
    /// track may not stay loud, a `venue` track may not hop between lab
    /// and hall.
    const CONSTRAINTS: &str = "constraint steady:
        forall a: noise, b: noise .
          (same_subject(a, b) and seq_gap(a, b, 1)) implies (lt(a.level, 80.0) or lt(b.level, 80.0))
     constraint no_hop:
        forall a: venue, b: venue .
          (same_subject(a, b) and seq_gap(a, b, 1)) implies (eq(a.place, b.place) or eq(b.place, \"office\"))";

    /// One of each slice shape a situation can read: a literal-subject
    /// `exists`, a subject-guarded `forall`, a kind-wide `exists`, a
    /// cross-kind pair, a vacuous `forall` over a kind no stream holds,
    /// and one that raises on a missing attribute.
    const SITUATIONS: &str = "constraint s0_office:
        exists v: venue . subject_eq(v, \"s0\") and eq(v.place, \"office\")
     constraint s1_calm:
        forall n: noise . (subject_eq(n, \"s1\") and gt(n.level, 10.0)) implies lt(n.level, 55.0)
     constraint loud:
        exists n: noise . gt(n.level, 70.0)
     constraint office_quiet:
        exists v: venue, n: noise .
          same_subject(v, n) and eq(v.place, \"office\") and lt(n.level, 55.0)
     constraint no_badges:
        forall b: badge . eq(b.room, \"x\")
     constraint all_office:
        forall v: venue . eq(v.place, \"office\") or gt(v.missing, 0)";

    /// One call of a scripted run.
    #[derive(Debug, Clone)]
    enum Call {
        /// Submits a `venue` (with `noise`, a `noise`) context about
        /// subject `subject`, stamped `gap` ticks past the clock and
        /// living `ttl` ticks (`None`: forever).
        Submit {
            noise: bool,
            subject: u8,
            gap: u64,
            value: u8,
            ttl: Option<u64>,
        },
        /// A bare `advance_to`, `gap` ticks past the clock.
        Advance(u64),
        /// `use_now` of the `nth` stored context (modulo the pool's).
        UseNow(usize),
        /// A shard-rebalance round trip of one subject's contexts:
        /// drain, extract them, then adopt them back.
        Migrate(u8),
    }

    /// Submissions make up 6 calls in 10, bare advances 2, `use_now`
    /// and migrations 1 each.
    fn call() -> impl Strategy<Value = Call> {
        (
            (0u8..10, any::<bool>(), any::<u8>()),
            (
                0u64..4,
                any::<u8>(),
                proptest::option::of(1u64..8),
                any::<usize>(),
            ),
        )
            .prop_map(
                |((pick, noise, subject), (gap, value, ttl, nth))| match pick {
                    0..=5 => Call::Submit {
                        noise,
                        subject,
                        gap: gap % 3,
                        value,
                        ttl,
                    },
                    6 | 7 => Call::Advance(gap),
                    8 => Call::UseNow(nth),
                    _ => Call::Migrate(subject),
                },
            )
    }

    /// The context a [`Call::Submit`] submits: `value` picks the place
    /// or level, and every fifth value is a corrupted reading.
    fn reading(
        noise: bool,
        subject: &str,
        seq: i64,
        at: u64,
        value: u8,
        ttl: Option<u64>,
    ) -> Context {
        let kind = if noise { "noise" } else { "venue" };
        let builder = Context::builder(ContextKind::new(kind), subject)
            .attr("seq", seq)
            .stamp(LogicalTime::new(at));
        let builder = if noise {
            builder.attr("level", f64::from(value % 101))
        } else {
            builder.attr("place", ["office", "hall", "lab"][usize::from(value % 3)])
        };
        let builder = match ttl {
            Some(ttl) => {
                builder.lifespan(Lifespan::with_ttl(LogicalTime::new(at), Ticks::new(ttl)))
            }
            None => builder,
        };
        let truth = if value.is_multiple_of(5) {
            TruthTag::Corrupted
        } else {
            TruthTag::Expected
        };
        builder.truth(truth).build()
    }

    /// Unwatched twins of a middleware's two situation engines: each
    /// evaluates every situation of every round.
    struct Twins {
        view: SituationEngine,
        gt_view: SituationEngine,
    }

    impl Twins {
        fn of(m: &Middleware) -> Self {
            Twins {
                view: m.situations.twin(),
                gt_view: m.gt_situations.twin(),
            }
        }

        /// Runs the round the middleware's last call ran and checks
        /// that the watched engines, which may have skipped situations,
        /// report what evaluating every situation reports.
        fn check(&mut self, m: &Middleware, call: &str) {
            let views = [
                (&mut self.view, &m.situations, &m.pool, "strategy"),
                (
                    &mut self.gt_view,
                    &m.gt_situations,
                    &m.gt_pool,
                    "ground truth",
                ),
            ];
            for (twin, watched, pool, view) in views {
                let want: Vec<bool> = twin
                    .evaluate(&m.registry, pool, m.clock)
                    .iter()
                    .map(|s| s.active)
                    .collect();
                let got: Vec<bool> = watched.statuses().iter().map(|s| s.active).collect();
                assert_eq!(got, want, "{view} view after {call} at {}", m.clock);
                assert_eq!(
                    watched.activations(),
                    twin.activations(),
                    "{view} activations after {call}"
                );
            }
            assert_eq!(m.stats.situation_activations, self.view.activations());
        }
    }

    /// Runs `calls` through a middleware over `registry` and checks
    /// every round against unwatched twins.
    fn run_checked(
        calls: &[Call],
        subjects: u8,
        strategy: &str,
        window: u64,
        retention: bool,
        registry: PredicateRegistry,
    ) {
        let situations = parse_constraints(SITUATIONS).unwrap();
        let mut m = Middleware::builder()
            .constraints(parse_constraints(CONSTRAINTS).unwrap())
            .situations(situations)
            .strategy(by_name(strategy, 7).unwrap())
            .registry(registry)
            .config(MiddlewareConfig {
                window: Ticks::new(window),
                track_ground_truth: true,
                retention: retention.then(|| Ticks::new(3)),
            })
            .build();
        let mut twins = Twins::of(&m);
        let mut seqs: HashMap<(bool, u8), i64> = HashMap::new();
        for call in calls {
            match *call {
                Call::Submit {
                    noise,
                    subject,
                    gap,
                    value,
                    ttl,
                } => {
                    let subject = subject % subjects;
                    let seq = seqs.entry((noise, subject)).or_insert(0);
                    *seq += 1;
                    let at = m.now().tick() + gap;
                    m.submit(reading(noise, &format!("s{subject}"), *seq, at, value, ttl));
                    twins.check(&m, "submit");
                }
                Call::Advance(gap) => {
                    m.advance_to(LogicalTime::new(m.now().tick() + gap));
                    twins.check(&m, "advance_to");
                }
                Call::UseNow(nth) => {
                    let stored = m.pool().len();
                    let id = (stored > 0).then(|| m.pool().iter().nth(nth % stored).unwrap().0);
                    if let Some(id) = id {
                        m.use_now(id);
                        twins.check(&m, "use_now");
                    }
                }
                Call::Migrate(subject) => {
                    let subject = format!("s{}", subject % subjects);
                    drain(&mut m);
                    twins.check(&m, "drain");
                    let migrated = m.extract_where(|c| c.subject() == subject);
                    m.advance_to(m.now());
                    twins.check(&m, "extract_where");
                    m.adopt_contexts(migrated);
                    m.advance_to(m.now());
                    twins.check(&m, "adopt_contexts");
                }
            }
        }
        drain(&mut m);
        twins.check(&m, "the final drain");
    }

    /// `drain` plus a bare `advance_to` at the clock it leaves: exactly
    /// one situation round, whether or not anything was buffered.
    fn drain(m: &mut Middleware) {
        m.drain();
        m.advance_to(m.now());
    }

    /// A registry whose `subject_eq` takes three arguments: literal
    /// subjects stop narrowing, so every slice widens to its kind (and
    /// every guard raises `Arity`).
    fn other_arity_subject_eq() -> PredicateRegistry {
        let mut registry = PredicateRegistry::with_builtins();
        registry.register("subject_eq", 3, |_| Ok(true));
        registry
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Skipping a situation whose clock and slices did not move is
        /// invisible: after every call, both views' statuses and
        /// activation counts equal those of unwatched twins that
        /// evaluate every situation over the same pools.
        #[test]
        fn skipped_situations_report_what_evaluating_them_would(
            calls in proptest::collection::vec(call(), 1..60),
            subjects in 2u8..5,
            window in 0u64..6,
            retention in any::<bool>(),
        ) {
            for strategy in ["d-bad", "d-lat", "d-all", "opt-r"] {
                for registry in [PredicateRegistry::with_builtins(), other_arity_subject_eq()] {
                    run_checked(&calls, subjects, strategy, window, retention, registry);
                }
            }
        }
    }

    /// The obs `situation_evals` counter and the situation share of
    /// `compiled_evals` count the situations a round evaluates, not
    /// rounds times situations; the checker share is its pinned and
    /// full evaluations.
    #[test]
    fn situation_counters_count_evaluated_situations() {
        let obs = ctxres_obs::ObsRegistry::shared(ctxres_obs::ObsConfig::metrics_only(), 1);
        let situations = parse_constraints(
            "constraint p_home: exists a: venue . subject_eq(a, \"p\") and eq(a.place, \"office\")
             constraint q_home: exists a: venue . subject_eq(a, \"q\") and eq(a.place, \"office\")",
        )
        .unwrap();
        let mut m = Middleware::builder()
            .constraints(parse_constraints(CONSTRAINTS).unwrap())
            .situations(situations)
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(0),
                track_ground_truth: false,
                retention: None,
            })
            .obs(obs.handle(0))
            .build();
        m.submit(reading(false, "p", 1, 0, 0, None)); // first round: both
        m.submit(reading(false, "q", 1, 0, 0, None)); // q's slice moved
        m.advance_to(LogicalTime::new(0)); // nothing moved
        m.advance_to(LogicalTime::new(3)); // the clock moved: both
        assert_eq!(m.stats().situation_activations, 2);
        assert_eq!(m.situations.evaluations(), 5, "4 rounds of 2 would be 8");
        let snap = obs.snapshot();
        assert_eq!(snap.counter(CounterKind::SituationEvals), 5);
        assert_eq!(
            snap.counter(CounterKind::CompiledEvals),
            m.checker_stats().pinned_evals + m.checker_stats().full_evals + 5
        );
    }
}
