//! The drop-bad strategy — the paper's contribution (§3).

use crate::inconsistency::Inconsistency;
use crate::strategy::{pick_latest, AdditionOutcome, ResolutionStrategy, TiePolicy, UseOutcome};
use crate::tracked::TrackedSet;
use ctxres_context::{ContextId, ContextPool, ContextState, LogicalTime};
use ctxres_obs::{CauseKind, MetricKind, ShardObs, TraceEvent};

/// Drop-bad (`D-BAD`): heuristics-based deferred resolution driven by
/// count values (paper §3, Figs. 6–8).
///
/// Unlike the eager baselines, drop-bad **tolerates** detected
/// inconsistencies: it records them in the tracked set Δ and defers the
/// discard decision for each context until an application actually uses
/// it. At that point (Fig. 7, Part 2):
///
/// 1. if the context is `Bad`, or carries the **largest count value**
///    within one of its tracked inconsistencies, it is set
///    `Inconsistent` and discarded;
/// 2. otherwise it is set `Consistent` and delivered;
/// 3. in either case, for every tracked inconsistency the context
///    participated in, the member carrying the largest count value (if
///    it is a different context) is marked `Bad` — a deferred discard
///    that lets the middleware keep collecting count evidence;
/// 4. all inconsistencies involving the used context leave Δ.
///
/// The underlying heuristic: *a context that participates more
/// frequently in inconsistencies is likelier to be incorrect* (§3.1).
/// Under heuristic Rules 1+2 (or the relaxed 1+2′, see
/// [`crate::theory`]), every discarded context is indeed corrupted
/// (Theorems 1 and 2) — validated by this crate's property-test suite.
///
/// Two points the paper's Fig. 7 pseudocode leaves open are resolved as
/// follows (rationale in DESIGN.md):
///
/// * **Ties** (§5.1): governed by [`TiePolicy`]. Under the default
///   `DoomUsed`, a context tying for the maximal count value counts as
///   "largest" and is discarded when used; under `BlamePeer` it is
///   delivered and a tied *undecided* rival (the latest, largest id) is
///   marked bad instead. Ties against rivals that were already
///   delivered always doom the used context — that is what reduces
///   drop-bad to drop-latest at a zero window (§5.3);
/// * **Bad members**: an inconsistency that already contains a `Bad`
///   context is treated as having its discard decided; it neither dooms
///   nor bad-marks its other members. Without this, marking a context
///   bad could cause a peer's discard that an immediate discard would
///   not have — contradicting §3.3's "no negative effect" argument.
///
/// Every decision is explainable from its count evidence. With a
/// tracing [`ShardObs`] attached, each tracked inconsistency gives every
/// member a `JoinedDelta` edge (the constraint, its partners and the
/// count value the insertion bumped the member to), each verdict emits
/// a `ResolvedBecause` edge (the dooming constraint, its partners and
/// the count value; no constraint when an earlier bad-marking decided
/// it) and each bad-marking a `SupersededBy` edge (the constraint and
/// count; the used context is among the partners).
/// [`ProvenanceGraph`](ctxres_obs::ProvenanceGraph) folds them into
/// per-context causal chains.
#[derive(Debug, Clone, Default)]
pub struct DropBad {
    delta: TrackedSet,
    tie_policy: TiePolicy,
    obs: ShardObs,
    /// Per-use scratch, kept so a use allocates no list of its own:
    /// whether each Δ entry involving the used context already holds a
    /// bad member, a snapshot taken before the use marks anyone bad.
    bad_member: Vec<bool>,
    /// Per-use scratch: the entries the use resolves, in Δ's order,
    /// emptied before the use returns.
    resolved: Vec<Inconsistency>,
}

impl DropBad {
    /// Creates the strategy with the default `DoomUsed` tie policy.
    pub fn new() -> Self {
        DropBad::default()
    }

    /// Creates the strategy with an explicit §5.1 tie policy.
    pub fn with_tie_policy(tie_policy: TiePolicy) -> Self {
        DropBad {
            tie_policy,
            ..DropBad::default()
        }
    }

    /// Read access to the tracked set Δ (diagnostics, experiments, and
    /// the heuristic-rule monitors in `ctxres-experiments`).
    pub fn tracked(&self) -> &TrackedSet {
        &self.delta
    }

    /// Emits the current |Δ| into the `DeltaSize` histogram.
    fn observe_delta_size(&self) {
        self.obs
            .observe(MetricKind::DeltaSize, self.delta.len() as u64);
    }

    /// Records one provenance cause edge.
    #[allow(clippy::too_many_arguments)]
    fn emit_cause(
        &self,
        now: LogicalTime,
        ctx: ContextId,
        cause: CauseKind,
        constraint: Option<String>,
        partners: Vec<ContextId>,
        count: Option<u64>,
        verdict: Option<ContextState>,
    ) {
        self.obs.record(
            now,
            TraceEvent::Caused {
                ctx,
                cause,
                constraint,
                partners,
                count,
                verdict,
            },
        );
    }
}

impl ResolutionStrategy for DropBad {
    fn name(&self) -> &'static str {
        "d-bad"
    }

    fn defers_decision(&self) -> bool {
        true
    }

    fn on_addition(
        &mut self,
        _pool: &mut ContextPool,
        now: LogicalTime,
        _id: ContextId,
        fresh: &[Inconsistency],
    ) -> AdditionOutcome {
        // Context addition change (Fig. 6): track the new
        // inconsistencies; the context stays buffered (`Undecided`).
        for inc in fresh {
            if !self.delta.add(inc.clone()) || !self.obs.provenance_enabled() {
                continue;
            }
            // Each member was bumped once, so its count now is the
            // value the insertion bumped it to.
            let members = inc.contexts();
            for &ctx in members {
                self.emit_cause(
                    now,
                    ctx,
                    CauseKind::JoinedDelta,
                    Some(inc.constraint().to_string()),
                    members.iter().copied().filter(|c| *c != ctx).collect(),
                    Some(self.delta.counts().get(ctx) as u64),
                    None,
                );
            }
        }
        self.observe_delta_size();
        AdditionOutcome {
            discarded: Vec::new(),
            accepted: true,
        }
    }

    fn on_use(&mut self, pool: &mut ContextPool, now: LogicalTime, id: ContextId) -> UseOutcome {
        let Some(ctx) = pool.get(id) else {
            return UseOutcome::default();
        };
        match ctx.state() {
            // Already decided earlier (e.g. delivered once before).
            ContextState::Consistent => {
                return UseOutcome {
                    delivered: ctx.is_live(now),
                    discarded: Vec::new(),
                    marked_bad: Vec::new(),
                };
            }
            ContextState::Inconsistent => return UseOutcome::default(),
            ContextState::Undecided | ContextState::Bad => {}
        }
        let was_bad = ctx.state() == ContextState::Bad;
        let live = ctx.is_live(now);

        // Snapshot the inconsistencies involving `id` and decide with the
        // *current* count values, before Δ shrinks.
        //
        // An inconsistency that already contains a `Bad` member is
        // destined to be resolved by that member's discard; it must not
        // doom anyone else, or marking a context bad would have the
        // "negative effect" §3.3 argues it cannot have.
        //
        // Δ is read in place: the inconsistencies move out of it only
        // when they are resolved below, in the order `involving` lists
        // them.
        self.bad_member.clear();
        self.bad_member.extend(self.delta.involving(id).map(|inc| {
            inc.contexts().iter().any(|cid| {
                *cid != id && pool.get(*cid).map(|c| c.state()) == Some(ContextState::Bad)
            })
        }));
        // "Has the largest count value" (Fig. 7): the used context is
        // doomed by an inconsistency when it is the maximum there and no
        // *undecided* rival ties with it — a tied rival that is still
        // buffered can take the blame instead (it gets marked bad below),
        // whereas rivals that were already delivered cannot, so the used
        // context is the only way to resolve that inconsistency. The
        // latter case is what makes a zero window degenerate into
        // drop-latest (§5.3).
        let tied_rival_undecided = |inc: &Inconsistency| {
            let mine = self.delta.counts().get(id);
            inc.contexts().iter().any(|cid| {
                *cid != id
                    && self.delta.counts().get(*cid) == mine
                    && pool.get(*cid).map(|c| c.state()) == Some(ContextState::Undecided)
            })
        };
        let dooming_at =
            self.delta
                .involving(id)
                .zip(&self.bad_member)
                .position(|(inc, has_bad)| {
                    self.delta.is_max_in(id, inc)
                        && !*has_bad
                        && (self.tie_policy == TiePolicy::DoomUsed || !tied_rival_undecided(inc))
                });
        let doomed = was_bad || dooming_at.is_some();
        // Count evidence for the verdict edge, read before Δ shrinks.
        let my_count = self.delta.counts().get(id) as u64;

        // Fig. 7 Part 2, closing loop: for each inconsistency the used
        // context participates in, mark the largest-count member bad
        // (deferring its discard so more count evidence can accumulate).
        let mut marked_bad = Vec::new();
        for (inc, has_bad) in self.delta.involving(id).zip(&self.bad_member) {
            if *has_bad {
                continue; // already has a destined discard
            }
            let used_is_max = self.delta.is_max_in(id, inc);
            if used_is_max && doomed {
                // d' = d: discarding the used context resolves it.
                continue;
            }
            let mut members = self.delta.max_count_members(inc);
            if used_is_max {
                // The used context ties at the top but was delivered; the
                // blame falls on a tied peer.
                members.retain(|m| *m != id);
            }
            let culprit = pick_latest(&members);
            if let Some(culprit) = culprit {
                if pool.get(culprit).map(|c| c.state()) == Some(ContextState::Undecided) {
                    let _ = pool.set_state(culprit, ContextState::Bad);
                    marked_bad.push(culprit);
                    if self.obs.provenance_enabled() {
                        let partners: Vec<ContextId> = inc
                            .contexts()
                            .iter()
                            .copied()
                            .filter(|c| *c != culprit)
                            .collect();
                        self.emit_cause(
                            now,
                            culprit,
                            CauseKind::SupersededBy,
                            Some(inc.constraint().to_string()),
                            partners,
                            Some(self.delta.counts().get(culprit) as u64),
                            Some(ContextState::Bad),
                        );
                    }
                }
            }
        }

        // Context deletion change (Fig. 6): the resolved inconsistencies
        // leave Δ.
        self.delta.resolve_involving(id, &mut self.resolved);
        if self.obs.provenance_enabled() {
            for inc in &self.resolved {
                self.obs.record(
                    now,
                    TraceEvent::DeltaRemoved {
                        constraint: inc.constraint().to_string(),
                        contexts: inc.contexts().iter().copied().collect(),
                    },
                );
            }
        }
        self.observe_delta_size();

        let outcome = if doomed {
            let _ = pool.set_state(id, ContextState::Inconsistent);
            if self.obs.provenance_enabled() {
                // The verdict edge cites the dooming inconsistency (or
                // nothing, when the context was already marked bad —
                // its earlier `SupersededBy` edge carries the blame).
                let (constraint, partners) = match dooming_at.map(|at| &self.resolved[at]) {
                    Some(inc) => (
                        Some(inc.constraint().to_string()),
                        inc.contexts()
                            .iter()
                            .copied()
                            .filter(|c| *c != id)
                            .collect(),
                    ),
                    None => (None, Vec::new()),
                };
                self.emit_cause(
                    now,
                    id,
                    CauseKind::ResolvedBecause,
                    constraint,
                    partners,
                    Some(my_count),
                    Some(ContextState::Inconsistent),
                );
            }
            UseOutcome {
                delivered: false,
                discarded: vec![id],
                marked_bad,
            }
        } else {
            let _ = pool.set_state(id, ContextState::Consistent);
            if self.obs.provenance_enabled() {
                self.emit_cause(
                    now,
                    id,
                    CauseKind::ResolvedBecause,
                    None,
                    Vec::new(),
                    Some(my_count),
                    Some(ContextState::Consistent),
                );
            }
            UseOutcome {
                delivered: live,
                discarded: Vec::new(),
                marked_bad,
            }
        };
        self.resolved.clear();
        outcome
    }

    fn emits_provenance(&self) -> bool {
        self.obs.provenance_enabled()
    }

    fn attach_obs(&mut self, obs: ShardObs) {
        self.obs = obs;
    }

    fn reset(&mut self) {
        self.delta.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_context::{Context, ContextKind};

    /// Builds a pool with `n` location contexts, ids in arrival order.
    fn pool_with(n: usize) -> (ContextPool, Vec<ContextId>) {
        let mut pool = ContextPool::new();
        let ids = (0..n)
            .map(|i| {
                pool.insert(
                    Context::builder(ContextKind::new("location"), "p")
                        .stamp(LogicalTime::new(i as u64))
                        .build(),
                )
            })
            .collect();
        (pool, ids)
    }

    fn pair(a: ContextId, b: ContextId) -> Inconsistency {
        Inconsistency::pair("v", a, b, LogicalTime::ZERO)
    }

    /// Paper Fig. 5, Scenario A: d3 conflicts with d1, d2, d4, d5
    /// (ids 1-based shifted to 0-based: d1..d5 = ids[0..5]).
    fn scenario_a() -> (ContextPool, Vec<ContextId>, DropBad) {
        let (mut pool, ids) = pool_with(5);
        let mut s = DropBad::new();
        let t = LogicalTime::ZERO;
        s.on_addition(
            &mut pool,
            t,
            ids[2],
            &[pair(ids[0], ids[2]), pair(ids[1], ids[2])],
        );
        s.on_addition(&mut pool, t, ids[3], &[pair(ids[2], ids[3])]);
        s.on_addition(&mut pool, t, ids[4], &[pair(ids[2], ids[4])]);
        (pool, ids, s)
    }

    #[test]
    fn addition_only_tracks_never_discards() {
        let (pool, ids, s) = scenario_a();
        assert_eq!(s.tracked().len(), 4);
        assert_eq!(s.tracked().counts().get(ids[2]), 4);
        for &id in &ids {
            assert_eq!(pool.get(id).unwrap().state(), ContextState::Undecided);
        }
    }

    #[test]
    fn hub_context_discarded_when_used() {
        let (mut pool, ids, mut s) = scenario_a();
        let out = s.on_use(&mut pool, LogicalTime::ZERO, ids[2]);
        assert!(!out.delivered);
        assert_eq!(out.discarded, vec![ids[2]]);
        assert_eq!(
            pool.get(ids[2]).unwrap().state(),
            ContextState::Inconsistent
        );
        assert!(s.tracked().is_empty(), "all four inconsistencies resolved");
        // The other contexts then deliver cleanly.
        for &id in &[ids[0], ids[1], ids[3], ids[4]] {
            assert!(s.on_use(&mut pool, LogicalTime::ZERO, id).delivered);
        }
    }

    #[test]
    fn low_count_context_delivered_and_hub_marked_bad() {
        // Paper §3.3 Case 2: using d1 (count 1 < d3's 4) delivers d1 and
        // marks d3 bad.
        let (mut pool, ids, mut s) = scenario_a();
        let out = s.on_use(&mut pool, LogicalTime::ZERO, ids[0]);
        assert!(out.delivered);
        assert_eq!(out.marked_bad, vec![ids[2]]);
        assert_eq!(pool.get(ids[2]).unwrap().state(), ContextState::Bad);
        // (d1,d3) left Δ; the other three remain.
        assert_eq!(s.tracked().len(), 3);
        assert_eq!(s.tracked().counts().get(ids[2]), 3);
        // When d3 is eventually used, bad => inconsistent.
        let out = s.on_use(&mut pool, LogicalTime::ZERO, ids[2]);
        assert!(!out.delivered);
        assert_eq!(
            pool.get(ids[2]).unwrap().state(),
            ContextState::Inconsistent
        );
    }

    #[test]
    fn unconflicted_context_delivers() {
        let (mut pool, ids) = pool_with(1);
        let mut s = DropBad::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        let out = s.on_use(&mut pool, LogicalTime::ZERO, ids[0]);
        assert!(out.delivered);
        assert_eq!(pool.get(ids[0]).unwrap().state(), ContextState::Consistent);
    }

    #[test]
    fn tie_case_default_policy_dooms_first_used() {
        // Scenario B before refinement (Fig. 4): single inconsistency
        // (d3,d4), both count 1 — "one cannot dig out more useful
        // information to distinguish" (§3.1). Under the default DoomUsed
        // policy the first context used is discarded.
        let (mut pool, ids) = pool_with(2);
        let mut s = DropBad::new();
        s.on_addition(
            &mut pool,
            LogicalTime::ZERO,
            ids[1],
            &[pair(ids[0], ids[1])],
        );
        let out = s.on_use(&mut pool, LogicalTime::ZERO, ids[0]);
        assert!(!out.delivered);
        assert_eq!(out.discarded, vec![ids[0]]);
        assert!(s.on_use(&mut pool, LogicalTime::ZERO, ids[1]).delivered);
    }

    #[test]
    fn tie_case_blame_peer_policy_delivers_first_used() {
        let (mut pool, ids) = pool_with(2);
        let mut s = DropBad::with_tie_policy(TiePolicy::BlamePeer);
        s.on_addition(
            &mut pool,
            LogicalTime::ZERO,
            ids[1],
            &[pair(ids[0], ids[1])],
        );
        let out = s.on_use(&mut pool, LogicalTime::ZERO, ids[0]);
        assert!(out.delivered);
        assert_eq!(out.marked_bad, vec![ids[1]]);
        assert!(!s.on_use(&mut pool, LogicalTime::ZERO, ids[1]).delivered);
    }

    #[test]
    fn tie_against_delivered_rival_dooms_the_used_context() {
        // §5.3 window-zero shape: the rival was already delivered, so
        // only the used context can resolve the inconsistency — exactly
        // drop-latest's decision.
        let (mut pool, ids) = pool_with(2);
        let mut s = DropBad::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        assert!(s.on_use(&mut pool, LogicalTime::ZERO, ids[0]).delivered);
        s.on_addition(
            &mut pool,
            LogicalTime::ZERO,
            ids[1],
            &[pair(ids[0], ids[1])],
        );
        let out = s.on_use(&mut pool, LogicalTime::ZERO, ids[1]);
        assert!(!out.delivered);
        assert_eq!(out.discarded, vec![ids[1]]);
    }

    #[test]
    fn scenario_b_refined_keeps_d4_and_d5() {
        // Fig. 5 Scenario B: Δ = {(d3,d4),(d3,d5)}; count(d3)=2 others 1.
        let (mut pool, ids) = pool_with(5);
        let mut s = DropBad::new();
        s.on_addition(
            &mut pool,
            LogicalTime::ZERO,
            ids[3],
            &[pair(ids[2], ids[3])],
        );
        s.on_addition(
            &mut pool,
            LogicalTime::ZERO,
            ids[4],
            &[pair(ids[2], ids[4])],
        );
        assert!(s.on_use(&mut pool, LogicalTime::ZERO, ids[3]).delivered);
        // d3 was marked bad while resolving (d3,d4).
        assert_eq!(pool.get(ids[2]).unwrap().state(), ContextState::Bad);
        assert!(!s.on_use(&mut pool, LogicalTime::ZERO, ids[2]).delivered);
        assert!(s.on_use(&mut pool, LogicalTime::ZERO, ids[4]).delivered);
    }

    #[test]
    fn reuse_of_delivered_context_stays_delivered() {
        let (mut pool, ids) = pool_with(1);
        let mut s = DropBad::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        assert!(s.on_use(&mut pool, LogicalTime::ZERO, ids[0]).delivered);
        assert!(s.on_use(&mut pool, LogicalTime::ZERO, ids[0]).delivered);
    }

    #[test]
    fn expired_context_resolves_but_does_not_deliver() {
        use ctxres_context::{Lifespan, Ticks};
        let mut pool = ContextPool::new();
        let id = pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .lifespan(Lifespan::with_ttl(LogicalTime::ZERO, Ticks::new(1)))
                .build(),
        );
        let mut s = DropBad::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, id, &[]);
        let out = s.on_use(&mut pool, LogicalTime::new(5), id);
        assert!(!out.delivered, "expired contexts are not delivered");
        assert!(
            out.discarded.is_empty(),
            "but not blamed as inconsistent either"
        );
    }

    #[test]
    fn bad_marking_skips_already_decided_contexts() {
        // A context that was already delivered (Consistent) can appear in
        // later inconsistencies; it must not be re-marked bad.
        let (mut pool, ids) = pool_with(3);
        let mut s = DropBad::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        assert!(s.on_use(&mut pool, LogicalTime::ZERO, ids[0]).delivered);
        // New context conflicts with the delivered one twice (two
        // constraints), then a third conflicts with it once.
        s.on_addition(
            &mut pool,
            LogicalTime::ZERO,
            ids[1],
            &[
                Inconsistency::pair("c1", ids[0], ids[1], LogicalTime::ZERO),
                Inconsistency::pair("c2", ids[0], ids[1], LogicalTime::ZERO),
            ],
        );
        s.on_addition(
            &mut pool,
            LogicalTime::ZERO,
            ids[2],
            &[pair(ids[1], ids[2])],
        );
        // Using ids[2]: ids[1] carries the largest count (3) -> bad; the
        // Consistent ids[0] is never touched.
        let out = s.on_use(&mut pool, LogicalTime::ZERO, ids[2]);
        assert!(out.delivered);
        assert_eq!(out.marked_bad, vec![ids[1]]);
        assert_eq!(pool.get(ids[0]).unwrap().state(), ContextState::Consistent);
    }

    #[test]
    fn reset_clears_delta() {
        let (_, _, mut s) = scenario_a();
        assert!(!s.tracked().is_empty());
        s.reset();
        assert!(s.tracked().is_empty());
    }

    #[test]
    fn defers_decision() {
        assert!(DropBad::new().defers_decision());
    }

    #[test]
    fn inconsistency_with_bad_member_dooms_nobody_else() {
        // Star: corrupted hub c (ids[0]) conflicts with leaves e1, e2.
        // Using e1 marks c bad and removes (c,e1); the residual (c,e2)
        // then ties c=1, e2=1 — but c being bad already settles it, so
        // e2 must deliver.
        let (mut pool, ids) = pool_with(3);
        let (c, e1, e2) = (ids[0], ids[1], ids[2]);
        let mut s = DropBad::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, e1, &[pair(c, e1)]);
        s.on_addition(&mut pool, LogicalTime::ZERO, e2, &[pair(c, e2)]);
        assert!(s.on_use(&mut pool, LogicalTime::ZERO, e1).delivered);
        assert_eq!(pool.get(c).unwrap().state(), ContextState::Bad);
        assert!(
            s.on_use(&mut pool, LogicalTime::ZERO, e2).delivered,
            "bad member already resolves the residual inconsistency"
        );
        assert!(!s.on_use(&mut pool, LogicalTime::ZERO, c).delivered);
    }

    #[test]
    fn tied_culprits_mark_the_largest_id_bad() {
        // Two contexts tie at max count within an inconsistency resolved
        // by a third, lower-count context... requires a 3-ary
        // inconsistency.
        let (mut pool, ids) = pool_with(3);
        let mut s = DropBad::new();
        let tri = Inconsistency::new("t", [ids[0], ids[1], ids[2]], LogicalTime::ZERO);
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[2], &[tri]);
        // Give ids[1] and ids[2] an extra count each via another
        // inconsistency pair between them.
        s.on_addition(
            &mut pool,
            LogicalTime::ZERO,
            ids[2],
            &[pair(ids[1], ids[2])],
        );
        // Use ids[0] (count 1 < 2): delivered; culprits tie {1,2} -> the
        // latest, ids[2].
        let out = s.on_use(&mut pool, LogicalTime::ZERO, ids[0]);
        assert!(out.delivered);
        assert_eq!(out.marked_bad, vec![ids[2]]);
    }
}

#[cfg(test)]
mod explanation_tests {
    use super::*;
    use ctxres_context::{Context, ContextKind};
    use ctxres_obs::{CauseEdge, NodeId, ObsConfig, ObsRegistry, ProvenanceGraph};
    use std::sync::Arc;

    fn pair(a: ContextId, b: ContextId) -> Inconsistency {
        Inconsistency::pair("v", a, b, LogicalTime::ZERO)
    }

    /// `n` contexts and a drop-bad reporting into an enabled registry.
    fn observed(n: usize) -> (ContextPool, Vec<ContextId>, DropBad, Arc<ObsRegistry>) {
        let mut pool = ContextPool::new();
        let ids = (0..n)
            .map(|_| pool.insert(Context::builder(ContextKind::new("location"), "p").build()))
            .collect();
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        let mut s = DropBad::new();
        s.attach_obs(registry.handle(0));
        (pool, ids, s, registry)
    }

    /// The verdict edges (`SupersededBy`, `ResolvedBecause`) the run
    /// emitted for `ctx`, oldest first.
    fn verdicts(graph: &ProvenanceGraph, ctx: ContextId) -> Vec<CauseEdge> {
        graph
            .node(NodeId { shard: 0, ctx })
            .map(|n| {
                n.chain
                    .iter()
                    .filter(|e| {
                        matches!(
                            e.cause,
                            CauseKind::SupersededBy | CauseKind::ResolvedBecause
                        )
                    })
                    .cloned()
                    .collect()
            })
            .unwrap_or_default()
    }

    #[test]
    fn every_discard_is_explained() {
        let (mut pool, ids, mut s, registry) = observed(3);
        let (hub, e1, e2) = (ids[0], ids[1], ids[2]);
        let t = LogicalTime::ZERO;
        s.on_addition(&mut pool, t, e1, &[pair(hub, e1)]);
        s.on_addition(&mut pool, t, e2, &[pair(hub, e2)]);
        // Using a leaf delivers it and marks the hub bad; the other leaf
        // delivers too (the bad hub settles their inconsistency), and
        // using the hub then discards it on that earlier mark alone.
        assert!(s.on_use(&mut pool, t, e1).delivered);
        assert!(s.on_use(&mut pool, t, e2).delivered);
        assert!(!s.on_use(&mut pool, t, hub).delivered);
        let graph = ProvenanceGraph::from_records(&registry.drain());
        let edges = verdicts(&graph, hub);
        assert_eq!(edges.len(), 2, "marked bad, then discarded: {edges:?}");
        let (marked, discarded) = (&edges[0], &edges[1]);
        assert_eq!(marked.cause, CauseKind::SupersededBy);
        assert_eq!(marked.constraint.as_deref(), Some("v"));
        assert_eq!(marked.count, Some(2));
        assert_eq!(marked.verdict, Some(ContextState::Bad));
        assert!(
            marked.partners.contains(&NodeId { shard: 0, ctx: e1 }),
            "the used context is among the partners: {marked:?}"
        );
        assert_eq!(discarded.cause, CauseKind::ResolvedBecause);
        assert_eq!(
            discarded.constraint, None,
            "the earlier mark carries the blame"
        );
        assert_eq!(discarded.verdict, Some(ContextState::Inconsistent));
        let discards: Vec<NodeId> = graph.discarded().iter().map(|n| n.id).collect();
        assert_eq!(discards, vec![NodeId { shard: 0, ctx: hub }]);
    }

    #[test]
    fn direct_discard_cites_the_inconsistency_and_count() {
        let (mut pool, ids, mut s, registry) = observed(3);
        let (a, b, c) = (ids[0], ids[1], ids[2]);
        let now = LogicalTime::ZERO;
        s.on_addition(&mut pool, now, b, &[pair(a, b)]);
        s.on_addition(&mut pool, now, c, &[pair(b, c)]);
        assert!(!s.on_use(&mut pool, now, b).delivered, "count 2: discarded");
        let graph = ProvenanceGraph::from_records(&registry.drain());
        let edges = verdicts(&graph, b);
        assert_eq!(edges.len(), 1, "{edges:?}");
        let edge = &edges[0];
        assert_eq!(edge.cause, CauseKind::ResolvedBecause);
        assert_eq!(edge.constraint.as_deref(), Some("v"));
        assert_eq!(edge.partners, vec![NodeId { shard: 0, ctx: a }]);
        assert_eq!(edge.count, Some(2));
        assert_eq!(edge.verdict, Some(ContextState::Inconsistent));
    }

    #[test]
    fn explanations_off_by_default() {
        let mut s = DropBad::new();
        assert!(!s.emits_provenance());
        s.attach_obs(ObsRegistry::shared(ObsConfig::metrics_only(), 1).handle(0));
        assert!(!s.emits_provenance(), "no trace rings, no edges");
        s.attach_obs(ObsRegistry::shared(ObsConfig::enabled(), 1).handle(0));
        assert!(s.emits_provenance());
    }
}
