//! Impact-aware drop-bad — the paper's named future work (§5.1, §7).
//!
//! §5.1: "when the tie case comes … one needs to carefully examine
//! discarding which particular context among them would cause less
//! impact on context-aware applications. Such examination would
//! potentially bring additional benefits to this strategy." §7 repeats
//! the call: resolution "should be enhanced with the effort of
//! estimating the impact of a certain resolution strategy on
//! applications". (The authors' own follow-up is their ESEC/FSE'07
//! impact-oriented resolution poster.)
//!
//! This module implements that enhancement: an [`ImpactProfile`] derived
//! statically from the application's situations scores how much a
//! context matters to them, and [`ImpactAwareDropBad`] uses the score to
//! break count-value ties — among equally suspicious contexts, discard
//! the one applications will miss least.

use crate::inconsistency::Inconsistency;
use crate::strategies::DropBad;
use crate::strategy::{pick_latest, AdditionOutcome, ResolutionStrategy, UseOutcome};
use ctxres_context::{Context, ContextId, ContextKind, ContextPool, ContextState, LogicalTime};
use std::collections::BTreeSet;
use std::fmt;

/// A static profile of what the application's situations care about:
/// which context kinds they quantify over and which specific subjects
/// they name.
///
/// Built once from the deployed situations (any formula source works —
/// the profile only needs `(kind, subjects)` facts, so it does not
/// depend on the constraint crate).
#[derive(Debug, Clone, Default)]
pub struct ImpactProfile {
    kinds: BTreeSet<ContextKind>,
    subjects: BTreeSet<(ContextKind, String)>,
}

impl ImpactProfile {
    /// Creates an empty profile (everything scores zero).
    pub fn new() -> Self {
        ImpactProfile::default()
    }

    /// Records that some situation quantifies over `kind`.
    pub fn watch_kind(&mut self, kind: ContextKind) -> &mut Self {
        self.kinds.insert(kind);
        self
    }

    /// Records that some situation names `subject` of `kind`
    /// specifically (e.g. `subject_eq(b, "peter")`).
    pub fn watch_subject(&mut self, kind: ContextKind, subject: &str) -> &mut Self {
        self.subjects.insert((kind.clone(), subject.to_owned()));
        self.kinds.insert(kind);
        self
    }

    /// How much the application would miss this context: 0 = no
    /// situation can see it, 1 = its kind feeds situations, 2 = a
    /// situation names its subject explicitly.
    pub fn impact_of(&self, ctx: &Context) -> u32 {
        if self
            .subjects
            .contains(&(ctx.kind().clone(), ctx.subject().to_owned()))
        {
            2
        } else if self.kinds.contains(ctx.kind()) {
            1
        } else {
            0
        }
    }
}

/// Drop-bad with impact-aware tie resolution.
///
/// Delegates the count-value machinery to the inner [`DropBad`] (with
/// the `BlamePeer` tie policy so ties surface as a *choice* of which
/// rival to mark bad), but picks the rival with the **lowest impact
/// score**; of rivals tied on impact, the latest (largest id).
pub struct ImpactAwareDropBad {
    inner: DropBad,
    profile: ImpactProfile,
}

impl fmt::Debug for ImpactAwareDropBad {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ImpactAwareDropBad")
            .field("profile", &self.profile)
            .finish()
    }
}

impl ImpactAwareDropBad {
    /// Creates the strategy with the given application profile.
    pub fn new(profile: ImpactProfile) -> Self {
        ImpactAwareDropBad {
            inner: DropBad::with_tie_policy(crate::strategy::TiePolicy::DoomUsed),
            profile,
        }
    }

    /// The profile in use.
    pub fn profile(&self) -> &ImpactProfile {
        &self.profile
    }

    /// Among the contexts of a resolved inconsistency tied at the
    /// maximal count value, the one whose discard hurts least.
    fn cheapest(&self, pool: &ContextPool, tied: &[ContextId]) -> Option<ContextId> {
        let min_impact = tied
            .iter()
            .filter_map(|id| pool.get(*id).map(|c| self.profile.impact_of(c)))
            .min()?;
        let cheapest: Vec<ContextId> = tied
            .iter()
            .copied()
            .filter(|id| pool.get(*id).map(|c| self.profile.impact_of(c)) == Some(min_impact))
            .collect();
        pick_latest(&cheapest)
    }
}

impl ResolutionStrategy for ImpactAwareDropBad {
    fn name(&self) -> &'static str {
        "d-bad-impact"
    }

    fn defers_decision(&self) -> bool {
        true
    }

    fn on_addition(
        &mut self,
        pool: &mut ContextPool,
        now: LogicalTime,
        id: ContextId,
        fresh: &[Inconsistency],
    ) -> AdditionOutcome {
        self.inner.on_addition(pool, now, id, fresh)
    }

    fn on_use(&mut self, pool: &mut ContextPool, now: LogicalTime, id: ContextId) -> UseOutcome {
        // Identify the tie candidates *before* delegating: the ties the
        // inner strategy would resolve by dooming `id` are the ones we
        // can re-route toward a cheaper victim.
        let candidates: Vec<(Inconsistency, Vec<ContextId>)> = self
            .inner
            .tracked()
            .involving(id)
            .map(|inc| (inc.clone(), self.inner.tracked().max_count_members(inc)))
            .filter(|(_, members)| members.len() > 1 && members.contains(&id))
            .collect();

        if candidates.is_empty() {
            return self.inner.on_use(pool, now, id);
        }

        // For each tied inconsistency, check whether some rival is
        // strictly cheaper to lose than `id`.
        let my_impact = pool.get(id).map(|c| self.profile.impact_of(c)).unwrap_or(0);
        let mut sacrifices: Vec<ContextId> = Vec::new();
        for (_, members) in &candidates {
            let rivals: Vec<ContextId> = members
                .iter()
                .copied()
                .filter(|m| {
                    *m != id && pool.get(*m).map(|c| c.state()) == Some(ContextState::Undecided)
                })
                .collect();
            if let Some(cheap) = self.cheapest(pool, &rivals) {
                let cheap_impact = pool
                    .get(cheap)
                    .map(|c| self.profile.impact_of(c))
                    .unwrap_or(0);
                if cheap_impact < my_impact {
                    sacrifices.push(cheap);
                }
            }
        }
        sacrifices.sort_unstable();
        sacrifices.dedup();

        // Mark the cheaper victims bad *first*: the inner strategy then
        // sees their inconsistencies as already-resolved and delivers
        // `id` (its bad-member rule), exactly the impact-aware outcome.
        let mut pre_marked = Vec::new();
        for victim in sacrifices {
            if pool.get(victim).map(|c| c.state()) == Some(ContextState::Undecided)
                && pool.set_state(victim, ContextState::Bad).is_ok()
            {
                pre_marked.push(victim);
            }
        }
        let mut outcome = self.inner.on_use(pool, now, id);
        outcome.marked_bad.extend(pre_marked);
        outcome.marked_bad.sort_unstable();
        outcome.marked_bad.dedup();
        outcome
    }

    fn reset(&mut self) {
        self.inner.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_pool() -> (ContextPool, ContextId, ContextId) {
        let mut pool = ContextPool::new();
        // `badge` contexts feed situations; `aux` contexts do not.
        let watched = pool.insert(Context::builder(ContextKind::new("badge"), "peter").build());
        let unwatched = pool.insert(Context::builder(ContextKind::new("aux"), "x").build());
        (pool, watched, unwatched)
    }

    fn profile() -> ImpactProfile {
        let mut p = ImpactProfile::new();
        p.watch_subject(ContextKind::new("badge"), "peter");
        p
    }

    #[test]
    fn impact_scores_rank_subject_kind_other() {
        let p = profile();
        let peter = Context::builder(ContextKind::new("badge"), "peter").build();
        let mary = Context::builder(ContextKind::new("badge"), "mary").build();
        let aux = Context::builder(ContextKind::new("aux"), "x").build();
        assert_eq!(p.impact_of(&peter), 2);
        assert_eq!(p.impact_of(&mary), 1);
        assert_eq!(p.impact_of(&aux), 0);
    }

    #[test]
    fn tie_sacrifices_the_unwatched_context() {
        // (watched, unwatched) tie at count 1. Plain drop-bad would doom
        // whichever is used first; impact-aware dooms the unwatched one
        // even when the watched context is used first.
        let (mut pool, watched, unwatched) = ctx_pool();
        let mut s = ImpactAwareDropBad::new(profile());
        let now = LogicalTime::ZERO;
        s.on_addition(
            &mut pool,
            now,
            unwatched,
            &[Inconsistency::pair("c", watched, unwatched, now)],
        );
        let out = s.on_use(&mut pool, now, watched);
        assert!(out.delivered, "the situation-relevant context survives");
        assert_eq!(out.marked_bad, vec![unwatched]);
        assert!(!s.on_use(&mut pool, now, unwatched).delivered);
    }

    #[test]
    fn equal_impact_behaves_like_plain_drop_bad() {
        let mut pool = ContextPool::new();
        let a = pool.insert(Context::builder(ContextKind::new("badge"), "mary").build());
        let b = pool.insert(Context::builder(ContextKind::new("badge"), "john").build());
        let mut s = ImpactAwareDropBad::new(profile());
        let now = LogicalTime::ZERO;
        s.on_addition(&mut pool, now, b, &[Inconsistency::pair("c", a, b, now)]);
        // Both impact 1: no sacrifice, the inner DoomUsed policy rules.
        let out = s.on_use(&mut pool, now, a);
        assert!(!out.delivered);
        assert_eq!(out.discarded, vec![a]);
    }

    #[test]
    fn strict_max_still_doomed_regardless_of_impact() {
        // A watched context that clearly dominates the counts is still
        // discarded: impact only arbitrates ties.
        let (mut pool, watched, unwatched) = ctx_pool();
        let extra = pool.insert(Context::builder(ContextKind::new("aux"), "y").build());
        let mut s = ImpactAwareDropBad::new(profile());
        let now = LogicalTime::ZERO;
        s.on_addition(
            &mut pool,
            now,
            watched,
            &[Inconsistency::pair("c", watched, unwatched, now)],
        );
        s.on_addition(
            &mut pool,
            now,
            extra,
            &[Inconsistency::pair("c2", watched, extra, now)],
        );
        let out = s.on_use(&mut pool, now, watched);
        assert!(!out.delivered);
        assert_eq!(out.discarded, vec![watched]);
    }

    #[test]
    fn defers_and_resets() {
        let mut s = ImpactAwareDropBad::new(ImpactProfile::new());
        assert!(s.defers_decision());
        assert_eq!(s.name(), "d-bad-impact");
        s.reset();
    }
}
