//! The user-specified policy baseline (paper §2.3, after Ranganathan et
//! al. and Insuk et al.).

use crate::inconsistency::Inconsistency;
use crate::strategy::{pick_latest, AdditionOutcome, ResolutionStrategy};
use ctxres_context::{ContextId, ContextKind, ContextPool, ContextState, LogicalTime};
use std::collections::HashMap;

/// A user preference: contexts of `kind` have trust `priority` (higher
/// is more trusted).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyRule {
    /// The context kind the rule applies to.
    pub kind: ContextKind,
    /// Trust level; inconsistencies discard their least-trusted member.
    pub priority: i32,
}

/// User-policy resolution (`D-POL`): each fresh inconsistency discards
/// its *least trusted* member according to static, user-authored
/// priorities ("rule priorities to follow human preferences",
/// Ranganathan et al.). Of equally trusted members, the latest (largest
/// id) is discarded.
///
/// The paper classifies this with the unreliable baselines: static
/// preferences cannot know which particular context is corrupted.
#[derive(Debug, Clone, Default)]
pub struct UserPolicy {
    priorities: HashMap<ContextKind, i32>,
}

impl UserPolicy {
    /// Creates a policy from rules; unlisted kinds get priority 0.
    pub fn new(rules: impl IntoIterator<Item = PolicyRule>) -> Self {
        UserPolicy {
            priorities: rules.into_iter().map(|r| (r.kind, r.priority)).collect(),
        }
    }

    fn priority_of(&self, pool: &ContextPool, id: ContextId) -> i32 {
        pool.get(id)
            .and_then(|c| self.priorities.get(c.kind()).copied())
            .unwrap_or(0)
    }
}

impl ResolutionStrategy for UserPolicy {
    fn name(&self) -> &'static str {
        "d-pol"
    }

    fn on_addition(
        &mut self,
        pool: &mut ContextPool,
        _now: LogicalTime,
        id: ContextId,
        fresh: &[Inconsistency],
    ) -> AdditionOutcome {
        let mut discarded = Vec::new();
        for inc in fresh {
            let standing: Vec<ContextId> = inc
                .contexts()
                .iter()
                .copied()
                .filter(|cid| pool.get(*cid).map(|c| c.state()) != Some(ContextState::Inconsistent))
                .collect();
            if standing.len() < inc.arity() {
                continue; // already resolved by an earlier discard
            }
            let min_priority = standing
                .iter()
                .map(|cid| self.priority_of(pool, *cid))
                .min()
                .unwrap_or(0);
            let tied: Vec<ContextId> = standing
                .into_iter()
                .filter(|cid| self.priority_of(pool, *cid) == min_priority)
                .collect();
            if let Some(victim) = pick_latest(&tied) {
                let _ = pool.discard(victim);
                discarded.push(victim);
            }
        }
        discarded.sort_unstable();
        discarded.dedup();
        let accepted = !discarded.contains(&id);
        if accepted && pool.get(id).map(|c| c.state()) == Some(ContextState::Undecided) {
            let _ = pool.set_state(id, ContextState::Consistent);
        }
        AdditionOutcome {
            discarded,
            accepted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_context::Context;

    fn ctx(pool: &mut ContextPool, kind: &str, t: u64) -> ContextId {
        pool.insert(
            Context::builder(ContextKind::new(kind), "p")
                .stamp(LogicalTime::new(t))
                .build(),
        )
    }

    #[test]
    fn lower_priority_kind_is_sacrificed() {
        let mut pool = ContextPool::new();
        let loc = ctx(&mut pool, "location", 0);
        let rfid = ctx(&mut pool, "rfid", 1);
        let mut s = UserPolicy::new([
            PolicyRule {
                kind: ContextKind::new("location"),
                priority: 10,
            },
            PolicyRule {
                kind: ContextKind::new("rfid"),
                priority: 1,
            },
        ]);
        s.on_addition(&mut pool, LogicalTime::ZERO, loc, &[]);
        let inc = Inconsistency::pair("x", loc, rfid, LogicalTime::ZERO);
        let out = s.on_addition(
            &mut pool,
            LogicalTime::ZERO,
            rfid,
            &inc.clone().into_iter_vec(),
        );
        assert_eq!(out.discarded, vec![rfid]);
        assert_ne!(pool.get(loc).unwrap().state(), ContextState::Inconsistent);
    }

    // Small helper so the test above reads naturally.
    trait IntoIterVec {
        fn into_iter_vec(self) -> Vec<Inconsistency>;
    }
    impl IntoIterVec for Inconsistency {
        fn into_iter_vec(self) -> Vec<Inconsistency> {
            vec![self]
        }
    }

    #[test]
    fn equal_priority_falls_back_to_tiebreak() {
        let mut pool = ContextPool::new();
        let a = ctx(&mut pool, "location", 0);
        let b = ctx(&mut pool, "location", 1);
        let mut latest = UserPolicy::new([]);
        latest.on_addition(&mut pool, LogicalTime::ZERO, a, &[]);
        let inc = Inconsistency::pair("x", a, b, LogicalTime::ZERO);
        let out = latest.on_addition(&mut pool, LogicalTime::ZERO, b, &[inc]);
        assert_eq!(out.discarded, vec![b]);
    }
}
