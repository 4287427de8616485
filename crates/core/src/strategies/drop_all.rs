//! The drop-all baseline (paper §2.3, after Bu et al.).

use crate::inconsistency::Inconsistency;
use crate::strategy::{AdditionOutcome, ResolutionStrategy};
use ctxres_context::{ContextId, ContextPool, ContextState, LogicalTime};

/// Drop-all (`D-ALL`): discard *every* context involved in any fresh
/// inconsistency, "for safety".
///
/// The paper's experiments show this over-cautious heuristic performs
/// worst: it discards correct contexts wholesale (Fig. 3 — both `d2` and
/// `d3` in Scenario A; both `d3` and `d4` in Scenario B), starving
/// applications of contexts they need.
#[derive(Debug, Clone, Default)]
pub struct DropAll {
    _private: (),
}

impl DropAll {
    /// Creates the strategy.
    pub fn new() -> Self {
        DropAll::default()
    }
}

impl ResolutionStrategy for DropAll {
    fn name(&self) -> &'static str {
        "d-all"
    }

    fn on_addition(
        &mut self,
        pool: &mut ContextPool,
        _now: LogicalTime,
        id: ContextId,
        fresh: &[Inconsistency],
    ) -> AdditionOutcome {
        if fresh.is_empty() {
            let _ = pool.set_state(id, ContextState::Consistent);
            return AdditionOutcome {
                discarded: Vec::new(),
                accepted: true,
            };
        }
        let mut discarded = Vec::new();
        for inc in fresh {
            for cid in inc.contexts() {
                if pool.get(*cid).map(|c| c.state()) != Some(ContextState::Inconsistent) {
                    let _ = pool.discard(*cid);
                    discarded.push(*cid);
                }
            }
        }
        discarded.sort_unstable();
        discarded.dedup();
        let accepted = !discarded.contains(&id);
        if accepted {
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
    use ctxres_context::{Context, ContextKind};

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

    #[test]
    fn discards_every_involved_context() {
        // Paper Fig. 3, Scenario A: inconsistency (d2, d3) discards both,
        // losing the correct d2.
        let (mut pool, ids) = pool_with(3);
        let mut s = DropAll::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[1], &[]);
        let inc = Inconsistency::pair("v", ids[1], ids[2], LogicalTime::ZERO);
        let out = s.on_addition(&mut pool, LogicalTime::ZERO, ids[2], &[inc]);
        assert!(!out.accepted);
        assert_eq!(out.discarded, vec![ids[1], ids[2]]);
        assert_eq!(
            pool.get(ids[1]).unwrap().state(),
            ContextState::Inconsistent
        );
        assert_eq!(
            pool.get(ids[2]).unwrap().state(),
            ContextState::Inconsistent
        );
        assert_eq!(pool.get(ids[0]).unwrap().state(), ContextState::Consistent);
    }

    #[test]
    fn overlapping_inconsistencies_discard_union_once() {
        let (mut pool, ids) = pool_with(3);
        let mut s = DropAll::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[1], &[]);
        let fresh = vec![
            Inconsistency::pair("v", ids[0], ids[2], LogicalTime::ZERO),
            Inconsistency::pair("v", ids[1], ids[2], LogicalTime::ZERO),
        ];
        let out = s.on_addition(&mut pool, LogicalTime::ZERO, ids[2], &fresh);
        assert_eq!(out.discarded.len(), 3);
    }

    #[test]
    fn clean_context_is_accepted() {
        let (mut pool, ids) = pool_with(1);
        let mut s = DropAll::new();
        assert!(
            s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[])
                .accepted
        );
    }

    #[test]
    fn discarded_contexts_not_delivered_on_use() {
        let (mut pool, ids) = pool_with(2);
        let mut s = DropAll::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        let inc = Inconsistency::pair("v", ids[0], ids[1], LogicalTime::ZERO);
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[1], &[inc]);
        assert!(!s.on_use(&mut pool, LogicalTime::ZERO, ids[0]).delivered);
        assert!(!s.on_use(&mut pool, LogicalTime::ZERO, ids[1]).delivered);
    }
}
