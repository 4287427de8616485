//! The drop-latest baseline (paper §2.2, after Chomicki et al.).

use crate::inconsistency::Inconsistency;
use crate::strategy::{AdditionOutcome, ResolutionStrategy};
use ctxres_context::{ContextId, ContextPool, ContextState, LogicalTime};

/// Drop-latest (`D-LAT`): whenever a new context causes inconsistencies,
/// discard the latest involved context — which, under incremental
/// detection, is the new context itself.
///
/// The strategy "assumes that the collection of existing contexts is
/// consistent, and that any new context is permitted to enter this
/// collection only if \[it\] does not cause any inconsistency" (§2.2).
/// Scenario B of the paper (Fig. 2) shows why this heuristic fails: a
/// corrupted context that slips in without conflicting immediately will
/// cause *correct* successors to be discarded instead.
#[derive(Debug, Clone, Default)]
pub struct DropLatest {
    _private: (),
}

impl DropLatest {
    /// Creates the strategy.
    pub fn new() -> Self {
        DropLatest::default()
    }
}

impl ResolutionStrategy for DropLatest {
    fn name(&self) -> &'static str {
        "d-lat"
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
            // The latest context of the inconsistency; with incremental
            // detection this is the newly added context.
            if let Some(latest) = inc.contexts().iter().max() {
                if pool.get(*latest).map(|c| c.state()) != Some(ContextState::Inconsistent) {
                    let _ = pool.discard(*latest);
                    discarded.push(*latest);
                }
            }
        }
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
    fn clean_context_is_accepted() {
        let (mut pool, ids) = pool_with(1);
        let mut s = DropLatest::new();
        let out = s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        assert!(out.accepted);
        assert_eq!(pool.get(ids[0]).unwrap().state(), ContextState::Consistent);
    }

    #[test]
    fn conflicting_new_context_is_discarded() {
        let (mut pool, ids) = pool_with(2);
        let mut s = DropLatest::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        let inc = Inconsistency::pair("v", ids[0], ids[1], LogicalTime::ZERO);
        let out = s.on_addition(&mut pool, LogicalTime::ZERO, ids[1], &[inc]);
        assert!(!out.accepted);
        assert_eq!(out.discarded, vec![ids[1]]);
        assert_eq!(
            pool.get(ids[1]).unwrap().state(),
            ContextState::Inconsistent
        );
        assert_eq!(pool.get(ids[0]).unwrap().state(), ContextState::Consistent);
    }

    #[test]
    fn scenario_b_discards_the_wrong_context() {
        // Paper Fig. 2, Scenario B: d3 (corrupted) enters cleanly; d4
        // (correct) then conflicts with d3 and is discarded instead.
        let (mut pool, ids) = pool_with(4);
        let mut s = DropLatest::new();
        for &id in &ids[..3] {
            assert!(
                s.on_addition(&mut pool, LogicalTime::ZERO, id, &[])
                    .accepted
            );
        }
        let inc = Inconsistency::pair("v", ids[2], ids[3], LogicalTime::ZERO);
        let out = s.on_addition(&mut pool, LogicalTime::ZERO, ids[3], &[inc]);
        assert_eq!(out.discarded, vec![ids[3]], "the correct d4 is lost");
        assert_eq!(pool.get(ids[2]).unwrap().state(), ContextState::Consistent);
    }

    #[test]
    fn use_delivers_only_available_contexts() {
        let (mut pool, ids) = pool_with(2);
        let mut s = DropLatest::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        let inc = Inconsistency::pair("v", ids[0], ids[1], LogicalTime::ZERO);
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[1], &[inc]);
        assert!(s.on_use(&mut pool, LogicalTime::ZERO, ids[0]).delivered);
        assert!(!s.on_use(&mut pool, LogicalTime::ZERO, ids[1]).delivered);
    }

    #[test]
    fn does_not_defer() {
        assert!(!DropLatest::new().defers_decision());
    }
}
