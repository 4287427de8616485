//! The artificial optimal strategy OPT-R (paper §4.1).

use crate::inconsistency::Inconsistency;
use crate::strategy::{AdditionOutcome, ResolutionStrategy};
use ctxres_context::{ContextId, ContextPool, ContextState, LogicalTime};

/// OPT-R: an artificial strategy with "a specially designed oracle to
/// discard precisely each incorrect context" (§4.1).
///
/// It reads the workload generator's ground-truth tag
/// ([`ctxres_context::TruthTag`]) — something no practical strategy can
/// do — and therefore serves as the theoretical upper bound: the
/// experiments normalize every other strategy's metrics against OPT-R's
/// (its context-use and situation-activation rates define 100 %).
#[derive(Debug, Clone, Default)]
pub struct Oracle {
    _private: (),
}

impl Oracle {
    /// Creates the oracle strategy.
    pub fn new() -> Self {
        Oracle::default()
    }
}

impl ResolutionStrategy for Oracle {
    fn name(&self) -> &'static str {
        "opt-r"
    }

    fn on_addition(
        &mut self,
        pool: &mut ContextPool,
        _now: LogicalTime,
        id: ContextId,
        _fresh: &[Inconsistency],
    ) -> AdditionOutcome {
        let corrupted = pool
            .get(id)
            .map(|c| c.truth().is_corrupted())
            .unwrap_or(false);
        if corrupted {
            let _ = pool.set_state(id, ContextState::Inconsistent);
            AdditionOutcome {
                discarded: vec![id],
                accepted: false,
            }
        } else {
            let _ = pool.set_state(id, ContextState::Consistent);
            AdditionOutcome {
                discarded: Vec::new(),
                accepted: true,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_context::{Context, ContextKind, TruthTag};

    #[test]
    fn discards_exactly_the_corrupted_contexts() {
        let mut pool = ContextPool::new();
        let good = pool.insert(Context::builder(ContextKind::new("l"), "p").build());
        let bad = pool.insert(
            Context::builder(ContextKind::new("l"), "p")
                .truth(TruthTag::Corrupted)
                .build(),
        );
        let mut s = Oracle::new();
        assert!(
            s.on_addition(&mut pool, LogicalTime::ZERO, good, &[])
                .accepted
        );
        let out = s.on_addition(&mut pool, LogicalTime::ZERO, bad, &[]);
        assert!(!out.accepted);
        assert_eq!(out.discarded, vec![bad]);
        assert!(s.on_use(&mut pool, LogicalTime::ZERO, good).delivered);
        assert!(!s.on_use(&mut pool, LogicalTime::ZERO, bad).delivered);
    }

    #[test]
    fn ignores_reported_inconsistencies() {
        // Even amid inconsistencies, expected contexts are kept: the
        // oracle's decisions depend only on ground truth.
        let mut pool = ContextPool::new();
        let a = pool.insert(Context::builder(ContextKind::new("l"), "p").build());
        let b = pool.insert(Context::builder(ContextKind::new("l"), "p").build());
        let mut s = Oracle::new();
        s.on_addition(&mut pool, LogicalTime::ZERO, a, &[]);
        let inc = Inconsistency::pair("v", a, b, LogicalTime::ZERO);
        let out = s.on_addition(&mut pool, LogicalTime::ZERO, b, &[inc]);
        assert!(
            out.accepted,
            "expected context survives despite inconsistency"
        );
    }
}
