//! The drop-random baseline (paper §2.3, after Chomicki et al.'s
//! "randomly discarding some actions").

use crate::inconsistency::Inconsistency;
use crate::strategy::{AdditionOutcome, ResolutionStrategy, UseOutcome};
use ctxres_context::{ContextId, ContextPool, ContextState, LogicalTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Drop-random (`D-RAND`): resolve each fresh inconsistency by
/// discarding one uniformly chosen involved context.
///
/// The paper notes this strategy "has unreliable results (depending on
/// random choices)" (§2.3); it is included for completeness and for the
/// extended comparison. Deterministic given its seed.
#[derive(Debug, Clone)]
pub struct DropRandom {
    rng: StdRng,
}

impl DropRandom {
    /// Creates the strategy with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        DropRandom {
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl ResolutionStrategy for DropRandom {
    fn name(&self) -> &'static str {
        "d-rand"
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
            // Consider only members still standing; a previous pick may
            // already have resolved this inconsistency.
            let standing: Vec<ContextId> = inc
                .contexts()
                .iter()
                .copied()
                .filter(|cid| pool.get(*cid).map(|c| c.state()) != Some(ContextState::Inconsistent))
                .collect();
            if standing.len() < inc.arity() {
                // A previous pick already discarded a member, which
                // resolved this inconsistency too.
                continue;
            }
            let victim = standing[self.rng.gen_range(0..standing.len())];
            let _ = pool.discard(victim);
            discarded.push(victim);
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

    fn on_use(&mut self, pool: &mut ContextPool, now: LogicalTime, id: ContextId) -> UseOutcome {
        let delivered = pool
            .get(id)
            .map(|c| c.state().is_available() && c.is_live(now))
            .unwrap_or(false);
        UseOutcome {
            delivered,
            discarded: Vec::new(),
            marked_bad: Vec::new(),
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
    fn discards_exactly_one_per_inconsistency() {
        let (mut pool, ids) = pool_with(2);
        let mut s = DropRandom::new(7);
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        let inc = Inconsistency::pair("v", ids[0], ids[1], LogicalTime::ZERO);
        let out = s.on_addition(&mut pool, LogicalTime::ZERO, ids[1], &[inc]);
        assert_eq!(out.discarded.len(), 1);
        let survivor = if out.discarded[0] == ids[0] {
            ids[1]
        } else {
            ids[0]
        };
        assert_ne!(
            pool.get(survivor).unwrap().state(),
            ContextState::Inconsistent
        );
    }

    #[test]
    fn same_seed_same_choices() {
        let run = |seed: u64| {
            let (mut pool, ids) = pool_with(2);
            let mut s = DropRandom::new(seed);
            s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
            let inc = Inconsistency::pair("v", ids[0], ids[1], LogicalTime::ZERO);
            s.on_addition(&mut pool, LogicalTime::ZERO, ids[1], &[inc])
                .discarded
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn resolved_inconsistency_not_double_punished() {
        // Two inconsistencies sharing a context: if the shared context is
        // discarded first, the second inconsistency may already be gone.
        let (mut pool, ids) = pool_with(3);
        let mut s = DropRandom::new(1);
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[0], &[]);
        s.on_addition(&mut pool, LogicalTime::ZERO, ids[1], &[]);
        let fresh = vec![
            Inconsistency::pair("v", ids[0], ids[2], LogicalTime::ZERO),
            Inconsistency::pair("v", ids[1], ids[2], LogicalTime::ZERO),
        ];
        let out = s.on_addition(&mut pool, LogicalTime::ZERO, ids[2], &fresh);
        assert!(out.discarded.len() <= 2);
        // Never all three.
        assert!(out.discarded.len() < 3);
    }
}
