//! The resolution-strategy abstraction.

use crate::inconsistency::Inconsistency;
use ctxres_context::{ContextId, ContextPool, LogicalTime};

/// What happened when a strategy processed a context-addition change.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct AdditionOutcome {
    /// Contexts the strategy discarded (now `Inconsistent`).
    pub discarded: Vec<ContextId>,
    /// Whether the added context itself survived (was not discarded).
    pub accepted: bool,
}

/// What happened when a strategy processed a context-use request (a
/// context-deletion change in the paper's terminology).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct UseOutcome {
    /// Whether the used context was delivered to the application.
    pub delivered: bool,
    /// Contexts discarded during this resolution (now `Inconsistent`).
    pub discarded: Vec<ContextId>,
    /// Contexts newly marked `Bad` (deferred discard).
    pub marked_bad: Vec<ContextId>,
}

/// What drop-bad does when the context being used ties for the maximal
/// count value with a still-undecided rival (paper §5.1's open "tie
/// case"; `ctxres-experiments` ships an ablation comparing the two).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TiePolicy {
    /// A tie counts as "largest": the used context is discarded. Right
    /// whenever the corrupted context reaches its use instant first
    /// (it usually arrived first).
    #[default]
    DoomUsed,
    /// Deliver the used context and mark a tied undecided rival bad.
    /// Right whenever the corrupted context is the later one.
    BlamePeer,
}

/// Picks one context out of a set tied at the maximal count value (the
/// open issue of paper §5.1): the most recently produced, which carries
/// the largest id. `None` for an empty set.
pub(crate) fn pick_latest(tied: &[ContextId]) -> Option<ContextId> {
    tied.iter().max().copied()
}

/// An automated context inconsistency resolution strategy, pluggable
/// into the middleware (paper §1: "a management service in the
/// middleware").
///
/// The middleware calls [`on_addition`](ResolutionStrategy::on_addition)
/// after detection runs for a newly added *relevant* context (contexts
/// of kinds no constraint mentions never reach the strategy — they are
/// made `Consistent` immediately, Fig. 7 Part 1), and
/// [`on_use`](ResolutionStrategy::on_use) when an application requests a
/// buffered context.
///
/// Immediate strategies (drop-latest, drop-all, …) decide everything in
/// `on_addition` and report `defers_decision() == false`; the drop-bad
/// strategy buffers contexts and decides in `on_use`.
pub trait ResolutionStrategy {
    /// The strategy's display name (e.g. `"d-bad"`).
    fn name(&self) -> &'static str;

    /// Whether decisions are deferred until use (drop-bad) rather than
    /// taken at addition time.
    fn defers_decision(&self) -> bool {
        false
    }

    /// Handles a context-addition change: `id` was inserted into `pool`
    /// and detection found the `fresh` inconsistencies (all involving
    /// `id`, possibly empty).
    ///
    /// Implementations transition context states through `pool` and
    /// report what they did.
    fn on_addition(
        &mut self,
        pool: &mut ContextPool,
        now: LogicalTime,
        id: ContextId,
        fresh: &[Inconsistency],
    ) -> AdditionOutcome;

    /// Handles a context-deletion change: an application wants to use
    /// context `id`.
    ///
    /// The default suits a strategy that decides everything at addition
    /// time (`defers_decision() == false`): the context is delivered if
    /// it is still available and live, and nothing is discarded.
    fn on_use(&mut self, pool: &mut ContextPool, now: LogicalTime, id: ContextId) -> UseOutcome {
        let delivered = pool
            .get(id)
            .is_some_and(|c| c.state().is_available() && c.is_live(now));
        UseOutcome {
            delivered,
            ..UseOutcome::default()
        }
    }

    /// Attaches an observability handle. Strategies with internal
    /// decision state worth tracing (drop-bad's Δ-set and count values)
    /// override this; the default ignores the handle. The middleware
    /// builder calls it with its own shard handle, so strategy events
    /// land in the same per-shard ring as the engine's.
    fn attach_obs(&mut self, _obs: ctxres_obs::ShardObs) {}

    /// Whether this strategy emits its own provenance verdict edges
    /// (`TraceEvent::Caused` with `ResolvedBecause`/`SupersededBy`)
    /// for the decisions it takes. Drop-bad does, citing the dooming
    /// inconsistency and the count evidence; for strategies that answer
    /// `false` the middleware synthesizes generic verdict edges on
    /// their behalf, so every decision still closes its causal chain.
    fn emits_provenance(&self) -> bool {
        false
    }

    /// Clears per-run state (tracked sets, RNG position is kept).
    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiebreak_latest_picks_largest_id() {
        let tied = vec![
            ContextId::from_raw(3),
            ContextId::from_raw(7),
            ContextId::from_raw(5),
        ];
        assert_eq!(pick_latest(&tied), Some(ContextId::from_raw(7)));
    }

    #[test]
    fn tiebreak_empty_returns_none() {
        assert_eq!(pick_latest(&[]), None);
    }
}
