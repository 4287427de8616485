//! Situation evaluation — the application-facing half of
//! context-awareness.
//!
//! A *situation* ("Peter is in his office", "shelf 3 needs restocking")
//! is a formula over the contexts currently *available* to applications.
//! The paper's second metric counts how many situations were actually
//! activated after inconsistency resolution (§4): a strategy that
//! discards the wrong contexts starves situations of the contexts they
//! need.
//!
//! Every situation is compiled once at construction
//! ([`CompiledConstraint`]) — the strategy view and the ground-truth
//! view share the programs through [`SituationEngine::twin`] — and
//! evaluated through the evidence-free [`CompiledEvaluator::holds`]
//! path with a reused [`EvalScratch`]. A round short-circuits its
//! quantifiers and fills a status buffer the engine owns, so it
//! allocates nothing.
//!
//! An engine that [watches](SituationEngine::watch) its pool evaluates
//! a situation only when the clock or the version of a pool slice the
//! situation reads moved since its last evaluation: `holds` over the
//! available view is a function of those alone.

use ctxres_constraint::{
    CompiledConstraint, CompiledEvaluator, Constraint, DomainMode, EvalScratch, PredicateRegistry,
};
use ctxres_context::{ContextPool, LogicalTime, WatchId};
use std::sync::Arc;

/// The status of one situation after an evaluation round.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SituationStatus {
    /// The situation's name (interned: cloning a status is a refcount
    /// bump, not a string copy).
    pub name: Arc<str>,
    /// Whether the situation currently holds.
    pub active: bool,
    /// Whether this round turned it from inactive to active (a
    /// rising-edge *activation*, the unit the paper counts).
    pub activated: bool,
}

/// Evaluates a fixed set of situations over the available context view,
/// tracking rising edges.
///
/// Situations reuse the constraint [`Constraint`] machinery: a situation
/// is simply a named formula; `active` means *satisfied* over the
/// `Consistent`, live contexts.
#[derive(Debug)]
pub struct SituationEngine {
    /// The compiled situations, shared with every [`SituationEngine::twin`].
    deployed: Arc<Deployed>,
    /// The last round's status of every situation, in situation order:
    /// the buffer [`SituationEngine::evaluate`] fills and returns.
    statuses: Vec<SituationStatus>,
    /// Per situation, the pool slices it reads once
    /// [`SituationEngine::watch`] registered them; empty before that.
    watches: Vec<SliceWatch>,
    activations: u64,
    evaluations: u64,
    scratch: EvalScratch,
}

/// The watched pool slices of one situation and what its last
/// evaluation saw of them.
#[derive(Debug)]
struct SliceWatch {
    ids: Vec<WatchId>,
    /// `(now, sum of the slices' versions)` at the last evaluation;
    /// `None` before the first one and after a reset. Versions only
    /// grow, so the sum moves exactly when one of them does.
    seen: Option<(LogicalTime, u64)>,
}

/// A situation set compiled once.
#[derive(Debug)]
struct Deployed {
    compiled: Vec<CompiledConstraint>,
    /// Interned names, parallel to `compiled`.
    names: Vec<Arc<str>>,
}

impl SituationEngine {
    /// Creates an engine for the given situations, compiling each once.
    pub fn new(situations: Vec<Constraint>) -> Self {
        SituationEngine::over(Arc::new(Deployed {
            compiled: situations.iter().map(CompiledConstraint::compile).collect(),
            names: situations.iter().map(|s| Arc::from(s.name())).collect(),
        }))
    }

    /// A fresh engine over the same compiled situations: it shares the
    /// programs, starts with every situation inactive and watches no
    /// pool.
    pub fn twin(&self) -> Self {
        SituationEngine::over(Arc::clone(&self.deployed))
    }

    fn over(deployed: Arc<Deployed>) -> Self {
        let statuses = deployed
            .names
            .iter()
            .map(|name| SituationStatus {
                name: Arc::clone(name),
                active: false,
                activated: false,
            })
            .collect();
        SituationEngine {
            deployed,
            statuses,
            watches: Vec::new(),
            activations: 0,
            evaluations: 0,
            scratch: EvalScratch::new(),
        }
    }

    /// Number of situations.
    pub fn len(&self) -> usize {
        self.statuses.len()
    }

    /// Whether the engine has no situations.
    pub fn is_empty(&self) -> bool {
        self.statuses.is_empty()
    }

    /// Total rising-edge activations since construction.
    pub fn activations(&self) -> u64 {
        self.activations
    }

    /// The last round's statuses, in situation order.
    #[cfg(test)]
    pub(crate) fn statuses(&self) -> &[SituationStatus] {
        &self.statuses
    }

    /// Situations actually evaluated since construction, summed over
    /// rounds; a situation a round skips is not counted.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Registers in `pool` a watch on every slice each situation reads
    /// under `registry` ([`CompiledConstraint::slices`]). From then on
    /// [`SituationEngine::evaluate`] skips a situation whose slices'
    /// versions and clock are those of its last evaluation, so every
    /// later round must pass this `pool` and this `registry`.
    pub fn watch(&mut self, registry: &PredicateRegistry, pool: &mut ContextPool) {
        self.watches = self
            .deployed
            .compiled
            .iter()
            .map(|compiled| SliceWatch {
                ids: compiled
                    .slices(registry)
                    .into_iter()
                    .map(|(kind, subject)| pool.watch(kind, subject))
                    .collect(),
                seen: None,
            })
            .collect();
    }

    /// Re-evaluates the situations over the available view of `pool`
    /// and returns the round's statuses, in situation order. The
    /// statuses live in a buffer the engine owns, so a round allocates
    /// nothing.
    ///
    /// A [watched](SituationEngine::watch) situation whose clock and
    /// slice versions are those of its last evaluation is skipped: it
    /// keeps `active` and clears `activated`, which is what evaluating
    /// it would return.
    ///
    /// Evaluation errors (e.g. a missing attribute) deactivate the
    /// situation for the round rather than aborting: applications keep
    /// running when one situation's data is absent.
    pub fn evaluate(
        &mut self,
        registry: &PredicateRegistry,
        pool: &ContextPool,
        now: LogicalTime,
    ) -> &[SituationStatus] {
        let evaluator = CompiledEvaluator::with_domain(registry, DomainMode::AvailableOnly);
        let SituationEngine {
            deployed,
            statuses,
            watches,
            activations,
            evaluations,
            scratch,
        } = self;
        for (i, (compiled, status)) in deployed
            .compiled
            .iter()
            .zip(statuses.iter_mut())
            .enumerate()
        {
            if let Some(watch) = watches.get_mut(i) {
                let versions = watch
                    .ids
                    .iter()
                    .fold(0u64, |sum, &id| sum.wrapping_add(pool.watch_version(id)));
                if watch.seen == Some((now, versions)) {
                    status.activated = false;
                    continue;
                }
                watch.seen = Some((now, versions));
            }
            *evaluations += 1;
            let active = evaluator
                .holds(compiled, pool, now, scratch)
                .unwrap_or(false);
            status.activated = active && !status.active;
            if status.activated {
                *activations += 1;
            }
            status.active = active;
        }
        statuses
    }

    /// Resets activity tracking (new run): every situation turns
    /// inactive and the next round evaluates each of them.
    pub fn reset(&mut self) {
        for status in &mut self.statuses {
            status.active = false;
            status.activated = false;
        }
        for watch in &mut self.watches {
            watch.seen = None;
        }
        self.activations = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_constraint::parse_constraints;
    use ctxres_context::{Context, ContextKind, ContextState};

    fn engine() -> SituationEngine {
        // "Peter is in the office" — note situations are *satisfied*
        // formulas, so exists works naturally here.
        let situations = parse_constraints(
            "constraint peter_in_office:
               exists b: badge . same_subject(b, b) and eq(b.room, \"office\") and subject_eq(b, \"peter\")",
        )
        .unwrap();
        SituationEngine::new(situations)
    }

    fn badge(room: &str) -> Context {
        Context::builder(ContextKind::new("badge"), "peter")
            .attr("room", room)
            .build()
    }

    #[test]
    fn activation_counts_rising_edges_only() {
        let mut eng = engine();
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        let t = LogicalTime::ZERO;

        let s = eng.evaluate(&reg, &pool, t);
        assert!(!s[0].active);

        let id = pool.insert(badge("office"));
        pool.set_state(id, ContextState::Consistent).unwrap();
        let s = eng.evaluate(&reg, &pool, t);
        assert!(s[0].active && s[0].activated);

        // Still active: no new activation.
        let s = eng.evaluate(&reg, &pool, t);
        assert!(s[0].active && !s[0].activated);
        assert_eq!(eng.activations(), 1);
    }

    #[test]
    fn undecided_contexts_do_not_activate_situations() {
        let mut eng = engine();
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        pool.insert(badge("office")); // stays Undecided
        let s = eng.evaluate(&reg, &pool, LogicalTime::ZERO);
        assert!(!s[0].active);
        assert_eq!(eng.activations(), 0);
    }

    #[test]
    fn reactivation_counts_again() {
        let mut eng = engine();
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        let id = pool.insert(badge("office"));
        pool.set_state(id, ContextState::Consistent).unwrap();
        eng.evaluate(&reg, &pool, LogicalTime::ZERO);
        pool.remove(id);
        eng.evaluate(&reg, &pool, LogicalTime::ZERO);
        let id2 = pool.insert(badge("office"));
        pool.set_state(id2, ContextState::Consistent).unwrap();
        eng.evaluate(&reg, &pool, LogicalTime::ZERO);
        assert_eq!(eng.activations(), 2);
    }

    #[test]
    fn evaluation_error_deactivates_instead_of_panicking() {
        let situations =
            parse_constraints("constraint s: exists b: badge . eq(b.missing, 1)").unwrap();
        let mut eng = SituationEngine::new(situations);
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        let id = pool.insert(badge("office"));
        pool.set_state(id, ContextState::Consistent).unwrap();
        let s = eng.evaluate(&reg, &pool, LogicalTime::ZERO);
        assert!(!s[0].active);
    }

    #[test]
    fn reset_clears_state() {
        let mut eng = engine();
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        let id = pool.insert(badge("office"));
        pool.set_state(id, ContextState::Consistent).unwrap();
        eng.evaluate(&reg, &pool, LogicalTime::ZERO);
        assert_eq!(eng.activations(), 1);
        eng.reset();
        assert_eq!(eng.activations(), 0);
        let s = eng.evaluate(&reg, &pool, LogicalTime::ZERO);
        assert!(s[0].activated, "post-reset rising edge counts anew");
    }
}
