//! Incremental inconsistency detection (ICSE'06 style).
//!
//! When a context arrives, only the constraints quantifying over its kind
//! can newly be violated, and — within the universal-positive fragment —
//! only through bindings that include the new context. The checker
//! therefore re-evaluates each affected constraint once per quantifier of
//! the matching kind, with that quantifier's domain *pinned* to the new
//! context. Constraints outside the fragment fall back to full
//! re-evaluation with link diffing.

use crate::compile::{CompiledConstraint, CompiledEvaluator, EvalScratch, PredMemo};
use crate::constraint::ConstraintSet;
use crate::error::EvalError;
use crate::eval::Link;
use crate::predicate::PredicateRegistry;
use ctxres_context::{ContextId, ContextKind, ContextPool, LogicalTime};
use std::collections::{BTreeSet, HashMap};

/// One newly detected context inconsistency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Detection {
    /// Name of the violated constraint.
    pub constraint: String,
    /// The contexts forming the inconsistency.
    pub link: Link,
}

/// Counters for instrumentation and for comparing pinned with full
/// checking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckerStats {
    /// Pinned (incremental) constraint evaluations performed.
    pub pinned_evals: u64,
    /// Full constraint evaluations performed (fallback path).
    pub full_evals: u64,
    /// Evaluations (pinned or full) served by a compiled program rather
    /// than the AST walker.
    pub compiled_evals: u64,
    /// Total detections returned.
    pub detections: u64,
    /// Pinned checks whose constraint has a seq guard on the pinned
    /// quantifier but which scanned the partner's subject bucket: the
    /// pool could not vouch for the bucket's seq order, or the new
    /// context's own seq is not an exact integer
    /// ([`EvalScratch::seq_fallbacks`]).
    pub seq_fallbacks: u64,
}

/// A precomputed checking plan for one context kind: which constraints a
/// context of the kind can newly violate, and how each one is checked.
/// [`IncrementalChecker::new`] builds the plan of every kind its
/// constraints quantify over, so [`IncrementalChecker::on_added`] runs
/// no relevance scan and allocates no quantifier positions per
/// submission; [`IncrementalChecker::plan_for`] hands out a copy.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct KindPlan {
    steps: Vec<PlanStep>,
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct PlanStep {
    /// Index into the checker's constraint set.
    constraint: usize,
    /// Quantifier ids to pin for a universal-positive constraint;
    /// `None` selects the full-check-and-diff fallback.
    pinned_qids: Option<Vec<usize>>,
}

impl KindPlan {
    /// Whether contexts of the planned kind can affect any constraint.
    pub fn is_relevant(&self) -> bool {
        !self.steps.is_empty()
    }
}

/// Checker-counter deltas produced by one
/// [`IncrementalChecker::check_with_plan`] call. A caller folds them
/// back with [`IncrementalChecker::absorb_batch_counts`] so
/// [`CheckerStats`] end up identical to a sequential run — including
/// the partial tallies of a check that errored mid-plan.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanCounts {
    /// Pinned evaluations performed (one per planned quantifier, bumped
    /// before the evaluation so an error leaves the same partial count
    /// the sequential path would).
    pub pinned_evals: u64,
    /// Compiled-program evaluations (one per planned quantifier; the
    /// internal truth-then-evidence split is not double-counted).
    pub compiled_evals: u64,
    /// Detections returned (zero when the check errored).
    pub detections: u64,
    /// Pinned checks that scanned a seq-guarded partner's bucket. A
    /// staged batch's buckets already hold its later members, so this
    /// can exceed the sequential count when one of them breaks a
    /// bucket's seq order.
    pub seq_fallbacks: u64,
}

impl PlanCounts {
    /// Folds another call's deltas into this accumulator.
    pub fn absorb(&mut self, other: PlanCounts) {
        self.pinned_evals += other.pinned_evals;
        self.compiled_evals += other.compiled_evals;
        self.detections += other.detections;
        self.seq_fallbacks += other.seq_fallbacks;
    }
}

/// Stateful incremental checker over a deployed [`ConstraintSet`].
///
/// ```
/// use ctxres_constraint::{parse_constraints, IncrementalChecker, PredicateRegistry};
/// use ctxres_context::{Context, ContextKind, ContextPool, LogicalTime, Point};
///
/// let constraints = parse_constraints(
///     "constraint region: forall a: location . within(a, 0.0, 0.0, 10.0, 10.0)",
/// )?;
/// let mut checker = IncrementalChecker::new(constraints.into_iter().collect());
/// let registry = PredicateRegistry::with_builtins();
/// let mut pool = ContextPool::new();
///
/// let id = pool.insert(
///     Context::builder(ContextKind::new("location"), "peter")
///         .attr("pos", Point::new(50.0, 50.0))
///         .build(),
/// );
/// let found = checker.on_added(&registry, &pool, LogicalTime::new(1), id)?;
/// assert_eq!(found.len(), 1);
/// assert!(found[0].link.contains(&id));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct IncrementalChecker {
    constraints: ConstraintSet,
    /// Compiled programs, parallel to `constraints`. `None` only for a
    /// constraint that fails to compile (e.g. an unbound variable, which
    /// the AST evaluator would also reject — at evaluation time).
    compiled: Vec<Option<CompiledConstraint>>,
    /// The plan of every kind the constraints quantify over, sorted by
    /// kind. Every other kind is irrelevant: its plan is empty.
    plans: Vec<(ContextKind, KindPlan)>,
    scratch: EvalScratch,
    known: HashMap<String, BTreeSet<Link>>,
    stats: CheckerStats,
}

impl IncrementalChecker {
    /// Creates a checker for the given constraints, compiling each and
    /// planning each kind they quantify over once, at deploy time.
    pub fn new(constraints: ConstraintSet) -> Self {
        let compiled = constraints
            .iter()
            .map(|c| CompiledConstraint::compile(c).ok())
            .collect();
        let mut kinds: Vec<&ContextKind> = constraints.iter().flat_map(|c| c.kinds()).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let plans = kinds
            .into_iter()
            .map(|kind| (kind.clone(), build_plan(&constraints, kind)))
            .collect();
        IncrementalChecker {
            constraints,
            compiled,
            plans,
            scratch: EvalScratch::new(),
            known: HashMap::new(),
            stats: CheckerStats::default(),
        }
    }

    /// The deployed constraints.
    pub fn constraints(&self) -> &ConstraintSet {
        &self.constraints
    }

    /// Whether contexts of `kind` are relevant to any constraint.
    pub fn is_relevant(&self, kind: &ContextKind) -> bool {
        plan_of(&self.plans, kind).is_some()
    }

    /// Instrumentation counters.
    pub fn stats(&self) -> CheckerStats {
        self.stats
    }

    /// Detects the inconsistencies newly introduced by context `id`
    /// (already inserted into `pool`).
    ///
    /// Universal-positive constraints are checked by pinning; others by
    /// full re-evaluation diffed against the previous violation set.
    ///
    /// Each compiled pinned check is truth-first: an allocation-free,
    /// short-circuiting truth walk
    /// ([`CompiledEvaluator::satisfied_pinned_batch`], no batch cap, no
    /// memo) runs before it, and violation evidence is built only when
    /// that walk reports a violation — the same routine
    /// [`IncrementalChecker::check_with_plan`] uses. The kind's plan
    /// was built at deploy time, so a pinned check that detects nothing
    /// allocates nothing.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from predicate evaluation.
    pub fn on_added(
        &mut self,
        registry: &PredicateRegistry,
        pool: &ContextPool,
        now: LogicalTime,
        id: ContextId,
    ) -> Result<Vec<Detection>, EvalError> {
        self.check_added(None, registry, pool, now, id)
    }

    /// A copy of the checking plan for contexts of `kind`, built at
    /// deploy time: one step per relevant constraint, with the
    /// quantifier positions to pin. Empty for a kind no constraint
    /// quantifies over.
    pub fn plan_for(&self, kind: &ContextKind) -> KindPlan {
        plan_of(&self.plans, kind).cloned().unwrap_or_default()
    }

    /// [`IncrementalChecker::on_added`] with the per-kind plan supplied
    /// by the caller. `plan` must come from
    /// [`IncrementalChecker::plan_for`] on this checker with the kind of
    /// context `id` — the verdict stream is then identical to
    /// `on_added`'s.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from predicate evaluation.
    pub fn on_added_planned(
        &mut self,
        plan: &KindPlan,
        registry: &PredicateRegistry,
        pool: &ContextPool,
        now: LogicalTime,
        id: ContextId,
    ) -> Result<Vec<Detection>, EvalError> {
        self.check_added(Some(plan), registry, pool, now, id)
    }

    /// The body of [`IncrementalChecker::on_added`] and
    /// [`IncrementalChecker::on_added_planned`]: runs `given`, or else
    /// the deploy-time plan of context `id`'s kind.
    fn check_added(
        &mut self,
        given: Option<&KindPlan>,
        registry: &PredicateRegistry,
        pool: &ContextPool,
        now: LogicalTime,
        id: ContextId,
    ) -> Result<Vec<Detection>, EvalError> {
        let Some(ctx) = pool.get(id) else {
            return Ok(Vec::new());
        };
        let IncrementalChecker {
            constraints,
            compiled,
            plans,
            scratch,
            known,
            stats,
        } = self;
        let Some(plan) = given.or_else(|| plan_of(plans, ctx.kind())) else {
            return Ok(Vec::new());
        };
        let evaluator = CompiledEvaluator::new(registry);
        let mut out = Vec::new();
        let constraints = constraints.iter().as_slice();
        for step in &plan.steps {
            let constraint = &constraints[step.constraint];
            let program = &compiled[step.constraint];
            if let Some(qids) = &step.pinned_qids {
                let links = match program {
                    Some(cc) => {
                        let mut counts = PlanCounts::default();
                        let links = pinned_links(
                            &evaluator,
                            cc,
                            step.constraint,
                            qids,
                            pool,
                            now,
                            id,
                            None,
                            scratch,
                            None,
                            &mut counts,
                        );
                        stats.pinned_evals += counts.pinned_evals;
                        stats.compiled_evals += counts.compiled_evals;
                        stats.seq_fallbacks += counts.seq_fallbacks;
                        links?
                    }
                    None => {
                        let naive = crate::eval::Evaluator::new(registry);
                        let mut links = BTreeSet::new();
                        for &qid in qids {
                            stats.pinned_evals += 1;
                            links.extend(
                                naive
                                    .check_pinned(constraint, pool, now, qid, id)?
                                    .violations,
                            );
                        }
                        links
                    }
                };
                for link in links {
                    out.push(Detection {
                        constraint: constraint.name().to_owned(),
                        link,
                    });
                }
            } else {
                stats.full_evals += 1;
                let outcome = match program {
                    Some(cc) => {
                        stats.compiled_evals += 1;
                        evaluator.check(cc, pool, now, scratch)?
                    }
                    None => crate::eval::Evaluator::new(registry).check(constraint, pool, now)?,
                };
                let seen = known.entry(constraint.name().to_owned()).or_default();
                let fresh: Vec<Link> = outcome
                    .violations
                    .iter()
                    .filter(|l| !seen.contains(*l))
                    .cloned()
                    .collect();
                *seen = outcome.violations.into_iter().collect();
                for link in fresh {
                    out.push(Detection {
                        constraint: constraint.name().to_owned(),
                        link,
                    });
                }
            }
        }
        stats.detections += out.len() as u64;
        Ok(out)
    }

    /// Whether the deployed set can be checked through
    /// [`check_with_plan`](IncrementalChecker::check_with_plan): every
    /// constraint compiled, lies in the universal-positive fragment (so
    /// plans pin — the stateful full-check-and-diff fallback never
    /// runs), and carries a per-subject scope proof (so a pinned check's
    /// footprint is exactly the pinned subject's bucket, and checks of
    /// disjoint subjects are independent). The middleware does not need
    /// it; the benchmark's batched replay and the checker's tests do.
    pub fn supports_batch_fusion(&self) -> bool {
        self.compiled.iter().all(|p| {
            p.as_ref()
                .is_some_and(|cc| cc.is_universal_positive() && cc.is_per_subject())
        })
    }

    /// Stateless, read-only twin of
    /// [`on_added_planned`](IncrementalChecker::on_added_planned) for
    /// checking a batch staged whole into `pool` (as
    /// `ContextPool::insert_batch` does): capping every quantifier
    /// domain at `max_id` (the checked context's own id) reproduces the
    /// pool a sequential submission would have seen at that arrival
    /// position. Detections, their order, and error outcomes are
    /// byte-identical to the sequential call; counter deltas are
    /// returned in [`PlanCounts`] instead of being applied, so callers
    /// can share `&self`. The middleware checks through
    /// `on_added_planned`; this entry serves the benchmark's batched
    /// replay and the checker's tests.
    ///
    /// Requires
    /// [`supports_batch_fusion`](IncrementalChecker::supports_batch_fusion)
    /// — every plan step pins a compiled program.
    ///
    /// Errors are returned in the tuple (not via `?`) so the partial
    /// counts accompany them, exactly as a sequential error would leave
    /// partially bumped [`CheckerStats`].
    #[allow(clippy::too_many_arguments)]
    pub fn check_with_plan(
        &self,
        plan: &KindPlan,
        registry: &PredicateRegistry,
        pool: &ContextPool,
        now: LogicalTime,
        id: ContextId,
        max_id: ContextId,
        scratch: &mut EvalScratch,
        memo: &mut PredMemo,
    ) -> (Result<Vec<Detection>, EvalError>, PlanCounts) {
        let mut counts = PlanCounts::default();
        if !pool.contains(id) {
            return (Ok(Vec::new()), counts);
        }
        let evaluator = CompiledEvaluator::new(registry);
        let constraints = self.constraints.iter().as_slice();
        let mut out = Vec::new();
        for step in &plan.steps {
            let constraint = &constraints[step.constraint];
            let (Some(qids), Some(cc)) = (&step.pinned_qids, &self.compiled[step.constraint])
            else {
                unreachable!("check_with_plan requires supports_batch_fusion()");
            };
            let links = match pinned_links(
                &evaluator,
                cc,
                step.constraint,
                qids,
                pool,
                now,
                id,
                Some(max_id),
                scratch,
                Some(&mut *memo),
                &mut counts,
            ) {
                Ok(links) => links,
                Err(e) => return (Err(e), counts),
            };
            for link in links {
                out.push(Detection {
                    constraint: constraint.name().to_owned(),
                    link,
                });
            }
        }
        counts.detections = out.len() as u64;
        (Ok(out), counts)
    }

    /// Applies the counter deltas of one or more
    /// [`check_with_plan`](IncrementalChecker::check_with_plan) calls,
    /// restoring [`CheckerStats`] parity with the sequential path.
    pub fn absorb_batch_counts(&mut self, counts: PlanCounts) {
        self.stats.pinned_evals += counts.pinned_evals;
        self.stats.compiled_evals += counts.compiled_evals;
        self.stats.detections += counts.detections;
        self.stats.seq_fallbacks += counts.seq_fallbacks;
    }

    /// Fully checks every constraint: the non-incremental baseline the
    /// tests hold pinned checking against.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from predicate evaluation.
    pub fn check_all(
        &mut self,
        registry: &PredicateRegistry,
        pool: &ContextPool,
        now: LogicalTime,
    ) -> Result<Vec<Detection>, EvalError> {
        let evaluator = CompiledEvaluator::new(registry);
        let IncrementalChecker {
            constraints,
            compiled,
            scratch,
            stats,
            ..
        } = self;
        let mut out = Vec::new();
        for (constraint, program) in constraints.iter().zip(compiled.iter()) {
            stats.full_evals += 1;
            let outcome = match program {
                Some(cc) => {
                    stats.compiled_evals += 1;
                    evaluator.check(cc, pool, now, scratch)?
                }
                None => crate::eval::Evaluator::new(registry).check(constraint, pool, now)?,
            };
            for link in outcome.violations {
                out.push(Detection {
                    constraint: constraint.name().to_owned(),
                    link,
                });
            }
        }
        Ok(out)
    }
}

/// The checking plan for contexts of `kind`: one step per relevant
/// constraint, with the quantifier positions to pin.
fn build_plan(constraints: &ConstraintSet, kind: &ContextKind) -> KindPlan {
    let steps = constraints
        .iter()
        .enumerate()
        .filter(|(_, c)| c.is_relevant_to(kind))
        .map(|(i, c)| PlanStep {
            constraint: i,
            pinned_qids: c.is_universal_positive().then(|| c.quantifiers_over(kind)),
        })
        .collect();
    KindPlan { steps }
}

/// The deploy-time plan of `kind`, if any constraint quantifies over it.
fn plan_of<'p>(plans: &'p [(ContextKind, KindPlan)], kind: &ContextKind) -> Option<&'p KindPlan> {
    plans
        .binary_search_by(|(planned, _)| planned.cmp(kind))
        .ok()
        .map(|at| &plans[at].1)
}

/// The pinned check of one compiled plan step, shared by
/// [`IncrementalChecker::on_added`] (and `on_added_planned`) and
/// [`IncrementalChecker::check_with_plan`]: per pinned quantifier, a
/// truth walk first ([`CompiledEvaluator::satisfied_pinned_batch`],
/// which allocates nothing), and the evidence walk only when that
/// reports a violation. The evidence walk visits every binding the
/// truth walk does, in the same order, so `Ok(true)` proves it would
/// find no violation, and a truth-walk `Err` is one it would raise as
/// well (or after an earlier one).
///
/// Counters are bumped in `counts` before each evaluation, so an error
/// leaves the same partial tallies as an evidence-only check would.
#[allow(clippy::too_many_arguments)]
fn pinned_links(
    evaluator: &CompiledEvaluator<'_>,
    cc: &CompiledConstraint,
    cid: usize,
    qids: &[usize],
    pool: &ContextPool,
    now: LogicalTime,
    id: ContextId,
    max_id: Option<ContextId>,
    scratch: &mut EvalScratch,
    mut memo: Option<&mut PredMemo>,
    counts: &mut PlanCounts,
) -> Result<BTreeSet<Link>, EvalError> {
    let mut links = BTreeSet::new();
    for &qid in qids {
        counts.pinned_evals += 1;
        counts.compiled_evals += 1;
        let fallbacks = scratch.seq_fallbacks();
        let satisfied = evaluator.satisfied_pinned_batch(
            cc,
            pool,
            now,
            qid,
            id,
            max_id,
            scratch,
            memo.as_deref_mut(),
            cid as u32,
        );
        counts.seq_fallbacks += scratch.seq_fallbacks() - fallbacks;
        if !satisfied? {
            let outcome = evaluator.check_pinned_batch(cc, pool, now, qid, id, max_id, scratch)?;
            links.extend(outcome.violations);
        }
    }
    Ok(links)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraints;
    use ctxres_context::{Context, ContextState, Point};

    fn checker(src: &str) -> IncrementalChecker {
        IncrementalChecker::new(parse_constraints(src).unwrap().into_iter().collect())
    }

    fn add_loc(pool: &mut ContextPool, subject: &str, seq: i64, x: f64, y: f64) -> ContextId {
        pool.insert(
            Context::builder(ContextKind::new("location"), subject)
                .attr("pos", Point::new(x, y))
                .attr("seq", seq)
                .stamp(LogicalTime::new(seq as u64))
                .build(),
        )
    }

    const SPEED: &str = "constraint speed:
        forall a: location, b: location .
          (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

    #[test]
    fn detects_violation_on_arrival() {
        let mut ch = checker(SPEED);
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        let a = add_loc(&mut pool, "p", 0, 0.0, 0.0);
        assert!(ch
            .on_added(&reg, &pool, LogicalTime::new(0), a)
            .unwrap()
            .is_empty());
        let b = add_loc(&mut pool, "p", 1, 0.5, 0.0);
        assert!(ch
            .on_added(&reg, &pool, LogicalTime::new(1), b)
            .unwrap()
            .is_empty());
        let c = add_loc(&mut pool, "p", 2, 9.0, 9.0);
        let found = ch.on_added(&reg, &pool, LogicalTime::new(2), c).unwrap();
        assert_eq!(found.len(), 1);
        assert!(found[0].link.contains(&b));
        assert!(found[0].link.contains(&c));
    }

    #[test]
    fn irrelevant_kind_triggers_nothing() {
        let mut ch = checker(SPEED);
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        let id = pool.insert(Context::builder(ContextKind::new("rfid"), "tag").build());
        assert!(!ch.is_relevant(&ContextKind::new("rfid")));
        assert!(ch
            .on_added(&reg, &pool, LogicalTime::new(0), id)
            .unwrap()
            .is_empty());
        assert_eq!(ch.stats().pinned_evals, 0);
    }

    #[test]
    fn detections_deduplicate_across_quantifiers() {
        // Both quantifiers range over `location`; a self-violating pair
        // must still be reported once.
        let mut ch = checker(SPEED);
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        add_loc(&mut pool, "p", 0, 0.0, 0.0);
        let b = add_loc(&mut pool, "p", 1, 9.0, 9.0);
        let found = ch.on_added(&reg, &pool, LogicalTime::new(1), b).unwrap();
        assert_eq!(found.len(), 1);
        assert_eq!(ch.stats().pinned_evals, 2, "one pinned eval per quantifier");
    }

    #[test]
    fn multiple_new_inconsistencies_reported_together() {
        // Paper Fig. 5 shape: gap-1 and gap-2 constraints; a bad context
        // violates against several predecessors at once.
        let mut ch = checker(
            "constraint gap1:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)
             constraint gap2:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 2)) implies velocity_le(a, b, 1.5)",
        );
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        add_loc(&mut pool, "p", 0, 0.0, 0.0);
        add_loc(&mut pool, "p", 1, 0.5, 0.0);
        let c = add_loc(&mut pool, "p", 2, 9.0, 9.0);
        let found = ch.on_added(&reg, &pool, LogicalTime::new(2), c).unwrap();
        // (b,c) under gap1 and (a,c) under gap2.
        assert_eq!(found.len(), 2);
        let names: BTreeSet<&str> = found.iter().map(|d| d.constraint.as_str()).collect();
        assert_eq!(names.len(), 2);
    }

    #[test]
    fn fallback_path_diffs_full_checks() {
        // `exists` in positive polarity forces the fallback path.
        let mut ch = checker("constraint anchored: exists a: location . subject_eq(a, \"anchor\")");
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        let a = add_loc(&mut pool, "p", 0, 0.0, 0.0);
        let found = ch.on_added(&reg, &pool, LogicalTime::new(0), a).unwrap();
        assert_eq!(found.len(), 1, "no anchor context yet: violated");
        assert!(ch.stats().full_evals >= 1);
        // Adding a second non-anchor context: the violation link changes
        // (the exists evidence now covers both), so it is re-reported;
        // adding the anchor resolves it.
        let b = add_loc(&mut pool, "p", 1, 1.0, 0.0);
        let _ = ch.on_added(&reg, &pool, LogicalTime::new(1), b).unwrap();
        let anchor = pool.insert(
            Context::builder(ContextKind::new("location"), "anchor")
                .attr("pos", Point::new(0.0, 0.0))
                .attr("seq", 2i64)
                .build(),
        );
        let found = ch
            .on_added(&reg, &pool, LogicalTime::new(2), anchor)
            .unwrap();
        assert!(found.is_empty());
    }

    #[test]
    fn discarded_context_cannot_recreate_detections() {
        let mut ch = checker(SPEED);
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        add_loc(&mut pool, "p", 0, 0.0, 0.0);
        let b = add_loc(&mut pool, "p", 1, 9.0, 9.0);
        pool.set_state(b, ContextState::Inconsistent).unwrap();
        let c = add_loc(&mut pool, "p", 2, 9.5, 9.0);
        let found = ch.on_added(&reg, &pool, LogicalTime::new(2), c).unwrap();
        // (b,c) would violate but b is discarded; (a,c) is gap 2, not 1.
        assert!(found.is_empty());
    }

    #[test]
    fn planned_path_matches_on_added() {
        let reg = PredicateRegistry::with_builtins();
        let points = [(0.0, 0.0), (9.0, 9.0), (0.5, 0.0), (1.0, 0.0)];

        let mut plain = checker(SPEED);
        let mut pool_a = ContextPool::new();
        let mut via_on_added = Vec::new();
        for (i, (x, y)) in points.iter().enumerate() {
            let id = add_loc(&mut pool_a, "p", i as i64, *x, *y);
            via_on_added.extend(
                plain
                    .on_added(&reg, &pool_a, LogicalTime::new(i as u64), id)
                    .unwrap(),
            );
        }

        let mut planned = checker(SPEED);
        let plan = planned.plan_for(&ContextKind::new("location"));
        assert!(plan.is_relevant());
        assert!(!planned.plan_for(&ContextKind::new("rfid")).is_relevant());
        let mut pool_b = ContextPool::new();
        let mut via_plan = Vec::new();
        for (i, (x, y)) in points.iter().enumerate() {
            let id = add_loc(&mut pool_b, "p", i as i64, *x, *y);
            via_plan.extend(
                planned
                    .on_added_planned(&plan, &reg, &pool_b, LogicalTime::new(i as u64), id)
                    .unwrap(),
            );
        }

        assert_eq!(via_on_added, via_plan);
        assert_eq!(plain.stats(), planned.stats());
    }

    #[test]
    fn batch_capped_plan_matches_sequential_insertion() {
        // Sequential oracle: insert one at a time, check on arrival.
        let reg = PredicateRegistry::with_builtins();
        let points = [(0.0, 0.0), (9.0, 9.0), (0.5, 0.0), (1.0, 0.0), (1.5, 0.0)];
        let subjects = ["p", "p", "q", "p", "q"];

        let mut seq = checker(SPEED);
        let mut pool_a = ContextPool::new();
        let mut via_seq = Vec::new();
        for (i, (x, y)) in points.iter().enumerate() {
            let id = add_loc(&mut pool_a, subjects[i], i as i64, *x, *y);
            via_seq.extend(
                seq.on_added(&reg, &pool_a, LogicalTime::new(i as u64), id)
                    .unwrap(),
            );
        }

        // Fused: pre-insert the whole batch, then check each position
        // with the domain capped at its own id.
        let mut fused = checker(SPEED);
        assert!(fused.supports_batch_fusion());
        let plan = fused.plan_for(&ContextKind::new("location"));
        let mut pool_b = ContextPool::new();
        let ids: Vec<ContextId> = points
            .iter()
            .enumerate()
            .map(|(i, (x, y))| add_loc(&mut pool_b, subjects[i], i as i64, *x, *y))
            .collect();
        let mut via_batch = Vec::new();
        let mut scratch = EvalScratch::new();
        let mut memo = PredMemo::new();
        let mut total = PlanCounts::default();
        for (i, &id) in ids.iter().enumerate() {
            let (result, counts) = fused.check_with_plan(
                &plan,
                &reg,
                &pool_b,
                LogicalTime::new(i as u64),
                id,
                id,
                &mut scratch,
                &mut memo,
            );
            total.absorb(counts);
            via_batch.extend(result.unwrap());
        }
        fused.absorb_batch_counts(total);

        assert_eq!(via_seq, via_batch);
        assert_eq!(seq.stats(), fused.stats());
        assert_eq!(
            memo.hits() + memo.misses(),
            0,
            "every SPEED predicate reads the pinned slot, so the memo is bypassed"
        );
    }

    #[test]
    fn pin_free_sites_consult_the_memo_and_hit_across_checks() {
        // `has_attr(b, "pos")` reads only the unpinned slot when the
        // check pins `a`, so its verdicts recur across checks of the
        // same subject — the one class of site the memo serves. It leads
        // the antecedent, so short-circuit evaluation reaches it for
        // every binding (and the constraint has no seq guard to narrow
        // `b` by). The capped run must still agree with the sequential
        // oracle.
        let guarded = "constraint guarded: forall a: location, b: location . \
             (has_attr(b, \"pos\") and same_subject(a, b) and seq_gap(a, b, 1)) \
             implies velocity_le(a, b, 1.5)";
        let reg = PredicateRegistry::with_builtins();
        let points = [(0.0, 0.0), (9.0, 9.0), (0.5, 0.0), (1.0, 0.0), (1.5, 0.0)];
        let subjects = ["p", "p", "q", "p", "q"];

        let mut seq = checker(guarded);
        let mut pool_a = ContextPool::new();
        let mut via_seq = Vec::new();
        for (i, (x, y)) in points.iter().enumerate() {
            let id = add_loc(&mut pool_a, subjects[i], i as i64, *x, *y);
            via_seq.extend(
                seq.on_added(&reg, &pool_a, LogicalTime::new(i as u64), id)
                    .unwrap(),
            );
        }

        let fused = checker(guarded);
        assert!(fused.supports_batch_fusion());
        assert!(fused
            .compiled
            .iter()
            .flatten()
            .all(|cc| !cc.has_seq_guard()));
        let plan = fused.plan_for(&ContextKind::new("location"));
        let mut pool_b = ContextPool::new();
        let ids: Vec<ContextId> = points
            .iter()
            .enumerate()
            .map(|(i, (x, y))| add_loc(&mut pool_b, subjects[i], i as i64, *x, *y))
            .collect();
        let mut via_batch = Vec::new();
        let mut scratch = EvalScratch::new();
        let mut memo = PredMemo::new();
        for (i, &id) in ids.iter().enumerate() {
            let (result, _) = fused.check_with_plan(
                &plan,
                &reg,
                &pool_b,
                LogicalTime::new(i as u64),
                id,
                id,
                &mut scratch,
                &mut memo,
            );
            via_batch.extend(result.unwrap());
        }

        assert_eq!(via_seq, via_batch);
        assert!(memo.misses() > 0, "pin-free sites must populate the memo");
        assert!(
            memo.hits() > 0,
            "repeat subjects must replay memoized verdicts"
        );
    }

    #[test]
    fn truth_first_pinned_check_matches_evidence_only_check() {
        // "Every earlier badge of a subject was in the office." Pinned
        // on the new badge as `a`, `b` walks p's badges in (stamp, id)
        // order. At `b` = the new badge itself the antecedent is false,
        // so short-circuit evaluation never reads the consequent's
        // `room`, which the new badge lacks: the check is `Ok`, as the
        // evidence walk and the tree-walking oracle say. An earlier
        // badge without a `room` is read, and the truth-first check
        // raises the evidence walk's error.
        const ROOM: &str = "constraint room: forall a: badge, b: badge . \
             (same_subject(a, b) and before(b, a)) implies eq(b.room, \"office\")";
        let badge = |stamp: u64, room: Option<&str>| {
            let mut b =
                Context::builder(ContextKind::new("badge"), "p").stamp(LogicalTime::new(stamp));
            if let Some(room) = room {
                b = b.attr("room", room);
            }
            b.build()
        };
        let reg = PredicateRegistry::with_builtins();
        let constraint = &parse_constraints(ROOM).unwrap()[0];
        let cc = CompiledConstraint::compile(constraint).unwrap();
        let evidence = CompiledEvaluator::new(&reg);
        let oracle = crate::eval::Evaluator::new(&reg);
        let now = LogicalTime::new(3);
        let mut scratch = EvalScratch::new();

        let mut pool = ContextPool::new();
        pool.insert(badge(1, Some("office")));
        let new = pool.insert(badge(3, None));
        let mut ch = checker(ROOM);
        let plan = ch.plan_for(&ContextKind::new("badge"));
        let got = ch.on_added_planned(&plan, &reg, &pool, now, new);
        for qid in 0..2 {
            let want = evidence.check_pinned(&cc, &pool, now, qid, new, &mut scratch);
            assert_eq!(want, oracle.check_pinned(constraint, &pool, now, qid, new));
            assert!(want.is_ok_and(|o| o.satisfied), "pin qid={qid}");
        }
        assert_eq!(got, Ok(Vec::new()));
        assert_eq!(ch.stats().pinned_evals, 2);
        assert_eq!(ch.stats().detections, 0);

        let mut pool = ContextPool::new();
        pool.insert(badge(1, None));
        let new = pool.insert(badge(3, Some("office")));
        let mut ch = checker(ROOM);
        let got = ch.on_added_planned(&plan, &reg, &pool, now, new);
        let want = evidence.check_pinned(&cc, &pool, now, 0, new, &mut scratch);
        assert!(matches!(want, Err(EvalError::MissingAttr { .. })));
        assert_eq!(want, oracle.check_pinned(constraint, &pool, now, 0, new));
        assert_eq!(got, Err(want.unwrap_err()));
        assert_eq!(ch.stats().pinned_evals, 1, "the error ends the plan");
        assert_eq!(ch.stats().detections, 0);

        let mut pool = ContextPool::new();
        pool.insert(badge(1, Some("lab")));
        let new = pool.insert(badge(3, Some("office")));
        let mut ch = checker(ROOM);
        let found = ch.on_added_planned(&plan, &reg, &pool, now, new).unwrap();
        let mut want: BTreeSet<Link> = BTreeSet::new();
        for qid in 0..2 {
            want.extend(
                evidence
                    .check_pinned(&cc, &pool, now, qid, new, &mut scratch)
                    .unwrap()
                    .violations,
            );
        }
        let got: Vec<Link> = found.into_iter().map(|d| d.link).collect();
        assert_eq!(got, want.into_iter().collect::<Vec<_>>());
        assert_eq!(got.len(), 1, "the lab badge pairs with the new one");
    }

    #[test]
    fn fallback_constraints_disable_batch_fusion() {
        let ch = checker("constraint anchored: exists a: location . subject_eq(a, \"anchor\")");
        assert!(!ch.supports_batch_fusion(), "existential forces fallback");
        let cross = checker(
            "constraint cross: forall a: location, b: location . \
             seq_gap(a, b, 1) implies same_subject(a, b)",
        );
        assert!(!cross.supports_batch_fusion(), "global scope is ineligible");
    }

    #[test]
    fn check_all_matches_incremental_accumulation() {
        let mut ch = checker(SPEED);
        let reg = PredicateRegistry::with_builtins();
        let mut pool = ContextPool::new();
        let mut incremental: BTreeSet<Link> = BTreeSet::new();
        for (i, (x, y)) in [(0.0, 0.0), (9.0, 9.0), (0.5, 0.0), (1.0, 0.0)]
            .iter()
            .enumerate()
        {
            let id = add_loc(&mut pool, "p", i as i64, *x, *y);
            for d in ch
                .on_added(&reg, &pool, LogicalTime::new(i as u64), id)
                .unwrap()
            {
                incremental.insert(d.link);
            }
        }
        let full: BTreeSet<Link> = ch
            .check_all(&reg, &pool, LogicalTime::new(10))
            .unwrap()
            .into_iter()
            .map(|d| d.link)
            .collect();
        assert_eq!(incremental, full);
    }

    /// The ICSE'06 optimisation as work rather than time. On a
    /// one-subject walk, a pinned check of the newest context finds its
    /// one seq partner, so it makes three predicate calls however long
    /// the walk is. A full check visits all N² pairs, calling
    /// `same_subject` and `seq_gap` on each and `velocity_le` on the
    /// N − 1 seq neighbours: 2N² + N − 1 calls.
    #[test]
    fn pinned_check_calls_stay_flat_while_full_check_calls_grow() {
        use crate::predicate::counting_builtins;
        use std::sync::atomic::{AtomicU64, Ordering};
        use std::sync::Arc;
        let calls = Arc::new(AtomicU64::new(0));
        let counting = counting_builtins(
            &[("same_subject", 2), ("seq_gap", 3), ("velocity_le", 3)],
            &calls,
        );
        for (n, full_calls) in [(50u64, 5_049u64), (200, 80_199)] {
            let mut ch = checker(SPEED);
            let mut pool = ContextPool::new();
            let newest = (0..n)
                .map(|i| add_loc(&mut pool, "peter", i as i64, i as f64, 0.0))
                .last()
                .unwrap();
            let now = LogicalTime::new(n);

            calls.store(0, Ordering::Relaxed);
            assert!(ch
                .on_added(&counting, &pool, now, newest)
                .unwrap()
                .is_empty());
            assert_eq!(calls.load(Ordering::Relaxed), 3, "n = {n}: one partner");
            assert_eq!(ch.stats().pinned_evals, 2, "n = {n}: one per quantifier");
            assert_eq!(ch.stats().full_evals, 0, "n = {n}");

            calls.store(0, Ordering::Relaxed);
            assert!(ch.check_all(&counting, &pool, now).unwrap().is_empty());
            assert_eq!(
                calls.load(Ordering::Relaxed),
                full_calls,
                "n = {n}: 2N² + N − 1"
            );
            assert_eq!(ch.stats().full_evals, 1, "n = {n}");
            assert_eq!(ch.stats().pinned_evals, 2, "n = {n}");
        }
    }
}
