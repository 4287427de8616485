//! Link-producing formula evaluation.
//!
//! The evaluator follows the link-generation semantics of Xu, Cheung &
//! Chan (ICSE'06): every sub-formula evaluates to a truth value plus
//! *links*, the sets of contexts witnessing that verdict. A violated
//! top-level constraint therefore yields one [`Link`] per detected
//! context inconsistency — exactly the objects the resolution strategies
//! in `ctxres-core` operate on.
//!
//! Evaluation is left to right and short-circuits: `and`, `or` and
//! `implies` evaluate their right operand only when the left one does
//! not decide them, so an error in a skipped operand is never raised.
//! Quantifiers visit every binding, so a violated constraint lists
//! every violation.
//!
//! Composition rules (links of the *returned* truth value):
//!
//! * predicate: the contexts referenced by its arguments;
//! * `not f`: the links of `f`;
//! * a connective its left operand decides (`and` with a false left,
//!   `or` with a true one): the left operand's links;
//! * otherwise the right operand decides: its links when it disagrees
//!   with the left (violated `and`, satisfied `or`), and pairwise unions
//!   (⊗) of both sides' links when it agrees (satisfied `and`, violated
//!   `or`);
//! * `implies` behaves as `or(not lhs, rhs)`;
//! * violated `forall x`: for each violating binding, the body's links
//!   each extended with the bound context; satisfied `forall`: ⊗ over all
//!   bindings;
//! * `exists` is dual.
//!
//! The ⊗ products can grow combinatorially; two mechanisms keep
//! evaluation cheap and exact where it matters: evidence lists are
//! capped at [`MAX_LINKS`] with a `truncated` flag, and evidence is
//! computed *demand-driven* — a polarity analysis skips any ⊗-fold whose
//! result cannot reach the top-level violation links (satisfied `forall`
//! evidence in positive position, for instance), so checking the common
//! constraint shapes stays linear in the number of bindings.

use crate::ast::{Formula, Quantifier, Term};
use crate::constraint::Constraint;
use crate::error::EvalError;
use crate::predicate::{PredicateRegistry, Resolved};
use ctxres_context::{ContextId, ContextPool, LogicalTime};
use std::collections::BTreeSet;

/// A set of contexts witnessing a verdict; for a violated constraint, one
/// link is one context inconsistency.
pub type Link = BTreeSet<ContextId>;

/// Cap on the number of evidence links tracked per sub-formula.
pub const MAX_LINKS: usize = 256;

/// Result of checking one constraint against a pool.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckOutcome {
    /// Whether the constraint held.
    pub satisfied: bool,
    /// One link per detected inconsistency (empty when satisfied).
    pub violations: Vec<Link>,
    /// Whether evidence tracking hit [`MAX_LINKS`] somewhere.
    pub truncated: bool,
}

#[derive(Debug, Clone)]
pub(crate) struct Evidence {
    pub(crate) truth: bool,
    pub(crate) links: Vec<Link>,
    pub(crate) truncated: bool,
}

impl Evidence {
    pub(crate) fn of(truth: bool) -> Evidence {
        // Constant formulas: a single empty witness.
        Evidence {
            truth,
            links: vec![Link::new()],
            truncated: false,
        }
    }
}

/// Restricts one quantifier's domain to a single context (incremental
/// checking support).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Pin {
    pub(crate) qid: usize,
    pub(crate) ctx: ContextId,
}

/// Which contexts quantifiers range over.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DomainMode {
    /// All live, non-discarded contexts — the consistency-checking view
    /// (buffered `Undecided`/`Bad` contexts are checked too).
    #[default]
    AllLive,
    /// Only `Consistent`, live contexts — the application view used for
    /// situation evaluation.
    AvailableOnly,
}

/// Evaluates constraints against a [`ContextPool`] by walking the AST.
///
/// See the crate-level example. The evaluator borrows the predicate
/// registry; it holds no other state, so one instance can check any
/// number of constraints. The engine evaluates compiled programs
/// ([`CompiledEvaluator`](crate::CompiledEvaluator)); this tree-walker
/// is the reference the tests hold them against.
#[derive(Debug)]
pub struct Evaluator<'r> {
    registry: &'r PredicateRegistry,
    domain: DomainMode,
}

impl<'r> Evaluator<'r> {
    /// Creates an evaluator using `registry` for predicate lookups,
    /// quantifying over all live contexts.
    pub fn new(registry: &'r PredicateRegistry) -> Self {
        Evaluator {
            registry,
            domain: DomainMode::AllLive,
        }
    }

    /// Creates an evaluator with an explicit quantification domain.
    pub fn with_domain(registry: &'r PredicateRegistry, domain: DomainMode) -> Self {
        Evaluator { registry, domain }
    }

    /// Fully checks `constraint` over the live contexts of `pool` at
    /// instant `now`.
    ///
    /// # Errors
    ///
    /// Propagates [`EvalError`] from predicate evaluation (unknown
    /// predicate, arity/type errors, unbound variables).
    pub fn check(
        &self,
        constraint: &Constraint,
        pool: &ContextPool,
        now: LogicalTime,
    ) -> Result<CheckOutcome, EvalError> {
        let ev = self.eval(
            constraint.formula(),
            pool,
            now,
            &mut Vec::new(),
            None,
            Need::ROOT,
        )?;
        Ok(outcome_from(ev))
    }

    /// Checks `constraint` with quantifier `qid`'s domain restricted to
    /// the single context `ctx` (all other quantifiers range over the
    /// full pool).
    ///
    /// Used by the incremental checker to find the violations a
    /// newly-arrived context introduces.
    ///
    /// # Errors
    ///
    /// Same as [`Evaluator::check`].
    pub fn check_pinned(
        &self,
        constraint: &Constraint,
        pool: &ContextPool,
        now: LogicalTime,
        qid: usize,
        ctx: ContextId,
    ) -> Result<CheckOutcome, EvalError> {
        let pin = Pin { qid, ctx };
        let ev = self.eval(
            constraint.formula(),
            pool,
            now,
            &mut Vec::new(),
            Some(pin),
            Need::ROOT,
        )?;
        Ok(outcome_from(ev))
    }

    fn eval(
        &self,
        formula: &Formula,
        pool: &ContextPool,
        now: LogicalTime,
        env: &mut Vec<(String, ContextId)>,
        pin: Option<Pin>,
        need: Need,
    ) -> Result<Evidence, EvalError> {
        match formula {
            Formula::True => Ok(Evidence::of(true)),
            Formula::False => Ok(Evidence::of(false)),
            Formula::Not(f) => {
                let mut ev = self.eval(f, pool, now, env, pin, need.flip())?;
                ev.truth = !ev.truth;
                Ok(ev)
            }
            Formula::And(a, b) => {
                let ea = self.eval(a, pool, now, env, pin, need)?;
                if !ea.truth {
                    return Ok(ea);
                }
                let eb = self.eval(b, pool, now, env, pin, need)?;
                Ok(combine_undecided(ea, eb))
            }
            Formula::Or(a, b) => {
                let ea = self.eval(a, pool, now, env, pin, need)?;
                if ea.truth {
                    return Ok(ea);
                }
                let eb = self.eval(b, pool, now, env, pin, need)?;
                Ok(combine_undecided(ea, eb))
            }
            Formula::Implies(a, b) => {
                let mut ea = self.eval(a, pool, now, env, pin, need.flip())?;
                ea.truth = !ea.truth;
                if ea.truth {
                    return Ok(ea);
                }
                let eb = self.eval(b, pool, now, env, pin, need)?;
                Ok(combine_undecided(ea, eb))
            }
            Formula::Pred(call) => {
                let mut witness = Link::new();
                let mut args: Vec<Resolved<'_>> = Vec::with_capacity(call.args.len());
                for term in &call.args {
                    args.push(resolve_term(term, pool, env, &mut witness)?);
                }
                let truth = self.registry.eval(&call.name, &args)?;
                Ok(Evidence {
                    truth,
                    links: vec![witness],
                    truncated: false,
                })
            }
            Formula::Quant {
                q,
                var,
                kind,
                qid,
                body,
            } => {
                let domain: Vec<ContextId> = match pin {
                    Some(p) if p.qid == *qid => vec![p.ctx],
                    _ => pool
                        .of_kind_live_at(kind, now)
                        .filter(|(_, c)| {
                            self.domain == DomainMode::AllLive || c.state().is_available()
                        })
                        .map(|(id, _)| id)
                        .collect(),
                };
                let mut per_binding: Vec<Evidence> = Vec::with_capacity(domain.len());
                for id in &domain {
                    env.push((var.clone(), *id));
                    let mut ev = self.eval(body, pool, now, env, pin, need)?;
                    env.pop();
                    for link in &mut ev.links {
                        link.insert(*id);
                    }
                    per_binding.push(ev);
                }
                Ok(match q {
                    Quantifier::Forall => fold_forall(per_binding, need),
                    Quantifier::Exists => fold_exists(per_binding, need),
                })
            }
        }
    }
}

/// Which evidence polarities a node's caller can actually use. Top-level
/// violation reporting only consumes false-evidence of the root; the
/// flags propagate down (flipping through negations) so the expensive
/// ⊗-folds over whole quantifier domains are skipped whenever their
/// result is unobservable. This keeps evaluation exact *and* linear in
/// the number of bindings for the common constraint shapes.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Need {
    when_true: bool,
    when_false: bool,
}

impl Need {
    pub(crate) const ROOT: Need = Need {
        when_true: false,
        when_false: true,
    };

    pub(crate) fn flip(self) -> Need {
        Need {
            when_true: self.when_false,
            when_false: self.when_true,
        }
    }
}

pub(crate) fn outcome_from(ev: Evidence) -> CheckOutcome {
    if ev.truth {
        CheckOutcome {
            satisfied: true,
            violations: Vec::new(),
            truncated: ev.truncated,
        }
    } else {
        let mut violations = ev.links;
        violations.retain(|l| !l.is_empty());
        dedup_links(&mut violations);
        CheckOutcome {
            satisfied: false,
            violations,
            truncated: ev.truncated,
        }
    }
}

fn resolve_term<'a>(
    term: &'a Term,
    pool: &'a ContextPool,
    env: &[(String, ContextId)],
    witness: &mut Link,
) -> Result<Resolved<'a>, EvalError> {
    match term {
        Term::Const(v) => Ok(Resolved::ValueRef(v)),
        Term::Var(name) => {
            let id = lookup(env, name)?;
            witness.insert(id);
            let ctx = pool
                .get(id)
                .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?;
            Ok(Resolved::Ctx(id, ctx))
        }
        Term::Attr(name, attr) => {
            let id = lookup(env, name)?;
            witness.insert(id);
            let ctx = pool
                .get(id)
                .ok_or_else(|| EvalError::UnboundVariable(name.clone()))?;
            let value = ctx.attr(attr).ok_or_else(|| EvalError::MissingAttr {
                var: name.clone(),
                attr: attr.clone(),
            })?;
            Ok(Resolved::ValueRef(value))
        }
    }
}

fn lookup(env: &[(String, ContextId)], name: &str) -> Result<ContextId, EvalError> {
    env.iter()
        .rev()
        .find(|(n, _)| n == name)
        .map(|(_, id)| *id)
        .ok_or_else(|| EvalError::UnboundVariable(name.to_owned()))
}

/// Evidence of a connective whose left operand `a` did not decide it
/// (a true `and` operand, a false `or` operand), so the right operand
/// `b` does: alone when it disagrees with `a`, and as the ⊗ of both
/// when it agrees.
pub(crate) fn combine_undecided(a: Evidence, b: Evidence) -> Evidence {
    if a.truth == b.truth {
        let truth = b.truth;
        cross(a, b, truth)
    } else {
        b
    }
}

pub(crate) fn fold_forall(per_binding: Vec<Evidence>, need: Need) -> Evidence {
    let truth = per_binding.iter().all(|e| e.truth);
    if truth {
        if !need.when_true {
            return Evidence::of(true);
        }
        per_binding
            .into_iter()
            .fold(Evidence::of(true), |acc, e| cross(acc, e, true))
    } else {
        if !need.when_false {
            return Evidence::of(false);
        }
        let mut truncated = false;
        let mut links = Vec::new();
        for e in per_binding.into_iter().filter(|e| !e.truth) {
            truncated |= e.truncated;
            links.extend(e.links);
        }
        dedup_links(&mut links);
        if links.len() > MAX_LINKS {
            links.truncate(MAX_LINKS);
            truncated = true;
        }
        Evidence {
            truth: false,
            links,
            truncated,
        }
    }
}

pub(crate) fn fold_exists(per_binding: Vec<Evidence>, need: Need) -> Evidence {
    let truth = per_binding.iter().any(|e| e.truth);
    if truth {
        if !need.when_true {
            return Evidence::of(true);
        }
        let mut truncated = false;
        let mut links = Vec::new();
        for e in per_binding.into_iter().filter(|e| e.truth) {
            truncated |= e.truncated;
            links.extend(e.links);
        }
        dedup_links(&mut links);
        if links.len() > MAX_LINKS {
            links.truncate(MAX_LINKS);
            truncated = true;
        }
        Evidence {
            truth: true,
            links,
            truncated,
        }
    } else {
        if !need.when_false {
            return Evidence::of(false);
        }
        per_binding
            .into_iter()
            .fold(Evidence::of(false), |acc, e| cross(acc, e, false))
    }
}

/// Pairwise unions of the two evidence lists (the ⊗ operator).
fn cross(a: Evidence, b: Evidence, truth: bool) -> Evidence {
    let mut truncated = a.truncated || b.truncated;
    let mut links = Vec::with_capacity((a.links.len() * b.links.len()).min(MAX_LINKS));
    'outer: for la in &a.links {
        for lb in &b.links {
            if links.len() >= MAX_LINKS {
                truncated = true;
                break 'outer;
            }
            let mut l = la.clone();
            l.extend(lb.iter().copied());
            links.push(l);
        }
    }
    dedup_links(&mut links);
    Evidence {
        truth,
        links,
        truncated,
    }
}

fn dedup_links(links: &mut Vec<Link>) {
    links.sort();
    links.dedup();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraint;
    use ctxres_context::{Context, ContextKind, ContextState, Point};

    fn registry() -> PredicateRegistry {
        PredicateRegistry::with_builtins()
    }

    fn loc_pool(points: &[(f64, f64)]) -> ContextPool {
        let mut pool = ContextPool::new();
        for (i, (x, y)) in points.iter().enumerate() {
            pool.insert(
                Context::builder(ContextKind::new("location"), "peter")
                    .attr("pos", Point::new(*x, *y))
                    .attr("seq", i as i64)
                    .stamp(LogicalTime::new(i as u64))
                    .build(),
            );
        }
        pool
    }

    fn speed_constraint(gap: i64, vmax: f64) -> Constraint {
        parse_constraint(&format!(
            "constraint speed_gap{gap}:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, {gap})) implies velocity_le(a, b, {vmax})"
        ))
        .unwrap()
    }

    #[test]
    fn satisfied_constraint_has_no_violations() {
        let pool = loc_pool(&[(0.0, 0.0), (0.5, 0.0), (1.0, 0.0)]);
        let reg = registry();
        let out = Evaluator::new(&reg)
            .check(&speed_constraint(1, 1.5), &pool, LogicalTime::new(10))
            .unwrap();
        assert!(out.satisfied);
        assert!(out.violations.is_empty());
        assert!(!out.truncated);
    }

    #[test]
    fn violation_links_name_the_offending_pair() {
        // Third context jumps far away: the (1,2) hop violates.
        let pool = loc_pool(&[(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)]);
        let reg = registry();
        let out = Evaluator::new(&reg)
            .check(&speed_constraint(1, 1.5), &pool, LogicalTime::new(10))
            .unwrap();
        assert!(!out.satisfied);
        assert_eq!(out.violations.len(), 1);
        let link: Vec<u64> = out.violations[0].iter().map(|id| id.raw()).collect();
        assert_eq!(link, vec![1, 2]);
    }

    #[test]
    fn multiple_violations_stay_separate_links() {
        // Middle context deviates: both hops around it violate.
        let pool = loc_pool(&[(0.0, 0.0), (9.0, 9.0), (1.0, 0.0)]);
        let reg = registry();
        let out = Evaluator::new(&reg)
            .check(&speed_constraint(1, 1.5), &pool, LogicalTime::new(10))
            .unwrap();
        assert_eq!(out.violations.len(), 2);
        let pairs: Vec<Vec<u64>> = out
            .violations
            .iter()
            .map(|l| l.iter().map(|id| id.raw()).collect())
            .collect();
        assert!(pairs.contains(&vec![0, 1]));
        assert!(pairs.contains(&vec![1, 2]));
    }

    #[test]
    fn discarded_contexts_leave_the_domain() {
        let mut pool = loc_pool(&[(0.0, 0.0), (9.0, 9.0), (1.0, 0.0)]);
        pool.set_state(ContextId::from_raw(1), ContextState::Inconsistent)
            .unwrap();
        let reg = registry();
        let out = Evaluator::new(&reg)
            .check(&speed_constraint(1, 1.5), &pool, LogicalTime::new(10))
            .unwrap();
        // Without the deviating context, remaining gap-1 pairs are fine.
        assert!(out.satisfied, "violations: {:?}", out.violations);
    }

    #[test]
    fn pinned_check_sees_only_bindings_with_the_new_context() {
        let pool = loc_pool(&[(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)]);
        let reg = registry();
        let c = speed_constraint(1, 1.5);
        let eval = Evaluator::new(&reg);
        // Pin the *first* quantifier to context 0: its only outgoing gap-1
        // hop (0,1) is fine, so no violations are visible from there.
        let out = eval
            .check_pinned(&c, &pool, LogicalTime::new(10), 0, ContextId::from_raw(0))
            .unwrap();
        assert!(out.satisfied);
        // Pin the second quantifier to context 2: the (1,2) hop violates.
        let out = eval
            .check_pinned(&c, &pool, LogicalTime::new(10), 1, ContextId::from_raw(2))
            .unwrap();
        assert_eq!(out.violations.len(), 1);
    }

    #[test]
    fn region_constraint_yields_singleton_links() {
        let pool = loc_pool(&[(0.0, 0.0), (50.0, 50.0)]);
        let reg = registry();
        let c = parse_constraint(
            "constraint feasible: forall a: location . within(a, -10.0, -10.0, 10.0, 10.0)",
        )
        .unwrap();
        let out = Evaluator::new(&reg)
            .check(&c, &pool, LogicalTime::new(10))
            .unwrap();
        assert_eq!(out.violations.len(), 1);
        assert_eq!(out.violations[0].len(), 1);
        assert!(out.violations[0].contains(&ContextId::from_raw(1)));
    }

    #[test]
    fn exists_detects_absence() {
        let pool = loc_pool(&[(0.0, 0.0)]);
        let reg = registry();
        let c =
            parse_constraint("constraint has_mary: exists a: location . subject_eq(a, \"mary\")")
                .unwrap();
        let out = Evaluator::new(&reg)
            .check(&c, &pool, LogicalTime::new(10))
            .unwrap();
        assert!(!out.satisfied);
        // Violation evidence: the whole (singleton) domain.
        assert_eq!(out.violations.len(), 1);
    }

    #[test]
    fn empty_domain_forall_is_vacuously_true() {
        let pool = ContextPool::new();
        let reg = registry();
        let c = parse_constraint("constraint v: forall a: location . false").unwrap();
        let out = Evaluator::new(&reg)
            .check(&c, &pool, LogicalTime::new(0))
            .unwrap();
        assert!(out.satisfied);
    }

    #[test]
    fn empty_domain_exists_is_false_with_empty_evidence() {
        let pool = ContextPool::new();
        let reg = registry();
        let c = parse_constraint("constraint v: exists a: location . true").unwrap();
        let out = Evaluator::new(&reg)
            .check(&c, &pool, LogicalTime::new(0))
            .unwrap();
        assert!(!out.satisfied);
        assert!(out.violations.is_empty(), "no contexts to blame");
    }

    #[test]
    fn attribute_terms_contribute_evidence() {
        let mut pool = ContextPool::new();
        pool.insert(
            Context::builder(ContextKind::new("badge"), "peter")
                .attr("room", "office")
                .stamp(LogicalTime::new(0))
                .build(),
        );
        let reg = registry();
        let c = parse_constraint("constraint in_office: forall a: badge . eq(a.room, \"lab\")")
            .unwrap();
        let out = Evaluator::new(&reg)
            .check(&c, &pool, LogicalTime::new(1))
            .unwrap();
        assert_eq!(out.violations, vec![Link::from([ContextId::from_raw(0)])]);
    }

    #[test]
    fn missing_attribute_is_an_error() {
        let mut pool = ContextPool::new();
        pool.insert(Context::builder(ContextKind::new("badge"), "p").build());
        let reg = registry();
        let c = parse_constraint("constraint x: forall a: badge . eq(a.room, \"lab\")").unwrap();
        let err = Evaluator::new(&reg)
            .check(&c, &pool, LogicalTime::new(1))
            .unwrap_err();
        assert!(matches!(err, EvalError::MissingAttr { .. }));
    }

    #[test]
    fn expired_contexts_leave_the_domain() {
        use ctxres_context::{Lifespan, Ticks};
        let mut pool = ContextPool::new();
        pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .attr("pos", Point::new(99.0, 99.0))
                .attr("seq", 0i64)
                .stamp(LogicalTime::new(0))
                .lifespan(Lifespan::with_ttl(LogicalTime::new(0), Ticks::new(2)))
                .build(),
        );
        let reg = registry();
        let c = parse_constraint(
            "constraint feasible: forall a: location . within(a, 0.0, 0.0, 10.0, 10.0)",
        )
        .unwrap();
        let eval = Evaluator::new(&reg);
        let before = eval.check(&c, &pool, LogicalTime::new(1)).unwrap();
        assert!(!before.satisfied);
        let after = eval.check(&c, &pool, LogicalTime::new(5)).unwrap();
        assert!(after.satisfied, "expired context no longer checked");
    }

    #[test]
    fn available_only_domain_skips_undecided_contexts() {
        let mut pool = loc_pool(&[(50.0, 50.0)]);
        let reg = registry();
        let c = parse_constraint(
            "constraint feasible: forall a: location . within(a, 0.0, 0.0, 10.0, 10.0)",
        )
        .unwrap();
        let avail = Evaluator::with_domain(&reg, DomainMode::AvailableOnly);
        // Context is Undecided: invisible to the application view.
        let out = avail.check(&c, &pool, LogicalTime::new(1)).unwrap();
        assert!(out.satisfied);
        pool.set_state(ContextId::from_raw(0), ContextState::Consistent)
            .unwrap();
        let out = avail.check(&c, &pool, LogicalTime::new(1)).unwrap();
        assert!(!out.satisfied);
    }

    #[test]
    fn nested_not_flips_and_keeps_links() {
        let pool = loc_pool(&[(50.0, 50.0)]);
        let reg = registry();
        let c = parse_constraint(
            "constraint out: forall a: location . not within(a, 0.0, 0.0, 10.0, 10.0)",
        )
        .unwrap();
        let out = Evaluator::new(&reg)
            .check(&c, &pool, LogicalTime::new(1))
            .unwrap();
        assert!(out.satisfied);
    }
}
