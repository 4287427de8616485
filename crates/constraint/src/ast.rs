//! Abstract syntax of consistency-constraint formulas.

use ctxres_context::{ContextKind, ContextValue};
use std::collections::BTreeSet;
use std::fmt;

/// Quantifier flavour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Quantifier {
    /// `forall x : kind . body`
    Forall,
    /// `exists x : kind . body`
    Exists,
}

impl fmt::Display for Quantifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Quantifier::Forall => f.write_str("forall"),
            Quantifier::Exists => f.write_str("exists"),
        }
    }
}

/// A term appearing as a predicate argument.
#[derive(Debug, Clone, PartialEq)]
pub enum Term {
    /// A bound context variable, e.g. `a`.
    Var(String),
    /// An attribute of a bound context, e.g. `a.room`.
    Attr(String, String),
    /// A literal value, e.g. `1.5` or `"office"`.
    Const(ContextValue),
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => f.write_str(v),
            Term::Attr(v, a) => write!(f, "{v}.{a}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

/// An application of a named predicate to terms, e.g.
/// `velocity_le(a, b, 1.5)`.
#[derive(Debug, Clone, PartialEq)]
pub struct PredicateCall {
    /// The predicate's registered name.
    pub name: String,
    /// Argument terms.
    pub args: Vec<Term>,
}

impl fmt::Display for PredicateCall {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}(", self.name)?;
        for (i, a) in self.args.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{a}")?;
        }
        f.write_str(")")
    }
}

/// A first-order formula over contexts.
///
/// Quantifiers range over the *live* contexts of a [`ContextKind`] in a
/// pool. Each quantifier node carries a structural id (`qid`), assigned by
/// [`Formula::assign_qids`], that the incremental checker uses to pin a
/// newly-arrived context into a specific quantifier.
#[derive(Debug, Clone, PartialEq)]
pub enum Formula {
    /// A quantified sub-formula.
    Quant {
        /// Universal or existential.
        q: Quantifier,
        /// The bound variable name.
        var: String,
        /// The context kind the variable ranges over.
        kind: ContextKind,
        /// Structural id used by the incremental checker.
        qid: usize,
        /// The quantified body.
        body: Box<Formula>,
    },
    /// Conjunction.
    And(Box<Formula>, Box<Formula>),
    /// Disjunction.
    Or(Box<Formula>, Box<Formula>),
    /// Implication.
    Implies(Box<Formula>, Box<Formula>),
    /// Negation.
    Not(Box<Formula>),
    /// Predicate application (the atoms).
    Pred(PredicateCall),
    /// Constant truth.
    True,
    /// Constant falsity.
    False,
}

impl Formula {
    /// Builds a universally quantified formula (qid assigned later).
    pub fn forall(var: &str, kind: impl Into<ContextKind>, body: Formula) -> Formula {
        Formula::Quant {
            q: Quantifier::Forall,
            var: var.to_owned(),
            kind: kind.into(),
            qid: usize::MAX,
            body: Box::new(body),
        }
    }

    /// Builds an existentially quantified formula (qid assigned later).
    pub fn exists(var: &str, kind: impl Into<ContextKind>, body: Formula) -> Formula {
        Formula::Quant {
            q: Quantifier::Exists,
            var: var.to_owned(),
            kind: kind.into(),
            qid: usize::MAX,
            body: Box::new(body),
        }
    }

    /// Builds a conjunction.
    pub fn and(self, rhs: Formula) -> Formula {
        Formula::And(Box::new(self), Box::new(rhs))
    }

    /// Builds a disjunction.
    pub fn or(self, rhs: Formula) -> Formula {
        Formula::Or(Box::new(self), Box::new(rhs))
    }

    /// Builds an implication.
    pub fn implies(self, rhs: Formula) -> Formula {
        Formula::Implies(Box::new(self), Box::new(rhs))
    }

    /// Builds a negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Formula {
        Formula::Not(Box::new(self))
    }

    /// Builds a predicate atom.
    pub fn pred(name: &str, args: Vec<Term>) -> Formula {
        Formula::Pred(PredicateCall {
            name: name.to_owned(),
            args,
        })
    }

    /// Assigns structural quantifier ids in depth-first order, returning
    /// the number of quantifiers.
    pub fn assign_qids(&mut self) -> usize {
        fn walk(f: &mut Formula, next: &mut usize) {
            match f {
                Formula::Quant { qid, body, .. } => {
                    *qid = *next;
                    *next += 1;
                    walk(body, next);
                }
                Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                    walk(a, next);
                    walk(b, next);
                }
                Formula::Not(a) => walk(a, next),
                Formula::Pred(_) | Formula::True | Formula::False => {}
            }
        }
        let mut next = 0;
        walk(self, &mut next);
        next
    }

    /// The context kinds quantified over anywhere in the formula.
    pub fn kinds(&self) -> BTreeSet<ContextKind> {
        let mut out = BTreeSet::new();
        self.visit(&mut |f| {
            if let Formula::Quant { kind, .. } = f {
                out.insert(kind.clone());
            }
        });
        out
    }

    /// Quantifier descriptors `(qid, kind, quantifier)` in DFS order.
    pub fn quantifiers(&self) -> Vec<(usize, ContextKind, Quantifier)> {
        let mut out = Vec::new();
        self.visit(&mut |f| {
            if let Formula::Quant { q, kind, qid, .. } = f {
                out.push((*qid, kind.clone(), *q));
            }
        });
        out
    }

    /// Whether every quantifier is a `forall` in positive polarity.
    ///
    /// This is the fragment for which pinning a new context into one
    /// quantifier at a time is a *complete* incremental detection
    /// procedure: adding a context can only introduce violations through
    /// bindings that include it. Constraints outside the fragment are
    /// still checkable, but the incremental checker falls back to full
    /// re-evaluation for them.
    pub fn is_universal_positive(&self) -> bool {
        fn walk(f: &Formula, positive: bool) -> bool {
            match f {
                Formula::Quant { q, body, .. } => {
                    (*q == Quantifier::Forall) == positive && walk(body, positive)
                }
                Formula::And(a, b) | Formula::Or(a, b) => walk(a, positive) && walk(b, positive),
                Formula::Implies(a, b) => walk(a, !positive) && walk(b, positive),
                Formula::Not(a) => walk(a, !positive),
                Formula::Pred(_) | Formula::True | Formula::False => true,
            }
        }
        walk(self, true)
    }

    /// Visits every node in depth-first order.
    pub fn visit(&self, f: &mut impl FnMut(&Formula)) {
        f(self);
        match self {
            Formula::Quant { body, .. } => body.visit(f),
            Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
                a.visit(f);
                b.visit(f);
            }
            Formula::Not(a) => a.visit(f),
            Formula::Pred(_) | Formula::True | Formula::False => {}
        }
    }
}

impl fmt::Display for Formula {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Parenthesized because quantifier bodies parse greedily: a
            // bare `forall x: k . a implies b` would re-parse with the
            // implication inside the body.
            Formula::Quant {
                q, var, kind, body, ..
            } => write!(f, "({q} {var}: {kind} . {body})"),
            Formula::And(a, b) => write!(f, "({a} and {b})"),
            Formula::Or(a, b) => write!(f, "({a} or {b})"),
            Formula::Implies(a, b) => write!(f, "({a} implies {b})"),
            Formula::Not(a) => write!(f, "not {a}"),
            Formula::Pred(p) => write!(f, "{p}"),
            Formula::True => f.write_str("true"),
            Formula::False => f.write_str("false"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn speed_formula() -> Formula {
        Formula::forall(
            "a",
            "location",
            Formula::forall(
                "b",
                "location",
                Formula::pred(
                    "same_subject",
                    vec![Term::Var("a".into()), Term::Var("b".into())],
                )
                .implies(Formula::pred(
                    "velocity_le",
                    vec![
                        Term::Var("a".into()),
                        Term::Var("b".into()),
                        Term::Const(ContextValue::Float(1.5)),
                    ],
                )),
            ),
        )
    }

    #[test]
    fn qids_assigned_in_dfs_order() {
        let mut f = speed_formula();
        assert_eq!(f.assign_qids(), 2);
        let qs = f.quantifiers();
        assert_eq!(qs.len(), 2);
        assert_eq!(qs[0].0, 0);
        assert_eq!(qs[1].0, 1);
    }

    #[test]
    fn kinds_collects_quantified_kinds() {
        let f = speed_formula();
        let kinds = f.kinds();
        assert_eq!(kinds.len(), 1);
        assert!(kinds.contains(&ContextKind::new("location")));
    }

    #[test]
    fn universal_positive_fragment() {
        assert!(speed_formula().is_universal_positive());
        // exists in positive polarity is outside the fragment
        let f = Formula::exists("a", "location", Formula::True);
        assert!(!f.is_universal_positive());
        // but exists under a negation is fine (it behaves universally)
        let f = Formula::exists("a", "location", Formula::True).not();
        assert!(f.is_universal_positive());
        // forall in the antecedent of implies is negative polarity
        let f = Formula::forall("a", "location", Formula::True).implies(Formula::True);
        assert!(!f.is_universal_positive());
    }

    #[test]
    fn display_round_trips_structure() {
        let s = speed_formula().to_string();
        assert!(s.contains("(forall a: location"));
        assert!(s.contains("implies"));
        assert!(s.contains("velocity_le(a, b, 1.5)"));
    }

    #[test]
    fn builders_compose() {
        let f = Formula::True.and(Formula::False).or(Formula::True.not());
        assert_eq!(f.to_string(), "((true and false) or not true)");
    }
}
