//! Named constraints and constraint sets.

use crate::ast::Formula;
use ctxres_context::ContextKind;
use std::collections::BTreeSet;
use std::fmt;

/// A named consistency constraint.
///
/// Wraps a [`Formula`] whose quantifier ids have been assigned, and
/// caches the derived facts the middleware needs: the kinds the formula
/// quantifies over (relevance) and whether it sits in the
/// universal-positive fragment (incremental checkability).
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    name: String,
    formula: Formula,
    kinds: BTreeSet<ContextKind>,
    universal_positive: bool,
    quantifier_count: usize,
}

impl Constraint {
    /// Creates a constraint, assigning quantifier ids to the formula.
    pub fn new(name: &str, mut formula: Formula) -> Self {
        let quantifier_count = formula.assign_qids();
        let kinds = formula.kinds();
        let universal_positive = formula.is_universal_positive();
        Constraint {
            name: name.to_owned(),
            formula,
            kinds,
            universal_positive,
            quantifier_count,
        }
    }

    /// The constraint's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The underlying formula (qids assigned).
    pub fn formula(&self) -> &Formula {
        &self.formula
    }

    /// Context kinds the constraint quantifies over.
    pub fn kinds(&self) -> &BTreeSet<ContextKind> {
        &self.kinds
    }

    /// Whether a context of `kind` can possibly be involved in this
    /// constraint.
    pub fn is_relevant_to(&self, kind: &ContextKind) -> bool {
        self.kinds.contains(kind)
    }

    /// Whether the formula lies in the incremental-checkable fragment.
    pub fn is_universal_positive(&self) -> bool {
        self.universal_positive
    }

    /// Number of quantifiers in the formula.
    pub fn quantifier_count(&self) -> usize {
        self.quantifier_count
    }

    /// Quantifier descriptors `(qid, kind)` whose kind equals `kind`.
    pub fn quantifiers_over(&self, kind: &ContextKind) -> Vec<usize> {
        self.formula
            .quantifiers()
            .into_iter()
            .filter(|(_, k, _)| k == kind)
            .map(|(qid, _, _)| qid)
            .collect()
    }
}

impl fmt::Display for Constraint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "constraint {}: {}", self.name, self.formula)
    }
}

/// An ordered collection of constraints, as deployed in a middleware.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    items: Vec<Constraint>,
}

impl ConstraintSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        ConstraintSet::default()
    }

    /// Adds a constraint.
    pub fn push(&mut self, c: Constraint) {
        self.items.push(c);
    }

    /// Number of constraints.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the constraints in deployment order.
    pub fn iter(&self) -> std::slice::Iter<'_, Constraint> {
        self.items.iter()
    }

    /// Looks a constraint up by name.
    pub fn get(&self, name: &str) -> Option<&Constraint> {
        self.items.iter().find(|c| c.name() == name)
    }
}

impl FromIterator<Constraint> for ConstraintSet {
    fn from_iter<T: IntoIterator<Item = Constraint>>(iter: T) -> Self {
        ConstraintSet {
            items: iter.into_iter().collect(),
        }
    }
}

impl Extend<Constraint> for ConstraintSet {
    fn extend<T: IntoIterator<Item = Constraint>>(&mut self, iter: T) {
        self.items.extend(iter);
    }
}

impl<'a> IntoIterator for &'a ConstraintSet {
    type Item = &'a Constraint;
    type IntoIter = std::slice::Iter<'a, Constraint>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraint;

    #[test]
    fn constraint_caches_relevance() {
        let c = parse_constraint(
            "constraint v: forall a: location, b: location . velocity_le(a, b, 1.0)",
        )
        .unwrap();
        assert!(c.is_relevant_to(&ContextKind::new("location")));
        assert!(!c.is_relevant_to(&ContextKind::new("rfid")));
        assert_eq!(c.quantifier_count(), 2);
        assert!(c.is_universal_positive());
    }

    #[test]
    fn quantifiers_over_filters_by_kind() {
        let c =
            parse_constraint("constraint v: forall a: location . forall r: rfid . distinct(a, r)")
                .unwrap();
        assert_eq!(c.quantifiers_over(&ContextKind::new("location")), vec![0]);
        assert_eq!(c.quantifiers_over(&ContextKind::new("rfid")), vec![1]);
    }

    #[test]
    fn set_relevance_queries() {
        let mut set = ConstraintSet::new();
        set.push(parse_constraint("constraint a: forall x: location . true").unwrap());
        set.push(parse_constraint("constraint b: forall x: rfid . true").unwrap());
        assert_eq!(set.len(), 2);
        let relevant = |kind: &str| {
            let kind = ContextKind::new(kind);
            set.iter().filter(|c| c.is_relevant_to(&kind)).count()
        };
        assert_eq!(relevant("location"), 1);
        assert_eq!(relevant("rfid"), 1);
        assert_eq!(relevant("temperature"), 0);
        assert!(set.get("a").is_some());
        assert!(set.get("zzz").is_none());
    }

    #[test]
    fn display_includes_name() {
        let c = parse_constraint("constraint speedy: forall a: location . true").unwrap();
        assert!(c.to_string().starts_with("constraint speedy:"));
    }
}
