//! Deploy-time validation of constraint sets.
//!
//! Runtime evaluation reports unknown predicates or missing attributes
//! as [`EvalError`](crate::EvalError)s — after the system is live. This module moves those
//! failures to deployment time: a [`ContextSchema`] declares which
//! attributes each context kind carries (and their types), and
//! [`validate`] checks a constraint set against it plus a
//! [`PredicateRegistry`], reporting every problem at once.
//!
//! The §5.3 discussion asks "how does one design correct consistency
//! constraints?" — static validation is the mechanical part of the
//! answer: it cannot prove a constraint *right*, but it rejects the
//! whole class of constraints that could never evaluate.

use crate::ast::{Formula, Term};
use crate::constraint::Constraint;
use crate::predicate::PredicateRegistry;
use ctxres_context::{ContextKind, ContextValue};
use std::collections::BTreeMap;
use std::fmt;

/// The value types an attribute may carry (mirrors
/// [`ContextValue`]'s variants).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttrType {
    /// Boolean flags.
    Bool,
    /// Integers.
    Int,
    /// Floating-point numbers.
    Float,
    /// Text.
    Text,
    /// Planar points.
    Point,
}

impl AttrType {
    /// The type of a concrete value.
    pub fn of(value: &ContextValue) -> AttrType {
        match value {
            ContextValue::Bool(_) => AttrType::Bool,
            ContextValue::Int(_) => AttrType::Int,
            ContextValue::Float(_) => AttrType::Float,
            ContextValue::Text(_) => AttrType::Text,
            ContextValue::Point(_) => AttrType::Point,
        }
    }
}

impl fmt::Display for AttrType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AttrType::Bool => "bool",
            AttrType::Int => "int",
            AttrType::Float => "float",
            AttrType::Text => "text",
            AttrType::Point => "point",
        };
        f.write_str(s)
    }
}

/// Declares the context kinds an application produces and the attributes
/// each carries.
///
/// ```
/// use ctxres_constraint::{AttrType, ContextSchema};
///
/// let mut schema = ContextSchema::new();
/// schema
///     .kind("location")
///     .attr("pos", AttrType::Point)
///     .attr("seq", AttrType::Int);
/// assert!(schema.has_kind(&"location".into()));
/// ```
#[derive(Debug, Clone, Default)]
pub struct ContextSchema {
    kinds: BTreeMap<ContextKind, BTreeMap<String, AttrType>>,
}

/// Builder handle for one kind's attributes.
#[derive(Debug)]
pub struct KindSchema<'a> {
    attrs: &'a mut BTreeMap<String, AttrType>,
}

impl KindSchema<'_> {
    /// Declares an attribute of this kind.
    pub fn attr(&mut self, name: &str, ty: AttrType) -> &mut Self {
        self.attrs.insert(name.to_owned(), ty);
        self
    }
}

impl ContextSchema {
    /// Creates an empty schema.
    pub fn new() -> Self {
        ContextSchema::default()
    }

    /// Declares (or reopens) a context kind.
    pub fn kind(&mut self, name: &str) -> KindSchema<'_> {
        KindSchema {
            attrs: self.kinds.entry(ContextKind::new(name)).or_default(),
        }
    }

    /// Whether the schema declares `kind`.
    pub fn has_kind(&self, kind: &ContextKind) -> bool {
        self.kinds.contains_key(kind)
    }

    /// The declared type of `kind.attr`, if any.
    pub fn attr_type(&self, kind: &ContextKind, attr: &str) -> Option<AttrType> {
        self.kinds
            .get(kind)
            .and_then(|attrs| attrs.get(attr).copied())
    }
}

/// A problem found by [`validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SchemaViolation {
    /// A quantifier ranges over a kind the schema does not declare.
    UnknownKind {
        /// Offending constraint.
        constraint: String,
        /// The undeclared kind.
        kind: ContextKind,
    },
    /// A predicate name is not in the registry.
    UnknownPredicate {
        /// Offending constraint.
        constraint: String,
        /// The unknown name.
        predicate: String,
    },
    /// A term reads an attribute the bound kind does not declare.
    UnknownAttr {
        /// Offending constraint.
        constraint: String,
        /// The bound variable.
        var: String,
        /// Its kind.
        kind: ContextKind,
        /// The undeclared attribute.
        attr: String,
    },
    /// A term references a variable no enclosing quantifier binds.
    UnboundVariable {
        /// Offending constraint.
        constraint: String,
        /// The unbound name.
        var: String,
    },
}

impl fmt::Display for SchemaViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SchemaViolation::UnknownKind { constraint, kind } => {
                write!(f, "{constraint}: quantifies over undeclared kind {kind}")
            }
            SchemaViolation::UnknownPredicate {
                constraint,
                predicate,
            } => {
                write!(f, "{constraint}: unknown predicate {predicate:?}")
            }
            SchemaViolation::UnknownAttr {
                constraint,
                var,
                kind,
                attr,
            } => {
                write!(
                    f,
                    "{constraint}: {var}.{attr} but kind {kind} declares no attribute {attr:?}"
                )
            }
            SchemaViolation::UnboundVariable { constraint, var } => {
                write!(f, "{constraint}: unbound variable {var:?}")
            }
        }
    }
}

/// Validates constraints against a schema and predicate registry,
/// returning every violation found (empty = deployable).
pub fn validate(
    constraints: &[Constraint],
    schema: &ContextSchema,
    registry: &PredicateRegistry,
) -> Vec<SchemaViolation> {
    let mut out = Vec::new();
    for c in constraints {
        walk(
            c.name(),
            c.formula(),
            schema,
            registry,
            &mut Vec::new(),
            &mut out,
        );
    }
    out
}

fn walk(
    name: &str,
    f: &Formula,
    schema: &ContextSchema,
    registry: &PredicateRegistry,
    env: &mut Vec<(String, ContextKind)>,
    out: &mut Vec<SchemaViolation>,
) {
    match f {
        Formula::Quant {
            var, kind, body, ..
        } => {
            if !schema.has_kind(kind) {
                out.push(SchemaViolation::UnknownKind {
                    constraint: name.to_owned(),
                    kind: kind.clone(),
                });
            }
            env.push((var.clone(), kind.clone()));
            walk(name, body, schema, registry, env, out);
            env.pop();
        }
        Formula::And(a, b) | Formula::Or(a, b) | Formula::Implies(a, b) => {
            walk(name, a, schema, registry, env, out);
            walk(name, b, schema, registry, env, out);
        }
        Formula::Not(a) => walk(name, a, schema, registry, env, out),
        Formula::Pred(call) => {
            if !registry.contains(&call.name) {
                out.push(SchemaViolation::UnknownPredicate {
                    constraint: name.to_owned(),
                    predicate: call.name.clone(),
                });
            }
            for term in &call.args {
                match term {
                    Term::Const(_) => {}
                    Term::Var(v) => {
                        if !env.iter().any(|(n, _)| n == v) {
                            out.push(SchemaViolation::UnboundVariable {
                                constraint: name.to_owned(),
                                var: v.clone(),
                            });
                        }
                    }
                    Term::Attr(v, attr) => match env.iter().rev().find(|(n, _)| n == v) {
                        None => out.push(SchemaViolation::UnboundVariable {
                            constraint: name.to_owned(),
                            var: v.clone(),
                        }),
                        Some((_, kind)) => {
                            if schema.has_kind(kind) && schema.attr_type(kind, attr).is_none() {
                                out.push(SchemaViolation::UnknownAttr {
                                    constraint: name.to_owned(),
                                    var: v.clone(),
                                    kind: kind.clone(),
                                    attr: attr.clone(),
                                });
                            }
                        }
                    },
                }
            }
        }
        Formula::True | Formula::False => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraints;

    fn schema() -> ContextSchema {
        let mut s = ContextSchema::new();
        s.kind("location")
            .attr("pos", AttrType::Point)
            .attr("seq", AttrType::Int);
        s.kind("badge").attr("room", AttrType::Text);
        s
    }

    #[test]
    fn valid_constraints_pass() {
        let cs = parse_constraints(
            "constraint ok:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)
             constraint ok2:
               forall x: badge . eq(x.room, \"office\")",
        )
        .unwrap();
        let reg = PredicateRegistry::with_builtins();
        assert_eq!(validate(&cs, &schema(), &reg), Vec::new());
    }

    #[test]
    fn unknown_kind_reported() {
        let cs = parse_constraints("constraint c: forall a: rfid . true").unwrap();
        let reg = PredicateRegistry::with_builtins();
        let v = validate(&cs, &schema(), &reg);
        assert!(
            matches!(&v[0], SchemaViolation::UnknownKind { kind, .. } if kind.name() == "rfid")
        );
    }

    #[test]
    fn unknown_predicate_reported() {
        let cs = parse_constraints("constraint c: forall a: badge . frobnicate(a)").unwrap();
        let reg = PredicateRegistry::with_builtins();
        let v = validate(&cs, &schema(), &reg);
        assert!(v
            .iter()
            .any(|x| matches!(x, SchemaViolation::UnknownPredicate { predicate, .. } if predicate == "frobnicate")));
    }

    #[test]
    fn unknown_attr_reported_with_kind() {
        let cs = parse_constraints("constraint c: forall a: badge . eq(a.floor, 3)").unwrap();
        let reg = PredicateRegistry::with_builtins();
        let v = validate(&cs, &schema(), &reg);
        assert!(matches!(
            &v[0],
            SchemaViolation::UnknownAttr { attr, kind, .. } if attr == "floor" && kind.name() == "badge"
        ));
    }

    #[test]
    fn unbound_variable_reported() {
        let cs = parse_constraints("constraint c: forall a: badge . eq(z.room, \"x\")").unwrap();
        let reg = PredicateRegistry::with_builtins();
        let v = validate(&cs, &schema(), &reg);
        assert!(v
            .iter()
            .any(|x| matches!(x, SchemaViolation::UnboundVariable { var, .. } if var == "z")));
    }

    #[test]
    fn attrs_of_undeclared_kinds_not_double_reported() {
        // The unknown kind is reported once; its attributes cannot be
        // checked, so no cascade of UnknownAttr.
        let cs = parse_constraints("constraint c: forall a: ghost . eq(a.x, 1)").unwrap();
        let reg = PredicateRegistry::with_builtins();
        let v = validate(&cs, &schema(), &reg);
        assert_eq!(v.len(), 1);
    }

    #[test]
    fn shadowing_resolves_to_innermost_binding() {
        let mut s = schema();
        s.kind("room_sensor").attr("celsius", AttrType::Float);
        let cs = parse_constraints(
            "constraint c:
               forall a: badge . forall a: room_sensor . lt(a.celsius, 30.0)",
        )
        .unwrap();
        let reg = PredicateRegistry::with_builtins();
        assert_eq!(validate(&cs, &s, &reg), Vec::new());
    }

    #[test]
    fn violations_display_names_everything() {
        let v = SchemaViolation::UnknownAttr {
            constraint: "c".into(),
            var: "a".into(),
            kind: ContextKind::new("badge"),
            attr: "floor".into(),
        };
        let s = v.to_string();
        assert!(s.contains("a.floor") && s.contains("badge"));
    }

    /// The deploy-time sharding fact for a one-constraint source: can
    /// every violation be found inside one subject's contexts?
    fn per_subject(src: &str) -> bool {
        let cs = parse_constraints(src).unwrap();
        crate::CompiledConstraint::compile(&cs[0]).is_per_subject()
    }

    #[test]
    fn same_subject_guarded_pair_is_per_subject() {
        assert!(per_subject(
            "constraint speed:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)"
        ));
    }

    #[test]
    fn single_quantifier_is_trivially_per_subject() {
        assert!(per_subject(
            "constraint region: forall a: location . within(a, 0.0, 0.0, 9.0, 9.0)"
        ));
    }

    #[test]
    fn unguarded_pair_is_global() {
        assert!(!per_subject(
            "constraint apart:
               forall a: location, b: location . velocity_le(a, b, 100.0)"
        ));
    }

    #[test]
    fn exists_is_global() {
        assert!(!per_subject(
            "constraint anchored: exists a: location . subject_eq(a, \"anchor\")"
        ));
    }

    #[test]
    fn guard_chain_connects_three_variables() {
        assert!(per_subject(
            "constraint chain:
               forall a: location, b: location, c: location .
                 (same_subject(a, b) and same_subject(b, c)) implies velocity_le(a, c, 9.0)"
        ));
    }

    #[test]
    fn guard_under_or_guarantees_nothing() {
        // The violating binding may take the `true` branch of the or,
        // leaving the subjects unrelated.
        assert!(!per_subject(
            "constraint weak:
               forall a: location, b: location .
                 (same_subject(a, b) or seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)"
        ));
    }

    #[test]
    fn negated_guard_is_global() {
        assert!(!per_subject(
            "constraint neg:
               forall a: location, b: location .
                 not same_subject(a, b) implies velocity_le(a, b, 1.5)"
        ));
    }

    #[test]
    fn guard_in_consequent_does_not_count() {
        // A violation *falsifies* the consequent, so same_subject there
        // is exactly what does not hold.
        assert!(!per_subject(
            "constraint conseq:
               forall a: location, b: location .
                 seq_gap(a, b, 1) implies same_subject(a, b)"
        ));
    }

    #[test]
    fn attr_type_of_values() {
        assert_eq!(AttrType::of(&ContextValue::Int(1)), AttrType::Int);
        assert_eq!(
            AttrType::of(&ContextValue::Text("x".into())),
            AttrType::Text
        );
        assert_eq!(AttrType::of(&ContextValue::Bool(true)), AttrType::Bool);
        assert_eq!(AttrType::of(&ContextValue::Float(0.5)), AttrType::Float);
    }
}
