//! First-order consistency-constraint language for pervasive contexts.
//!
//! Context-aware applications state *consistency constraints* — necessary
//! properties over the contexts a middleware manages (paper §2.1, §5.3).
//! This crate reimplements the constraint facility of the Cabot middleware
//! that the ICDCS'08 drop-bad paper builds on (Xu & Cheung, ESEC/FSE'05;
//! Xu, Cheung & Chan, ICSE'06):
//!
//! * a first-order [`Formula`] AST with universal/existential quantifiers
//!   over context kinds, boolean connectives, and extensible predicates;
//! * a small **text DSL** ([`parse_constraint`]) so applications can state
//!   constraints declaratively;
//! * an **evaluator** that does not merely return a truth value but
//!   computes *links* — the sets of contexts witnessing each violation.
//!   A violated top-level constraint yields one [`Link`] per detected
//!   **context inconsistency**;
//! * an **incremental checker** ([`IncrementalChecker`]) that, when a new
//!   context arrives, re-evaluates only the affected constraints with the
//!   new context pinned into matching quantifiers (the ICSE'06 partial
//!   evaluation idea), instead of re-checking the whole pool.
//!
//! # Example
//!
//! ```
//! use ctxres_constraint::{parse_constraint, PredicateRegistry, Evaluator};
//! use ctxres_context::{Context, ContextKind, ContextPool, LogicalTime, Point};
//!
//! let constraint = parse_constraint(
//!     "constraint max_speed:
//!        forall a: location, b: location .
//!          (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)",
//! )?;
//!
//! let mut pool = ContextPool::new();
//! for (i, (x, y)) in [(0.0, 0.0), (0.5, 0.0), (9.0, 9.0)].iter().enumerate() {
//!     pool.insert(
//!         Context::builder(ContextKind::new("location"), "peter")
//!             .attr("pos", Point::new(*x, *y))
//!             .attr("seq", i as i64)
//!             .stamp(LogicalTime::new(i as u64))
//!             .build(),
//!     );
//! }
//!
//! let registry = PredicateRegistry::with_builtins();
//! let evaluator = Evaluator::new(&registry);
//! let outcome = evaluator.check(&constraint, &pool, LogicalTime::new(3))?;
//! assert!(!outcome.satisfied);
//! assert_eq!(outcome.violations.len(), 1); // the second hop is too fast
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod compile;
mod constraint;
mod error;
mod eval;
mod incremental;
mod parser;
mod predicate;
mod schema;
mod simplify;

pub use ast::{Formula, PredicateCall, Quantifier, Term};
pub use compile::{CompiledConstraint, CompiledEvaluator, EvalScratch};
pub use constraint::{Constraint, ConstraintSet};
pub use error::{EvalError, ParseError};
pub use eval::{CheckOutcome, DomainMode, Evaluator, Link, MAX_LINKS};
pub use incremental::{
    CheckerStats, Detection, IncrementalChecker, KindPlan, PlanCounts, PredMemo,
};
pub use parser::{parse_constraint, parse_constraints, parse_formula, MAX_FORMULA_DEPTH};
pub use predicate::{PredicateRegistry, Resolved};
pub use schema::{validate, AttrType, ContextSchema, KindSchema, SchemaViolation};
pub use simplify::simplify;
