//! Stand-alone consistency checker: parse a constraint file, load a
//! trace, report every inconsistency.
//!
//! ```text
//! check_dsl <constraints.ctx> <trace.jsonl>
//! ```
//!
//! The constraint file uses the `ctxres-constraint` DSL (any number of
//! `constraint name: …` declarations, `#` comments). Exit code 1 when
//! inconsistencies are found, 2 on usage/parse errors — usable in
//! scripts and CI.

use ctxres_constraint::{
    parse_constraints, CompiledConstraint, CompiledEvaluator, EvalScratch, PredicateRegistry,
};
use ctxres_context::{ContextPool, LogicalTime};
use ctxres_experiments::outln;
use ctxres_experiments::trace_io::load_trace;
use std::path::Path;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let [constraints_path, trace_path] = args.as_slice() else {
        eprintln!("usage: check_dsl <constraints.ctx> <trace.jsonl>");
        return ExitCode::from(2);
    };
    let source = match std::fs::read_to_string(constraints_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot read {constraints_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let constraints = match parse_constraints(&source) {
        Ok(cs) => cs,
        Err(e) => {
            eprintln!("error: {constraints_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let trace = match load_trace(Path::new(trace_path)) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let now = trace
        .iter()
        .map(|c| c.stamp())
        .max()
        .unwrap_or(LogicalTime::ZERO);
    let pool: ContextPool = trace.into_iter().collect();
    let registry = PredicateRegistry::with_builtins();
    let evaluator = CompiledEvaluator::new(&registry);
    let mut scratch = EvalScratch::new();
    let mut total = 0usize;
    for constraint in &constraints {
        let compiled = CompiledConstraint::compile(constraint);
        match evaluator.check(&compiled, &pool, now, &mut scratch) {
            Ok(outcome) => {
                for link in &outcome.violations {
                    total += 1;
                    let members: Vec<String> = link.iter().map(|id| id.to_string()).collect();
                    outln!("{}: {{{}}}", constraint.name(), members.join(", "));
                }
            }
            Err(e) => {
                eprintln!("error: evaluating {}: {e}", constraint.name());
                return ExitCode::from(2);
            }
        }
    }
    eprintln!(
        "{} constraints, {} contexts, {total} inconsistencies",
        constraints.len(),
        pool.len()
    );
    if total > 0 {
        ExitCode::from(1)
    } else {
        ExitCode::SUCCESS
    }
}
