//! The parser bounds how deep a formula nests: any input deeper than
//! `MAX_FORMULA_DEPTH` levels is a `ParseError` at the token that opens
//! the level past the bound, and a formula exactly at the bound parses,
//! compiles and drops.
//!
//! Every case runs on a thread with a 2 MiB stack, the `cargo test`
//! default, so a recursion the bound failed to stop would overflow it
//! and abort this binary.

use ctxres_constraint::{
    parse_constraint, parse_formula, CompiledConstraint, ParseError, MAX_FORMULA_DEPTH,
};

const STACK: usize = 2 << 20;
const MB: usize = 1 << 20;

fn on_small_stack<T: Send + 'static>(f: impl FnOnce() -> T + Send + 'static) -> T {
    std::thread::Builder::new()
        .stack_size(STACK)
        .spawn(f)
        .unwrap()
        .join()
        .unwrap()
}

/// The error parsing `input` on a small stack.
fn rejected(input: String) -> ParseError {
    on_small_stack(move || parse_formula(&input).expect_err("nests too deep"))
}

fn assert_too_deep(err: &ParseError, offset: usize) {
    let message = format!("formula nests deeper than {MAX_FORMULA_DEPTH} levels");
    assert_eq!(
        (err.message.as_str(), err.offset),
        (message.as_str(), offset)
    );
}

#[test]
fn a_megabyte_of_parentheses_is_an_error() {
    let err = rejected("(".repeat(MB));
    assert_too_deep(&err, MAX_FORMULA_DEPTH);
    assert_eq!((err.line, err.column), (1, MAX_FORMULA_DEPTH + 1));
}

#[test]
fn a_megabyte_of_nots_is_an_error() {
    let err = rejected("not ".repeat(MB / 4) + "true");
    assert_too_deep(&err, 4 * MAX_FORMULA_DEPTH);
}

#[test]
fn a_megabyte_and_chain_is_an_error() {
    // `and` parses in a loop, but the tree it builds is left-deep: the
    // link past the bound is the error.
    const LINK: &str = "p(a) and ";
    let err = rejected(LINK.repeat(MB / LINK.len()) + "p(a)");
    assert_too_deep(&err, LINK.len() * MAX_FORMULA_DEPTH + "p(a) ".len());
}

#[test]
fn a_long_implies_chain_is_an_error() {
    const LINK: &str = "p(a) implies ";
    let err = rejected(LINK.repeat(2_000) + "p(a)");
    assert_too_deep(&err, LINK.len() * MAX_FORMULA_DEPTH + "p(a) ".len());
}

#[test]
fn a_formula_at_the_bound_parses_compiles_and_drops() {
    let n = MAX_FORMULA_DEPTH;
    // Each shape nests exactly `n` levels; one level more is an error.
    let shapes: Vec<fn(usize) -> String> = vec![
        |n| "(".repeat(n) + "true" + &")".repeat(n),
        |n| "not ".repeat(n) + "true",
        |n| "p(a) and ".repeat(n) + "p(a)",
        |n| "p(a) or ".repeat(n) + "p(a)",
        |n| "p(a) implies ".repeat(n) + "p(a)",
        |n| "forall a: location . ".repeat(n) + "p(a)",
        // Forty rounds of a quantifier, a parenthesis and an `and` link
        // (three levels each), then `not`s down to the bound.
        |n| {
            let rounds = 40;
            "forall a: location . (not p(a) and ".repeat(rounds)
                + &"not ".repeat(n - 3 * rounds)
                + "p(a)"
                + &")".repeat(rounds)
        },
    ];
    on_small_stack(move || {
        for shape in shapes {
            let at_bound = shape(n);
            let c = parse_constraint(&format!("constraint deep: {at_bound}"))
                .unwrap_or_else(|e| panic!("{e} in {at_bound:.60}"));
            let compiled = CompiledConstraint::compile(&c);
            drop(compiled);
            drop(c);
            let past = shape(n + 1);
            assert!(parse_formula(&past).is_err(), "{past:.60}");
        }
    });
}
