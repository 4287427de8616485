//! Property-based tests for the constraint language:
//!
//! * the printer and parser are mutual inverses on the formula AST;
//! * incremental (pinned) detection accumulates exactly the violations a
//!   full check finds, on randomized context streams;
//! * a pinned check that looks up its seq partner equals the
//!   tree-walking oracle's full scan, on pools with broken seqs;
//! * narrowed pinned checks, pinned truth walks and `holds` equal the
//!   oracle under registries that forward, lack or re-register the
//!   builtins narrowing trusts;
//! * on random formulas with bound and unbound variables, wrong
//!   arities, type errors and an unknown predicate, the compiled walks
//!   raise or hold exactly where the oracle does, under the builtins
//!   and under each of those registries, and the incremental checker's
//!   one-walk pinned checks name the oracle's violations;
//! * evaluation is deterministic.

use ctxres_constraint::{
    parse_constraints, parse_formula, simplify, CompiledConstraint, CompiledEvaluator, Constraint,
    DomainMode, EvalError, EvalScratch, Evaluator, Formula, IncrementalChecker, Link,
    PredicateRegistry, Quantifier, Resolved, Term,
};
use ctxres_context::{
    Context, ContextId, ContextKind, ContextPool, ContextState, ContextValue, Lifespan,
    LogicalTime, Point, Ticks,
};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn ident() -> impl Strategy<Value = String> {
    "[a-z][a-z0-9_]{0,6}".prop_filter("not a keyword", |s| {
        !matches!(
            s.as_str(),
            "forall"
                | "exists"
                | "and"
                | "or"
                | "implies"
                | "not"
                | "true"
                | "false"
                | "constraint"
        )
    })
}

fn term() -> impl Strategy<Value = Term> {
    prop_oneof![
        ident().prop_map(Term::Var),
        (ident(), ident()).prop_map(|(v, a)| Term::Attr(v, a)),
        any::<i32>().prop_map(|n| Term::Const(ContextValue::Int(i64::from(n)))),
        (-1000i32..1000, 1u32..1000)
            .prop_map(|(a, b)| Term::Const(ContextValue::Float(f64::from(a) + 1.0 / f64::from(b)))),
        "[a-z ]{0,8}".prop_map(|s| Term::Const(ContextValue::Text(s))),
        any::<bool>().prop_map(|b| Term::Const(ContextValue::Bool(b))),
    ]
}

fn formula() -> impl Strategy<Value = Formula> {
    let leaf = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        (ident(), proptest::collection::vec(term(), 0..4))
            .prop_map(|(name, args)| Formula::pred(&name, args)),
    ];
    leaf.prop_recursive(4, 24, 3, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            inner.clone().prop_map(Formula::not),
            (ident(), ident(), inner.clone()).prop_map(|(v, k, body)| Formula::forall(
                &v,
                k.as_str(),
                body
            )),
            (ident(), ident(), inner).prop_map(|(v, k, body)| Formula::exists(
                &v,
                k.as_str(),
                body
            )),
        ]
    })
}

proptest! {
    /// print ∘ parse = id on formulas.
    #[test]
    fn parser_inverts_printer(f in formula()) {
        let printed = f.to_string();
        let reparsed = parse_formula(&printed)
            .unwrap_or_else(|e| panic!("failed to reparse {printed:?}: {e}"));
        prop_assert_eq!(&reparsed, &f, "printed: {}", printed);
        // And printing again is a fixpoint.
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    /// Constraint analysis (qids, kinds, polarity) never panics and is
    /// self-consistent.
    #[test]
    fn constraint_analysis_is_consistent(f in formula()) {
        let c = Constraint::new("p", f);
        prop_assert_eq!(c.quantifier_count(), c.formula().quantifiers().len());
        for kind in c.kinds() {
            prop_assert!(c.is_relevant_to(kind));
            prop_assert!(!c.quantifiers_over(kind).is_empty());
        }
    }
}

/// Abstract interpreter for the simplifier equivalence check: predicate
/// atoms are propositions keyed by name (arguments ignored, which is
/// exactly the abstraction level the simplifier works at), and
/// quantifier domains are uniformly empty or uniformly singleton.
fn abstract_eval(f: &Formula, truth: &dyn Fn(&str) -> bool, empty_domains: bool) -> bool {
    match f {
        Formula::True => true,
        Formula::False => false,
        Formula::Not(a) => !abstract_eval(a, truth, empty_domains),
        Formula::And(a, b) => {
            abstract_eval(a, truth, empty_domains) && abstract_eval(b, truth, empty_domains)
        }
        Formula::Or(a, b) => {
            abstract_eval(a, truth, empty_domains) || abstract_eval(b, truth, empty_domains)
        }
        Formula::Implies(a, b) => {
            !abstract_eval(a, truth, empty_domains) || abstract_eval(b, truth, empty_domains)
        }
        Formula::Quant { q, body, .. } => match (q, empty_domains) {
            (Quantifier::Forall, true) => true,
            (Quantifier::Exists, true) => false,
            (_, false) => abstract_eval(body, truth, empty_domains),
        },
        Formula::Pred(call) => truth(&call.name),
    }
}

proptest! {
    /// Simplification preserves truth under every propositional
    /// assignment and both domain regimes, and never grows the formula.
    #[test]
    fn simplify_preserves_truth(f in formula(), seed in any::<u64>()) {
        let simplified = simplify(f.clone());
        let truth = move |name: &str| {
            // A deterministic pseudo-random assignment derived from the
            // predicate name and the seed.
            let mut h = seed;
            for b in name.bytes() {
                h = h.wrapping_mul(0x100000001b3).wrapping_add(u64::from(b));
            }
            h.count_ones() % 2 == 0
        };
        for empty in [false, true] {
            prop_assert_eq!(
                abstract_eval(&f, &truth, empty),
                abstract_eval(&simplified, &truth, empty),
                "formula {} vs simplified {} (empty domains: {})",
                f,
                simplified,
                empty
            );
        }
        prop_assert!(simplified.to_string().len() <= f.to_string().len() + 2);
        // Simplification is idempotent.
        prop_assert_eq!(simplify(simplified.clone()), simplified);
    }
}

/// A randomized walk with teleport outliers; returns the pool.
fn walk_pool(positions: &[(i8, bool)]) -> ContextPool {
    let mut pool = ContextPool::new();
    let mut x = 0.0;
    for (i, (step, outlier)) in positions.iter().enumerate() {
        x += f64::from(*step) / 128.0; // |step| < 1: always legal
        let pos = if *outlier {
            Point::new(x + 50.0, 50.0)
        } else {
            Point::new(x, 0.0)
        };
        pool.insert(
            Context::builder(ContextKind::new("location"), "p")
                .attr("pos", pos)
                .attr("seq", i as i64)
                .stamp(LogicalTime::new(i as u64))
                .build(),
        );
    }
    pool
}

const SPEED: &str = "constraint gap1:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)
 constraint gap2:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 2)) implies velocity_le(a, b, 1.5)";

proptest! {
    /// The lexer/parser never panic, whatever bytes arrive.
    #[test]
    fn parser_never_panics(input in "\\PC{0,120}") {
        let _ = parse_formula(&input);
        let _ = parse_constraints(&input);
    }

    /// Incremental detection over a stream accumulates exactly the full
    /// check's violations.
    #[test]
    fn incremental_equals_full(
        positions in proptest::collection::vec((any::<i8>(), proptest::bool::weighted(0.2)), 1..40)
    ) {
        let registry = PredicateRegistry::with_builtins();
        let constraints = parse_constraints(SPEED).unwrap();
        let mut checker = IncrementalChecker::new(constraints.clone().into_iter().collect());

        // Stream the contexts through the incremental checker.
        let mut pool = ContextPool::new();
        let mut incremental: BTreeSet<(String, Link)> = BTreeSet::new();
        let full_pool = walk_pool(&positions);
        for (id, ctx) in full_pool.iter() {
            let new_id = pool.insert(ctx.clone());
            prop_assert_eq!(new_id, id);
            for d in checker
                .on_added(&registry, &pool, ctx.stamp(), new_id)
                .unwrap()
            {
                incremental.insert((d.constraint.to_string(), d.link));
            }
        }

        // Full evaluation over the final pool.
        let evaluator = Evaluator::new(&registry);
        let now = LogicalTime::new(positions.len() as u64);
        let mut full: BTreeSet<(String, Link)> = BTreeSet::new();
        for c in &constraints {
            for link in evaluator.check(c, &pool, now).unwrap().violations {
                full.insert((c.name().to_owned(), link));
            }
        }
        prop_assert_eq!(incremental, full);
    }

    /// Checking is deterministic.
    #[test]
    fn checking_is_deterministic(
        positions in proptest::collection::vec((any::<i8>(), proptest::bool::weighted(0.3)), 1..25)
    ) {
        let registry = PredicateRegistry::with_builtins();
        let constraints = parse_constraints(SPEED).unwrap();
        let pool = walk_pool(&positions);
        let evaluator = Evaluator::new(&registry);
        let now = LogicalTime::new(positions.len() as u64);
        for c in &constraints {
            let a = evaluator.check(c, &pool, now).unwrap();
            let b = evaluator.check(c, &pool, now).unwrap();
            prop_assert_eq!(a, b);
        }
    }

    /// Every violation link names only contexts that exist in the pool,
    /// and outliers are the only walks that violate.
    #[test]
    fn violations_are_well_formed(
        positions in proptest::collection::vec((any::<i8>(), proptest::bool::weighted(0.25)), 2..30)
    ) {
        let registry = PredicateRegistry::with_builtins();
        let constraints = parse_constraints(SPEED).unwrap();
        let pool = walk_pool(&positions);
        let evaluator = Evaluator::new(&registry);
        let now = LogicalTime::new(positions.len() as u64);
        let any_outlier = positions.iter().any(|(_, o)| *o);
        let mut violated = false;
        for c in &constraints {
            let outcome = evaluator.check(c, &pool, now).unwrap();
            violated |= !outcome.satisfied;
            for link in &outcome.violations {
                prop_assert!(!link.is_empty());
                for id in link {
                    prop_assert!(pool.contains(*id));
                }
            }
        }
        if !any_outlier {
            prop_assert!(!violated, "clean walk must satisfy the velocity constraints");
        }
    }
}

/// One generated sighting for the seq-partner property: its subject,
/// whether it arrives stamped behind its arrival index, its seq, its
/// position (none: the `pos` attribute is missing), its lifespan and
/// its life-cycle state.
#[derive(Debug, Clone)]
struct Sighting {
    subject: usize,
    late: bool,
    seq: SeqKind,
    x: Option<i8>,
    ttl: Option<u8>,
    state: u8,
}

/// How a sighting's seq relates to its subject's next stream position.
#[derive(Debug, Clone)]
enum SeqKind {
    Next,
    /// The previous position again.
    Duplicate,
    /// Three positions back.
    Behind,
    Missing,
    /// The next position as a float.
    Float,
    /// The next position plus 2^52.
    Huge,
}

fn sighting() -> impl Strategy<Value = Sighting> {
    (
        (0usize..2, proptest::bool::weighted(0.15)),
        (0u8..14).prop_map(|pick| match pick {
            0 => SeqKind::Duplicate,
            1 => SeqKind::Behind,
            2 => SeqKind::Missing,
            3 => SeqKind::Float,
            4 => SeqKind::Huge,
            _ => SeqKind::Next,
        }),
        (proptest::bool::weighted(0.05), any::<i8>())
            .prop_map(|(missing, x)| (!missing).then_some(x)),
        proptest::option::of(2u8..12),
        0u8..5,
    )
        .prop_map(|((subject, late), seq, x, ttl, state)| Sighting {
            subject,
            late,
            seq,
            x,
            ttl,
            state,
        })
}

fn sighting_pool(sightings: &[Sighting]) -> ContextPool {
    let mut pool = ContextPool::new();
    let mut next = [0i64; 2];
    for (i, s) in sightings.iter().enumerate() {
        let n = next[s.subject];
        let stamp = LogicalTime::new(if s.late {
            (i as u64).saturating_sub(3)
        } else {
            i as u64
        });
        let mut b =
            Context::builder(ContextKind::new("location"), ["p", "q"][s.subject]).stamp(stamp);
        b = match s.seq {
            SeqKind::Next => b.attr("seq", n),
            SeqKind::Duplicate => b.attr("seq", n - 1),
            SeqKind::Behind => b.attr("seq", n - 3),
            SeqKind::Missing => b,
            SeqKind::Float => b.attr("seq", n as f64),
            SeqKind::Huge => b.attr("seq", (1i64 << 52) + n),
        };
        if matches!(s.seq, SeqKind::Next | SeqKind::Float) {
            next[s.subject] += 1;
        }
        if let Some(x) = s.x {
            b = b.attr("pos", Point::new(f64::from(x) / 16.0, 0.0));
        }
        if let Some(ttl) = s.ttl {
            b = b.lifespan(Lifespan::with_ttl(stamp, Ticks::new(u64::from(ttl))));
        }
        let id = pool.insert(b.build());
        match s.state {
            0 => pool.set_state(id, ContextState::Consistent).unwrap(),
            1 => pool.discard(id).unwrap(),
            _ => {}
        }
    }
    pool
}

/// Whether the pool holds `subject`'s sightings with exact seqs that
/// rise strictly in `(stamp, id)` order — the bucket order a seq lookup
/// needs.
fn seqs_rise(pool: &ContextPool, subject: &str) -> bool {
    let mut bucket: Vec<(LogicalTime, ContextId, Option<i64>)> = pool
        .iter()
        .filter(|(_, c)| c.subject() == subject)
        .map(|(id, c)| (c.stamp(), id, c.exact_seq()))
        .collect();
    bucket.sort();
    bucket.iter().all(|(_, _, seq)| seq.is_some()) && bucket.windows(2).all(|w| w[0].2 < w[1].2)
}

const PAIRS: &str = "constraint gap1:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)
 constraint gap2:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 2)) implies velocity_le(a, b, 1.5)
 constraint gap3:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 3)) implies velocity_le(a, b, 1.5)
 constraint back1:
    forall a: location, b: location .
      (same_subject(b, a) and seq_gap(b, a, 1)) implies velocity_le(a, b, 1.5)
 constraint near:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap_le(a, b, 2) and within(a, -4.0, -4.0, 4.0, 4.0))
        implies velocity_le(a, b, 1.5)";

proptest! {
    /// A pinned check that looks up its seq partner equals the oracle's
    /// full scan — links and `Ok`/`Err` alike — for both pin positions,
    /// both domain modes and every pin, on pools with duplicate,
    /// missing, float, out-of-order and 2^52 seqs, missing positions,
    /// expired and discarded sightings. The truth walk agrees with it
    /// (it may stop at a violation before the evidence walk's error),
    /// and it scans — counting a seq fallback — exactly when the pin's
    /// subject bucket does not rise.
    #[test]
    fn seq_partner_lookup_equals_the_full_scan(
        sightings in proptest::collection::vec(sighting(), 1..24)
    ) {
        let registry = PredicateRegistry::with_builtins();
        let pool = sighting_pool(&sightings);
        let now = LogicalTime::new(sightings.len() as u64);
        let mut scratch = EvalScratch::new();
        for c in parse_constraints(PAIRS).unwrap() {
            let cc = CompiledConstraint::compile(&c);
            prop_assert!(cc.has_seq_guard(), "{}", c.name());
            for mode in [DomainMode::AllLive, DomainMode::AvailableOnly] {
                let oracle = Evaluator::with_domain(&registry, mode);
                let compiled = CompiledEvaluator::with_domain(&registry, mode);
                for (id, ctx) in pool.iter() {
                    for qid in 0..2 {
                        let want = oracle.check_pinned(&c, &pool, now, qid, id);
                        let got = compiled.check_pinned(&cc, &pool, now, qid, id, &mut scratch);
                        prop_assert_eq!(&got, &want, "{} pinned {}@{}", c.name(), qid, id);

                        let fallbacks = scratch.seq_fallbacks();
                        let truth = compiled
                            .satisfied_pinned_batch(&cc, &pool, now, qid, id, None, &mut scratch);
                        match (&truth, &want) {
                            (Ok(t), Ok(o)) => prop_assert_eq!(*t, o.satisfied),
                            (Err(e), Err(o)) => prop_assert_eq!(e, o),
                            (Ok(false), Err(_)) => {}
                            _ => prop_assert!(false, "truth walk {:?} vs oracle {:?}", truth, want),
                        }
                        prop_assert_eq!(
                            scratch.seq_fallbacks() - fallbacks,
                            u64::from(!seqs_rise(&pool, ctx.subject())),
                            "{} pinned {}@{}", c.name(), qid, id
                        );
                    }
                }
            }
        }
    }
}

/// The builtins narrowing trusts by name, at their builtin arities.
const GUARDS: [(&str, usize); 4] = [
    ("same_subject", 2),
    ("subject_eq", 2),
    ("seq_gap", 3),
    ("seq_gap_le", 3),
];

/// A registry the compiled walks may meet.
#[derive(Debug, Clone, Copy)]
enum Registry {
    Builtins,
    /// A counting forwarder to the builtin under every name a formula
    /// calls, and nothing else.
    Forwarders,
    /// The forwarders without one of [`GUARDS`].
    Missing(usize),
    /// The builtins with one of [`GUARDS`] re-registered one argument
    /// wider (or narrower).
    Misregistered(usize, bool),
}

fn registry_variant() -> impl Strategy<Value = Registry> {
    prop_oneof![
        Just(Registry::Builtins),
        Just(Registry::Forwarders),
        (0..GUARDS.len()).prop_map(Registry::Missing),
        (0..GUARDS.len(), any::<bool>()).prop_map(|(i, wider)| Registry::Misregistered(i, wider)),
    ]
}

impl Registry {
    /// Builds the registry once the formulas are compiled, registering
    /// `late` — a predicate no registry knew when they were compiled —
    /// as a forwarder to `velocity_le`.
    fn build(self, formulas: &[Constraint], late: &str) -> PredicateRegistry {
        let builtins = Arc::new(PredicateRegistry::with_builtins());
        let forwarding = |skip: Option<&str>| {
            let mut reg = PredicateRegistry::new();
            let mut calls = BTreeSet::new();
            for c in formulas {
                c.formula().visit(&mut |f| {
                    if let Formula::Pred(call) = f {
                        calls.insert((call.name.clone(), call.args.len()));
                    }
                });
            }
            for (name, arity) in calls {
                if name == late || skip == Some(name.as_str()) {
                    continue;
                }
                let (builtins, forwarded) = (Arc::clone(&builtins), name.clone());
                reg.register(&name, arity, move |args| builtins.eval(&forwarded, args));
            }
            reg
        };
        let mut reg = match self {
            Registry::Builtins => PredicateRegistry::with_builtins(),
            Registry::Forwarders => forwarding(None),
            Registry::Missing(i) => forwarding(Some(GUARDS[i].0)),
            Registry::Misregistered(i, wider) => {
                let (name, arity) = GUARDS[i];
                let mut reg = PredicateRegistry::with_builtins();
                let arity = if wider { arity + 1 } else { arity - 1 };
                reg.register(name, arity, |_| Ok(true));
                reg
            }
        };
        let builtins = Arc::clone(&builtins);
        reg.register(late, 3, move |args| builtins.eval("velocity_le", args));
        reg
    }
}

/// A predicate name no earlier case has compiled or registered.
fn fresh_predicate_name() -> String {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    format!("late_{}", NEXT.fetch_add(1, Ordering::Relaxed))
}

/// Single-quantifier situations with a literal-subject guard, which
/// `holds` scans one subject's bucket for; the last calls `late`.
fn guarded_situations(late: &str) -> String {
    format!(
        "constraint p_home: exists a: location .
           subject_eq(a, \"p\") and within(a, -4.0, -4.0, 4.0, 4.0)
         constraint nobody: exists a: location . subject_eq(a, \"nobody\") and true
         constraint q_home: forall a: location .
           subject_eq(a, \"q\") implies within(a, -4.0, -4.0, 4.0, 4.0)
         constraint p_still: forall a: location .
           (subject_eq(a, \"p\") and {late}(a, a, 0.0)) implies has_attr(a, \"pos\")"
    )
}

proptest! {
    /// Narrowing equals the tree-walking oracle whatever the registry:
    /// the builtins, counting forwarders under the builtin names, a
    /// registry missing a guard predicate, one that re-registers a
    /// guard at another arity, and a predicate registered only after
    /// the formulas were compiled. Pinned checks equal the oracle's —
    /// links and `Ok`/`Err` — for both pins, both domain modes and
    /// every pin. The pinned truth walk `on_added` runs first, which
    /// answers the guard leaves its narrowing proved without a call,
    /// agrees with it as in `seq_partner_lookup_equals_the_full_scan`.
    /// `holds` equals the oracle's `satisfied`, except that its truth
    /// walk may stop at a deciding binding before the oracle's error
    /// (`Ok(true)` for `exists`, `Ok(false)` for `forall`).
    #[test]
    fn narrowing_equals_the_oracle_under_every_registry(
        sightings in proptest::collection::vec(sighting(), 1..24),
        variant in registry_variant(),
    ) {
        let late = fresh_predicate_name();
        let pairs = parse_constraints(&format!(
            "{PAIRS}
             constraint custom:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 1)) implies {late}(a, b, 1.5)"
        ))
        .unwrap();
        let situations = parse_constraints(&guarded_situations(&late)).unwrap();
        let compile = |cs: &[Constraint]| -> Vec<CompiledConstraint> {
            cs.iter().map(CompiledConstraint::compile).collect()
        };
        let (compiled_pairs, compiled_situations) = (compile(&pairs), compile(&situations));
        let all: Vec<Constraint> = pairs.iter().chain(&situations).cloned().collect();
        let registry = variant.build(&all, &late);

        let pool = sighting_pool(&sightings);
        let now = LogicalTime::new(sightings.len() as u64);
        let mut scratch = EvalScratch::new();
        for mode in [DomainMode::AllLive, DomainMode::AvailableOnly] {
            let oracle = Evaluator::with_domain(&registry, mode);
            let compiled = CompiledEvaluator::with_domain(&registry, mode);
            for (c, cc) in pairs.iter().zip(&compiled_pairs) {
                for (id, _) in pool.iter() {
                    for qid in 0..2 {
                        let want = oracle.check_pinned(c, &pool, now, qid, id);
                        prop_assert_eq!(
                            compiled.check_pinned(cc, &pool, now, qid, id, &mut scratch),
                            want.clone(),
                            "{} pinned {}@{} under {:?}", c.name(), qid, id, mode
                        );
                        let truth = compiled
                            .satisfied_pinned_batch(cc, &pool, now, qid, id, None, &mut scratch);
                        match (&truth, &want) {
                            (Ok(t), Ok(o)) => prop_assert_eq!(*t, o.satisfied),
                            (Err(e), Err(o)) => prop_assert_eq!(e, o),
                            (Ok(false), Err(_)) => {}
                            _ => prop_assert!(
                                false,
                                "{} truth walk {:?} vs oracle {:?} pinned {}@{} under {:?}",
                                c.name(), truth, want, qid, id, mode
                            ),
                        }
                    }
                }
            }
            for (s, cs) in situations.iter().zip(&compiled_situations) {
                let deciding = s.formula().quantifiers()[0].2 == Quantifier::Exists;
                let want = oracle.check(s, &pool, now).map(|o| o.satisfied);
                let got = compiled.holds(cs, &pool, now, &mut scratch);
                match (&got, &want) {
                    (Ok(truth), Err(_)) if *truth == deciding => {}
                    _ => prop_assert_eq!(&got, &want, "{} under {:?}", s.name(), mode),
                }
            }
        }
    }
}

/// The variables random formulas quantify over — and reference where no
/// quantifier binds them.
const VARS: [&str; 3] = ["a", "b", "c"];

/// The kinds random formulas quantify over.
const KINDS: [&str; 2] = ["location", "badge"];

/// The predicates random formulas call, with one to three arguments
/// whatever their arity: builtins and one name no registry defines.
const CALLED: [&str; 6] = [
    "same_subject",
    "subject_eq",
    "before",
    "seq_gap",
    "le",
    "ghost",
];

fn random_term() -> impl Strategy<Value = Term> {
    let var = || (0..VARS.len()).prop_map(|v| Term::Var(VARS[v].to_owned()));
    prop_oneof![
        var(),
        var(),
        var(),
        (0..VARS.len()).prop_map(|v| Term::Attr(VARS[v].to_owned(), "seq".to_owned())),
        (0i64..3).prop_map(|n| Term::Const(ContextValue::Int(n))),
        (0..2usize).prop_map(|s| Term::Const(ContextValue::Text(["p", "q"][s].to_owned()))),
    ]
}

fn random_call() -> impl Strategy<Value = Formula> {
    (
        0..CALLED.len(),
        proptest::collection::vec(random_term(), 1..4),
    )
        .prop_map(|(p, args)| Formula::pred(CALLED[p], args))
}

/// `exists` or `forall` over variable `VARS[v]` of kind `KINDS[k]`.
fn quantify(exists: bool, v: usize, k: usize, body: Formula) -> Formula {
    if exists {
        Formula::exists(VARS[v], KINDS[k], body)
    } else {
        Formula::forall(VARS[v], KINDS[k], body)
    }
}

/// A formula under zero to three quantifiers over [`VARS`] and
/// [`KINDS`]; a subject-guarded `forall` chain; a chain whose leading
/// `same_subject` leaves tie every variable, followed by a seq leaf; or
/// a quantifier led by a literal `subject_eq` guard. Its calls may read
/// variables no quantifier binds. The last two shapes carry every leaf
/// a truth walk answers without a call.
fn random_formula() -> impl Strategy<Value = Formula> {
    let quant = |inner: BoxedStrategy<Formula>, exists: bool| {
        (0..VARS.len(), 0..KINDS.len(), inner)
            .prop_map(move |(v, k, body)| quantify(exists, v, k, body))
    };
    let body = prop_oneof![
        Just(Formula::True),
        Just(Formula::False),
        random_call(),
        random_call(),
        random_call()
    ]
    .prop_recursive(3, 16, 2, move |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.and(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.or(b)),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| a.implies(b)),
            inner.clone().prop_map(Formula::not),
            quant(inner.clone(), false),
            quant(inner, true),
        ]
    });
    let prefix = proptest::collection::vec((0..VARS.len(), 0..KINDS.len(), any::<bool>()), 0..4);
    let free = (prefix, body.clone()).prop_map(|(prefix, body)| {
        (prefix.into_iter().rev()).fold(body, |body, (v, k, exists)| quantify(exists, v, k, body))
    });
    // The per-subject shape pinned checks narrow: a `forall` chain over
    // `G implies C`, where `G`'s `and` spine mixes `same_subject` leaves
    // with other calls in any order.
    let same_subject = (0..VARS.len(), 0..VARS.len()).prop_map(|(u, v)| {
        let var = |i: usize| Term::Var(VARS[i].to_owned());
        Formula::pred("same_subject", vec![var(u), var(v)])
    });
    let chain = proptest::collection::vec((0..VARS.len(), 0..KINDS.len()), 2..4);
    let spine = proptest::collection::vec(
        prop_oneof![same_subject.clone(), same_subject, random_call()],
        1..4,
    );
    let guarded = (chain, spine, body.clone()).prop_map(|(chain, spine, consequent)| {
        let guard = spine.into_iter().reduce(Formula::and).unwrap();
        (chain.into_iter().rev()).fold(guard.implies(consequent), |body, (v, k)| {
            quantify(false, v, k, body)
        })
    });
    // The seq-guarded shape: a chain over distinct variables, the
    // `same_subject` leaves tying them, then `seq_gap(u, v, k)` or
    // `seq_gap_le(u, v, k)` over two of them (the same one, or a gap
    // `seq_gap_le` cannot narrow by, now and then), then more calls.
    let seq_guarded = (
        proptest::collection::vec(0..KINDS.len(), 2..=VARS.len()),
        (any::<bool>(), 0..VARS.len(), 0..VARS.len(), 0i64..3),
        proptest::collection::vec(random_call(), 0..2),
        body.clone(),
    )
        .prop_map(|(kinds, (le, u, v, k), rest, consequent)| {
            let n = kinds.len();
            let var = |i: usize| Term::Var(VARS[i % n].to_owned());
            let seq = Formula::pred(
                if le { "seq_gap_le" } else { "seq_gap" },
                vec![var(u), var(v), Term::Const(ContextValue::Int(k))],
            );
            let guard = (1..n)
                .map(|i| Formula::pred("same_subject", vec![var(i - 1), var(i)]))
                .chain([seq])
                .chain(rest)
                .reduce(Formula::and)
                .unwrap();
            (0..n).rev().fold(guard.implies(consequent), |body, i| {
                quantify(false, i, kinds[i], body)
            })
        });
    // The literal-subject shape `holds` narrows, under up to two more
    // quantifiers: `exists x . subject_eq(x, "lit") and …` or
    // `forall x . (subject_eq(x, "lit") and …) implies …`.
    let literal = (
        proptest::collection::vec((0..VARS.len(), 0..KINDS.len(), any::<bool>()), 0..3),
        (0..VARS.len(), 0..KINDS.len(), any::<bool>(), 0..2usize),
        body.clone(),
        body,
    )
        .prop_map(|(prefix, (v, k, exists, s), rest, consequent)| {
            let guard = Formula::pred(
                "subject_eq",
                vec![
                    Term::Var(VARS[v].to_owned()),
                    Term::Const(ContextValue::Text(["p", "q"][s].to_owned())),
                ],
            );
            let inner = if exists {
                guard.and(rest)
            } else {
                guard.and(rest).implies(consequent)
            };
            (prefix.into_iter().rev()).fold(quantify(exists, v, k, inner), |body, (v, k, e)| {
                quantify(e, v, k, body)
            })
        });
    prop_oneof![free.clone(), free, guarded, seq_guarded, literal]
}

/// One context of a mixed pool: kind, subject, life-cycle state, and
/// whether it expires before the check.
fn mixed_context() -> impl Strategy<Value = (usize, usize, u8, bool)> {
    (
        0..KINDS.len(),
        0..2usize,
        0u8..3,
        proptest::bool::weighted(0.15),
    )
}

/// Every context carries an exact `seq` (its subject's stream position
/// in its kind), so the builtins raise only on the call itself: an
/// unbound variable, an unknown name, a wrong arity or a wrong type.
fn mixed_pool(contexts: &[(usize, usize, u8, bool)]) -> ContextPool {
    let mut pool = ContextPool::new();
    let mut next = [[0i64; 2]; 2];
    for (i, &(kind, subject, state, expired)) in contexts.iter().enumerate() {
        let stamp = LogicalTime::new(i as u64);
        let mut b = Context::builder(ContextKind::new(KINDS[kind]), ["p", "q"][subject])
            .attr("seq", next[kind][subject])
            .stamp(stamp);
        next[kind][subject] += 1;
        if expired {
            b = b.lifespan(Lifespan::with_ttl(stamp, Ticks::new(1)));
        }
        let id = pool.insert(b.build());
        match state {
            0 => pool.set_state(id, ContextState::Consistent).unwrap(),
            1 => pool.discard(id).unwrap(),
            _ => {}
        }
    }
    pool
}

/// Whether `f` is a `forall` chain binding every quantifier, over a
/// quantifier-free body: the programs whose pinned checks the
/// incremental checker's violation walk names itself.
fn is_flat(f: &Formula) -> bool {
    match f {
        Formula::Quant {
            q: Quantifier::Forall,
            body,
            ..
        } => is_flat(body),
        body => body.quantifiers().is_empty(),
    }
}

/// The truth walk `holds` performs, over the AST: the oracle's order
/// and errors, but each quantifier stops at its first deciding binding.
/// With a `pin` (quantifier id, context), that quantifier binds only
/// the pinned context, as the oracle's `check_pinned` does: the truth
/// walk a pinned check runs, without narrowing or skipped leaves.
fn truth_walk(
    f: &Formula,
    registry: &PredicateRegistry,
    pool: &ContextPool,
    now: LogicalTime,
    mode: DomainMode,
    pin: Option<(usize, ContextId)>,
    env: &mut Vec<(String, ContextId)>,
) -> Result<bool, EvalError> {
    let walk = |f: &Formula, env: &mut Vec<(String, ContextId)>| {
        truth_walk(f, registry, pool, now, mode, pin, env)
    };
    match f {
        Formula::True => Ok(true),
        Formula::False => Ok(false),
        Formula::Not(a) => Ok(!walk(a, env)?),
        Formula::And(a, b) => Ok(walk(a, env)? && walk(b, env)?),
        Formula::Or(a, b) => Ok(walk(a, env)? || walk(b, env)?),
        Formula::Implies(a, b) => Ok(!walk(a, env)? || walk(b, env)?),
        Formula::Pred(call) => {
            let mut args = Vec::new();
            for term in &call.args {
                let bound = |var: &str| {
                    let id = env.iter().rev().find(|(v, _)| v == var).map(|(_, id)| *id);
                    id.ok_or_else(|| EvalError::UnboundVariable(var.to_owned()))
                };
                args.push(match term {
                    Term::Const(v) => Resolved::ValueRef(v),
                    Term::Var(var) => {
                        let id = bound(var)?;
                        Resolved::Ctx(id, pool.get(id).unwrap())
                    }
                    Term::Attr(var, attr) => {
                        Resolved::ValueRef(pool.get(bound(var)?).unwrap().attr(attr).unwrap())
                    }
                });
            }
            registry.eval(&call.name, &args)
        }
        Formula::Quant {
            q,
            var,
            kind,
            qid,
            body,
        } => {
            let deciding = *q == Quantifier::Exists;
            let domain: Vec<ContextId> = match pin {
                Some((pinned, ctx)) if pinned == *qid => vec![ctx],
                _ => pool
                    .of_kind_live_at(kind, now)
                    .filter(|(_, c)| mode == DomainMode::AllLive || c.state().is_available())
                    .map(|(id, _)| id)
                    .collect(),
            };
            for id in domain {
                env.push((var.clone(), id));
                let truth = walk(body, env);
                env.pop();
                if truth? == deciding {
                    return Ok(deciding);
                }
            }
            Ok(!deciding)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4_000))]

    /// Every constraint compiles, and the compiled walks raise exactly
    /// where the tree-walking oracle does: on random formulas over two
    /// kinds and three variables — bound, shadowed or unbound — calling
    /// builtins at one to three arguments and an unknown predicate,
    /// against small pools of both kinds with mixed states, under the
    /// builtins and under one of the registries
    /// `narrowing_equals_the_oracle_under_every_registry` draws.
    /// `check` and `check_pinned` equal the oracle's outcome (`Ok` or
    /// `Err`, links included) in both domain modes, for every pin of
    /// every quantifier. `holds` and the pinned truth walk
    /// (`satisfied_pinned_batch`), which answer the guard leaves their
    /// narrowing proved without a call, equal the AST truth walk
    /// (pinned alike), and so the oracle's `satisfied` wherever the
    /// oracle is `Ok`; where the pinned truth walk raises, the oracle
    /// raises too. They differ from the oracle only where a
    /// quantifier's deciding binding stops them before the oracle's
    /// error: under an `exists`, that can be a `true` result or another
    /// error, which the forall-only pairs of
    /// `seq_partner_lookup_equals_the_full_scan` never meet.
    #[test]
    fn compiled_walks_raise_where_the_oracle_does(
        formula in random_formula(),
        contexts in proptest::collection::vec(mixed_context(), 0..7),
        variant in registry_variant(),
    ) {
        let c = Constraint::new("random", formula);
        let cc = CompiledConstraint::compile(&c);
        let late = fresh_predicate_name();
        let registries = [
            PredicateRegistry::with_builtins(),
            variant.build(std::slice::from_ref(&c), &late),
        ];
        let pool = mixed_pool(&contexts);
        let now = LogicalTime::new(contexts.len() as u64 + 1);
        let mut scratch = EvalScratch::new();
        for (registry, mode) in registries
            .iter()
            .flat_map(|r| [(r, DomainMode::AllLive), (r, DomainMode::AvailableOnly)])
        {
            let oracle = Evaluator::with_domain(registry, mode);
            let compiled = CompiledEvaluator::with_domain(registry, mode);
            let want = oracle.check(&c, &pool, now);
            prop_assert_eq!(
                compiled.check(&cc, &pool, now, &mut scratch),
                want.clone(),
                "{} under {:?}", c.formula(), mode
            );
            for (id, _) in pool.iter() {
                for qid in 0..c.quantifier_count() {
                    let want = oracle.check_pinned(&c, &pool, now, qid, id);
                    prop_assert_eq!(
                        compiled.check_pinned(&cc, &pool, now, qid, id, &mut scratch),
                        want.clone(),
                        "{} pinned {}@{} under {:?}", c.formula(), qid, id, mode
                    );
                    let truth = compiled
                        .satisfied_pinned_batch(&cc, &pool, now, qid, id, None, &mut scratch);
                    let walked =
                        truth_walk(c.formula(), registry, &pool, now, mode, Some((qid, id)), &mut Vec::new());
                    prop_assert_eq!(
                        &truth, &walked,
                        "{} truth walk pinned {}@{} under {:?}", c.formula(), qid, id, mode
                    );
                    if let Ok(outcome) = &want {
                        prop_assert_eq!(&truth, &Ok(outcome.satisfied));
                    }
                    prop_assert!(truth.is_ok() || want.is_err(), "{} vs {:?}", c.formula(), want);
                }
            }
            let holds = compiled.holds(&cc, &pool, now, &mut scratch);
            let walked = truth_walk(c.formula(), registry, &pool, now, mode, None, &mut Vec::new());
            prop_assert_eq!(&holds, &walked, "{} under {:?}", c.formula(), mode);
            if let Ok(outcome) = want {
                prop_assert_eq!(holds, Ok(outcome.satisfied), "{} under {:?}", c.formula(), mode);
            }
        }
    }

    /// One walk decides each pinned check and names its violations.
    /// Under a universal-positive random formula alone, the incremental
    /// checker's `on_added` of every stored context of the mixed pool
    /// must return the union, over the quantifiers it plans for the
    /// context's kind, of the oracle's `check_pinned` violations, in
    /// link order, or the first error in quantifier order — under the
    /// builtins and under one odd registry per case. On a flat program,
    /// where the checker's violation walk names the links itself, that
    /// holds exactly. On any other, where the walk stops at the truth
    /// walk's first counterexample and the evidence walk takes over, it
    /// holds wherever the oracle is `Ok`: a truth walk that finds no
    /// counterexample may stop before an error the oracle raises.
    #[test]
    fn pinned_checks_name_the_oracles_violations(
        formula in random_formula(),
        contexts in proptest::collection::vec(mixed_context(), 0..7),
        variant in registry_variant(),
    ) {
        let c = Constraint::new("random", formula);
        if c.is_universal_positive() {
            let flat = is_flat(c.formula());
            let late = fresh_predicate_name();
            let registries = [
                PredicateRegistry::with_builtins(),
                variant.build(std::slice::from_ref(&c), &late),
            ];
            let pool = mixed_pool(&contexts);
            let now = LogicalTime::new(contexts.len() as u64 + 1);
            for registry in &registries {
                let oracle = Evaluator::new(registry);
                let mut checker = IncrementalChecker::new(std::iter::once(c.clone()).collect());
                for (id, ctx) in pool.iter() {
                    let mut want = Ok(BTreeSet::new());
                    for qid in c.quantifiers_over(ctx.kind()) {
                        match (oracle.check_pinned(&c, &pool, now, qid, id), &mut want) {
                            (Ok(outcome), Ok(links)) => links.extend(outcome.violations),
                            (Err(e), _) => {
                                want = Err(e);
                                break;
                            }
                            (Ok(_), Err(_)) => unreachable!("the loop ends at an error"),
                        }
                    }
                    let want: Result<Vec<Link>, EvalError> = want.map(|links| links.into_iter().collect());
                    let got = checker.on_added(registry, &pool, now, id).map(|found| {
                        found.into_iter().map(|d| d.link).collect::<Vec<Link>>()
                    });
                    if flat || want.is_ok() {
                        prop_assert_eq!(got, want, "{} at {} (flat: {})", c.formula(), id, flat);
                    }
                }
            }
        }
    }
}
