//! Failure injection: the middleware must stay correct (and never
//! panic) under pathological workloads — out-of-order stamps, duplicate
//! sequence numbers, all-corrupted streams, bursts, expiring contexts,
//! and constraints that fail to evaluate. The one panic it passes on is
//! a user predicate's own.

use ctxres::constraint::{parse_constraints, PredicateRegistry};
use ctxres::context::{
    Context, ContextKind, ContextState, Lifespan, LogicalTime, Point, Ticks, TruthTag,
};
use ctxres::core::strategies::by_name;
use ctxres::middleware::{Middleware, MiddlewareConfig};

const SPEED: &str = "constraint gap1:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

fn mw(strategy: &str, window: u64) -> Middleware {
    Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .strategy(by_name(strategy, 3).unwrap())
        .config(MiddlewareConfig {
            window: Ticks::new(window),
            track_ground_truth: true,
            retention: None,
        })
        .build()
}

fn loc(seq: i64, t: u64, x: f64) -> Context {
    Context::builder(ContextKind::new("location"), "p")
        .attr("pos", Point::new(x, 0.0))
        .attr("seq", seq)
        .stamp(LogicalTime::new(t))
        .build()
}

#[test]
fn out_of_order_stamps_do_not_rewind_the_clock() {
    for strategy in ["opt-r", "d-bad", "d-lat", "d-all"] {
        let mut m = mw(strategy, 2);
        m.submit(loc(0, 10, 0.0));
        m.submit(loc(1, 3, 0.5)); // stale stamp
        m.submit(loc(2, 11, 1.0));
        m.drain();
        assert_eq!(m.stats().received, 3, "{strategy}");
        assert!(m.now() >= LogicalTime::new(11), "{strategy}");
        for (_, c) in m.pool().iter() {
            assert!(c.state().is_terminal(), "{strategy}: {c}");
        }
    }
}

#[test]
fn duplicate_sequence_numbers_are_handled() {
    // Two contexts claim the same stream position far apart: the gap-1
    // pair (seq 0, seq 1) exists twice; detection and resolution must
    // not panic and must resolve decisively.
    let mut m = mw("d-bad", 2);
    m.submit(loc(0, 0, 0.0));
    m.submit(loc(1, 1, 0.5));
    m.submit(loc(1, 2, 40.0)); // duplicate seq, far away
    m.drain();
    assert!(m.stats().inconsistencies > 0);
    assert!(m.stats().discarded >= 1);
}

#[test]
fn fully_corrupted_stream_survives() {
    let mut m = mw("d-bad", 2);
    for i in 0..40 {
        let ctx = Context::builder(ContextKind::new("location"), "p")
            .attr("pos", Point::new((i * 50) as f64, 0.0)) // every hop violates
            .attr("seq", i as i64)
            .stamp(LogicalTime::new(i))
            .truth(TruthTag::Corrupted)
            .build();
        m.submit(ctx);
    }
    m.drain();
    assert_eq!(m.stats().received, 40);
    assert!(m.stats().discarded > 0, "a hot stream must lose contexts");
    // Whatever was delivered + discarded + expired covers everything.
    for (_, c) in m.pool().iter() {
        assert!(c.state().is_terminal());
    }
}

#[test]
fn burst_of_duplicate_seq_contexts() {
    // A reader hiccup re-sends 50 readings with the same stream position
    // and stamp: no gap-1 pairs exist, so nothing may be blamed and the
    // burst must drain cleanly.
    let mut m = mw("d-bad", 1);
    for i in 0..50 {
        m.submit(loc(0, 5, i as f64 * 0.5));
    }
    m.drain();
    assert_eq!(m.stats().delivered, 50);
    assert_eq!(m.stats().discarded, 0);
}

#[test]
fn same_tick_teleports_are_blamed() {
    // The dual of the burst case: consecutive stream positions at the
    // same instant but different places imply infinite velocity — the
    // constraint must fire and someone must be discarded.
    let mut m = mw("d-bad", 1);
    for i in 0..10 {
        m.submit(loc(i, 5, i as f64 * 0.5));
    }
    m.drain();
    assert!(m.stats().inconsistencies > 0);
    assert!(m.stats().discarded > 0);
}

#[test]
fn contexts_expiring_inside_the_window_are_not_blamed() {
    let mut m = mw("d-bad", 10);
    let short = Context::builder(ContextKind::new("location"), "p")
        .attr("pos", Point::new(0.0, 0.0))
        .attr("seq", 0i64)
        .stamp(LogicalTime::new(0))
        .lifespan(Lifespan::with_ttl(LogicalTime::new(0), Ticks::new(2)))
        .build();
    m.submit(short);
    m.advance_to(LogicalTime::new(20));
    let stats = m.stats();
    assert_eq!(stats.delivered, 0);
    assert_eq!(stats.discarded, 0, "expiry is not a blame");
    assert_eq!(stats.expired_on_use, 1);
}

/// A deployment whose constraint cannot evaluate — an unknown
/// predicate, or a variable no quantifier binds — counts one
/// evaluation error per addition and admits the context unchecked.
#[test]
fn unknown_predicate_constraint_degrades_gracefully() {
    for broken in [
        "constraint broken: forall a: location . no_such_predicate(a)",
        "constraint broken: forall a: location . same_subject(a, ghost)",
    ] {
        let mut m = Middleware::builder()
            .constraints(parse_constraints(broken).unwrap())
            .strategy(by_name("d-bad", 1).unwrap())
            .config(MiddlewareConfig {
                window: Ticks::new(1),
                track_ground_truth: false,
                retention: None,
            })
            .build();
        m.submit(loc(0, 0, 0.0));
        m.drain();
        assert_eq!(m.stats().eval_errors, 1, "{broken}");
        assert_eq!(
            m.stats().delivered,
            1,
            "{broken}: context admitted unchecked"
        );
    }
}

/// A user predicate that panics is not caught: the panic unwinds out of
/// `Middleware::submit`, leaving that engine mid-update, so it must be
/// dropped rather than used again (see `PredicateRegistry::register`).
#[test]
#[should_panic(expected = "predicate bug")]
fn panicking_predicate_unwinds_out_of_submit() {
    let mut registry = PredicateRegistry::with_builtins();
    registry.register("explodes", 1, |_| panic!("predicate bug"));
    let mut m = Middleware::builder()
        .constraints(parse_constraints("constraint c: forall a: location . explodes(a)").unwrap())
        .registry(registry)
        .strategy(by_name("d-bad", 1).unwrap())
        .build();
    m.submit(loc(0, 0, 0.0));
}

#[test]
fn interleaved_subjects_do_not_cross_talk() {
    // Two subjects with identical seq numbers: constraints guard with
    // same_subject, so no spurious pairs arise.
    let mut m = mw("d-bad", 2);
    for i in 0..20 {
        m.submit(loc(i, i as u64, i as f64 * 0.5));
        let other = Context::builder(ContextKind::new("location"), "q")
            .attr("pos", Point::new(100.0 - i as f64 * 0.5, 50.0))
            .attr("seq", i)
            .stamp(LogicalTime::new(i as u64))
            .build();
        m.submit(other);
    }
    m.drain();
    assert_eq!(m.stats().discarded, 0);
    assert_eq!(m.stats().delivered, 40);
}

#[test]
fn reusing_a_decided_context_is_stable() {
    let mut m = mw("d-bad", 1);
    let id = m.submit(loc(0, 0, 0.0)).id;
    m.drain();
    assert_eq!(m.pool().get(id).unwrap().state(), ContextState::Consistent);
    // Explicit re-use after the decision: still delivered, not recounted
    // as a discard.
    let rec = m.use_now(id).unwrap();
    assert!(rec.delivered);
    assert_eq!(m.stats().discarded, 0);
}

#[test]
fn poisoned_context_does_not_switch_off_its_subject() {
    // One malformed context (seq 1 has no `pos`) among valid ones. Only
    // the two additions whose gap-1 pairs read it can fail: seq 1's
    // (pair 0→1) and seq 2's (pair 1→2). Every later check reaches a
    // pair's consequent only through `seq_gap`, which the poisoned
    // context fails, so both real teleports (4→5 and 8→9) are found.
    let xs = [
        Some(0.0),
        None,
        Some(1.0),
        Some(1.5),
        Some(2.0),
        Some(40.0),
        Some(40.5),
        Some(41.0),
        Some(41.5),
        Some(90.0),
        Some(90.5),
    ];
    let mut m = mw("d-lat", 2);
    let mut ids = Vec::new();
    for (seq, x) in xs.into_iter().enumerate() {
        let ctx = match x {
            Some(x) => loc(seq as i64, seq as u64, x),
            None => Context::builder(ContextKind::new("location"), "p")
                .attr("seq", seq as i64)
                .stamp(LogicalTime::new(seq as u64))
                .build(),
        };
        ids.push(m.submit(ctx).id);
    }
    m.drain();
    assert_eq!(m.checker_stats().seq_fallbacks, 0, "seqs 0..=10 rise");
    assert_eq!(m.stats().eval_errors, 2);
    assert_eq!(m.stats().inconsistencies, 2, "both teleports detected");
    let discarded: Vec<usize> = ids
        .iter()
        .enumerate()
        .filter(|(_, id)| {
            m.pool()
                .get(**id)
                .is_some_and(|c| c.state() == ContextState::Inconsistent)
        })
        .map(|(seq, _)| seq)
        .collect();
    assert_eq!(
        discarded,
        vec![5, 9],
        "drop-latest blames each jump's landing"
    );
}
