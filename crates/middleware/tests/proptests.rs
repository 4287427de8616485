//! Property-based tests of the middleware: random mixed workloads
//! through every strategy, checking accounting identities, life-cycle
//! invariants and determinism.

use ctxres_constraint::parse_constraints;
use ctxres_context::{Context, ContextKind, Lifespan, LogicalTime, Point, Ticks, TruthTag};
use ctxres_core::strategies::{by_name, DropBad};
use ctxres_middleware::{
    Event, EventLog, Middleware, MiddlewareConfig, MiddlewareStats, ShardPlan, ShardedMiddleware,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

const SPEED: &str = "constraint gap1:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)
 constraint gap2:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 2)) implies velocity_le(a, b, 1.5)";

#[derive(Debug, Clone)]
struct Step {
    /// Step along the walk, in 1/128 m units (|step| < 1.5 m: legal).
    step: i8,
    /// Teleport far away (a corrupted fix).
    outlier: bool,
    /// Emit an irrelevant context (different kind) instead.
    irrelevant: bool,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    proptest::collection::vec(
        (
            any::<i8>(),
            proptest::bool::weighted(0.25),
            proptest::bool::weighted(0.1),
        )
            .prop_map(|(step, outlier, irrelevant)| Step {
                step,
                outlier,
                irrelevant,
            }),
        1..50,
    )
}

fn trace(steps: &[Step]) -> Vec<Context> {
    let mut out = Vec::new();
    let mut x = 0.0;
    let mut seq = 0i64;
    for (i, s) in steps.iter().enumerate() {
        let stamp = LogicalTime::new(i as u64);
        if s.irrelevant {
            out.push(
                Context::builder(ContextKind::new("temperature"), "room")
                    .attr("celsius", 21.5)
                    .stamp(stamp)
                    .build(),
            );
            continue;
        }
        x += f64::from(s.step) / 128.0;
        let pos = if s.outlier {
            Point::new(x + 60.0, 60.0)
        } else {
            Point::new(x, 0.0)
        };
        out.push(
            Context::builder(ContextKind::new("location"), "p")
                .attr("pos", pos)
                .attr("seq", seq)
                .stamp(stamp)
                .truth(if s.outlier {
                    TruthTag::Corrupted
                } else {
                    TruthTag::Expected
                })
                .build(),
        );
        seq += 1;
    }
    out
}

fn run(strategy: &str, contexts: Vec<Context>, window: u64) -> MiddlewareStats {
    let log = Arc::new(Mutex::new(EventLog::new()));
    let mut mw = Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .strategy(by_name(strategy, 5).unwrap())
        .config(MiddlewareConfig {
            window: Ticks::new(window),
            track_ground_truth: true,
            retention: None,
        })
        .observer(Box::new(Arc::clone(&log)))
        .build();
    for ctx in contexts {
        mw.submit(ctx);
    }
    mw.drain();
    // Life-cycle invariant: after draining, every stored context is
    // decided; only never-expiring contexts exist here, so nothing can
    // dodge its use.
    for (id, c) in mw.pool().iter() {
        assert!(
            c.state().is_terminal(),
            "{strategy}: {id} left in state {} after drain",
            c.state()
        );
    }
    // The logged uses match the delivery counters.
    let delivered_in_log = log
        .lock()
        .events()
        .iter()
        .filter(|e| matches!(e, Event::Used(r) if r.delivered))
        .count() as u64;
    assert_eq!(delivered_in_log, mw.stats().delivered);
    *mw.stats()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Accounting identities hold for every strategy on random traces.
    #[test]
    fn accounting_identities(steps in steps(), window in 0u64..6) {
        for strategy in ["opt-r", "d-bad", "d-lat", "d-all", "d-rand"] {
            let stats = run(strategy, trace(&steps), window);
            prop_assert_eq!(stats.delivered, stats.delivered_expected + stats.delivered_corrupted);
            prop_assert_eq!(stats.discarded, stats.discarded_expected + stats.discarded_corrupted);
            prop_assert_eq!(stats.received, steps.len() as u64);
            // Every context is either delivered, discarded or expired on
            // use — and nothing is both.
            prop_assert!(stats.delivered + stats.discarded + stats.expired_on_use <= stats.received + stats.discarded);
        }
    }

    /// The oracle never touches expected contexts and never delivers
    /// corrupted ones, whatever the workload.
    #[test]
    fn oracle_is_exact(steps in steps(), window in 0u64..6) {
        let stats = run("opt-r", trace(&steps), window);
        prop_assert_eq!(stats.discarded_expected, 0);
        prop_assert_eq!(stats.delivered_corrupted, 0);
        let corrupted = steps.iter().filter(|s| !s.irrelevant && s.outlier).count() as u64;
        prop_assert_eq!(stats.discarded_corrupted, corrupted);
    }

    /// Clean traces sail through every strategy untouched.
    #[test]
    fn clean_traces_are_untouched(
        steps in proptest::collection::vec(
            (any::<i8>(), proptest::bool::weighted(0.1)).prop_map(|(step, irrelevant)| Step {
                step,
                outlier: false,
                irrelevant,
            }),
            1..40,
        ),
        window in 0u64..6,
    ) {
        for strategy in ["opt-r", "d-bad", "d-lat", "d-all"] {
            let stats = run(strategy, trace(&steps), window);
            prop_assert_eq!(stats.discarded, 0, "{} discarded on clean trace", strategy);
            prop_assert_eq!(stats.delivered, steps.len() as u64);
        }
    }

    /// Same workload, same strategy, same window => identical stats.
    #[test]
    fn runs_are_deterministic(steps in steps(), window in 0u64..6) {
        for strategy in ["d-bad", "d-rand"] {
            let a = run(strategy, trace(&steps), window);
            let b = run(strategy, trace(&steps), window);
            prop_assert_eq!(a, b);
        }
    }

    /// Window zero makes drop-bad and drop-latest indistinguishable on
    /// every random workload (§5.3).
    #[test]
    fn window_zero_degeneration(steps in steps()) {
        let bad = run("d-bad", trace(&steps), 0);
        let lat = run("d-lat", trace(&steps), 0);
        prop_assert_eq!(bad.delivered, lat.delivered);
        prop_assert_eq!(bad.discarded, lat.discarded);
        prop_assert_eq!(bad.delivered_expected, lat.delivered_expected);
    }
}

/// A near-door location fix for subject `p`, expiring `ttl` ticks
/// after `at` (the `near_door` situation holds while one is live).
fn door_fix(at: u64, ttl: u64, seq: i64) -> Context {
    Context::builder(ContextKind::new("location"), "p")
        .attr("pos", Point::new(0.0, 0.0))
        .attr("seq", seq)
        .stamp(LogicalTime::new(at))
        .lifespan(Lifespan::with_ttl(LogicalTime::new(at), Ticks::new(ttl)))
        .build()
}

/// An unrelated-kind submission: advances the clock to `at` and forces
/// an evaluation round without touching the `location` view.
fn round_trigger(at: u64) -> Context {
    Context::builder(ContextKind::new("temperature"), "room")
        .attr("celsius", 21.0)
        .stamp(LogicalTime::new(at))
        .build()
}

/// One scripted call into the engine.
enum Call {
    Submit(Context),
    /// A bare `advance_to(t)`: nothing is submitted.
    Advance(u64),
}

/// Runs a time-ordered script through a middleware with the `near_door`
/// situation.
fn run_near_door(calls: &[Call]) -> MiddlewareStats {
    let situations = parse_constraints(
        "constraint near_door: exists a: location . within(a, -1.0, -1.0, 1.0, 1.0)",
    )
    .unwrap();
    let mut m = Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .situations(situations)
        .strategy(by_name("d-bad", 5).unwrap())
        .config(MiddlewareConfig {
            window: Ticks::new(0),
            track_ground_truth: false,
            retention: None,
        })
        .build();
    for call in calls {
        match call {
            Call::Submit(ctx) => {
                m.submit(ctx.clone());
            }
            Call::Advance(t) => m.advance_to(LogicalTime::new(*t)),
        }
    }
    m.drain();
    *m.stats()
}

#[test]
fn expiry_exactly_on_a_round_boundary_deactivates_the_situation() {
    // A fix expires at exactly t5 without any state transition, and the
    // call at t5 is the submission of an *unrelated* kind or a bare
    // clock advance with nothing due. Its round must still see
    // `near_door` go inactive, or the t8 fix's rising edge would be
    // lost (1 activation, not 2).
    for at_expiry in [Call::Submit(round_trigger(5)), Call::Advance(5)] {
        let stream = [
            Call::Submit(door_fix(0, 5, 0)), // active from t0, expires at exactly t5
            at_expiry,                       // round lands on the expiry instant
            Call::Submit(door_fix(8, 5, 1)), // must re-activate: a second rising edge
            Call::Submit(round_trigger(20)), // drain the second expiry too
        ];
        assert_eq!(run_near_door(&stream).situation_activations, 2);
    }
}

/// Builds a stats record from 14 raw field values (field order matches
/// the struct declaration).
fn stats_from(f: &[u64]) -> MiddlewareStats {
    MiddlewareStats {
        received: f[0],
        irrelevant: f[1],
        inconsistencies: f[2],
        delivered: f[3],
        delivered_expected: f[4],
        delivered_corrupted: f[5],
        discarded: f[6],
        discarded_expected: f[7],
        discarded_corrupted: f[8],
        marked_bad: f[9],
        expired_on_use: f[10],
        situation_activations: f[11],
        eval_errors: f[12],
        compacted: f[13],
    }
}

proptest! {
    /// Stats survive a JSON round trip bit-exactly — the experiment
    /// runner persists them, so drift here would corrupt BENCH files.
    #[test]
    fn stats_serde_round_trip(fields in proptest::collection::vec(0u64..1_000_000, 14)) {
        let stats = stats_from(&fields);
        let json = serde_json::to_string(&stats).unwrap();
        let back: MiddlewareStats = serde_json::from_str(&json).unwrap();
        prop_assert_eq!(back, stats);
    }

    /// Absorbing per-shard records one by one equals summing the raw
    /// fields first — the cross-shard aggregation the sharded middleware
    /// relies on is plain field-wise addition (commutative, no global
    /// lock needed).
    #[test]
    fn absorb_aggregation_matches_fieldwise_sum(
        shards in proptest::collection::vec(
            proptest::collection::vec(0u64..1_000, 14),
            1..6,
        ),
    ) {
        let mut aggregated = MiddlewareStats::default();
        for fields in &shards {
            aggregated.absorb(&stats_from(fields));
        }
        let mut totals = vec![0u64; 14];
        for fields in &shards {
            for (total, v) in totals.iter_mut().zip(fields) {
                *total += *v;
            }
        }
        prop_assert_eq!(aggregated, stats_from(&totals));
    }
}

/// Constraint shapes over `location` and `badge` that routing must get
/// right: guarded pairs (same kind and cross-kind), a guard after a
/// leaf that raises (`ghost` is unregistered), a guard under `or`, a
/// negated `forall`, an `exists`, a single `forall`, and an unguarded
/// badge pair that violates across subjects.
const SHAPES: [&str; 8] = [
    "constraint speed: forall a: location, b: location .
       (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)",
    "constraint ghostly: forall a: location, b: badge .
       (ghost(a) and same_subject(a, b)) implies true",
    "constraint weak: forall a: location, b: location .
       (same_subject(a, b) or seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)",
    "constraint outside: not forall a: location . within(a, 0.0, 0.0, 1.0, 1.0)",
    "constraint anchored: exists a: badge . subject_eq(a, \"p\")",
    "constraint region: forall a: location . within(a, 0.0, 0.0, 2.0, 2.0)",
    "constraint cross_kind: forall a: location, b: badge .
       same_subject(a, b) implies time_gap_le(a, b, 2)",
    "constraint badge_pairs: forall x: badge, y: badge .
       (distinct(x, y) and before(x, y)) implies time_gap_le(x, y, 3)",
];

/// Immortal locations and badges of subjects `""`, `p`, `q` and `r`,
/// stamped in arrival order with gaps of 0-2 ticks, each carrying its
/// subject's next seq for its kind.
fn arrivals(spec: &[(bool, u8, u8, u8, u8)]) -> Vec<Context> {
    let mut seqs = std::collections::HashMap::new();
    let mut stamp = 0;
    spec.iter()
        .map(|&(is_badge, subject, gap, x, y)| {
            let kind = if is_badge { "badge" } else { "location" };
            let subject = ["", "p", "q", "r"][usize::from(subject)];
            let seq = seqs.entry((kind, subject)).or_insert(0i64);
            *seq += 1;
            stamp += u64::from(gap);
            Context::builder(ContextKind::new(kind), subject)
                .attr("pos", Point::new(f64::from(x) * 0.75, f64::from(y) * 0.75))
                .attr("seq", *seq)
                .stamp(LogicalTime::new(stamp))
                .build()
        })
        .collect()
}

fn drop_bad(constraints: &[ctxres_constraint::Constraint]) -> Middleware {
    Middleware::builder()
        .constraints(constraints.to_vec())
        .strategy(Box::new(DropBad::new()))
        .config(MiddlewareConfig {
            window: Ticks::new(0),
            track_ground_truth: false,
            retention: None,
        })
        .build()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// A sharded engine reports what one engine reports: the same
    /// inconsistencies, errors and verdicts, and the same pool, on any
    /// subset of the routing shapes at 1, 2 and 4 subject shards.
    #[test]
    fn sharded_engine_reports_what_one_engine_reports(
        mask in 1u16..256,
        spec in proptest::collection::vec(
            (any::<bool>(), 0u8..4, 0u8..3, 0u8..4, 0u8..4),
            0..16,
        ),
    ) {
        let source: Vec<&str> = (0..SHAPES.len())
            .filter(|i| mask & (1 << i) != 0)
            .map(|i| SHAPES[i])
            .collect();
        let constraints = parse_constraints(&source.join("\n")).unwrap();
        let trace = arrivals(&spec);
        let mut single = drop_bad(&constraints);
        for ctx in &trace {
            single.submit(ctx.clone());
        }
        single.drain();
        let want = single.stats();
        for shards in [1, 2, 4] {
            let plan = ShardPlan::analyze(&constraints, shards);
            let sharded = ShardedMiddleware::new(plan, |_| drop_bad(&constraints));
            for ctx in &trace {
                sharded.submit(ctx.clone());
            }
            sharded.drain();
            let got = sharded.stats();
            prop_assert_eq!(got.inconsistencies, want.inconsistencies, "{} shards", shards);
            prop_assert_eq!(got.eval_errors, want.eval_errors, "{} shards", shards);
            prop_assert_eq!(got.discarded, want.discarded, "{} shards", shards);
            prop_assert_eq!(got.delivered, want.delivered, "{} shards", shards);
            prop_assert_eq!(sharded.signature(), single.pool().signature(), "{} shards", shards);
        }
    }
}
