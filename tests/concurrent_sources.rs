//! Integration: producer threads feed a sharded middleware, as in the
//! paper's experimental setup (§4.1: contexts were "produced by a
//! client thread"). Each producer either submits itself or sends into a
//! crossbeam channel that a pump thread drains; the engine starts no
//! threads of its own, so every thread here is the test's.

use ctxres::constraint::parse_constraints;
use ctxres::context::{Context, ContextKind, LogicalTime, Point, Ticks};
use ctxres::core::strategies::DropBad;
use ctxres::middleware::{Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware};

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

fn speed_engine() -> Middleware {
    Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .strategy(Box::new(DropBad::new()))
        .config(MiddlewareConfig {
            window: Ticks::new(0),
            track_ground_truth: false,
            retention: None,
        })
        .build()
}

/// One subject's walk: steady 0.5/tick steps with a teleport every
/// seventh reading that violates the speed bound.
fn walk(subject: &str, len: usize) -> Vec<Context> {
    (0..len)
        .map(|seq| {
            let x = if seq % 7 == 6 {
                900.0
            } else {
                seq as f64 * 0.5
            };
            Context::builder(ContextKind::new("location"), subject)
                .attr("pos", Point::new(x, 0.0))
                .attr("seq", seq as i64)
                .stamp(LogicalTime::new(seq as u64))
                .build()
        })
        .collect()
}

/// Four producer threads racing into the sharded engine must leave the
/// same final pool state and the same inconsistency/discard record as
/// one thread feeding one engine, whether each producer submits itself
/// or sends into its own channel that a `pump` thread drains. The speed
/// constraint only relates same-subject contexts and each producer owns
/// its subjects, so the cross-thread interleave cannot leak into the
/// outcome.
#[test]
fn racing_producers_match_single_threaded_run() {
    let subjects: Vec<String> = (0..8).map(|i| format!("subj-{i}")).collect();
    let traces: Vec<Vec<Context>> = subjects.iter().map(|s| walk(s, 50)).collect();

    // Oracle: one engine, contexts in deterministic (stamp, subject)
    // order.
    let mut merged: Vec<Context> = traces.iter().flatten().cloned().collect();
    merged.sort_by(|a, b| a.stamp().cmp(&b.stamp()).then(a.subject().cmp(b.subject())));
    let mut single = speed_engine();
    for ctx in &merged {
        single.submit(ctx.clone());
    }
    single.drain();

    let sharded_engine = || {
        let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), 4);
        ShardedMiddleware::new(plan, |_| speed_engine())
    };
    let assert_matches_single = |sharded: &ShardedMiddleware| {
        sharded.drain();
        let stats = sharded.stats();
        assert_eq!(stats.inconsistencies, single.stats().inconsistencies);
        assert_eq!(stats.discarded, single.stats().discarded);
        assert_eq!(stats.received, single.stats().received);
        assert_eq!(sharded.signature(), single.pool().signature());
        assert!(
            stats.inconsistencies > 0,
            "the workload must actually exercise detection"
        );
    };

    // Four producer threads, two subjects each, submitting concurrently.
    let submitted = sharded_engine();
    std::thread::scope(|scope| {
        for pair in traces.chunks(2) {
            scope.spawn(|| {
                for ctx in pair.iter().flatten() {
                    submitted.submit(ctx.clone());
                }
            });
        }
    });
    assert_matches_single(&submitted);

    // The same four producers, each sending into its own channel, which
    // a pump thread drains into the engine.
    let pumped = sharded_engine();
    let counts: Vec<usize> = std::thread::scope(|scope| {
        let pumps: Vec<_> = traces
            .chunks(2)
            .map(|pair| {
                let (tx, rx) = crossbeam::channel::bounded(16);
                scope.spawn(move || {
                    for ctx in pair.iter().flatten() {
                        tx.send(ctx.clone()).unwrap();
                    }
                });
                let pumped = &pumped;
                scope.spawn(move || pumped.pump(rx))
            })
            .collect();
        pumps.into_iter().map(|pump| pump.join().unwrap()).collect()
    });
    assert_eq!(counts.iter().sum::<usize>(), merged.len());
    assert_matches_single(&pumped);
}

/// A constraint relating *different* subjects cannot be split: the plan
/// must route every context of its kinds to the shared-scope shard.
#[test]
fn cross_subject_constraint_routes_to_shared_shard() {
    let constraints = parse_constraints(
        "constraint speed:
            forall a: location, b: location .
              (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)
         constraint one_badge_per_room:
            forall a: badge, b: badge . not eq(a.room, b.room)",
    )
    .unwrap();
    let plan = ShardPlan::analyze(&constraints, 4);

    let badge = Context::builder(ContextKind::new("badge"), "peter").build();
    assert_eq!(
        plan.route(&badge),
        plan.shared_shard(),
        "unguarded cross-subject kind must land on the shared-scope shard"
    );

    // Same-subject-guarded kinds stay partitioned across subject shards.
    for i in 0..16 {
        let loc = Context::builder(ContextKind::new("location"), &format!("s{i}")).build();
        assert!(plan.route(&loc) < plan.shared_shard());
    }
}
