//! One timer per phase boundary. A timed phase guard reads the clock
//! once when it opens and once when it closes, and its profiler span and
//! its latency histogram are both fed from that one pair of readings, so
//! the two agree to the nanosecond. A guard also closes when a panic
//! unwinds through it, so the next engine on the same registry slot
//! starts from an empty span stack.

use ctxres_constraint::{parse_constraints, Constraint, PredicateRegistry};
use ctxres_context::{Context, ContextKind, LogicalTime, Point, Ticks};
use ctxres_core::strategies::DropBad;
use ctxres_middleware::{Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware};
use ctxres_obs::{MetricKind, ObsConfig, ObsRegistry, ObsSnapshot, Phase, ShardObs};
use std::ops::Range;

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

fn fix(subject: &str, seq: i64, x: f64) -> Context {
    Context::builder(ContextKind::new("location"), subject)
        .attr("pos", Point::new(x, 0.0))
        .attr("seq", seq)
        .stamp(LogicalTime::new(seq as u64))
        .build()
}

/// Eight subjects walking in turn; every ninth fix teleports, so the
/// stream detects speed violations and drop-bad discards.
fn stream(fixes: i64) -> Vec<Context> {
    (0..fixes)
        .flat_map(|seq| {
            (0..8).map(move |s| {
                let teleport = (seq * 8 + s) % 9 == 8;
                let x = if teleport { 1_000.0 } else { seq as f64 };
                fix(&format!("s{s}"), seq, x)
            })
        })
        .collect()
}

fn engine(constraints: Vec<Constraint>, obs: ShardObs) -> Middleware {
    Middleware::builder()
        .constraints(constraints)
        .strategy(Box::new(DropBad::new()))
        .config(MiddlewareConfig {
            window: Ticks::new(2),
            track_ground_truth: false,
            retention: Some(Ticks::new(16)),
        })
        .obs(obs)
        .build()
}

/// Histogram `kind`'s `(count, sum)` over the shard slots `slots`.
fn histogram(snap: &ObsSnapshot, kind: MetricKind, slots: Range<usize>) -> (u64, u64) {
    slots
        .filter_map(|i| {
            snap.find(kind.family().name, &[("shard", &i.to_string())])
                .and_then(|s| s.value.histogram())
                .map(|h| (h.count, h.sum))
        })
        .fold((0, 0), |(c, s), (count, sum)| (c + count, s + sum))
}

/// `phase`'s `(calls, total_ns)` over the shard slots `slots`.
fn phase(registry: &ObsRegistry, phase: Phase, slots: Range<usize>) -> (u64, u64) {
    let profile = registry.profile_snapshot();
    profile.shards[slots]
        .iter()
        .map(|stats| &stats[phase.index()])
        .fold((0, 0), |(c, t), p| (c + p.calls, t + p.total_ns))
}

#[test]
fn a_timed_phase_and_its_histogram_share_one_reading_pair() {
    let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_profile(1), 1);
    let mut mw = engine(parse_constraints(SPEED).unwrap(), registry.handle(0));
    let mut trace = stream(60);
    let batch = trace.split_off(trace.len() / 2);
    for ctx in trace {
        mw.submit(ctx);
    }
    mw.batch_add(batch);
    mw.drain();
    assert!(mw.stats().inconsistencies > 0, "{:?}", mw.stats());
    assert!(mw.stats().discarded > 0, "{:?}", mw.stats());

    let snap = registry.snapshot();
    for (kind, timed) in [
        (MetricKind::CheckLatency, Phase::ConstraintCheck),
        (MetricKind::ResolveLatency, Phase::Resolution),
        (MetricKind::IngestLatency, Phase::Ingest),
    ] {
        let (count, sum) = histogram(&snap, kind, 0..1);
        assert!(count > 0, "{kind:?} recorded nothing");
        assert_eq!((count, sum), phase(&registry, timed, 0..1), "{kind:?}");
    }
}

#[test]
fn sharded_routing_and_chunks_share_their_phases_reading_pairs() {
    let constraints = parse_constraints(SPEED).unwrap();
    let plan = ShardPlan::analyze(&constraints, 2);
    let shards = plan.total_shards();
    let registry =
        ShardedMiddleware::obs_registry(&plan, ObsConfig::metrics_only().with_profile(1));
    let sharded =
        ShardedMiddleware::new_observed(plan, &registry, |_, obs| engine(constraints.clone(), obs));
    for chunk in stream(60).chunks(64) {
        sharded.batch_add(chunk);
    }
    sharded.drain();
    assert!(sharded.stats().discarded > 0, "{:?}", sharded.stats());

    let snap = registry.snapshot();
    let engine_slot = shards..shards + 1;
    let route = histogram(&snap, MetricKind::RouteLatency, engine_slot.clone());
    assert_eq!(route.0, 8, "one route per batch");
    assert_eq!(route, phase(&registry, Phase::Ingest, engine_slot));
    for (kind, timed) in [
        (MetricKind::IngestLatency, Phase::Ingest),
        (MetricKind::CheckLatency, Phase::ConstraintCheck),
        (MetricKind::ResolveLatency, Phase::Resolution),
    ] {
        let (count, sum) = histogram(&snap, kind, 0..shards);
        assert!(count > 0, "{kind:?} recorded nothing");
        assert_eq!((count, sum), phase(&registry, timed, 0..shards), "{kind:?}");
    }
}

#[test]
fn a_guard_closes_when_a_panic_unwinds_through_it() {
    let registry = ObsRegistry::shared(ObsConfig::metrics_only().with_profile(1), 1);
    let mut exploding = PredicateRegistry::with_builtins();
    exploding.register("explodes", 1, |_| panic!("predicate bug"));
    let mut doomed = Middleware::builder()
        .constraints(parse_constraints("constraint c: forall a: location . explodes(a)").unwrap())
        .registry(exploding)
        .strategy(Box::new(DropBad::new()))
        .obs(registry.handle(0))
        .build();
    let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        doomed.submit(fix("p", 0, 0.0));
    }));
    assert!(unwound.is_err(), "the predicate's panic reaches the caller");
    drop(doomed);
    registry.drain_spans();

    let mut clean = engine(parse_constraints(SPEED).unwrap(), registry.handle(0));
    clean.submit(fix("p", 0, 0.0));
    let spans = registry.drain_spans();
    let check = spans
        .iter()
        .find(|s| s.phase() == Some(Phase::ConstraintCheck))
        .expect("the clean submit's check span");
    assert_eq!(check.depth, 0, "{spans:?}");
}
