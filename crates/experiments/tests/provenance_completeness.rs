//! End-to-end provenance completeness, checked against the engine
//! itself: across all four paper strategies, on both the sequential
//! engine (a quick figure9-style cell) and the sharded engine, the
//! trace must state every fact the engine reports through its observers
//! and counters. Each member of each detected inconsistency has a
//! `violated_by` edge at the detection's tick citing its constraint and
//! the other members, and there are no others; every context the pool
//! ends `Inconsistent` has an inconsistent verdict edge; every delivered
//! use has a `Delivered` record; the engine's received, delivered,
//! expired, marked-bad and discarded counts equal the trace's
//! `Received` records, `Delivered` records, `Expired` records,
//! `superseded_by` edges and inconsistent verdicts; and every discarded
//! context's chain opens with its submission root. A mismatch means an
//! emitter dropped (or invented) a record somewhere.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::PervasiveApp;
use ctxres_constraint::parse_constraints;
use ctxres_context::{
    Context, ContextId, ContextKind, ContextState, LogicalTime, Point, Ticks, TruthTag,
};
use ctxres_core::strategies::{by_name, EXPERIMENT_STRATEGIES};
use ctxres_core::Inconsistency;
use ctxres_experiments::explain::render_chain;
use ctxres_middleware::{
    Middleware, MiddlewareConfig, MiddlewareObserver, MiddlewareStats, ShardPlan,
    ShardedMiddleware, UseRecord,
};
use ctxres_obs::{
    CauseEdge, CauseKind, NodeId, ObsConfig, ObsRegistry, ProvenanceGraph, TraceEvent, TraceRecord,
};
use std::sync::{Arc, Mutex};

/// What the engine told its observers, per shard.
#[derive(Debug, Default)]
struct Seen {
    detections: Vec<(u32, Inconsistency)>,
    delivered: Vec<(u32, ContextId)>,
}

/// The observer filling one shard's part of a shared [`Seen`].
struct Recorder {
    shard: u32,
    seen: Arc<Mutex<Seen>>,
}

impl MiddlewareObserver for Recorder {
    fn on_detections(&mut self, fresh: &[Inconsistency]) {
        let mut seen = self.seen.lock().unwrap();
        seen.detections
            .extend(fresh.iter().map(|inc| (self.shard, inc.clone())));
    }

    fn on_used(&mut self, record: &UseRecord) {
        if record.delivered {
            self.seen
                .lock()
                .unwrap()
                .delivered
                .push((self.shard, record.id));
        }
    }
}

/// Asserts `trace` states exactly what the engine reported: `seen`
/// through its observers, `stats` through its counters, and `pools`
/// (each shard's final context states). Returns how many discarded
/// chains were checked.
fn assert_trace_matches_engine(
    label: &str,
    trace: &[TraceRecord],
    seen: &Seen,
    pools: &[(u32, ContextId, ContextState)],
    stats: &MiddlewareStats,
) -> usize {
    let graph = ProvenanceGraph::from_records(trace);
    let node = |shard: u32, ctx: ContextId| {
        graph
            .node(NodeId { shard, ctx })
            .unwrap_or_else(|| panic!("{label}: s{shard}/{ctx} is not in the trace"))
    };
    let edges = || graph.nodes().flat_map(|n| n.chain.iter());

    let mut members = 0;
    for (shard, inc) in &seen.detections {
        for &c in inc.contexts() {
            members += 1;
            let partners: Vec<NodeId> = (inc.contexts().iter())
                .filter(|p| **p != c)
                .map(|&ctx| NodeId { shard: *shard, ctx })
                .collect();
            let explained = node(*shard, c).chain.iter().any(|e| {
                e.cause == CauseKind::ViolatedBy
                    && e.at == inc.detected_at().tick()
                    && e.constraint.as_deref() == Some(inc.constraint())
                    && e.partners == partners
            });
            assert!(
                explained,
                "{label}: s{shard}/{c} lacks a violated_by edge for {inc}"
            );
        }
    }
    let violations = edges().filter(|e| e.cause == CauseKind::ViolatedBy).count();
    assert_eq!(violations, members, "{label}: violated_by edges");

    let inconsistent = |e: &CauseEdge| e.verdict == Some(ContextState::Inconsistent);
    for &(shard, ctx, state) in pools {
        if state == ContextState::Inconsistent {
            assert!(
                node(shard, ctx).chain.iter().any(inconsistent),
                "{label}: s{shard}/{ctx} ended inconsistent without a verdict edge"
            );
        }
    }
    for &(shard, ctx) in &seen.delivered {
        let delivered = (node(shard, ctx).timeline.iter())
            .any(|r| matches!(r.event, TraceEvent::Delivered { .. }));
        assert!(
            delivered,
            "{label}: delivered s{shard}/{ctx} has no Delivered record"
        );
    }

    let records = |event: fn(&TraceEvent) -> bool| trace.iter().filter(|r| event(&r.event)).count();
    let traced = [
        records(|e| matches!(e, TraceEvent::Received { .. })),
        records(|e| matches!(e, TraceEvent::Delivered { .. })),
        records(|e| matches!(e, TraceEvent::Expired { .. })),
        edges()
            .filter(|e| e.cause == CauseKind::SupersededBy)
            .count(),
        edges().filter(|e| inconsistent(e)).count(),
    ];
    let counted = [
        stats.received,
        stats.delivered,
        stats.expired_on_use,
        stats.marked_bad,
        stats.discarded,
    ]
    .map(|n| n as usize);
    assert_eq!(
        traced, counted,
        "{label}: trace vs engine [received, delivered, expired, marked bad, discarded]"
    );

    let discarded = graph.discarded();
    for node in &discarded {
        let gaps = node.completeness_gaps();
        let text = render_chain(node);
        assert!(
            gaps.is_empty(),
            "{label}: {} has gaps {gaps:?}\n{text}",
            node.id
        );
        assert!(text.contains("submission_of"), "{label}: {text}");
        assert!(text.contains("chain complete"), "{label}: {text}");
    }
    discarded.len()
}

/// Every context of `mw`'s pool with its final state, tagged `shard`.
fn final_states(shard: u32, mw: &Middleware) -> Vec<(u32, ContextId, ContextState)> {
    mw.pool()
        .iter()
        .map(|(id, ctx)| (shard, id, ctx.state()))
        .collect()
}

#[test]
fn sequential_discards_are_fully_explainable_for_every_strategy() {
    let app = CallForwarding::new();
    let mut total = 0;
    for strategy in EXPERIMENT_STRATEGIES {
        // A quick figure9-style cell: same app/window as the figure,
        // shortened and pinned to one (err, seed) point.
        let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
        let seen = Arc::new(Mutex::new(Seen::default()));
        let mut mw = Middleware::builder()
            .constraints(app.constraints())
            .situations(app.situations())
            .registry(app.registry())
            .strategy(by_name(strategy, 7).expect("experiment strategy"))
            .config(MiddlewareConfig {
                window: Ticks::new(app.recommended_window()),
                track_ground_truth: true,
                retention: None,
            })
            .obs(registry.handle(0))
            .observer(Box::new(Recorder {
                shard: 0,
                seen: Arc::clone(&seen),
            }))
            .build();
        for ctx in app.generate(0.3, 7, 200) {
            mw.submit(ctx);
        }
        mw.drain();
        assert_eq!(registry.dropped(), 0, "{strategy}: ring must hold the run");
        total += assert_trace_matches_engine(
            strategy,
            &registry.drain(),
            &seen.lock().unwrap(),
            &final_states(0, &mw),
            mw.stats(),
        );
    }
    assert!(total > 0, "the cells must discard something to test");
}

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

/// A teleporting multi-subject location stream: every ~7th reading
/// violates the speed bound, so each shard sees real discards.
fn location_stream(subjects: usize, per_subject: usize) -> Vec<Context> {
    let mut out = Vec::with_capacity(subjects * per_subject);
    for seq in 0..per_subject {
        for s in 0..subjects {
            let teleport = seq % 7 == 6;
            let x = if teleport { 500.0 } else { seq as f64 * 0.5 };
            out.push(
                Context::builder(ContextKind::new("location"), &format!("subj-{s:02}"))
                    .attr("pos", Point::new(x, 0.0))
                    .attr("seq", seq as i64)
                    .stamp(LogicalTime::new(seq as u64))
                    // Tag the teleports so the oracle (opt-r) also has
                    // something to discard in this stream.
                    .truth(if teleport {
                        TruthTag::Corrupted
                    } else {
                        TruthTag::Expected
                    })
                    .build(),
            );
        }
    }
    out
}

#[test]
fn sharded_discards_are_fully_explainable_for_every_strategy() {
    let contexts = location_stream(12, 21);
    let mut total = 0;
    for strategy in EXPERIMENT_STRATEGIES {
        let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), 4);
        let shards = plan.total_shards();
        let registry = ShardedMiddleware::obs_registry(&plan, ObsConfig::enabled());
        let seen = Arc::new(Mutex::new(Seen::default()));
        let sharded = ShardedMiddleware::new_observed(plan, &registry, |shard, obs| {
            Middleware::builder()
                .constraints(parse_constraints(SPEED).unwrap())
                .strategy(by_name(strategy, 11).expect("experiment strategy"))
                .config(MiddlewareConfig {
                    window: Ticks::new(0),
                    track_ground_truth: false,
                    retention: None,
                })
                .obs(obs)
                .observer(Box::new(Recorder {
                    shard: shard as u32,
                    seen: Arc::clone(&seen),
                }))
                .build()
        });
        sharded.batch_add(&contexts);
        sharded.drain();
        assert_eq!(registry.dropped(), 0, "{strategy}: ring must hold the run");
        let pools: Vec<_> = (0..shards)
            .flat_map(|i| sharded.with_shard(i, |mw| final_states(i as u32, mw)))
            .collect();
        let label = format!("sharded/{strategy}");
        let checked = assert_trace_matches_engine(
            &label,
            &registry.drain(),
            &seen.lock().unwrap(),
            &pools,
            &sharded.stats(),
        );
        assert!(checked > 0, "{label}: the stream must discard something");
        total += checked;
    }
    assert!(total > 0);
}
