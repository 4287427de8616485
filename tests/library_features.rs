//! Integration smoke tests for the library's supporting features, used
//! through the umbrella crate the way a downstream application would.

use ctxres::apps::{impact_profile, PervasiveApp};
use ctxres::constraint::{
    parse_constraints, parse_formula, simplify, validate, AttrType, ContextSchema,
    PredicateRegistry,
};
use ctxres::context::{Context, ContextKind, LogicalTime, Ticks};
use ctxres::core::strategies::{DropBad, ImpactAwareDropBad};
use ctxres::core::ResolutionStrategy;
use ctxres::middleware::{EventLog, Middleware, MiddlewareConfig, SubscriptionFilter};
use ctxres::obs::{CauseKind, ObsConfig, ObsRegistry, ProvenanceGraph};

#[test]
fn schema_validation_through_the_umbrella() {
    let mut schema = ContextSchema::new();
    schema.kind("badge").attr("room", AttrType::Text);
    let registry = PredicateRegistry::with_builtins();
    let good =
        parse_constraints("constraint ok: forall b: badge . eq(b.room, \"office\")").unwrap();
    assert!(validate(&good, &schema, &registry).is_empty());
    let bad = parse_constraints("constraint nope: forall b: badge . eq(b.floor, 3)").unwrap();
    assert_eq!(validate(&bad, &schema, &registry).len(), 1);
}

#[test]
fn simplifier_through_the_umbrella() {
    let f = parse_formula("not not (true and (false or p()))").unwrap();
    assert_eq!(simplify(f).to_string(), "p()");
}

#[test]
fn explanations_journal_a_full_run() {
    // Every discard of an observed run is explained by its node in the
    // run's provenance graph: a verdict edge that cites count evidence.
    let app = ctxres::apps::call_forwarding::CallForwarding::new();
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    let mut mw = Middleware::builder()
        .constraints(app.constraints())
        .registry(app.registry())
        .strategy(Box::new(DropBad::new()))
        .config(MiddlewareConfig {
            window: Ticks::new(app.recommended_window()),
            track_ground_truth: false,
            retention: None,
        })
        .obs(registry.handle(0))
        .build();
    for ctx in app.generate(0.3, 1, 80) {
        mw.submit(ctx);
    }
    mw.drain();
    let graph = ProvenanceGraph::from_records(&registry.drain());
    let discarded = graph.discarded();
    assert!(!discarded.is_empty(), "err 0.3 must discard something");
    assert_eq!(discarded.len() as u64, mw.stats().discarded);
    for node in discarded {
        assert!(node.completeness_gaps().is_empty(), "{}", node.id);
        let verdict = node.verdict_edge().expect("a verdict edge");
        assert_eq!(verdict.cause, CauseKind::ResolvedBecause, "{}", node.id);
        assert!(verdict.count.is_some(), "{}: no count evidence", node.id);
    }
}

#[test]
fn impact_aware_strategy_builds_from_situations() {
    let app = ctxres::apps::rfid_anomalies::RfidAnomalies::new();
    let strategy = ImpactAwareDropBad::new(impact_profile(&app.situations()));
    assert_eq!(strategy.name(), "d-bad-impact");
    let promo = Context::builder(ContextKind::new("rfid_read"), "tag-0").build();
    assert_eq!(strategy.profile().impact_of(&promo), 2);
}

#[test]
fn shared_middleware_with_observer_and_subscription() {
    let log = std::sync::Arc::new(parking_lot::Mutex::new(EventLog::new()));
    let mw = Middleware::builder()
        .strategy(Box::new(DropBad::new()))
        .config(MiddlewareConfig {
            window: Ticks::new(0),
            track_ground_truth: false,
            retention: None,
        })
        .observer(Box::new(std::sync::Arc::clone(&log)))
        .build();
    // One lock around one engine: a scoped thread pumps a channel into
    // it while this thread produces and then polls the subscription.
    let shared = parking_lot::Mutex::new(mw);
    let feed = shared
        .lock()
        .subscribe(SubscriptionFilter::all().of_kind("badge"));

    let (tx, rx) = crossbeam::channel::unbounded();
    let pumped = std::thread::scope(|scope| {
        let pump = scope.spawn(|| {
            let mut pumped = 0;
            for ctx in rx {
                shared.lock().submit(ctx);
                pumped += 1;
            }
            pumped
        });
        for i in 0..10u64 {
            tx.send(
                Context::builder(ContextKind::new("badge"), "peter")
                    .attr("room", "office")
                    .stamp(LogicalTime::new(i))
                    .build(),
            )
            .unwrap();
        }
        drop(tx);
        pump.join().unwrap()
    });
    assert_eq!(pumped, 10);
    shared.lock().drain();
    assert_eq!(shared.lock().poll(feed).len(), 10);
    assert!(!log.lock().events().is_empty());
}
