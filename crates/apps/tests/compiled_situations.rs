//! The compiled situation path must agree with the tree-walking
//! evaluator on the applications' real situations and streams.
//!
//! Each deployment's generated stream is replayed into a bare pool one
//! arrival at a time, with contexts older than [`RETENTION`] ticks
//! compacted out as the middleware's retention would. After every
//! arrival each situation is evaluated twice: through
//! `CompiledEvaluator::holds`, the path the middleware takes
//! (subject-guarded quantifiers read one subject's bucket, connectives
//! short-circuit), and through `Evaluator::check`, the tree-walking
//! reference. The two verdicts must be equal at every step.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::location_tracking::LocationTracking;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::smart_ringer::SmartRinger;
use ctxres_apps::PervasiveApp;
use ctxres_constraint::{
    CompiledConstraint, CompiledEvaluator, Constraint, DomainMode, EvalScratch, Evaluator,
    PredicateRegistry,
};
use ctxres_context::{Context, ContextPool, ContextState, LogicalTime};

const ERR_RATE: f64 = 0.3;
const SEED: u64 = 7;
const LEN: usize = 300;

/// Contexts older than this many ticks are compacted out at every tick
/// boundary, so the pool stays the size the middleware would keep.
const RETENTION: u64 = 10;

/// Replays `stream` and asserts, after every arrival, that both
/// evaluation paths agree on every situation. Returns how many
/// (arrival, situation) verdicts held.
fn assert_paths_agree(
    name: &str,
    situations: &[Constraint],
    registry: &PredicateRegistry,
    stream: Vec<Context>,
) -> usize {
    let compiled: Vec<CompiledConstraint> =
        situations.iter().map(CompiledConstraint::compile).collect();
    let naive = Evaluator::with_domain(registry, DomainMode::AvailableOnly);
    let fast = CompiledEvaluator::with_domain(registry, DomainMode::AvailableOnly);
    let mut scratch = EvalScratch::new();
    let mut pool = ContextPool::new();
    let mut now = LogicalTime::ZERO;
    let mut last_compact = 0u64;
    let mut held = 0;
    for (step, ctx) in stream.into_iter().enumerate() {
        if ctx.stamp() > now {
            now = ctx.stamp();
            if now.tick() >= last_compact + RETENTION && now.tick() > RETENTION {
                pool.compact(LogicalTime::new(now.tick() - RETENTION));
                last_compact = now.tick();
            }
        }
        let id = pool.insert(ctx);
        pool.set_state(id, ContextState::Consistent)
            .expect("undecided contexts accept the consistent state");
        for (situation, program) in situations.iter().zip(&compiled) {
            let expected = naive
                .check(situation, &pool, now)
                .expect("app situations evaluate")
                .satisfied;
            let got = fast
                .holds(program, &pool, now, &mut scratch)
                .expect("app situations evaluate");
            assert_eq!(
                got,
                expected,
                "{name}: situation `{}` after arrival {step}",
                situation.name()
            );
            held += usize::from(got);
        }
    }
    held
}

#[test]
fn each_app_compiled_situations_match_the_tree_walker() {
    let apps: [Box<dyn PervasiveApp>; 4] = [
        Box::new(CallForwarding::new()),
        Box::new(RfidAnomalies::new()),
        Box::new(LocationTracking::new()),
        Box::new(SmartRinger::new()),
    ];
    for app in &apps {
        let held = assert_paths_agree(
            app.name(),
            &app.situations(),
            &app.registry(),
            app.generate(ERR_RATE, SEED, LEN),
        );
        assert!(held > 0, "{}: no situation ever held", app.name());
    }
}

#[test]
fn merged_figure_apps_compiled_situations_match_the_tree_walker() {
    // Both figure applications over one pool, their streams merged by
    // stamp: every arrival refreshes both applications' situations. The
    // sort is stable, so arrivals within a tick keep each app's order.
    let apps: [Box<dyn PervasiveApp>; 2] = [
        Box::new(CallForwarding::new()),
        Box::new(RfidAnomalies::new()),
    ];
    let mut situations = Vec::new();
    let mut stream = Vec::new();
    for app in &apps {
        situations.extend(app.situations());
        stream.extend(app.generate(ERR_RATE, SEED, LEN));
    }
    stream.sort_by_key(Context::stamp);
    // The situations use only builtin predicates, so one builtins
    // registry serves both applications.
    let registry = PredicateRegistry::with_builtins();
    let held = assert_paths_agree("figure9+figure10", &situations, &registry, stream);
    assert!(held > 0, "no situation ever held");
}
