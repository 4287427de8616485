//! Property-based equivalence of the batch-fused checking path.
//!
//! With per-subject universal-positive constraints, `batch_add` fuses
//! the whole batch: set-pinned speculative checking and deferred index
//! maintenance replace the per-context pipeline. The contract is the
//! same hard one the plain batch path carries — the verdict stream must
//! be **bit-identical** to the unfused path — but here the
//! configurations deliberately turn on everything whose *timing* the
//! fusion reorders: retention compaction (every path removes contexts
//! by doom notes, which must fire at the same positions on both —
//! `DropBad`'s Δ-member dereferences observe them — and
//! `doom_notes_leave_nothing_for_a_compact_sweep` checks the notes
//! themselves against a `ContextPool::compact` sweep), finite TTLs, the
//! ground-truth shadow pool, situation rounds with the dirty-kind cache,
//! and interleaved irrelevant-kind contexts.
//!
//! Compared per run: submit reports, middleware stats (including the
//! `compacted` tally), use log, detections, observer events, checker
//! stats, the full trace-event record, the provenance chains of every
//! discarded context, and every pre-fusion observability counter. The
//! memo-table counters (`pred_memo_*`, `fused_batch_evals`) are
//! excluded — they exist only on the fused path by construction.

use ctxres_constraint::parse_constraints;
use ctxres_context::{Context, ContextKind, Ticks};
use ctxres_core::strategies::by_name;
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_experiments::explain::render_chain;
use ctxres_middleware::{
    Event, EventLog, Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware, SubmitReport,
    UseRecord,
};
use ctxres_obs::{CounterKind, ObsConfig, ObsRegistry, ProvenanceGraph, TraceRecord};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

const NEAR_ORIGIN: &str = "constraint near_origin:
    exists a: location . within(a, -5.0, -5.0, 5.0, 5.0)";

const STRATEGIES: [&str; 4] = ["d-bad", "d-lat", "d-all", "opt-r"];

/// Counters that exist on both paths and therefore must match. The
/// fused-only memo counters are deliberately absent.
const SHARED_COUNTERS: [CounterKind; 11] = [
    CounterKind::EventsRecorded,
    CounterKind::EventsDropped,
    CounterKind::Detections,
    CounterKind::Discards,
    CounterKind::Deliveries,
    CounterKind::Ingested,
    CounterKind::SituationEvals,
    CounterKind::SituationCacheSkips,
    CounterKind::CompiledEvals,
    CounterKind::ProvEdges,
    CounterKind::ProvNodes,
];

/// A randomized city trace with finite TTLs, salted with irrelevant
/// `temperature` contexts (every 7th position) so fused batches mix
/// fast-path and checked positions.
fn city_trace(subjects: usize, len: usize, teleport_pct: u32, ttl: u64, seed: u64) -> Vec<Context> {
    let base = CityWorkload::new(CityConfig {
        subjects,
        churn_per_event: 0.01,
        teleport_rate: f64::from(teleport_pct) / 100.0,
        ttl_ticks: Some(ttl),
        seed,
        ..CityConfig::default()
    })
    .batch(len);
    let mut out = Vec::with_capacity(base.len() + base.len() / 7);
    for (i, ctx) in base.into_iter().enumerate() {
        if i % 7 == 3 {
            out.push(
                Context::builder(ContextKind::new("temperature"), "room-7")
                    .attr("seq", i as i64)
                    .stamp(ctx.stamp())
                    .build(),
            );
        }
        out.push(ctx);
    }
    out
}

struct Engine {
    mw: Middleware,
    log: Arc<Mutex<EventLog>>,
    registry: Arc<ObsRegistry>,
}

fn engine(strategy: &str, seed: u64, window: u64, retention: u64, fused: bool) -> Engine {
    let log = Arc::new(Mutex::new(EventLog::new()));
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    let mw = Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .situations(parse_constraints(NEAR_ORIGIN).unwrap())
        .strategy(by_name(strategy, seed).expect("known strategy"))
        .config(MiddlewareConfig {
            window: Ticks::new(window),
            track_ground_truth: true,
            retention: Some(Ticks::new(retention)),
        })
        .observer(Box::new(Arc::clone(&log)))
        .obs(registry.handle(0))
        .fused(fused)
        .build();
    Engine { mw, log, registry }
}

/// Everything a run observably produces (the fused-only counters
/// excepted).
#[derive(Debug, PartialEq)]
struct RunRecord {
    reports: Vec<SubmitReport>,
    stats: ctxres_middleware::MiddlewareStats,
    checker: ctxres_constraint::CheckerStats,
    uses: Vec<UseRecord>,
    detections: Vec<String>,
    events: Vec<Event>,
    trace: Vec<TraceRecord>,
    chains: Vec<String>,
    counters: Vec<u64>,
}

fn record(mut engine: Engine, reports: Vec<SubmitReport>) -> RunRecord {
    engine.mw.drain();
    assert_eq!(engine.registry.dropped(), 0, "ring must hold the whole run");
    let trace = engine.registry.drain();
    let graph = ProvenanceGraph::from_records(&trace);
    let mut chains: Vec<String> = graph.discarded().iter().map(|n| render_chain(n)).collect();
    chains.sort();
    let snapshot = engine.registry.snapshot();
    let merged = snapshot.aggregate();
    RunRecord {
        reports,
        stats: *engine.mw.stats(),
        checker: engine.mw.checker_stats(),
        uses: engine.mw.use_log().to_vec(),
        detections: engine
            .mw
            .detections()
            .iter()
            .map(|d| d.to_string())
            .collect(),
        events: engine.log.lock().events().to_vec(),
        trace,
        chains,
        counters: SHARED_COUNTERS.iter().map(|k| merged.counter(*k)).collect(),
    }
}

fn fused_vs_unfused(trace: &[Context], strategy: &str, seed: u64, window: u64, retention: u64) {
    let mut unfused = engine(strategy, seed, window, retention, false);
    let unfused_reports: Vec<SubmitReport> = trace
        .iter()
        .cloned()
        .map(|c| unfused.mw.submit(c))
        .collect();
    let unfused_rec = record(unfused, unfused_reports);

    let mut fused = engine(strategy, seed, window, retention, true);
    let fused_reports = fused.mw.batch_add(trace.to_vec());
    let fused_rec = record(fused, fused_reports);

    assert_eq!(
        unfused_rec, fused_rec,
        "fused batch_add diverged from unfused sequential submission for {strategy}"
    );
}

/// One sharded run with per-shard fused flag; `ingest` performs the
/// actual submission.
#[allow(clippy::type_complexity)]
fn sharded_run(
    strategy: &str,
    seed: u64,
    retention: u64,
    fused: bool,
    ingest: impl FnOnce(&ShardedMiddleware),
) -> (
    ctxres_middleware::MiddlewareStats,
    Vec<(
        ctxres_context::ContextKind,
        String,
        ctxres_context::LogicalTime,
        ctxres_context::ContextState,
    )>,
    Vec<String>,
    Vec<u64>,
) {
    let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), 4);
    let registry = ShardedMiddleware::obs_registry(&plan, ObsConfig::enabled());
    let sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
        Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(by_name(strategy, seed).expect("known strategy"))
            .config(MiddlewareConfig {
                window: Ticks::new(0),
                track_ground_truth: false,
                retention: Some(Ticks::new(retention)),
            })
            .obs(obs)
            .fused(fused)
            .build()
    });
    ingest(&sharded);
    sharded.drain();
    assert_eq!(registry.dropped(), 0, "ring must hold the whole run");
    let trace = registry.drain();
    let graph = ProvenanceGraph::from_records(&trace);
    let mut chains: Vec<String> = graph.discarded().iter().map(|n| render_chain(n)).collect();
    chains.sort();
    let merged = registry.snapshot().aggregate();
    (
        sharded.stats(),
        sharded.signature(),
        chains,
        SHARED_COUNTERS.iter().map(|k| merged.counter(*k)).collect(),
    )
}

/// Doom notes are the engine's only retention mechanism, so a
/// [`ContextPool::compact`](ctxres_context::ContextPool::compact) sweep
/// at the retention horizon is their oracle: run over a copy of the
/// pool, it must find nothing the notes left behind.
fn assert_nothing_to_compact(mw: &Middleware, retention: u64, path: &str) {
    let now = mw.now().tick();
    if now > retention {
        let horizon = ctxres_context::LogicalTime::new(now - retention);
        let left = mw.pool().clone().compact(horizon);
        assert_eq!(
            left, 0,
            "{path}: {left} compactable contexts left at t{now}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Every ingest path retains by doom notes alone: after each
    /// `submit`, unfused `batch_add`, fused `batch_add` and the final
    /// drain, a compaction sweep at the retention horizon removes
    /// nothing — under TTLs, ground truth, situations and all four
    /// strategies.
    #[test]
    fn doom_notes_leave_nothing_for_a_compact_sweep(
        subjects in 4usize..24,
        len in 60usize..200,
        teleport_pct in 5u32..30,
        ttl in 10u64..50,
        retention in 8u64..40,
        seed in 0u64..1000,
        window in 0u64..3,
        batch in 1usize..40,
    ) {
        let trace = city_trace(subjects, len, teleport_pct, ttl, seed);
        for strategy in STRATEGIES {
            let mut single = engine(strategy, seed, window, retention, false);
            for ctx in trace.iter().cloned() {
                single.mw.submit(ctx);
                assert_nothing_to_compact(&single.mw, retention, "submit");
            }
            single.mw.drain();
            assert_nothing_to_compact(&single.mw, retention, "submit drain");
            for fused in [false, true] {
                let mut batched = engine(strategy, seed, window, retention, fused);
                for chunk in trace.chunks(batch) {
                    batched.mw.batch_add(chunk.to_vec());
                    assert_nothing_to_compact(&batched.mw, retention, "batch_add");
                }
                batched.mw.drain();
                assert_nothing_to_compact(&batched.mw, retention, "batch_add drain");
            }
        }
    }

    /// Fused `batch_add` produces the identical verdict stream to
    /// unfused one-at-a-time submission under retention compaction,
    /// TTL'd contexts, ground-truth tracking, situations, and mixed
    /// relevant/irrelevant kinds, across all four strategies.
    #[test]
    fn fused_batch_add_matches_unfused_sequential(
        subjects in 4usize..24,
        len in 60usize..200,
        teleport_pct in 5u32..30,
        ttl in 10u64..50,
        retention in 8u64..40,
        seed in 0u64..1000,
        window in 0u64..3,
    ) {
        let trace = city_trace(subjects, len, teleport_pct, ttl, seed);
        for strategy in STRATEGIES {
            fused_vs_unfused(&trace, strategy, seed, window, retention);
        }
    }

    /// The sharded engine with fused shard engines agrees with the
    /// sharded engine with unfused ones on stats, pool signatures,
    /// provenance chains, and counters.
    #[test]
    fn sharded_fused_matches_sharded_unfused(
        subjects in 4usize..20,
        len in 60usize..160,
        teleport_pct in 5u32..30,
        ttl in 10u64..50,
        retention in 8u64..40,
        seed in 0u64..1000,
    ) {
        let trace = city_trace(subjects, len, teleport_pct, ttl, seed);
        for strategy in STRATEGIES {
            let (a_stats, a_sig, a_chains, a_counters) =
                sharded_run(strategy, seed, retention, false, |s| {
                    s.batch_add_owned(trace.clone());
                });
            let (b_stats, b_sig, b_chains, b_counters) =
                sharded_run(strategy, seed, retention, true, |s| {
                    s.batch_add_owned(trace.clone());
                });
            prop_assert_eq!(a_stats, b_stats, "stats diverged for {}", strategy);
            prop_assert_eq!(a_sig, b_sig, "pool signature diverged for {}", strategy);
            prop_assert_eq!(a_chains, b_chains, "provenance chains diverged for {}", strategy);
            prop_assert_eq!(a_counters, b_counters, "counters diverged for {}", strategy);
        }
    }
}

/// A fixed cell that provably exercises the machinery under test:
/// detections fire, retention compaction removes contexts (so the doom
/// notes and the sequential sweeps must agree on removal positions),
/// and duplicate subjects land in single subject groups.
#[test]
fn fused_equivalence_smoke() {
    let trace = city_trace(8, 400, 20, 24, 42);
    for strategy in STRATEGIES {
        let mut unfused = engine(strategy, 42, 0, 16, false);
        let unfused_reports: Vec<SubmitReport> = trace
            .iter()
            .cloned()
            .map(|c| unfused.mw.submit(c))
            .collect();
        let unfused_rec = record(unfused, unfused_reports);
        assert!(
            unfused_rec.stats.inconsistencies > 0,
            "{strategy}: the cell must detect something to be a real test"
        );
        assert!(
            unfused_rec.stats.compacted > 0,
            "{strategy}: the cell must compact something to exercise doom notes"
        );

        let mut fused = engine(strategy, 42, 0, 16, true);
        let fused_reports = fused.mw.batch_add(trace.clone());
        let fused_rec = record(fused, fused_reports);
        assert_eq!(unfused_rec, fused_rec, "{strategy}");
    }
}

/// Ineligible constraint sets (here: an existential situation deployed
/// *as a constraint*, which is not universal-positive) silently fall
/// back to the unfused batch path — same verdicts, no fused counters.
#[test]
fn ineligible_constraints_fall_back_to_unfused() {
    let constraints = format!("{SPEED}\n{NEAR_ORIGIN}");
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    let mut mw = Middleware::builder()
        .constraints(parse_constraints(&constraints).unwrap())
        .strategy(by_name("d-lat", 1).expect("known strategy"))
        .obs(registry.handle(0))
        .fused(true)
        .build();
    mw.batch_add(city_trace(6, 120, 20, 30, 7));
    mw.drain();
    let merged = registry.snapshot().aggregate();
    assert_eq!(
        merged.counter(CounterKind::FusedBatchEvals),
        0,
        "ineligible constraint set must not take the fused path"
    );
}

/// Eligible runs actually take the fused path and the memo table
/// actually serves hits (the counters the unfused path never emits).
/// Every SPEED predicate reads the pinned slot, so that constraint
/// bypasses the memo by design; the guard `has_attr(b, "pos")` reads
/// only the unpinned slot and is the class of site the memo serves.
#[test]
fn fused_path_reports_memo_counters() {
    let guarded = "constraint guarded:
        forall a: location, b: location .
          (same_subject(a, b) and seq_gap(a, b, 1) and has_attr(b, \"pos\"))
          implies velocity_le(a, b, 1.5)";
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    let mut mw = Middleware::builder()
        .constraints(parse_constraints(guarded).unwrap())
        .strategy(by_name("d-bad", 1).expect("known strategy"))
        .obs(registry.handle(0))
        .fused(true)
        .build();
    mw.batch_add(city_trace(6, 200, 20, 60, 9));
    mw.drain();
    let merged = registry.snapshot().aggregate();
    assert_eq!(merged.counter(CounterKind::FusedBatchEvals), 1);
    assert!(
        merged.counter(CounterKind::PredMemoMisses) > 0,
        "pin-free sites must populate the memo"
    );
    assert!(
        merged.counter(CounterKind::PredMemoHits) > 0,
        "repeat subjects must replay memoized verdicts"
    );
}
