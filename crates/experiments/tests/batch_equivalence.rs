//! Property-based equivalence of batch ingestion.
//!
//! `Middleware::batch_add` runs each context through the per-context
//! routine `submit` runs, adding one health publish and one end-to-end
//! ingress stamp per batch, and `ShardedMiddleware::batch_add_owned`
//! partitions a batch by shard and ingests each shard's chunk on the
//! caller's thread — both with a hard contract: the verdict stream must
//! be **bit-identical** to submitting the same contexts one at a time.
//! These tests drive randomized city-workload batches
//! through all four paper strategies on both engines and require the
//! complete observable record to match — per-context submit reports
//! (collected by an observer on both sides, since `batch_add` returns
//! none), middleware stats, the observer event stream (every
//! submission, detection and use, in order), and the causal provenance
//! chain of every discarded context.

use ctxres_constraint::parse_constraints;
use ctxres_context::{Context, Ticks};
use ctxres_core::strategies::by_name;
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_experiments::explain::render_chain;
use ctxres_middleware::{
    Event, EventLog, Middleware, MiddlewareConfig, MiddlewareObserver, ShardPlan,
    ShardedMiddleware, SubmitReport,
};
use ctxres_obs::{ObsConfig, ProvenanceGraph};
use parking_lot::Mutex;
use proptest::prelude::*;
use std::sync::Arc;

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

const STRATEGIES: [&str; 4] = ["d-bad", "d-lat", "d-all", "opt-r"];

/// A small randomized city trace; tight subject counts keep per-subject
/// tracks long enough that consecutive-pair checks really fire.
fn city_trace(subjects: usize, len: usize, teleport_pct: u32, seed: u64) -> Vec<Context> {
    CityWorkload::new(CityConfig {
        subjects,
        churn_per_event: 0.01,
        teleport_rate: f64::from(teleport_pct) / 100.0,
        ttl_ticks: None,
        seed,
        ..CityConfig::default()
    })
    .batch(len)
}

/// Collects every submit report an engine hands its observers. The
/// engines run without retention, so every submission reaches it.
#[derive(Debug, Default)]
struct Reports(Vec<SubmitReport>);

impl MiddlewareObserver for Reports {
    fn on_submitted(&mut self, report: &SubmitReport, _ctx: &Context) {
        self.0.push(report.clone());
    }
}

/// An engine's observers: its event stream and its submit reports.
struct Observed {
    log: Arc<Mutex<EventLog>>,
    reports: Arc<Mutex<Reports>>,
}

fn engine(strategy: &str, seed: u64, window: u64) -> (Middleware, Observed) {
    let observed = Observed {
        log: Arc::new(Mutex::new(EventLog::new())),
        reports: Arc::default(),
    };
    let mw = Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .strategy(by_name(strategy, seed).expect("known strategy"))
        .config(MiddlewareConfig {
            window: Ticks::new(window),
            track_ground_truth: false,
            retention: None,
        })
        .observer(Box::new(Arc::clone(&observed.log)))
        .observer(Box::new(Arc::clone(&observed.reports)))
        .build();
    (mw, observed)
}

/// Everything a sequential run observably produces. The event stream
/// carries every use record and every detection.
#[derive(Debug, PartialEq)]
struct RunRecord {
    reports: Vec<SubmitReport>,
    stats: ctxres_middleware::MiddlewareStats,
    events: Vec<Event>,
}

fn record(mw: &mut Middleware, observed: &Observed) -> RunRecord {
    mw.drain();
    RunRecord {
        reports: std::mem::take(&mut observed.reports.lock().0),
        stats: *mw.stats(),
        events: observed.log.lock().events().to_vec(),
    }
}

/// The sorted causal chains of every discarded context in a sharded
/// run's trace. Sorted because the merged trace orders one instant's
/// records by shard rather than by arrival; each chain itself is
/// per-context and must match exactly.
fn discarded_chains(registry: &ctxres_obs::ObsRegistry) -> Vec<String> {
    assert_eq!(registry.dropped(), 0, "ring must hold the whole run");
    let trace = registry.drain();
    let graph = ProvenanceGraph::from_records(&trace);
    let mut chains: Vec<String> = graph.discarded().iter().map(|n| render_chain(n)).collect();
    chains.sort();
    chains
}

/// One sharded run; `ingest` performs the actual submission.
#[allow(clippy::type_complexity)]
fn sharded_run(
    strategy: &str,
    seed: u64,
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
                retention: None,
            })
            .obs(obs)
            .build()
    });
    ingest(&sharded);
    sharded.drain();
    (
        sharded.stats(),
        sharded.signature(),
        discarded_chains(&registry),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// `Middleware::batch_add` produces the identical verdict stream to
    /// one-at-a-time submission: same per-context reports, stats, use
    /// log, detections, and observer events, across randomized city
    /// traces cut into random chunk sizes, all four strategies.
    #[test]
    fn sequential_batch_add_matches_one_at_a_time(
        subjects in 6usize..40,
        len in 60usize..220,
        teleport_pct in 5u32..30,
        seed in 0u64..1000,
        window in 0u64..3,
        chunk in 1usize..80,
    ) {
        let trace = city_trace(subjects, len, teleport_pct, seed);
        for strategy in STRATEGIES {
            let (mut one, one_observed) = engine(strategy, seed, window);
            for c in &trace {
                one.submit(c.clone());
            }
            let one_rec = record(&mut one, &one_observed);

            let (mut batched, batch_observed) = engine(strategy, seed, window);
            for c in trace.chunks(chunk) {
                batched.batch_add(c.to_vec());
            }
            let batch_rec = record(&mut batched, &batch_observed);
            prop_assert_eq!(batch_rec.reports.len(), trace.len());

            prop_assert_eq!(
                &one_rec, &batch_rec,
                "batch_add diverged from sequential submission for {}", strategy
            );
        }
    }

    /// `ShardedMiddleware::batch_add_owned` agrees with per-context
    /// `submit` on stats, the pool signature, and the causal provenance
    /// chain of every discarded context.
    #[test]
    fn sharded_batch_add_matches_sequential_submission(
        subjects in 6usize..30,
        len in 60usize..180,
        teleport_pct in 5u32..30,
        seed in 0u64..1000,
    ) {
        let trace = city_trace(subjects, len, teleport_pct, seed);
        for strategy in STRATEGIES {
            let (seq_stats, seq_sig, seq_chains) = sharded_run(strategy, seed, |s| {
                for ctx in &trace {
                    s.submit(ctx.clone());
                }
            });
            let (bat_stats, bat_sig, bat_chains) = sharded_run(strategy, seed, |s| {
                s.batch_add_owned(trace.clone());
            });
            prop_assert_eq!(seq_stats, bat_stats, "stats diverged for {}", strategy);
            prop_assert_eq!(seq_sig, bat_sig, "pool signature diverged for {}", strategy);
            prop_assert_eq!(
                seq_chains, bat_chains,
                "provenance chains diverged for {}", strategy
            );
        }
    }
}

/// A fixed high-teleport cell as a plain test, so the contract is also
/// exercised on every `cargo test` without the proptest feature dance.
#[test]
fn batch_equivalence_smoke() {
    let trace = city_trace(12, 240, 20, 42);
    for strategy in STRATEGIES {
        let (mut one, one_observed) = engine(strategy, 42, 0);
        for c in &trace {
            one.submit(c.clone());
        }
        let one_rec = record(&mut one, &one_observed);
        assert!(
            one_rec.stats.inconsistencies > 0,
            "{strategy}: the cell must detect something to be a real test"
        );
        assert_eq!(one_rec.reports.len(), trace.len(), "{strategy}");

        let (mut batched, batch_observed) = engine(strategy, 42, 0);
        batched.batch_add(trace.clone());
        let batch_rec = record(&mut batched, &batch_observed);
        assert_eq!(one_rec, batch_rec, "{strategy}");
    }
}
