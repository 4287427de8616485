//! Doom notes are the engine's only retention mechanism: each context
//! is noted with the first instant a retention sweep could remove it,
//! and `process_due` pops the due notes instead of scanning the pool.
//! A [`ContextPool::compact`](ctxres_context::ContextPool::compact)
//! sweep at the retention horizon is their oracle — run over a copy of
//! the pool after every ingest call, it must find nothing the notes
//! left behind, whether the contexts arrived by `submit` or by
//! `batch_add` in chunks of any size.
//!
//! The configurations turn on everything that schedules or triggers a
//! removal: finite TTLs, the ground-truth shadow pool, situation
//! rounds, interleaved irrelevant-kind contexts, and all four paper
//! strategies (whose discards are the other source of doom notes).

use ctxres_constraint::parse_constraints;
use ctxres_context::{Context, ContextKind, Ticks};
use ctxres_core::strategies::by_name;
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_middleware::{Middleware, MiddlewareConfig};
use ctxres_obs::{ObsConfig, ObsRegistry};
use proptest::prelude::*;

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

const NEAR_ORIGIN: &str = "constraint near_origin:
    exists a: location . within(a, -5.0, -5.0, 5.0, 5.0)";

const STRATEGIES: [&str; 4] = ["d-bad", "d-lat", "d-all", "opt-r"];

/// A randomized city trace with finite TTLs, salted with irrelevant
/// `temperature` contexts (every 7th position) so batches mix
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

/// A retaining engine with situations, ground truth and full tracing.
fn engine(strategy: &str, seed: u64, window: u64, retention: u64) -> Middleware {
    let registry = ObsRegistry::shared(ObsConfig::enabled(), 1);
    Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .situations(parse_constraints(NEAR_ORIGIN).unwrap())
        .strategy(by_name(strategy, seed).expect("known strategy"))
        .config(MiddlewareConfig {
            window: Ticks::new(window),
            track_ground_truth: true,
            retention: Some(Ticks::new(retention)),
        })
        .obs(registry.handle(0))
        .build()
}

/// The oracle: a compaction sweep over a copy of the pool at the
/// retention horizon removes nothing.
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

    /// Every ingest call retains by doom notes alone: after each
    /// `submit`, each `batch_add` of a random chunk size, and the final
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
            let mut single = engine(strategy, seed, window, retention);
            for ctx in trace.iter().cloned() {
                single.submit(ctx);
                assert_nothing_to_compact(&single, retention, "submit");
            }
            single.drain();
            assert_nothing_to_compact(&single, retention, "submit drain");
            let mut batched = engine(strategy, seed, window, retention);
            for chunk in trace.chunks(batch) {
                batched.batch_add(chunk.to_vec());
                assert_nothing_to_compact(&batched, retention, "batch_add");
            }
            batched.drain();
            assert_nothing_to_compact(&batched, retention, "batch_add drain");
        }
    }
}
