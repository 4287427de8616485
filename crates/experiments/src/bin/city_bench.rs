//! City-scale ingestion benchmark: Zipf-skewed traffic from 10^5
//! subjects with churn, streamed in amortized batches through the
//! sharded engine with hot-shard rebalancing between batches, recorded
//! as `BENCH_city.json` (run it from the repo root).
//!
//! Where `shard_bench` measures a dense 32-subject stream (every
//! incremental check quantifies over everyone), this bench measures the
//! regime the arena/SoA pool and the per-subject indexes were built
//! for: a huge sparse population where each reading only ever has to be
//! checked against its own subject's track. The workload comes from
//! [`ctxres_experiments::city`] — deterministic Zipf traffic, subject
//! churn, and a teleport rate that plants genuine speed-constraint
//! violations throughout the trace.
//!
//! Two configurations are timed: the global-mutex engine submitting
//! contexts one at a time (the paper's deployment model), and the
//! sharded engine ingesting via `batch_add` with a periodic rebalancing
//! cycle — every few batches the engine drains, reads per-shard subject
//! loads, asks [`ShardPlan::rebalance`] for a better placement, and
//! applies it before continuing. Both must report the identical
//! inconsistency count.
//!
//! Two further configurations measure **live health telemetry** on the
//! city series, mirroring how `shard_bench` isolates the provenance
//! margin: a metrics-only registry with the health layer switched off
//! (`ObsConfig::metrics_only().with_health(false)` — counters,
//! histograms, and a [`Sampler`] tick per rebalance cycle, but no
//! kind-quality cells or arena/watermark gauges), and the same
//! registry with health on — the exact always-on monitoring
//! configuration the soak harness runs. A fourth configuration adds the
//! **sampled phase profiler** (`with_profile(PROFILE_SAMPLE)`) on top
//! of metrics-only: every [`PROFILE_SAMPLE`]-th root span records full
//! nested phase timings, and the run's aggregated self-time shares are
//! written out as `phase_shares`. All configurations are interleaved
//! within each rep; `obs_health_overhead_pct` and
//! `obs_profile_overhead_pct` are each the **median of paired per-rep
//! ratios** against the metrics-only baseline — the *marginal* cost of
//! that layer, not the price of metrics as a whole — which CI gates
//! under 3% via `bench_report`.
//!
//! A fifth configuration turns on **end-to-end tail telemetry**
//! (`ObsConfig::metrics_only().with_tail(true)`): per-context
//! monotonic span stamps, per-(shard, outcome) log-bucketed
//! histograms, and bounded exemplar reservoirs. Its marginal cost over
//! metrics-only is `obs_tail_overhead_pct` (same paired-median
//! discipline, same <3% gate), and the run's folded histograms yield
//! the gated `e2e_p99_ns` regression series plus reported p50/p95
//! context.
//!
//! Every run appends one [`BenchRecord`] row with `bench: "city"` to
//! `results/bench_history.jsonl` (override with `CTXRES_BENCH_HISTORY`)
//! — a separate series from `shard_throughput`, judged by the same
//! `bench_report` gate. The remaining observability-overhead fields
//! (disabled registry, export, provenance) stay zero/`None`: those
//! configurations are `shard_bench`'s job. `CTXRES_BENCH_QUICK=1`
//! shrinks the workload for CI smoke runs; the shard count comes from
//! the first CLI argument, then `CTXRES_SHARDS`, then a default of 4.

use ctxres_constraint::parse_constraints;
use ctxres_context::{Context, Ticks};
use ctxres_core::strategies::DropBad;
use ctxres_experiments::bench_history::{
    append_history, commit_stamp, history_path_from_env, host_stamp, median_paired_overhead_pct,
    BenchRecord, PhaseShare, ShardThroughput,
};
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_middleware::{
    Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware, SharedMiddleware,
};
use ctxres_obs::{ObsConfig, Sampler, TailSample};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

const DEFAULT_SHARDS: usize = 4;
/// Contexts per `batch_add` call.
const BATCH: usize = 4096;
/// A rebalancing cycle runs every this many batches.
const REBALANCE_EVERY: usize = 8;
/// Shards hotter than this factor × mean load trigger a rebalance.
const HOT_FACTOR: f64 = 1.2;
/// Sliding retention window, in ticks. A city stream never keeps the
/// full history: readings older than this are compacted away, which
/// also bounds the per-subject track each incremental check scans.
const RETENTION: u64 = 512;
/// Timed repetitions of the sharded configuration (best-of for
/// throughput, median-of-paired-ratios for the overhead columns).
/// Seven, not three: single-pass timings on this class of box swing
/// several percent, and the median of three paired ratios inherits
/// enough of that noise to trip the 3% overhead gate on a true ~0%
/// cost. Seven reps roughly halves the median's spread.
const REPS: usize = 7;
/// Root-sampling divisor for the profile-on configuration: every 32nd
/// batch/maintenance root records full nested spans; the rest pay one
/// lock-free counter bump. A divisor of 8 cost >3% of the run once the
/// bare path got fast — the budget is relative, so the divisor scales
/// with the engine. Hundreds of sampled roots per run still give
/// stable shares.
const PROFILE_SAMPLE: u32 = 32;

/// Shard count: first CLI argument, then `CTXRES_SHARDS`, then 4.
fn shard_count() -> usize {
    let parse = |s: String| s.trim().parse::<usize>().ok().filter(|n| *n >= 1);
    std::env::args()
        .nth(1)
        .and_then(parse)
        .or_else(|| std::env::var("CTXRES_SHARDS").ok().and_then(parse))
        .unwrap_or(DEFAULT_SHARDS)
}

fn engine_builder() -> ctxres_middleware::MiddlewareBuilder {
    Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .strategy(Box::new(DropBad::new()))
        .config(MiddlewareConfig {
            window: Ticks::new(0),
            track_ground_truth: false,
            retention: Some(Ticks::new(RETENTION)),
        })
}

/// One sharded ingestion pass over the trace: amortized batches with a
/// rebalancing cycle every [`REBALANCE_EVERY`] batches. With an
/// [`ObsConfig`] the engines run observed — a registry attached to
/// every shard and a [`Sampler`] tick per rebalance cycle, the cadence
/// a live monitor scrapes at; whether the per-kind quality counters
/// and arena/watermark gauges also record is the config's
/// `with_health` lever. Returns the inconsistency count and how many
/// rebalances applied.
fn run_sharded(
    trace: &[Context],
    shards: usize,
    obs: Option<ObsConfig>,
) -> (u64, usize, ShardedMiddleware) {
    let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), shards);
    let (mut sharded, mut sampler) = if let Some(config) = obs {
        let registry = ShardedMiddleware::obs_registry(&plan, config);
        let sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
            engine_builder().obs(obs).build()
        });
        (sharded, Some(Sampler::new(registry)))
    } else {
        let sharded = ShardedMiddleware::new(plan, |_| engine_builder().build());
        (sharded, None)
    };
    let mut rebalances = 0usize;
    for (i, chunk) in trace.chunks(BATCH).enumerate() {
        sharded.batch_add(chunk);
        if (i + 1) % REBALANCE_EVERY == 0 {
            // apply_plan requires drained shards, and rebalancing off
            // stale loads would chase last cycle's traffic anyway.
            sharded.drain();
            let loads = sharded.subject_loads();
            if let Some(new_plan) = sharded.plan().rebalance(&loads, HOT_FACTOR) {
                sharded.apply_plan(new_plan);
                rebalances += 1;
            }
            if let Some(sampler) = &mut sampler {
                let _ = sampler.sample();
            }
        }
    }
    sharded.drain();
    if let Some(sampler) = &mut sampler {
        let _ = sampler.sample();
    }
    let found = sharded.stats().inconsistencies;
    (found, rebalances, sharded)
}

/// Days-since-epoch to civil date (Howard Hinnant's algorithm); avoids
/// pulling in a date crate for one timestamp.
fn today_utc() -> String {
    let days = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_secs() / 86_400)
        .unwrap_or(0) as i64;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Everything one run writes to `BENCH_city.json`.
#[derive(serde::Serialize)]
struct BenchFile {
    bench: String,
    contexts_per_sec: f64,
    shards: usize,
    speedup_vs_mutex: f64,
    subjects: usize,
    zipf_exponent: f64,
    churned_subjects: u64,
    teleports: u64,
    inconsistencies: u64,
    rebalances: usize,
    obs_health_overhead_pct: f64,
    obs_profile_overhead_pct: f64,
    /// Marginal cost of end-to-end tail telemetry over metrics-only.
    obs_tail_overhead_pct: f64,
    /// End-to-end p50 from the tail-on run's folded histograms, ns.
    e2e_p50_ns: Option<f64>,
    /// End-to-end p95 from the tail-on run's folded histograms, ns.
    e2e_p95_ns: Option<f64>,
    /// End-to-end p99 from the tail-on run's folded histograms, ns.
    e2e_p99_ns: Option<f64>,
    phase_shares: Vec<PhaseShare>,
    batch_size: usize,
    commit: String,
    host: String,
    quick: bool,
    contexts: usize,
    date: String,
    per_shard: Vec<ShardThroughput>,
}

fn main() {
    let quick = std::env::var("CTXRES_BENCH_QUICK").is_ok();
    let shards = shard_count();
    let (subjects, total) = if quick {
        (20_000, 80_000)
    } else {
        (100_000, 400_000)
    };
    let cfg = CityConfig {
        subjects,
        ..CityConfig::default()
    };
    let mut city = CityWorkload::new(cfg.clone());
    let trace = city.batch(total);
    let n = trace.len();
    eprintln!(
        "city bench: {n} contexts, {subjects} subjects (zipf {:.1}), {} churned, {} teleports, {shards} shards, best of {REPS}",
        cfg.zipf_exponent,
        city.churned(),
        city.teleports(),
    );

    // Mutex baseline: one rep of one-at-a-time submission under a
    // global lock — the deployment model the paper assumes. One rep
    // suffices; the headline number is the sharded batch rate, and a
    // second baseline rep would double the bench's wall time for a
    // denominator that only feeds `speedup_vs_mutex`.
    let mutex_start = Instant::now();
    let shared = SharedMiddleware::new(engine_builder().build());
    for ctx in &trace {
        shared.lock().submit(ctx.clone());
    }
    shared.lock().drain();
    let mutex_secs = mutex_start.elapsed().as_secs_f64();
    let mutex_found = shared.lock().stats().inconsistencies;
    drop(shared);
    eprintln!("  mutex: {:.1} ctx/s", n as f64 / mutex_secs);

    let mut best_secs = f64::INFINITY;
    let mut shard_found = 0u64;
    let mut metrics_found = 0u64;
    let mut health_found = 0u64;
    let mut profile_found = 0u64;
    let mut tail_found = 0u64;
    let mut rebalances = 0usize;
    let mut last_run: Option<ShardedMiddleware> = None;
    let mut last_profiled: Option<ShardedMiddleware> = None;
    let mut last_tail: Option<ShardedMiddleware> = None;
    let mut metrics_secs = Vec::with_capacity(REPS);
    let mut health_secs = Vec::with_capacity(REPS);
    let mut profile_secs = Vec::with_capacity(REPS);
    let mut tail_secs = Vec::with_capacity(REPS);
    for rep in 0..REPS {
        // All five configurations run back-to-back within each rep, so
        // each paired ratio sees the same machine conditions — the same
        // interleaving discipline `shard_bench` uses for provenance.
        let start = Instant::now();
        let (found, rebs, sharded) = run_sharded(&trace, shards, None);
        let secs = start.elapsed().as_secs_f64();
        best_secs = best_secs.min(secs);
        shard_found = found;
        rebalances = rebs;
        last_run = Some(sharded);

        let start = Instant::now();
        let (found, _, _) = run_sharded(
            &trace,
            shards,
            Some(ObsConfig::metrics_only().with_health(false)),
        );
        let m_secs = start.elapsed().as_secs_f64();
        metrics_found = found;
        metrics_secs.push(m_secs);

        let start = Instant::now();
        let (found, _, _) = run_sharded(&trace, shards, Some(ObsConfig::metrics_only()));
        let h_secs = start.elapsed().as_secs_f64();
        health_found = found;
        health_secs.push(h_secs);

        let start = Instant::now();
        let (found, _, sharded) = run_sharded(
            &trace,
            shards,
            Some(ObsConfig::metrics_only().with_profile(PROFILE_SAMPLE)),
        );
        let p_secs = start.elapsed().as_secs_f64();
        profile_found = found;
        profile_secs.push(p_secs);
        last_profiled = Some(sharded);

        let start = Instant::now();
        let (found, _, sharded) = run_sharded(
            &trace,
            shards,
            Some(ObsConfig::metrics_only().with_tail(true)),
        );
        let t_secs = start.elapsed().as_secs_f64();
        tail_found = found;
        tail_secs.push(t_secs);
        last_tail = Some(sharded);
        eprintln!(
            "  sharded rep {}: {:.1} ctx/s, {rebs} rebalance(s) | metrics: {:.1} ctx/s | +health: {:.1} ctx/s ({:+.2}%) | +profile: {:.1} ctx/s ({:+.2}%) | +tail: {:.1} ctx/s ({:+.2}%)",
            rep + 1,
            n as f64 / secs,
            n as f64 / m_secs,
            n as f64 / h_secs,
            (h_secs / m_secs - 1.0) * 100.0,
            n as f64 / p_secs,
            (p_secs / m_secs - 1.0) * 100.0,
            n as f64 / t_secs,
            (t_secs / m_secs - 1.0) * 100.0,
        );
    }

    assert_eq!(
        mutex_found, shard_found,
        "sharded batch ingestion must find the same inconsistencies as the mutex baseline"
    );
    assert_eq!(
        shard_found, metrics_found,
        "the metrics registry must not change results"
    );
    assert_eq!(
        shard_found, health_found,
        "health telemetry must not change results"
    );
    assert_eq!(
        shard_found, profile_found,
        "the phase profiler must not change results"
    );
    assert_eq!(
        shard_found, tail_found,
        "tail telemetry must not change results"
    );
    assert!(
        shard_found > 0,
        "the city trace plants teleports; a zero count means detection broke"
    );
    let obs_health_overhead_pct = median_paired_overhead_pct(&health_secs, &metrics_secs);
    let obs_profile_overhead_pct = median_paired_overhead_pct(&profile_secs, &metrics_secs);
    let obs_tail_overhead_pct = median_paired_overhead_pct(&tail_secs, &metrics_secs);

    // Self-time shares from the last profiled rep: these feed regression
    // attribution in `bench_report` — when throughput drops, the phase
    // whose share moved the most names the suspect subsystem.
    let phase_shares: Vec<PhaseShare> = {
        let sharded = last_profiled.expect("at least one profiled rep ran");
        let registry = sharded
            .registry()
            .expect("the profiled configuration builds an obs registry");
        let agg = registry.profile_snapshot().aggregate();
        let total_self: u64 = agg.iter().map(|s| s.self_ns).sum();
        let total_self = total_self.max(1) as f64;
        agg.iter()
            .filter(|s| s.calls > 0)
            .map(|s| PhaseShare {
                phase: s.phase.clone(),
                share_pct: round2(s.self_ns as f64 * 100.0 / total_self),
            })
            .collect()
    };

    // End-to-end tail figures from the last tail-on rep: the whole
    // run's folded per-outcome histograms ("since the beginning"), so
    // the quantiles summarize every context the rep ingested.
    let tail_sample = {
        let sharded = last_tail.expect("at least one tail-on rep ran");
        let registry = sharded
            .registry()
            .expect("the tail-on configuration builds an obs registry");
        TailSample::between(None, registry.tail_snapshot())
    };
    let e2e_p50_ns = tail_sample.all.p50_ns.map(round1);
    let e2e_p95_ns = tail_sample.all.p95_ns.map(round1);
    let e2e_p99_ns = tail_sample.all.p99_ns.map(round1);

    let contexts_per_sec = n as f64 / best_secs;
    let speedup = mutex_secs / best_secs;
    eprintln!(
        "mutex: {:.1} ctx/s | sharded({shards}): {:.1} ctx/s | speedup {:.2}x | health overhead {:+.2}% | profile overhead {:+.2}% | tail overhead {:+.2}% | {} inconsistencies | {} rebalances",
        n as f64 / mutex_secs,
        contexts_per_sec,
        speedup,
        obs_health_overhead_pct,
        obs_profile_overhead_pct,
        obs_tail_overhead_pct,
        shard_found,
        rebalances,
    );
    let us = |v: Option<f64>| match v {
        Some(ns) => format!("{:.0}", ns / 1000.0),
        None => "-".to_owned(),
    };
    eprintln!(
        "  e2e tail (µs): p50 {} | p95 {} | p99 {}",
        us(e2e_p50_ns),
        us(e2e_p95_ns),
        us(e2e_p99_ns),
    );
    for s in &phase_shares {
        eprintln!(
            "  phase {:>16}: {:>5.2}% of self-time",
            s.phase, s.share_pct
        );
    }

    // Per-shard breakdown from the last timed run: which shards carried
    // the city after rebalancing settled.
    let per_shard: Vec<ShardThroughput> = {
        let stats = last_run
            .expect("at least one sharded rep ran")
            .shard_stats();
        let total_ingested: u64 = stats.iter().map(|s| s.ingested).sum::<u64>().max(1);
        stats
            .iter()
            .map(|s| {
                let share = s.ingested as f64 / total_ingested as f64;
                ShardThroughput {
                    shard: s.shard,
                    shared_scope: s.shared_scope,
                    ingested: s.ingested,
                    share_pct: round2(share * 100.0),
                    contexts_per_sec: round1(contexts_per_sec * share),
                }
            })
            .collect()
    };
    for s in &per_shard {
        eprintln!(
            "  shard {:>2}{}: {:>7} ingested ({:>5.2}%) ≈ {:.1} ctx/s",
            s.shard,
            if s.shared_scope {
                " (shared-scope)"
            } else {
                ""
            },
            s.ingested,
            s.share_pct,
            s.contexts_per_sec,
        );
    }

    let commit = commit_stamp();
    let host = host_stamp();
    let date = today_utc();

    let file = BenchFile {
        bench: "city".to_owned(),
        contexts_per_sec: round1(contexts_per_sec),
        shards,
        speedup_vs_mutex: round2(speedup),
        subjects,
        zipf_exponent: cfg.zipf_exponent,
        churned_subjects: city.churned(),
        teleports: city.teleports(),
        inconsistencies: shard_found,
        rebalances,
        obs_health_overhead_pct: round2(obs_health_overhead_pct),
        obs_profile_overhead_pct: round2(obs_profile_overhead_pct),
        obs_tail_overhead_pct: round2(obs_tail_overhead_pct),
        e2e_p50_ns,
        e2e_p95_ns,
        e2e_p99_ns,
        phase_shares: phase_shares.clone(),
        batch_size: BATCH,
        commit: commit.clone(),
        host: host.clone(),
        quick,
        contexts: n,
        date: date.clone(),
        per_shard: per_shard.clone(),
    };
    let json = serde_json::to_string_pretty(&file).expect("serialize bench file");
    match std::fs::write("BENCH_city.json", format!("{json}\n")) {
        Ok(()) => eprintln!("wrote BENCH_city.json"),
        Err(e) => eprintln!("could not write BENCH_city.json: {e}"),
    }

    let record = BenchRecord {
        bench: "city".to_owned(),
        commit,
        host,
        date,
        quick,
        shards,
        contexts: n,
        contexts_per_sec: round1(contexts_per_sec),
        speedup_vs_mutex: round2(speedup),
        // Not measured here — zero/None keeps those gates inert for
        // this series (shard_bench owns the disabled/export/provenance
        // overhead measurements).
        obs_overhead_pct: 0.0,
        obs_enabled_overhead_pct: 0.0,
        obs_export_overhead_pct: 0.0,
        obs_prov_overhead_pct: None,
        // Measured above: the marginal cost of the health layer over
        // the metrics-only registry, gated under 3% by bench_report
        // like the other obs overheads.
        obs_health_overhead_pct: Some(round2(obs_health_overhead_pct)),
        // Marginal cost of the sampled phase profiler over the same
        // metrics-only registry, plus the self-time shares the profiler
        // attributed — bench_report uses the shares to name the phase
        // that moved when a regression fires.
        obs_profile_overhead_pct: Some(round2(obs_profile_overhead_pct)),
        // Measured above: the marginal cost of end-to-end tail spans
        // over the same metrics-only registry (absolute <3% gate), the
        // gated p99 regression series with its p50/p95 context.
        obs_tail_overhead_pct: Some(round2(obs_tail_overhead_pct)),
        e2e_p50_ns,
        e2e_p95_ns,
        e2e_p99_ns,
        phase_shares: Some(phase_shares),
        per_shard,
    };
    let history = history_path_from_env();
    match append_history(&history, &record) {
        Ok(()) => eprintln!("appended {} run to {}", record.bench, history.display()),
        Err(e) => eprintln!("could not append bench history: {e}"),
    }

    println!("{json}");
}
