//! Measures sharded-engine ingestion throughput against the
//! global-mutex baseline and records the result as
//! `BENCH_shard_throughput.json` (run it from the repo root).
//!
//! The workload is a synthetic 32-subject location stream under the
//! paper's speed constraint: with one engine every incremental check
//! quantifies over the whole population, while `shards` subject shards
//! cut each check's quantifier domain proportionally — so the sharded
//! engine wins even on a single core. The shard count comes from the
//! first CLI argument, then `CTXRES_SHARDS`, then a default of 4, and
//! is recorded in the JSON.
//!
//! Six configurations are timed: the mutex baseline, the bare sharded
//! engine, the sharded engine with a *disabled* observability registry
//! (`obs_overhead_pct` — the cost every deployment pays), with tracing
//! on but provenance off (`obs_enabled_overhead_pct`), with tracing
//! *and* causal-provenance emission on (`obs_prov_overhead_pct` — the
//! marginal cost of the explain pipeline, measured against the
//! tracing-only configuration; CI gates it under 3%), and with the
//! **live export pipeline** — a metrics-only registry behind a real
//! `/metrics` HTTP endpoint being scraped from another thread
//! throughout the run (`obs_export_overhead_pct`, measured against the
//! obs-disabled configuration; CI gates it under 3%).
//!
//! Every run also appends one [`BenchRecord`] row — commit, host, date,
//! per-shard ingest breakdown — to `results/bench_history.jsonl`
//! (override with `CTXRES_BENCH_HISTORY`), the series `bench_report`
//! judges for regressions. The final scrape of the live endpoint lands
//! in `results/metrics_snapshot.txt`. `CTXRES_BENCH_QUICK=1` shrinks
//! the workload for CI smoke runs; `CTXRES_METRICS_ADDR` pins the
//! export endpoint to a fixed address (default: an ephemeral port).

use ctxres_constraint::parse_constraints;
use ctxres_context::{Context, ContextKind, LogicalTime, Point, Ticks};
use ctxres_core::strategies::DropBad;
use ctxres_experiments::bench_history::{
    append_history, commit_stamp, history_path_from_env, host_stamp, median_paired_overhead_pct,
    BenchRecord, ShardThroughput,
};
use ctxres_middleware::{
    Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware, SharedMiddleware,
};
use ctxres_obs::{MetricsServer, ObsConfig, METRICS_ADDR_ENV};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

const DEFAULT_SHARDS: usize = 4;
const REPS: usize = 7;

/// Shard count: first CLI argument, then `CTXRES_SHARDS`, then 4.
fn shard_count() -> usize {
    let parse = |s: String| s.trim().parse::<usize>().ok().filter(|n| *n >= 1);
    std::env::args()
        .nth(1)
        .and_then(parse)
        .or_else(|| std::env::var("CTXRES_SHARDS").ok().and_then(parse))
        .unwrap_or(DEFAULT_SHARDS)
}

fn trace(subjects: usize, per_subject: usize) -> Vec<Context> {
    let mut out = Vec::with_capacity(subjects * per_subject);
    for seq in 0..per_subject {
        for s in 0..subjects {
            // Every ~10th reading teleports, violating the speed bound.
            let x = if seq % 10 == 9 {
                400.0
            } else {
                seq as f64 * 0.5
            };
            out.push(
                Context::builder(ContextKind::new("location"), &format!("subj-{s:02}"))
                    .attr("pos", Point::new(x, 0.0))
                    .attr("seq", seq as i64)
                    .stamp(LogicalTime::new(seq as u64))
                    .build(),
            );
        }
    }
    out
}

fn engine_builder() -> ctxres_middleware::MiddlewareBuilder {
    Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .strategy(Box::new(DropBad::new()))
        .config(MiddlewareConfig {
            window: Ticks::new(0),
            track_ground_truth: false,
            retention: None,
        })
}

fn engine() -> Middleware {
    engine_builder().build()
}

/// Per-configuration timing: best-of-`REPS` seconds (for throughput
/// claims), the inconsistency count, and every individual rep time
/// (for paired overhead ratios).
struct Timed {
    best_secs: f64,
    found: u64,
    rep_secs: Vec<f64>,
}

impl Timed {
    fn fresh() -> Self {
        Timed {
            best_secs: f64::INFINITY,
            found: 0,
            rep_secs: Vec::with_capacity(REPS),
        }
    }
}

/// Times `reps` more repetitions per configuration, accumulating into
/// `results` (same index order as `configs`); fresh engines each rep
/// so no run benefits from a warm pool.
///
/// Reps are **interleaved round-robin** across all configurations
/// rather than timed in per-config blocks: machine drift (CI-runner
/// neighbors, thermal throttling) then hits every configuration alike
/// instead of biasing whichever one happened to run during the slow
/// minute — the overhead percentages are comparisons of these numbers,
/// so block-ordered timing turns drift straight into phantom overhead.
#[allow(clippy::type_complexity)]
fn time_interleaved(
    configs: &mut [(&str, Box<dyn FnMut() -> u64 + '_>)],
    results: &mut [Timed],
    reps: usize,
) {
    for _ in 0..reps {
        for (i, (_, run)) in configs.iter_mut().enumerate() {
            let start = Instant::now();
            let found = run();
            let secs = start.elapsed().as_secs_f64();
            let r = &mut results[i];
            r.best_secs = r.best_secs.min(secs);
            r.found = found;
            r.rep_secs.push(secs);
        }
    }
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

/// One blocking HTTP GET against the bench's own metrics endpoint.
fn http_get(addr: std::net::SocketAddr, path: &str) -> Option<String> {
    let mut stream = std::net::TcpStream::connect(addr).ok()?;
    write!(stream, "GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").ok()?;
    let mut response = String::new();
    stream.read_to_string(&mut response).ok()?;
    Some(response.split_once("\r\n\r\n")?.1.to_owned())
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
}

/// Everything one run writes to `BENCH_shard_throughput.json`: the
/// [`BenchRecord`] history fields plus the per-configuration absolute
/// rates.
#[derive(serde::Serialize)]
struct BenchFile {
    bench: String,
    contexts_per_sec: f64,
    shards: usize,
    speedup_vs_mutex: f64,
    obs_disabled_contexts_per_sec: f64,
    obs_overhead_pct: f64,
    obs_enabled_contexts_per_sec: f64,
    obs_enabled_overhead_pct: f64,
    obs_prov_contexts_per_sec: f64,
    obs_prov_overhead_pct: f64,
    obs_export_contexts_per_sec: f64,
    obs_export_overhead_pct: f64,
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
    let (subjects, per_subject) = if quick { (16, 20) } else { (32, 40) };
    let contexts = trace(subjects, per_subject);
    let n = contexts.len();
    eprintln!("shard bench: {n} contexts, {subjects} subjects, {shards} shards, best of {REPS}");

    // The live-telemetry registry and endpoint exist for the whole
    // timed phase: a metrics-only registry behind a real `/metrics`
    // endpoint, scraped from another thread — the complete cost of
    // watching the engine live. The registry is shared across reps
    // (counters accumulate; only the engine is rebuilt) so the scraper
    // always has a live target. The scraper only issues GETs while an
    // export rep is actually running: `obs_export_overhead_pct` claims
    // to measure scrape load, so the load must land on the export
    // configuration and not tax the other four (on a single-core
    // runner a free-running scraper preempts whatever is being timed).
    let export_plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), shards);
    let export_registry = ShardedMiddleware::obs_registry(&export_plan, ObsConfig::metrics_only());
    let export_addr = std::env::var(METRICS_ADDR_ENV)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| "127.0.0.1:0".to_owned());
    let server = MetricsServer::spawn(Arc::clone(&export_registry), &export_addr)
        .expect("bind metrics endpoint");
    let scrape_addr = server.local_addr();
    let stop_scraper = Arc::new(AtomicBool::new(false));
    let scrape_active = Arc::new(AtomicBool::new(false));
    let scraper = {
        let stop = Arc::clone(&stop_scraper);
        let active = Arc::clone(&scrape_active);
        std::thread::spawn(move || {
            let mut scrapes = 0u64;
            while !stop.load(Ordering::Relaxed) {
                if active.load(Ordering::Relaxed) && http_get(scrape_addr, "/metrics").is_some() {
                    scrapes += 1;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            scrapes
        })
    };

    type TimedConfig<'a> = (&'a str, Box<dyn FnMut() -> u64 + 'a>);
    let mut configs: Vec<TimedConfig<'_>> = vec![
        (
            "mutex",
            Box::new(|| {
                let shared = SharedMiddleware::new(engine());
                for ctx in &contexts {
                    shared.lock().submit(ctx.clone());
                }
                shared.lock().drain();
                let found = shared.lock().stats().inconsistencies;
                found
            }),
        ),
        (
            "sharded",
            Box::new(|| {
                let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), shards);
                let sharded = ShardedMiddleware::new(plan, |_| engine());
                sharded.batch_add(&contexts);
                sharded.drain();
                sharded.stats().inconsistencies
            }),
        ),
        // The same sharded configuration with a *disabled*
        // observability registry wired through every shard: the cost
        // every production deployment pays whether or not anyone turns
        // tracing on.
        (
            "obs-off",
            Box::new(|| {
                let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), shards);
                let registry = ShardedMiddleware::obs_registry(&plan, ObsConfig::disabled());
                let sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
                    engine_builder().obs(obs).build()
                });
                sharded.batch_add(&contexts);
                sharded.drain();
                sharded.stats().inconsistencies
            }),
        ),
        // The live export path, under scrape load. Runs immediately
        // after obs-off within each rep because the gated
        // `obs_export_overhead_pct` pairs these two — adjacency keeps
        // each paired ratio's machine conditions as equal as possible.
        (
            "export",
            Box::new(|| {
                scrape_active.store(true, Ordering::Relaxed);
                let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), shards);
                let sharded = ShardedMiddleware::new_observed(plan, &export_registry, |_, obs| {
                    engine_builder().obs(obs).build()
                });
                sharded.batch_add(&contexts);
                sharded.drain();
                let found = sharded.stats().inconsistencies;
                scrape_active.store(false, Ordering::Relaxed);
                found
            }),
        ),
        // With tracing on but provenance off — the debugging
        // configuration (reported, not gated).
        (
            "obs-on",
            Box::new(|| {
                let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), shards);
                let registry = ShardedMiddleware::obs_registry(
                    &plan,
                    ObsConfig::enabled().with_provenance(false),
                );
                let sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
                    engine_builder().obs(obs).build()
                });
                sharded.batch_add(&contexts);
                sharded.drain();
                sharded.stats().inconsistencies
            }),
        ),
        // Tracing plus causal-provenance emission. Paired against the
        // adjacent obs-on rep for `obs_prov_overhead_pct` — the
        // marginal cost of the explain pipeline, gated in CI.
        (
            "prov-on",
            Box::new(|| {
                let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), shards);
                let registry = ShardedMiddleware::obs_registry(&plan, ObsConfig::enabled());
                let sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
                    engine_builder().obs(obs).build()
                });
                sharded.batch_add(&contexts);
                sharded.drain();
                sharded.stats().inconsistencies
            }),
        ),
    ];
    let mut timed: Vec<Timed> = configs.iter().map(|_| Timed::fresh()).collect();
    time_interleaved(&mut configs, &mut timed, REPS);

    // Adaptive refinement: the CI gate fails above 3%, and a median
    // over 7 short reps on a busy runner can land within noise of
    // that line. While any gated overhead estimate sits above 2%,
    // run extra interleaved reps of every configuration behind a
    // gated pair (sharded / obs-off / export / obs-on / prov-on,
    // indices 1..6) so the medians settle — bounded at `MAX_PASSES`
    // so a genuine regression still fails instead of refining forever.
    const GATED: std::ops::Range<usize> = 1..6;
    const REFINE_ABOVE_PCT: f64 = 2.0;
    const MAX_PASSES: usize = 3;
    for pass in 1.. {
        let obs = median_paired_overhead_pct(&timed[2].rep_secs, &timed[1].rep_secs);
        let exp = median_paired_overhead_pct(&timed[3].rep_secs, &timed[2].rep_secs);
        let prov = median_paired_overhead_pct(&timed[5].rep_secs, &timed[4].rep_secs);
        if obs.max(exp).max(prov) <= REFINE_ABOVE_PCT || pass >= MAX_PASSES {
            break;
        }
        eprintln!(
            "refining: obs-off {obs:+.2}% / export {exp:+.2}% / prov {prov:+.2}% near the 3% gate, {REPS} more reps"
        );
        time_interleaved(&mut configs[GATED], &mut timed[GATED], REPS);
    }
    drop(configs);
    let [mutex_t, shard_t, obs_off_t, export_t, obs_on_t, prov_t] = &timed[..] else {
        unreachable!("six timed configurations");
    };
    let (mutex_secs, mutex_found) = (mutex_t.best_secs, mutex_t.found);
    let (shard_secs, shard_found) = (shard_t.best_secs, shard_t.found);
    let (obs_off_secs, obs_off_found) = (obs_off_t.best_secs, obs_off_t.found);
    let (obs_on_secs, obs_on_found) = (obs_on_t.best_secs, obs_on_t.found);
    let (prov_secs, prov_found) = (prov_t.best_secs, prov_t.found);
    let (export_secs, export_found) = (export_t.best_secs, export_t.found);

    let snapshot = http_get(scrape_addr, "/metrics");
    stop_scraper.store(true, Ordering::Relaxed);
    let scrapes = scraper.join().unwrap_or(0);

    assert_eq!(
        mutex_found, shard_found,
        "sharded engine must find the same inconsistencies as the baseline"
    );
    assert_eq!(
        shard_found, obs_off_found,
        "a disabled observability registry must not change results"
    );
    assert_eq!(
        shard_found, obs_on_found,
        "an enabled observability registry must not change results"
    );
    assert_eq!(
        shard_found, prov_found,
        "provenance emission must not change results"
    );
    assert_eq!(
        shard_found, export_found,
        "the live export pipeline must not change results"
    );

    let contexts_per_sec = n as f64 / shard_secs;
    let speedup = mutex_secs / shard_secs;
    let obs_off_per_sec = n as f64 / obs_off_secs;
    let obs_on_per_sec = n as f64 / obs_on_secs;
    let prov_per_sec = n as f64 / prov_secs;
    let export_per_sec = n as f64 / export_secs;
    let obs_overhead_pct = median_paired_overhead_pct(&obs_off_t.rep_secs, &shard_t.rep_secs);
    let obs_enabled_overhead_pct =
        median_paired_overhead_pct(&obs_on_t.rep_secs, &shard_t.rep_secs);
    // Provenance overhead vs the tracing-only configuration: the
    // marginal cost of emitting causal edges on a deployment already
    // paying for full tracing.
    let obs_prov_overhead_pct = median_paired_overhead_pct(&prov_t.rep_secs, &obs_on_t.rep_secs);
    // Export overhead vs the obs-disabled configuration: what turning
    // the live endpoint on costs a deployment already wired for obs.
    let obs_export_overhead_pct =
        median_paired_overhead_pct(&export_t.rep_secs, &obs_off_t.rep_secs);
    eprintln!(
        "mutex: {:.1} ctx/s | sharded({shards}): {:.1} ctx/s | speedup {:.2}x | obs-off: {:.1} ctx/s ({:+.2}%) | obs-on: {:.1} ctx/s ({:+.2}%) | prov-on: {:.1} ctx/s ({:+.2}%) | export: {:.1} ctx/s ({:+.2}%, {scrapes} scrapes) | {} inconsistencies",
        n as f64 / mutex_secs,
        contexts_per_sec,
        speedup,
        obs_off_per_sec,
        obs_overhead_pct,
        obs_on_per_sec,
        obs_enabled_overhead_pct,
        prov_per_sec,
        obs_prov_overhead_pct,
        export_per_sec,
        obs_export_overhead_pct,
        shard_found,
    );

    // Untimed run for the per-shard ingest breakdown: which shards
    // carried the workload, and each one's share of the aggregate rate.
    let per_shard: Vec<ShardThroughput> = {
        let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), shards);
        let sharded = ShardedMiddleware::new(plan, |_| engine());
        sharded.batch_add(&contexts);
        sharded.drain();
        let stats = sharded.shard_stats();
        let total: u64 = stats.iter().map(|s| s.ingested).sum::<u64>().max(1);
        stats
            .iter()
            .map(|s| {
                let share = s.ingested as f64 / total as f64;
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
            "  shard {:>2}{}: {:>6} ingested ({:>5.2}%) ≈ {:.1} ctx/s",
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
        bench: "shard_throughput".to_owned(),
        contexts_per_sec: round1(contexts_per_sec),
        shards,
        speedup_vs_mutex: round2(speedup),
        obs_disabled_contexts_per_sec: round1(obs_off_per_sec),
        obs_overhead_pct: round2(obs_overhead_pct),
        obs_enabled_contexts_per_sec: round1(obs_on_per_sec),
        obs_enabled_overhead_pct: round2(obs_enabled_overhead_pct),
        obs_prov_contexts_per_sec: round1(prov_per_sec),
        obs_prov_overhead_pct: round2(obs_prov_overhead_pct),
        obs_export_contexts_per_sec: round1(export_per_sec),
        obs_export_overhead_pct: round2(obs_export_overhead_pct),
        commit: commit.clone(),
        host: host.clone(),
        quick,
        contexts: n,
        date: date.clone(),
        per_shard: per_shard.clone(),
    };
    let json = serde_json::to_string_pretty(&file).expect("serialize bench file");
    match std::fs::write("BENCH_shard_throughput.json", format!("{json}\n")) {
        Ok(()) => eprintln!("wrote BENCH_shard_throughput.json"),
        Err(e) => eprintln!("could not write BENCH_shard_throughput.json: {e}"),
    }

    let record = BenchRecord {
        bench: "shard_throughput".to_owned(),
        commit,
        host,
        date,
        quick,
        shards,
        contexts: n,
        contexts_per_sec: round1(contexts_per_sec),
        speedup_vs_mutex: round2(speedup),
        obs_overhead_pct: round2(obs_overhead_pct),
        obs_enabled_overhead_pct: round2(obs_enabled_overhead_pct),
        obs_export_overhead_pct: round2(obs_export_overhead_pct),
        obs_prov_overhead_pct: Some(round2(obs_prov_overhead_pct)),
        // Not measured separately here: the obs-on configurations above
        // already pay the per-kind health counters, so their gated
        // overheads subsume it. `city_bench` owns the dedicated
        // health-telemetry measurement.
        obs_health_overhead_pct: None,
        // shard_bench's dense workload does not run the profiler;
        // `city_bench` owns the profile-overhead measurement.
        obs_profile_overhead_pct: None,
        obs_tail_overhead_pct: None,
        e2e_p50_ns: None,
        e2e_p95_ns: None,
        e2e_p99_ns: None,
        phase_shares: None,
        per_shard,
    };
    let history = history_path_from_env();
    match append_history(&history, &record) {
        Ok(()) => eprintln!("appended run to {}", history.display()),
        Err(e) => eprintln!("could not append bench history: {e}"),
    }

    if let Some(body) = snapshot {
        match std::fs::create_dir_all("results")
            .map_err(|e| e.to_string())
            .and_then(|()| {
                std::fs::write("results/metrics_snapshot.txt", &body).map_err(|e| e.to_string())
            }) {
            Ok(()) => eprintln!("wrote results/metrics_snapshot.txt"),
            Err(e) => eprintln!("could not write metrics snapshot: {e}"),
        }
    }

    println!("{json}");
}
