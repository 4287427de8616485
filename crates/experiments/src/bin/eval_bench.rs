//! Measures situation-evaluation **round throughput** on the figure 9
//! and figure 10 application workloads across the two evaluation paths
//! and records the result as `BENCH_eval.json` (run it from the repo
//! root).
//!
//! A *round* is one arriving context followed by a full refresh of
//! every deployed situation — the loop the middleware runs after every
//! addition and use. Two configurations are timed per application:
//!
//! - **naive** — the tree-walking [`Evaluator`] re-checks every
//!   situation's AST each round (the pre-compilation behaviour:
//!   `String`-keyed environments, per-round domain allocations, full
//!   violation evidence built even though only `satisfied` is read);
//! - **compiled** — every situation is lowered once to its
//!   [`CompiledConstraint`] and re-checked each round through the
//!   evidence-free `CompiledEvaluator::holds` fast path (slot-indexed
//!   environments via a reused [`EvalScratch`], short-circuiting
//!   quantifiers and connectives, zero hot-path allocations) — the path
//!   the middleware takes.
//!
//! Three deployments are measured: each application alone, and a
//! combined `figure9+figure10` deployment that runs both applications'
//! situations over one pool with their streams merged by stamp — the
//! multi-application middleware setting.
//!
//! Both configurations produce the complete per-round verdict matrix
//! and the bench asserts they agree bit-for-bit. Reps are interleaved
//! round-robin so machine drift hits each configuration alike.
//!
//! Each run appends one [`BenchRecord`] row per deployment —
//! `bench: "eval_bench/compiled/<deployment>"`, commit/host/date
//! stamped, headline rate = compiled rounds/second, `speedup_vs_mutex`
//! carrying the compiled-vs-naive speedup — to
//! `results/bench_history.jsonl` for the same `bench_report`
//! regression gate that judges the shard series. `CTXRES_BENCH_QUICK=1`
//! shrinks the workload for CI smoke runs.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::PervasiveApp;
use ctxres_constraint::{
    CompiledConstraint, CompiledEvaluator, Constraint, DomainMode, EvalScratch, Evaluator,
    PredicateRegistry,
};
use ctxres_context::{Context, ContextPool, ContextState, LogicalTime};
use ctxres_experiments::bench_history::{
    append_history, commit_stamp, history_path_from_env, host_stamp, BenchRecord,
};
use std::time::{Instant, SystemTime, UNIX_EPOCH};

const REPS: usize = 5;
const ERR_RATE: f64 = 0.3;
const SEED: u64 = 7;

/// Contexts older than this many ticks are compacted out of the pool at
/// every tick boundary, mirroring the middleware's retention —
/// without it the `by_kind` id lists grow without bound and every
/// configuration degenerates into scanning dead ids.
const RETENTION: u64 = 10;

/// The two evaluation paths under measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Naive,
    Compiled,
}

impl Mode {
    const ALL: [Mode; 2] = [Mode::Naive, Mode::Compiled];

    fn label(self) -> &'static str {
        match self {
            Mode::Naive => "naive",
            Mode::Compiled => "compiled",
        }
    }
}

/// Replays `stream` (consumed: arrivals move into the pool without a
/// timed clone) as rounds against a fresh pool, refreshing every
/// situation after each arrival via the path `mode` selects. Returns
/// the flattened per-round-per-situation verdict matrix, for the
/// cross-configuration equivalence assert.
fn run_pass(
    mode: Mode,
    stream: Vec<Context>,
    situations: &[Constraint],
    compiled: &[CompiledConstraint],
    registry: &PredicateRegistry,
) -> Vec<bool> {
    let naive = Evaluator::with_domain(registry, DomainMode::AvailableOnly);
    let fast = CompiledEvaluator::with_domain(registry, DomainMode::AvailableOnly);
    let mut scratch = EvalScratch::new();
    let mut pool = ContextPool::new();
    let mut now = LogicalTime::ZERO;

    let mut last_compact = 0u64;
    let mut verdicts = Vec::with_capacity(stream.len() * situations.len());
    for ctx in stream {
        if ctx.stamp() > now {
            now = ctx.stamp();
            // Periodically drop contexts past retention, as the
            // middleware's retention does. Everything removed
            // expired ticks ago, so no verdict can depend on it.
            if now.tick() >= last_compact + RETENTION && now.tick() > RETENTION {
                pool.compact(LogicalTime::new(now.tick() - RETENTION));
                last_compact = now.tick();
            }
        }
        let id = pool.insert(ctx);
        pool.set_state(id, ContextState::Consistent)
            .expect("undecided contexts accept the consistent state");

        for (situation, program) in situations.iter().zip(compiled) {
            verdicts.push(match mode {
                Mode::Naive => {
                    naive
                        .check(situation, &pool, now)
                        .expect("app situations evaluate")
                        .satisfied
                }
                Mode::Compiled => fast
                    .holds(program, &pool, now, &mut scratch)
                    .expect("app situations evaluate"),
            });
        }
    }
    verdicts
}

/// One application's timed results, as written to `BENCH_eval.json`.
#[derive(serde::Serialize)]
struct AppResult {
    app: String,
    rounds: usize,
    situations: usize,
    naive_rounds_per_sec: f64,
    compiled_rounds_per_sec: f64,
    speedup_compiled_vs_naive: f64,
}

#[derive(serde::Serialize)]
struct BenchFile {
    bench: String,
    commit: String,
    host: String,
    date: String,
    quick: bool,
    apps: Vec<AppResult>,
}

fn round1(x: f64) -> f64 {
    (x * 10.0).round() / 10.0
}

fn round2(x: f64) -> f64 {
    (x * 100.0).round() / 100.0
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

/// One benchmarked deployment: a set of situations, the registry they
/// resolve against, and the context stream replayed as rounds.
struct Deployment {
    name: String,
    situations: Vec<Constraint>,
    registry: PredicateRegistry,
    stream: Vec<Context>,
}

impl Deployment {
    /// A single application's own situations over its own stream.
    fn single(app: &dyn PervasiveApp, len: usize) -> Deployment {
        Deployment {
            name: app.name().to_owned(),
            situations: app.situations(),
            registry: app.registry(),
            stream: app.generate(ERR_RATE, SEED, len),
        }
    }

    /// Both applications sharing one middleware — the paper's setting:
    /// every round refreshes both applications' situations.
    fn combined(apps: &[Box<dyn PervasiveApp>], len: usize) -> Deployment {
        let mut situations = Vec::new();
        let mut stream = Vec::new();
        for app in apps {
            situations.extend(app.situations());
            stream.extend(app.generate(ERR_RATE, SEED, len));
        }
        // Merge the streams by tick; the sort is stable, so arrivals
        // within a tick keep each app's order and the interleave is
        // deterministic.
        stream.sort_by_key(Context::stamp);
        Deployment {
            name: "figure9+figure10".to_owned(),
            situations,
            // The situation constraints only use builtin predicates, so
            // one builtins registry serves both applications.
            registry: PredicateRegistry::with_builtins(),
            stream,
        }
    }
}

fn bench_deployment(d: &Deployment) -> AppResult {
    let Deployment {
        name,
        situations,
        registry,
        stream,
    } = d;
    let compiled: Vec<CompiledConstraint> = situations
        .iter()
        .map(|s| CompiledConstraint::compile(s).expect("app situations compile"))
        .collect();
    let rounds = stream.len();

    let mut best = [f64::INFINITY; 2];
    let mut outputs: [Option<Vec<bool>>; 2] = [None, None];
    for _ in 0..REPS {
        for (i, mode) in Mode::ALL.into_iter().enumerate() {
            // Cloning the arrivals happens outside the timed region:
            // context construction is the generator's cost, not the
            // evaluation path's.
            let arrivals = stream.clone();
            let start = Instant::now();
            let out = run_pass(mode, arrivals, situations, &compiled, registry);
            best[i] = best[i].min(start.elapsed().as_secs_f64());
            outputs[i] = Some(out);
        }
    }
    let [naive, compiled_out] = outputs.map(|o| o.expect("all modes ran"));
    assert_eq!(
        naive, compiled_out,
        "compiled evaluation must agree with the tree-walking evaluator"
    );

    let per_sec = |secs: f64| rounds as f64 / secs;
    let result = AppResult {
        app: name.clone(),
        rounds,
        situations: situations.len(),
        naive_rounds_per_sec: round1(per_sec(best[0])),
        compiled_rounds_per_sec: round1(per_sec(best[1])),
        speedup_compiled_vs_naive: round2(best[0] / best[1]),
    };
    eprintln!(
        "{}: {} rounds x {} situations | {} {:.1} r/s | {} {:.1} r/s ({:.2}x)",
        result.app,
        rounds,
        situations.len(),
        Mode::Naive.label(),
        result.naive_rounds_per_sec,
        Mode::Compiled.label(),
        result.compiled_rounds_per_sec,
        result.speedup_compiled_vs_naive,
    );
    result
}

fn main() {
    let quick = std::env::var("CTXRES_BENCH_QUICK").is_ok();
    let len = if quick { 300 } else { 1200 };
    eprintln!("eval bench: {len} rounds per app, best of {REPS}");

    let apps: [Box<dyn PervasiveApp>; 2] = [
        Box::new(CallForwarding::new()),
        Box::new(RfidAnomalies::new()),
    ];
    let mut deployments: Vec<Deployment> = apps
        .iter()
        .map(|app| Deployment::single(app.as_ref(), len))
        .collect();
    deployments.push(Deployment::combined(&apps, len));
    let results: Vec<AppResult> = deployments.iter().map(bench_deployment).collect();

    let commit = commit_stamp();
    let host = host_stamp();
    let date = today_utc();

    let history = history_path_from_env();
    for r in &results {
        let record = BenchRecord {
            bench: format!("eval_bench/compiled/{}", r.app),
            commit: commit.clone(),
            host: host.clone(),
            date: date.clone(),
            quick,
            shards: 1,
            contexts: r.rounds,
            contexts_per_sec: r.compiled_rounds_per_sec,
            // For eval rows this field carries the headline
            // compiled-vs-naive speedup (there is no mutex baseline in
            // this bench).
            speedup_vs_mutex: r.speedup_compiled_vs_naive,
            // This bench runs no observability registry; zero keeps the
            // absolute overhead gate trivially satisfied for eval rows.
            obs_overhead_pct: 0.0,
            obs_enabled_overhead_pct: 0.0,
            obs_export_overhead_pct: 0.0,
            obs_prov_overhead_pct: None,
            obs_health_overhead_pct: None,
            obs_profile_overhead_pct: None,
            obs_tail_overhead_pct: None,
            e2e_p50_ns: None,
            e2e_p95_ns: None,
            e2e_p99_ns: None,
            phase_shares: None,
            per_shard: Vec::new(),
        };
        match append_history(&history, &record) {
            Ok(()) => eprintln!("appended {} to {}", record.bench, history.display()),
            Err(e) => eprintln!("could not append bench history: {e}"),
        }
    }

    let file = BenchFile {
        bench: "eval_bench".to_owned(),
        commit,
        host,
        date,
        quick,
        apps: results,
    };
    let json = serde_json::to_string_pretty(&file).expect("serialize bench file");
    match std::fs::write("BENCH_eval.json", format!("{json}\n")) {
        Ok(()) => eprintln!("wrote BENCH_eval.json"),
        Err(e) => eprintln!("could not write BENCH_eval.json: {e}"),
    }
    println!("{json}");
}
