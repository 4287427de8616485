//! Hierarchical phase profiling of the real workloads, exported as a
//! flamegraph and a Chrome trace.
//!
//! Usage:
//!
//! ```text
//! profile [city|figure9|figure10] [--quick] [--sample N] [--out DIR]
//! ```
//!
//! Runs the chosen workload once with the sampled phase profiler on
//! (`city` is the default; `--sample` overrides the root-sampling
//! divisor, default 8 — `--sample 1` records every root), then writes
//! two artifacts and prints a self-time table:
//!
//! - `profile_<workload>.trace.json` — Chrome trace-event JSON; load it
//!   in Perfetto or `chrome://tracing` to scrub through nested phase
//!   spans per shard on a common timeline.
//! - `profile_<workload>.folded` — inferno-compatible folded stacks
//!   (`shard0;ingest;constraint_check <self_ns>`); pipe through
//!   `inferno-flamegraph` (or any FlameGraph port) for an SVG.
//! - stderr: per-phase calls, total time, self time, and self-time
//!   share, aggregated over shards — the quick look that tells you
//!   which subsystem to open the flamegraph on.
//!
//! Both artifacts are validated before the process exits —
//! [`validate_trace_json`] must parse the trace and [`parse_folded`]
//! must round-trip the stacks — so a CI smoke run catches a malformed
//! export without a browser in the loop.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::PervasiveApp;
use ctxres_constraint::parse_constraints;
use ctxres_context::Ticks;
use ctxres_core::strategies::DropBad;
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_experiments::figures::figure_for_parallel;
use ctxres_experiments::runner::default_threads;
use ctxres_middleware::{Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware};
use ctxres_obs::{
    chrome_trace_json, folded_stacks, parse_folded, validate_trace_json, ObsConfig, ObsRegistry,
    ProfileSnapshot, SpanRecord,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

/// City ingestion knobs for a one-shot profiling pass. Timed city
/// ingestion is the benchmark's `city-batch` workload (`ctxbench/`).
const CITY_SHARDS: usize = 4;
const CITY_BATCH: usize = 4096;
const CITY_REBALANCE_EVERY: usize = 8;
const CITY_HOT_FACTOR: f64 = 1.2;
const CITY_RETENTION: u64 = 512;
/// Default root-sampling divisor; `--sample` overrides it.
const DEFAULT_SAMPLE: u32 = 8;

struct Options {
    workload: String,
    quick: bool,
    sample: u32,
    out: PathBuf,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        workload: "city".to_owned(),
        quick: false,
        sample: DEFAULT_SAMPLE,
        out: PathBuf::from("."),
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "city" | "figure9" | "figure10" => opts.workload = arg,
            "--quick" => opts.quick = true,
            "--sample" => {
                opts.sample = value("--sample")?
                    .parse::<u32>()
                    .map_err(|e| format!("--sample: {e}"))?
                    .max(1);
            }
            "--out" => opts.out = value("--out")?.into(),
            other => {
                return Err(format!(
                    "unknown argument {other:?} (expected city|figure9|figure10, --quick, --sample N, --out DIR)"
                ))
            }
        }
    }
    Ok(opts)
}

/// One profiled sharded ingestion pass over a city trace: batches with
/// a drain → subject loads → rebalance → apply cycle every
/// [`CITY_REBALANCE_EVERY`] batches, the discipline of the benchmark's
/// `city-batch` workload. Returns the registry holding the recorded
/// spans.
fn run_city(quick: bool, sample: u32) -> Arc<ObsRegistry> {
    // Subjects and readings scale together: shrinking the subject pool
    // further would *lengthen* the hot subjects' tracks (Zipf skew),
    // making the per-reading incremental check quadratically slower,
    // not faster.
    let (subjects, total) = if quick {
        (20_000, 80_000)
    } else {
        (100_000, 400_000)
    };
    run_city_sized(subjects, total, sample)
}

/// The city pass with explicit sizing — the tests drive a miniature
/// trace through the identical code path (debug builds make the real
/// quick sizes too slow for a unit test).
fn run_city_sized(subjects: usize, total: usize, sample: u32) -> Arc<ObsRegistry> {
    let cfg = CityConfig {
        subjects,
        ..CityConfig::default()
    };
    let mut city = CityWorkload::new(cfg);
    let trace = city.batch(total);
    eprintln!(
        "profiling city: {} contexts, {subjects} subjects, {CITY_SHARDS} shards, sample 1/{sample}",
        trace.len()
    );
    let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), CITY_SHARDS);
    let registry =
        ShardedMiddleware::obs_registry(&plan, ObsConfig::metrics_only().with_profile(sample));
    let mut sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
        Middleware::builder()
            .constraints(parse_constraints(SPEED).unwrap())
            .strategy(Box::new(DropBad::new()))
            .config(MiddlewareConfig {
                window: Ticks::new(0),
                track_ground_truth: false,
                retention: Some(Ticks::new(CITY_RETENTION)),
            })
            .obs(obs)
            .build()
    });
    for (i, chunk) in trace.chunks(CITY_BATCH).enumerate() {
        sharded.batch_add(chunk);
        if (i + 1) % CITY_REBALANCE_EVERY == 0 {
            sharded.drain();
            let loads = sharded.subject_loads();
            if let Some(new_plan) = sharded.plan().rebalance(&loads, CITY_HOT_FACTOR) {
                sharded.apply_plan(new_plan);
            }
        }
    }
    sharded.drain();
    eprintln!(
        "  {} inconsistencies found",
        sharded.stats().inconsistencies
    );
    registry
}

/// One profiled figure-grid pass: the full seeded (rate × strategy ×
/// seed) grid fanned over worker threads, each worker's engine wired to
/// a profiled registry slot. Returns the registry with recorded spans.
fn run_figure(app: &(dyn PervasiveApp + Sync), quick: bool, sample: u32) -> Arc<ObsRegistry> {
    let (runs, len) = if quick { (2, 120) } else { (5, 600) };
    run_figure_sized(app, runs, len, sample)
}

/// The figure pass with explicit sizing, shared with the tests.
fn run_figure_sized(
    app: &(dyn PervasiveApp + Sync),
    runs: usize,
    len: usize,
    sample: u32,
) -> Arc<ObsRegistry> {
    let threads = default_threads();
    eprintln!(
        "profiling {}: {runs} runs/point, {len} contexts/run, {threads} thread(s), sample 1/{sample}",
        app.name()
    );
    let registry = ObsRegistry::shared(
        ObsConfig::metrics_only().with_profile(sample),
        threads.max(1),
    );
    let fig = figure_for_parallel(app, runs, len, threads, Some(&registry));
    eprintln!("  {} grid points evaluated", fig.points.len());
    registry
}

/// Writes both artifacts, validates them, and prints the self-time
/// table. Returns the artifact paths.
fn export(
    registry: &ObsRegistry,
    workload: &str,
    out: &Path,
) -> Result<(PathBuf, PathBuf), String> {
    let spans = registry.drain_spans();
    if spans.is_empty() {
        return Err("no spans recorded — the workload never entered a profiled phase".to_owned());
    }
    std::fs::create_dir_all(out).map_err(|e| format!("{}: {e}", out.display()))?;
    let trace_path = out.join(format!("profile_{workload}.trace.json"));
    let folded_path = out.join(format!("profile_{workload}.folded"));

    let trace = chrome_trace_json(&spans);
    let events = validate_trace_json(&trace)?;
    std::fs::write(&trace_path, &trace).map_err(|e| format!("{}: {e}", trace_path.display()))?;

    let folded = folded_stacks(&spans);
    let rows = parse_folded(&folded)?;
    if rows.is_empty() {
        return Err("folded stacks came out empty despite recorded spans".to_owned());
    }
    std::fs::write(&folded_path, &folded).map_err(|e| format!("{}: {e}", folded_path.display()))?;

    eprintln!(
        "wrote {} ({events} events) and {} ({} stacks)",
        trace_path.display(),
        folded_path.display(),
        rows.len(),
    );
    print_table(registry, &spans);
    Ok((trace_path, folded_path))
}

/// Per-phase self-time table aggregated over shards, widest share
/// first — the terminal answer to "where did the time go".
fn print_table(registry: &ObsRegistry, spans: &[SpanRecord]) {
    let snap = registry.snapshot();
    let mut agg = ProfileSnapshot::of(&snap).aggregate();
    agg.retain(|s| s.calls > 0);
    agg.sort_by_key(|s| std::cmp::Reverse(s.self_ns));
    let total_self: u64 = agg.iter().map(|s| s.self_ns).sum();
    let total_self = total_self.max(1) as f64;
    eprintln!(
        "{:>16} {:>10} {:>12} {:>12} {:>7}",
        "phase", "calls", "total ms", "self ms", "self %"
    );
    for s in &agg {
        eprintln!(
            "{:>16} {:>10} {:>12.3} {:>12.3} {:>6.2}%",
            s.phase,
            s.calls,
            s.total_ns as f64 / 1e6,
            s.self_ns as f64 / 1e6,
            s.self_ns as f64 * 100.0 / total_self,
        );
    }
    let [roots, sampled, dropped] = [
        "ctxres_phase_roots_total",
        "ctxres_phase_sampled_roots_total",
        "ctxres_phase_spans_dropped_total",
    ]
    .map(|family| snap.total(family));
    eprintln!(
        "{roots} roots seen, {sampled} sampled, {} spans exported, {dropped} dropped (ring full)",
        spans.len(),
    );
}

fn main() {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("profile: {e}");
            std::process::exit(2);
        }
    };
    let registry = match opts.workload.as_str() {
        "city" => run_city(opts.quick, opts.sample),
        "figure9" => run_figure(&CallForwarding::new(), opts.quick, opts.sample),
        "figure10" => run_figure(&RfidAnomalies::new(), opts.quick, opts.sample),
        other => unreachable!("parse_args admits only known workloads, got {other:?}"),
    };
    if let Err(e) = export(&registry, &opts.workload, &opts.out) {
        eprintln!("profile: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The full artifact path: run a small city workload, export, and
    /// re-parse both files. This is the assertion CI's profile-smoke
    /// job depends on — a malformed trace or empty flamegraph fails
    /// here before any browser is involved.
    #[test]
    fn city_profile_artifacts_validate_and_round_trip() {
        let registry = run_city_sized(200, 2_000, 1);
        let dir = std::env::temp_dir().join("ctxres_profile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let (trace_path, folded_path) = export(&registry, "city_test", &dir).expect("export");

        let trace = std::fs::read_to_string(&trace_path).unwrap();
        let events = validate_trace_json(&trace).expect("trace JSON validates");
        assert!(events > 0, "trace must contain events");

        let folded = std::fs::read_to_string(&folded_path).unwrap();
        let rows = parse_folded(&folded).expect("folded stacks parse");
        assert!(!rows.is_empty(), "folded stacks must be non-empty");
        // Every stack is rooted at a shard frame and every count is a
        // self-time the flamegraph can sum without double counting.
        for (frames, _) in &rows {
            assert!(
                frames[0].starts_with("shard"),
                "stack roots at a shard frame, got {frames:?}"
            );
        }
        let _ = std::fs::remove_file(trace_path);
        let _ = std::fs::remove_file(folded_path);
    }

    /// A second workload exercises the single-engine (non-sharded)
    /// profiling path the figure grids use.
    #[test]
    fn figure_profile_records_phases() {
        let registry = run_figure_sized(&CallForwarding::new(), 1, 60, 1);
        let snap = registry.profile_snapshot();
        assert!(!snap.is_empty(), "figure run must record phase spans");
        let agg = snap.aggregate();
        let check = agg
            .iter()
            .find(|s| s.phase == "constraint_check")
            .expect("figure runs check constraints");
        assert!(check.calls > 0);
    }
}
