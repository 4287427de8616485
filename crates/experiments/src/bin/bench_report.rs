//! Judges the latest run of **every** bench series in the history and
//! exits nonzero on any regression — the blocking CI gate behind
//! `results/bench_history.jsonl`.
//!
//! Usage:
//!
//! ```text
//! bench_report [--history <path>] [--threshold-pct <pct>] [--obs-threshold-pct <pct>]
//!              [--p99-threshold-pct <pct>]
//! ```
//!
//! The history interleaves rows from independent series —
//! `shard_throughput` at each shard count, `eval_bench/<deployment>`,
//! `city` (the city-scale batch-ingestion bench, which measures the
//! live health-telemetry overhead as `obs_health_overhead_pct` and the
//! sampled phase-profiler overhead as `obs_profile_overhead_pct`; its
//! other obs-overhead fields are zero/`None` and never trip the gate),
//! and `city_unfused` in older histories (the city workload with batch
//! fusion switched off; no longer written, but its last row is still
//! judged against its own baseline) — distinguished by the `(bench,
//! shards, quick, host, contexts)` key.
//!
//! When a series regresses and its rows carry `phase_shares` (the
//! profiler's per-phase self-time shares), the report also prints a
//! **phase attribution** line naming the phase(s) whose share grew the
//! most against the baseline median — pointing at the subsystem to
//! profile first rather than leaving a bare percentage.
//! For each distinct series, the most recent row is the run under
//! judgment; its baseline is the median of up to 5 most recent
//! **prior** rows of the same series, so cross-machine, cross-scale,
//! and cross-bench rows never skew a verdict. Exit codes: `0` all
//! series pass (a first run on a fresh series passes with a
//! `no baseline` warning), `1` any series regressed — throughput more
//! than `--threshold-pct` (default 10%) below baseline,
//! observability/export/provenance/tail overhead above
//! `--obs-threshold-pct` (default 3%), end-to-end p99 latency more
//! than `--p99-threshold-pct` (default 25%) above its baseline median —
//! `2` usage or unreadable/empty history. Rows that predate tail telemetry
//! contribute nothing to the tail baselines and are judged `n/a`.

use ctxres_experiments::bench_history::{
    attribute_regression, evaluate, history_path_from_env, load_history, series_tails,
    OverheadVerdict, TailVerdict, Thresholds, ThroughputVerdict,
};
use std::path::PathBuf;

fn parse_args() -> Result<(PathBuf, Thresholds), String> {
    let mut history = history_path_from_env();
    let mut thresholds = Thresholds::default();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--history" => history = value("--history")?.into(),
            "--threshold-pct" => {
                thresholds.regression_pct = value("--threshold-pct")?
                    .parse()
                    .map_err(|e| format!("--threshold-pct: {e}"))?;
            }
            "--obs-threshold-pct" => {
                thresholds.obs_overhead_pct = value("--obs-threshold-pct")?
                    .parse()
                    .map_err(|e| format!("--obs-threshold-pct: {e}"))?;
            }
            "--p99-threshold-pct" => {
                thresholds.e2e_p99_regression_pct = value("--p99-threshold-pct")?
                    .parse()
                    .map_err(|e| format!("--p99-threshold-pct: {e}"))?;
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok((history, thresholds))
}

/// Optional overhead margin (provenance, health) for display:
/// `+1.20%`, or `n/a` when the row predates the series or the bench
/// does not measure it.
fn opt_pct_label(pct: Option<f64>) -> String {
    match pct {
        Some(p) => format!("{p:+.2}%"),
        None => "n/a".to_owned(),
    }
}

/// A row's end-to-end p99 in whole microseconds for display.
fn p99_label(p99_ns: Option<f64>) -> String {
    p99_ns
        .map(|ns| format!("{:.0}", ns / 1000.0))
        .unwrap_or_else(|| "?".into())
}

fn main() {
    let (history_path, thresholds) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("bench_report: {e}");
            std::process::exit(2);
        }
    };
    let history = match load_history(&history_path) {
        Ok(rows) => rows,
        Err(e) => {
            eprintln!("bench_report: {e}");
            std::process::exit(2);
        }
    };
    if history.is_empty() {
        eprintln!(
            "bench_report: {} is empty — run shard_bench, eval_bench, or city_bench first",
            history_path.display()
        );
        std::process::exit(2);
    }

    let tails = series_tails(&history);

    println!(
        "bench_report: {} series over {} rows of history",
        tails.len(),
        history.len(),
    );
    let mut failed = false;
    for idx in tails {
        let current = &history[idx];
        let prior = &history[..idx];
        println!(
            "{} @ {} on {} ({} shards, {} contexts{})",
            current.bench,
            current.commit,
            current.host,
            current.shards,
            current.contexts,
            if current.quick { ", quick" } else { "" },
        );
        let verdict = evaluate(current, prior, &thresholds);
        match &verdict.throughput {
            ThroughputVerdict::Pass {
                baseline,
                change_pct,
                baseline_runs,
            } => println!(
                "  throughput: PASS — {:.1} ctx/s vs median {:.1} of {} prior run(s) ({:+.2}%, threshold -{:.1}%)",
                current.contexts_per_sec, baseline, baseline_runs, change_pct, thresholds.regression_pct,
            ),
            ThroughputVerdict::NoBaseline => println!(
                "  throughput: PASS (no baseline) — {:.1} ctx/s seeds the series for ({}, {} shards, quick={}, {})",
                current.contexts_per_sec, current.bench, current.shards, current.quick, current.host,
            ),
            ThroughputVerdict::Regression {
                baseline,
                change_pct,
                baseline_runs,
            } => {
                println!(
                    "  throughput: REGRESSION — {:.1} ctx/s vs median {:.1} of {} prior run(s) ({:+.2}%, threshold -{:.1}%)",
                    current.contexts_per_sec, baseline, baseline_runs, change_pct, thresholds.regression_pct,
                );
                // Phase attribution: compare this run's self-time shares
                // against the baseline medians and name the phase(s)
                // whose share grew the most — the first place to look.
                let shifts = attribute_regression(current, prior);
                let grew: Vec<String> = shifts
                    .iter()
                    .filter(|s| s.delta_pp > 1.0)
                    .take(3)
                    .map(|s| {
                        format!(
                            "{} ({:+.1}pp, {:.1}% vs baseline {:.1}%)",
                            s.phase, s.delta_pp, s.share_pct, s.baseline_share_pct
                        )
                    })
                    .collect();
                if grew.is_empty() {
                    println!("  phase attribution: no phase data on this series");
                } else {
                    println!("  phase attribution: likely phase(s): {}", grew.join(", "));
                }
            }
        }
        match &verdict.overhead {
            OverheadVerdict::Pass { worst_pct } => println!(
                "  obs overhead: PASS — disabled {:+.2}%, export {:+.2}%, provenance {}, health {}, profile {}, tail {} (worst {:+.2}%, threshold {:.1}%)",
                current.obs_overhead_pct,
                current.obs_export_overhead_pct,
                opt_pct_label(current.obs_prov_overhead_pct),
                opt_pct_label(current.obs_health_overhead_pct),
                opt_pct_label(current.obs_profile_overhead_pct),
                opt_pct_label(current.obs_tail_overhead_pct),
                worst_pct,
                thresholds.obs_overhead_pct,
            ),
            OverheadVerdict::Exceeded { worst_pct } => println!(
                "  obs overhead: EXCEEDED — disabled {:+.2}%, export {:+.2}%, provenance {}, health {}, profile {}, tail {} (worst {:+.2}%, threshold {:.1}%)",
                current.obs_overhead_pct,
                current.obs_export_overhead_pct,
                opt_pct_label(current.obs_prov_overhead_pct),
                opt_pct_label(current.obs_health_overhead_pct),
                opt_pct_label(current.obs_profile_overhead_pct),
                opt_pct_label(current.obs_tail_overhead_pct),
                worst_pct,
                thresholds.obs_overhead_pct,
            ),
        }
        match &verdict.tail {
            TailVerdict::NotMeasured => {}
            TailVerdict::NoBaseline { p99_ns } => println!(
                "  e2e tail: PASS (no baseline) — p99 {:.0} µs seeds the tail series",
                p99_ns / 1000.0,
            ),
            TailVerdict::Pass {
                baseline_p99_ns,
                p99_change_pct,
                baseline_runs,
            } => println!(
                "  e2e tail: PASS — p99 {} µs vs median {:.0} of {} prior run(s) ({:+.2}%, threshold +{:.1}%)",
                p99_label(current.e2e_p99_ns),
                baseline_p99_ns / 1000.0,
                baseline_runs,
                p99_change_pct,
                thresholds.e2e_p99_regression_pct,
            ),
            TailVerdict::Regression {
                baseline_p99_ns,
                p99_change_pct,
                baseline_runs,
            } => {
                println!(
                    "  e2e tail: REGRESSION — p99 {} µs vs median {:.0} of {} prior run(s) ({:+.2}%, threshold +{:.1}%)",
                    p99_label(current.e2e_p99_ns),
                    baseline_p99_ns / 1000.0,
                    baseline_runs,
                    p99_change_pct,
                    thresholds.e2e_p99_regression_pct,
                );
                // The tail gate reuses the same phase attribution as
                // throughput: a p99 that moved without throughput
                // moving still names the phase whose share grew.
                let shifts = attribute_regression(current, prior);
                let grew: Vec<String> = shifts
                    .iter()
                    .filter(|s| s.delta_pp > 1.0)
                    .take(3)
                    .map(|s| {
                        format!(
                            "{} ({:+.1}pp, {:.1}% vs baseline {:.1}%)",
                            s.phase, s.delta_pp, s.share_pct, s.baseline_share_pct
                        )
                    })
                    .collect();
                if grew.is_empty() {
                    println!("  phase attribution: no phase data on this series");
                } else {
                    println!("  phase attribution: likely phase(s): {}", grew.join(", "));
                }
            }
        }
        failed |= verdict.is_failure();
    }
    if failed {
        eprintln!("bench_report: FAIL");
        std::process::exit(1);
    }
    println!("bench_report: OK");
}
