//! Bench-history pipeline: every `shard_bench` run appends one record
//! to `results/bench_history.jsonl`, and `bench_report` turns the tail
//! of that history into a pass/fail regression verdict for CI.
//!
//! One measurement means nothing on shared runners — throughput moves
//! with the machine, the shard count, and the workload scale. So the
//! history keys every record by `(bench, shards, quick, host)` and a
//! verdict only ever compares a run against the **median of recent
//! prior runs with the same key**. A fresh machine (or a new shard
//! count) yields [`ThroughputVerdict::NoBaseline`]: pass with a
//! warning, and the run itself becomes the first baseline row.
//!
//! The second gate is absolute, not relative: the passive observability
//! cost (`obs_overhead_pct`, disabled registry), the full export
//! path (`obs_export_overhead_pct`, metrics-only registry plus a live
//! scraped `/metrics` endpoint), and the marginal cost of causal
//! provenance over plain tracing (`obs_prov_overhead_pct`) must each
//! stay under [`Thresholds::obs_overhead_pct`] — telemetry that taxes
//! the engine it watches is a defect regardless of what the machine is
//! doing.

use crate::trace_io::load_lines;
use serde::{Deserialize, Serialize};
use std::io::Write;
use std::path::Path;

/// Where `shard_bench` appends and `bench_report` reads by default
/// (relative to the repo root). Override with `CTXRES_BENCH_HISTORY`.
pub const DEFAULT_HISTORY_PATH: &str = "results/bench_history.jsonl";

/// Environment variable overriding the history file location.
pub const HISTORY_PATH_ENV: &str = "CTXRES_BENCH_HISTORY";

/// How many most-recent matching prior runs feed the baseline median.
pub const BASELINE_WINDOW: usize = 5;

/// One shard's slice of a bench run, from
/// [`ctxres_middleware::ShardedMiddleware::shard_stats`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardThroughput {
    /// Shard index in the plan.
    pub shard: usize,
    /// `true` for the dedicated shared-scope shard.
    pub shared_scope: bool,
    /// Contexts this shard ingested.
    pub ingested: u64,
    /// This shard's share of total ingest, in percent.
    pub share_pct: f64,
    /// Contexts/second attributed to this shard (its share of the
    /// timed run's aggregate rate).
    pub contexts_per_sec: f64,
}

/// One phase's share of a run's cross-shard profiler self time, as
/// recorded by a profile-on bench configuration. Shares sum to ~100
/// over the phases that ran; [`attribute_regression`] compares them
/// against the baseline to name the phase a regression moved.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PhaseShare {
    /// The phase's stable snake-case name (`ctxres_obs::Phase::name`).
    pub phase: String,
    /// The phase's share of total profiler self time, in percent.
    pub share_pct: f64,
}

/// One `shard_bench` run: a row of `results/bench_history.jsonl`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRecord {
    /// Bench identifier (`shard_throughput`).
    pub bench: String,
    /// Short commit hash the bench ran at (`unknown` outside a work
    /// tree).
    pub commit: String,
    /// Hostname the bench ran on — baselines never cross machines.
    pub host: String,
    /// UTC date of the run (`YYYY-MM-DD`).
    pub date: String,
    /// Whether `CTXRES_BENCH_QUICK` shrank the workload.
    pub quick: bool,
    /// Subject-shard count.
    pub shards: usize,
    /// Contexts per rep in the workload.
    pub contexts: usize,
    /// Sharded-engine throughput (the headline number).
    pub contexts_per_sec: f64,
    /// Sharded vs global-mutex speedup.
    pub speedup_vs_mutex: f64,
    /// Passive cost of a *disabled* registry, percent vs unobserved.
    pub obs_overhead_pct: f64,
    /// Cost of full event tracing, percent vs unobserved.
    pub obs_enabled_overhead_pct: f64,
    /// Cost of the live export pipeline (metrics-only registry plus a
    /// scraped `/metrics` endpoint), percent vs unobserved.
    pub obs_export_overhead_pct: f64,
    /// Marginal cost of causal-provenance emission on top of full
    /// tracing, percent vs the tracing-only configuration. `None` for
    /// history rows written before provenance existed and for benches
    /// that do not measure it (a missing field deserializes as `None`,
    /// so old histories keep loading).
    pub obs_prov_overhead_pct: Option<f64>,
    /// Cost of live health telemetry (metrics-only registry with
    /// per-kind quality counters and batch-boundary pool/watermark
    /// publishing), percent vs unobserved, as a median of paired
    /// obs-on/obs-off reps. `None` for rows written before health
    /// telemetry existed and for benches that do not measure it.
    pub obs_health_overhead_pct: Option<f64>,
    /// Marginal cost of the hierarchical phase profiler over the
    /// metrics-only registry, percent, as a median of paired reps.
    /// `None` for rows written before the profiler existed and for
    /// benches that do not measure it.
    pub obs_profile_overhead_pct: Option<f64>,
    /// Marginal cost of end-to-end tail spans (per-context stamps,
    /// outcome histograms, exemplar reservoirs, queue counters)
    /// over the metrics-only registry, percent, as a median of paired
    /// reps. Joins the absolute overhead gate. `None` for rows written
    /// before tail telemetry existed and benches that do not measure
    /// it.
    pub obs_tail_overhead_pct: Option<f64>,
    /// End-to-end p50 latency of the tail-on configuration,
    /// nanoseconds — reported context for the gated p99 series.
    /// `None` for pre-tail rows and benches that do not measure it.
    pub e2e_p50_ns: Option<f64>,
    /// End-to-end p95 latency of the tail-on configuration,
    /// nanoseconds — reported context for the gated p99 series.
    /// `None` for pre-tail rows and benches that do not measure it.
    pub e2e_p95_ns: Option<f64>,
    /// End-to-end p99 latency of the tail-on configuration,
    /// nanoseconds, from the run's folded per-outcome histograms.
    /// Gated as its own regression series
    /// ([`Thresholds::e2e_p99_regression_pct`]). `None` for pre-tail
    /// rows and benches that do not measure it.
    pub e2e_p99_ns: Option<f64>,
    /// Per-phase self-time shares from the profile-on configuration,
    /// the input to [`attribute_regression`]. `None` for pre-profiler
    /// rows (they still load) and benches that do not profile.
    pub phase_shares: Option<Vec<PhaseShare>>,
    /// Per-shard ingest breakdown of the sharded configuration.
    pub per_shard: Vec<ShardThroughput>,
}

impl BenchRecord {
    /// Two records are comparable when they measured the same bench at
    /// the same scale on the same machine. `contexts` is part of the
    /// key so a workload-size change starts a fresh series instead of
    /// reading as a throughput regression against the old size.
    pub fn same_series(&self, other: &BenchRecord) -> bool {
        self.bench == other.bench
            && self.shards == other.shards
            && self.quick == other.quick
            && self.host == other.host
            && self.contexts == other.contexts
    }
}

/// The row index of every series' latest run, oldest first: a row is a
/// series tail when no later row belongs to the same series
/// ([`BenchRecord::same_series`]). Each tail is the run a report
/// judges; every earlier row of its series is its prior history.
pub fn series_tails(history: &[BenchRecord]) -> Vec<usize> {
    (0..history.len())
        .filter(|&i| {
            history[i + 1..]
                .iter()
                .all(|later| !history[i].same_series(later))
        })
        .collect()
}

/// Appends one record to a JSONL history file, creating the file and
/// its parent directory on first use. Append-only: concurrent benches
/// never clobber each other's rows.
///
/// # Errors
///
/// Returns a string describing any I/O or serialization failure.
pub fn append_history(path: &Path, record: &BenchRecord) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent).map_err(|e| format!("create {parent:?}: {e}"))?;
        }
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("open {path:?} for append: {e}"))?;
    let line = serde_json::to_string(record).map_err(|e| e.to_string())?;
    writeln!(file, "{line}").map_err(|e| e.to_string())
}

/// Loads a bench history (oldest first). A missing file is an empty
/// history, not an error — the first run has nothing to compare to.
///
/// # Errors
///
/// Returns a string describing any parse failure (with line number).
pub fn load_history(path: &Path) -> Result<Vec<BenchRecord>, String> {
    if !path.exists() {
        return Ok(Vec::new());
    }
    load_lines(path)
}

/// The history file to use: `CTXRES_BENCH_HISTORY` or the default.
pub fn history_path_from_env() -> std::path::PathBuf {
    std::env::var(HISTORY_PATH_ENV)
        .ok()
        .filter(|v| !v.trim().is_empty())
        .unwrap_or_else(|| DEFAULT_HISTORY_PATH.to_owned())
        .into()
}

/// Regression gates for [`evaluate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Thresholds {
    /// Maximum tolerated throughput drop vs the baseline median, in
    /// percent.
    pub regression_pct: f64,
    /// Maximum tolerated observability overhead (passive registry and
    /// live export path each), in percent.
    pub obs_overhead_pct: f64,
    /// Maximum tolerated growth of the end-to-end p99 latency series
    /// vs its baseline median, in percent. Looser than the throughput
    /// gate: a tail quantile inherits both the throughput's noise and
    /// the histogram's bucket granularity.
    pub e2e_p99_regression_pct: f64,
}

impl Default for Thresholds {
    fn default() -> Self {
        Thresholds {
            regression_pct: 10.0,
            obs_overhead_pct: 3.0,
            e2e_p99_regression_pct: 25.0,
        }
    }
}

/// Throughput vs the baseline median of the same series.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum ThroughputVerdict {
    /// Within the regression threshold.
    Pass {
        /// Baseline median contexts/second.
        baseline: f64,
        /// Change vs baseline, percent (negative = slower).
        change_pct: f64,
        /// Prior runs behind the median.
        baseline_runs: usize,
    },
    /// No prior run with the same `(bench, shards, quick, host)` key —
    /// passes with a warning; this run seeds the series.
    NoBaseline,
    /// Slower than the baseline median by more than the threshold.
    Regression {
        /// Baseline median contexts/second.
        baseline: f64,
        /// Change vs baseline, percent (negative = slower).
        change_pct: f64,
        /// Prior runs behind the median.
        baseline_runs: usize,
    },
}

/// Observability overhead vs the absolute threshold.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum OverheadVerdict {
    /// The passive registry, the export path, and the provenance
    /// margin are all under the threshold.
    Pass {
        /// The largest of the gated overheads, percent.
        worst_pct: f64,
    },
    /// At least one gated overhead exceeds the threshold.
    Exceeded {
        /// The largest of the gated overheads, percent.
        worst_pct: f64,
    },
}

/// The end-to-end tail series vs its baseline: p99 latency growth of
/// the tail-on bench configuration.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum TailVerdict {
    /// The current run records no tail series (a pre-tail row or a
    /// bench that does not measure it) — nothing to judge.
    NotMeasured,
    /// No prior same-series run carries tail data; this run seeds the
    /// series and passes.
    NoBaseline {
        /// The seeding run's end-to-end p99, nanoseconds.
        p99_ns: f64,
    },
    /// p99 within its threshold.
    Pass {
        /// Baseline median end-to-end p99, nanoseconds.
        baseline_p99_ns: f64,
        /// p99 change vs baseline, percent (positive = slower).
        p99_change_pct: f64,
        /// Prior runs behind the median.
        baseline_runs: usize,
    },
    /// p99 grew past the threshold.
    Regression {
        /// Baseline median end-to-end p99, nanoseconds.
        baseline_p99_ns: f64,
        /// p99 change vs baseline, percent (positive = slower).
        p99_change_pct: f64,
        /// Prior runs behind the median.
        baseline_runs: usize,
    },
}

/// The combined verdict `bench_report` prints and CI gates on.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Verdict {
    /// Throughput gate.
    pub throughput: ThroughputVerdict,
    /// Observability-overhead gate.
    pub overhead: OverheadVerdict,
    /// End-to-end tail latency gate.
    pub tail: TailVerdict,
}

impl Verdict {
    /// `true` when CI should fail the build.
    pub fn is_failure(&self) -> bool {
        matches!(self.throughput, ThroughputVerdict::Regression { .. })
            || matches!(self.overhead, OverheadVerdict::Exceeded { .. })
            || matches!(self.tail, TailVerdict::Regression { .. })
    }
}

/// The baseline pool for `current`: contexts/second of the most recent
/// [`BASELINE_WINDOW`] prior runs in the same series.
fn baseline_pool(current: &BenchRecord, prior: &[BenchRecord]) -> Vec<f64> {
    prior
        .iter()
        .rev()
        .filter(|r| r.same_series(current))
        .take(BASELINE_WINDOW)
        .map(|r| r.contexts_per_sec)
        .collect()
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(|a, b| a.total_cmp(b));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Judges `current` against the prior history under `thresholds`.
///
/// `prior` is every earlier row (any series — filtering happens here);
/// noise robustness comes from comparing against the **median** of up
/// to [`BASELINE_WINDOW`] same-series runs rather than the single
/// latest one.
pub fn evaluate(current: &BenchRecord, prior: &[BenchRecord], thresholds: &Thresholds) -> Verdict {
    let mut pool = baseline_pool(current, prior);
    let throughput = if pool.is_empty() {
        ThroughputVerdict::NoBaseline
    } else {
        let baseline_runs = pool.len();
        let baseline = median(&mut pool);
        let change_pct = (current.contexts_per_sec / baseline - 1.0) * 100.0;
        if change_pct < -thresholds.regression_pct {
            ThroughputVerdict::Regression {
                baseline,
                change_pct,
                baseline_runs,
            }
        } else {
            ThroughputVerdict::Pass {
                baseline,
                change_pct,
                baseline_runs,
            }
        }
    };
    // Full tracing (`obs_enabled_overhead_pct`) is the debugging
    // configuration and is deliberately not gated; the always-on costs
    // are — plus provenance's *marginal* cost over tracing, so the
    // explain pipeline can never quietly tax the engine it explains.
    let worst_pct = current
        .obs_overhead_pct
        .max(current.obs_export_overhead_pct)
        .max(current.obs_prov_overhead_pct.unwrap_or(0.0))
        .max(current.obs_health_overhead_pct.unwrap_or(0.0))
        .max(current.obs_profile_overhead_pct.unwrap_or(0.0))
        .max(current.obs_tail_overhead_pct.unwrap_or(0.0));
    let overhead = if worst_pct > thresholds.obs_overhead_pct {
        OverheadVerdict::Exceeded { worst_pct }
    } else {
        OverheadVerdict::Pass { worst_pct }
    };
    let tail = evaluate_tail(current, prior, thresholds);
    Verdict {
        throughput,
        overhead,
        tail,
    }
}

/// The tail leg of [`evaluate`]: the current run's `e2e_p99_ns`
/// against the median of the most recent [`BASELINE_WINDOW`]
/// same-series prior rows that carry it — pre-tail history rows
/// contribute nothing instead of zeroing the baseline.
fn evaluate_tail(
    current: &BenchRecord,
    prior: &[BenchRecord],
    thresholds: &Thresholds,
) -> TailVerdict {
    let Some(p99) = current.e2e_p99_ns else {
        return TailVerdict::NotMeasured;
    };
    let mut p99s: Vec<f64> = prior
        .iter()
        .rev()
        .filter(|r| r.same_series(current))
        .filter_map(|r| r.e2e_p99_ns)
        .take(BASELINE_WINDOW)
        .collect();
    if p99s.is_empty() {
        return TailVerdict::NoBaseline { p99_ns: p99 };
    }
    let baseline_runs = p99s.len();
    let baseline_p99_ns = median(&mut p99s);
    let p99_change_pct = (p99 / baseline_p99_ns - 1.0) * 100.0;
    if p99_change_pct > thresholds.e2e_p99_regression_pct {
        TailVerdict::Regression {
            baseline_p99_ns,
            p99_change_pct,
            baseline_runs,
        }
    } else {
        TailVerdict::Pass {
            baseline_p99_ns,
            p99_change_pct,
            baseline_runs,
        }
    }
}

/// One phase's movement between a run and its series baseline, from
/// [`attribute_regression`].
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct PhaseShift {
    /// The phase's stable snake-case name.
    pub phase: String,
    /// The current run's share of profiler self time, percent.
    pub share_pct: f64,
    /// The baseline median share over the same window the throughput
    /// verdict uses, percent (0 when the phase never appeared before).
    pub baseline_share_pct: f64,
    /// `share_pct - baseline_share_pct`, in percentage points: positive
    /// means the phase grew — the prime regression suspect.
    pub delta_pp: f64,
}

/// Per-phase share movement of `current` vs the median of the same
/// [`BASELINE_WINDOW`] same-series prior runs the throughput verdict
/// compares against, sorted by growth (largest `delta_pp` first) so a
/// regression report can name the phase(s) that moved most. Empty when
/// the current run carries no phase shares or no baseline row does —
/// pre-profiler histories attribute nothing rather than failing.
pub fn attribute_regression(current: &BenchRecord, prior: &[BenchRecord]) -> Vec<PhaseShift> {
    let Some(cur_shares) = &current.phase_shares else {
        return Vec::new();
    };
    let baselines: Vec<&Vec<PhaseShare>> = prior
        .iter()
        .rev()
        .filter(|r| r.same_series(current))
        .take(BASELINE_WINDOW)
        .filter_map(|r| r.phase_shares.as_ref())
        .collect();
    if baselines.is_empty() {
        return Vec::new();
    }
    let mut shifts: Vec<PhaseShift> = cur_shares
        .iter()
        .map(|s| {
            let mut base: Vec<f64> = baselines
                .iter()
                .filter_map(|b| b.iter().find(|p| p.phase == s.phase).map(|p| p.share_pct))
                .collect();
            let baseline_share_pct = if base.is_empty() {
                0.0
            } else {
                median(&mut base)
            };
            PhaseShift {
                phase: s.phase.clone(),
                share_pct: s.share_pct,
                baseline_share_pct,
                delta_pp: s.share_pct - baseline_share_pct,
            }
        })
        .collect();
    shifts.sort_by(|a, b| b.delta_pp.total_cmp(&a.delta_pp));
    shifts
}

/// Overhead of `num` over `den` as the **median of per-rep paired
/// ratios**, in percent. Rep *i* of the two configurations ran
/// back-to-back (interleaving), so each ratio sees the same machine
/// conditions and the median shrugs off the odd rep where a scrape,
/// page fault, or noisy neighbor landed — far more stable than the
/// ratio of two independently-chosen bests.
///
/// # Panics
///
/// Panics when either slice is empty or a timing is not finite.
pub fn median_paired_overhead_pct(num: &[f64], den: &[f64]) -> f64 {
    let mut ratios: Vec<f64> = num
        .iter()
        .zip(den)
        .map(|(n, d)| (n / d - 1.0) * 100.0)
        .collect();
    assert!(!ratios.is_empty(), "paired overhead needs at least one rep");
    ratios.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    ratios[ratios.len() / 2]
}

/// Short commit hash for stamping records: `git rev-parse --short
/// HEAD`, falling back to a truncated `GITHUB_SHA`, then `unknown`.
pub fn commit_stamp() -> String {
    if let Ok(out) = std::process::Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
    {
        if out.status.success() {
            let hash = String::from_utf8_lossy(&out.stdout).trim().to_owned();
            if !hash.is_empty() {
                return hash;
            }
        }
    }
    if let Ok(sha) = std::env::var("GITHUB_SHA") {
        let sha = sha.trim().to_owned();
        if !sha.is_empty() {
            return sha.chars().take(9).collect();
        }
    }
    "unknown".to_owned()
}

/// Hostname for keying baselines: `HOSTNAME`, then `uname -n`, then
/// `unknown`.
pub fn host_stamp() -> String {
    if let Ok(host) = std::env::var("HOSTNAME") {
        let host = host.trim().to_owned();
        if !host.is_empty() {
            return host;
        }
    }
    if let Ok(out) = std::process::Command::new("uname").arg("-n").output() {
        if out.status.success() {
            let host = String::from_utf8_lossy(&out.stdout).trim().to_owned();
            if !host.is_empty() {
                return host;
            }
        }
    }
    "unknown".to_owned()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(contexts_per_sec: f64) -> BenchRecord {
        BenchRecord {
            bench: "shard_throughput".to_owned(),
            commit: "abc1234".to_owned(),
            host: "ci-runner".to_owned(),
            date: "2026-08-06".to_owned(),
            quick: true,
            shards: 4,
            contexts: 320,
            contexts_per_sec,
            speedup_vs_mutex: 2.0,
            obs_overhead_pct: 0.5,
            obs_enabled_overhead_pct: 8.0,
            obs_export_overhead_pct: 1.0,
            obs_prov_overhead_pct: Some(0.8),
            obs_health_overhead_pct: Some(0.6),
            obs_profile_overhead_pct: Some(0.4),
            obs_tail_overhead_pct: Some(0.7),
            e2e_p50_ns: Some(200_000.0),
            e2e_p95_ns: Some(700_000.0),
            e2e_p99_ns: Some(1_000_000.0),
            phase_shares: Some(vec![
                PhaseShare {
                    phase: "ingest".to_owned(),
                    share_pct: 40.0,
                },
                PhaseShare {
                    phase: "constraint_check".to_owned(),
                    share_pct: 35.0,
                },
                PhaseShare {
                    phase: "resolution".to_owned(),
                    share_pct: 25.0,
                },
            ]),
            per_shard: vec![ShardThroughput {
                shard: 0,
                shared_scope: false,
                ingested: 320,
                share_pct: 100.0,
                contexts_per_sec,
            }],
        }
    }

    #[test]
    fn history_round_trips_through_append_and_load() {
        let dir = std::env::temp_dir().join("ctxres-bench-history-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("roundtrip.jsonl");
        std::fs::remove_file(&path).ok();
        let rows = [record(1000.0), record(1100.0), record(900.0)];
        for row in &rows {
            append_history(&path, row).unwrap();
        }
        let loaded = load_history(&path).unwrap();
        assert_eq!(loaded, rows);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_history_is_empty_not_an_error() {
        assert_eq!(
            load_history(Path::new("/definitely/not/here.jsonl")).unwrap(),
            Vec::new()
        );
    }

    #[test]
    fn first_run_has_no_baseline_and_passes() {
        let v = evaluate(&record(1000.0), &[], &Thresholds::default());
        assert_eq!(v.throughput, ThroughputVerdict::NoBaseline);
        assert!(!v.is_failure());
    }

    #[test]
    fn synthetic_regression_fails() {
        // The fixture CI exercises: a healthy baseline, then a run 50%
        // slower. The verdict must flag it.
        let prior = [record(1000.0), record(1020.0), record(980.0)];
        let v = evaluate(&record(500.0), &prior, &Thresholds::default());
        match v.throughput {
            ThroughputVerdict::Regression {
                baseline,
                change_pct,
                baseline_runs,
            } => {
                assert_eq!(baseline, 1000.0);
                assert_eq!(baseline_runs, 3);
                assert!((change_pct - -50.0).abs() < 1e-9);
            }
            other => panic!("expected regression, got {other:?}"),
        }
        assert!(v.is_failure());
    }

    #[test]
    fn noise_within_threshold_passes() {
        let prior = [record(1000.0)];
        let v = evaluate(&record(950.0), &prior, &Thresholds::default());
        assert!(matches!(v.throughput, ThroughputVerdict::Pass { .. }));
        assert!(!v.is_failure());
    }

    #[test]
    fn baseline_is_a_median_of_recent_same_series_runs() {
        // One wild outlier among the priors must not drag the baseline:
        // median(900, 1000, 5000) = 1000.
        let prior = [record(900.0), record(5000.0), record(1000.0)];
        let v = evaluate(&record(950.0), &prior, &Thresholds::default());
        match v.throughput {
            ThroughputVerdict::Pass { baseline, .. } => assert_eq!(baseline, 1000.0),
            other => panic!("{other:?}"),
        }
        // And only the most recent BASELINE_WINDOW rows count.
        let mut many: Vec<BenchRecord> = (0..10).map(|i| record(100.0 * (i + 1) as f64)).collect();
        let current = record(790.0);
        let v = evaluate(&current, &many, &Thresholds::default());
        match v.throughput {
            // Last 5 priors: 600..1000 → median 800; 790 is within 10%.
            ThroughputVerdict::Pass { baseline, .. } => assert_eq!(baseline, 800.0),
            other => panic!("{other:?}"),
        }
        // A different series never contributes a baseline.
        for r in &mut many {
            r.shards = 8;
        }
        let v = evaluate(&current, &many, &Thresholds::default());
        assert_eq!(v.throughput, ThroughputVerdict::NoBaseline);
    }

    #[test]
    fn export_overhead_gate_is_absolute() {
        let mut r = record(1000.0);
        r.obs_export_overhead_pct = 4.5;
        let v = evaluate(&r, &[], &Thresholds::default());
        assert_eq!(v.overhead, OverheadVerdict::Exceeded { worst_pct: 4.5 });
        assert!(v.is_failure());
        // Full-tracing overhead alone never fails the gate.
        let mut r = record(1000.0);
        r.obs_enabled_overhead_pct = 50.0;
        assert!(!evaluate(&r, &[], &Thresholds::default()).is_failure());
    }

    #[test]
    fn provenance_overhead_gate_is_absolute() {
        let mut r = record(1000.0);
        r.obs_prov_overhead_pct = Some(3.2);
        let v = evaluate(&r, &[], &Thresholds::default());
        assert_eq!(v.overhead, OverheadVerdict::Exceeded { worst_pct: 3.2 });
        assert!(v.is_failure());
    }

    #[test]
    fn health_overhead_gate_is_absolute() {
        let mut r = record(1000.0);
        r.obs_health_overhead_pct = Some(3.7);
        let v = evaluate(&r, &[], &Thresholds::default());
        assert_eq!(v.overhead, OverheadVerdict::Exceeded { worst_pct: 3.7 });
        assert!(v.is_failure());
    }

    #[test]
    fn rows_predating_health_telemetry_still_load() {
        // Same back-compat contract as the provenance field below: rows
        // appended before the health series existed must parse with no
        // margin and pass the gate.
        let line = serde_json::to_string(&record(1000.0)).unwrap();
        let stripped = line.replace(",\"obs_health_overhead_pct\":0.6", "");
        assert_ne!(line, stripped, "fixture must actually drop the field");
        let row: BenchRecord = serde_json::from_str(&stripped).unwrap();
        assert_eq!(row.obs_health_overhead_pct, None);
        assert!(!evaluate(&row, &[], &Thresholds::default()).is_failure());
    }

    #[test]
    fn profile_overhead_gate_is_absolute() {
        let mut r = record(1000.0);
        r.obs_profile_overhead_pct = Some(3.4);
        let v = evaluate(&r, &[], &Thresholds::default());
        assert_eq!(v.overhead, OverheadVerdict::Exceeded { worst_pct: 3.4 });
        assert!(v.is_failure());
    }

    #[test]
    fn tail_overhead_gate_is_absolute() {
        let mut r = record(1000.0);
        r.obs_tail_overhead_pct = Some(3.9);
        let v = evaluate(&r, &[], &Thresholds::default());
        assert_eq!(v.overhead, OverheadVerdict::Exceeded { worst_pct: 3.9 });
        assert!(v.is_failure());
    }

    #[test]
    fn synthetic_p99_regression_is_caught_and_quantified() {
        // The fixture CI exercises: a healthy tail baseline at 1 ms,
        // then a run whose p99 doubled while throughput stayed put.
        // The tail gate alone must fail the build and carry the
        // numbers a report needs to attribute the slide.
        let prior = [record(1000.0), record(1005.0), record(995.0)];
        let mut slow = record(1000.0);
        slow.e2e_p99_ns = Some(2_000_000.0);
        let v = evaluate(&slow, &prior, &Thresholds::default());
        assert!(matches!(v.throughput, ThroughputVerdict::Pass { .. }));
        match v.tail {
            TailVerdict::Regression {
                baseline_p99_ns,
                p99_change_pct,
                baseline_runs,
            } => {
                assert_eq!(baseline_p99_ns, 1_000_000.0);
                assert!((p99_change_pct - 100.0).abs() < 1e-9);
                assert_eq!(baseline_runs, 3);
            }
            other => panic!("expected tail regression, got {other:?}"),
        }
        assert!(v.is_failure());
    }

    #[test]
    fn tail_series_seeds_and_passes_within_thresholds() {
        // No tail data at all: nothing to judge.
        let mut bare = record(1000.0);
        bare.e2e_p99_ns = None;
        bare.obs_tail_overhead_pct = None;
        let v = evaluate(&bare, &[], &Thresholds::default());
        assert_eq!(v.tail, TailVerdict::NotMeasured);
        // First row with tail data seeds the series, even against
        // priors that predate it.
        let v = evaluate(&record(1000.0), &[bare.clone()], &Thresholds::default());
        assert_eq!(
            v.tail,
            TailVerdict::NoBaseline {
                p99_ns: 1_000_000.0
            }
        );
        // Ordinary noise passes with the margins reported.
        let prior = [record(1000.0), record(1002.0)];
        let mut noisy = record(1000.0);
        noisy.e2e_p99_ns = Some(1_100_000.0);
        let v = evaluate(&noisy, &prior, &Thresholds::default());
        match v.tail {
            TailVerdict::Pass {
                p99_change_pct,
                baseline_runs,
                ..
            } => {
                assert!((p99_change_pct - 10.0).abs() < 1e-9);
                assert_eq!(baseline_runs, 2);
            }
            other => panic!("{other:?}"),
        }
        assert!(!v.is_failure());
    }

    #[test]
    fn rows_predating_tail_telemetry_still_load() {
        let line = serde_json::to_string(&record(1000.0)).unwrap();
        let stripped = line
            .replace(",\"obs_tail_overhead_pct\":0.7", "")
            .replace(",\"e2e_p50_ns\":200000.0", "")
            .replace(",\"e2e_p95_ns\":700000.0", "")
            .replace(",\"e2e_p99_ns\":1000000.0", "");
        assert_ne!(line, stripped, "fixture must actually drop the fields");
        assert!(!stripped.contains("e2e_p99_ns"), "fixture fully stripped");
        let row: BenchRecord = serde_json::from_str(&stripped).unwrap();
        assert_eq!(row.obs_tail_overhead_pct, None);
        assert_eq!(row.e2e_p99_ns, None);
        assert!(!evaluate(&row, &[], &Thresholds::default()).is_failure());
    }

    #[test]
    fn regression_is_attributed_to_the_phase_that_grew() {
        // Healthy baselines: checking dominates. The regressed run's
        // resolution share jumps by 20 points; attribution must rank
        // resolution first with roughly that delta.
        let prior = [record(1000.0), record(1020.0), record(980.0)];
        let mut slow = record(500.0);
        slow.phase_shares = Some(vec![
            PhaseShare {
                phase: "ingest".to_owned(),
                share_pct: 30.0,
            },
            PhaseShare {
                phase: "constraint_check".to_owned(),
                share_pct: 25.0,
            },
            PhaseShare {
                phase: "resolution".to_owned(),
                share_pct: 45.0,
            },
        ]);
        let shifts = attribute_regression(&slow, &prior);
        assert_eq!(shifts[0].phase, "resolution");
        assert!((shifts[0].delta_pp - 20.0).abs() < 1e-9);
        assert_eq!(shifts[0].baseline_share_pct, 25.0);
        // Shrinking phases rank last.
        assert!(shifts.last().unwrap().delta_pp < 0.0);
    }

    #[test]
    fn attribution_is_empty_without_phase_data() {
        // Pre-profiler current run: nothing to attribute.
        let prior = [record(1000.0)];
        let mut bare = record(500.0);
        bare.phase_shares = None;
        assert!(attribute_regression(&bare, &prior).is_empty());
        // Pre-profiler baselines: nothing to compare against.
        let mut old = record(1000.0);
        old.phase_shares = None;
        assert!(attribute_regression(&record(500.0), &[old]).is_empty());
        // Different series never contributes.
        let mut other = record(1000.0);
        other.shards = 8;
        assert!(attribute_regression(&record(500.0), &[other]).is_empty());
    }

    #[test]
    fn rows_predating_the_profiler_still_load() {
        let r = record(1000.0);
        let line = serde_json::to_string(&r).unwrap();
        let shares_json = serde_json::to_string(&r.phase_shares).unwrap();
        let overhead_json = serde_json::to_string(&r.obs_profile_overhead_pct).unwrap();
        let stripped = line
            .replace(
                &format!(",\"obs_profile_overhead_pct\":{overhead_json}"),
                "",
            )
            .replace(&format!(",\"phase_shares\":{shares_json}"), "");
        assert_ne!(line, stripped, "fixture must actually drop the fields");
        assert!(!stripped.contains("phase_shares"), "fixture fully stripped");
        let row: BenchRecord = serde_json::from_str(&stripped).unwrap();
        assert_eq!(row.obs_profile_overhead_pct, None);
        assert_eq!(row.phase_shares, None);
        assert!(!evaluate(&row, &[], &Thresholds::default()).is_failure());
    }

    #[test]
    fn committed_history_loads_and_groups_into_series() {
        // Every committed row must keep loading, including rows that
        // carry fields later removed from `BenchRecord`
        // (`fused_speedup`, the `city_unfused` series) — unknown fields
        // are ignored, never an error.
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results/bench_history.jsonl");
        let raw = std::fs::read_to_string(&path).unwrap();
        let history = load_history(&path).unwrap();
        assert_eq!(
            history.len(),
            raw.lines().filter(|l| !l.trim().is_empty()).count()
        );
        assert!(
            raw.contains("\"fused_speedup\""),
            "fixture rows carry a removed field"
        );
        let tails = series_tails(&history);
        let benches: Vec<&str> = tails.iter().map(|&i| history[i].bench.as_str()).collect();
        for bench in ["shard_throughput", "city", "city_unfused"] {
            assert!(
                benches.contains(&bench),
                "{bench} series missing from {benches:?}"
            );
        }
        // Every row belongs to exactly one series, judged at its tail.
        for row in &history {
            let owners = tails
                .iter()
                .filter(|&&t| history[t].same_series(row))
                .count();
            assert_eq!(owners, 1, "{} row in {owners} series", row.bench);
        }
    }

    #[test]
    fn series_tails_pick_each_series_latest_row() {
        let mut other = record(2000.0);
        other.shards = 8;
        let history = [record(1000.0), other.clone(), record(1010.0), other];
        assert_eq!(series_tails(&history), [2, 3]);
        assert!(series_tails(&[]).is_empty());
    }

    #[test]
    fn rows_predating_provenance_still_load() {
        // History rows written before the provenance series existed
        // have no `obs_prov_overhead_pct` field; they must parse with
        // no margin instead of poisoning the whole history.
        let line = serde_json::to_string(&record(1000.0)).unwrap();
        let stripped = line.replace(",\"obs_prov_overhead_pct\":0.8", "");
        assert_ne!(line, stripped, "fixture must actually drop the field");
        let row: BenchRecord = serde_json::from_str(&stripped).unwrap();
        assert_eq!(row.obs_prov_overhead_pct, None);
        assert!(!evaluate(&row, &[], &Thresholds::default()).is_failure());
    }
}
