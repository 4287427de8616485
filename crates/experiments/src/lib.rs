//! Experiment harness regenerating every figure and table of the
//! ICDCS'08 drop-bad paper.
//!
//! | paper artifact | module | binary |
//! |----------------|--------|--------|
//! | Figure 9 (Call Forwarding: `ctxUseRate`, `sitActRate` vs error rate) | [`figures`] | `figure9` |
//! | Figure 10 (RFID data anomalies: same metrics) | [`figures`] | `figure10` |
//! | Figures 1–5 (scenario traces and per-strategy outcomes) | [`scenario_replay`] | `scenarios` |
//! | §5.2 case study (survival 96.5 %, precision 84.7 %, Rule 1 100 %, Rule 2′ 91.7 %) | [`case_study`] | `case_study` |
//! | §5.3 time-window discussion (window → 0 ⇒ drop-latest) and §3.3 latency/accuracy dial | [`ablation`], [`latency`] | `ablation_window` |
//! | §5.1 tie case (open in the paper; both policies measured) | [`ablation`] | `ablation_tie` |
//! | §2.3 "unreliable" baselines + §5.1/§7 impact-aware future work | [`extended`] | `extended_comparison` |
//! | §3.4 cross-kind generality (smart-ringer workload) | [`figures`] | `cross_kind` |
//! | LANDMARC substrate validity (error vs k / grid density) | [`landmarc_knn`] | `landmarc_knn` |
//!
//! | beyond-paper sensitivity (error rates to 80 %) | [`sensitivity`] | `sensitivity` |
//! | constraint coverage devtool | [`coverage`] | `coverage` |
//!
//! Everything at once: `all`; combined markdown: `report`. Utilities:
//! `trace_tool` (generate/inspect/stats/replay recorded traces),
//! `explain` (causal provenance chains and cross-strategy divergence
//! diffs, module [`explain`]) and `check_dsl` (stand-alone constraint
//! checking, CI-friendly).
//!
//! Each binary prints the regenerated table(s) and writes a JSON record
//! under `results/`. Absolute numbers differ from the paper (their
//! testbed was Cabot on Windows XP; ours is a simulator), but the
//! *shape* — who wins, by how much, where the gaps sit — is the
//! reproduction target (see EXPERIMENTS.md).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod ablation;
pub mod case_study;
pub mod city;
pub mod coverage;
pub mod explain;
pub mod extended;
pub mod figures;
pub mod landmarc_knn;
pub mod latency;
pub mod metrics;
pub mod render;
pub mod runner;
pub mod scenario_replay;
pub mod sensitivity;
pub mod telemetry;
pub mod trace_io;

/// Writes formatted text to stdout: the experiment binaries' `print!`.
/// When stdout's reader has gone away (`explain --discarded | head -3`)
/// the process exits quietly with status 0 instead of panicking.
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::write_stdout(::std::format_args!($($arg)*))
    };
}

/// [`out!`] with a trailing newline: the experiment binaries'
/// `println!`.
#[macro_export]
macro_rules! outln {
    () => {
        $crate::write_stdout(::std::format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::write_stdout(::std::format_args!("{}\n", ::std::format_args!($($arg)*)))
    };
}

/// The body of [`out!`] and [`outln!`]: writes `args` to stdout, exits
/// the process with status 0 when the pipe is closed, and panics on any
/// other write error, as `print!` does.
pub fn write_stdout(args: std::fmt::Arguments<'_>) {
    use std::io::Write;
    if let Err(e) = std::io::stdout().lock().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        panic!("failed printing to stdout: {e}");
    }
}

/// The error rates of the paper's experiments (§4.1).
pub const ERROR_RATES: [f64; 4] = [0.10, 0.20, 0.30, 0.40];

/// Runs per point ("averaged over 20 groups of experiments", §4.2).
pub const RUNS_PER_POINT: usize = 20;

/// Contexts per run (the paper does not state its trace length; 600
/// gives every subject a long history while keeping a full figure under
/// a minute in release mode).
pub const TRACE_LEN: usize = 600;
