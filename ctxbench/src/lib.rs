//! The ctxres benchmark: drives the engine only through its public API,
//! from one process with one load-generating thread, in a closed loop
//! (the next ingest call is issued only after the previous returns).
//!
//! ```text
//! ctxbench --workload <city-batch|city-stream|paper-apps> --seed <n>
//!          --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics; `--trace 1` prints the
//! per-layer metrics and writes the span file. Either way the last stdout line is one JSON
//! object, and a verdict that differs from its reference makes the
//! command exit with status 1. See `ctxbench/README.md`.

pub mod alloc;
pub mod city;
pub mod digest;
pub mod layers;
pub mod measure;
pub mod paper;
pub mod report;
pub mod run;
pub mod spans;

use crate::report::Report;
use crate::run::{Bench, Options, Workload};
use std::path::{Path, PathBuf};

/// Default directory for the traced run's span file.
pub const DEFAULT_OUT_DIR: &str = ".bench_out";

const USAGE: &str = "usage: ctxbench --workload <city-batch|city-stream|paper-apps> --seed <n> \
--seconds <s> --trace <0|1> [--out <dir>] [--perturb-reference]\n       \
ctxbench --write-paper-reference <path>";

/// What the command line asks for.
#[derive(Debug)]
pub enum Command {
    /// Run a workload.
    Run(Options),
    /// Regenerate the paper-apps reference file (run from the
    /// repository root, where `results/figure9.json` and
    /// `results/figure10.json` live).
    WriteReference {
        /// Output path.
        out: PathBuf,
    },
}

/// Parses the command line (without the program name).
///
/// # Errors
///
/// A message naming the bad or missing argument.
pub fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut out_dir = PathBuf::from(DEFAULT_OUT_DIR);
    let mut perturb_reference = false;
    let mut write_reference = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload =
                    Some(Workload::parse(v).ok_or_else(|| format!("unknown workload {v:?}"))?);
            }
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                });
            }
            "--out" => out_dir = PathBuf::from(value()?),
            "--perturb-reference" => perturb_reference = true,
            "--write-paper-reference" => write_reference = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if let Some(out) = write_reference {
        return Ok(Command::WriteReference { out });
    }
    Ok(Command::Run(Options {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        perturb_reference,
        out_dir,
    }))
}

/// Runs one workload in the mode the options ask for.
pub fn run(opts: &Options) -> Report {
    let mut bench: Box<dyn Bench> = match opts.workload {
        Workload::CityBatch => Box::new(city::CityBench::new(city::Mode::Batch, opts.seed)),
        Workload::CityStream => Box::new(city::CityBench::new(city::Mode::Stream, opts.seed)),
        Workload::PaperApps => Box::new(paper::PaperBench::new(opts.seed)),
    };
    if opts.trace {
        run::traced(bench.as_mut(), opts)
    } else {
        run::plain(bench.as_mut(), opts)
    }
}

/// The command-line entry point; returns the process exit status: 0
/// on success, 1 on a verdict mismatch, 2 on a usage error.
pub fn cli_main() -> i32 {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            2
        }
        Ok(Command::WriteReference { out }) => {
            match paper::write_reference(Path::new("results"), &out) {
                Ok(cells) => {
                    eprintln!("wrote {cells} cell digests to {}", out.display());
                    0
                }
                Err(e) => {
                    eprintln!("{e}");
                    1
                }
            }
        }
        Ok(Command::Run(opts)) => {
            let report = run(&opts);
            print!("{}", report.table(opts.workload.name()));
            println!("{}", report.json());
            if report.correct {
                0
            } else {
                eprintln!("verdicts differ from the reference");
                1
            }
        }
    }
}
