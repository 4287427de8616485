//! End-to-end checks of the benchmark itself. Run with
//! `cargo test --release --manifest-path ctxbench/Cargo.toml` (the
//! workloads are slow in a debug build).

use ctxres_benchmark::city::{city_trace, trace_fingerprint};
use ctxres_benchmark::paper::{parse_reference, REFERENCE};
use std::path::PathBuf;
use std::process::{Command, Output};

const END_TO_END: [&str; 5] = [
    "ctx_per_s",
    "ingest_p50_us",
    "ingest_p99_us",
    "setup_s",
    "peak_rss_mb",
];

/// Per-layer metrics that are work counts: equal across two traced runs
/// of one seed on the single-threaded workloads.
const COUNTS: [&str; 13] = [
    "shard.rebalances",
    "middleware.compacted",
    "situation.activations",
    "core.on_addition_calls",
    "core.on_use_calls",
    "core.discards",
    "core.discard_precision",
    "constraint.pinned_evals",
    "constraint.full_evals",
    "constraint.detections",
    "constraint.pred_evals",
    "context.live_slots_max",
    "context.slot_recycles",
];

/// Allocation counts: the engine iterates hash maps whose order follows
/// a per-process random hash seed, which shifts a few allocations
/// between runs, so these agree to within a small tolerance only.
const ALLOC_COUNTS: [&str; 2] = ["alloc.count_per_ctx", "alloc.bytes_per_ctx"];
const ALLOC_TOLERANCE: f64 = 0.001;

fn out_dir(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name)
}

fn run(bin: &str, args: &[&str], out: &str) -> Output {
    let out = out_dir(out);
    Command::new(bin)
        .args(args)
        .arg("--out")
        .arg(&out)
        .output()
        .expect("the benchmark binary runs")
}

fn plain(args: &[&str]) -> Output {
    run(env!("CARGO_BIN_EXE_ctxbench"), args, "plain")
}

fn traced(args: &[&str], out: &str) -> Output {
    run(env!("CARGO_BIN_EXE_ctxbench"), args, out)
}

/// The JSON result: the last stdout line.
fn result_line(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .expect("a result line")
        .to_owned()
}

/// A metric's value from the result line.
fn metric(line: &str, name: &str) -> f64 {
    let key = format!("\"{name}\": {{\"value\": ");
    let at = line
        .find(&key)
        .unwrap_or_else(|| panic!("{name} missing: {line}"))
        + key.len();
    let rest = &line[at..];
    let end = rest.find(',').expect("a unit follows the value");
    rest[..end].parse().expect("a number")
}

#[test]
fn one_seed_gives_an_identical_trace_on_every_run() {
    let a = trace_fingerprint(&city_trace(7));
    let b = trace_fingerprint(&city_trace(7));
    let other = trace_fingerprint(&city_trace(8));
    assert_eq!(a, b);
    assert_ne!(a, other, "a different seed must give a different trace");
}

#[test]
fn the_paper_reference_covers_every_figure_cell() {
    // 2 apps x 4 strategies x 4 error rates x 20 seeds.
    assert_eq!(parse_reference(REFERENCE).len(), 640);
}

#[test]
fn plain_run_prints_every_end_to_end_metric_and_passes_its_reference() {
    let out = plain(&[
        "--workload",
        "city-batch",
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        "0",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let line = result_line(&out);
    assert!(
        line.starts_with("{\"correct\": true, \"attempted\": "),
        "{line}"
    );
    for name in END_TO_END {
        assert!(metric(&line, name) > 0.0, "{name} must be positive: {line}");
    }
}

#[test]
fn a_perturbed_reference_fails_every_workload() {
    for workload in ["city-batch", "city-stream", "paper-apps"] {
        let out = plain(&[
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "0",
            "--trace",
            "0",
            "--perturb-reference",
        ]);
        assert_eq!(out.status.code(), Some(1), "{workload} must fail");
        assert!(
            result_line(&out).starts_with("{\"correct\": false"),
            "{workload}: {}",
            result_line(&out)
        );
    }
}

#[test]
fn traced_counts_repeat_exactly_on_the_single_threaded_workloads() {
    for workload in ["city-stream", "paper-apps"] {
        let args = [
            "--workload",
            workload,
            "--seed",
            "5",
            "--seconds",
            "0",
            "--trace",
            "1",
        ];
        let first = traced(&args, &format!("{workload}-1"));
        let second = traced(&args, &format!("{workload}-2"));
        for out in [&first, &second] {
            // A traced run fails unless its digest equals the plain
            // episodes' digest and the reference.
            assert!(
                out.status.success(),
                "{}",
                String::from_utf8_lossy(&out.stderr)
            );
        }
        let (a, b) = (result_line(&first), result_line(&second));
        for name in COUNTS {
            assert_eq!(metric(&a, name), metric(&b, name), "{workload}: {name}");
        }
        for name in ALLOC_COUNTS {
            let (x, y) = (metric(&a, name), metric(&b, name));
            assert!(
                (x - y).abs() <= ALLOC_TOLERANCE * x.max(y),
                "{workload}: {name} {x} vs {y}"
            );
        }
        assert!(metric(&a, "constraint.pred_evals") > 0.0);
        assert!(metric(&a, "alloc.count_per_ctx") > 0.0);
        let spans =
            out_dir(&format!("{workload}-1")).join(format!("ctxbench-trace-{workload}-5.json"));
        let text = std::fs::read_to_string(&spans).expect("the span file is written");
        assert!(text.contains("\"self_ns_by_name\""));
    }
}
