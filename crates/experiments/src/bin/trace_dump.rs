//! Renders an observability event trace (JSONL of `TraceRecord`s) as a
//! human-readable timeline, a per-strategy state-transition summary
//! table, and the causal chain of every discarded context (its node in
//! the trace's provenance graph, rendered as `explain --discarded`
//! renders it).
//!
//! ```text
//! trace_dump [--json] <events.jsonl> [strategy-label]
//! trace_dump [--json] --demo [out.jsonl]
//! ```
//!
//! `--demo` runs a seeded drop-bad Call Forwarding cell (err 0.3,
//! seed 3) with tracing enabled, writes its event trace to
//! `out.jsonl` (default `results/demo_trace.jsonl`), then dumps it —
//! the smoke artifact CI archives. `--json` replaces the human
//! rendering with one machine-readable document (full timeline,
//! transition rows, the discarded contexts' provenance nodes) on
//! stdout; it combines with `--demo`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::PervasiveApp;
use ctxres_experiments::explain::render_chain;
use ctxres_experiments::runner::run_named_observed;
use ctxres_experiments::telemetry::{
    json_dump, json_dump_with_snapshot, render_timeline, render_transition_table, transition_counts,
};
use ctxres_experiments::trace_io::{load_events, save_events};
use ctxres_experiments::{out, outln};
use ctxres_obs::{ObsConfig, ObsSnapshot, ProvenanceGraph, TraceRecord};
use std::path::Path;
use std::process::ExitCode;

/// Timeline lines printed before eliding (the demo cell alone produces
/// hundreds of events).
const TIMELINE_LIMIT: usize = 60;

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    args.retain(|a| a != "--json");
    match run(&args, json) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage:\n  trace_dump [--json] <events.jsonl> [strategy-label]\n  \
                 trace_dump [--json] --demo [out.jsonl]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String], json: bool) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("--demo") => {
            let out = args
                .get(1)
                .map(String::as_str)
                .unwrap_or("results/demo_trace.jsonl");
            demo(Path::new(out), json)
        }
        Some(path) => {
            let label = args.get(1).map(String::as_str).unwrap_or("trace");
            let trace = load_events(Path::new(path))?;
            render(&trace, label, json, None)?;
            Ok(())
        }
        None => Err("missing arguments".into()),
    }
}

/// Dispatches between the human views and the `--json` document. With a
/// metrics snapshot (the `--demo` path has one), the JSON document also
/// carries the aggregated counters — including the compiled-eval and
/// situation-eval figures.
fn render(
    trace: &[ctxres_obs::TraceRecord],
    label: &str,
    json: bool,
    snapshot: Option<&ObsSnapshot>,
) -> Result<(), String> {
    if json {
        let doc = match snapshot {
            Some(s) => json_dump_with_snapshot(trace, label, s),
            None => json_dump(trace, label),
        };
        let text = serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?;
        outln!("{text}");
    } else {
        dump(trace, label);
    }
    Ok(())
}

/// Runs the seeded demo cell, saves its event trace, and dumps it.
fn demo(out: &Path, json: bool) -> Result<(), String> {
    let app = CallForwarding::new();
    let (metrics, telemetry) = run_named_observed(
        &app,
        "d-bad",
        0.3,
        3,
        200,
        app.recommended_window(),
        ObsConfig::enabled(),
    );
    if let Some(dir) = out.parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {dir:?}: {e}"))?;
        }
    }
    save_events(out, &telemetry.trace)?;
    eprintln!(
        "demo cell: strategy={} err_rate={} seed={} -> {} events ({} dropped), {} discarded",
        telemetry.strategy,
        telemetry.err_rate,
        telemetry.seed,
        telemetry.trace.len(),
        telemetry.dropped,
        metrics.discarded,
    );
    eprintln!("wrote {}", out.display());
    render(
        &telemetry.trace,
        &telemetry.strategy,
        json,
        Some(&telemetry.snapshot),
    )?;
    if telemetry.dropped > 0 {
        return Err(format!(
            "{} events were dropped; the trace is incomplete",
            telemetry.dropped
        ));
    }
    Ok(())
}

/// Prints the three views of a trace: timeline, transition table, and
/// the discarded contexts' causal chains.
fn dump(trace: &[TraceRecord], label: &str) {
    let graph = ProvenanceGraph::from_records(trace);
    outln!("== timeline ({} events) ==", trace.len());
    out!("{}", render_timeline(trace, TIMELINE_LIMIT));

    outln!();
    outln!("== state transitions ==");
    out!(
        "{}",
        render_transition_table(&[(label.to_owned(), transition_counts(&graph))])
    );

    outln!();
    outln!("== discarded-context life cycles ==");
    let discarded = graph.discarded();
    for node in &discarded {
        out!("{}", render_chain(node));
    }
    if discarded.is_empty() {
        outln!("(none)");
    }
    outln!();
    outln!(
        "{} contexts traced, {} discarded",
        graph.len(),
        discarded.len()
    );
}
