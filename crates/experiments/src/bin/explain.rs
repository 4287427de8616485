//! Explains resolution decisions end-to-end from causal provenance.
//!
//! ```text
//! explain [--json] [cell options] [--context <id>] [--discarded]
//! explain [--json] [cell options] --diff <strategyA> <strategyB>
//! explain [--json] --trace <events.jsonl> [--context <id>] [--discarded]
//!
//! cell options: --strategy <name> --err <rate> --seed <n> --len <n>
//!               (defaults: d-bad 0.3 3 200, Call Forwarding workload)
//! ```
//!
//! With no selection flags the graph summary plus every discarded
//! context's chain is printed. `--context` accepts `12`, `ctx#12` or
//! `s0/ctx#12` (bare ids match across shards). `--diff` runs both
//! strategies over the *same* seeded workload, joins their provenance
//! graphs on content identity, and reports the first context they
//! disagree on — e.g. where D-LAT first throws away a context D-BAD's
//! count evidence saves. `--json` replaces the human rendering with one
//! machine-readable document.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::PervasiveApp;
use ctxres_experiments::explain::{
    diff_doc, nodes_for_raw_id, render_chain, render_divergence, ExplainDoc,
};
use ctxres_experiments::runner::run_named_observed;
use ctxres_experiments::trace_io::load_events;
use ctxres_experiments::{out, outln};
use ctxres_obs::{NodeId, ObsConfig, ProvenanceGraph, TraceRecord};
use std::path::Path;
use std::process::ExitCode;

struct Options {
    json: bool,
    trace: Option<String>,
    strategy: String,
    err_rate: f64,
    seed: u64,
    len: usize,
    context: Option<String>,
    discarded: bool,
    diff: Option<(String, String)>,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        json: false,
        trace: None,
        strategy: "d-bad".to_owned(),
        err_rate: 0.3,
        seed: 3,
        len: 200,
        context: None,
        discarded: false,
        diff: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--json" => opts.json = true,
            "--discarded" => opts.discarded = true,
            "--trace" => opts.trace = Some(value("--trace")?),
            "--strategy" => opts.strategy = value("--strategy")?,
            "--err" => {
                opts.err_rate = value("--err")?.parse().map_err(|e| format!("--err: {e}"))?;
            }
            "--seed" => {
                opts.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--len" => {
                opts.len = value("--len")?.parse().map_err(|e| format!("--len: {e}"))?;
            }
            "--context" => opts.context = Some(value("--context")?),
            "--diff" => {
                let a = value("--diff")?;
                let b = value("--diff")?;
                opts.diff = Some((a, b));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.diff.is_some() && opts.trace.is_some() {
        return Err("--diff reruns both strategies; it cannot take --trace".into());
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(run) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage:\n  explain [--json] [--strategy <name>] [--err <rate>] [--seed <n>] \
                 [--len <n>] [--context <id>] [--discarded]\n  \
                 explain [--json] --diff <strategyA> <strategyB> [--err <rate>] [--seed <n>] [--len <n>]\n  \
                 explain [--json] --trace <events.jsonl> [--context <id>] [--discarded]"
            );
            ExitCode::FAILURE
        }
    }
}

/// Runs one observed cell and returns its label and complete trace.
fn run_cell(
    strategy: &str,
    err_rate: f64,
    seed: u64,
    len: usize,
) -> Result<(String, Vec<TraceRecord>), String> {
    let app = CallForwarding::new();
    let (_, telemetry) = run_named_observed(
        &app,
        strategy,
        err_rate,
        seed,
        len,
        app.recommended_window(),
        ObsConfig::enabled(),
    );
    if telemetry.dropped > 0 {
        return Err(format!(
            "{} events dropped; raise the ring capacity or shorten the run",
            telemetry.dropped
        ));
    }
    let label = format!("{strategy} err={err_rate} seed={seed}");
    Ok((label, telemetry.trace))
}

fn run(opts: Options) -> Result<(), String> {
    if let Some((a, b)) = &opts.diff {
        return diff(&opts, a, b);
    }
    let (label, trace) = match &opts.trace {
        Some(path) => (path.clone(), load_events(Path::new(path))?),
        None => run_cell(&opts.strategy, opts.err_rate, opts.seed, opts.len)?,
    };
    let graph = ProvenanceGraph::from_records(&trace);
    let selected = select(&graph, &opts)?;
    if opts.json {
        let doc = ExplainDoc::new(&label, &graph, selected);
        outln!(
            "{}",
            serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
    } else {
        let stats = graph.stats();
        outln!(
            "{label}: {} contexts, {} cause edges, {} complete chains, {} discarded",
            stats.nodes,
            stats.edges,
            stats.complete_chains,
            stats.discarded
        );
        outln!();
        if selected.is_empty() {
            outln!("(no matching contexts)");
        }
        for node in selected {
            out!("{}", render_chain(node));
        }
    }
    Ok(())
}

/// Applies `--context` / `--discarded`; defaults to the discarded set.
fn select<'a>(
    graph: &'a ProvenanceGraph,
    opts: &Options,
) -> Result<Vec<&'a ctxres_obs::ProvNode>, String> {
    let spec = match &opts.context {
        Some(spec) if !opts.discarded => spec,
        // --discarded, and also the default view.
        _ => return Ok(graph.discarded()),
    };
    let (shard, raw) = parse_context(spec)?;
    let nodes: Vec<&ctxres_obs::ProvNode> = match shard {
        Some(shard) => graph
            .node(NodeId {
                shard,
                ctx: ctxres_context::ContextId::from_raw(raw),
            })
            .into_iter()
            .collect(),
        None => nodes_for_raw_id(graph, raw),
    };
    if nodes.is_empty() {
        return Err(format!("no context matching {spec:?} in the trace"));
    }
    Ok(nodes)
}

/// Accepts `12`, `ctx#12`, or `s0/ctx#12`.
fn parse_context(spec: &str) -> Result<(Option<u32>, u64), String> {
    let (shard, rest) = match spec.split_once('/') {
        Some((s, rest)) => {
            let shard = s
                .strip_prefix('s')
                .unwrap_or(s)
                .parse::<u32>()
                .map_err(|e| format!("shard in {spec:?}: {e}"))?;
            (Some(shard), rest)
        }
        None => (None, spec),
    };
    let raw = rest
        .strip_prefix("ctx#")
        .unwrap_or(rest)
        .parse::<u64>()
        .map_err(|e| format!("context id in {spec:?}: {e}"))?;
    Ok((shard, raw))
}

fn diff(opts: &Options, a: &str, b: &str) -> Result<(), String> {
    let (label_a, trace_a) = run_cell(a, opts.err_rate, opts.seed, opts.len)?;
    let (label_b, trace_b) = run_cell(b, opts.err_rate, opts.seed, opts.len)?;
    let graph_a = ProvenanceGraph::from_records(&trace_a);
    let graph_b = ProvenanceGraph::from_records(&trace_b);
    let doc = diff_doc(&label_a, &graph_a, &label_b, &graph_b);
    if opts.json {
        outln!(
            "{}",
            serde_json::to_string_pretty(&doc).map_err(|e| e.to_string())?
        );
        return Ok(());
    }
    outln!(
        "{label_a}: {} contexts / {} discarded   {label_b}: {} contexts / {} discarded   ({} shared identities)",
        doc.a_stats.nodes, doc.a_stats.discarded, doc.b_stats.nodes, doc.b_stats.discarded, doc.compared
    );
    match &doc.divergence {
        Some(d) => out!("{}", render_divergence(d)),
        None => outln!("no divergence: both strategies decided every shared context identically"),
    }
    Ok(())
}
