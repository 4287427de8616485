//! `obs_top` — a live per-shard console dashboard over the telemetry
//! pipeline, in the spirit of `top(1)`.
//!
//! Two modes:
//!
//! * **demo** (default): spins up a sharded engine under the paper's
//!   speed constraint, drives a synthetic 32-subject location stream
//!   from a background producer thread, and samples the engine's own
//!   registry in-process — a self-contained way to see the dashboard
//!   move.
//! * **watch** (`--watch <addr>`): scrapes `/snapshot` from any live
//!   `CTXRES_METRICS_ADDR` endpoint (`figure9`, `figure10`, a
//!   production deployment) and renders the same dashboard remotely.
//!
//! Flags: `--interval-ms <n>` (default 500), `--iters <n>` (frames to
//! render; default: run until interrupted), `--once` (single frame, no
//! ANSI clear — CI-safe), `--serve <addr>` (demo mode only: expose the
//! demo registry's `/metrics` and `/snapshot` on a background thread,
//! so a second `obs_top --watch` — or a CI curl — can scrape the same
//! engine live; port `0` picks an ephemeral port and the bound address
//! is printed to stderr), `--phases` (profile the demo engine and add
//! a per-shard phase self-time panel; in watch mode the panel appears
//! automatically whenever the remote endpoint samples with its phase
//! profiler on). The end-to-end tail panel (wall-clock delivery
//! quantiles, queue wait share, exemplar
//! reservoir fill) renders whenever the sampled registry has tail
//! spans enabled — always true for the demo engine.

use ctxres_constraint::parse_constraints;
use ctxres_context::{Context, ContextKind, LogicalTime, Point, Ticks};
use ctxres_core::strategies::DropBad;
use ctxres_experiments::out;
use ctxres_middleware::{Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware};
use ctxres_obs::{
    MetricsServer, ObsConfig, Sample, Sampler, PHASES, TAIL_OUTCOMES, TAIL_QUANTILES,
};
use std::collections::BTreeSet;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

struct Options {
    watch: Option<String>,
    serve: Option<String>,
    interval: Duration,
    iters: Option<u64>,
    once: bool,
    phases: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        watch: None,
        serve: None,
        interval: Duration::from_millis(500),
        iters: None,
        once: false,
        phases: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
        match arg.as_str() {
            "--watch" => opts.watch = Some(value("--watch")?),
            "--serve" => opts.serve = Some(value("--serve")?),
            "--interval-ms" => {
                let ms: u64 = value("--interval-ms")?
                    .parse()
                    .map_err(|e| format!("--interval-ms: {e}"))?;
                opts.interval = Duration::from_millis(ms.max(10));
            }
            "--iters" => {
                opts.iters = Some(
                    value("--iters")?
                        .parse()
                        .map_err(|e| format!("--iters: {e}"))?,
                );
            }
            "--once" => opts.once = true,
            "--phases" => opts.phases = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if opts.once {
        opts.iters = Some(1);
    }
    Ok(opts)
}

/// `host:port` from a `--watch` operand that may carry a scheme/path.
fn watch_addr(raw: &str) -> String {
    let s = raw.trim();
    let s = s.strip_prefix("http://").unwrap_or(s);
    s.split('/').next().unwrap_or(s).to_owned()
}

fn fetch_sample(addr: &str) -> Result<Sample, String> {
    let mut stream =
        std::net::TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    write!(stream, "GET /snapshot HTTP/1.1\r\nHost: obs-top\r\n\r\n").map_err(|e| e.to_string())?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| e.to_string())?;
    let body = response
        .split_once("\r\n\r\n")
        .ok_or("malformed HTTP response")?
        .1;
    serde_json::from_str(body).map_err(|e| format!("parse /snapshot: {e}"))
}

fn fmt_rate(v: f64) -> String {
    if v >= 10_000.0 {
        format!("{:.1}k", v / 1000.0)
    } else {
        format!("{v:.1}")
    }
}

/// A panel cell: the formatted value, `-` when the window defined none.
fn cell(v: Option<String>) -> String {
    v.unwrap_or_else(|| "-".to_owned())
}

/// Nanoseconds as whole microseconds.
fn us(ns: Option<f64>) -> String {
    cell(ns.map(|ns| format!("{:.0}", ns / 1000.0)))
}

/// A ratio as a percentage with one decimal.
fn pct(v: Option<f64>) -> String {
    cell(v.map(|x| format!("{:.1}", x * 100.0)))
}

/// One row of the shard table: a shard's windowed rates (all shards'
/// with no labels), ring state, and the windowed p95 check latency —
/// the interpolated estimate, so the column moves smoothly instead of
/// snapping between power-of-two bucket edges.
fn shard_row(sample: &Sample, label: &str, labels: &[(&str, &str)]) -> String {
    let rate = |counter: &str| fmt_rate(sample.sum(&format!("ctxres_{counter}_per_sec"), labels));
    let p95 = sample
        .window_histogram("ctxres_check_latency_ns", labels)
        .quantile_est(0.95);
    format!(
        "{:<9} {:>8}  {:>9}  {:>9}  {:>8}  {:>7}  {:>8}  {:>7}  {:>11}\n",
        label,
        rate("ingested"),
        rate("deliveries"),
        rate("discards"),
        rate("detections"),
        rate("compiled_evals"),
        sample.sum("ctxres_trace_events_buffered", labels),
        sample.sum("ctxres_trace_events_dropped_total", labels),
        us(p95),
    )
}

fn render(sample: &Sample, frame: u64, source: &str) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "ctxres obs_top — {source} — frame {frame}, window {:.2}s{}\n\n",
        sample.elapsed_secs,
        if sample.first { " (baseline)" } else { "" },
    ));
    let header =
        "shard     ingest/s  deliver/s  discard/s  detect/s  ceval/s  buffered  dropped  p95 chk(µs)\n";
    let divider = format!("{}\n", "-".repeat(header.len() - 1));
    out.push_str(header);
    out.push_str(&divider);
    for i in 0..sample.shards() {
        let shard = i.to_string();
        out.push_str(&shard_row(
            sample,
            &format!("shard {i}"),
            &[("shard", &shard)],
        ));
    }
    out.push_str(&divider);
    out.push_str(&shard_row(sample, "total", &[]));
    let total = |counter: &str| sample.total(&format!("ctxres_{counter}_total"));
    out.push_str(&format!(
        "\ncumulative: {} ingested, {} delivered, {} discarded, {} detections, \
         {} situation evals, {} compiled evals\n",
        total("ingested"),
        total("deliveries"),
        total("discards"),
        total("detections"),
        total("situation_evals"),
        total("compiled_evals"),
    ));
    let present = |prefix: &str| sample.series.iter().any(|s| s.family.starts_with(prefix));
    if present("ctxres_health_") || present("ctxres_pool_") {
        out.push_str(&render_health(sample));
    }
    if present("ctxres_phase_") {
        out.push_str(&render_phases(sample));
    }
    if present("ctxres_e2e_") || present("ctxres_queue_") {
        out.push_str(&render_tail(sample));
    }
    out
}

/// The end-to-end tail panel: windowed wall-clock quantiles per terminal
/// outcome, the engine-queue wait/service decomposition, and the exemplar reservoir
/// fill — rendered only when the sampled registry has tail spans on.
fn render_tail(sample: &Sample) -> String {
    let mut out = String::new();
    out.push_str("\ne2e tail this window (µs)\n");
    out.push_str("outcome        count      p50      p95      p99     p999\n");
    let outcomes = TAIL_OUTCOMES.map(|o| o.name());
    for name in outcomes.into_iter().chain(["all"]) {
        let labels = [("outcome", name)];
        let filter = if name == "all" { &[][..] } else { &labels[..] };
        let count = sample
            .window_histogram("ctxres_e2e_latency_us", filter)
            .count;
        if count == 0 && name != "all" {
            continue;
        }
        out.push_str(&format!("{name:<12} {count:>7}"));
        for q in TAIL_QUANTILES.map(|q| q.to_string()) {
            let labels = [("outcome", name), ("q", q.as_str())];
            let v = sample.gauge("ctxres_e2e_window_quantile_ns", &labels);
            out.push_str(&format!(" {:>8}", us(v)));
        }
        out.push('\n');
    }
    let (waits, services) = ("ctxres_queue_waits_total", "ctxres_queue_services_total");
    if sample.delta(waits) > 0 || sample.delta(services) > 0 {
        // Per-chunk averages over the window: queue nanoseconds / intervals.
        let avg = |ns: &str, n: &str| {
            let n = sample.delta(n);
            us((n > 0).then(|| sample.delta(ns) as f64 / n as f64))
        };
        out.push_str(&format!(
            "queue: avg wait {} µs, avg service {} µs, wait share {}\n",
            avg("ctxres_queue_wait_seconds_total", waits),
            avg("ctxres_queue_service_seconds_total", services),
            pct(sample.gauge("ctxres_queue_wait_share", &[])),
        ));
    }
    out.push_str(&format!(
        "exemplars: {} held / {} captured total (capacity {} per shard)\n",
        sample.exemplars.len(),
        sample.total("ctxres_e2e_exemplars_captured_total"),
        ctxres_obs::EXEMPLAR_CAPACITY,
    ));
    out
}

/// Short column labels for the phase panel, aligned with
/// [`ctxres_obs::PHASES`] order.
const PHASE_SHORT: [&str; 9] = [
    "ingest", "idxmnt", "check", "resolve", "siteval", "prov", "health", "rebal", "export",
];

/// The phase panel: per-shard self-time by phase over the sample
/// window (ms, `-` when the phase recorded nothing), plus the window
/// totals and each phase's share of all self-time — the live view of
/// where the engines spend their cycles.
fn render_phases(sample: &Sample) -> String {
    let mut out = String::new();
    let columns = PHASE_SHORT.map(|name| format!("{name:>9}")).concat();
    out.push_str(&format!(
        "\nphase self-time this window (ms)\n{:<9}{columns}\n",
        "shard"
    ));
    let self_ms = |labels: &[(&str, &str)]| {
        let ns: u64 = sample
            .family("ctxres_phase_self_seconds_total")
            .filter(|s| s.matches(labels))
            .map(|s| s.delta())
            .sum();
        cell((ns > 0).then(|| format!("{:.2}", ns as f64 / 1e6)))
    };
    let shards: Vec<String> = (0..sample.shards()).map(|i| i.to_string()).collect();
    for shard in shards.iter().map(Some).chain([None]) {
        let label = shard.map_or("total".to_owned(), |s| format!("shard {s}"));
        out.push_str(&format!("{label:<9}"));
        for p in PHASES {
            let shard = shard.map(|s| ("shard", s.as_str()));
            let labels: Vec<_> = shard.into_iter().chain([("phase", p.name())]).collect();
            out.push_str(&format!("{:>9}", self_ms(&labels)));
        }
        out.push('\n');
    }
    let shares = PHASES.map(|p| {
        let share = sample.gauge("ctxres_phase_self_share", &[("phase", p.name())]);
        format!("{:>9}", cell(share.map(|s| format!("{:.1}%", s * 100.0))))
    });
    out.push_str(&format!("{:<9}{}\n", "share", shares.concat()));
    out
}

/// The health panel: arena occupancy, the per-kind quality heatmap
/// (windowed rates from the streaming estimators), and firing SLOs.
fn render_health(sample: &Sample) -> String {
    let mut out = String::new();
    if sample.family("ctxres_pool_live_slots").next().is_some() {
        let recycles = "ctxres_pool_generation_recycles_total";
        let occupancy = sample.gauge("ctxres_pool_occupancy", &[]);
        out.push_str(&format!(
            "\npool: {} live / {} free slots ({} occupied), {} recycles (+{} this window), tick {}\n",
            sample.sum("ctxres_pool_live_slots", &[]),
            sample.sum("ctxres_pool_free_slots", &[]),
            cell(occupancy.map(|o| format!("{:.0}%", o * 100.0))),
            sample.total(recycles),
            sample.delta(recycles),
            sample.tick,
        ));
    }
    let labels = |family, label| -> BTreeSet<&str> {
        sample
            .family(family)
            .filter_map(|s| s.label(label))
            .collect()
    };
    let kinds = labels("ctxres_health_ingested_total", "kind");
    if !kinds.is_empty() {
        out.push_str(
            "\nkind            disc%    viol%     use%    ewma%    stale     live   oldest\n",
        );
        for kind in kinds {
            let k = [("kind", kind)];
            let g = |metric: &str| sample.gauge(&format!("ctxres_health_{metric}"), &k);
            out.push_str(&format!(
                "{:<14} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                kind,
                pct(g("discard_rate")),
                pct(g("violation_rate")),
                pct(g("use_rate")),
                pct(g("use_rate_ewma")),
                cell(g("staleness").map(|s| format!("{s:.2}"))),
                sample.sum("ctxres_health_kind_live", &k),
                cell(g("oldest_age_ticks").map(|t| t.to_string())),
            ));
        }
    }
    let firing = labels("ctxres_slo_firing", "rule");
    if firing.is_empty() {
        out.push_str("\nslo: all clear\n");
    } else {
        out.push_str(&format!("\nslo: {} FIRING\n", firing.len()));
        for rule in firing {
            out.push_str(&format!("  ! {rule}\n"));
        }
    }
    for alert in &sample.alerts {
        out.push_str(&format!("  {alert}\n"));
    }
    out
}

/// The demo workload: an endless teleporting location stream, chunked
/// so seq stamps keep increasing across chunks.
fn demo_chunk(base_seq: u64, subjects: usize, per_subject: usize) -> Vec<Context> {
    let mut out = Vec::with_capacity(subjects * per_subject);
    for seq in base_seq..base_seq + per_subject as u64 {
        for s in 0..subjects {
            let x = if seq % 10 == 9 {
                400.0
            } else {
                seq as f64 * 0.5
            };
            out.push(
                Context::builder(ContextKind::new("location"), &format!("subj-{s:02}"))
                    .attr("pos", Point::new(x, 0.0))
                    .attr("seq", seq as i64)
                    .stamp(LogicalTime::new(seq))
                    .build(),
            );
        }
    }
    out
}

fn run_loop(opts: &Options, source: &str, mut next: impl FnMut() -> Result<Sample, String>) {
    let mut frame = 0u64;
    loop {
        match next() {
            Ok(sample) => {
                frame += 1;
                if !opts.once {
                    out!("\x1b[2J\x1b[H");
                }
                out!("{}", render(&sample, frame, source));
                std::io::stdout().flush().ok();
            }
            Err(e) => {
                eprintln!("obs_top: {e}");
                std::process::exit(1);
            }
        }
        if let Some(iters) = opts.iters {
            if frame >= iters {
                return;
            }
        }
        std::thread::sleep(opts.interval);
    }
}

fn main() {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("obs_top: {e}");
            eprintln!(
                "usage: obs_top [--watch <addr>] [--serve <addr>] [--interval-ms <n>] [--iters <n>] [--once] [--phases]"
            );
            std::process::exit(2);
        }
    };

    if let Some(raw) = &opts.watch {
        if opts.serve.is_some() {
            eprintln!("obs_top: --serve only applies to the in-process demo");
            std::process::exit(2);
        }
        let addr = watch_addr(raw);
        run_loop(&opts, &format!("watching {addr}"), || fetch_sample(&addr));
        return;
    }

    // Demo: a 4-shard engine fed by a background producer until the
    // dashboard exits.
    let constraints = parse_constraints(SPEED).unwrap();
    let plan = ShardPlan::analyze(&constraints, 4);
    // --phases profiles every root in the demo: the stream is small
    // enough that sampling would just make the panel jittery.
    // Tail spans stay on in the demo so the e2e panel has data; watch
    // mode simply renders whatever the remote endpoint samples.
    let config = if opts.phases {
        ObsConfig::metrics_only().with_profile(1).with_tail(true)
    } else {
        ObsConfig::metrics_only().with_tail(true)
    };
    let registry = ShardedMiddleware::obs_registry(&plan, config);
    let sharded = Arc::new(ShardedMiddleware::new_observed(
        plan,
        &registry,
        |_, obs| {
            Middleware::builder()
                .constraints(parse_constraints(SPEED).unwrap())
                .strategy(Box::new(DropBad::new()))
                .config(MiddlewareConfig {
                    window: Ticks::new(0),
                    track_ground_truth: false,
                    // The demo runs until interrupted: bound the pool so
                    // check latency stays flat instead of creeping as the
                    // population grows.
                    retention: Some(Ticks::new(50)),
                })
                .obs(obs)
                .build()
        },
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let producer = {
        let sharded = Arc::clone(&sharded);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seq = 0u64;
            while !stop.load(Ordering::Relaxed) {
                let chunk = demo_chunk(seq, 32, 5);
                seq += 5;
                sharded.batch_add(&chunk);
                sharded.drain();
                std::thread::sleep(Duration::from_millis(20));
            }
        })
    };

    // --serve exposes the demo registry's /metrics and /snapshot on a
    // background thread — a self-contained live endpoint to point a
    // second `obs_top --watch` (or the CI latency smoke's curl) at.
    let _server = opts.serve.as_deref().map(|addr| {
        let server = MetricsServer::spawn(Arc::clone(&registry), addr).unwrap_or_else(|e| {
            eprintln!("obs_top: could not bind {addr}: {e}");
            std::process::exit(2);
        });
        eprintln!(
            "obs_top: serving /metrics and /snapshot on http://{}",
            server.local_addr()
        );
        server
    });

    let mut sampler = Sampler::new(Arc::clone(&registry));
    // Let the producer put something on the board before the first
    // frame (mostly for --once, which gets exactly one window).
    let _ = sampler.sample();
    std::thread::sleep(opts.interval.max(Duration::from_millis(100)));
    run_loop(&opts, "in-process demo", || Ok(sampler.sample()));

    stop.store(true, Ordering::Relaxed);
    producer.join().ok();
}
