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
use ctxres_middleware::{Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware};
use ctxres_obs::{CounterKind, MetricKind, MetricsServer, ObsConfig, Sample, Sampler};
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

/// p95 of a windowed latency histogram, as microseconds (`-` when the
/// window recorded nothing). Uses the interpolated estimate rather than
/// the raw bucket upper bound so the column moves smoothly instead of
/// snapping between power-of-two bucket edges.
fn p95_us(rates: &ctxres_obs::ShardRates, kind: MetricKind) -> String {
    match rates.window(kind).quantile_est(0.95) {
        Some(ns) => format!("{:.0}", ns / 1000.0),
        None => "-".to_owned(),
    }
}

fn shard_row(label: &str, r: &ctxres_obs::ShardRates) -> String {
    format!(
        "{:<9} {:>8}  {:>9}  {:>9}  {:>8}  {:>7}  {:>8}  {:>7}  {:>11}\n",
        label,
        fmt_rate(r.rate(CounterKind::Ingested)),
        fmt_rate(r.rate(CounterKind::Deliveries)),
        fmt_rate(r.rate(CounterKind::Discards)),
        fmt_rate(r.rate(CounterKind::Detections)),
        fmt_rate(r.rate(CounterKind::CompiledEvals)),
        r.events_buffered,
        r.events_dropped,
        p95_us(r, MetricKind::CheckLatency),
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
    for s in &sample.shards {
        out.push_str(&shard_row(&format!("shard {}", s.shard), s));
    }
    out.push_str(&divider);
    out.push_str(&shard_row("total", &sample.total));
    let agg = sample.snapshot.aggregate();
    out.push_str(&format!(
        "\ncumulative: {} ingested, {} delivered, {} discarded, {} detections, \
         {} situation evals, {} compiled evals\n",
        agg.counter(CounterKind::Ingested),
        agg.counter(CounterKind::Deliveries),
        agg.counter(CounterKind::Discards),
        agg.counter(CounterKind::Detections),
        agg.counter(CounterKind::SituationEvals),
        agg.counter(CounterKind::CompiledEvals),
    ));
    if let Some(health) = &sample.health {
        out.push_str(&render_health(health));
    }
    if let Some(phases) = &sample.phases {
        out.push_str(&render_phases(phases));
    }
    if let Some(tail) = &sample.tail {
        out.push_str(&render_tail(tail));
    }
    out
}

/// One quantile cell of the tail panel: interpolated nanosecond figure
/// rendered as microseconds, `-` when the window has no estimate.
fn tail_q_us(q: Option<f64>) -> String {
    match q {
        Some(ns) => format!("{:.0}", ns / 1000.0),
        None => "-".to_owned(),
    }
}

/// The end-to-end tail panel: windowed wall-clock quantiles per terminal
/// outcome, the engine-queue wait/service decomposition, and the exemplar reservoir
/// fill — rendered only when the sampled registry has tail spans on.
fn render_tail(tail: &ctxres_obs::TailSample) -> String {
    let mut out = String::new();
    out.push_str("\ne2e tail this window (µs)\n");
    out.push_str("outcome        count      p50      p95      p99     p999\n");
    for ow in &tail.outcomes {
        if ow.window.count == 0 {
            continue;
        }
        out.push_str(&format!(
            "{:<12} {:>7} {:>8} {:>8} {:>8} {:>8}\n",
            ow.outcome.name(),
            ow.window.count,
            tail_q_us(ow.window.p50_ns),
            tail_q_us(ow.window.p95_ns),
            tail_q_us(ow.window.p99_ns),
            tail_q_us(ow.window.p999_ns),
        ));
    }
    out.push_str(&format!(
        "{:<12} {:>7} {:>8} {:>8} {:>8} {:>8}\n",
        "all",
        tail.all.count,
        tail_q_us(tail.all.p50_ns),
        tail_q_us(tail.all.p95_ns),
        tail_q_us(tail.all.p99_ns),
        tail_q_us(tail.all.p999_ns),
    ));
    if tail.queue.wait_count > 0 || tail.queue.service_count > 0 {
        out.push_str(&format!(
            "queue: avg wait {} µs, avg service {} µs, wait share {}\n",
            tail_q_us(tail.queue.avg_wait_ns),
            tail_q_us(tail.queue.avg_service_ns),
            ratio_pct(tail.queue.wait_share),
        ));
    }
    let captured: u64 = tail.snapshot.shards.iter().map(|s| s.captured).sum();
    let held = tail.snapshot.exemplars().len();
    out.push_str(&format!(
        "exemplars: {held} held / {captured} captured total (capacity {} per shard)\n",
        ctxres_obs::EXEMPLAR_CAPACITY,
    ));
    out
}

/// Short column labels for the phase panel, aligned with
/// [`ctxres_obs::PHASES`] order.
const PHASE_SHORT: [&str; 9] = [
    "ingest", "idxmnt", "check", "resolve", "siteval", "prov", "health", "rebal", "export",
];

/// One phase-panel cell: window self-time in milliseconds, `-` when
/// the phase recorded nothing this window.
fn phase_cell(stats: &[ctxres_obs::PhaseStat], phase: ctxres_obs::Phase) -> String {
    let self_ns = stats
        .iter()
        .find(|s| s.phase == phase.name())
        .map(|s| s.self_ns)
        .unwrap_or(0);
    if self_ns == 0 {
        "-".to_owned()
    } else {
        format!("{:.2}", self_ns as f64 / 1e6)
    }
}

/// The phase panel: per-shard self-time by phase over the sample
/// window, plus the window totals and each phase's share of all
/// self-time — the live view of where the engines spend their cycles.
fn render_phases(phases: &ctxres_obs::PhaseSample) -> String {
    let mut out = String::new();
    out.push_str("\nphase self-time this window (ms)\n");
    out.push_str(&format!("{:<9}", "shard"));
    for name in PHASE_SHORT {
        out.push_str(&format!("{name:>9}"));
    }
    out.push('\n');
    for sh in &phases.shards {
        out.push_str(&format!("{:<9}", format!("shard {}", sh.shard)));
        for p in ctxres_obs::PHASES {
            out.push_str(&format!("{:>9}", phase_cell(&sh.window, p)));
        }
        out.push('\n');
    }
    out.push_str(&format!("{:<9}", "total"));
    for p in ctxres_obs::PHASES {
        out.push_str(&format!("{:>9}", phase_cell(&phases.window_total, p)));
    }
    out.push('\n');
    out.push_str(&format!("{:<9}", "share"));
    for p in ctxres_obs::PHASES {
        let cell = match phases.self_share(p) {
            Some(share) => format!("{:.1}%", share * 100.0),
            None => "-".to_owned(),
        };
        out.push_str(&format!("{cell:>9}"));
    }
    out.push('\n');
    out
}

/// Windowed ratio for the heatmap: percent with one decimal, `-` when
/// the window defined no value.
fn ratio_pct(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{:.1}", x * 100.0),
        None => "-".to_owned(),
    }
}

/// The health panel: arena occupancy, the per-kind quality heatmap
/// (windowed rates from the streaming estimators), and firing SLOs.
fn render_health(health: &ctxres_obs::HealthSample) -> String {
    let mut out = String::new();
    if let Some(pool) = &health.pool {
        out.push_str(&format!(
            "\npool: {} live / {} free slots ({} occupied), {} recycles (+{} this window), tick {}\n",
            pool.live_slots,
            pool.free_slots,
            match pool.occupancy {
                Some(o) => format!("{:.0}%", o * 100.0),
                None => "-".to_owned(),
            },
            pool.recycles,
            pool.recycles_delta,
            pool.now_tick,
        ));
    }
    if !health.kinds.is_empty() {
        out.push_str(
            "\nkind            disc%    viol%     use%    ewma%    stale     live   oldest\n",
        );
        for k in &health.kinds {
            out.push_str(&format!(
                "{:<14} {:>7} {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}\n",
                k.kind,
                ratio_pct(k.discard_rate),
                ratio_pct(k.violation_rate),
                ratio_pct(k.use_rate),
                ratio_pct(k.use_rate_ewma),
                match k.staleness {
                    Some(s) => format!("{s:.2}"),
                    None => "-".to_owned(),
                },
                k.live,
                match k.oldest_age_ticks {
                    Some(t) => t.to_string(),
                    None => "-".to_owned(),
                },
            ));
        }
    }
    if health.active_alerts.is_empty() {
        out.push_str("\nslo: all clear\n");
    } else {
        out.push_str(&format!("\nslo: {} FIRING\n", health.active_alerts.len()));
        for rule in &health.active_alerts {
            out.push_str(&format!("  ! {rule}\n"));
        }
    }
    for alert in &health.alerts {
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
                    print!("\x1b[2J\x1b[H");
                }
                print!("{}", render(&sample, frame, source));
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
