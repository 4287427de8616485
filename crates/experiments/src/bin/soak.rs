//! Soak harness: sustained city traffic through the sharded engine
//! with the full live-telemetry stack attached, rotating injected
//! error-rate regressions and a mid-run strategy swap, asserting the
//! SLO engine fires on each regression and recovers afterwards while
//! the pool/ring/RSS watermarks stay bounded.
//!
//! ```text
//! soak [--quick] [--inject-leak] [--minutes N]
//! ```
//!
//! The run cycles through five phases — clean traffic, an injected
//! teleport-rate regression, recovery, a second regression combined
//! with a live [`ShardedMiddleware::swap_strategy`], and a final
//! recovery. Each phase streams a fixed number of sampler windows
//! (one `batch_add` + `drain` + [`Sampler::sample_after`] per window),
//! so SLO evaluation runs at exactly the cadence a live monitor
//! scrapes at. The checks:
//!
//! - **clean_quiet** — the settled clean phase raises no transitions;
//! - **regression_fires** — every injected regression raises a FIRING
//!   [`HealthAlert`] within 2 sampler windows of the injection;
//! - **recovery_clears** — every recovery phase emits a cleared
//!   transition and ends with no rule active;
//! - **clean_p99_bounded** — every clean-phase window's end-to-end
//!   p99 (wall clock, from the tail-span layer) stays under an
//!   absolute ceiling;
//! - **latency_fires / latency_clears** — an `e2e_p99_ms` SLO rule,
//!   its threshold calibrated off the first clean phase's steady-state
//!   p99, fires during each injected teleport regression and clears
//!   again in the following recovery. A teleport storm arrives with
//!   proportionate sensor chatter (an implausible jump makes the
//!   reader re-sample), so regression phases carry
//!   [`STORM_CHATTER`]× the reading volume — that extra per-window
//!   work is what genuinely stretches the batches' wall-clock tail;
//! - **detections_present** — the workload genuinely planted
//!   inconsistencies (a zero count means detection broke, not health);
//! - **ring_bounded** — no trace events were dropped;
//! - **pool_bounded** — the arena's live-slot watermark at the end of
//!   the run stays within a small factor of its first-phase baseline
//!   (retention + TTL make steady state O(window), not O(stream));
//! - **heap_bounded** — the process's peak resident set stays within
//!   the same factor of its size at the end of the first clean phase.
//!
//! `--inject-leak` is the synthetic leak fixture: it strips both the
//! readings' TTL and the engine's retention window, so live slots and
//! the heap grow with the stream and **pool_bounded and heap_bounded
//! must fail** — CI asserts this mode exits nonzero, proving the
//! watermark checks actually bite.
//! `--quick` shrinks the workload for CI smoke runs (well under 90 s);
//! `--minutes N` repeats the five-phase cycle until N minutes of wall
//! clock have elapsed. Exit code 0 = all checks passed, 1 = any
//! failed; one JSON summary document (phases, alert timeline, checks,
//! watermarks) goes to stdout either way.

use ctxres_constraint::parse_constraints;
use ctxres_context::Ticks;
use ctxres_core::strategies::{DropBad, DropLatest};
use ctxres_core::ResolutionStrategy;
use ctxres_experiments::city::{CityConfig, CityWorkload};
use ctxres_middleware::{Middleware, MiddlewareConfig, ShardPlan, ShardedMiddleware};
use ctxres_obs::{HealthAlert, ObsConfig, Sampler, SloEngine};
use serde::Serialize;
use std::process::ExitCode;
use std::time::Instant;

const SPEED: &str = "constraint speed:
    forall a: location, b: location .
      (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 1.5)";

/// The rules under soak: windowed discard and violation rates on the
/// city's location stream. `for 2` gives each a 2-window burn, so a
/// regression must fire within 2 sampler windows and a recovery must
/// clear within 2 (plus the 10% hysteresis deadband).
const SLO_RULES: &str = "discard_rate{kind=\"location\"} > 0.15 for 2
violation_rate{kind=\"location\"} > 0.15 for 2";

const SHARDS: usize = 4;
/// Sliding retention (and reading TTL), in sampler windows. One tick
/// is one reading, so retention must span a couple of windows — else a
/// cold subject's track is compacted before its next reading arrives
/// and the planted violation pair never forms.
const RETENTION_WINDOWS: u64 = 2;
/// Teleport probability of healthy city traffic.
const CLEAN_RATE: f64 = 0.02;
/// Injected regression: roughly every other reading of a warmed-up
/// subject violates the speed bound.
const HOT_RATE: f64 = 0.45;
/// `pool_bounded` and `heap_bounded` allow this factor of growth over
/// their first-phase baselines (`pool_bounded` plus a small absolute
/// slack for tiny pools).
const POOL_GROWTH_FACTOR: f64 = 3.0;
const POOL_GROWTH_SLACK: u64 = 64;
/// Absolute ceiling on any clean-phase window's end-to-end p99, in
/// milliseconds. Generous on purpose: it catches pathological stalls
/// (lock convoys, runaway pools), not ordinary scheduler jitter.
const CLEAN_P99_BOUND_MS: f64 = 400.0;
/// Reading-volume multiplier of a regression phase: the teleport
/// storm's sensor chatter. Sized so a storm window's batch takes
/// roughly `STORM_CHATTER`× the clean wall clock — comfortably past
/// the latency threshold — while recovery windows drop straight back.
const STORM_CHATTER: usize = 3;
/// The latency SLO threshold as a multiple of the first clean phase's
/// steady-state windowed p99 — regressions must slow batches past
/// this, recoveries must come back under the 10% hysteresis deadband.
/// Sits between the clean ceiling (1×) and the storm floor
/// (~[`STORM_CHATTER`]×) with wide margins on both sides.
const LATENCY_FIRE_FACTOR: f64 = 1.75;
/// Absolute floor (ms) added to the calibrated latency threshold so a
/// sub-millisecond clean baseline doesn't arm a hair-trigger rule.
const LATENCY_FLOOR_MS: f64 = 0.5;

/// One phase of the soak cycle.
struct PhaseSpec {
    name: &'static str,
    teleport_rate: f64,
    /// Reading-volume multiplier (1 = clean traffic,
    /// [`STORM_CHATTER`] = a teleport storm's re-sampling chatter).
    chatter: usize,
    /// Hot-swap the resolution strategy at the phase boundary.
    swap: bool,
    /// What the phase must demonstrate.
    expect: Expect,
}

enum Expect {
    /// No SLO transitions at all.
    Quiet,
    /// A FIRING transition within 2 windows of the phase start.
    Fires,
    /// A cleared transition, and no rule active at the phase end.
    Clears,
}

const PHASES: [PhaseSpec; 5] = [
    PhaseSpec {
        name: "clean",
        teleport_rate: CLEAN_RATE,
        chatter: 1,
        swap: false,
        expect: Expect::Quiet,
    },
    PhaseSpec {
        name: "regression",
        teleport_rate: HOT_RATE,
        chatter: STORM_CHATTER,
        swap: false,
        expect: Expect::Fires,
    },
    PhaseSpec {
        name: "recovery",
        teleport_rate: CLEAN_RATE,
        chatter: 1,
        swap: false,
        expect: Expect::Clears,
    },
    PhaseSpec {
        name: "regression-swap",
        teleport_rate: HOT_RATE,
        chatter: STORM_CHATTER,
        swap: true,
        expect: Expect::Fires,
    },
    PhaseSpec {
        name: "recovery-final",
        teleport_rate: CLEAN_RATE,
        chatter: 1,
        swap: false,
        expect: Expect::Clears,
    },
];

fn engine_builder(leak: bool, retention: u64) -> ctxres_middleware::MiddlewareBuilder {
    Middleware::builder()
        .constraints(parse_constraints(SPEED).unwrap())
        .strategy(Box::new(DropBad::new()))
        .config(MiddlewareConfig {
            window: Ticks::new(0),
            track_ground_truth: false,
            retention: if leak {
                None
            } else {
                Some(Ticks::new(retention))
            },
        })
}

/// Resident set size from `/proc/self/statm`, when the platform has it.
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    let pages: u64 = statm.split_whitespace().nth(1)?.parse().ok()?;
    Some(pages * 4096)
}

/// One SLO transition in the run's timeline.
#[derive(Debug, Clone, Serialize)]
struct AlertRow {
    cycle: usize,
    phase: String,
    /// Window index within the phase (0-based).
    window: usize,
    firing: bool,
    /// The transition, rendered (`slo FIRING <rule>: <metric> = ...`).
    alert: String,
}

/// One pass/fail verdict of the harness.
#[derive(Debug, Clone, Serialize)]
struct Check {
    name: String,
    pass: bool,
    detail: String,
}

/// High-water marks tracked across the whole run.
#[derive(Debug, Clone, Serialize)]
struct Watermarks {
    pool_live_max: u64,
    pool_free_max: u64,
    pool_occupancy_max: f64,
    /// Live slots at the end of the first (clean) phase — the
    /// steady-state baseline `pool_bounded` measures growth against.
    pool_live_baseline: u64,
    pool_live_final: u64,
    ring_dropped: u64,
    staleness_max: f64,
    oldest_age_ticks_max: u64,
    /// Resident set at the end of the first (clean) phase — the
    /// baseline `heap_bounded` measures the peak against.
    rss_baseline_bytes: Option<u64>,
    rss_max_bytes: Option<u64>,
}

/// The end-to-end latency leg of the run: the calibrated SLO rule and
/// the phase-level p99 extremes it was judged against.
#[derive(Debug, Clone, Serialize)]
struct LatencySummary {
    /// The calibrated `e2e_p99_ms` rule line (`None` when the first
    /// clean phase recorded no tail windows).
    rule: Option<String>,
    /// Steady-state (worst-window) p99 of the first clean phase,
    /// milliseconds — the calibration base.
    baseline_p99_ms: Option<f64>,
    /// Worst clean-phase window p99 seen anywhere in the run.
    clean_p99_ms_max: Option<f64>,
    /// Worst regression-phase window p99 seen anywhere in the run.
    regression_p99_ms_max: Option<f64>,
    /// The absolute clean-phase ceiling the bound check used.
    clean_p99_bound_ms: f64,
}

/// The JSON document the harness prints.
#[derive(Debug, Clone, Serialize)]
struct SoakSummary {
    quick: bool,
    inject_leak: bool,
    cycles: usize,
    windows: usize,
    window_contexts: usize,
    contexts: u64,
    inconsistencies: u64,
    strategy_swaps: usize,
    elapsed_secs: f64,
    alerts: Vec<AlertRow>,
    checks: Vec<Check>,
    watermarks: Watermarks,
    latency: LatencySummary,
    passed: bool,
}

/// Folds a window's p99 into a running per-phase-kind maximum.
fn fold_max(slot: &mut Option<f64>, p99: f64) {
    *slot = Some(slot.map_or(p99, |m: f64| m.max(p99)));
}

struct Args {
    quick: bool,
    inject_leak: bool,
    minutes: Option<f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        quick: false,
        inject_leak: false,
        minutes: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--quick" => args.quick = true,
            "--inject-leak" => args.inject_leak = true,
            "--minutes" => {
                let v = it.next().ok_or("--minutes needs a value")?;
                args.minutes = Some(v.parse().map_err(|e| format!("--minutes: {e}"))?);
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: soak [--quick] [--inject-leak] [--minutes N]");
            return ExitCode::FAILURE;
        }
    };
    let (subjects, window_contexts, windows_per_phase) = if args.quick {
        (10_000, 2048, 5)
    } else {
        (50_000, 4096, 6)
    };
    let leak = args.inject_leak;
    let retention = RETENTION_WINDOWS * window_contexts as u64;

    let mut city = CityWorkload::new(CityConfig {
        subjects,
        teleport_rate: CLEAN_RATE,
        ttl_ticks: if leak { None } else { Some(retention) },
        seed: 0x50a6,
        ..CityConfig::default()
    });
    let plan = ShardPlan::analyze(&parse_constraints(SPEED).unwrap(), SHARDS);
    // Tail spans stay on for the whole soak: the latency leg reads the
    // windowed end-to-end p99 off the sampler's tail view.
    let registry =
        ShardedMiddleware::obs_registry(&plan, ObsConfig::metrics_only().with_tail(true));
    let sharded = ShardedMiddleware::new_observed(plan, &registry, |_, obs| {
        engine_builder(leak, retention).obs(obs).build()
    });
    let engine = SloEngine::from_spec(SLO_RULES).expect("built-in SLO rules parse");
    let mut sampler = Sampler::new(registry).with_slo(engine);

    eprintln!(
        "soak: {subjects} subjects, {SHARDS} shards, {windows_per_phase} windows/phase × {window_contexts} ctx, rules:\n{SLO_RULES}",
    );
    if leak {
        eprintln!(
            "soak: LEAK INJECTED — no TTL, no retention; pool_bounded and heap_bounded must fail"
        );
    }

    let start = Instant::now();
    let mut marks = Watermarks {
        pool_live_max: 0,
        pool_free_max: 0,
        pool_occupancy_max: 0.0,
        pool_live_baseline: 0,
        pool_live_final: 0,
        ring_dropped: 0,
        staleness_max: 0.0,
        oldest_age_ticks_max: 0,
        rss_baseline_bytes: None,
        rss_max_bytes: None,
    };
    let mut alerts: Vec<AlertRow> = Vec::new();
    let mut checks: Vec<Check> = Vec::new();
    let mut windows = 0usize;
    let mut swaps = 0usize;
    let mut cycles = 0usize;
    let mut final_active: Vec<String> = Vec::new();
    // The latency leg: a second SLO engine carrying one `e2e_p99_ms`
    // rule, armed once the first clean phase has calibrated a baseline.
    let mut latency_engine: Option<SloEngine> = None;
    let mut latency = LatencySummary {
        rule: None,
        baseline_p99_ms: None,
        clean_p99_ms_max: None,
        regression_p99_ms_max: None,
        clean_p99_bound_ms: CLEAN_P99_BOUND_MS,
    };

    loop {
        for phase in &PHASES {
            city.set_teleport_rate(phase.teleport_rate);
            if phase.swap {
                // Hot-swap every shard's strategy mid-run; alternate so
                // repeated cycles exercise both directions.
                sharded.drain();
                let to_latest = swaps.is_multiple_of(2);
                sharded.swap_strategy(|_| -> Box<dyn ResolutionStrategy + Send> {
                    if to_latest {
                        Box::new(DropLatest::new())
                    } else {
                        Box::new(DropBad::new())
                    }
                });
                swaps += 1;
                eprintln!(
                    "  [{}] swapped strategy to {}",
                    phase.name,
                    if to_latest { "drop-latest" } else { "d-bad" }
                );
            }
            let mut phase_alerts: Vec<(usize, HealthAlert)> = Vec::new();
            let mut active_at_end: Vec<String> = Vec::new();
            let mut phase_p99s: Vec<f64> = Vec::new();
            let mut phase_latency: Vec<HealthAlert> = Vec::new();
            for w in 0..windows_per_phase {
                let batch = city.batch(window_contexts * phase.chatter);
                sharded.batch_add(&batch);
                sharded.drain();
                let sample = sampler.sample_after(1.0);
                windows += 1;
                let all_p99 = [("outcome", "all"), ("q", "0.99")];
                let p99_ms = sample
                    .gauge("ctxres_e2e_window_quantile_ns", &all_p99)
                    .map(|ns| ns / 1e6);
                if let Some(p99) = p99_ms {
                    eprintln!("  [{} w{w}] e2e p99 {p99:.2} ms", phase.name);
                    phase_p99s.push(p99);
                    match phase.expect {
                        Expect::Fires => fold_max(&mut latency.regression_p99_ms_max, p99),
                        Expect::Quiet | Expect::Clears => {
                            fold_max(&mut latency.clean_p99_ms_max, p99);
                        }
                    }
                }
                if let Some(engine) = latency_engine.as_mut() {
                    for alert in engine.evaluate(&sample, windows as u64) {
                        eprintln!("  [{} w{w}] {alert}", phase.name);
                        alerts.push(AlertRow {
                            cycle: cycles,
                            phase: phase.name.to_owned(),
                            window: w,
                            firing: alert.firing,
                            alert: alert.to_string(),
                        });
                        phase_latency.push(alert);
                    }
                }
                let gauges = |family: &str| -> Vec<f64> {
                    sample
                        .family(family)
                        .filter_map(|s| s.value.gauge())
                        .collect()
                };
                if sample.family("ctxres_pool_live_slots").next().is_some() {
                    let live = gauges("ctxres_pool_live_slots").iter().sum::<f64>() as u64;
                    let free = gauges("ctxres_pool_free_slots").iter().sum::<f64>() as u64;
                    marks.pool_live_max = marks.pool_live_max.max(live);
                    marks.pool_free_max = marks.pool_free_max.max(free);
                    if let Some(occ) = sample.gauge("ctxres_pool_occupancy", &[]) {
                        marks.pool_occupancy_max = marks.pool_occupancy_max.max(occ);
                    }
                    marks.pool_live_final = live;
                }
                for staleness in gauges("ctxres_health_staleness") {
                    marks.staleness_max = marks.staleness_max.max(staleness);
                }
                for age in gauges("ctxres_health_oldest_age_ticks") {
                    marks.oldest_age_ticks_max = marks.oldest_age_ticks_max.max(age as u64);
                }
                for alert in &sample.alerts {
                    eprintln!("  [{} w{w}] {alert}", phase.name);
                    alerts.push(AlertRow {
                        cycle: cycles,
                        phase: phase.name.to_owned(),
                        window: w,
                        firing: alert.firing,
                        alert: alert.to_string(),
                    });
                    phase_alerts.push((w, alert.clone()));
                }
                active_at_end = sample
                    .family("ctxres_slo_firing")
                    .filter_map(|s| s.label("rule").map(str::to_owned))
                    .collect();
                marks.ring_dropped = marks
                    .ring_dropped
                    .max(sample.total("ctxres_trace_events_dropped_total"));
                if let Some(rss) = rss_bytes() {
                    marks.rss_max_bytes = Some(marks.rss_max_bytes.unwrap_or(0).max(rss));
                }
            }
            if cycles == 0 && phase.name == "clean" {
                marks.pool_live_baseline = marks.pool_live_final;
                marks.rss_baseline_bytes = rss_bytes();
                // Calibrate the latency rule off this phase's worst
                // windowed p99 — early clean windows ramp up while the
                // pool fills, so the maximum is the steady state.
                // Machine-independent, yet the storm phases (running
                // STORM_CHATTER× the per-window work) must breach it.
                let baseline = phase_p99s.iter().copied().fold(f64::NAN, f64::max);
                if baseline.is_finite() {
                    let threshold =
                        (baseline * LATENCY_FIRE_FACTOR).max(baseline + LATENCY_FLOOR_MS);
                    let rule = format!("e2e_p99_ms > {threshold:.3} for 2");
                    eprintln!("  [clean] latency baseline p99 {baseline:.3} ms -> rule {rule:?}");
                    latency_engine =
                        Some(SloEngine::from_spec(&rule).expect("calibrated latency rule parses"));
                    latency.baseline_p99_ms = Some(baseline);
                    latency.rule = Some(rule);
                }
            }
            final_active = active_at_end.clone();
            let tag = |name: &str| format!("cycle{cycles}/{}/{name}", phase.name);
            match phase.expect {
                Expect::Quiet => {
                    checks.push(Check {
                        name: tag("clean_quiet"),
                        pass: phase_alerts.is_empty(),
                        detail: format!("{} transition(s) in a clean phase", phase_alerts.len()),
                    });
                    let worst = phase_p99s.iter().copied().fold(0.0f64, f64::max);
                    checks.push(Check {
                        name: tag("clean_p99_bounded"),
                        pass: !phase_p99s.is_empty() && worst <= CLEAN_P99_BOUND_MS,
                        detail: format!(
                            "worst clean window p99 {worst:.3} ms vs bound {CLEAN_P99_BOUND_MS} ms \
                             ({} tail window(s))",
                            phase_p99s.len(),
                        ),
                    });
                }
                Expect::Fires => {
                    let fired_at = phase_alerts.iter().find(|(_, a)| a.firing).map(|(w, _)| *w);
                    checks.push(Check {
                        name: tag("regression_fires"),
                        pass: fired_at.is_some_and(|w| w < 2),
                        detail: match fired_at {
                            Some(w) => format!("first FIRING alert in window {w} (need < 2)"),
                            None => "no FIRING alert in the regression phase".to_owned(),
                        },
                    });
                    let fired = phase_latency.iter().any(|a| a.firing);
                    checks.push(Check {
                        name: tag("latency_fires"),
                        pass: latency_engine.is_some() && fired,
                        detail: match &latency.rule {
                            Some(rule) => format!(
                                "latency rule {rule:?} {} during the regression",
                                if fired { "fired" } else { "did not fire" },
                            ),
                            None => "no calibrated latency rule (clean phase had no tail windows)"
                                .to_owned(),
                        },
                    });
                }
                Expect::Clears => {
                    let cleared = phase_alerts.iter().any(|(_, a)| !a.firing);
                    checks.push(Check {
                        name: tag("recovery_clears"),
                        pass: cleared && active_at_end.is_empty(),
                        detail: format!(
                            "cleared transition: {cleared}; still firing at phase end: {active_at_end:?}",
                        ),
                    });
                    let lat_cleared = phase_latency.iter().any(|a| !a.firing);
                    let lat_active = latency_engine
                        .as_ref()
                        .map(|e| e.active())
                        .unwrap_or_default();
                    checks.push(Check {
                        name: tag("latency_clears"),
                        pass: lat_cleared && lat_active.is_empty(),
                        detail: format!(
                            "latency cleared transition: {lat_cleared}; still firing at phase end: {lat_active:?}",
                        ),
                    });
                }
            }
        }
        cycles += 1;
        let elapsed = start.elapsed().as_secs_f64();
        let more = args.minutes.is_some_and(|m| elapsed < m * 60.0);
        if !more {
            break;
        }
    }

    let stats = sharded.stats();
    checks.push(Check {
        name: "detections_present".to_owned(),
        pass: stats.inconsistencies > 0,
        detail: format!("{} inconsistencies detected", stats.inconsistencies),
    });
    checks.push(Check {
        name: "ring_bounded".to_owned(),
        pass: marks.ring_dropped == 0,
        detail: format!("{} trace events dropped", marks.ring_dropped),
    });
    let pool_cap =
        (marks.pool_live_baseline as f64 * POOL_GROWTH_FACTOR) as u64 + POOL_GROWTH_SLACK;
    checks.push(Check {
        name: "pool_bounded".to_owned(),
        pass: marks.pool_live_final <= pool_cap,
        detail: format!(
            "final {} live slots vs baseline {} (cap {pool_cap})",
            marks.pool_live_final, marks.pool_live_baseline,
        ),
    });
    let (heap_pass, heap_detail) = match (marks.rss_max_bytes, marks.rss_baseline_bytes) {
        (Some(max), Some(baseline)) => {
            let cap = (baseline as f64 * POOL_GROWTH_FACTOR) as u64;
            (
                max <= cap,
                format!("peak RSS {max} B vs first-phase {baseline} B (cap {cap})"),
            )
        }
        _ => (false, "no RSS reading (needs /proc/self/statm)".to_owned()),
    };
    checks.push(Check {
        name: "heap_bounded".to_owned(),
        pass: heap_pass,
        detail: heap_detail,
    });
    checks.push(Check {
        name: "settled_at_end".to_owned(),
        pass: final_active.is_empty(),
        detail: format!("active rules after the last recovery: {final_active:?}"),
    });

    let passed = checks.iter().all(|c| c.pass);
    let summary = SoakSummary {
        quick: args.quick,
        inject_leak: leak,
        cycles,
        windows,
        window_contexts,
        contexts: city.emitted(),
        inconsistencies: stats.inconsistencies,
        strategy_swaps: swaps,
        elapsed_secs: start.elapsed().as_secs_f64(),
        alerts,
        checks,
        watermarks: marks,
        latency,
        passed,
    };
    for c in &summary.checks {
        eprintln!(
            "  {} {}: {}",
            if c.pass { "PASS" } else { "FAIL" },
            c.name,
            c.detail
        );
    }
    eprintln!(
        "soak: {} — {} windows, {} contexts, {} alert transition(s), {:.1}s",
        if passed { "OK" } else { "FAIL" },
        summary.windows,
        summary.contexts,
        summary.alerts.len(),
        summary.elapsed_secs,
    );
    let json = serde_json::to_string_pretty(&summary).expect("serialize soak summary");
    println!("{json}");
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
