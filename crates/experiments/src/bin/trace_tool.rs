//! Workload-trace utility: generate, inspect, and replay recorded
//! context traces.
//!
//! ```text
//! trace_tool generate <app> <err_rate> <seed> <len> <out.jsonl>
//! trace_tool inspect  <trace.jsonl>
//! trace_tool stats    <trace.jsonl>
//! trace_tool replay   <trace.jsonl> <strategy> [constraints-app]
//! ```
//!
//! `<app>` is `call-forwarding`, `rfid-anomalies`, `location-tracking` or
//! `smart-ringer`.

use ctxres_apps::call_forwarding::CallForwarding;
use ctxres_apps::location_tracking::LocationTracking;
use ctxres_apps::rfid_anomalies::RfidAnomalies;
use ctxres_apps::smart_ringer::SmartRinger;
use ctxres_apps::PervasiveApp;
use ctxres_context::{Ticks, TruthTag};
use ctxres_core::strategies::by_name;
use ctxres_experiments::outln;
use ctxres_experiments::trace_io::{load_trace, save_trace};
use ctxres_middleware::{Middleware, MiddlewareConfig};
use std::path::Path;
use std::process::ExitCode;

fn app_by_name(name: &str) -> Option<Box<dyn PervasiveApp>> {
    match name {
        "call-forwarding" => Some(Box::new(CallForwarding::new())),
        "rfid-anomalies" => Some(Box::new(RfidAnomalies::new())),
        "location-tracking" => Some(Box::new(LocationTracking::new())),
        "smart-ringer" => Some(Box::new(SmartRinger::new())),
        _ => None,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!(
                "usage:\n  trace_tool generate <app> <err_rate> <seed> <len> <out.jsonl>\n  \
                 trace_tool inspect <trace.jsonl>\n  \
                 trace_tool stats <trace.jsonl>\n  \
                 trace_tool replay <trace.jsonl> <strategy> [constraints-app]"
            );
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("generate") => {
            let [_, app, err, seed, len, out] = args else {
                return Err("generate needs 5 arguments".into());
            };
            let app = app_by_name(app).ok_or_else(|| format!("unknown app {app:?}"))?;
            let err: f64 = err.parse().map_err(|e| format!("err_rate: {e}"))?;
            let seed: u64 = seed.parse().map_err(|e| format!("seed: {e}"))?;
            let len: usize = len.parse().map_err(|e| format!("len: {e}"))?;
            let trace = app.generate(err, seed, len);
            save_trace(Path::new(out), &trace)?;
            outln!("wrote {len} contexts to {out}");
            Ok(())
        }
        Some("inspect") => {
            let [_, path] = args else {
                return Err("inspect needs 1 argument".into());
            };
            let trace = load_trace(Path::new(path))?;
            let corrupted = trace
                .iter()
                .filter(|c| c.truth() == TruthTag::Corrupted)
                .count();
            let kinds: std::collections::BTreeSet<&str> =
                trace.iter().map(|c| c.kind().name()).collect();
            let subjects: std::collections::BTreeSet<&str> =
                trace.iter().map(|c| c.subject()).collect();
            outln!("{} contexts ({corrupted} corrupted)", trace.len());
            outln!("kinds: {kinds:?}");
            outln!("subjects: {subjects:?}");
            if let (Some(first), Some(last)) = (trace.first(), trace.last()) {
                outln!("stamps: {} .. {}", first.stamp(), last.stamp());
            }
            Ok(())
        }
        Some("stats") => {
            let [_, path] = args else {
                return Err("stats needs 1 argument".into());
            };
            let trace = load_trace(Path::new(path))?;
            // Per-kind and per-subject breakdowns with corruption rates.
            let mut by_kind: std::collections::BTreeMap<String, (usize, usize)> =
                std::collections::BTreeMap::new();
            let mut by_subject: std::collections::BTreeMap<String, (usize, usize)> =
                std::collections::BTreeMap::new();
            for c in &trace {
                let k = by_kind.entry(c.kind().name().to_owned()).or_default();
                k.0 += 1;
                let s = by_subject.entry(c.subject().to_owned()).or_default();
                s.0 += 1;
                if c.truth() == TruthTag::Corrupted {
                    k.1 += 1;
                    s.1 += 1;
                }
            }
            outln!("{:<16}{:>8}{:>12}", "kind", "count", "corrupted");
            for (kind, (n, bad)) in &by_kind {
                outln!("{kind:<16}{n:>8}{:>11.1}%", *bad as f64 / *n as f64 * 100.0);
            }
            outln!();
            outln!("{:<16}{:>8}{:>12}", "subject", "count", "corrupted");
            for (subject, (n, bad)) in &by_subject {
                outln!(
                    "{subject:<16}{n:>8}{:>11.1}%",
                    *bad as f64 / *n as f64 * 100.0
                );
            }
            let span = trace
                .last()
                .zip(trace.first())
                .map(|(l, f)| (l.stamp() - f.stamp()).count() + 1)
                .unwrap_or(0);
            outln!();
            outln!(
                "{} contexts over {span} ticks ({:.2} contexts/tick)",
                trace.len(),
                trace.len() as f64 / span.max(1) as f64
            );
            Ok(())
        }
        Some("replay") => {
            let (path, strategy, capp) = match args {
                [_, path, strategy] => (path, strategy, "call-forwarding".to_owned()),
                [_, path, strategy, capp] => (path, strategy, capp.clone()),
                _ => return Err("replay needs 2-3 arguments".into()),
            };
            let trace = load_trace(Path::new(path))?;
            let app = app_by_name(&capp).ok_or_else(|| format!("unknown app {capp:?}"))?;
            let strategy =
                by_name(strategy, 0).ok_or_else(|| format!("unknown strategy {strategy:?}"))?;
            let mut mw = Middleware::builder()
                .constraints(app.constraints())
                .situations(app.situations())
                .registry(app.registry())
                .strategy(strategy)
                .config(MiddlewareConfig {
                    window: Ticks::new(app.recommended_window()),
                    track_ground_truth: true,
                    retention: None,
                })
                .build();
            for ctx in trace {
                mw.submit(ctx);
            }
            mw.drain();
            let s = mw.stats();
            outln!(
                "delivered {} ({} expected, {} corrupted), discarded {} ({} corrupted), \
                 {} inconsistencies, survival {:.1}%, precision {:.1}%",
                s.delivered,
                s.delivered_expected,
                s.delivered_corrupted,
                s.discarded,
                s.discarded_corrupted,
                s.inconsistencies,
                s.survival_rate() * 100.0,
                s.removal_precision() * 100.0,
            );
            Ok(())
        }
        _ => Err("unknown subcommand".into()),
    }
}
