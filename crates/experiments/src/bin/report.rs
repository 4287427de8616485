//! Assembles every regenerated artifact in `results/*.json` into a
//! single markdown report (`results/REPORT.md`) — the file a reviewer
//! reads next to the paper.
//!
//! Usage: `report` (run after `all` and any optional ablations).

use ctxres_core::strategies::EXPERIMENT_STRATEGIES;
use ctxres_experiments::ablation::WindowAblation;
use ctxres_experiments::case_study::CaseStudy;
use ctxres_experiments::figures::Figure;
use ctxres_experiments::latency::LatencyPoint;
use ctxres_experiments::metrics::{find_point, FigurePoint};
use ctxres_experiments::out;
use ctxres_experiments::render::Rate;
use ctxres_experiments::sensitivity::StressSweep;
use ctxres_experiments::ERROR_RATES;
use std::fmt::Write as _;
use std::path::Path;

fn load<T: serde::de::DeserializeOwned>(name: &str) -> Option<T> {
    let path = Path::new("results").join(format!("{name}.json"));
    let data = std::fs::read_to_string(path).ok()?;
    serde_json::from_str(&data).ok()
}

/// Writes one rate of a strategy × error-rate grid as a markdown table
/// (the paper's four strategies across, `err_rates` down), then a blank
/// line.
fn rate_table(out: &mut String, rate: Rate, points: &[FigurePoint], err_rates: &[f64]) {
    let _ = writeln!(out, "| err_rate | OPT-R | D-BAD | D-LAT | D-ALL |");
    let _ = writeln!(out, "|---------:|------:|------:|------:|------:|");
    for &err in err_rates {
        let _ = write!(out, "| {:.0}% ", err * 100.0);
        for s in EXPERIMENT_STRATEGIES {
            let _ = write!(out, "| {:.1} ", rate.at(find_point(points, s, err)) * 100.0);
        }
        let _ = writeln!(out, "|");
    }
    let _ = writeln!(out);
}

fn figure_section(out: &mut String, title: &str, fig: &Figure) {
    let _ = writeln!(out, "## {title}\n");
    let _ = writeln!(
        out,
        "{} runs/point, {} contexts/run.\n",
        fig.runs_per_point, fig.trace_len
    );
    for rate in [Rate::CtxUse, Rate::SitAct] {
        let _ = writeln!(out, "**{} (%)**\n", rate.name());
        rate_table(out, rate, &fig.points, &ERROR_RATES);
    }
}

fn main() {
    let mut out = String::new();
    let _ = writeln!(out, "# ctxres — regenerated results\n");
    let _ = writeln!(
        out,
        "Machine-generated by `cargo run -p ctxres-experiments --bin report`; \
         see EXPERIMENTS.md for the paper-vs-measured discussion.\n"
    );

    if let Some(fig) = load::<Figure>("figure9") {
        figure_section(&mut out, "Figure 9 — Call Forwarding", &fig);
    }
    if let Some(fig) = load::<Figure>("figure10") {
        figure_section(&mut out, "Figure 10 — RFID data anomalies", &fig);
    }
    if let Some(fig) = load::<Figure>("cross_kind") {
        figure_section(&mut out, "Cross-kind generality — smart ringer", &fig);
    }

    if let Some(cs) = load::<CaseStudy>("case_study") {
        let _ = writeln!(out, "## §5.2 case study (LANDMARC + drop-bad)\n");
        let _ = writeln!(out, "| metric | measured | paper |");
        let _ = writeln!(out, "|--------|---------:|------:|");
        let _ = writeln!(
            out,
            "| survival rate | {:.1}% | 96.5% |",
            cs.survival * 100.0
        );
        let _ = writeln!(
            out,
            "| removal precision | {:.1}% | 84.7% |",
            cs.precision * 100.0
        );
        let _ = writeln!(
            out,
            "| Rule 1 held | {:.1}% | 100% |",
            cs.rule1_rate * 100.0
        );
        let _ = writeln!(
            out,
            "| Rule 2' held | {:.1}% | 91.7% |",
            cs.rule2_relaxed_rate * 100.0
        );
        let _ = writeln!(out);
    }

    if let Some(ab) = load::<WindowAblation>("ablation_window") {
        let _ = writeln!(out, "## §5.3 window ablation\n");
        let _ = writeln!(out, "| window | used_expected | survival | precision |");
        let _ = writeln!(out, "|-------:|--------------:|---------:|----------:|");
        for p in &ab.points {
            let _ = writeln!(
                out,
                "| {} | {:.1} | {:.1}% | {:.1}% |",
                p.window,
                p.used_expected,
                p.survival * 100.0,
                p.precision * 100.0
            );
        }
        let _ = writeln!(
            out,
            "\ndrop-latest reference: {:.1} used (window 0 must match).\n",
            ab.drop_latest_used_expected
        );
    }

    if let Some(sweeps) = load::<Vec<StressSweep>>("sensitivity") {
        let _ = writeln!(out, "## Beyond-paper sensitivity (error rates to 80 %)\n");
        for sweep in &sweeps {
            let _ = writeln!(out, "**{}** (ctxUseRate %)\n", sweep.application);
            rate_table(&mut out, Rate::CtxUse, &sweep.points, &sweep.err_rates);
        }
    }

    if let Some(dials) = load::<Vec<(String, Vec<LatencyPoint>)>>("latency") {
        let _ = writeln!(
            out,
            "## §3.3 latency/accuracy dial (drop-bad window sweep)
"
        );
        for (app, points) in &dials {
            let _ = writeln!(
                out,
                "**{app}**
"
            );
            let _ = writeln!(
                out,
                "| window | latency (ticks) | used_expected | survival | precision |"
            );
            let _ = writeln!(
                out,
                "|-------:|----------------:|--------------:|---------:|----------:|"
            );
            for p in points {
                let _ = writeln!(
                    out,
                    "| {} | {:.2} | {:.1} | {:.1}% | {:.1}% |",
                    p.window,
                    p.total_latency,
                    p.used_expected,
                    p.survival * 100.0,
                    p.precision * 100.0
                );
            }
            let _ = writeln!(out);
        }
    }

    if let Some(rows) = load::<Vec<(String, CaseStudy)>>("estimator_robustness") {
        let _ = writeln!(
            out,
            "## §6 estimator robustness (case study per technique)
"
        );
        let _ = writeln!(
            out,
            "| estimator | survival | precision | Rule 1 | Rule 2' |"
        );
        let _ = writeln!(
            out,
            "|-----------|---------:|----------:|-------:|--------:|"
        );
        for (name, cs) in &rows {
            let _ = writeln!(
                out,
                "| {name} | {:.1}% | {:.1}% | {:.1}% | {:.1}% |",
                cs.survival * 100.0,
                cs.precision * 100.0,
                cs.rule1_rate * 100.0,
                cs.rule2_relaxed_rate * 100.0
            );
        }
        let _ = writeln!(out);
    }

    match std::fs::write("results/REPORT.md", &out) {
        Ok(()) => eprintln!("wrote results/REPORT.md ({} bytes)", out.len()),
        Err(e) => eprintln!("could not write report: {e}"),
    }
    out!("{out}");
}
