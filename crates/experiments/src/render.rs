//! Plain-text rendering of regenerated figures and tables.

use crate::ablation::WindowAblation;
use crate::case_study::CaseStudy;
use crate::figures::Figure;
use crate::metrics::{find_point, FigurePoint};
use crate::ERROR_RATES;
use ctxres_core::strategies::EXPERIMENT_STRATEGIES;
use std::fmt::Write as _;

/// One of the two OPT-R-normalised rates a strategy table shows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rate {
    /// `ctxUseRate`: expected contexts used, against OPT-R's.
    CtxUse,
    /// `sitActRate`: matched situation activations, against OPT-R's.
    SitAct,
}

impl Rate {
    /// The paper's name for the rate.
    pub fn name(self) -> &'static str {
        match self {
            Rate::CtxUse => "ctxUseRate",
            Rate::SitAct => "sitActRate",
        }
    }

    /// The rate at a point (NaN when the point is missing).
    pub fn at(self, point: Option<&FigurePoint>) -> f64 {
        point.map_or(f64::NAN, |p| match self {
            Rate::CtxUse => p.ctx_use_rate,
            Rate::SitAct => p.sit_act_rate,
        })
    }
}

/// Renders one rate of a strategy × error-rate grid as the paper lays
/// it out, in percent: error rates down the side, `strategies` across
/// the top.
pub fn render_rate_table(
    title: &str,
    rate: Rate,
    points: &[FigurePoint],
    strategies: &[&str],
    err_rates: &[f64],
) -> String {
    let width = strategies.iter().map(|s| s.len() + 2).fold(9, usize::max);
    let mut out = String::new();
    let _ = writeln!(out, "{} (%) — {title}", rate.name());
    let _ = write!(out, "{:>10}", "err_rate");
    for s in strategies {
        let _ = write!(out, "{:>width$}", s.to_uppercase());
    }
    let _ = writeln!(out);
    for &err in err_rates {
        let _ = write!(out, "{:>9.0}%", err * 100.0);
        for s in strategies {
            let v = rate.at(find_point(points, s, err));
            let _ = write!(out, "{:>width$.1}", v * 100.0);
        }
        let _ = writeln!(out);
    }
    out
}

/// Renders both rates of a figure (top and bottom panels).
pub fn render_figure(fig: &Figure) -> String {
    let panel = |rate| {
        render_rate_table(
            &fig.application,
            rate,
            &fig.points,
            &EXPERIMENT_STRATEGIES,
            &ERROR_RATES,
        )
    };
    format!("{}\n{}", panel(Rate::CtxUse), panel(Rate::SitAct))
}

/// Renders the §5.2 case-study table next to the paper's numbers.
pub fn render_case_study(cs: &CaseStudy) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Landmarc case study (§5.2) — err_rate {:.0}%, {} runs, {} inconsistencies",
        cs.err_rate * 100.0,
        cs.runs,
        cs.inconsistencies
    );
    let _ = writeln!(out, "{:<28}{:>10}{:>10}", "metric", "measured", "paper");
    let _ = writeln!(
        out,
        "{:<28}{:>9.1}%{:>9.1}%",
        "context survival rate",
        cs.survival * 100.0,
        96.5
    );
    let _ = writeln!(
        out,
        "{:<28}{:>9.1}%{:>9.1}%",
        "removal precision",
        cs.precision * 100.0,
        84.7
    );
    let _ = writeln!(
        out,
        "{:<28}{:>9.1}%{:>9.1}%",
        "Rule 1 held",
        cs.rule1_rate * 100.0,
        100.0
    );
    let _ = writeln!(
        out,
        "{:<28}{:>9.1}%{:>10}",
        "Rule 2 held",
        cs.rule2_rate * 100.0,
        "n/a"
    );
    let _ = writeln!(
        out,
        "{:<28}{:>9.1}%{:>9.1}%",
        "Rule 2' held",
        cs.rule2_relaxed_rate * 100.0,
        91.7
    );
    out
}

/// Renders the window ablation sweep.
pub fn render_window_ablation(ab: &WindowAblation) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "Drop-bad time-window sweep (§5.3) — err_rate {:.0}%",
        ab.err_rate * 100.0
    );
    let _ = writeln!(
        out,
        "{:>8}{:>16}{:>12}{:>12}",
        "window", "used_expected", "survival", "precision"
    );
    for p in &ab.points {
        let _ = writeln!(
            out,
            "{:>8}{:>16.1}{:>11.1}%{:>11.1}%",
            p.window,
            p.used_expected,
            p.survival * 100.0,
            p.precision * 100.0
        );
    }
    let _ = writeln!(
        out,
        "drop-latest reference: used_expected {:.1} (window-0 drop-bad must match)",
        ab.drop_latest_used_expected
    );
    out
}

/// Writes a serializable result under `results/<name>.json`, creating
/// the directory if needed, and reports the path written on stderr. A
/// result that cannot be written is reported there too and ends the
/// process with status 1, so a regeneration never passes over a stale
/// file.
pub fn write_json<T: serde::Serialize>(name: &str, value: &T) {
    let write = || -> Result<String, String> {
        let dir = std::path::Path::new("results");
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let path = dir.join(format!("{name}.json"));
        let json = serde_json::to_string_pretty(value).map_err(|e| e.to_string())?;
        std::fs::write(&path, json).map_err(|e| e.to_string())?;
        Ok(path.display().to_string())
    };
    match write() {
        Ok(path) => eprintln!("wrote {path}"),
        Err(e) => {
            eprintln!("could not write results json: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FigurePoint;

    fn tiny_figure() -> Figure {
        Figure {
            application: "call-forwarding".into(),
            points: ERROR_RATES
                .iter()
                .flat_map(|&err| {
                    EXPERIMENT_STRATEGIES.iter().map(move |s| FigurePoint {
                        strategy: (*s).to_owned(),
                        err_rate: err,
                        ctx_use_rate: 0.9,
                        sit_act_rate: 0.8,
                        mean_used: 100.0,
                        mean_matched: 10.0,
                        runs: 2,
                    })
                })
                .collect(),
            trace_len: 10,
            runs_per_point: 2,
        }
    }

    #[test]
    fn figure_rendering_contains_all_strategies_and_rates() {
        let s = render_figure(&tiny_figure());
        for name in ["OPT-R", "D-BAD", "D-LAT", "D-ALL"] {
            assert!(s.contains(name), "{name} missing");
        }
        for rate in ["10%", "20%", "30%", "40%"] {
            assert!(s.contains(rate), "{rate} missing");
        }
        assert!(s.contains("ctxUseRate"));
        assert!(s.contains("sitActRate"));
    }

    #[test]
    fn case_study_rendering_quotes_paper_values() {
        let cs = CaseStudy {
            err_rate: 0.2,
            runs: 3,
            survival: 0.95,
            precision: 0.85,
            rule1_rate: 1.0,
            rule2_rate: 0.8,
            rule2_relaxed_rate: 0.92,
            inconsistencies: 123,
        };
        let s = render_case_study(&cs);
        assert!(s.contains("96.5"));
        assert!(s.contains("84.7"));
        assert!(s.contains("91.7"));
    }
}
