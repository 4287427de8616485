//! The accuracy-vs-latency trade-off (paper §3.3).
//!
//! Drop-bad's deferral "enables the middleware to use the additional
//! time to collect more count value information" — that additional time
//! is a real cost the paper does not quantify. Under this middleware the
//! cost is the use window: every context (and hence every situation
//! activation) lags the physical event by the window, plus any residual
//! delay when an epoch's first supporting context was withheld and
//! coverage had to wait for a later one. The §5.3 window study
//! ([`crate::ablation::window_study`]) sweeps the window for drop-bad,
//! and this module reports its cells as **total activation latency**
//! (window + residual, in ticks) next to the accuracy metrics — making
//! the §5.3 window choice a visible latency/accuracy dial.

use crate::metrics::{Accuracy, RunMetrics};
use serde::{Deserialize, Serialize};

/// One window setting's latency/accuracy summary for drop-bad.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LatencyPoint {
    /// The middleware window, ticks.
    pub window: u64,
    /// Total mean activation latency: window + residual coverage delay.
    pub total_latency: f64,
    /// Mean expected contexts used.
    pub used_expected: f64,
    /// Mean survival rate.
    pub survival: f64,
    /// Mean removal precision.
    pub precision: f64,
}

/// Drop-bad's cells, window-major with `runs` seeds per window, as the
/// latency/accuracy dial ([`crate::ablation::window_study`] runs them).
pub(crate) fn latency_dial(
    windows: &[u64],
    cells: &[RunMetrics],
    runs: usize,
) -> Vec<LatencyPoint> {
    windows
        .iter()
        .zip(cells.chunks(runs))
        .map(|(&window, runs)| {
            let residuals: Vec<f64> = runs.iter().filter_map(|m| m.activation_latency).collect();
            let residual = if residuals.is_empty() {
                0.0
            } else {
                residuals.iter().sum::<f64>() / residuals.len() as f64
            };
            let accuracy = Accuracy::mean(runs);
            LatencyPoint {
                window,
                total_latency: window as f64 + residual,
                used_expected: accuracy.used_expected,
                survival: accuracy.survival,
                precision: accuracy.precision,
            }
        })
        .collect()
}

/// Renders the trade-off table.
pub fn render_latency(points: &[LatencyPoint], app: &str, err_rate: f64) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "drop-bad latency/accuracy dial — {app} at err_rate {:.0}%",
        err_rate * 100.0
    );
    let _ = writeln!(
        out,
        "{:>8}{:>18}{:>16}{:>11}{:>11}",
        "window", "latency (ticks)", "used_expected", "survival", "precision"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>8}{:>18.2}{:>16.1}{:>10.1}%{:>10.1}%",
            p.window,
            p.total_latency,
            p.used_expected,
            p.survival * 100.0,
            p.precision * 100.0
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ablation::window_study;
    use ctxres_apps::call_forwarding::CallForwarding;
    use ctxres_apps::PervasiveApp;

    #[test]
    fn latency_grows_with_the_window_while_accuracy_improves() {
        let app = CallForwarding::new();
        let points = &window_study(&[&app], &[0, 3], 0.3, 3, 240, 2).dials[0].1;
        assert!(points[1].total_latency > points[0].total_latency);
        assert!(points[1].precision > points[0].precision);
        assert!(points[1].used_expected > points[0].used_expected);
    }

    #[test]
    fn rendering_includes_every_window() {
        let app = CallForwarding::new();
        let points = &window_study(&[&app], &[0, 2], 0.2, 1, 90, 2).dials[0].1;
        let s = render_latency(points, app.name(), 0.2);
        assert_eq!(s.lines().count(), 2 + points.len());
    }
}
