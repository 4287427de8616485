//! Sensitivity analysis beyond the paper's grid.
//!
//! The paper evaluates at 10–40 % error ("designed based on real-life
//! observations about the RFID error rate"). Two natural questions it
//! leaves open: *where does drop-bad's heuristic break down* as errors
//! keep growing (Rule 2 assumes corrupted contexts out-participate
//! expected ones — at very high error rates corrupted contexts start
//! colliding with each other), and how sensitive the result is to the
//! *stream density* (contexts per subject per tick) that feeds the count
//! values.

use crate::figures::oracle_grid;
use crate::metrics::FigurePoint;
use ctxres_apps::PervasiveApp;
use ctxres_core::strategies::EXPERIMENT_STRATEGIES;
use serde::{Deserialize, Serialize};

/// Results of the high-error stress sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StressSweep {
    /// Application name.
    pub application: String,
    /// One point per (strategy, error rate).
    pub points: Vec<FigurePoint>,
    /// The error rates swept.
    pub err_rates: Vec<f64>,
}

/// Sweeps the error rate well past the paper's 40 % ceiling: the
/// paper's four strategies, seeds `0..runs` per point, over `threads`
/// worker threads.
pub fn stress_error_rates(
    app: &(dyn PervasiveApp + Sync),
    err_rates: &[f64],
    runs: usize,
    len: usize,
    threads: usize,
) -> StressSweep {
    StressSweep {
        application: app.name().to_owned(),
        points: oracle_grid(
            app,
            &EXPERIMENT_STRATEGIES,
            err_rates,
            |_, run| run as u64,
            runs,
            len,
            threads,
            None,
        ),
        err_rates: err_rates.to_vec(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_apps::call_forwarding::CallForwarding;

    #[test]
    fn stress_covers_the_requested_grid() {
        let app = CallForwarding::new();
        let sweep = stress_error_rates(&app, &[0.2, 0.6], 1, 90, 2);
        assert_eq!(sweep.points.len(), 8);
        let rendered = crate::render::render_rate_table(
            &sweep.application,
            crate::render::Rate::CtxUse,
            &sweep.points,
            &EXPERIMENT_STRATEGIES,
            &sweep.err_rates,
        );
        assert!(rendered.contains("60%"));
    }

    #[test]
    fn drop_bad_advantage_holds_at_moderate_error() {
        let app = CallForwarding::new();
        let sweep = stress_error_rates(&app, &[0.3], 3, 210, 2);
        let bad = sweep.points.iter().find(|p| p.strategy == "d-bad").unwrap();
        let lat = sweep.points.iter().find(|p| p.strategy == "d-lat").unwrap();
        assert!(bad.ctx_use_rate > lat.ctx_use_rate);
    }
}
