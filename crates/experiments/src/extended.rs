//! Extended strategy comparison beyond the paper's four.
//!
//! §2.3 dismisses drop-random and user-specified resolution as
//! "unreliable" without plotting them, and §5.1/§7 sketch an
//! impact-aware enhancement as future work. This module measures all of
//! them side by side with the paper's four, on both subject
//! applications.

use crate::figures::oracle_grid;
use crate::metrics::FigurePoint;
use ctxres_apps::PervasiveApp;
use serde::{Deserialize, Serialize};

/// The strategies of the extended comparison, in presentation order.
pub const EXTENDED_STRATEGIES: [&str; 7] = [
    "opt-r",
    "d-bad-impact",
    "d-bad",
    "d-lat",
    "d-all",
    "d-rand",
    "d-pol",
];

/// Result of the extended comparison for one application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExtendedComparison {
    /// Application name.
    pub application: String,
    /// One point per (strategy, error rate).
    pub points: Vec<FigurePoint>,
}

/// Runs the extended grid for one application, seeds `0..runs` per
/// point, over `threads` worker threads.
pub fn extended_comparison(
    app: &(dyn PervasiveApp + Sync),
    err_rates: &[f64],
    runs: usize,
    len: usize,
    threads: usize,
) -> ExtendedComparison {
    ExtendedComparison {
        application: app.name().to_owned(),
        points: oracle_grid(
            app,
            &EXTENDED_STRATEGIES,
            err_rates,
            |_, run| run as u64,
            runs,
            len,
            threads,
            None,
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_apps::call_forwarding::CallForwarding;

    #[test]
    fn extended_grid_covers_all_strategies() {
        let app = CallForwarding::new();
        let cmp = extended_comparison(&app, &[0.3], 2, 150, 2);
        assert_eq!(cmp.points.len(), EXTENDED_STRATEGIES.len());
        for s in EXTENDED_STRATEGIES {
            assert!(cmp.points.iter().any(|p| p.strategy == s), "missing {s}");
        }
        let rendered = crate::render::render_rate_table(
            "extended",
            crate::render::Rate::CtxUse,
            &cmp.points,
            &EXTENDED_STRATEGIES,
            &[0.3],
        );
        assert!(rendered.contains("D-BAD-IMPACT"));
        assert!(rendered.contains("D-RAND"));
    }

    #[test]
    fn impact_aware_is_at_least_as_good_as_plain_on_used_contexts() {
        // Impact only re-routes tie discards toward situation-irrelevant
        // contexts; used_expected should not degrade materially.
        let app = CallForwarding::new();
        let cmp = extended_comparison(&app, &[0.3], 3, 210, 2);
        let plain = cmp.points.iter().find(|p| p.strategy == "d-bad").unwrap();
        let impact = cmp
            .points
            .iter()
            .find(|p| p.strategy == "d-bad-impact")
            .unwrap();
        assert!(
            impact.ctx_use_rate >= plain.ctx_use_rate - 0.02,
            "impact {} vs plain {}",
            impact.ctx_use_rate,
            plain.ctx_use_rate
        );
    }
}
