//! Constraint coverage analysis: which deployed constraints actually do
//! work on a given workload?
//!
//! §5.3 asks "how does one design correct consistency constraints?" —
//! the complementary operational question is whether the constraints one
//! *did* design ever fire. A constraint that never detects anything on
//! realistic traces is either vacuous (its antecedent never holds) or
//! redundant (another constraint subsumes it); either way the designer
//! should know.

use crate::runner::{fan_out, run_logged};
use ctxres_apps::PervasiveApp;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Per-constraint firing statistics over a workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConstraintCoverage {
    /// Constraint name.
    pub constraint: String,
    /// Inconsistencies this constraint detected.
    pub detections: u64,
    /// How many of them involved at least one corrupted context
    /// (a proxy for Rule 1 per constraint).
    pub with_corrupted: u64,
}

/// Coverage report for one application workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CoverageReport {
    /// Application name.
    pub application: String,
    /// Error rate used.
    pub err_rate: f64,
    /// Per-constraint rows, deployment order.
    pub rows: Vec<ConstraintCoverage>,
}

impl CoverageReport {
    /// Constraints that never fired (candidates for review).
    pub fn dead_constraints(&self) -> Vec<&str> {
        self.rows
            .iter()
            .filter(|r| r.detections == 0)
            .map(|r| r.constraint.as_str())
            .collect()
    }
}

/// Measures constraint coverage over `runs` seeded drop-bad runs, over
/// `threads` worker threads.
pub fn constraint_coverage(
    app: &(dyn PervasiveApp + Sync),
    err_rate: f64,
    runs: usize,
    len: usize,
    threads: usize,
) -> CoverageReport {
    let seeds: Vec<u64> = (0..runs as u64).collect();
    let logged = fan_out(&seeds, threads, |_, &seed| {
        run_logged(app, err_rate, seed, len, app.recommended_window())
    });
    let mut counts: BTreeMap<String, (u64, u64)> = app
        .constraints()
        .iter()
        .map(|c| (c.name().to_owned(), (0, 0)))
        .collect();
    for run in &logged {
        for inc in &run.detections {
            if let Some(entry) = counts.get_mut(inc.constraint()) {
                entry.0 += 1;
                if inc.contexts().iter().any(|id| run.is_corrupted(*id)) {
                    entry.1 += 1;
                }
            }
        }
    }
    // Report in deployment order.
    let rows = app
        .constraints()
        .iter()
        .map(|c| {
            let (detections, with_corrupted) = counts[c.name()];
            ConstraintCoverage {
                constraint: c.name().to_owned(),
                detections,
                with_corrupted,
            }
        })
        .collect();
    CoverageReport {
        application: app.name().to_owned(),
        err_rate,
        rows,
    }
}

/// Renders a coverage report as a text table.
pub fn render_coverage(report: &CoverageReport) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "constraint coverage — {} at err_rate {:.0}%",
        report.application,
        report.err_rate * 100.0
    );
    let _ = writeln!(
        out,
        "{:<24}{:>12}{:>16}",
        "constraint", "detections", "w/ corrupted"
    );
    for r in &report.rows {
        let _ = writeln!(
            out,
            "{:<24}{:>12}{:>16}",
            r.constraint, r.detections, r.with_corrupted
        );
    }
    let dead = report.dead_constraints();
    if !dead.is_empty() {
        let _ = writeln!(out, "never fired: {}", dead.join(", "));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_apps::call_forwarding::CallForwarding;
    use ctxres_apps::rfid_anomalies::RfidAnomalies;

    #[test]
    fn pairwise_constraints_fire_on_noisy_traces() {
        let app = CallForwarding::new();
        let report = constraint_coverage(&app, 0.3, 2, 240, 2);
        let by = |name: &str| report.rows.iter().find(|r| r.constraint == name).unwrap();
        assert!(by("move_adjacent").detections > 0);
        assert!(by("move_within2").detections > 0);
        // Almost every detection involves a corrupted context (Rule 1).
        for r in &report.rows {
            assert!(
                r.with_corrupted * 10 >= r.detections * 9,
                "{}: {}/{}",
                r.constraint,
                r.with_corrupted,
                r.detections
            );
        }
    }

    #[test]
    fn clean_traces_have_full_dead_list() {
        let app = RfidAnomalies::new();
        let report = constraint_coverage(&app, 0.0, 1, 120, 2);
        assert_eq!(report.dead_constraints().len(), report.rows.len());
        let rendered = render_coverage(&report);
        assert!(rendered.contains("never fired"));
    }
}
