//! The location-tracking running example (paper §2–3, §5.2).
//!
//! Peter walks across a floor; the LANDMARC simulator estimates his
//! position each tick; corrupted fixes teleport far from the true path.
//! Velocity-style consistency constraints over adjacent and
//! near-adjacent location pairs catch the teleports — the exact workload
//! of the paper's illustrations and its §5.2 case study.

use crate::PervasiveApp;
use ctxres_constraint::{parse_constraints, Constraint, PredicateRegistry};
use ctxres_context::{Context, ContextKind, Lifespan, LogicalTime, Ticks};
use ctxres_landmarc::{LandmarcConfig, LandmarcSim};

/// The location-tracking application.
///
/// Thresholds are calibrated against the simulator's noise model: an
/// expected pair of fixes `g` ticks apart is displaced by at most
/// `g·v + 2·err_tail`, while a corrupted fix sits at least
/// `corruption_min_jump` from the true path. The constraint limits sit
/// between the two bands, so expected contexts (almost) never violate —
/// heuristic Rule 1 — while teleports reliably do.
#[derive(Debug, Clone)]
pub struct LocationTracking {
    config: LandmarcConfig,
    ttl: Ticks,
}

impl LocationTracking {
    /// The context kind produced by this application.
    pub fn kind() -> ContextKind {
        ContextKind::new("location")
    }

    /// Creates the application with the calibrated default setup.
    pub fn new() -> Self {
        LocationTracking {
            config: LandmarcConfig {
                radio: ctxres_landmarc::PathLossModel {
                    sigma: 1.0,
                    ..ctxres_landmarc::PathLossModel::default()
                },
                corruption_min_jump: 15.0,
                ..LandmarcConfig::default()
            },
            ttl: Ticks::new(20),
        }
    }

    /// The underlying simulator configuration.
    pub fn config(&self) -> &LandmarcConfig {
        &self.config
    }

    /// Overrides the simulator configuration (ablations).
    pub fn with_config(mut self, config: LandmarcConfig) -> Self {
        self.config = config;
        self
    }
}

impl Default for LocationTracking {
    fn default() -> Self {
        LocationTracking::new()
    }
}

impl PervasiveApp for LocationTracking {
    fn name(&self) -> &'static str {
        "location-tracking"
    }

    fn constraints(&self) -> Vec<Constraint> {
        // Peter's speed is 1 m/tick; expected estimation error stays
        // within ~2.5 m per fix at σ = 1 dB. Limits leave that band and
        // stay below the ≥ 15 m teleports.
        parse_constraints(
            "# gap-1: adjacent fixes
             constraint velocity_gap1:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 1)) implies velocity_le(a, b, 6.0)
             # gap-2: one intermediate fix (the Fig. 5 refinement)
             constraint velocity_gap2:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 2)) implies velocity_le(a, b, 3.5)
             # gap-3: two intermediate fixes
             constraint velocity_gap3:
               forall a: location, b: location .
                 (same_subject(a, b) and seq_gap(a, b, 3)) implies velocity_le(a, b, 2.7)
             # fixes must stay on the floor
             constraint feasible_region:
               forall a: location . within(a, -1.0, -1.0, 41.0, 31.0)
             # a person is in one place at a time
             constraint single_place:
               forall a: location, b: location .
                 (same_subject(a, b) and distinct(a, b) and time_gap_le(a, b, 0))
                   implies dist_le(a, b, 6.0)",
        )
        .expect("builtin constraints parse")
    }

    fn situations(&self) -> Vec<Constraint> {
        parse_constraints(
            "# someone is near the entrance (bottom-left corner)
             constraint near_entrance:
               exists a: location . within(a, 0.0, 0.0, 6.0, 6.0)
             # someone reached the far meeting corner
             constraint in_meeting_corner:
               exists a: location . within(a, 32.0, 22.0, 40.0, 30.0)
             # loitering: barely moved across four ticks
             constraint loitering:
               exists a: location, b: location .
                 same_subject(a, b) and seq_gap(a, b, 4) and dist_le(a, b, 2.0)",
        )
        .expect("builtin situations parse")
    }

    fn registry(&self) -> PredicateRegistry {
        PredicateRegistry::with_builtins()
    }

    fn schema(&self) -> ctxres_constraint::ContextSchema {
        use ctxres_constraint::AttrType;
        let mut schema = ctxres_constraint::ContextSchema::new();
        schema
            .kind("location")
            .attr("pos", AttrType::Point)
            .attr("seq", AttrType::Int);
        schema
    }

    fn generate(&self, err_rate: f64, seed: u64, len: usize) -> Vec<Context> {
        let config = LandmarcConfig {
            err_rate,
            ..self.config.clone()
        };
        let sim = LandmarcSim::new(config, seed);
        sim.take(len)
            .map(|fix| {
                let stamp = LogicalTime::new(fix.seq);
                Context::builder(Self::kind(), "peter")
                    .attr("pos", fix.pos)
                    .attr("seq", fix.seq as i64)
                    .stamp(stamp)
                    .lifespan(Lifespan::with_ttl(stamp, self.ttl))
                    .truth(if fix.corrupted {
                        ctxres_context::TruthTag::Corrupted
                    } else {
                        ctxres_context::TruthTag::Expected
                    })
                    .build()
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ctxres_constraint::{Evaluator, Link};
    use ctxres_context::{ContextPool, TruthTag};
    use std::collections::BTreeSet;

    fn violations_of(trace: Vec<Context>, app: &LocationTracking) -> Vec<Link> {
        let pool: ContextPool = trace.into_iter().collect();
        let reg = app.registry();
        let eval = Evaluator::new(&reg);
        let mut links = Vec::new();
        for c in app.constraints() {
            // Time 0 keeps every TTL'd context live (lifespans anchor at
            // their stamps, which are all >= 0).
            let out = eval.check(&c, &pool, LogicalTime::new(0)).unwrap();
            links.extend(out.violations);
        }
        links
    }

    #[test]
    fn clean_traces_raise_almost_no_inconsistencies() {
        // Heuristic Rule 1 calibration: with err_rate 0 the constraints
        // should almost never fire. "Almost": the simulator's noise tail
        // occasionally pushes an expected pair past a limit (seed 7
        // yields one such pair in 400 fixes), which is the slack the
        // rule — and the case study's `rule1_rate > 0.95` floor —
        // allows. At most 1% of the fixes may be implicated.
        let app = LocationTracking::new();
        let trace = app.generate(0.0, 7, 400);
        let fixes = trace.len();
        // Contexts carry TTLs; evaluate at a time where all are live to
        // stress the worst case.
        let pool: ContextPool = trace.into_iter().collect();
        let reg = app.registry();
        let eval = Evaluator::new(&reg);
        let mut total = 0;
        for c in app.constraints() {
            // Evaluate with everything live: use each context's stamp era.
            let out = eval.check(&c, &pool, LogicalTime::new(0)).unwrap();
            total += out.violations.len();
        }
        assert!(
            total * 100 <= fixes,
            "{total} false positives on a {fixes}-fix clean trace"
        );
    }

    #[test]
    fn corrupted_fixes_are_usually_caught() {
        let app = LocationTracking::new();
        let trace = app.generate(0.2, 11, 300);
        let corrupted: BTreeSet<u64> = trace
            .iter()
            .enumerate()
            .filter(|(_, c)| c.truth() == TruthTag::Corrupted)
            .map(|(i, _)| i as u64)
            .collect();
        assert!(!corrupted.is_empty());
        let links = violations_of(trace, &app);
        let blamed: BTreeSet<u64> = links
            .iter()
            .flat_map(|l| l.iter().map(|id| id.raw()))
            .collect();
        let caught = corrupted.intersection(&blamed).count();
        let recall = caught as f64 / corrupted.len() as f64;
        assert!(recall > 0.8, "detection recall {recall}");
    }

    #[test]
    fn five_constraints_three_situations() {
        let app = LocationTracking::new();
        assert_eq!(
            app.constraints().len(),
            5,
            "the paper deploys five constraints"
        );
        assert_eq!(app.situations().len(), 3, "and three situations");
    }

    #[test]
    fn generate_is_deterministic() {
        let app = LocationTracking::new();
        assert_eq!(app.generate(0.2, 5, 50), app.generate(0.2, 5, 50));
    }

    #[test]
    fn contexts_carry_ttl_lifespans() {
        let app = LocationTracking::new();
        let trace = app.generate(0.0, 1, 3);
        for c in &trace {
            assert_eq!(c.lifespan().ttl(), Some(Ticks::new(20)));
        }
    }

    #[test]
    fn err_rate_controls_corruption_share() {
        let app = LocationTracking::new();
        for rate in [0.1, 0.4] {
            let trace = app.generate(rate, 13, 1000);
            let share = trace.iter().filter(|c| c.truth().is_corrupted()).count() as f64 / 1000.0;
            assert!((share - rate).abs() < 0.05, "rate {rate} got {share}");
        }
    }
}
