//! Declarative SLO rules over the health estimators, with hysteresis.
//!
//! A rule names a health metric, an optional kind selector, a
//! direction and threshold, and how many consecutive breaching windows
//! it takes to fire:
//!
//! ```text
//! discard_rate{kind="rfid"} > 0.3 for 5
//! use_rate < 0.5 for 3
//! staleness > 1.0 for 2
//! pool_occupancy > 0.95 for 10
//! e2e_p99_ms > 5 for 2
//! ```
//!
//! The [`SloEngine`] is evaluated once per sampler window (each
//! `/metrics` or `/snapshot` scrape, each `obs_top` refresh, each soak
//! iteration) against the window's derived gauges in the [`Sample`]:
//! the per-kind health rates and staleness, the pool occupancy and the
//! end-to-end p99. Semantics:
//!
//! * **fire**: `for_windows` *consecutive* breaching windows arm the
//!   rule; the transition emits a [`HealthAlert`] with `firing: true`
//!   into the window's [`Sample::alerts`];
//! * **clear**: while firing, the rule clears only after `for_windows`
//!   consecutive windows on the *safe* side of a hysteresis deadband —
//!   `threshold · (1 − DEFAULT_CLEAR_MARGIN)` for `>` rules,
//!   `threshold · (1 + DEFAULT_CLEAR_MARGIN)` for `<` rules. Values inside the
//!   deadband (breaching direction not quite reached, safe side not
//!   quite reached) never transition the rule in either direction, so
//!   a metric oscillating at the boundary cannot flap (asserted by a
//!   proptest below);
//! * **no traffic, no verdict**: a window in which the metric is
//!   undefined (nothing ingested, no such kind, no expiring contexts)
//!   freezes the rule's streaks instead of counting for either side.
//!
//! Burn-rate rules are the same machinery with the threshold derived
//! from an error budget: [`SloRule::burn_rate`] fires when the
//! windowed rate consumes the budget `factor` times too fast.

use crate::snapshot::{Family, MetricType, Sample};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Environment variable holding SLO rules for [`crate::MetricsServer`]
/// (one rule per `;` or newline; `#` starts a comment).
pub const SLO_RULES_ENV: &str = "CTXRES_SLO_RULES";

/// The hysteresis deadband, as a fraction of a rule's threshold: a
/// firing `>` rule clears only at or below `threshold · (1 − 0.1)`, a
/// firing `<` rule only at or above `threshold · (1 + 0.1)`.
pub const DEFAULT_CLEAR_MARGIN: f64 = 0.1;

/// The rules currently firing: constant 1, the rule rides the label.
pub(crate) const SLO_FIRING: Family =
    Family::new(MetricType::Gauge, "ctxres_slo_firing", &["rule"]);

/// The health metric a rule watches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloMetric {
    /// Windowed `discarded / ingested` per kind.
    DiscardRate,
    /// Windowed `violations / ingested` per kind.
    ViolationRate,
    /// Windowed `delivered / (delivered + discarded)` per kind (the
    /// paper's `ctxUseRate`).
    UseRate,
    /// `oldest_live_age / lifespan` per kind (≥ 1.0 = outlived).
    Staleness,
    /// Aggregate arena occupancy `live / (live + free)`.
    PoolOccupancy,
    /// Windowed end-to-end p99 latency across all outcomes, in
    /// milliseconds — read from the sample's tail quantiles; undefined
    /// when the tail layer is off or the window recorded nothing.
    E2eP99Ms,
}

/// Every [`SloMetric`], in a stable order.
pub const SLO_METRICS: [SloMetric; 6] = [
    SloMetric::DiscardRate,
    SloMetric::ViolationRate,
    SloMetric::UseRate,
    SloMetric::Staleness,
    SloMetric::PoolOccupancy,
    SloMetric::E2eP99Ms,
];

impl SloMetric {
    /// The metric's snake-case rule-DSL name.
    pub fn name(self) -> &'static str {
        match self {
            SloMetric::DiscardRate => "discard_rate",
            SloMetric::ViolationRate => "violation_rate",
            SloMetric::UseRate => "use_rate",
            SloMetric::Staleness => "staleness",
            SloMetric::PoolOccupancy => "pool_occupancy",
            SloMetric::E2eP99Ms => "e2e_p99_ms",
        }
    }

    fn parse(s: &str) -> Option<SloMetric> {
        SLO_METRICS.into_iter().find(|m| m.name() == s)
    }
}

impl fmt::Display for SloMetric {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Breach direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SloOp {
    /// Breach when the value exceeds the threshold (`>`).
    Above,
    /// Breach when the value falls below the threshold (`<`).
    Below,
}

/// One declarative SLO rule.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SloRule {
    /// The rule's name (the DSL line it was parsed from, or whatever
    /// the constructor chose); alerts cite it.
    pub name: String,
    /// The health metric watched.
    pub metric: SloMetric,
    /// Restrict to one kind's cross-shard row; `None` watches the
    /// worst kind each window.
    pub kind: Option<String>,
    /// Breach direction.
    pub op: SloOp,
    /// The threshold.
    pub threshold: f64,
    /// Consecutive breaching windows required to fire (and consecutive
    /// safe windows required to clear). Clamped to ≥ 1.
    pub for_windows: u32,
}

impl SloRule {
    /// Parses one rule line:
    /// `metric[{kind="name"}] (>|<) threshold [for N]`.
    pub fn parse(line: &str) -> Result<SloRule, String> {
        let line = line.trim();
        let err = |what: &str| format!("{what} in SLO rule {line:?}");
        let mut rest = line;

        // metric, optionally with a {kind="..."} selector.
        let metric_end = rest
            .find(|c: char| c == '{' || c.is_whitespace())
            .unwrap_or(rest.len());
        let metric = SloMetric::parse(&rest[..metric_end]).ok_or_else(|| err("unknown metric"))?;
        rest = rest[metric_end..].trim_start();
        let kind = if let Some(sel) = rest.strip_prefix('{') {
            let (body, tail) = sel
                .split_once('}')
                .ok_or_else(|| err("unclosed selector"))?;
            rest = tail.trim_start();
            let kv = body
                .trim()
                .strip_prefix("kind=")
                .ok_or_else(|| err("selector must be kind=\"...\""))?;
            Some(kv.trim_matches('"').to_owned())
        } else {
            None
        };

        let mut tokens = rest.split_whitespace();
        let op = match tokens.next() {
            Some(">") => SloOp::Above,
            Some("<") => SloOp::Below,
            _ => return Err(err("expected > or <")),
        };
        let threshold: f64 = tokens
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| err("bad threshold"))?;
        let for_windows = match tokens.next() {
            None => 1,
            Some("for") => tokens
                .next()
                .and_then(|t| t.trim_end_matches("windows").parse().ok())
                .ok_or_else(|| err("bad window count"))?,
            Some(_) => return Err(err("trailing tokens")),
        };
        if tokens.next().is_some() {
            return Err(err("trailing tokens"));
        }
        Ok(SloRule {
            name: line.to_owned(),
            metric,
            kind,
            op,
            threshold,
            for_windows: for_windows.max(1),
        })
    }

    /// A burn-rate rule: fires when the windowed rate consumes an
    /// error budget `factor` times too fast — i.e. threshold
    /// `budget × factor`, breaching above.
    pub fn burn_rate(
        name: &str,
        metric: SloMetric,
        kind: Option<&str>,
        budget: f64,
        factor: f64,
        for_windows: u32,
    ) -> SloRule {
        SloRule {
            name: name.to_owned(),
            metric,
            kind: kind.map(str::to_owned),
            op: SloOp::Above,
            threshold: budget * factor,
            for_windows: for_windows.max(1),
        }
    }

    /// The metric's value in this window, or `None` when undefined
    /// (no traffic / no such kind / tail layer off): the worst matching
    /// per-kind gauge, the pool occupancy, or the tail p99.
    fn value_in(&self, sample: &Sample) -> Option<f64> {
        let family = match self.metric {
            SloMetric::PoolOccupancy => {
                return sample.gauge(crate::health::POOL_OCCUPANCY.name, &[])
            }
            SloMetric::E2eP99Ms => {
                let all_p99 = [("outcome", "all"), ("q", "0.99")];
                return sample
                    .gauge(crate::tail::E2E_QUANTILE.name, &all_p99)
                    .map(|ns| ns / 1e6);
            }
            SloMetric::DiscardRate => &crate::health::DISCARD_RATE,
            SloMetric::ViolationRate => &crate::health::VIOLATION_RATE,
            SloMetric::UseRate => &crate::health::USE_RATE,
            SloMetric::Staleness => &crate::health::STALENESS,
        };
        let values = sample
            .family(family.name)
            .filter(|s| {
                self.kind
                    .as_deref()
                    .is_none_or(|k| s.label("kind") == Some(k))
            })
            .filter_map(|s| s.value.gauge());
        match self.op {
            SloOp::Above => values.max_by(f64::total_cmp),
            SloOp::Below => values.min_by(f64::total_cmp),
        }
    }

    fn breached(&self, value: f64) -> bool {
        match self.op {
            SloOp::Above => value > self.threshold,
            SloOp::Below => value < self.threshold,
        }
    }

    /// Past the hysteresis deadband on the safe side.
    fn safe(&self, value: f64) -> bool {
        match self.op {
            SloOp::Above => value <= self.threshold * (1.0 - DEFAULT_CLEAR_MARGIN),
            SloOp::Below => value >= self.threshold * (1.0 + DEFAULT_CLEAR_MARGIN),
        }
    }
}

/// An SLO transition: a rule fired (`firing: true`) or cleared.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthAlert {
    /// The transitioning rule's name.
    pub rule: String,
    /// The watched metric's name.
    pub metric: String,
    /// The rule's kind selector, when it has one.
    pub kind: Option<String>,
    /// The metric's value in the transitioning window.
    pub value: f64,
    /// The rule's threshold.
    pub threshold: f64,
    /// `true` = fired, `false` = cleared.
    pub firing: bool,
    /// The engine's logical clock when the transition was observed.
    pub at: u64,
}

impl fmt::Display for HealthAlert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "slo {} {}: {} = {:.4} vs {}",
            if self.firing { "FIRING" } else { "cleared" },
            self.rule,
            self.metric,
            self.value,
            self.threshold
        )
    }
}

#[derive(Debug, Clone, Default)]
struct RuleState {
    firing: bool,
    breach_streak: u32,
    clear_streak: u32,
}

/// Evaluates a fixed rule set once per sampler window, tracking streaks
/// and emitting transitions.
#[derive(Debug)]
pub struct SloEngine {
    rules: Vec<SloRule>,
    states: Vec<RuleState>,
}

impl SloEngine {
    /// An engine over `rules`.
    pub fn new(rules: Vec<SloRule>) -> Self {
        let states = vec![RuleState::default(); rules.len()];
        SloEngine { rules, states }
    }

    /// Parses a rule spec: one rule per newline or `;`, `#` comments
    /// and blank lines skipped. This is the [`SLO_RULES_ENV`] format.
    pub fn from_spec(spec: &str) -> Result<Self, String> {
        let mut rules = Vec::new();
        for line in spec.split(['\n', ';']) {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            rules.push(SloRule::parse(line)?);
        }
        Ok(SloEngine::new(rules))
    }

    /// The engine's rules.
    pub fn rules(&self) -> &[SloRule] {
        &self.rules
    }

    /// Names of the rules currently firing.
    pub fn active(&self) -> Vec<String> {
        self.rules
            .iter()
            .zip(&self.states)
            .filter(|(_, s)| s.firing)
            .map(|(r, _)| r.name.clone())
            .collect()
    }

    /// Whether the named rule is currently firing.
    pub fn is_firing(&self, name: &str) -> bool {
        self.rules
            .iter()
            .zip(&self.states)
            .any(|(r, s)| r.name == name && s.firing)
    }

    /// Evaluates every rule against one window's sample, stamping
    /// transitions with the logical clock `at`. Returns only the
    /// transitions (an empty vec on a quiet window); a rule whose
    /// metric is undefined this window keeps its streaks frozen.
    pub fn evaluate(&mut self, sample: &Sample, at: u64) -> Vec<HealthAlert> {
        let mut alerts = Vec::new();
        for (rule, state) in self.rules.iter().zip(self.states.iter_mut()) {
            let Some(value) = rule.value_in(sample) else {
                // Undefined this window: freeze the streaks.
                continue;
            };
            let transition = if state.firing {
                if rule.safe(value) {
                    state.clear_streak += 1;
                    if state.clear_streak >= rule.for_windows {
                        state.firing = false;
                        state.breach_streak = 0;
                        state.clear_streak = 0;
                        true
                    } else {
                        false
                    }
                } else {
                    state.clear_streak = 0;
                    false
                }
            } else if rule.breached(value) {
                state.breach_streak += 1;
                if state.breach_streak >= rule.for_windows {
                    state.firing = true;
                    state.breach_streak = 0;
                    state.clear_streak = 0;
                    true
                } else {
                    false
                }
            } else {
                state.breach_streak = 0;
                false
            };
            if transition {
                alerts.push(HealthAlert {
                    rule: rule.name.clone(),
                    metric: rule.metric.name().to_owned(),
                    kind: rule.kind.clone(),
                    value,
                    threshold: rule.threshold,
                    firing: state.firing,
                    at,
                });
            }
        }
        alerts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::{Reading, SeriesList, Value};

    /// A sample of the given derived gauges.
    fn sample_of(gauges: Vec<(Family, &[&str], f64)>) -> Sample {
        Sample {
            elapsed_secs: 1.0,
            first: false,
            tick: 0,
            series: SeriesList(
                gauges
                    .into_iter()
                    .map(|(family, labels, v)| family.series(labels, Value::Gauge(Reading(v))))
                    .collect(),
            ),
            exemplars: Vec::new(),
            alerts: Vec::new(),
        }
    }

    /// A one-kind sample with the given windowed discard rate (and the
    /// complementary use rate); `None` is a window without traffic.
    pub(super) fn sample_with(discard_rate: Option<f64>) -> Sample {
        let mut gauges = Vec::new();
        if let Some(d) = discard_rate {
            gauges.push((crate::health::DISCARD_RATE, &["rfid"][..], d));
            gauges.push((crate::health::USE_RATE, &["rfid"][..], 1.0 - d));
        }
        sample_of(gauges)
    }

    #[test]
    fn parses_the_documented_grammar() {
        let r = SloRule::parse("discard_rate{kind=\"rfid\"} > 0.3 for 5").unwrap();
        assert_eq!(r.metric, SloMetric::DiscardRate);
        assert_eq!(r.kind.as_deref(), Some("rfid"));
        assert_eq!(r.op, SloOp::Above);
        assert_eq!(r.threshold, 0.3);
        assert_eq!(r.for_windows, 5);

        let r = SloRule::parse("use_rate < 0.5").unwrap();
        assert_eq!(r.metric, SloMetric::UseRate);
        assert_eq!(r.kind, None);
        assert_eq!(r.op, SloOp::Below);
        assert_eq!(r.for_windows, 1);

        let r = SloRule::parse("pool_occupancy > 0.95 for 10").unwrap();
        assert_eq!(r.metric, SloMetric::PoolOccupancy);

        assert!(SloRule::parse("nope > 1").is_err());
        assert!(SloRule::parse("use_rate >= 0.5").is_err());
        assert!(SloRule::parse("use_rate < 0.5 for five").is_err());
    }

    #[test]
    fn spec_parses_multiple_rules_with_comments() {
        let engine = SloEngine::from_spec(
            "# quality gates\ndiscard_rate > 0.3 for 2; use_rate < 0.5 for 3\n\n",
        )
        .unwrap();
        assert_eq!(engine.rules().len(), 2);
        assert!(SloEngine::from_spec("bogus > 1").is_err());
    }

    #[test]
    fn fires_after_consecutive_breaches_and_clears_after_recovery() {
        let mut engine = SloEngine::from_spec("discard_rate{kind=\"rfid\"} > 0.3 for 2").unwrap();
        // One breach: armed but not firing.
        assert!(engine.evaluate(&sample_with(Some(0.5)), 1).is_empty());
        assert!(!engine.is_firing("discard_rate{kind=\"rfid\"} > 0.3 for 2"));
        // Second consecutive breach: fires.
        let alerts = engine.evaluate(&sample_with(Some(0.5)), 2);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].firing);
        assert_eq!(alerts[0].at, 2);
        assert_eq!(engine.active().len(), 1);
        // Recovery must also be consecutive: one safe window is not
        // enough, and a re-breach resets the clear streak.
        assert!(engine.evaluate(&sample_with(Some(0.1)), 3).is_empty());
        assert!(engine.evaluate(&sample_with(Some(0.5)), 4).is_empty());
        assert!(engine.evaluate(&sample_with(Some(0.1)), 5).is_empty());
        let alerts = engine.evaluate(&sample_with(Some(0.1)), 6);
        assert_eq!(alerts.len(), 1);
        assert!(!alerts[0].firing);
        assert!(engine.active().is_empty());
    }

    #[test]
    fn interrupted_breach_streaks_reset() {
        let mut engine = SloEngine::from_spec("discard_rate > 0.3 for 3").unwrap();
        for _ in 0..2 {
            assert!(engine.evaluate(&sample_with(Some(0.9)), 0).is_empty());
        }
        // A clean window resets the streak; two more breaches don't fire.
        assert!(engine.evaluate(&sample_with(Some(0.0)), 0).is_empty());
        for _ in 0..2 {
            assert!(engine.evaluate(&sample_with(Some(0.9)), 0).is_empty());
        }
        assert!(engine.active().is_empty());
        assert!(!engine.evaluate(&sample_with(Some(0.9)), 0).is_empty());
    }

    #[test]
    fn undefined_windows_freeze_the_state() {
        let mut engine = SloEngine::from_spec("discard_rate > 0.3 for 2").unwrap();
        assert!(engine.evaluate(&sample_with(Some(0.5)), 1).is_empty());
        // No traffic: neither breach nor recovery is counted.
        assert!(engine.evaluate(&sample_with(None), 2).is_empty());
        // The streak survives the idle window and fires on the next breach.
        assert_eq!(engine.evaluate(&sample_with(Some(0.5)), 3).len(), 1);
    }

    #[test]
    fn below_rules_watch_the_minimum() {
        let mut engine = SloEngine::from_spec("use_rate < 0.6 for 1").unwrap();
        let alerts = engine.evaluate(&sample_with(Some(0.5)), 7);
        assert_eq!(alerts.len(), 1, "use_rate 0.5 < 0.6 fires");
        assert!(alerts[0].firing);
        // Clearing needs use_rate ≥ 0.6 · 1.1 = 0.66 ⇒ discard ≤ 0.34.
        assert!(engine.evaluate(&sample_with(Some(0.38)), 8).is_empty());
        assert_eq!(engine.evaluate(&sample_with(Some(0.3)), 9).len(), 1);
    }

    /// A healthy sample whose all-outcomes end-to-end p99 is the given
    /// milliseconds.
    fn tail_with(p99_ms: f64) -> Sample {
        sample_of(vec![
            (crate::health::DISCARD_RATE, &["rfid"][..], 0.1),
            (
                crate::tail::E2E_QUANTILE,
                &["all", "0.99"][..],
                p99_ms * 1e6,
            ),
        ])
    }

    #[test]
    fn latency_rules_read_the_tail_view() {
        let r = SloRule::parse("e2e_p99_ms > 5 for 2").unwrap();
        assert_eq!(r.metric, SloMetric::E2eP99Ms);
        let mut engine = SloEngine::new(vec![r]);
        // A window without tail quantiles: undefined, streaks freeze.
        assert!(engine.evaluate(&sample_with(Some(0.1)), 1).is_empty());
        let slow = tail_with(12.0);
        assert!(engine.evaluate(&slow, 2).is_empty());
        let alerts = engine.evaluate(&slow, 3);
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].firing);
        assert_eq!(alerts[0].metric, "e2e_p99_ms");
        assert!((alerts[0].value - 12.0).abs() < 1e-9, "{}", alerts[0].value);
        // Clearing needs windows past the deadband (p99 ≤ 4.5 ms),
        // sustained for the rule's two windows.
        let fast = tail_with(1.0);
        assert!(engine.evaluate(&fast, 4).is_empty());
        let alerts = engine.evaluate(&fast, 5);
        assert_eq!(alerts.len(), 1);
        assert!(!alerts[0].firing);
        assert!(engine.active().is_empty());
    }

    #[test]
    fn burn_rate_rules_scale_the_budget() {
        let r = SloRule::burn_rate(
            "rfid-burn",
            SloMetric::DiscardRate,
            Some("rfid"),
            0.02,
            10.0,
            2,
        );
        assert_eq!(r.op, SloOp::Above);
        assert!((r.threshold - 0.2).abs() < 1e-12);
        let mut engine = SloEngine::new(vec![r]);
        assert!(engine.evaluate(&sample_with(Some(0.5)), 1).is_empty());
        assert!(!engine.evaluate(&sample_with(Some(0.5)), 2).is_empty());
        assert!(engine.is_firing("rfid-burn"));
    }

    #[test]
    fn alerts_round_trip_through_serde_and_display() {
        let a = HealthAlert {
            rule: "r".into(),
            metric: "discard_rate".into(),
            kind: Some("rfid".into()),
            value: 0.42,
            threshold: 0.3,
            firing: true,
            at: 9,
        };
        let json = serde_json::to_string(&a).unwrap();
        let back: HealthAlert = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        let s = a.to_string();
        assert!(s.contains("FIRING"), "{s}");
        assert!(s.contains("discard_rate"), "{s}");
    }
}

#[cfg(test)]
mod hysteresis_proptests {
    //! The satellite property: values confined to the hysteresis
    //! deadband — past neither the breach threshold nor the safe bound
    //! — can never transition a rule, whatever state it starts in and
    //! however they oscillate. Boundary noise cannot flap an alert.

    use super::tests::sample_with;
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn deadband_values_never_transition(
            start_firing in proptest::bool::weighted(0.5),
            // Values in (threshold·(1−margin), threshold] for an Above
            // rule on threshold 0.5 with the 0.1 margin: (0.45, 0.5].
            unit in proptest::collection::vec(0.0f64..1.0, 1..40),
            for_windows in 1u32..4,
        ) {
            let rule = SloRule {
                name: "deadband".into(),
                metric: SloMetric::DiscardRate,
                kind: None,
                op: SloOp::Above,
                threshold: 0.5,
                for_windows,
            };
            let lo = rule.threshold * (1.0 - DEFAULT_CLEAR_MARGIN);
            let mut engine = SloEngine::new(vec![rule]);
            if start_firing {
                // Drive it into the firing state legitimately.
                for _ in 0..for_windows {
                    engine.evaluate(&sample_with(Some(0.9)), 0);
                }
                prop_assert!(engine.is_firing("deadband"));
            }
            let was_firing = engine.is_firing("deadband");
            for u in unit {
                // Map into the open-closed deadband (lo, threshold].
                let v = lo + (0.5 - lo) * u.max(1e-9);
                let alerts = engine.evaluate(&sample_with(Some(v)), 0);
                prop_assert!(alerts.is_empty(), "deadband value {} transitioned", v);
                prop_assert_eq!(engine.is_firing("deadband"), was_firing);
            }
        }
    }
}
