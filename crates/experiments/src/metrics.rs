//! Per-run metrics and their normalization against OPT-R.

use serde::{Deserialize, Serialize};

/// Raw counters harvested from one middleware run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Strategy name (`opt-r`, `d-bad`, …).
    pub strategy: String,
    /// The controlled corruption probability.
    pub err_rate: f64,
    /// The run's seed.
    pub seed: u64,
    /// Contexts delivered to the application that were ground-truth
    /// expected — the "number of used contexts" metric. Corrupted
    /// deliveries do not help an application use *correct* contexts, so
    /// they are counted separately.
    pub used_expected: u64,
    /// Corrupted contexts that slipped through to the application.
    pub used_corrupted: u64,
    /// Matched situation activations (rising edge agreeing with ground
    /// truth) — the "number of activated situations" metric.
    pub matched_activations: u64,
    /// Raw rising-edge activations (including spurious ones).
    pub raw_activations: u64,
    /// Contexts the strategy discarded.
    pub discarded: u64,
    /// Expected contexts wrongly discarded.
    pub discarded_expected: u64,
    /// Corrupted contexts rightly discarded.
    pub discarded_corrupted: u64,
    /// Inconsistencies detected during the run.
    pub inconsistencies: u64,
    /// §5.2 survival rate (expected kept / expected seen).
    pub survival: f64,
    /// §5.2 removal precision (corrupted / discarded).
    pub precision: f64,
    /// Mean situation-activation latency in ticks (`None` when no epoch
    /// was covered): the §3.3 accuracy-vs-latency trade-off.
    pub activation_latency: Option<f64>,
}

/// One point of a paper figure: a strategy at an error rate, averaged
/// over the per-seed normalized rates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FigurePoint {
    /// Strategy name.
    pub strategy: String,
    /// Error rate of this point.
    pub err_rate: f64,
    /// `ctxUseRate` (fraction of OPT-R's used contexts; OPT-R ≡ 1).
    pub ctx_use_rate: f64,
    /// `sitActRate` (fraction of OPT-R's matched activations).
    pub sit_act_rate: f64,
    /// Mean used contexts (diagnostic).
    pub mean_used: f64,
    /// Mean matched activations (diagnostic).
    pub mean_matched: f64,
    /// Number of seeds averaged.
    pub runs: usize,
}

/// The point for `strategy` at `err_rate` among a grid's points.
pub fn find_point<'a>(
    points: &'a [FigurePoint],
    strategy: &str,
    err_rate: f64,
) -> Option<&'a FigurePoint> {
    points
        .iter()
        .find(|p| p.strategy == strategy && (p.err_rate - err_rate).abs() < 1e-9)
}

/// The accuracy a window or tie-policy table reports for one cell of
/// seeded runs: the means of expected contexts used, survival rate and
/// removal precision, each summed in run order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Accuracy {
    /// Mean expected contexts used.
    pub used_expected: f64,
    /// Mean §5.2 survival rate.
    pub survival: f64,
    /// Mean §5.2 removal precision.
    pub precision: f64,
}

impl Accuracy {
    /// The means over `runs` (NaN when there are none).
    pub(crate) fn mean<'a>(runs: impl IntoIterator<Item = &'a RunMetrics>) -> Accuracy {
        let mut n = 0usize;
        let (mut used, mut survival, mut precision) = (0.0, 0.0, 0.0);
        for m in runs {
            n += 1;
            used += m.used_expected as f64;
            survival += m.survival;
            precision += m.precision;
        }
        let n = n as f64;
        Accuracy {
            used_expected: used / n,
            survival: survival / n,
            precision: precision / n,
        }
    }
}

/// Pairs each run with the OPT-R run of the same seed and averages the
/// normalized rates (the paper normalizes "against the reference
/// baseline" of OPT-R, §4.1).
///
/// Runs whose OPT-R partner has a zero denominator are skipped for that
/// metric (cannot normalize against nothing).
pub fn normalize_against_oracle(
    strategy: &str,
    err_rate: f64,
    runs: &[RunMetrics],
    oracle_runs: &[RunMetrics],
) -> FigurePoint {
    let mut use_rates = Vec::new();
    let mut act_rates = Vec::new();
    let mut used_sum = 0.0;
    let mut matched_sum = 0.0;
    let mut n = 0usize;
    for run in runs {
        let Some(oracle) = oracle_runs.iter().find(|o| o.seed == run.seed) else {
            continue;
        };
        n += 1;
        used_sum += run.used_expected as f64;
        matched_sum += run.matched_activations as f64;
        if oracle.used_expected > 0 {
            use_rates.push(run.used_expected as f64 / oracle.used_expected as f64);
        }
        if oracle.matched_activations > 0 {
            act_rates.push(run.matched_activations as f64 / oracle.matched_activations as f64);
        }
    }
    let avg = |v: &[f64]| {
        if v.is_empty() {
            0.0
        } else {
            v.iter().sum::<f64>() / v.len() as f64
        }
    };
    FigurePoint {
        strategy: strategy.to_owned(),
        err_rate,
        ctx_use_rate: avg(&use_rates),
        sit_act_rate: avg(&act_rates),
        mean_used: if n > 0 { used_sum / n as f64 } else { 0.0 },
        mean_matched: if n > 0 { matched_sum / n as f64 } else { 0.0 },
        runs: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(strategy: &str, seed: u64, used: u64, matched: u64) -> RunMetrics {
        RunMetrics {
            strategy: strategy.into(),
            err_rate: 0.2,
            seed,
            used_expected: used,
            used_corrupted: 0,
            matched_activations: matched,
            raw_activations: matched,
            discarded: 0,
            discarded_expected: 0,
            discarded_corrupted: 0,
            inconsistencies: 0,
            survival: 1.0,
            precision: 1.0,
            activation_latency: None,
        }
    }

    #[test]
    fn oracle_normalizes_to_one() {
        let oracle = vec![run("opt-r", 1, 100, 10), run("opt-r", 2, 80, 8)];
        let p = normalize_against_oracle("opt-r", 0.2, &oracle, &oracle);
        assert!((p.ctx_use_rate - 1.0).abs() < 1e-12);
        assert!((p.sit_act_rate - 1.0).abs() < 1e-12);
        assert_eq!(p.runs, 2);
    }

    #[test]
    fn pairing_is_per_seed() {
        let oracle = vec![run("opt-r", 1, 100, 10), run("opt-r", 2, 50, 5)];
        let subject = vec![run("d-lat", 1, 50, 5), run("d-lat", 2, 50, 5)];
        let p = normalize_against_oracle("d-lat", 0.2, &subject, &oracle);
        // Seed 1: 0.5; seed 2: 1.0 -> mean 0.75.
        assert!((p.ctx_use_rate - 0.75).abs() < 1e-12);
    }

    #[test]
    fn missing_oracle_partner_is_skipped() {
        let oracle = vec![run("opt-r", 1, 100, 10)];
        let subject = vec![run("d-all", 1, 60, 6), run("d-all", 99, 1, 1)];
        let p = normalize_against_oracle("d-all", 0.2, &subject, &oracle);
        assert_eq!(p.runs, 1);
        assert!((p.ctx_use_rate - 0.6).abs() < 1e-12);
    }

    #[test]
    fn zero_denominator_does_not_poison() {
        let oracle = vec![run("opt-r", 1, 0, 0), run("opt-r", 2, 100, 10)];
        let subject = vec![run("d-bad", 1, 0, 0), run("d-bad", 2, 90, 9)];
        let p = normalize_against_oracle("d-bad", 0.2, &subject, &oracle);
        assert!((p.ctx_use_rate - 0.9).abs() < 1e-12);
        assert!((p.sit_act_rate - 0.9).abs() < 1e-12);
    }
}
