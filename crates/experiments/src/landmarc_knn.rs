//! LANDMARC estimator ablation: localization error vs. `k` and
//! reference-tag density.
//!
//! The paper's running example leans on the LANDMARC algorithm (Ni et
//! al.), whose own evaluation found `k = 4` the sweet spot and showed
//! denser reference grids improving accuracy. This ablation confirms
//! both properties hold in our simulated reimplementation — the
//! substrate-validity check behind the §5.2 case study.

use crate::runner::fan_out;
use ctxres_landmarc::{Floorplan, KnnEstimator, PathLossModel, RandomWaypoint, Rect};
use serde::{Deserialize, Serialize};

/// Mean/95th-percentile localization error for one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct KnnPoint {
    /// Neighbours used by the estimator.
    pub k: usize,
    /// Reference-tag grid spacing, metres.
    pub grid_spacing: f64,
    /// Mean error over the walk, metres.
    pub mean_error: f64,
    /// 95th-percentile error, metres.
    pub p95_error: f64,
}

/// Measures estimation error for each `k` (fixed 2 m grid) and each
/// grid spacing (fixed k = 4), over `samples` fixes per configuration
/// and `threads` worker threads.
pub fn knn_sweep(
    ks: &[usize],
    spacings: &[f64],
    samples: usize,
    seed: u64,
    threads: usize,
) -> Vec<KnnPoint> {
    let mut cells: Vec<(usize, f64)> = ks.iter().map(|&k| (k, 2.0)).collect();
    cells.extend(
        spacings
            .iter()
            .filter(|spacing| (*spacing - 2.0).abs() > 1e-9)
            .map(|&spacing| (4, spacing)),
    );
    fan_out(&cells, threads, |_, &(k, spacing)| {
        measure(k, spacing, samples, seed)
    })
}

fn measure(k: usize, grid_spacing: f64, samples: usize, seed: u64) -> KnnPoint {
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    let area = Rect::new(0.0, 0.0, 40.0, 30.0);
    let plan = Floorplan::grid(area, grid_spacing, 2);
    let estimator = KnnEstimator::new(plan, PathLossModel::default(), k);
    let reference_map = estimator.reference_map();
    let mut walker = RandomWaypoint::new(area, 1.0, seed ^ 0xabcd);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut errors: Vec<f64> = (0..samples)
        .map(|_| {
            let truth = walker.step();
            estimator
                .locate(truth, &reference_map, &mut rng)
                .distance(truth)
        })
        .collect();
    errors.sort_by(f64::total_cmp);
    let mean = errors.iter().sum::<f64>() / errors.len() as f64;
    let p95_index = ((errors.len() as f64 * 0.95) as usize).min(errors.len() - 1);
    let p95 = errors[p95_index];
    KnnPoint {
        k,
        grid_spacing,
        mean_error: mean,
        p95_error: p95,
    }
}

/// Renders the sweep as a text table.
pub fn render_knn(points: &[KnnPoint]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "LANDMARC estimator ablation (error in metres)");
    let _ = writeln!(
        out,
        "{:>4}{:>10}{:>12}{:>12}",
        "k", "grid (m)", "mean err", "p95 err"
    );
    for p in points {
        let _ = writeln!(
            out,
            "{:>4}{:>10.1}{:>12.2}{:>12.2}",
            p.k, p.grid_spacing, p.mean_error, p.p95_error
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn k_of_one_is_worse_than_k_of_four() {
        let points = knn_sweep(&[1, 4], &[], 300, 3, 2);
        let k1 = points.iter().find(|p| p.k == 1).unwrap();
        let k4 = points.iter().find(|p| p.k == 4).unwrap();
        assert!(
            k4.mean_error < k1.mean_error,
            "k=4 {:.2} should beat k=1 {:.2}",
            k4.mean_error,
            k1.mean_error
        );
    }

    #[test]
    fn denser_grid_reduces_error() {
        let points = knn_sweep(&[4], &[2.0, 6.0], 300, 5, 2);
        let dense = points
            .iter()
            .find(|p| (p.grid_spacing - 2.0).abs() < 1e-9)
            .unwrap();
        let sparse = points
            .iter()
            .find(|p| (p.grid_spacing - 6.0).abs() < 1e-9)
            .unwrap();
        assert!(
            dense.mean_error < sparse.mean_error,
            "2 m grid {:.2} should beat 6 m grid {:.2}",
            dense.mean_error,
            sparse.mean_error
        );
    }

    #[test]
    fn rendering_lists_every_point() {
        let points = knn_sweep(&[1, 4], &[4.0], 50, 1, 2);
        let s = render_knn(&points);
        assert_eq!(s.lines().count(), 2 + points.len());
    }
}
