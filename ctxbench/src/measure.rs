//! Timing and memory helpers shared by every workload.

use std::time::Duration;

/// Nanoseconds in a [`Duration`], saturating at `u64::MAX`.
pub fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The `q`-quantile (`0 < q <= 1`) of `values` by the nearest-rank rule:
/// the smallest sample with at least `q` of the samples at or below it.
/// Reorders `values` in place and allocates nothing (a stable sort
/// would allocate scratch space inside the memory-measured loop).
/// `None` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let rank = (q * values.len() as f64).ceil() as usize;
    let (_, at, _) = values.select_nth_unstable_by(rank.clamp(1, values.len()) - 1, f64::total_cmp);
    Some(*at)
}

/// The median of `values` (mean of the two middle samples for an even
/// count). `None` for an empty slice.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    Some(if sorted.len().is_multiple_of(2) {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    })
}

/// Tracks the peak heap memory the process holds above a baseline
/// taken when the probe is created — the growth a timed phase causes,
/// excluding whatever (the generated trace, the timing buffers) was
/// held before it. Reads the counters of [`crate::alloc`]'s allocator;
/// without that allocator installed the growth reads 0.
#[derive(Debug)]
pub struct HeapProbe {
    baseline: u64,
}

impl HeapProbe {
    /// Takes the baseline now.
    pub fn start() -> Self {
        HeapProbe {
            baseline: crate::alloc::reset_peak(),
        }
    }

    /// Peak growth over the baseline, in MiB.
    pub fn growth_mb(&self) -> f64 {
        crate::alloc::peak_bytes().saturating_sub(self.baseline) as f64 / (1024.0 * 1024.0)
    }
}

/// Seconds one [`Calibration::measure`] reads on the reference host
/// (the 2-vCPU Intel Xeon virtual machine the README's figures come
/// from) in a quiet phase. Timings scaled by `CALIBRATION_REF_S /
/// measured` are in reference-host seconds.
pub const CALIBRATION_REF_S: f64 = 0.0015;

/// When the host slows, the engine's calls slow as the kernel's time to
/// this power: a least-squares fit of log rate on log kernel time over
/// two ten-seed sets per workload gave 1.24 (`city-batch`), 1.29
/// (`city-stream`) and 1.36 (`paper-apps`). Scaling by the plain ratio
/// left about a quarter of a slow phase in the figures.
pub const CALIBRATION_EXPONENT: f64 = 1.25;

/// Keys one calibration pass hashes and sorts.
const CALIBRATION_KEYS: usize = 1 << 15;

/// A fixed piece of work that measures how fast the host runs right
/// now: hashed inserts and lookups in an open-addressing table of 4 MiB
/// (the engine's pools and indexes are hash tables), then a sort of the
/// keys. It is the benchmark's own code, so no change to the engine
/// alters it, and it allocates nothing after [`Calibration::new`], so
/// it leaves the memory metric alone.
#[derive(Debug)]
pub struct Calibration {
    table: Vec<u64>,
    keys: Vec<u64>,
}

impl Default for Calibration {
    fn default() -> Self {
        Self::new()
    }
}

impl Calibration {
    /// Allocates the kernel's buffers and runs it once, so that every
    /// page of them is resident (create it before the memory baseline).
    pub fn new() -> Self {
        let mut kernel = Calibration {
            table: vec![0; 1 << 19],
            keys: vec![0; CALIBRATION_KEYS],
        };
        std::hint::black_box(kernel.pass());
        kernel
    }

    fn pass(&mut self) -> u64 {
        let mask = self.table.len() - 1;
        self.table.fill(0);
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for k in &mut self.keys {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            // Half the keys repeat, so lookups find them.
            *k = (x % (CALIBRATION_KEYS as u64 / 2)) | 1;
        }
        let mut hits = 0u64;
        for _ in 0..8 {
            for &k in &self.keys {
                let mut i = (k.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as usize & mask;
                loop {
                    let slot = self.table[i];
                    if slot == 0 {
                        self.table[i] = k;
                        break;
                    }
                    if slot == k {
                        hits += 1;
                        break;
                    }
                    i = (i + 1) & mask;
                }
            }
        }
        self.keys.sort_unstable();
        hits ^ self.keys[CALIBRATION_KEYS / 2]
    }

    /// Seconds the kernel takes now: the fastest of three passes, so a
    /// single interruption does not count.
    pub fn measure(&mut self) -> f64 {
        (0..3)
            .map(|_| {
                let start = std::time::Instant::now();
                std::hint::black_box(self.pass());
                start.elapsed().as_secs_f64()
            })
            .fold(f64::INFINITY, f64::min)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let mut v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(quantile(&mut v, 0.5), Some(50.0));
        assert_eq!(quantile(&mut v, 0.99), Some(99.0));
        assert_eq!(quantile(&mut v, 1.0), Some(100.0));
        assert_eq!(quantile(&mut [], 0.5), None);
    }

    #[test]
    fn median_of_even_and_odd_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
    }
}
