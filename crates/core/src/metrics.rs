//! Cluster-level metrics: job-completion-time statistics and the paper's
//! GPUs-saved estimate.
//!
//! Accounting here never truncates silently: every `as` cast is denied
//! (`metrics-cast`, ARCHITECTURE.md "Determinism invariants"), so each
//! conversion is a lossless `from` or a checked `try_from`.
#![deny(clippy::as_conversions)]

use pipefill_sim_core::stats::Summary;

/// Job-completion-time statistics (Fig. 9a's metric).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JctStats {
    /// Completed jobs.
    pub count: usize,
    /// Mean JCT in seconds.
    pub mean_secs: f64,
    /// Median JCT in seconds.
    pub median_secs: f64,
    /// 95th-percentile JCT in seconds.
    pub p95_secs: f64,
    /// Worst JCT in seconds.
    pub max_secs: f64,
}

impl JctStats {
    /// Summarizes a list of per-job completion times (seconds).
    pub fn from_secs(jcts: &[f64]) -> JctStats {
        match Summary::from_slice(jcts) {
            None => JctStats::default(),
            Some(s) => JctStats {
                count: s.count,
                mean_secs: s.mean,
                median_secs: s.median,
                p95_secs: s.p95,
                max_secs: s.max,
            },
        }
    }
}

/// The paper's closed-form estimate (§6.2): "for a main job using C GPUs
/// with a bubble ratio of B and fill-job relative performance of P, we
/// can approximate the GPUs saved by filling as C·B·P".
///
/// # Example
///
/// ```
/// use pipefill_core::gpus_saved;
///
/// // The paper's 8K-GPU trace-mix case: ≈1500+ GPUs saved.
/// let saved = gpus_saved(8192, 0.652, 0.3);
/// assert!(saved > 1500.0 && saved < 1700.0);
/// // Best case with bubble-efficient jobs: ≈2600.
/// let best = gpus_saved(8192, 0.652, 0.5);
/// assert!((best - 2670.0).abs() < 20.0);
/// ```
///
/// # Panics
///
/// Panics if `bubble_ratio` or `relative_perf` is outside `[0, 1]`, or
/// if `cluster_gpus` exceeds `u32::MAX`.
pub fn gpus_saved(cluster_gpus: usize, bubble_ratio: f64, relative_perf: f64) -> f64 {
    assert!(
        (0.0..=1.0).contains(&bubble_ratio),
        "bubble ratio must be in [0, 1], got {bubble_ratio}"
    );
    assert!(
        (0.0..=1.0).contains(&relative_perf),
        "relative performance must be in [0, 1], got {relative_perf}"
    );
    let gpus = u32::try_from(cluster_gpus).expect("cluster GPU count fits in u32");
    f64::from(gpus) * bubble_ratio * relative_perf
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn jct_stats_from_sample() {
        let s = JctStats::from_secs(&[10.0, 20.0, 30.0, 40.0]);
        assert_eq!(s.count, 4);
        assert_eq!(s.mean_secs, 25.0);
        assert_eq!(s.median_secs, 25.0);
        assert_eq!(s.max_secs, 40.0);
        assert_eq!(JctStats::from_secs(&[]).count, 0);
    }

    #[test]
    #[should_panic(expected = "bubble ratio")]
    fn bad_bubble_ratio_rejected() {
        let _ = gpus_saved(100, 1.5, 0.3);
    }
}
