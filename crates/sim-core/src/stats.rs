//! Summary statistics for the metrics layer: batch summaries with
//! percentiles, and the relative error the backend comparisons report.

/// A batch summary of a sample: mean, standard deviation, extrema, and
/// percentiles (by linear interpolation between order statistics).
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Population standard deviation.
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
    /// Median (p50).
    pub median: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Summary {
    /// Summarizes a sample. NaN observations are skipped — one failed or
    /// undefined metric must not abort a whole sweep. Returns `None` when
    /// the slice is empty or contains only NaNs.
    pub fn from_slice(values: &[f64]) -> Option<Summary> {
        let mut sorted: Vec<f64> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if sorted.is_empty() {
            return None;
        }
        sorted.sort_by(f64::total_cmp);
        let count = sorted.len();
        let mean = sorted.iter().sum::<f64>() / count as f64;
        let var = sorted.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / count as f64;
        Some(Summary {
            count,
            mean,
            std_dev: var.sqrt(),
            min: sorted[0],
            max: sorted[count - 1],
            median: percentile_sorted(&sorted, 50.0),
            p95: percentile_sorted(&sorted, 95.0),
            p99: percentile_sorted(&sorted, 99.0),
        })
    }
}

/// Percentile of an already-sorted sample, with linear interpolation.
///
/// # Panics
///
/// Panics if `sorted` is empty or `p` is outside `[0, 100]`.
pub fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of empty sample");
    assert!((0.0..=100.0).contains(&p), "percentile {p} out of [0, 100]");
    if sorted.len() == 1 {
        return sorted[0];
    }
    let rank = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    sorted[lo] + (sorted[hi] - sorted[lo]) * frac
}

/// Relative error `|measured - reference| / |reference|`, used when
/// comparing the coarse simulator against the fine-grained "physical"
/// simulator (Fig. 6 reports a maximum error of <2%).
///
/// # Panics
///
/// Panics if `reference` is zero.
pub fn relative_error(measured: f64, reference: f64) -> f64 {
    assert!(reference != 0.0, "relative error against zero reference");
    ((measured - reference) / reference).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_interpolate() {
        let sorted = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(percentile_sorted(&sorted, 0.0), 10.0);
        assert_eq!(percentile_sorted(&sorted, 100.0), 40.0);
        assert_eq!(percentile_sorted(&sorted, 50.0), 25.0);
        assert_eq!(percentile_sorted(&[42.0], 75.0), 42.0);
    }

    #[test]
    fn summary_of_constant_sample() {
        let s = Summary::from_slice(&[5.0; 10]).unwrap();
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.p99, 5.0);
    }

    #[test]
    fn summary_skips_nan_observations() {
        // Regression: a single NaN used to panic via partial_cmp().expect,
        // aborting an entire sweep over one bad metric.
        let s = Summary::from_slice(&[3.0, f64::NAN, 1.0, 2.0]).unwrap();
        assert_eq!(s.count, 3);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert!(Summary::from_slice(&[f64::NAN, f64::NAN]).is_none());
        assert!(Summary::from_slice(&[]).is_none());
    }

    #[test]
    fn relative_error_is_symmetric_in_magnitude() {
        assert!((relative_error(102.0, 100.0) - 0.02).abs() < 1e-12);
        assert!((relative_error(98.0, 100.0) - 0.02).abs() < 1e-12);
    }
}
