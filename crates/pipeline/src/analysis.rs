//! Closed-form pipeline analysis: the bubble-fraction formula and the
//! training-time arithmetic behind Figs. 1 and 4.

use pipefill_sim_core::SimDuration;

/// The idle-time fraction of synchronous unidirectional pipeline
/// schedules: `(p − 1) / (m + p − 1)` (§2.1), for `p` stages and `m`
/// microbatches.
///
/// # Example
///
/// ```
/// use pipefill_pipeline::bubble_fraction;
///
/// // The paper's 8K-GPU point: p=16, m=8 → 65.2%.
/// assert!((bubble_fraction(16, 8) - 0.652).abs() < 0.001);
/// ```
///
/// # Panics
///
/// Panics if `p` or `m` is zero.
pub fn bubble_fraction(p: usize, m: usize) -> f64 {
    assert!(p > 0 && m > 0, "p and m must be positive");
    (p - 1) as f64 / (m + p - 1) as f64
}

/// Closed-form bubble fraction of each supported schedule, for `p`
/// stages, `m` microbatches and a backward/forward time ratio `r`
/// (`t_b = r·t_f`; the repo's calibration is `r = 2`). This is what the
/// coarse fidelity pins the engine against, and what the schedule sweeps
/// report alongside the measured geometry:
///
/// * GPipe and 1F1B: `(p-1)/(m+p-1)` — same total bubble, different
///   fillability (§2.1, §4.5).
/// * Interleaved 1F1B with `v` chunks: the fill/drain ramp shrinks to
///   `(p-1)/v` chunk-slots → `(p-1)/(v·m + p - 1)`. This is the ideal
///   (perfectly packed) geometry, a *lower bound* on what any realizable
///   interleaved schedule — including the engine's — measures; the
///   realized value sits between it and 1F1B's fraction.
/// * ZB-H1: per-stage bubble drops from `(p-1)(t_f+t_b)` to
///   `(p-1)(t_f + t_B - t_W)` with `t_B = t_W = t_b/2`, i.e.
///   `(p-1)·t_f` → `(p-1)/((1+r)·m + p - 1)`, which the engine
///   reproduces exactly for uniform stages.
///
/// Valid in the paper's regime `m >= p`; below it the schedules pick up
/// extra forward-starvation terms the engine measures directly.
///
/// # Panics
///
/// Panics if `p` or `m` is zero, or `r` is not positive.
pub fn bubble_fraction_for(
    schedule: crate::schedule::ScheduleKind,
    p: usize,
    m: usize,
    r: f64,
) -> f64 {
    use crate::schedule::ScheduleKind;
    assert!(p > 0 && m > 0, "p and m must be positive");
    assert!(r > 0.0, "backward/forward ratio must be positive");
    let p1 = (p - 1) as f64;
    match schedule {
        ScheduleKind::GPipe | ScheduleKind::OneFOneB => p1 / (m as f64 + p1),
        ScheduleKind::Interleaved { chunks } => {
            assert!(chunks > 0, "interleaved needs at least 1 chunk");
            p1 / (chunks as f64 * m as f64 + p1)
        }
        ScheduleKind::ZbH1 => p1 / ((1.0 + r) * m as f64 + p1),
    }
}

/// Wall-clock days to finish a token budget at one iteration per
/// `iteration_time`.
///
/// # Panics
///
/// Panics if `tokens_per_iteration` is not positive.
pub fn days_to_train(
    total_tokens: f64,
    tokens_per_iteration: f64,
    iteration_time: SimDuration,
) -> f64 {
    assert!(
        tokens_per_iteration > 0.0,
        "tokens per iteration must be positive"
    );
    let steps = total_tokens / tokens_per_iteration;
    steps * iteration_time.as_secs_f64() / 86_400.0
}

/// One point of the scaling study (a row of Fig. 4's series).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingPoint {
    /// Total GPUs.
    pub gpus: usize,
    /// Microbatches per pipeline replica.
    pub microbatches: usize,
    /// Engine-measured bubble ratio.
    pub bubble_ratio: f64,
    /// Fillable bubble ratio (excludes non-contiguous gaps).
    pub fillable_ratio: f64,
    /// Minibatch iteration time.
    pub iteration_time: SimDuration,
    /// Days to complete the training-token budget.
    pub days_to_train: f64,
    /// Main-job TFLOPS per GPU averaged over the iteration (Fig. 4c's
    /// "Traditional PP" series).
    pub main_job_tflops_per_gpu: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bubble_fraction_matches_paper_series() {
        // GPipe's (p-1)/(m+p-1) at p = 16, the paper's 1K-16K GPU
        // series (§5.2): m = 64/32/16/8/4 ↔ 15/79, 15/47, 15/31, 15/23,
        // 15/19 = 19.0/31.9/48.4/65.2/78.9 %.
        let cases = [
            (64, 0.1899),
            (32, 0.3191),
            (16, 0.4839),
            (8, 0.6522),
            (4, 0.7895),
        ];
        for (m, expect) in cases {
            let got = bubble_fraction(16, m);
            assert!((got - expect).abs() < 5e-4, "m={m}: {got}");
        }
    }

    #[test]
    fn bubble_fraction_limits() {
        assert_eq!(bubble_fraction(1, 10), 0.0);
        assert!(bubble_fraction(1000, 1) >= 0.999);
    }

    #[test]
    fn per_schedule_fractions_are_ordered() {
        use crate::schedule::ScheduleKind;
        for (p, m) in [(4usize, 8usize), (8, 16), (16, 64)] {
            let gpipe = bubble_fraction_for(ScheduleKind::GPipe, p, m, 2.0);
            let ofob = bubble_fraction_for(ScheduleKind::OneFOneB, p, m, 2.0);
            let il2 = bubble_fraction_for(ScheduleKind::Interleaved { chunks: 2 }, p, m, 2.0);
            let il4 = bubble_fraction_for(ScheduleKind::Interleaved { chunks: 4 }, p, m, 2.0);
            let zb = bubble_fraction_for(ScheduleKind::ZbH1, p, m, 2.0);
            assert_eq!(gpipe, ofob, "total bubble is schedule-independent");
            assert_eq!(gpipe, bubble_fraction(p, m));
            assert!(il2 < ofob, "p={p} m={m}");
            assert!(il4 < il2, "p={p} m={m}");
            assert!(zb < ofob, "p={p} m={m}");
        }
        // 1-chunk interleaved degenerates to 1F1B's fraction.
        assert_eq!(
            bubble_fraction_for(ScheduleKind::Interleaved { chunks: 1 }, 8, 16, 2.0),
            bubble_fraction_for(ScheduleKind::OneFOneB, 8, 16, 2.0)
        );
        // ZB-H1's fraction at r=2 equals the (1+r)·m stretch: p=16, m=8
        // → 15 / (24 + 15).
        let zb = bubble_fraction_for(ScheduleKind::ZbH1, 16, 8, 2.0);
        assert!((zb - 15.0 / 39.0).abs() < 1e-12, "{zb}");
    }

    #[test]
    fn figure2_doubling_example() {
        // Fig. 2: p=4; doubling pipelines halves m from 4 to 2; the bubble
        // fraction rises from 3/7 to 3/5 — "about 40%".
        let before = bubble_fraction(4, 4);
        let after = bubble_fraction(4, 2);
        let increase = (after - before) / before;
        assert!((increase - 0.4).abs() < 0.01, "increase {increase}");
    }

    #[test]
    fn days_scale_inversely_with_iteration_time() {
        let d1 = days_to_train(1.0e12, 2.0e6, SimDuration::from_secs_f64(10.0));
        let d2 = days_to_train(1.0e12, 2.0e6, SimDuration::from_secs_f64(5.0));
        assert!((d1 / d2 - 2.0).abs() < 1e-9);
        // 500K steps × 10 s ≈ 57.9 days.
        assert!((d1 - 57.87).abs() < 0.01, "{d1}");
    }
}
