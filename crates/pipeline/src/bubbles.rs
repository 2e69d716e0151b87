//! Bubble taxonomy and the bubble windows the engine exposes to the rest
//! of PipeFill.

use pipefill_device::Bytes;
use pipefill_sim_core::SimDuration;
use serde::{Deserialize, Serialize};

/// The three bubble kinds the paper identifies (§4.5):
///
/// * *fill-drain* — between the drain of one minibatch iteration and the
///   fill of the next (identical for GPipe and 1F1B);
/// * *fwd-bwd* — between a stage's forward-pass saturation and the start
///   of its backward work (schedule-dependent);
/// * *non-contiguous* — the small steady-state gaps inside 1F1B, **which
///   PipeFill does not fill**.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BubbleKind {
    /// Iteration-boundary bubble (drain + next fill).
    FillDrain,
    /// Mid-iteration bubble between forward and backward phases.
    FwdBwd,
    /// Fragmented steady-state gaps (1F1B only); not fillable.
    NonContiguous,
}

impl BubbleKind {
    /// Whether PipeFill attempts to fill this kind of bubble.
    pub fn fillable(self) -> bool {
        !matches!(self, BubbleKind::NonContiguous)
    }
}

impl std::fmt::Display for BubbleKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BubbleKind::FillDrain => write!(f, "fill-drain"),
            BubbleKind::FwdBwd => write!(f, "fwd-bwd"),
            BubbleKind::NonContiguous => write!(f, "non-contiguous"),
        }
    }
}

/// One idle window on one stage within a single iteration period.
///
/// `offset` is relative to the period start, so the absolute start of the
/// window in iteration `k` is `k · period + offset`. `free_memory` is what
/// the engine measured as available to a fill job during this window
/// (after releasing transient buffers, §4.2).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct BubbleWindow {
    /// Bubble kind.
    pub kind: BubbleKind,
    /// Start offset within the iteration period.
    pub offset: SimDuration,
    /// Window length.
    pub duration: SimDuration,
    /// HBM available to fill jobs during the window.
    pub free_memory: Bytes,
}

impl BubbleWindow {
    /// Validated constructor: a window must lie entirely within its
    /// iteration period (`offset + duration <= period`), or every
    /// consumer that multiplies by the period — fill partitioning, the
    /// coarse backend's slot table, the renderer — silently works with
    /// phantom idle time. The duration is clamped to the period
    /// boundary, and exceeding it is a debug-build error (an emission
    /// site produced an impossible window).
    ///
    /// # Panics
    ///
    /// Panics if `offset > period` (the window starts outside the
    /// period); debug-panics if the duration had to be clamped.
    pub fn within_period(
        kind: BubbleKind,
        offset: SimDuration,
        duration: SimDuration,
        free_memory: Bytes,
        period: SimDuration,
    ) -> BubbleWindow {
        assert!(
            offset <= period,
            "bubble window starts at {offset}, outside the {period} period"
        );
        debug_assert!(
            offset + duration <= period,
            "bubble window [{offset}, {}) overruns the {period} period",
            offset + duration,
        );
        let duration = duration.min(period - offset);
        BubbleWindow {
            kind,
            offset,
            duration,
            free_memory,
        }
    }

    /// True if PipeFill will try to fill this window.
    pub fn fillable(&self) -> bool {
        self.kind.fillable() && !self.duration.is_zero()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn non_contiguous_is_not_fillable() {
        assert!(BubbleKind::FillDrain.fillable());
        assert!(BubbleKind::FwdBwd.fillable());
        assert!(!BubbleKind::NonContiguous.fillable());
    }

    #[test]
    fn zero_duration_window_is_not_fillable() {
        let w = BubbleWindow {
            kind: BubbleKind::FwdBwd,
            offset: SimDuration::ZERO,
            duration: SimDuration::ZERO,
            free_memory: Bytes::from_gib(4),
        };
        assert!(!w.fillable());
    }

    #[test]
    fn within_period_accepts_valid_windows() {
        let w = BubbleWindow::within_period(
            BubbleKind::FwdBwd,
            SimDuration::from_millis(100),
            SimDuration::from_millis(50),
            Bytes::from_gib(4),
            SimDuration::from_millis(150),
        );
        assert_eq!(w.duration, SimDuration::from_millis(50));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn within_period_rejects_offset_beyond_period() {
        let _ = BubbleWindow::within_period(
            BubbleKind::FwdBwd,
            SimDuration::from_millis(200),
            SimDuration::from_millis(1),
            Bytes::from_gib(4),
            SimDuration::from_millis(150),
        );
    }

    #[test]
    #[cfg_attr(debug_assertions, should_panic(expected = "overruns"))]
    fn within_period_clamps_overrunning_duration() {
        // Release builds clamp; debug builds flag the emission-site bug.
        let w = BubbleWindow::within_period(
            BubbleKind::FillDrain,
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
            Bytes::from_gib(4),
            SimDuration::from_millis(150),
        );
        assert_eq!(w.duration, SimDuration::from_millis(50));
    }

    #[test]
    fn kinds_display() {
        assert_eq!(BubbleKind::FillDrain.to_string(), "fill-drain");
        assert_eq!(BubbleKind::FwdBwd.to_string(), "fwd-bwd");
        assert_eq!(BubbleKind::NonContiguous.to_string(), "non-contiguous");
    }
}
