//! Execution configurations: batch size × technique, plus the Executor's
//! global tuning and constants.

use pipefill_sim_core::SimDuration;

/// An execution technique a fill-job configuration may use (§4.5: "the
/// Executor will consider using ZeRO-Offload and ZeRO-Infinity to offload
/// optimizer states, gradients, activations, and parameters").
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ExecTechnique {
    /// Everything resident on the device.
    Plain,
    /// Activation checkpointing: store block boundaries, recompute
    /// interiors in backward (training only; backward costs 3× forward).
    ActivationCheckpointing,
    /// ZeRO-Offload: optimizer state lives on the host; gradients stream
    /// down and updated parameters stream back each iteration (training
    /// only).
    OffloadOptimizer,
    /// ZeRO-Infinity-style parameter streaming: only a sliding window of
    /// layer parameters is resident; each layer's weights stream from the
    /// host, overlapping the previous layer's compute.
    OffloadParams,
    /// Parameter streaming combined with activation checkpointing — the
    /// "aggressive CPU-offloading" XLM needs (§6.2).
    OffloadParamsAndCheckpoint,
    /// ZeRO-Infinity's second tier: parameters stream from NVMe instead
    /// of host DRAM (§4.3 lists NVMe-offloading among the Executor's
    /// configurations). Strictly slower than [`ExecTechnique::OffloadParams`]
    /// on devices with spare host memory, but the only option when host
    /// DRAM is exhausted.
    OffloadParamsNvme,
}

impl ExecTechnique {
    /// All techniques applicable to a job kind. Inference has no
    /// optimizer or stored activations, so only parameter placement
    /// varies.
    pub fn applicable(kind: pipefill_model_zoo::JobKind) -> &'static [ExecTechnique] {
        use pipefill_model_zoo::JobKind;
        match kind {
            JobKind::Training => &[
                ExecTechnique::Plain,
                ExecTechnique::ActivationCheckpointing,
                ExecTechnique::OffloadOptimizer,
                ExecTechnique::OffloadParams,
                ExecTechnique::OffloadParamsAndCheckpoint,
                ExecTechnique::OffloadParamsNvme,
            ],
            JobKind::BatchInference => &[
                ExecTechnique::Plain,
                ExecTechnique::OffloadParams,
                ExecTechnique::OffloadParamsNvme,
            ],
        }
    }

    /// True if parameters are streamed from off-device storage.
    pub fn streams_params(self) -> bool {
        matches!(
            self,
            ExecTechnique::OffloadParams
                | ExecTechnique::OffloadParamsAndCheckpoint
                | ExecTechnique::OffloadParamsNvme
        )
    }

    /// True if parameter streaming sources from NVMe rather than host
    /// DRAM.
    pub fn streams_from_nvme(self) -> bool {
        matches!(self, ExecTechnique::OffloadParamsNvme)
    }

    /// True if activations are checkpointed.
    pub fn checkpoints_activations(self) -> bool {
        matches!(
            self,
            ExecTechnique::ActivationCheckpointing | ExecTechnique::OffloadParamsAndCheckpoint
        )
    }
}

impl std::fmt::Display for ExecTechnique {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            ExecTechnique::Plain => "plain",
            ExecTechnique::ActivationCheckpointing => "act-ckpt",
            ExecTechnique::OffloadOptimizer => "zero-offload",
            ExecTechnique::OffloadParams => "zero-infinity",
            ExecTechnique::OffloadParamsAndCheckpoint => "zero-infinity+ckpt",
            ExecTechnique::OffloadParamsNvme => "zero-infinity-nvme",
        };
        write!(f, "{s}")
    }
}

/// One candidate configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExecConfig {
    /// Samples per fill-job iteration.
    pub batch_size: usize,
    /// Placement/recompute technique.
    pub technique: ExecTechnique,
}

impl std::fmt::Display for ExecConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "b{}/{}", self.batch_size, self.technique)
    }
}

/// Throughput multiplier for bubble execution relative to the offline
/// profile: bubbles start with cold caches and no kernel-autotuning
/// warmup ("not enough to warmup the GPU caches", §6.2). Every planned
/// node runs `1 / COLD_START_FACTOR` times its profiled duration.
pub const COLD_START_FACTOR: f64 = 0.75;

/// Context-switch cost charged at the start of every filled bubble
/// (signal + allocator cap + stream launch).
pub const SWITCH_OVERHEAD: SimDuration = SimDuration::from_millis(5);

/// Global Executor tuning. Cold start and the switch cost are the
/// constants [`COLD_START_FACTOR`] and [`SWITCH_OVERHEAD`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorConfig {
    /// Fraction of each measured bubble the Executor packs work into.
    /// Fig. 5: overhead to the main job stays <2% up to 68%, which is the
    /// paper's (and our) default. `0.0` is the no-fill config (see
    /// [`Self::with_fill_fraction`]).
    pub fill_fraction: f64,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            fill_fraction: 0.68,
        }
    }
}

impl ExecutorConfig {
    /// Validates ranges for planning. The no-fill config fails it: a
    /// planner has no capacity to pack into.
    ///
    /// # Panics
    ///
    /// Panics if `fill_fraction` is outside `(0, 1]`.
    pub fn validate(&self) {
        assert!(
            self.fill_fraction > 0.0 && self.fill_fraction <= 1.0,
            "fill fraction must be in (0, 1], got {}",
            self.fill_fraction
        );
    }

    /// Returns a copy with a different fill fraction (the Fig. 5 sweep).
    /// `f = 0.0` returns the no-fill config: a main job that carries it
    /// declines filling entirely, and the filling backends schedule no
    /// bubble work for it.
    ///
    /// # Panics
    ///
    /// Panics if `f` is neither `0.0` nor in `(0, 1]`.
    pub fn with_fill_fraction(mut self, f: f64) -> Self {
        self.fill_fraction = f;
        if f != 0.0 {
            self.validate();
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_model_zoo::JobKind;

    #[test]
    fn inference_has_no_training_techniques() {
        let inf = ExecTechnique::applicable(JobKind::BatchInference);
        assert!(!inf.contains(&ExecTechnique::OffloadOptimizer));
        assert!(!inf.contains(&ExecTechnique::ActivationCheckpointing));
        assert!(inf.contains(&ExecTechnique::OffloadParams));
        assert!(inf.contains(&ExecTechnique::OffloadParamsNvme));
        let train = ExecTechnique::applicable(JobKind::Training);
        assert_eq!(train.len(), 6);
    }

    #[test]
    fn nvme_is_a_streaming_technique() {
        assert!(ExecTechnique::OffloadParamsNvme.streams_params());
        assert!(ExecTechnique::OffloadParamsNvme.streams_from_nvme());
        assert!(!ExecTechnique::OffloadParams.streams_from_nvme());
        assert!(!ExecTechnique::OffloadParamsNvme.checkpoints_activations());
    }

    #[test]
    fn technique_predicates() {
        assert!(ExecTechnique::OffloadParams.streams_params());
        assert!(ExecTechnique::OffloadParamsAndCheckpoint.streams_params());
        assert!(!ExecTechnique::Plain.streams_params());
        assert!(ExecTechnique::ActivationCheckpointing.checkpoints_activations());
        assert!(!ExecTechnique::OffloadOptimizer.checkpoints_activations());
    }

    #[test]
    fn default_matches_paper_constants() {
        let cfg = ExecutorConfig::default();
        assert_eq!(cfg.fill_fraction, 0.68);
        cfg.validate();
    }

    #[test]
    #[should_panic(expected = "fill fraction")]
    fn bad_fill_fraction_rejected() {
        let _ = ExecutorConfig::default().with_fill_fraction(1.5);
    }

    #[test]
    #[should_panic(expected = "fill fraction")]
    fn no_fill_config_builds_but_fails_planner_validation() {
        let none = ExecutorConfig::default().with_fill_fraction(0.0);
        assert_eq!(none.fill_fraction, 0.0);
        none.validate();
    }

    #[test]
    fn display_is_compact() {
        let c = ExecConfig {
            batch_size: 32,
            technique: ExecTechnique::OffloadParams,
        };
        assert_eq!(c.to_string(), "b32/zero-infinity");
    }
}
