//! The model graph: an ordered sequence of layers plus the model-level
//! efficiency curve, with all the memory/FLOPs accounting the engine,
//! executor and scheduler consume.

use pipefill_device::{Bytes, DeviceSpec};
use pipefill_sim_core::SimDuration;

use crate::layer::Layer;
use crate::FP16_BYTES;

/// Broad architecture family, which determines how a model behaves under
/// bubble constraints (§6.2's fill-job characterization).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelFamily {
    /// Dense decoder/encoder transformer.
    Transformer,
    /// Hierarchical windowed-attention transformer (Swin).
    HierarchicalTransformer,
    /// Convolutional network (EfficientNet) — "particularly large
    /// activation sizes" relative to its parameter count (§6.2).
    Cnn,
}

/// How efficiently a model converts peak device FLOPS into useful work as
/// a function of batch size: a saturating curve
/// `eff(b) = max · b / (b + half_batch)`.
///
/// This captures the paper's two key observations (§6.2): inference jobs
/// reach higher utilization than training because low memory needs allow
/// bigger batches, and models like EfficientNet/Swin stay inefficient
/// because the batch sizes that fit in bubble free-memory are too small to
/// saturate the device (plus poorly-optimized specialized operators,
/// folded into `max`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EfficiencyCurve {
    /// Asymptotic fraction of peak FLOPS at infinite batch, in `(0, 1]`.
    pub max: f64,
    /// Batch size at which half of `max` is reached.
    pub half_batch: f64,
}

impl EfficiencyCurve {
    /// Creates a curve.
    ///
    /// # Panics
    ///
    /// Panics if `max` is outside `(0, 1]` or `half_batch` is negative.
    pub fn new(max: f64, half_batch: f64) -> Self {
        assert!(
            max > 0.0 && max <= 1.0,
            "efficiency max must be in (0, 1], got {max}"
        );
        assert!(
            half_batch >= 0.0 && half_batch.is_finite(),
            "half_batch must be non-negative, got {half_batch}"
        );
        EfficiencyCurve { max, half_batch }
    }

    /// Achieved fraction of peak FLOPS at a batch size.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn at(&self, batch: usize) -> f64 {
        assert!(batch > 0, "batch size must be positive");
        let b = batch as f64;
        self.max * b / (b + self.half_batch)
    }
}

/// A model: named, ordered layers plus family and efficiency metadata.
///
/// # Example
///
/// ```
/// use pipefill_model_zoo::gpt_40b;
///
/// let llm = gpt_40b();
/// assert!((llm.total_params() as f64 / 1e9 - 40.0).abs() < 2.0);
/// // Forward+backward ≈ 6·P FLOPs per token for a large transformer.
/// let per_token = llm.train_step_flops(1) / 2048.0;
/// assert!(per_token > 5.5 * llm.total_params() as f64);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelGraph {
    /// Model name as reported in tables, e.g. `"Bert-base"`.
    pub name: String,
    /// Architecture family.
    pub family: ModelFamily,
    /// Ordered layers (the linearization order used by the Executor).
    pub layers: Vec<Layer>,
    /// Tokens per sample for NLP models (`None` for vision models); used
    /// only for reporting throughput in familiar units.
    pub seq_len: Option<usize>,
    /// Device-efficiency curve for this model's kernels.
    pub efficiency: EfficiencyCurve,
}

impl ModelGraph {
    /// Total trainable parameters.
    pub fn total_params(&self) -> u64 {
        self.layers.iter().map(|l| l.params).sum()
    }

    /// Forward FLOPs for one batch.
    pub fn fwd_flops(&self, batch: usize) -> f64 {
        self.layers.iter().map(|l| l.fwd_flops(batch)).sum()
    }

    /// Backward FLOPs for one batch (2× forward).
    pub fn bwd_flops(&self, batch: usize) -> f64 {
        2.0 * self.fwd_flops(batch)
    }

    /// FLOPs for one full training step (forward + backward) of one batch.
    pub fn train_step_flops(&self, batch: usize) -> f64 {
        self.fwd_flops(batch) + self.bwd_flops(batch)
    }

    /// Parameter bytes (fp16).
    pub fn param_bytes(&self) -> Bytes {
        Bytes::new(self.total_params() * FP16_BYTES)
    }

    /// Sum of all layer activations for one batch — what training must
    /// hold without checkpointing.
    pub fn activation_bytes(&self, batch: usize) -> Bytes {
        self.layers.iter().map(|l| l.activation_bytes(batch)).sum()
    }

    /// The largest single-layer activation footprint at a batch size —
    /// the inference working set is about two of these (producer +
    /// consumer).
    pub fn max_layer_activation(&self, batch: usize) -> Bytes {
        self.layers
            .iter()
            .map(|l| l.activation_bytes(batch))
            .max()
            .unwrap_or(Bytes::ZERO)
    }

    /// Largest single-layer parameter footprint (fp16) — the resident set
    /// needed when parameters are streamed layer-by-layer from host
    /// memory (ZeRO-Infinity-style execution).
    pub fn max_layer_param_bytes(&self) -> Bytes {
        self.layers
            .iter()
            .map(|l| l.param_bytes())
            .max()
            .unwrap_or(Bytes::ZERO)
    }

    /// Time for a forward pass of one batch on `device` at this model's
    /// batch-dependent efficiency.
    pub fn fwd_time(&self, device: &DeviceSpec, batch: usize) -> SimDuration {
        device.compute_time(self.fwd_flops(batch), self.efficiency.at(batch))
    }

    /// Time for a backward pass of one batch on `device`.
    pub fn bwd_time(&self, device: &DeviceSpec, batch: usize) -> SimDuration {
        device.compute_time(self.bwd_flops(batch), self.efficiency.at(batch))
    }

    /// Achieved TFLOPS on `device` at a batch size (the quantity Fig. 7a
    /// reports per fill-job type).
    pub fn achieved_tflops(&self, device: &DeviceSpec, batch: usize) -> f64 {
        device.peak_tflops * self.efficiency.at(batch)
    }

    /// Returns a copy with every layer's compute and memory scaled by
    /// `factor` (used to emulate width-scaling in sensitivity studies).
    ///
    /// # Panics
    ///
    /// Panics if `factor` is non-positive or non-finite.
    pub fn scaled(&self, factor: f64) -> ModelGraph {
        assert!(
            factor > 0.0 && factor.is_finite(),
            "scale factor must be positive, got {factor}"
        );
        let layers = self
            .layers
            .iter()
            .map(|l| Layer {
                name: l.name.clone(),
                kind: l.kind,
                params: (l.params as f64 * factor).round() as u64,
                fwd_flops_per_sample: l.fwd_flops_per_sample * factor,
                activation_bytes_per_sample: l.activation_bytes_per_sample.mul_f64(factor),
                boundary_bytes_per_sample: l.boundary_bytes_per_sample.mul_f64(factor),
            })
            .collect();
        ModelGraph {
            name: format!("{}@x{factor:.2}", self.name),
            family: self.family,
            layers,
            seq_len: self.seq_len,
            efficiency: self.efficiency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::LayerKind;

    fn toy_model() -> ModelGraph {
        let block = |i: usize| Layer {
            name: format!("block{i}"),
            kind: LayerKind::TransformerBlock,
            params: 1_000_000,
            fwd_flops_per_sample: 1.0e9,
            activation_bytes_per_sample: Bytes::from_mib(4),
            boundary_bytes_per_sample: Bytes::from_mib(1),
        };
        ModelGraph {
            name: "toy".into(),
            family: ModelFamily::Transformer,
            layers: (0..4).map(block).collect(),
            seq_len: Some(128),
            efficiency: EfficiencyCurve::new(0.5, 2.0),
        }
    }

    #[test]
    fn accounting_sums_layers() {
        let m = toy_model();
        assert_eq!(m.total_params(), 4_000_000);
        assert_eq!(m.fwd_flops(2), 8.0e9);
        assert_eq!(m.bwd_flops(2), 16.0e9);
        assert_eq!(m.train_step_flops(2), 24.0e9);
        assert_eq!(m.param_bytes(), Bytes::new(8_000_000));
        assert_eq!(m.activation_bytes(2), Bytes::from_mib(32));
        assert_eq!(m.max_layer_activation(2), Bytes::from_mib(8));
    }

    #[test]
    fn efficiency_curve_saturates() {
        let c = EfficiencyCurve::new(0.4, 8.0);
        assert!(c.at(1) < c.at(8));
        assert!(c.at(8) < c.at(64));
        assert!((c.at(8) - 0.2).abs() < 1e-12); // half of max at half_batch
        assert!(c.at(10_000) < 0.4 && c.at(10_000) > 0.39);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let _ = EfficiencyCurve::new(0.4, 8.0).at(0);
    }

    #[test]
    fn timing_uses_curve() {
        let m = toy_model();
        let dev = DeviceSpec::v100();
        // At batch 2, eff = 0.5 * 2/4 = 0.25 -> 31.25 TFLOPS.
        let t = m.fwd_time(&dev, 2);
        let expected = 8.0e9 / (125.0e12 * 0.25);
        assert!((t.as_secs_f64() - expected).abs() < 1e-12);
        assert!((m.achieved_tflops(&dev, 2) - 31.25).abs() < 1e-9);
    }

    #[test]
    fn scaled_model_scales_everything_linearly() {
        let m = toy_model();
        let s = m.scaled(2.0);
        assert_eq!(s.total_params(), 2 * m.total_params());
        assert_eq!(s.fwd_flops(1), 2.0 * m.fwd_flops(1));
        assert_eq!(s.activation_bytes(1), Bytes::from_mib(32));
        assert_eq!(s.layers.len(), m.layers.len());
    }

    #[test]
    #[should_panic(expected = "scale factor must be positive")]
    fn scaled_rejects_zero() {
        let _ = toy_model().scaled(0.0);
    }
}
