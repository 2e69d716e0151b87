//! The layer IR: one node of a model's computational graph.

use pipefill_device::Bytes;

use crate::FP16_BYTES;

/// Architectural role of a layer. Downstream code mostly treats layers
/// uniformly through their cost numbers; the kind is kept for reporting
/// and for technique applicability rules (e.g. activation checkpointing
/// boundaries fall on block layers).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LayerKind {
    /// Token/patch embedding lookup.
    Embedding,
    /// A full transformer block (attention + MLP).
    TransformerBlock,
    /// A windowed-attention transformer block (Swin); the paper notes its
    /// "specialized attention operator is not well-optimized" (§6.2).
    WindowAttentionBlock,
    /// Convolutional stage (possibly several fused convs).
    ConvStage,
    /// Language-model or classification head.
    Head,
}

impl LayerKind {
    /// True for layers that form checkpointing boundaries (whole blocks
    /// whose interior activations can be recomputed).
    pub fn is_block(self) -> bool {
        matches!(
            self,
            LayerKind::TransformerBlock | LayerKind::WindowAttentionBlock | LayerKind::ConvStage
        )
    }
}

/// One node of a model's (linearized) computational graph.
///
/// All quantities are *per sample* where batch-dependent; the executor
/// scales them by its chosen batch size. Forward FLOPs are stored;
/// backward FLOPs follow the standard 2× rule (one matmul each for
/// activation gradients and weight gradients versus one in forward).
#[derive(Debug, Clone, PartialEq)]
pub struct Layer {
    /// Human-readable name, e.g. `"block12"`.
    pub name: String,
    /// Architectural role.
    pub kind: LayerKind,
    /// Trainable parameters in this layer.
    pub params: u64,
    /// Forward-pass floating-point operations per sample.
    pub fwd_flops_per_sample: f64,
    /// Activation bytes this layer produces per sample (fp16), which must
    /// be kept for the backward pass when training without checkpointing.
    pub activation_bytes_per_sample: Bytes,
    /// Boundary (output) activation bytes per sample — what must still be
    /// stored when the layer's interior is recomputed under activation
    /// checkpointing.
    pub boundary_bytes_per_sample: Bytes,
}

impl Layer {
    /// Forward FLOPs at a given batch size.
    pub fn fwd_flops(&self, batch: usize) -> f64 {
        self.fwd_flops_per_sample * batch as f64
    }

    /// Backward FLOPs at a given batch size (2× forward).
    pub fn bwd_flops(&self, batch: usize) -> f64 {
        2.0 * self.fwd_flops(batch)
    }

    /// Full activation footprint at a batch size.
    pub fn activation_bytes(&self, batch: usize) -> Bytes {
        self.activation_bytes_per_sample * batch as u64
    }

    /// Boundary activation footprint at a batch size.
    pub fn boundary_bytes(&self, batch: usize) -> Bytes {
        self.boundary_bytes_per_sample * batch as u64
    }

    /// Parameter bytes in fp16.
    pub fn param_bytes(&self) -> Bytes {
        Bytes::new(self.params * FP16_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> Layer {
        Layer {
            name: "block0".into(),
            kind: LayerKind::TransformerBlock,
            params: 1_000_000,
            fwd_flops_per_sample: 2.0e9,
            activation_bytes_per_sample: Bytes::from_mib(8),
            boundary_bytes_per_sample: Bytes::from_mib(1),
        }
    }

    #[test]
    fn flops_scale_with_batch() {
        let l = layer();
        assert_eq!(l.fwd_flops(4), 8.0e9);
        assert_eq!(l.bwd_flops(4), 16.0e9);
    }

    #[test]
    fn memory_scales_with_batch() {
        let l = layer();
        assert_eq!(l.activation_bytes(4), Bytes::from_mib(32));
        assert_eq!(l.boundary_bytes(4), Bytes::from_mib(4));
        assert_eq!(l.param_bytes(), Bytes::new(2_000_000));
    }

    #[test]
    fn block_kinds_are_checkpointable() {
        assert!(LayerKind::TransformerBlock.is_block());
        assert!(LayerKind::WindowAttentionBlock.is_block());
        assert!(LayerKind::ConvStage.is_block());
        assert!(!LayerKind::Embedding.is_block());
        assert!(!LayerKind::Head.is_block());
    }
}
