//! Builders for the dense-transformer models: the GPT-like LLM main jobs
//! and the BERT / XLM-Roberta fill jobs of Table 1.
//!
//! All cost formulas are the standard analytical ones:
//!
//! * parameters per block ≈ `12·h²` (4h² attention + 8h² MLP);
//! * forward FLOPs per block per sample ≈ `2·12·h²·s + 4·s²·h`
//!   (GEMMs count 2 FLOPs per multiply-add; the `4s²h` term is the
//!   attention-score and attention-value matmuls);
//! * activation bytes per block per sample ≈ `34·s·h + 4·s²` in fp16
//!   (the Megatron activation-memory estimate with a modest head count);
//! * block boundary (residual stream) bytes per sample = `2·s·h`.

use pipefill_device::Bytes;

use crate::graph::{EfficiencyCurve, ModelFamily, ModelGraph};
use crate::layer::{Layer, LayerKind};

/// Shape of a dense transformer, from which a [`ModelGraph`] is built.
///
/// # Example
///
/// ```
/// use pipefill_model_zoo::TransformerConfig;
///
/// let tiny = TransformerConfig::decoder("tiny", 256, 4, 1000, 128).build();
/// assert_eq!(tiny.layers.len(), 4 + 2); // embedding + blocks + head
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerConfig {
    /// Model name.
    pub name: String,
    /// Hidden (residual-stream) width `h`.
    pub hidden: usize,
    /// Number of transformer blocks `L`.
    pub num_layers: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length `s` used by this workload.
    pub seq_len: usize,
    /// Whether the output head's projection is tied to the embedding (no
    /// extra parameters, but full GEMM cost).
    pub tied_head: bool,
    /// Device-efficiency curve for this model's kernels.
    pub efficiency: EfficiencyCurve,
}

impl TransformerConfig {
    /// A GPT-style decoder configuration with a tied LM head.
    pub fn decoder(
        name: &str,
        hidden: usize,
        num_layers: usize,
        vocab: usize,
        seq_len: usize,
    ) -> Self {
        TransformerConfig {
            name: name.to_owned(),
            hidden,
            num_layers,
            vocab,
            seq_len,
            tied_head: true,
            efficiency: LLM_EFFICIENCY,
        }
    }

    /// Parameters of one transformer block.
    pub fn block_params(&self) -> u64 {
        12 * (self.hidden as u64) * (self.hidden as u64)
    }

    /// Builds the layer graph: embedding, `L` blocks, head.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn build(&self) -> ModelGraph {
        assert!(
            self.hidden > 0 && self.num_layers > 0 && self.vocab > 0 && self.seq_len > 0,
            "transformer dimensions must be positive: {self:?}"
        );
        let h = self.hidden as f64;
        let s = self.seq_len as f64;
        let mut layers = Vec::with_capacity(self.num_layers + 2);

        let embed_params = (self.vocab * self.hidden) as u64;
        layers.push(Layer {
            name: "embedding".to_owned(),
            kind: LayerKind::Embedding,
            params: embed_params,
            // A lookup: bandwidth-bound, negligible FLOPs.
            fwd_flops_per_sample: 2.0 * s * h,
            activation_bytes_per_sample: Bytes::new((2.0 * s * h) as u64),
            boundary_bytes_per_sample: Bytes::new((2.0 * s * h) as u64),
        });

        let block_flops = 2.0 * 12.0 * h * h * s + 4.0 * s * s * h;
        let block_act = Bytes::new((34.0 * s * h + 4.0 * s * s) as u64);
        let boundary = Bytes::new((2.0 * s * h) as u64);
        for i in 0..self.num_layers {
            layers.push(Layer {
                name: format!("block{i}"),
                kind: LayerKind::TransformerBlock,
                params: self.block_params(),
                fwd_flops_per_sample: block_flops,
                activation_bytes_per_sample: block_act,
                boundary_bytes_per_sample: boundary,
            });
        }

        layers.push(Layer {
            name: "head".to_owned(),
            kind: LayerKind::Head,
            params: if self.tied_head { 0 } else { embed_params },
            fwd_flops_per_sample: 2.0 * s * h * self.vocab as f64,
            activation_bytes_per_sample: Bytes::new((2.0 * s * self.vocab as f64) as u64),
            boundary_bytes_per_sample: Bytes::new((2.0 * s * h) as u64),
        });

        ModelGraph {
            name: self.name.clone(),
            family: ModelFamily::Transformer,
            layers,
            seq_len: Some(self.seq_len),
            efficiency: self.efficiency,
        }
    }
}

/// Efficiency of the dense-LLM training kernels: calibrated so the main
/// job achieves ≈60 TFLOPS on a V100 (48% of peak) at its microbatch size
/// of 2, the utilization the paper reports for the executing main job
/// (§6.2).
pub const LLM_EFFICIENCY: EfficiencyCurve = EfficiencyCurve {
    max: 0.52,
    half_batch: 0.15,
};

/// BERT kernels: well-optimized GEMMs, but the short (128-token)
/// sequences need very large batches to saturate a V100 — which is what
/// makes bubble free-memory valuable (Fig. 10b).
pub const BERT_EFFICIENCY: EfficiencyCurve = EfficiencyCurve {
    max: 0.46,
    half_batch: 48.0,
};

/// XLM-Roberta-XL kernels: the large hidden width saturates the device at
/// modest batch sizes — it "can still submit enough computation work to
/// keep the GPU busy" (§6.2).
pub const XLM_EFFICIENCY: EfficiencyCurve = EfficiencyCurve {
    max: 0.45,
    half_batch: 4.0,
};

/// The paper's main jobs use sequence length 2048 (§5.2).
pub const LLM_SEQ_LEN: usize = 2048;

/// GPT-family vocabulary (GPT-2/3 BPE rounded for tensor-parallel
/// divisibility).
pub const GPT_VOCAB: usize = 50_304;

/// A GPT-like decoder LLM with roughly `hidden²·12·layers` parameters —
/// the generic constructor behind [`gpt_5b`]/[`gpt_40b`].
pub fn gpt_llm(name: &str, hidden: usize, num_layers: usize) -> ModelGraph {
    TransformerConfig::decoder(name, hidden, num_layers, GPT_VOCAB, LLM_SEQ_LEN).build()
}

/// The 5B-parameter main job used in the paper's physical-cluster
/// experiments (§5.2): h=3584, L=32 → ≈5.1B parameters. The depth is a
/// multiple of the 16 pipeline stages so stages carry two blocks each.
pub fn gpt_5b() -> ModelGraph {
    gpt_llm("GPT-5B", 3584, 32)
}

/// The 40B-parameter main job used in the paper's simulator experiments
/// (§5.2): h=8192, L=48 → ≈39B parameters.
pub fn gpt_40b() -> ModelGraph {
    gpt_llm("GPT-40B", 8192, 48)
}

/// The 40B main job scaled to `size_factor` of its original parameter
/// count by scaling width and depth equally (Fig. 10a sweeps 0.5–2.0).
/// Since parameters ∝ depth·width², an equal width/depth factor `g`
/// satisfies `g³ = size_factor`.
///
/// # Panics
///
/// Panics if `size_factor` is not positive and finite.
pub fn gpt_40b_scaled(size_factor: f64) -> ModelGraph {
    assert!(
        size_factor > 0.0 && size_factor.is_finite(),
        "size factor must be positive, got {size_factor}"
    );
    let g = size_factor.cbrt();
    let hidden = ((8192.0 * g / 128.0).round() * 128.0) as usize;
    let num_layers = (48.0 * g).round().max(1.0) as usize;
    gpt_llm(
        &format!("GPT-40B@x{size_factor:.2}"),
        hidden.max(128),
        num_layers,
    )
}

/// A LLaMA-7B-class decoder (extension beyond Table 1): h=4096, L=32,
/// 32K vocabulary with untied embeddings → ≈6.7B parameters. The SwiGLU
/// MLP's parameter count (3·h·11008) is within 1% of the classic 8h², so
/// the standard block formula applies. Useful as an alternative main job
/// for what-if studies.
pub fn llama_7b() -> ModelGraph {
    TransformerConfig {
        name: "LLaMA-7B".to_owned(),
        hidden: 4096,
        num_layers: 32,
        vocab: 32_000,
        seq_len: LLM_SEQ_LEN,
        tied_head: false,
        efficiency: LLM_EFFICIENCY,
    }
    .build()
}

/// BERT vocabulary.
const BERT_VOCAB: usize = 30_522;
/// Fill-job BERT sequence length (typical batch-inference setting).
const BERT_SEQ_LEN: usize = 128;

/// Bert-base (Table 1: 109M, NLP, small): h=768, L=12.
pub fn bert_base() -> ModelGraph {
    TransformerConfig {
        name: "Bert-base".to_owned(),
        hidden: 768,
        num_layers: 12,
        vocab: BERT_VOCAB,
        seq_len: BERT_SEQ_LEN,
        tied_head: true,
        efficiency: BERT_EFFICIENCY,
    }
    .build()
}

/// Bert-large (Table 1: 334M, NLP, medium): h=1024, L=24.
pub fn bert_large() -> ModelGraph {
    TransformerConfig {
        name: "Bert-large".to_owned(),
        hidden: 1024,
        num_layers: 24,
        vocab: BERT_VOCAB,
        seq_len: BERT_SEQ_LEN,
        tied_head: true,
        efficiency: BERT_EFFICIENCY,
    }
    .build()
}

/// XLM-Roberta-XL (Table 1: 2.8B, NLP, large): h=2560 with depth chosen to
/// land on the paper's 2.8B total including the 250K-token multilingual
/// embedding table.
pub fn xlm_roberta_xl() -> ModelGraph {
    TransformerConfig {
        name: "XLM-Roberta-XL".to_owned(),
        hidden: 2560,
        num_layers: 28,
        vocab: 250_002,
        seq_len: 512,
        tied_head: true,
        efficiency: XLM_EFFICIENCY,
    }
    .build()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params_b(m: &ModelGraph) -> f64 {
        m.total_params() as f64 / 1e9
    }

    #[test]
    fn gpt_5b_parameter_count() {
        let p = params_b(&gpt_5b());
        assert!((p - 5.0).abs() < 0.25, "got {p}B");
    }

    #[test]
    fn gpt_40b_parameter_count() {
        let p = params_b(&gpt_40b());
        assert!((p - 39.5).abs() < 1.5, "got {p}B");
    }

    #[test]
    fn table1_parameter_counts() {
        // Table 1: 117M/109M/334M/779M/2.8B; transformers built here.
        let bb = params_b(&bert_base());
        assert!((bb - 0.109).abs() < 0.005, "Bert-base got {bb}B");
        let bl = params_b(&bert_large());
        assert!((bl - 0.334).abs() < 0.01, "Bert-large got {bl}B");
        let xl = params_b(&xlm_roberta_xl());
        assert!((xl - 2.8).abs() < 0.15, "XLM got {xl}B");
    }

    #[test]
    fn six_p_flops_rule_holds_for_large_models() {
        // fwd+bwd FLOPs per token ≈ 6·P for models where attention is a
        // small correction.
        let m = gpt_40b();
        let per_token = m.train_step_flops(1) / LLM_SEQ_LEN as f64;
        let six_p = 6.0 * m.total_params() as f64;
        let ratio = per_token / six_p;
        assert!(ratio > 0.95 && ratio < 1.25, "ratio={ratio}");
    }

    #[test]
    fn main_job_hits_sixty_tflops_at_microbatch_two() {
        let m = gpt_40b();
        let dev = pipefill_device::DeviceSpec::v100();
        let tflops = m.achieved_tflops(&dev, 2);
        assert!((tflops - 60.0).abs() < 2.0, "got {tflops}");
    }

    #[test]
    fn scaled_llm_tracks_requested_size() {
        for &f in &[0.5, 1.0, 1.5, 2.0] {
            let m = gpt_40b_scaled(f);
            let p = params_b(&m);
            let target = 39.1 * f;
            assert!(
                (p - target).abs() / target < 0.15,
                "factor {f}: got {p}B, want ≈{target}B"
            );
        }
    }

    #[test]
    fn layer_order_is_embedding_blocks_head() {
        let m = bert_base();
        assert_eq!(m.layers.first().unwrap().kind, LayerKind::Embedding);
        assert_eq!(m.layers.last().unwrap().kind, LayerKind::Head);
        assert_eq!(m.layers.len(), 14);
        assert!(m.layers[1..13]
            .iter()
            .all(|l| l.kind == LayerKind::TransformerBlock));
    }

    #[test]
    fn tied_head_has_no_params() {
        let m = gpt_5b();
        assert_eq!(m.layers.last().unwrap().params, 0);
        let untied = TransformerConfig {
            tied_head: false,
            ..TransformerConfig::decoder("untied", 256, 2, 1000, 64)
        }
        .build();
        assert_eq!(untied.layers.last().unwrap().params, 256_000);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_rejected() {
        let _ = TransformerConfig::decoder("bad", 0, 2, 100, 64).build();
    }
}
