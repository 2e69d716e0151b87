//! # pipefill-model-zoo
//!
//! DNN model definitions and the analytical cost model for the PipeFill
//! reproduction.
//!
//! The paper's workloads are (a) the *main jobs* — 5B- and 40B-parameter
//! GPT-like LLMs trained with pipeline parallelism — and (b) the *fill
//! jobs* of Table 1: EfficientNet (117M, CV), BERT-base (109M, NLP),
//! BERT-large (334M, NLP), Swin-large (779M, CV) and XLM-Roberta-XL
//! (2.8B, NLP), run as training or batch inference. Since no GPUs or
//! framework profilers are available in this environment, each model is
//! described as a [`ModelGraph`] of [`Layer`]s carrying parameter counts,
//! forward FLOPs per sample, and activation footprints derived from the
//! architecture shapes in the cited papers; execution times then come from
//! the analytical device model in `pipefill-device`.
//!
//! Everything downstream (pipeline engine, fill-job Executor profiles,
//! Scheduler processing-time estimates) consumes only this layer-level
//! description — exactly the role the PyTorch profiles play in the paper's
//! simulator (§5.1).
//!
//! # Example
//!
//! ```
//! use pipefill_model_zoo::ModelId;
//!
//! let bert = ModelId::BertBase.build();
//! let billions = bert.total_params() as f64 / 1e9;
//! assert!((billions - 0.109).abs() < 0.01); // Table 1: 109M parameters
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod graph;
mod layer;
mod transformer;
mod vision;
mod zoo;

pub use graph::{EfficiencyCurve, ModelFamily, ModelGraph};
pub use layer::{Layer, LayerKind};
pub use transformer::{
    bert_base, bert_large, gpt_40b, gpt_40b_scaled, gpt_5b, gpt_llm, llama_7b, xlm_roberta_xl,
    TransformerConfig,
};
pub use vision::{efficientnet_117m, resnet50, swin_large, vit_large};
pub use zoo::{JobKind, ModelId, SizeClass, TaskDomain};

/// Bytes per parameter/activation element in half precision (the training
/// dtype throughout the paper's experiments).
pub const FP16_BYTES: u64 = 2;

/// Bytes of optimizer state per parameter for mixed-precision Adam: fp32
/// master copy (4) + first moment (4) + second moment (4). This is the
/// state PipeFill's main-job offloading moves to host memory (§4.2).
pub const ADAM_STATE_BYTES_PER_PARAM: u64 = 12;

/// Bytes per parameter of gradient storage (fp16).
pub const GRAD_BYTES_PER_PARAM: u64 = 2;
