//! The model catalog: identifiers and Table-1 metadata for every model
//! used in the paper's experiments.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::graph::ModelGraph;
use crate::transformer::{bert_base, bert_large, gpt_40b, gpt_5b, llama_7b, xlm_roberta_xl};
use crate::vision::{efficientnet_117m, resnet50, swin_large, vit_large};

/// Size class from Table 1 (S: small, M: medium, L: large), which the
/// trace generator uses when bucketing job sizes: smaller models (<700M)
/// may run as training or batch inference with equal probability, larger
/// ones always as batch inference (§5.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SizeClass {
    /// Under ~150M parameters.
    Small,
    /// Hundreds of millions of parameters.
    Medium,
    /// Billions of parameters.
    Large,
}

impl fmt::Display for SizeClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SizeClass::Small => write!(f, "S"),
            SizeClass::Medium => write!(f, "M"),
            SizeClass::Large => write!(f, "L"),
        }
    }
}

/// Whether a fill job trains its model or runs batch inference (§4.1,
/// "Fill Jobs": PipeFill supports exactly these two, because
/// latency-sensitive jobs cannot tolerate intermittent bubble execution).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JobKind {
    /// Training: forward + backward + optimizer per iteration.
    Training,
    /// Batch (offline) inference: forward only.
    BatchInference,
}

impl fmt::Display for JobKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JobKind::Training => write!(f, "training"),
            JobKind::BatchInference => write!(f, "batch-inference"),
        }
    }
}

/// Task domain from Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TaskDomain {
    /// Computer vision.
    Cv,
    /// Natural-language processing.
    Nlp,
}

impl fmt::Display for TaskDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TaskDomain::Cv => write!(f, "CV"),
            TaskDomain::Nlp => write!(f, "NLP"),
        }
    }
}

/// Every model in the reproduction: the two main jobs plus the five
/// fill-job models of Table 1.
///
/// # Example
///
/// ```
/// use pipefill_model_zoo::ModelId;
///
/// for id in ModelId::ALL {
///     let graph = id.build();
///     assert!(graph.total_params() > 0);
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ModelId {
    /// 5B-parameter GPT-like LLM (physical-cluster main job).
    Gpt5B,
    /// 40B-parameter GPT-like LLM (simulator main job).
    Gpt40B,
    /// EfficientNet, 117M, CV (Table 1, small).
    EfficientNet,
    /// Bert-base, 109M, NLP (Table 1, small).
    BertBase,
    /// Bert-large, 334M, NLP (Table 1, medium).
    BertLarge,
    /// Swin-large, 779M, CV (Table 1, medium).
    SwinLarge,
    /// XLM-Roberta-XL, 2.8B, NLP (Table 1, large).
    XlmRobertaXl,
    /// LLaMA-7B-class decoder (extension: alternative main job).
    Llama7B,
    /// ViT-Large/16, ≈305M, CV (extension fill job).
    ViTLarge,
    /// ResNet-50, ≈24M, CV (extension fill job).
    ResNet50,
}

impl ModelId {
    /// All models in the catalog.
    pub const ALL: [ModelId; 10] = [
        ModelId::Gpt5B,
        ModelId::Gpt40B,
        ModelId::EfficientNet,
        ModelId::BertBase,
        ModelId::BertLarge,
        ModelId::SwinLarge,
        ModelId::XlmRobertaXl,
        ModelId::Llama7B,
        ModelId::ViTLarge,
        ModelId::ResNet50,
    ];

    /// The five fill-job models of Table 1, in the table's order.
    pub const FILL_JOBS: [ModelId; 5] = [
        ModelId::EfficientNet,
        ModelId::BertBase,
        ModelId::BertLarge,
        ModelId::SwinLarge,
        ModelId::XlmRobertaXl,
    ];

    /// Builds the model's layer graph.
    pub fn build(self) -> ModelGraph {
        match self {
            ModelId::Gpt5B => gpt_5b(),
            ModelId::Gpt40B => gpt_40b(),
            ModelId::EfficientNet => efficientnet_117m(),
            ModelId::BertBase => bert_base(),
            ModelId::BertLarge => bert_large(),
            ModelId::SwinLarge => swin_large(),
            ModelId::XlmRobertaXl => xlm_roberta_xl(),
            ModelId::Llama7B => llama_7b(),
            ModelId::ViTLarge => vit_large(),
            ModelId::ResNet50 => resnet50(),
        }
    }

    /// Table-1 size class (main jobs are classed Large).
    pub fn size_class(self) -> SizeClass {
        match self {
            ModelId::EfficientNet | ModelId::BertBase | ModelId::ResNet50 => SizeClass::Small,
            ModelId::BertLarge | ModelId::SwinLarge | ModelId::ViTLarge => SizeClass::Medium,
            ModelId::XlmRobertaXl | ModelId::Gpt5B | ModelId::Gpt40B | ModelId::Llama7B => {
                SizeClass::Large
            }
        }
    }

    /// Table-1 task domain (the LLM main jobs are NLP).
    pub fn domain(self) -> TaskDomain {
        match self {
            ModelId::EfficientNet | ModelId::SwinLarge | ModelId::ViTLarge | ModelId::ResNet50 => {
                TaskDomain::Cv
            }
            _ => TaskDomain::Nlp,
        }
    }

    /// True for models under 700M parameters, which the trace pipeline
    /// assigns to training or batch inference with equal probability;
    /// larger models are always batch inference (§5.3).
    pub fn trainable_as_fill_job(self) -> bool {
        matches!(
            self,
            ModelId::EfficientNet
                | ModelId::BertBase
                | ModelId::BertLarge
                | ModelId::ViTLarge
                | ModelId::ResNet50
        )
    }

    /// Display name matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            ModelId::Gpt5B => "GPT-5B",
            ModelId::Gpt40B => "GPT-40B",
            ModelId::EfficientNet => "EfficientNet",
            ModelId::BertBase => "Bert-base",
            ModelId::BertLarge => "Bert-large",
            ModelId::SwinLarge => "Swin-large",
            ModelId::XlmRobertaXl => "XLM-Roberta-XL",
            ModelId::Llama7B => "LLaMA-7B",
            ModelId::ViTLarge => "ViT-Large",
            ModelId::ResNet50 => "ResNet-50",
        }
    }
}

impl fmt::Display for ModelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_builds_everything() {
        for id in ModelId::ALL {
            let g = id.build();
            assert!(g.total_params() > 1_000_000, "{id} too small");
            assert!(!g.layers.is_empty());
        }
    }

    #[test]
    fn table1_metadata() {
        use ModelId::*;
        assert_eq!(EfficientNet.size_class(), SizeClass::Small);
        assert_eq!(BertBase.size_class(), SizeClass::Small);
        assert_eq!(BertLarge.size_class(), SizeClass::Medium);
        assert_eq!(SwinLarge.size_class(), SizeClass::Medium);
        assert_eq!(XlmRobertaXl.size_class(), SizeClass::Large);
        assert_eq!(EfficientNet.domain(), TaskDomain::Cv);
        assert_eq!(SwinLarge.domain(), TaskDomain::Cv);
        assert_eq!(BertBase.domain(), TaskDomain::Nlp);
        assert_eq!(BertLarge.domain(), TaskDomain::Nlp);
        assert_eq!(XlmRobertaXl.domain(), TaskDomain::Nlp);
    }

    #[test]
    fn only_sub_700m_models_train_as_fill_jobs() {
        assert!(ModelId::EfficientNet.trainable_as_fill_job());
        assert!(ModelId::BertBase.trainable_as_fill_job());
        assert!(ModelId::BertLarge.trainable_as_fill_job());
        assert!(!ModelId::SwinLarge.trainable_as_fill_job()); // 779M > 700M
        assert!(!ModelId::XlmRobertaXl.trainable_as_fill_job());
    }

    #[test]
    fn extension_models_have_consistent_metadata() {
        assert_eq!(ModelId::Llama7B.domain(), TaskDomain::Nlp);
        assert_eq!(ModelId::ViTLarge.domain(), TaskDomain::Cv);
        assert_eq!(ModelId::ResNet50.domain(), TaskDomain::Cv);
        assert!(
            !ModelId::Llama7B.trainable_as_fill_job(),
            "7B exceeds the 3B fill ceiling"
        );
        assert!(ModelId::ViTLarge.trainable_as_fill_job());
        assert!(ModelId::ResNet50.trainable_as_fill_job());
        let p = ModelId::Llama7B.build().total_params() as f64 / 1e9;
        assert!((p - 6.7).abs() < 0.3, "LLaMA-7B got {p}B");
    }

    #[test]
    fn fill_job_list_matches_table_order() {
        let models: Vec<ModelGraph> = ModelId::FILL_JOBS.iter().map(|id| id.build()).collect();
        assert_eq!(models.len(), 5);
        assert_eq!(models[0].name, "EfficientNet");
        assert_eq!(models[4].name, "XLM-Roberta-XL");
    }

    #[test]
    fn display_uses_paper_names() {
        assert_eq!(ModelId::BertBase.to_string(), "Bert-base");
        assert_eq!(SizeClass::Small.to_string(), "S");
        assert_eq!(TaskDomain::Cv.to_string(), "CV");
    }
}
