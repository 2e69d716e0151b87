//! The fill-job model distribution.

use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_sim_core::rng::DeterministicRng;

/// Sampling weights over the Table-1 fill-job models.
///
/// Defaults follow §5.3: the HuggingFace population under 3B parameters
/// is 10.4% CNNs (all mapped to EfficientNet, the only CNN in Table 1);
/// the transformer remainder is split with the small-model skew of the
/// hub (most downloads are base-size encoders). Jobs on models under
/// ~700M parameters are training or batch inference with equal
/// probability; larger models are always batch inference.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelMix {
    weights: Vec<(ModelId, f64)>,
}

impl Default for ModelMix {
    fn default() -> Self {
        ModelMix::paper_mix()
    }
}

impl ModelMix {
    /// The §5.3 distribution over Table 1.
    pub fn paper_mix() -> Self {
        ModelMix {
            weights: vec![
                (ModelId::EfficientNet, 0.104), // the 10.4% CNN share
                (ModelId::BertBase, 0.400),
                (ModelId::BertLarge, 0.226),
                (ModelId::SwinLarge, 0.150),
                (ModelId::XlmRobertaXl, 0.120),
            ],
        }
    }

    /// A single-model mix (Fig. 4c's "BERT inference only" workload and
    /// Fig. 6's endpoint mixes).
    pub fn single(model: ModelId) -> Self {
        ModelMix {
            weights: vec![(model, 1.0)],
        }
    }

    /// A two-model blend: `fraction` of jobs from `a`, the rest from `b`
    /// (Fig. 6 sweeps XLM↔EfficientNet).
    ///
    /// # Panics
    ///
    /// Panics if `fraction` is outside `[0, 1]`.
    pub fn blend(a: ModelId, b: ModelId, fraction: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "blend fraction must be in [0, 1], got {fraction}"
        );
        ModelMix {
            weights: vec![(a, fraction), (b, 1.0 - fraction)],
        }
    }

    /// The `(model, weight)` pairs.
    pub fn weights(&self) -> &[(ModelId, f64)] {
        &self.weights
    }

    /// Samples a model.
    pub fn sample_model(&self, rng: &mut DeterministicRng) -> ModelId {
        let w: Vec<f64> = self.weights.iter().map(|&(_, w)| w).collect();
        self.weights[rng.weighted_index(&w)].0
    }

    /// Samples a job kind for `model` per the §5.3 rule: sub-700M models
    /// are training or batch inference with equal probability, larger
    /// models always batch inference.
    pub fn sample_kind(&self, model: ModelId, rng: &mut DeterministicRng) -> JobKind {
        if model.trainable_as_fill_job() && rng.bernoulli(0.5) {
            JobKind::Training
        } else {
            JobKind::BatchInference
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_sums_to_one() {
        let total: f64 = ModelMix::paper_mix()
            .weights()
            .iter()
            .map(|&(_, w)| w)
            .sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn cnn_share_matches_hub_statistics() {
        let mix = ModelMix::paper_mix();
        let mut rng = DeterministicRng::seed_from(11);
        let n = 50_000;
        let cnn = (0..n)
            .filter(|_| mix.sample_model(&mut rng) == ModelId::EfficientNet)
            .count();
        let frac = cnn as f64 / n as f64;
        assert!((frac - 0.104).abs() < 0.01, "CNN share {frac}");
    }

    #[test]
    fn large_models_never_train() {
        let mix = ModelMix::paper_mix();
        let mut rng = DeterministicRng::seed_from(12);
        for _ in 0..1000 {
            assert_eq!(
                mix.sample_kind(ModelId::XlmRobertaXl, &mut rng),
                JobKind::BatchInference
            );
            assert_eq!(
                mix.sample_kind(ModelId::SwinLarge, &mut rng),
                JobKind::BatchInference
            );
        }
    }

    #[test]
    fn small_models_split_train_inference_evenly() {
        let mix = ModelMix::paper_mix();
        let mut rng = DeterministicRng::seed_from(13);
        let n = 20_000;
        let train = (0..n)
            .filter(|_| mix.sample_kind(ModelId::BertBase, &mut rng) == JobKind::Training)
            .count();
        let frac = train as f64 / n as f64;
        assert!((frac - 0.5).abs() < 0.02, "training share {frac}");
    }

    #[test]
    fn blend_endpoints_are_pure() {
        let mut rng = DeterministicRng::seed_from(14);
        let all_a = ModelMix::blend(ModelId::XlmRobertaXl, ModelId::EfficientNet, 1.0);
        let all_b = ModelMix::blend(ModelId::XlmRobertaXl, ModelId::EfficientNet, 0.0);
        for _ in 0..100 {
            assert_eq!(all_a.sample_model(&mut rng), ModelId::XlmRobertaXl);
            assert_eq!(all_b.sample_model(&mut rng), ModelId::EfficientNet);
        }
    }

    #[test]
    #[should_panic(expected = "blend fraction")]
    fn bad_blend_fraction_rejected() {
        let _ = ModelMix::blend(ModelId::BertBase, ModelId::BertLarge, 1.5);
    }
}
