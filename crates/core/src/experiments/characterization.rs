//! Fig. 7: fill-job characterization — achieved TFLOPS during bubble
//! execution (7a) and slowdown relative to exclusive-GPU execution (7b),
//! per model and job kind. Includes an ablation of Algorithm 1 against
//! naive packing, where a fill job's whole iteration must fit in one
//! bubble.

use pipefill_executor::{
    build_profile, plan_whole_graph_only, ExecConfig, ExecTechnique, ExecutorConfig, FillJobSpec,
};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_trace::ModelMix;
use serde::{Deserialize, Serialize};

use crate::experiments::sweep;
use crate::plans::StagePlans;
use crate::steady::steady_rate;

/// One (model, kind) row of Fig. 7.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CharacterizationRow {
    /// Fill-job model.
    pub model: ModelId,
    /// Training or batch inference.
    pub kind: JobKind,
    /// TFLOPS achieved while executing in bubbles (Fig. 7a).
    pub tflops_during_execution: f64,
    /// Wall-clock throughput relative to exclusive execution (Fig. 7b's
    /// slowdown, as the surviving fraction — ≈0.3 for most types, §6.2).
    pub relative_performance: f64,
    /// Stages (of 16) where some configuration fits.
    pub feasible_stages: usize,
    /// Ablation: TFLOPS recovered by whole-graph-per-bubble packing
    /// (no Algorithm 1), averaged over stages; 0 if infeasible.
    pub naive_recovered_tflops: f64,
    /// Algorithm-1 recovered TFLOPS (for the ablation comparison).
    pub recovered_tflops: f64,
}

/// The (model, kind) pairs of Fig. 7: training and inference for the
/// sub-700M models, inference only for the rest (§5.3's bucketing rule).
pub fn fig7_job_types() -> Vec<(ModelId, JobKind)> {
    let mut out = Vec::new();
    for model in ModelId::FILL_JOBS {
        if model.trainable_as_fill_job() {
            out.push((model, JobKind::Training));
        }
        out.push((model, JobKind::BatchInference));
    }
    out
}

/// Runs the characterization against the paper's default main job (the
/// 8K-GPU 40B setting whose bubbles Fig. 7 measures).
pub fn fig7_characterization(
    main: &MainJobSpec,
    exec: &ExecutorConfig,
) -> Vec<CharacterizationRow> {
    let device = &main.device;
    let timeline = main.engine_timeline();
    let plans = StagePlans::homogeneous(&timeline, device, *exec);
    let period = timeline.period.as_secs_f64();
    // One profiling/planning task per (model, kind), fanned across cores.
    sweep::par_map(fig7_job_types(), |(model, kind)| {
        let rate = steady_rate(&plans, timeline.period, model, kind);
        // Exclusive baseline: best batch on a whole idle GPU.
        let exclusive = plans.throughput(model, kind, 0).unwrap_or(0.0);
        let relative = if exclusive == 0.0 {
            0.0
        } else {
            rate.wall_throughput / exclusive
        };

        // Naive-packing ablation: best whole-graph-only plan per stage.
        let graph = model.build();
        let mut naive_sum = 0.0;
        for stage in 0..plans.stages() {
            let slots = plans.slots(stage);
            if slots.is_empty() {
                continue;
            }
            let mut best_rate = 0.0f64;
            for batch_size in FillJobSpec::BATCH_SIZES {
                for &technique in ExecTechnique::applicable(kind) {
                    let profile = build_profile(
                        &graph,
                        kind,
                        ExecConfig {
                            batch_size,
                            technique,
                        },
                        device,
                    );
                    if let Ok(plan) = plan_whole_graph_only(&profile, slots, exec) {
                        let r = plan.flops_per_pass
                            / (plan.main_iterations_per_pass as f64 * period)
                            / 1e12;
                        best_rate = best_rate.max(r);
                    }
                }
            }
            naive_sum += best_rate;
        }

        CharacterizationRow {
            model,
            kind,
            tflops_during_execution: rate.tflops_during_execution,
            relative_performance: relative,
            feasible_stages: rate.feasible_stages,
            naive_recovered_tflops: naive_sum / plans.stages() as f64,
            recovered_tflops: rate.recovered_tflops,
        }
    })
}

/// Mix-weighted relative performance `P` for the §6.2 GPUs-saved
/// estimate (`C·B·P`).
pub fn mix_relative_performance(main: &MainJobSpec, exec: &ExecutorConfig, mix: &ModelMix) -> f64 {
    mix_relative_performance_from(&fig7_characterization(main, exec), mix)
}

/// [`mix_relative_performance`] over precomputed characterization rows —
/// the rows depend only on (main job, executor config), so callers
/// weighting several mixes against one main job characterize once.
pub fn mix_relative_performance_from(rows: &[CharacterizationRow], mix: &ModelMix) -> f64 {
    let mut total = 0.0;
    let mut weight_sum = 0.0;
    for &(model, weight) in mix.weights() {
        if weight == 0.0 {
            continue;
        }
        let kinds: Vec<&CharacterizationRow> = rows.iter().filter(|r| r.model == model).collect();
        if kinds.is_empty() {
            continue;
        }
        let avg: f64 =
            kinds.iter().map(|r| r.relative_performance).sum::<f64>() / kinds.len() as f64;
        total += weight * avg;
        weight_sum += weight;
    }
    if weight_sum == 0.0 {
        0.0
    } else {
        total / weight_sum
    }
}

/// Default Fig. 7 context: the 8K-GPU 40B main job.
pub fn fig7_default_main() -> MainJobSpec {
    MainJobSpec::simulator_40b(8, ScheduleKind::GPipe)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<CharacterizationRow> {
        fig7_characterization(&fig7_default_main(), &ExecutorConfig::default())
    }

    #[test]
    fn has_eight_job_types() {
        // 3 trainable models × 2 kinds + 2 inference-only models.
        assert_eq!(fig7_job_types().len(), 8);
    }

    #[test]
    fn inference_beats_training_per_model() {
        // Fig. 7a's first observation.
        let rows = rows();
        for model in [ModelId::EfficientNet, ModelId::BertBase, ModelId::BertLarge] {
            let inf = rows
                .iter()
                .find(|r| r.model == model && r.kind == JobKind::BatchInference)
                .unwrap();
            let tr = rows
                .iter()
                .find(|r| r.model == model && r.kind == JobKind::Training)
                .unwrap();
            assert!(
                inf.tflops_during_execution >= tr.tflops_during_execution,
                "{model}: inf {} < train {}",
                inf.tflops_during_execution,
                tr.tflops_during_execution
            );
        }
    }

    #[test]
    fn swin_and_efficientnet_perform_poorly() {
        // Fig. 7a's second observation.
        let rows = rows();
        let tflops = |m: ModelId, k: JobKind| {
            rows.iter()
                .find(|r| r.model == m && r.kind == k)
                .unwrap()
                .tflops_during_execution
        };
        let bert = tflops(ModelId::BertBase, JobKind::BatchInference);
        assert!(tflops(ModelId::SwinLarge, JobKind::BatchInference) < 0.6 * bert);
        assert!(tflops(ModelId::EfficientNet, JobKind::BatchInference) < 0.6 * bert);
    }

    #[test]
    fn xlm_matches_bert_tflops_but_slows_more() {
        // §6.2: "XLM inference recovers similar TFLOPS as BERT inference,
        // \[but\] experiences more slowdown".
        let rows = rows();
        let xlm = rows
            .iter()
            .find(|r| r.model == ModelId::XlmRobertaXl)
            .unwrap();
        let bert = rows
            .iter()
            .find(|r| r.model == ModelId::BertBase && r.kind == JobKind::BatchInference)
            .unwrap();
        let ratio = xlm.tflops_during_execution / bert.tflops_during_execution;
        assert!((0.5..1.5).contains(&ratio), "TFLOPS ratio {ratio}");
        assert!(
            xlm.relative_performance < bert.relative_performance,
            "xlm {} vs bert {}",
            xlm.relative_performance,
            bert.relative_performance
        );
    }

    #[test]
    fn slowdowns_are_substantial_for_everyone() {
        // §6.2: "most of the fill-job workloads we evaluate experience
        // around 30% of exclusive execution" — none approach 1.0.
        for r in rows() {
            assert!(
                r.relative_performance < 0.7,
                "{} {} rel perf {}",
                r.model,
                r.kind,
                r.relative_performance
            );
        }
    }

    #[test]
    fn algorithm1_dominates_naive_packing() {
        for r in rows() {
            assert!(
                r.recovered_tflops >= r.naive_recovered_tflops * 0.999,
                "{} {}: alg1 {} < naive {}",
                r.model,
                r.kind,
                r.recovered_tflops,
                r.naive_recovered_tflops
            );
        }
    }

    #[test]
    fn mix_relative_performance_is_plausible() {
        // §6.2 uses P ≈ 0.3 for the trace mix.
        let p = mix_relative_performance(
            &fig7_default_main(),
            &ExecutorConfig::default(),
            &ModelMix::paper_mix(),
        );
        assert!((0.1..0.6).contains(&p), "P = {p}");
    }
}
