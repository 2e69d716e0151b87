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

use crate::experiments::{row, sweep, Experiment, Grid, Scale, Table};
use crate::plans::StagePlans;
use crate::steady::steady_rate;

/// Fig. 7: the characterization against the paper's default main job,
/// the 8K-GPU 40B setting whose bubbles Fig. 7 measures.
pub struct Fig7Characterization;

impl Experiment for Fig7Characterization {
    fn name(&self) -> &'static str {
        "fig7_characterization"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig7"]
    }
    fn description(&self) -> &'static str {
        "Fig. 7: fill-job characterization (achieved TFLOPS, relative performance, Alg-1 ablation)"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "model",
            "kind",
            "tflops_during_execution",
            "relative_performance",
            "feasible_stages",
            "recovered_tflops",
            "naive_recovered_tflops",
        ]
    }
    fn grid(&self, _scale: Scale) -> Grid {
        Grid::default()
    }
    fn run(&self, _grid: &Grid) -> Table {
        let main = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe);
        Table::with_rows(
            self.columns(),
            characterize(&main).into_iter().map(|r| {
                row![
                    r.model.name(),
                    r.kind.to_string(),
                    r.tflops_during_execution,
                    r.relative_performance,
                    r.feasible_stages,
                    r.recovered_tflops,
                    r.naive_recovered_tflops,
                ]
            }),
        )
    }
}

/// One (model, kind) row of Fig. 7, kept typed because Fig. 4's
/// GPUs-saved estimate weights it ([`mix_relative_performance`]).
pub(crate) struct CharacterizationRow {
    model: ModelId,
    kind: JobKind,
    /// TFLOPS achieved while executing in bubbles (Fig. 7a).
    tflops_during_execution: f64,
    /// Wall-clock throughput relative to exclusive execution (Fig. 7b's
    /// slowdown, as the surviving fraction — ≈0.3 for most types, §6.2).
    relative_performance: f64,
    /// Stages (of 16) where some configuration fits.
    feasible_stages: usize,
    /// Ablation: TFLOPS recovered by whole-graph-per-bubble packing
    /// (no Algorithm 1), averaged over stages; 0 if infeasible.
    naive_recovered_tflops: f64,
    /// Algorithm-1 recovered TFLOPS (for the ablation comparison).
    recovered_tflops: f64,
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

/// Characterizes every Fig. 7 job type in `main`'s bubbles under the
/// default executor configuration.
pub(crate) fn characterize(main: &MainJobSpec) -> Vec<CharacterizationRow> {
    let exec = ExecutorConfig::default();
    let device = &main.device;
    let timeline = main.engine_timeline();
    let plans = StagePlans::homogeneous(&timeline, device, exec);
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
                    if let Ok(plan) = plan_whole_graph_only(&profile, slots, &exec) {
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
/// estimate (`C·B·P`), over one main job's characterization rows.
pub(crate) fn mix_relative_performance(rows: &[CharacterizationRow], mix: &ModelMix) -> f64 {
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

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        Fig7Characterization.run(&Grid::default())
    }

    /// The `column` cell of the (model, kind) row.
    fn cell(t: &Table, model: ModelId, kind: JobKind, column: &str) -> f64 {
        t.filter("model", model.name())
            .filter("kind", kind.to_string())
            .f64_column(column)[0]
    }

    #[test]
    fn has_eight_job_types() {
        // 3 trainable models × 2 kinds + 2 inference-only models.
        assert_eq!(fig7_job_types().len(), 8);
    }

    #[test]
    fn inference_beats_training_per_model() {
        // Fig. 7a's first observation.
        let t = table();
        for model in [ModelId::EfficientNet, ModelId::BertBase, ModelId::BertLarge] {
            let inf = cell(
                &t,
                model,
                JobKind::BatchInference,
                "tflops_during_execution",
            );
            let tr = cell(&t, model, JobKind::Training, "tflops_during_execution");
            assert!(inf >= tr, "{model}: inf {inf} < train {tr}");
        }
    }

    #[test]
    fn swin_and_efficientnet_perform_poorly() {
        // Fig. 7a's second observation.
        let t = table();
        let tflops = |m: ModelId| cell(&t, m, JobKind::BatchInference, "tflops_during_execution");
        let bert = tflops(ModelId::BertBase);
        assert!(tflops(ModelId::SwinLarge) < 0.6 * bert);
        assert!(tflops(ModelId::EfficientNet) < 0.6 * bert);
    }

    #[test]
    fn xlm_matches_bert_tflops_but_slows_more() {
        // §6.2: "XLM inference recovers similar TFLOPS as BERT inference,
        // \[but\] experiences more slowdown".
        let t = table();
        let xlm = |c| cell(&t, ModelId::XlmRobertaXl, JobKind::BatchInference, c);
        let bert = |c| cell(&t, ModelId::BertBase, JobKind::BatchInference, c);
        let ratio = xlm("tflops_during_execution") / bert("tflops_during_execution");
        assert!((0.5..1.5).contains(&ratio), "TFLOPS ratio {ratio}");
        assert!(
            xlm("relative_performance") < bert("relative_performance"),
            "xlm {} vs bert {}",
            xlm("relative_performance"),
            bert("relative_performance")
        );
    }

    #[test]
    fn slowdowns_are_substantial_for_everyone() {
        // §6.2: "most of the fill-job workloads we evaluate experience
        // around 30% of exclusive execution" — none approach 1.0.
        let t = table();
        for (row, rel) in t.rows().iter().zip(t.f64_column("relative_performance")) {
            assert!(rel < 0.7, "{row:?} rel perf {rel}");
        }
    }

    #[test]
    fn algorithm1_dominates_naive_packing() {
        let t = table();
        let naive = t.f64_column("naive_recovered_tflops");
        for (row, (alg1, naive)) in t
            .rows()
            .iter()
            .zip(t.f64_column("recovered_tflops").into_iter().zip(naive))
        {
            assert!(
                alg1 >= naive * 0.999,
                "{row:?}: alg1 {alg1} < naive {naive}"
            );
        }
    }

    #[test]
    fn mix_relative_performance_is_plausible() {
        // §6.2 uses P ≈ 0.3 for the trace mix.
        let rows = characterize(&MainJobSpec::simulator_40b(8, ScheduleKind::GPipe));
        let p = mix_relative_performance(&rows, &ModelMix::paper_mix());
        assert!((0.1..0.6).contains(&p), "P = {p}");
    }
}
