//! Figs. 1 and 4: scaling the 40B main job from 1K to 8K GPUs.
//!
//! Reports, per GPU count: days-to-train (4a), bubble ratio (4b), and
//! TFLOPS/GPU for traditional PP, PipeFill with the trace mix, and
//! PipeFill with BERT-inference-only fill jobs (4c; Fig. 1 is the
//! two-series subset). Also derives the §6.2 GPUs-saved estimate.

use pipefill_executor::ExecutorConfig;
use pipefill_model_zoo::ModelId;
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_trace::ModelMix;

use crate::experiments::characterization::{characterize, mix_relative_performance};
use crate::experiments::{row, sweep, Experiment, Grid, Scale, Table};
use crate::metrics::gpus_saved;
use crate::steady::steady_recovered_tflops;

/// Microbatches per replica at the paper's four GPU counts: 64 ↔ 1K GPUs
/// … 8 ↔ 8K GPUs, per the fixed-minibatch scaling rule.
const MICROBATCHES: [usize; 4] = [64, 32, 16, 8];

/// Figs. 1 & 4: the scaling study at 1K–8K GPUs. The GPU-count points
/// are independent, so they fan out across cores.
pub struct Fig4Scaling;

impl Experiment for Fig4Scaling {
    fn name(&self) -> &'static str {
        "fig4_scaling"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig4", "fig1"]
    }
    fn description(&self) -> &'static str {
        "Figs. 1 & 4: scaling the 40B main job 1K-8K GPUs (days, bubble, TFLOPS, GPUs saved)"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "gpus",
            "microbatches",
            "bubble_ratio",
            "days_to_train",
            "traditional_tflops",
            "pipefill_trace_mix_tflops",
            "pipefill_bert_inf_tflops",
            "gpus_saved_trace_mix",
            "gpus_saved_best",
        ]
    }
    fn grid(&self, _scale: Scale) -> Grid {
        Grid::default()
    }
    fn run(&self, _grid: &Grid) -> Table {
        let exec = ExecutorConfig::default();
        let rows = sweep::par_map(MICROBATCHES.to_vec(), |m| {
            let main = MainJobSpec::simulator_40b(m, ScheduleKind::GPipe);
            let point = main.scaling_point();
            let mix = ModelMix::paper_mix();
            let bert = ModelMix::single(ModelId::BertBase);
            let rec_mix = steady_recovered_tflops(&main, &exec, &mix);
            let rec_bert = steady_recovered_tflops(&main, &exec, &bert);
            // The characterization rows depend only on the main job, so
            // compute them once and weight both mixes against them.
            let rows = characterize(&main);
            let perf_mix = mix_relative_performance(&rows, &mix);
            let perf_bert = mix_relative_performance(&rows, &bert);
            let tflops = point.main_job_tflops_per_gpu;
            row![
                point.gpus,
                m,
                point.bubble_ratio,
                point.days_to_train,
                tflops,
                tflops + rec_mix,
                tflops + rec_bert,
                gpus_saved(point.gpus, point.bubble_ratio, perf_mix),
                gpus_saved(point.gpus, point.bubble_ratio, perf_bert),
            ]
        });
        Table::with_rows(self.columns(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_reproduces_paper_shape() {
        let t = Fig4Scaling.run(&Grid::default());
        let (low, high) = (t.filter("gpus", 1024usize), t.filter("gpus", 8192usize));
        let at = |point: &Table, column| point.f64_column(column)[0];
        // Fig. 4a: training time falls ~3× from 1K to 8K.
        assert!(at(&low, "days_to_train") / at(&high, "days_to_train") > 2.5);
        // Fig. 4b: bubble ratio rises 19% → 65%.
        assert!(at(&low, "bubble_ratio") < 0.25 && at(&high, "bubble_ratio") > 0.6);
        // Fig. 4c orderings: PipeFill > traditional; BERT-only > mix.
        for point in [&low, &high] {
            assert!(at(point, "pipefill_trace_mix_tflops") > at(point, "traditional_tflops"));
            assert!(at(point, "pipefill_bert_inf_tflops") > at(point, "pipefill_trace_mix_tflops"));
        }
        // Gains grow with scale.
        let gain =
            |p: &Table| at(p, "pipefill_trace_mix_tflops") / at(p, "traditional_tflops") - 1.0;
        let (low_gain, high_gain) = (gain(&low), gain(&high));
        assert!(
            high_gain > 3.0 * low_gain,
            "low {low_gain} high {high_gain}"
        );
    }

    #[test]
    fn eight_k_gpus_saved_matches_paper_order_of_magnitude() {
        // §6.2: >1500 GPUs (trace mix), ~2600 (best case) at 8K.
        let t = Fig4Scaling.run(&Grid::default()).filter("gpus", 8192usize);
        let mix = t.f64_column("gpus_saved_trace_mix")[0];
        assert!(mix > 700.0 && mix < 3000.0, "mix {mix}");
        assert!(t.f64_column("gpus_saved_best")[0] > mix);
    }
}
