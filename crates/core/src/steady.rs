//! Steady-state (saturated-backlog) fill-job rates, computed directly
//! from execution plans.
//!
//! When the fill-job queue never empties — the regime of the utilization
//! figures — each device cycles through its plan indefinitely, so the
//! recovered rate is a property of the plan itself: FLOPs per pass over
//! the main-job iterations the pass spans. The plans, slots and exclusive
//! throughputs come from [`StagePlans`], the one per-stage plan model
//! every fidelity reads, built with the main job's device on every stage.
//! The event-driven [`crate::CoarseBackend`] reads the same plans and
//! converges to these rates at saturation (asserted in
//! `tests/end_to_end.rs::saturated_cluster_approaches_steady_state_rate`),
//! exactly as the paper's arrival/completion simulator replays profiled
//! patterns between events.

use pipefill_executor::ExecutorConfig;
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::MainJobSpec;
use pipefill_sim_core::SimDuration;
use pipefill_trace::ModelMix;

use crate::plans::StagePlans;

/// Per-stage steady rates for one job type.
#[derive(Debug, Clone, PartialEq)]
pub struct SteadyRate {
    /// Model executed.
    pub model: ModelId,
    /// Training or batch inference.
    pub kind: JobKind,
    /// Recovered TFLOPS per GPU, averaged over stages (0 where
    /// infeasible).
    pub recovered_tflops: f64,
    /// TFLOPS while actually executing in bubbles (the Fig. 7a metric),
    /// averaged over stages with feasible plans.
    pub tflops_during_execution: f64,
    /// Samples per second of wall-clock time, averaged over stages.
    pub wall_throughput: f64,
    /// Stages (out of `p`) where at least one configuration fits.
    pub feasible_stages: usize,
}

/// Steady rates of one `(model, kind)` pair across the stages of
/// `plans`, for a main job iterating every `period`.
pub fn steady_rate(
    plans: &StagePlans,
    period: SimDuration,
    model: ModelId,
    kind: JobKind,
) -> SteadyRate {
    let period = period.as_secs_f64();
    let p = plans.stages();

    let mut recovered_sum = 0.0;
    let mut exec_tflops_sum = 0.0;
    let mut wall_sum = 0.0;
    let mut feasible = 0usize;
    for plan in (0..p).filter_map(|s| plans.plan(model, kind, s)) {
        let pass_secs = plan.main_iterations_per_pass as f64 * period;
        recovered_sum += plan.flops_per_pass / pass_secs / 1e12;
        let busy = plan.busy_time_per_pass.as_secs_f64();
        if busy > 0.0 {
            exec_tflops_sum += plan.flops_per_pass / busy / 1e12;
        }
        wall_sum += plan.samples_per_pass as f64 / pass_secs;
        feasible += 1;
    }
    SteadyRate {
        model,
        kind,
        // Recovered utilization averages over ALL stages (infeasible
        // stages recover nothing).
        recovered_tflops: recovered_sum / p as f64,
        // Execution-time TFLOPS averages over stages that actually run.
        tflops_during_execution: if feasible == 0 {
            0.0
        } else {
            exec_tflops_sum / feasible as f64
        },
        wall_throughput: if feasible == 0 {
            0.0
        } else {
            wall_sum / feasible as f64
        },
        feasible_stages: feasible,
    }
}

/// Mix-weighted recovered TFLOPS per GPU under a saturated backlog: the
/// "simulator prediction" used in the Fig. 6 validation and the
/// PipeFill series of Figs. 1/4c.
///
/// Job kinds follow the §5.3 rule: sub-700M models are half training and
/// half batch inference (by job *count*); larger models are batch
/// inference only. Because the trace sizes jobs in GPU-hours, a device's
/// wall-time share of each job type is proportional to `count ×
/// exclusive_throughput / wall_throughput` — slow-in-bubbles types occupy
/// more of the timeline — so rates are combined with time-share weights,
/// per stage, exactly as a saturated device would realize them.
pub fn steady_recovered_tflops(main: &MainJobSpec, exec: &ExecutorConfig, mix: &ModelMix) -> f64 {
    // Expand mix into (model, kind, count-weight) job types.
    let mut types: Vec<(ModelId, JobKind, f64)> = Vec::new();
    for &(model, weight) in mix.weights() {
        if weight == 0.0 {
            continue;
        }
        if model.trainable_as_fill_job() {
            types.push((model, JobKind::Training, weight * 0.5));
            types.push((model, JobKind::BatchInference, weight * 0.5));
        } else {
            types.push((model, JobKind::BatchInference, weight));
        }
    }

    let timeline = main.engine_timeline();
    let period = timeline.period.as_secs_f64();
    let plans = StagePlans::homogeneous(&timeline, &main.device, *exec);

    let mut total = 0.0;
    for stage in 0..plans.stages() {
        let mut num = 0.0;
        let mut den = 0.0;
        for &(model, kind, count_w) in &types {
            // Exclusive throughput: samples/sec on an idle GPU.
            let Some(excl) = plans.throughput(model, kind, stage) else {
                continue;
            };
            let Some(plan) = plans.plan(model, kind, stage) else {
                continue;
            };
            let pass_secs = plan.main_iterations_per_pass as f64 * period;
            let rate = plan.flops_per_pass / pass_secs / 1e12;
            let wall_tput = plan.samples_per_pass as f64 / pass_secs;
            if wall_tput == 0.0 {
                continue;
            }
            // Equal GPU-hour jobs: wall time ∝ samples/wall_tput with
            // samples ∝ exclusive throughput.
            let time_w = count_w * excl / wall_tput;
            num += time_w * rate;
            den += time_w;
        }
        if den > 0.0 {
            total += num / den;
        }
    }
    total / plans.stages() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_pipeline::ScheduleKind;

    fn main_8k() -> MainJobSpec {
        MainJobSpec::simulator_40b(8, ScheduleKind::GPipe)
    }

    fn rate(
        main: &MainJobSpec,
        exec: &ExecutorConfig,
        model: ModelId,
        kind: JobKind,
    ) -> SteadyRate {
        let timeline = main.engine_timeline();
        let plans = StagePlans::homogeneous(&timeline, &main.device, *exec);
        steady_rate(&plans, timeline.period, model, kind)
    }

    #[test]
    fn bert_inference_is_feasible_on_all_stages() {
        let main = main_8k();
        let timeline = main.engine_timeline();
        let plans = StagePlans::homogeneous(&timeline, &main.device, ExecutorConfig::default());
        assert_eq!(plans.stages(), 16);
        let feasible = (0..16)
            .filter(|&s| {
                plans
                    .plan(ModelId::BertBase, JobKind::BatchInference, s)
                    .is_some()
            })
            .count();
        assert!(feasible >= 15, "feasible on {feasible}/16 stages");
    }

    #[test]
    fn bert_inference_recovers_meaningful_tflops_at_8k() {
        // The paper's best-case workload recovers ≈10+ TFLOPS/GPU at the
        // 65% bubble ratio (Fig. 4c: +63% over ≈20 TFLOPS traditional).
        let r = rate(
            &main_8k(),
            &ExecutorConfig::default(),
            ModelId::BertBase,
            JobKind::BatchInference,
        );
        assert!(
            r.recovered_tflops > 6.0 && r.recovered_tflops < 25.0,
            "recovered {}",
            r.recovered_tflops
        );
        assert!(r.tflops_during_execution > r.recovered_tflops);
    }

    #[test]
    fn inference_beats_training_for_bert() {
        // Fig. 7a: "batch inference jobs are able to reach higher FLOPS
        // utilization than training jobs".
        let exec = ExecutorConfig::default();
        let main = main_8k();
        let inf = rate(&main, &exec, ModelId::BertBase, JobKind::BatchInference);
        let tr = rate(&main, &exec, ModelId::BertBase, JobKind::Training);
        assert!(
            inf.tflops_during_execution > tr.tflops_during_execution,
            "inf {} vs train {}",
            inf.tflops_during_execution,
            tr.tflops_during_execution
        );
    }

    #[test]
    fn trace_mix_recovers_less_than_bert_only() {
        // Fig. 4c: the BERT-inference-only series dominates the trace mix.
        let exec = ExecutorConfig::default();
        let main = main_8k();
        let mix = steady_recovered_tflops(&main, &exec, &ModelMix::paper_mix());
        let bert = steady_recovered_tflops(&main, &exec, &ModelMix::single(ModelId::BertBase));
        assert!(mix > 0.0);
        assert!(bert > mix, "bert {bert} vs mix {mix}");
    }

    #[test]
    fn higher_fill_fraction_recovers_more() {
        let main = main_8k();
        let lo = steady_recovered_tflops(
            &main,
            &ExecutorConfig::default().with_fill_fraction(0.4),
            &ModelMix::single(ModelId::BertBase),
        );
        let hi = steady_recovered_tflops(
            &main,
            &ExecutorConfig::default().with_fill_fraction(0.8),
            &ModelMix::single(ModelId::BertBase),
        );
        assert!(hi > lo * 1.5, "lo={lo} hi={hi}");
    }
}
