//! The main-job specification: everything needed to stand up one
//! pipeline-parallel training job and extract its bubble timeline.

use pipefill_device::{DeviceSpec, LinkSpec};
use pipefill_model_zoo::{gpt_40b, gpt_5b, ModelGraph};
use pipefill_sim_core::SimDuration;
use serde::{Deserialize, Serialize};

use crate::analysis::{days_to_train, ScalingPoint};
use crate::engine::{EngineConfig, EngineTimeline};
use crate::memory::BubbleMemoryModel;
use crate::parallelism::ParallelismConfig;
use crate::partition::StagePartition;
use crate::schedule::ScheduleKind;

/// The paper's 40B job trains on a fixed token budget; this value is
/// fitted so 1K GPUs ≈ 82 days (Fig. 4a's anchor).
pub const DEFAULT_TRAINING_TOKENS: f64 = 1.4e12;

/// A fully specified pipeline-parallel main job.
///
/// # Example
///
/// ```
/// use pipefill_pipeline::{MainJobSpec, ScheduleKind};
///
/// let job = MainJobSpec::simulator_40b(64, ScheduleKind::GPipe); // 1K GPUs
/// assert_eq!(job.parallelism.total_gpus(), 1024);
/// let point = job.scaling_point();
/// assert!((point.days_to_train - 82.0).abs() < 8.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MainJobSpec {
    /// The trained model.
    pub model: ModelGraph,
    /// Combined-parallelism configuration.
    pub parallelism: ParallelismConfig,
    /// Per-GPU hardware.
    pub device: DeviceSpec,
    /// Stage-to-stage interconnect (activations/gradients cross nodes).
    pub inter_stage_link: LinkSpec,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// How bubble free-memory is reported to fill jobs.
    pub memory: BubbleMemoryModel,
    /// Token budget for days-to-train arithmetic.
    pub training_tokens: f64,
    /// Idealize stages as uniform (mean forward/backward times). The
    /// paper's simulator replays one profiled instruction pattern for all
    /// stages, which is equivalent to this idealization; it is therefore
    /// the default. Disable to study the imbalance introduced by the
    /// embedding/LM-head stages.
    pub uniform_stages: bool,
}

impl MainJobSpec {
    /// The simulator's 40B main job (§5.2) at a given microbatch count
    /// (the data-parallel degree follows from the fixed 1024-sequence
    /// minibatch: m=64 ↔ 1K GPUs … m=4 ↔ 16K GPUs).
    ///
    /// # Panics
    ///
    /// Panics if `microbatches` does not divide the 512 global
    /// microbatches evenly.
    pub fn simulator_40b(microbatches: usize, schedule: ScheduleKind) -> Self {
        assert!(
            microbatches > 0 && 512 % microbatches == 0,
            "512 global microbatches must split evenly, got {microbatches} per replica"
        );
        let dp = 512 / microbatches;
        MainJobSpec {
            model: gpt_40b(),
            parallelism: ParallelismConfig::new(8, 16, dp, 2, 1024),
            device: DeviceSpec::v100(),
            inter_stage_link: LinkSpec::ethernet_25g(),
            schedule,
            memory: BubbleMemoryModel::measured_default(),
            training_tokens: DEFAULT_TRAINING_TOKENS,
            uniform_stages: true,
        }
    }

    /// The physical-cluster 5B main job (§5.2): 16 stages on 16 GPUs, no
    /// tensor parallelism.
    pub fn physical_5b(microbatches: usize, schedule: ScheduleKind) -> Self {
        MainJobSpec {
            model: gpt_5b(),
            parallelism: ParallelismConfig::for_5b_physical(microbatches),
            device: DeviceSpec::v100(),
            inter_stage_link: LinkSpec::ethernet_25g(),
            schedule,
            memory: BubbleMemoryModel::measured_default(),
            training_tokens: DEFAULT_TRAINING_TOKENS,
            uniform_stages: true,
        }
    }

    /// Replaces the model (sensitivity studies scale the main job).
    pub fn with_model(mut self, model: ModelGraph) -> Self {
        self.model = model;
        self
    }

    /// Replaces the bubble memory model (Fig. 10b sweeps it).
    pub fn with_memory(mut self, memory: BubbleMemoryModel) -> Self {
        self.memory = memory;
        self
    }

    /// Stage partition for this job.
    pub fn partition(&self) -> StagePartition {
        StagePartition::new(&self.model, &self.parallelism, &self.device)
    }

    /// Builds the engine configuration (per-stage times, communication,
    /// memory reporting).
    pub fn engine_config(&self) -> EngineConfig {
        let partition = self.partition();
        let stages = partition.stages();
        // Activation hand-off: the largest stage boundary payload.
        let payload = stages
            .iter()
            .map(|s| s.boundary_bytes_per_microbatch)
            .max()
            .unwrap_or(pipefill_device::Bytes::ZERO);
        let comm = self.inter_stage_link.transfer_time(payload);
        // Ring all-reduce of fp16 gradients across data-parallel replicas
        // (≈ 2× payload over the slow link); overlapped with backward.
        let grad_bytes = stages
            .iter()
            .map(|s| pipefill_device::Bytes::new(s.params_per_gpu * 2))
            .max()
            .unwrap_or(pipefill_device::Bytes::ZERO);
        let grad_sync = if self.parallelism.data_parallel > 1 {
            SimDuration::from_secs_f64(2.0 * grad_bytes.as_f64() / self.inter_stage_link.bandwidth)
        } else {
            SimDuration::ZERO
        };
        let mean = |get: fn(&crate::partition::StageProfile) -> SimDuration| -> Vec<SimDuration> {
            if self.uniform_stages {
                let total: SimDuration = stages.iter().map(get).sum();
                vec![total / stages.len() as u64; stages.len()]
            } else {
                stages.iter().map(get).collect()
            }
        };
        EngineConfig {
            schedule: self.schedule,
            microbatches: self.parallelism.microbatches_per_replica(),
            stage_fwd: mean(|s| s.fwd_time),
            stage_bwd: mean(|s| s.bwd_time),
            stage_opt: mean(|s| s.opt_time),
            comm,
            grad_sync,
            overlap_grad_sync: true,
            memory: self.memory.clone(),
        }
    }

    /// Runs the engine and returns the steady-state timeline.
    pub fn engine_timeline(&self) -> EngineTimeline {
        self.engine_config().run()
    }

    /// Tokens consumed by the whole job per model update.
    pub fn tokens_per_iteration(&self) -> f64 {
        (self.parallelism.global_minibatch * self.model.seq_len.unwrap_or(1)) as f64
    }

    /// Main-job TFLOPS per GPU averaged over the iteration, given the
    /// engine timeline (compute FLOPs ÷ GPUs ÷ period).
    pub fn main_job_tflops_per_gpu(&self, timeline: &EngineTimeline) -> f64 {
        let per_replica_flops = self
            .model
            .train_step_flops(self.parallelism.global_minibatch / self.parallelism.data_parallel);
        let per_gpu_flops = per_replica_flops / self.parallelism.gpus_per_replica() as f64;
        per_gpu_flops / timeline.period.as_secs_f64() / 1e12
    }

    /// Computes the full scaling-point row for this job (Fig. 4).
    pub fn scaling_point(&self) -> ScalingPoint {
        let timeline = self.engine_timeline();
        ScalingPoint {
            gpus: self.parallelism.total_gpus(),
            microbatches: self.parallelism.microbatches_per_replica(),
            bubble_ratio: timeline.bubble_ratio(),
            fillable_ratio: timeline.fillable_ratio(),
            iteration_time: timeline.period,
            days_to_train: days_to_train(
                self.training_tokens,
                self.tokens_per_iteration(),
                timeline.period,
            ),
            main_job_tflops_per_gpu: self.main_job_tflops_per_gpu(&timeline),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::bubble_fraction;

    #[test]
    fn scaling_series_matches_paper_days() {
        // Fig. 4a anchors: ~82 days at 1K GPUs, ~50 at 2K, ~34 at 4K,
        // ~26 at 8K (tolerances cover engine comm/optimizer overheads).
        let cases = [
            (64usize, 82.0, 8.0),
            (32, 50.0, 5.0),
            (16, 34.0, 4.0),
            (8, 26.0, 3.0),
        ];
        for (m, days, tol) in cases {
            let point = MainJobSpec::simulator_40b(m, ScheduleKind::GPipe).scaling_point();
            assert!(
                (point.days_to_train - days).abs() < tol,
                "m={m}: got {} days, want ≈{days}",
                point.days_to_train
            );
        }
    }

    #[test]
    fn engine_bubble_ratio_tracks_formula() {
        for m in [64usize, 8] {
            let job = MainJobSpec::simulator_40b(m, ScheduleKind::GPipe);
            let got = job.engine_timeline().bubble_ratio();
            let expect = bubble_fraction(16, m);
            assert!(
                (got - expect).abs() < 0.04,
                "m={m}: engine {got} vs formula {expect}"
            );
        }
    }

    #[test]
    fn traditional_tflops_fall_with_scale() {
        // Fig. 1: ~48 TFLOPS/GPU at 1K falling ≈60% by 8K.
        let t1k = MainJobSpec::simulator_40b(64, ScheduleKind::GPipe)
            .scaling_point()
            .main_job_tflops_per_gpu;
        let t8k = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe)
            .scaling_point()
            .main_job_tflops_per_gpu;
        assert!((40.0..55.0).contains(&t1k), "1K: {t1k}");
        assert!((14.0..24.0).contains(&t8k), "8K: {t8k}");
        let drop = 1.0 - t8k / t1k;
        assert!((0.5..0.7).contains(&drop), "drop {drop}");
    }

    #[test]
    fn physical_5b_bubble_ratio_is_65_percent() {
        // §6.1: "8 microbatches per minibatch … results in a bubble ratio
        // of 65%".
        let job = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let ratio = job.engine_timeline().bubble_ratio();
        assert!((ratio - 0.65).abs() < 0.03, "got {ratio}");
    }

    #[test]
    fn forty_b_iteration_time_near_three_seconds_at_8k() {
        // A GPipe iteration is (m + p - 1) forward+backward slots, each
        // ≈ 3 × 43 ms (backward costs twice the forward, see the
        // partition test): (8 + 15) · 128 ms ≈ 2.9 s.
        let job = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe);
        let t = job.engine_timeline().period.as_secs_f64();
        assert!((2.4..3.6).contains(&t), "period {t}");
    }

    #[test]
    fn one_f_one_b_same_period_as_gpipe() {
        let g = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe).engine_timeline();
        let o = MainJobSpec::simulator_40b(8, ScheduleKind::OneFOneB).engine_timeline();
        let rel = (g.period.as_secs_f64() - o.period.as_secs_f64()).abs() / g.period.as_secs_f64();
        assert!(rel < 0.02, "periods differ by {rel}");
    }

    #[test]
    #[should_panic(expected = "split evenly")]
    fn bad_microbatch_count_rejected() {
        let _ = MainJobSpec::simulator_40b(7, ScheduleKind::GPipe);
    }
}
