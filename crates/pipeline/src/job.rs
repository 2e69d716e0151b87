//! The main-job specification: everything needed to stand up one
//! pipeline-parallel training job and extract its bubble timeline.

use std::sync::Arc;

use pipefill_device::{Bytes, DeviceSpec, LinkSpec};
use pipefill_model_zoo::{gpt_40b, gpt_5b, ModelGraph};
use pipefill_sim_core::SimDuration;

use crate::analysis::{days_to_train, ScalingPoint};
use crate::engine::{EngineConfig, EngineTimeline};
use crate::memory::MEASURED_BUBBLE_FREE_MEMORY;
use crate::parallelism::ParallelismConfig;
use crate::partition::StagePartition;
use crate::schedule::ScheduleKind;

/// The token budget of days-to-train arithmetic. The paper's 40B job
/// trains on a fixed budget; this value is fitted so 1K GPUs ≈ 82 days
/// (Fig. 4a's anchor).
const TRAINING_TOKENS: f64 = 1.4e12;

/// Stage-to-stage interconnect: activations and gradients cross nodes.
const INTER_STAGE_LINK: LinkSpec = LinkSpec::ethernet_25g();

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
#[derive(Debug, Clone, PartialEq)]
pub struct MainJobSpec {
    /// The trained model. Shared: clones of one spec (a fleet's jobs)
    /// hold one graph, and a spec that must change it unshares it with
    /// [`Arc::make_mut`].
    pub model: Arc<ModelGraph>,
    /// Combined-parallelism configuration.
    pub parallelism: ParallelismConfig,
    /// Per-GPU hardware.
    pub device: DeviceSpec,
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Free HBM every bubble reports to fill jobs.
    pub bubble_free_memory: Bytes,
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
            model: Arc::new(gpt_40b()),
            parallelism: ParallelismConfig::new(8, 16, dp, 2, 1024),
            device: DeviceSpec::v100(),
            schedule,
            bubble_free_memory: MEASURED_BUBBLE_FREE_MEMORY,
        }
    }

    /// The physical-cluster 5B main job (§5.2): 16 stages on 16 GPUs, no
    /// tensor parallelism.
    pub fn physical_5b(microbatches: usize, schedule: ScheduleKind) -> Self {
        MainJobSpec {
            model: Arc::new(gpt_5b()),
            parallelism: ParallelismConfig::for_5b_physical(microbatches),
            device: DeviceSpec::v100(),
            schedule,
            bubble_free_memory: MEASURED_BUBBLE_FREE_MEMORY,
        }
    }

    /// Replaces the model (sensitivity studies scale the main job).
    pub fn with_model(mut self, model: ModelGraph) -> Self {
        self.model = Arc::new(model);
        self
    }

    /// Replaces the bubble free memory (Fig. 10b sweeps it).
    pub fn with_bubble_free_memory(mut self, free: Bytes) -> Self {
        self.bubble_free_memory = free;
        self
    }

    /// Stage partition for this job.
    pub fn partition(&self) -> StagePartition {
        StagePartition::new(&self.model, &self.parallelism, &self.device)
    }

    /// Builds the engine configuration (per-stage times, communication,
    /// bubble free memory).
    ///
    /// Stages are idealized as uniform: every stage runs the mean
    /// forward, backward and optimizer time. The paper's simulator
    /// replays one profiled instruction pattern for all stages, which is
    /// equivalent.
    pub fn engine_config(&self) -> EngineConfig {
        let partition = self.partition();
        let stages = partition.stages();
        // Activation hand-off: the largest stage boundary payload.
        let payload = stages
            .iter()
            .map(|s| s.boundary_bytes_per_microbatch)
            .max()
            .unwrap_or(Bytes::ZERO);
        let mean = |get: fn(&crate::partition::StageProfile) -> SimDuration| -> Vec<SimDuration> {
            let total: SimDuration = stages.iter().map(get).sum();
            vec![total / stages.len() as u64; stages.len()]
        };
        EngineConfig {
            schedule: self.schedule,
            microbatches: self.parallelism.microbatches_per_replica(),
            stage_fwd: mean(|s| s.fwd_time),
            stage_bwd: mean(|s| s.bwd_time),
            stage_opt: mean(|s| s.opt_time),
            comm: INTER_STAGE_LINK.transfer_time(payload),
            bubble_free_memory: self.bubble_free_memory,
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
                TRAINING_TOKENS,
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
    use crate::bubbles::BubbleKind;

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
    fn bubble_free_memory_reaches_every_window() {
        // Fig. 10b's axis: a non-default free memory set through the
        // builder is what every window reports, on every stage and bubble
        // kind, under every schedule.
        let free = Bytes::from_gib(7);
        assert_ne!(free, MEASURED_BUBBLE_FREE_MEMORY);
        let mut fillable_kinds = Vec::new();
        for schedule in ScheduleKind::ALL {
            let timeline = MainJobSpec::physical_5b(8, schedule)
                .with_bubble_free_memory(free)
                .engine_timeline();
            for stage in &timeline.stages {
                for w in &stage.windows {
                    assert_eq!(
                        w.free_memory, free,
                        "{schedule} stage {} {} window",
                        stage.stage, w.kind
                    );
                    if w.fillable() && !fillable_kinds.contains(&w.kind) {
                        fillable_kinds.push(w.kind);
                    }
                }
            }
        }
        // Both fillable kinds were seen, so no kind escaped the check.
        assert!(fillable_kinds.contains(&BubbleKind::FwdBwd));
        assert!(fillable_kinds.contains(&BubbleKind::FillDrain));
    }

    #[test]
    #[should_panic(expected = "split evenly")]
    fn bad_microbatch_count_rejected() {
        let _ = MainJobSpec::simulator_40b(7, ScheduleKind::GPipe);
    }
}
