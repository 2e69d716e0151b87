//! Partitioning a model into pipeline stages and deriving per-stage,
//! per-GPU compute/memory profiles under tensor parallelism.

use pipefill_device::{Bytes, DeviceSpec};
use pipefill_model_zoo::{
    ModelGraph, ADAM_STATE_BYTES_PER_PARAM, FP16_BYTES, GRAD_BYTES_PER_PARAM,
};
use pipefill_sim_core::SimDuration;
use serde::{Deserialize, Serialize};

use crate::parallelism::ParallelismConfig;

/// Bytes of parameter-update traffic per parameter during the optimizer
/// step (read fp16 grad + fp32 master/moments, write them back): used to
/// derive the (memory-bound) optimizer-step duration.
const OPTIMIZER_TRAFFIC_BYTES_PER_PARAM: f64 = 32.0;

/// One pipeline stage's per-GPU profile.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StageProfile {
    /// Stage index in `0..p`.
    pub stage: usize,
    /// Half-open range of model layer indices assigned to this stage.
    pub layer_range: (usize, usize),
    /// Parameters held per GPU (stage parameters / tensor-parallel degree).
    pub params_per_gpu: u64,
    /// Forward time for one microbatch on one GPU.
    pub fwd_time: SimDuration,
    /// Backward time for one microbatch on one GPU (2× forward FLOPs).
    pub bwd_time: SimDuration,
    /// Optimizer-step time for this stage's shard.
    pub opt_time: SimDuration,
    /// Output (boundary) activation bytes per microbatch per GPU — the
    /// payload sent to the next stage.
    pub boundary_bytes_per_microbatch: Bytes,
    /// Full activation bytes per microbatch per GPU (no checkpointing).
    pub activation_bytes_per_microbatch: Bytes,
    /// Checkpointed activation bytes per microbatch per GPU (boundaries
    /// only; the recompute working set is charged separately).
    pub ckpt_boundary_bytes_per_microbatch: Bytes,
    /// Largest single-layer activation per microbatch per GPU (recompute
    /// working set under checkpointing).
    pub recompute_working_set: Bytes,
}

impl StageProfile {
    /// Persistent training state per GPU: fp16 weights + fp16 grads +
    /// Adam state.
    pub fn persistent_state_bytes(&self) -> Bytes {
        Bytes::new(
            self.params_per_gpu * (FP16_BYTES + GRAD_BYTES_PER_PARAM + ADAM_STATE_BYTES_PER_PARAM),
        )
    }
}

/// A model partitioned into `p` contiguous pipeline stages, balanced by
/// forward FLOPs (the greedy rule real planners use when stages must be
/// contiguous).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StagePartition {
    stages: Vec<StageProfile>,
}

impl StagePartition {
    /// Partitions `model` for `parallelism` on `device`.
    ///
    /// # Panics
    ///
    /// Panics if the model has fewer layers than pipeline stages.
    pub fn new(model: &ModelGraph, parallelism: &ParallelismConfig, device: &DeviceSpec) -> Self {
        let p = parallelism.pipeline_stages;
        let tp = parallelism.tensor_parallel as f64;
        let mb = parallelism.microbatch_size;
        assert!(
            model.layers.len() >= p,
            "model has fewer layers ({}) than pipeline stages ({p})",
            model.layers.len()
        );

        // Greedy contiguous split balancing forward FLOPs: close a stage
        // once it reaches its fair share of what remains, while always
        // leaving enough layers for the remaining stages.
        let flops: Vec<f64> = model
            .layers
            .iter()
            .map(|l| l.fwd_flops_per_sample)
            .collect();
        let mut ranges = Vec::with_capacity(p);
        let mut start = 0usize;
        let mut remaining_flops: f64 = flops.iter().sum();
        for stage in 0..p {
            let stages_left = p - stage;
            let target = remaining_flops / stages_left as f64;
            let mut end = start;
            let mut acc = 0.0;
            let max_end = model.layers.len() - (stages_left - 1);
            while end < max_end {
                // Always take at least one layer; stop when adding the
                // next layer would overshoot the target by more than it
                // undershoots.
                let next = flops[end];
                if end > start && acc + next / 2.0 > target {
                    break;
                }
                acc += next;
                end += 1;
            }
            remaining_flops -= acc;
            ranges.push((start, end));
            start = end;
        }
        assert_eq!(start, model.layers.len(), "partition must cover all layers");

        let eff = model.efficiency.at(mb);
        let stages = ranges
            .into_iter()
            .enumerate()
            .map(|(stage, (lo, hi))| {
                let layers = &model.layers[lo..hi];
                let params: u64 = layers.iter().map(|l| l.params).sum();
                let params_per_gpu = (params as f64 / tp).round() as u64;
                let fwd_flops: f64 = layers.iter().map(|l| l.fwd_flops(mb)).sum::<f64>() / tp;
                let fwd_time = device.compute_time(fwd_flops, eff);
                let bwd_time = device.compute_time(2.0 * fwd_flops, eff);
                let opt_bytes = params_per_gpu as f64 * OPTIMIZER_TRAFFIC_BYTES_PER_PARAM;
                let opt_time = SimDuration::from_secs_f64(opt_bytes / device.hbm_bandwidth);
                let boundary = layers
                    .last()
                    .map(|l| l.boundary_bytes(mb))
                    .unwrap_or(Bytes::ZERO)
                    .mul_f64(1.0 / tp);
                let act: Bytes = layers
                    .iter()
                    .map(|l| l.activation_bytes(mb))
                    .sum::<Bytes>()
                    .mul_f64(1.0 / tp);
                let ckpt: Bytes = layers
                    .iter()
                    .map(|l| l.boundary_bytes(mb))
                    .sum::<Bytes>()
                    .mul_f64(1.0 / tp);
                let recompute = layers
                    .iter()
                    .map(|l| l.activation_bytes(mb))
                    .max()
                    .unwrap_or(Bytes::ZERO)
                    .mul_f64(1.0 / tp);
                StageProfile {
                    stage,
                    layer_range: (lo, hi),
                    params_per_gpu,
                    fwd_time,
                    bwd_time,
                    opt_time,
                    boundary_bytes_per_microbatch: boundary,
                    activation_bytes_per_microbatch: act,
                    ckpt_boundary_bytes_per_microbatch: ckpt,
                    recompute_working_set: recompute,
                }
            })
            .collect();
        StagePartition { stages }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Per-stage profiles in stage order.
    pub fn stages(&self) -> &[StageProfile] {
        &self.stages
    }

    /// Imbalance ratio: slowest stage forward time over mean.
    pub fn imbalance(&self) -> f64 {
        let times: Vec<f64> = self
            .stages
            .iter()
            .map(|s| s.fwd_time.as_secs_f64())
            .collect();
        let mean = times.iter().sum::<f64>() / times.len() as f64;
        if mean == 0.0 {
            1.0
        } else {
            times.iter().cloned().fold(0.0, f64::max) / mean
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_model_zoo::{gpt_40b, gpt_5b};

    fn cfg_40b() -> ParallelismConfig {
        ParallelismConfig::for_40b_at_scale(8192)
    }

    #[test]
    fn covers_all_layers_contiguously() {
        let model = gpt_40b();
        let part = StagePartition::new(&model, &cfg_40b(), &DeviceSpec::v100());
        assert_eq!(part.num_stages(), 16);
        let mut expect = 0;
        for s in part.stages() {
            assert_eq!(s.layer_range.0, expect);
            assert!(s.layer_range.1 > s.layer_range.0, "stage {} empty", s.stage);
            expect = s.layer_range.1;
        }
        assert_eq!(expect, model.layers.len());
    }

    #[test]
    fn stages_are_flop_balanced() {
        let model = gpt_40b();
        let part = StagePartition::new(&model, &cfg_40b(), &DeviceSpec::v100());
        // 48 uniform blocks over 16 stages: imbalance should be small.
        assert!(part.imbalance() < 1.35, "imbalance {}", part.imbalance());
    }

    #[test]
    fn forty_b_stage_forward_time_matches_calibration() {
        // 48 blocks over 16 stages is 3 blocks a stage. A block's forward
        // pass at h = 8192 costs 2·12h² FLOPs a token; microbatch 2 is
        // 4096 tokens, so 3 blocks are ≈ 20 TFLOP, which 8 TP GPUs at
        // 60 TFLOPS effective run in ≈ 41 ms; attention adds a few
        // percent on top.
        let model = gpt_40b();
        let part = StagePartition::new(&model, &cfg_40b(), &DeviceSpec::v100());
        let t = part.stages()[8].fwd_time.as_secs_f64() * 1e3;
        assert!((35.0..60.0).contains(&t), "fwd_time = {t} ms");
    }

    #[test]
    fn params_divided_by_tensor_parallelism() {
        let model = gpt_40b();
        let part = StagePartition::new(&model, &cfg_40b(), &DeviceSpec::v100());
        let total_per_gpu: u64 = part.stages().iter().map(|s| s.params_per_gpu).sum();
        // Whole model split over 8-way TP: per-"GPU column" share.
        let expected = model.total_params() / 8;
        let err = (total_per_gpu as f64 - expected as f64).abs() / expected as f64;
        assert!(err < 0.01, "per-gpu params off by {err}");
    }

    #[test]
    fn five_b_and_forty_b_have_similar_per_gpu_state() {
        // The paper measured the same 4.5 GB bubble free-memory on both
        // jobs; that falls out of both holding ≈300M parameters per GPU.
        let d = DeviceSpec::v100();
        let p5 = StagePartition::new(&gpt_5b(), &ParallelismConfig::for_5b_physical(8), &d);
        let p40 = StagePartition::new(&gpt_40b(), &cfg_40b(), &d);
        let s5 = p5.stages()[7].persistent_state_bytes();
        let s40 = p40.stages()[7].persistent_state_bytes();
        let ratio = s5.as_f64() / s40.as_f64();
        assert!((0.6..1.6).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn backward_is_twice_forward() {
        let model = gpt_5b();
        let part = StagePartition::new(
            &model,
            &ParallelismConfig::for_5b_physical(8),
            &DeviceSpec::v100(),
        );
        for s in part.stages() {
            let r = s.bwd_time.as_secs_f64() / s.fwd_time.as_secs_f64();
            assert!((r - 2.0).abs() < 1e-6, "stage {}: {r}", s.stage);
        }
    }

    #[test]
    #[should_panic(expected = "fewer layers")]
    fn too_few_layers_rejected() {
        let model = pipefill_model_zoo::TransformerConfig::decoder("tiny", 128, 2, 100, 32).build();
        // 4 layers into 16 stages is impossible.
        let _ = StagePartition::new(
            &model,
            &ParallelismConfig::new(1, 16, 1, 2, 32),
            &DeviceSpec::v100(),
        );
    }
}
