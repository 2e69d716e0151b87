//! The main job's device-memory model: how much HBM is free for fill jobs
//! during each bubble kind on each stage.
//!
//! The paper's engine *measures* free memory with allocator statistics
//! and seeds its simulator with the measurement — 4.5 GB on both the 5B
//! and 40B jobs (§6.1). [`BubbleMemoryModel::Uniform`] reproduces that
//! seeding path and is the default for the headline experiments (and the
//! knob swept in Fig. 10b). [`MainJobMemoryModel`] additionally *derives*
//! per-stage, per-bubble-kind free memory from the partition structure,
//! capturing the heterogeneity §3.2 mentions (fill-drain bubbles hold no
//! activations, fwd-bwd bubbles hold every in-flight microbatch's).

use pipefill_device::{Bytes, DeviceSpec};

use crate::bubbles::BubbleKind;
use crate::instructions::PipelineInstruction;
use crate::parallelism::ParallelismConfig;
use crate::partition::StagePartition;
use crate::schedule::ScheduleKind;

/// Free memory during each bubble kind on one stage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StageMemory {
    /// Free HBM during the fwd-bwd bubble (activations still resident).
    pub fwd_bwd_free: Bytes,
    /// Free HBM during the fill-drain bubble (activations released).
    pub fill_drain_free: Bytes,
}

/// How the engine reports bubble free-memory to the Executor.
#[derive(Debug, Clone, PartialEq)]
pub enum BubbleMemoryModel {
    /// One measured value for every stage and bubble (the paper's 4.5 GB
    /// seeding; also the Fig. 10b sweep axis).
    Uniform(Bytes),
    /// Structurally derived per-stage values.
    PerStage(Vec<StageMemory>),
}

impl BubbleMemoryModel {
    /// The paper's measured default: 4.5 GB free during bubbles, on both
    /// the 5B and 40B jobs, without main-job offloading (§6.1).
    pub fn measured_default() -> Self {
        BubbleMemoryModel::Uniform(Bytes::from_gib_f64(4.5))
    }

    /// Free memory for a bubble of `kind` on `stage`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range for a per-stage model.
    pub fn free(&self, stage: usize, kind: BubbleKind) -> Bytes {
        match self {
            BubbleMemoryModel::Uniform(b) => *b,
            BubbleMemoryModel::PerStage(stages) => {
                let s = &stages[stage];
                match kind {
                    BubbleKind::FwdBwd | BubbleKind::NonContiguous => s.fwd_bwd_free,
                    BubbleKind::FillDrain => s.fill_drain_free,
                }
            }
        }
    }
}

/// Structural model of the main job's per-stage memory use.
#[derive(Debug, Clone, PartialEq)]
pub struct MainJobMemoryModel {
    /// Whether the main job checkpoints activations (recommended and on
    /// by default for LLM-scale jobs).
    pub activation_checkpointing: bool,
    /// Memory not visible to the allocator arithmetic: CUDA context,
    /// NCCL buffers, fragmentation. A fitted constant.
    pub runtime_reserve: Bytes,
    /// Fraction of the computed free memory the engine actually
    /// advertises to fill jobs ("to ensure there are no out-of-memory
    /// errors PipeFill may opt only to allocate some fraction of the free
    /// memory", §4.2).
    pub safety_fraction: f64,
}

impl Default for MainJobMemoryModel {
    fn default() -> Self {
        MainJobMemoryModel {
            activation_checkpointing: true,
            runtime_reserve: Bytes::from_gib(2),
            safety_fraction: 0.9,
        }
    }
}

impl MainJobMemoryModel {
    /// Derives per-stage free-memory values from the stage partition.
    ///
    /// # Panics
    ///
    /// Panics if `safety_fraction` is outside `(0, 1]`.
    pub fn derive(
        &self,
        partition: &StagePartition,
        parallelism: &ParallelismConfig,
        device: &DeviceSpec,
        schedule: ScheduleKind,
    ) -> BubbleMemoryModel {
        assert!(
            self.safety_fraction > 0.0 && self.safety_fraction <= 1.0,
            "safety fraction must be in (0, 1], got {}",
            self.safety_fraction
        );
        let p = parallelism.pipeline_stages;
        let m = parallelism.microbatches_per_replica();
        let hbm = device.hbm;
        let envelope = activation_envelope(schedule, p, m);
        let stages = partition
            .stages()
            .iter()
            .map(|sp| {
                let in_flight = envelope[sp.stage];
                let act_per_mb = if self.activation_checkpointing {
                    sp.ckpt_boundary_bytes_per_microbatch
                } else {
                    sp.activation_bytes_per_microbatch
                };
                let recompute = if self.activation_checkpointing {
                    sp.recompute_working_set
                } else {
                    Bytes::ZERO
                };
                let persistent = sp.persistent_state_bytes() + self.runtime_reserve;
                let fwd_bwd_used = persistent + act_per_mb * in_flight + recompute;
                let fill_drain_used = persistent;
                StageMemory {
                    fwd_bwd_free: hbm
                        .saturating_sub(fwd_bwd_used)
                        .mul_f64(self.safety_fraction),
                    fill_drain_free: hbm
                        .saturating_sub(fill_drain_used)
                        .mul_f64(self.safety_fraction),
                }
            })
            .collect();
        BubbleMemoryModel::PerStage(stages)
    }
}

/// Peak resident microbatch-activations per device for `schedule` on `p`
/// stages and `m` microbatches — the stage-partition-independent half of
/// [`MainJobMemoryModel::derive`], published so the static schedule
/// verifier's stream-measured peaks ([`activation_peaks`]) can be
/// cross-validated against the memory model's closed forms.
///
/// Microbatches whose activations are resident during the fwd-bwd
/// bubble: GPipe keeps all `m`; 1F1B keeps at most `p - stage` in
/// flight; 1-chunk interleaved *is* 1F1B. ZB-H1 shares 1F1B's envelope
/// by modeling assumption (the H1 variant defers only W work, which this
/// model treats as holding no extra activations). The multi-chunk
/// interleaved schedule's residency is not 1F1B's — its greedy
/// realization runs forwards further ahead than the 1F1B warmup — so its
/// per-stage peak is measured from the emitted streams by
/// [`activation_peaks`].
///
/// # Panics
///
/// Panics if `p` or `m` is zero, or an interleaved schedule has zero
/// chunks.
pub fn activation_envelope(schedule: ScheduleKind, p: usize, m: usize) -> Vec<u64> {
    assert!(p > 0 && m > 0, "p and m must be positive");
    match schedule {
        ScheduleKind::GPipe => vec![m as u64; p],
        ScheduleKind::Interleaved { chunks } if chunks > 1 => {
            activation_peaks(&schedule.all_stage_instructions(p, m), chunks)
        }
        ScheduleKind::OneFOneB | ScheduleKind::Interleaved { .. } | ScheduleKind::ZbH1 => {
            (0..p).map(|s| m.min(p - s) as u64).collect()
        }
    }
}

/// Peak live activations per device of arbitrary per-device streams
/// (one iteration each, `chunks` model chunks per device), in
/// whole-microbatch units.
///
/// A forward pins one chunk's worth of activation memory until the
/// matching backward consumes it — the full `B` for plain schedules, the
/// `BI` half for ZB-H1 (the deferred `W` half reads weight gradients,
/// not activations). A device executes its stream in order, so the
/// prefix count of forwards minus backwards is its exact residency
/// trajectory for any stage timing; the chunk-unit peak rounds up to
/// whole microbatches. A backward with nothing resident (only malformed
/// streams have one) frees nothing.
pub fn activation_peaks(streams: &[Vec<PipelineInstruction>], chunks: usize) -> Vec<u64> {
    streams
        .iter()
        .map(|stream| {
            let mut resident = 0u64; // live activation chunks
            let mut peak = 0u64;
            for &instr in stream {
                match instr {
                    PipelineInstruction::Forward { .. }
                    | PipelineInstruction::ForwardChunk { .. } => {
                        resident += 1;
                        peak = peak.max(resident);
                    }
                    PipelineInstruction::Backward { .. }
                    | PipelineInstruction::BackwardChunk { .. }
                    | PipelineInstruction::BackwardInput { .. } => {
                        resident = resident.saturating_sub(1);
                    }
                    _ => {}
                }
            }
            peak.div_ceil(chunks as u64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_model_zoo::gpt_40b;

    fn derived(schedule: ScheduleKind) -> BubbleMemoryModel {
        let model = gpt_40b();
        let cfg = ParallelismConfig::for_40b_at_scale(8192);
        let device = DeviceSpec::v100();
        let part = StagePartition::new(&model, &cfg, &device);
        MainJobMemoryModel::default().derive(&part, &cfg, &device, schedule)
    }

    #[test]
    fn activation_envelope_matches_closed_forms() {
        assert_eq!(activation_envelope(ScheduleKind::GPipe, 4, 6), vec![6; 4]);
        assert_eq!(
            activation_envelope(ScheduleKind::OneFOneB, 4, 6),
            vec![4, 3, 2, 1]
        );
        assert_eq!(
            activation_envelope(ScheduleKind::ZbH1, 4, 2),
            vec![2, 2, 2, 1]
        );
        assert_eq!(
            activation_envelope(ScheduleKind::Interleaved { chunks: 1 }, 4, 6),
            activation_envelope(ScheduleKind::OneFOneB, 4, 6)
        );
        // Multi-chunk peaks are measured, never below 1F1B's closed form.
        let il = activation_envelope(ScheduleKind::Interleaved { chunks: 2 }, 4, 8);
        for (s, &peak) in il.iter().enumerate() {
            assert!(peak >= (8usize.min(4 - s)) as u64, "stage {s}: {peak}");
        }
    }

    #[test]
    fn uniform_model_is_kind_and_stage_independent() {
        let m = BubbleMemoryModel::measured_default();
        let v = Bytes::from_gib_f64(4.5);
        assert_eq!(m.free(0, BubbleKind::FwdBwd), v);
        assert_eq!(m.free(15, BubbleKind::FillDrain), v);
    }

    #[test]
    fn fill_drain_frees_at_least_as_much_as_fwd_bwd() {
        let m = derived(ScheduleKind::GPipe);
        for s in 0..16 {
            assert!(
                m.free(s, BubbleKind::FillDrain) >= m.free(s, BubbleKind::FwdBwd),
                "stage {s}"
            );
        }
    }

    #[test]
    fn derived_free_memory_is_plausible() {
        // The paper measured ≈ 4.5 GB free on both jobs (§6.1); the
        // derived model should land in single-digit GiB, not 0 or 16.
        let m = derived(ScheduleKind::GPipe);
        for s in 0..16 {
            let f = m.free(s, BubbleKind::FwdBwd).as_gib();
            assert!((1.0..12.0).contains(&f), "stage {s}: {f} GiB");
        }
    }

    #[test]
    fn one_f_one_b_holds_fewer_activations_on_late_stages() {
        let gpipe = derived(ScheduleKind::GPipe);
        let ofob = derived(ScheduleKind::OneFOneB);
        // At m=8, p=16: stage 15 keeps min(8, 1)=1 microbatch under 1F1B
        // vs 8 under GPipe.
        assert!(
            ofob.free(15, BubbleKind::FwdBwd) >= gpipe.free(15, BubbleKind::FwdBwd),
            "1F1B should free at least as much on the last stage"
        );
    }

    #[test]
    fn interleaved_residency_is_measured_not_borrowed_from_one_f_one_b() {
        // The interleaved greedy runs forwards further ahead than 1F1B's
        // warmup, so early stages hold *more* activation memory — the
        // derived model must reflect the emitted schedule, not 1F1B's
        // closed form. Needs m ≥ p for the bounds to separate (below
        // that both cap at m): the 2K-GPU point is m=32 on p=16.
        let derived = |schedule| {
            let model = gpt_40b();
            let cfg = ParallelismConfig::for_40b_at_scale(2048);
            let device = DeviceSpec::v100();
            let part = StagePartition::new(&model, &cfg, &device);
            MainJobMemoryModel::default().derive(&part, &cfg, &device, schedule)
        };
        let ofob = derived(ScheduleKind::OneFOneB);
        let il2 = derived(ScheduleKind::Interleaved { chunks: 2 });
        assert!(
            il2.free(0, BubbleKind::FwdBwd) < ofob.free(0, BubbleKind::FwdBwd),
            "stage 0 should hold more under interleaved: {} vs {}",
            il2.free(0, BubbleKind::FwdBwd),
            ofob.free(0, BubbleKind::FwdBwd)
        );
        // 1-chunk interleaved is 1F1B bit for bit, memory model included.
        let il1 = derived(ScheduleKind::Interleaved { chunks: 1 });
        assert_eq!(il1, ofob);
    }

    #[test]
    fn checkpointing_raises_fwd_bwd_free_memory() {
        let model = gpt_40b();
        let cfg = ParallelismConfig::for_40b_at_scale(8192);
        let device = DeviceSpec::v100();
        let part = StagePartition::new(&model, &cfg, &device);
        let with = MainJobMemoryModel {
            activation_checkpointing: true,
            ..Default::default()
        }
        .derive(&part, &cfg, &device, ScheduleKind::GPipe);
        let without = MainJobMemoryModel {
            activation_checkpointing: false,
            ..Default::default()
        }
        .derive(&part, &cfg, &device, ScheduleKind::GPipe);
        assert!(with.free(8, BubbleKind::FwdBwd) > without.free(8, BubbleKind::FwdBwd));
    }
}
