//! Per-configuration job profiles: "each profile contains the execution
//! time and memory requirement of each node in the computational graph
//! under a specific configuration" (§4.3).
//!
//! The paper measures these with PyTorch profiling; here they are derived
//! from the model zoo's layer graphs and the device's analytical cost
//! model. The technique semantics follow ZeRO-Offload / ZeRO-Infinity:
//! off-device state trades memory for host-link transfer time, with
//! transfers overlapping compute (a node's duration is the max of the
//! two).

use pipefill_device::{Bytes, DeviceSpec};
use pipefill_model_zoo::{
    JobKind, ModelGraph, ADAM_STATE_BYTES_PER_PARAM, FP16_BYTES, GRAD_BYTES_PER_PARAM,
};
use pipefill_sim_core::SimDuration;

use crate::config::{ExecConfig, ExecTechnique};
use crate::job::FillJobSpec;

/// Host-side memory bandwidth available to the CPU Adam update used by
/// the offloaded-optimizer techniques (ZeRO-Offload's CPU optimizer).
const CPU_UPDATE_BANDWIDTH: f64 = 25.0e9;

/// Fraction of the raw host/NVMe link bandwidth parameter streaming
/// actually achieves: per-tensor launch overheads and imperfect
/// prefetch overlap keep ZeRO-Infinity-style pipelines well below link
/// peak in practice.
const STREAM_EFFICIENCY: f64 = 0.65;

/// One node of the linearized computational graph under a configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeProfile {
    /// Execution time (compute overlapped with any host transfers).
    pub duration: SimDuration,
    /// Device memory that must be available while this node runs.
    pub memory: Bytes,
    /// Floating-point operations this node executes (recompute included).
    pub flops: f64,
}

/// A fill job's profile under one configuration: the linearized graph for
/// a single fill-job iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct JobProfile {
    /// The configuration profiled.
    pub config: ExecConfig,
    /// Linearized graph nodes with sequential dependency.
    pub nodes: Vec<NodeProfile>,
    /// Samples one iteration processes (= batch size).
    pub samples_per_iteration: u64,
}

impl JobProfile {
    /// Total execution time of one iteration.
    pub fn iteration_time(&self) -> SimDuration {
        self.nodes.iter().map(|n| n.duration).sum()
    }

    /// Total FLOPs of one iteration.
    pub fn iteration_flops(&self) -> f64 {
        self.nodes.iter().map(|n| n.flops).sum()
    }

    /// Largest single-node memory requirement — the binding constraint
    /// against bubble free-memory.
    pub fn peak_memory(&self) -> Bytes {
        self.nodes
            .iter()
            .map(|n| n.memory)
            .max()
            .unwrap_or(Bytes::ZERO)
    }

    /// Samples per second when run back-to-back (no bubbles).
    pub fn isolated_throughput(&self) -> f64 {
        self.samples_per_iteration as f64 / self.iteration_time().as_secs_f64()
    }
}

/// Builds the profile of `model` under `config` for a `kind` job on
/// `device`.
///
/// # Panics
///
/// Panics if an inference config uses a training-only technique or the
/// batch size is zero.
pub fn build_profile(
    model: &ModelGraph,
    kind: JobKind,
    config: ExecConfig,
    device: &DeviceSpec,
) -> JobProfile {
    assert!(config.batch_size > 0, "batch size must be positive");
    assert!(
        ExecTechnique::applicable(kind).contains(&config.technique),
        "technique {} is not applicable to {kind}",
        config.technique
    );
    let b = config.batch_size;
    let eff = model.efficiency.at(b);
    let tech = config.technique;
    // Streaming source bandwidth: host DRAM over PCIe, or the NVMe tier,
    // derated by the achievable pipeline efficiency.
    let pcie = STREAM_EFFICIENCY
        * if tech.streams_from_nvme() {
            device.nvme_bandwidth
        } else {
            device.host_link_bandwidth
        };

    // Device-resident baseline state. Under parameter streaming the
    // window is a double buffer of the largest *dense* layer: embedding
    // tables are gathered row-wise (only the rows a batch references move
    // across PCIe), so they do not size the window.
    let total_params = model.total_params();
    let param_bytes = Bytes::new(total_params * FP16_BYTES);
    let max_dense_layer = model
        .layers
        .iter()
        .filter(|l| l.kind != pipefill_model_zoo::LayerKind::Embedding)
        .map(|l| l.param_bytes())
        .max()
        .unwrap_or_else(|| model.max_layer_param_bytes());
    let streaming_resident = max_dense_layer * 2;
    let resident = match (kind, tech) {
        (JobKind::BatchInference, ExecTechnique::Plain) => param_bytes,
        (JobKind::BatchInference, _) => streaming_resident,
        (JobKind::Training, ExecTechnique::Plain | ExecTechnique::ActivationCheckpointing) => {
            Bytes::new(
                total_params * (FP16_BYTES + GRAD_BYTES_PER_PARAM + ADAM_STATE_BYTES_PER_PARAM),
            )
        }
        (JobKind::Training, ExecTechnique::OffloadOptimizer) => {
            Bytes::new(total_params * (FP16_BYTES + GRAD_BYTES_PER_PARAM))
        }
        (JobKind::Training, _) => streaming_resident, // params/grads/opt on host
    };

    let ckpt = tech.checkpoints_activations();
    let streams = tech.streams_params();
    let mut nodes = Vec::new();

    // Bytes that must cross PCIe to execute a layer under parameter
    // streaming: dense layers move their full weights; embeddings move
    // only the referenced rows (bounded by the batch's token count).
    let stream_bytes = |layer: &pipefill_model_zoo::Layer| -> Bytes {
        if layer.kind == pipefill_model_zoo::LayerKind::Embedding {
            layer.param_bytes().min(layer.activation_bytes(b))
        } else {
            layer.param_bytes()
        }
    };

    // Forward pass: activations (or boundaries) accumulate.
    let mut stored = Bytes::ZERO;
    for layer in &model.layers {
        let compute = device.compute_time(layer.fwd_flops(b), eff);
        let stream = if streams {
            SimDuration::from_secs_f64(stream_bytes(layer).as_f64() / pcie)
        } else {
            SimDuration::ZERO
        };
        let working = layer.activation_bytes(b);
        nodes.push(NodeProfile {
            duration: compute.max(stream),
            memory: resident + stored + working,
            flops: layer.fwd_flops(b),
        });
        stored += match kind {
            JobKind::BatchInference => Bytes::ZERO, // activations released immediately
            JobKind::Training => {
                if ckpt {
                    layer.boundary_bytes(b)
                } else {
                    layer.activation_bytes(b)
                }
            }
        };
    }

    if kind == JobKind::Training {
        // Backward pass in reverse layer order; stored activations are
        // released as each layer is consumed.
        for layer in model.layers.iter().rev() {
            let recompute_factor = if ckpt && layer.kind.is_block() {
                3.0
            } else {
                2.0
            };
            let flops = recompute_factor * layer.fwd_flops(b);
            let compute = device.compute_time(flops, eff);
            let stream = if streams {
                // Params stream down again for backward; gradients stream up.
                SimDuration::from_secs_f64((stream_bytes(layer).as_f64() * 2.0) / pcie)
            } else {
                SimDuration::ZERO
            };
            let working = layer.activation_bytes(b); // recomputed or retained
            nodes.push(NodeProfile {
                duration: compute.max(stream),
                memory: resident + stored + working,
                flops,
            });
            stored = stored.saturating_sub(if ckpt {
                layer.boundary_bytes(b)
            } else {
                layer.activation_bytes(b)
            });
        }

        // Optimizer node.
        let opt = match tech {
            ExecTechnique::OffloadOptimizer => {
                // Gradients stream down, updated fp16 params stream back.
                let transfer = (total_params * (GRAD_BYTES_PER_PARAM + FP16_BYTES)) as f64 / pcie;
                let cpu = (total_params * ADAM_STATE_BYTES_PER_PARAM) as f64 / CPU_UPDATE_BANDWIDTH;
                SimDuration::from_secs_f64(transfer + cpu)
            }
            t if t.streams_params() => {
                // Gradients already on host; CPU update only.
                SimDuration::from_secs_f64(
                    (total_params * ADAM_STATE_BYTES_PER_PARAM) as f64 / CPU_UPDATE_BANDWIDTH,
                )
            }
            _ => {
                // On-device Adam: memory-bound parameter-state sweep.
                SimDuration::from_secs_f64(total_params as f64 * 32.0 / device.hbm_bandwidth)
            }
        };
        nodes.push(NodeProfile {
            duration: opt,
            memory: resident,
            flops: 0.0,
        });
    }

    JobProfile {
        config,
        nodes,
        samples_per_iteration: b as u64,
    }
}

/// Profiles of `model` for a `kind` job on `device` under every
/// configuration of `batch_sizes × ExecTechnique::applicable(kind)`,
/// batch-major: the order every menu scan breaks ties in.
fn menu_over(
    model: &ModelGraph,
    kind: JobKind,
    device: &DeviceSpec,
    batch_sizes: &[usize],
) -> Vec<JobProfile> {
    let techniques = ExecTechnique::applicable(kind);
    let mut menu = Vec::with_capacity(batch_sizes.len() * techniques.len());
    for &batch_size in batch_sizes {
        for &technique in techniques {
            let config = ExecConfig {
                batch_size,
                technique,
            };
            menu.push(build_profile(model, kind, config, device));
        }
    }
    menu
}

/// The Executor's profile menu of a `(model, kind)` fill job on `device`:
/// one profile per configuration of [`FillJobSpec::BATCH_SIZES`] ×
/// [`ExecTechnique::applicable`]. A profile never depends on the bubbles,
/// so one menu serves every bubble cycle the job is planned into.
pub fn profile_menu(model: &ModelGraph, kind: JobKind, device: &DeviceSpec) -> Vec<JobProfile> {
    menu_over(model, kind, device, &FillJobSpec::BATCH_SIZES)
}

/// The highest isolated throughput among `menu`'s profiles that fit in
/// `hbm`, with the profile achieving it; the earliest wins a tie. `None`
/// if no profile fits.
pub fn exclusive_best_of(menu: &[JobProfile], hbm: Bytes) -> Option<(f64, &JobProfile)> {
    let mut best: Option<(f64, &JobProfile)> = None;
    for profile in menu {
        if profile.peak_memory() > hbm {
            continue;
        }
        let tput = profile.isolated_throughput();
        if best.is_none_or(|(t, _)| tput > t) {
            best = Some((tput, profile));
        }
    }
    best
}

/// The maximum throughput (samples/second) a job achieves "when executed
/// in isolation on one GPU" (§5.3) — full HBM, no interruptions. Used
/// both to size trace jobs and as the Fig. 7b slowdown baseline.
///
/// Returns the throughput and the profile that achieves it, or `None` if
/// no configuration fits device memory at all.
pub fn exclusive_throughput(
    model: &ModelGraph,
    kind: JobKind,
    device: &DeviceSpec,
    batch_sizes: &[usize],
) -> Option<(f64, JobProfile)> {
    let menu = menu_over(model, kind, device, batch_sizes);
    exclusive_best_of(&menu, device.hbm).map(|(t, p)| (t, p.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_model_zoo::ModelId;

    fn v100() -> DeviceSpec {
        DeviceSpec::v100()
    }

    fn cfg(batch_size: usize, technique: ExecTechnique) -> ExecConfig {
        ExecConfig {
            batch_size,
            technique,
        }
    }

    #[test]
    fn inference_profile_has_one_node_per_layer() {
        let m = ModelId::BertBase.build();
        let p = build_profile(
            &m,
            JobKind::BatchInference,
            cfg(8, ExecTechnique::Plain),
            &v100(),
        );
        assert_eq!(p.nodes.len(), m.layers.len());
        assert_eq!(p.samples_per_iteration, 8);
        assert!(p.iteration_flops() > 0.0);
    }

    #[test]
    fn training_profile_has_fwd_bwd_opt() {
        let m = ModelId::BertBase.build();
        let p = build_profile(&m, JobKind::Training, cfg(8, ExecTechnique::Plain), &v100());
        assert_eq!(p.nodes.len(), 2 * m.layers.len() + 1);
        // Training FLOPs ≈ 3× inference FLOPs.
        let inf = build_profile(
            &m,
            JobKind::BatchInference,
            cfg(8, ExecTechnique::Plain),
            &v100(),
        );
        let ratio = p.iteration_flops() / inf.iteration_flops();
        assert!((ratio - 3.0).abs() < 0.05, "ratio {ratio}");
    }

    #[test]
    fn training_needs_more_memory_than_inference() {
        let m = ModelId::BertLarge.build();
        let t = build_profile(
            &m,
            JobKind::Training,
            cfg(16, ExecTechnique::Plain),
            &v100(),
        );
        let i = build_profile(
            &m,
            JobKind::BatchInference,
            cfg(16, ExecTechnique::Plain),
            &v100(),
        );
        assert!(t.peak_memory() > i.peak_memory() * 2);
    }

    #[test]
    fn checkpointing_cuts_memory_but_costs_time() {
        let m = ModelId::BertLarge.build();
        let plain = build_profile(
            &m,
            JobKind::Training,
            cfg(32, ExecTechnique::Plain),
            &v100(),
        );
        let ck = build_profile(
            &m,
            JobKind::Training,
            cfg(32, ExecTechnique::ActivationCheckpointing),
            &v100(),
        );
        assert!(ck.peak_memory() < plain.peak_memory());
        assert!(ck.iteration_time() > plain.iteration_time());
    }

    #[test]
    fn optimizer_offload_frees_adam_state() {
        let m = ModelId::BertLarge.build();
        let plain = build_profile(&m, JobKind::Training, cfg(8, ExecTechnique::Plain), &v100());
        let off = build_profile(
            &m,
            JobKind::Training,
            cfg(8, ExecTechnique::OffloadOptimizer),
            &v100(),
        );
        let saved = plain.peak_memory() - off.peak_memory();
        // 12 bytes/param of Adam state moved to the host.
        let expect = Bytes::new(m.total_params() * 12);
        let err = (saved.as_f64() - expect.as_f64()).abs() / expect.as_f64();
        assert!(err < 0.05, "saved {saved}, expected {expect}");
        // But the optimizer step now pays PCIe + CPU time.
        assert!(off.iteration_time() > plain.iteration_time());
    }

    #[test]
    fn xlm_inference_needs_param_streaming_under_bubble_memory() {
        // §6.2: "XLM requires aggressive CPU-offloading" — its fp16
        // weights (≈5.7 GB) exceed the 4.5 GB bubble free-memory.
        let m = ModelId::XlmRobertaXl.build();
        let bubble = Bytes::from_gib_f64(4.5);
        let plain = build_profile(
            &m,
            JobKind::BatchInference,
            cfg(4, ExecTechnique::Plain),
            &v100(),
        );
        assert!(plain.peak_memory() > bubble);
        let streamed = build_profile(
            &m,
            JobKind::BatchInference,
            cfg(4, ExecTechnique::OffloadParams),
            &v100(),
        );
        assert!(streamed.peak_memory() < bubble);
        // Streaming is slower per sample.
        assert!(streamed.iteration_time() > plain.iteration_time());
    }

    #[test]
    fn bert_inference_is_the_best_bubble_citizen() {
        // Fig. 7a: BERT inference reaches the highest utilization because
        // large batches fit in little memory.
        let bert = ModelId::BertBase.build();
        let p = build_profile(
            &bert,
            JobKind::BatchInference,
            cfg(256, ExecTechnique::Plain),
            &v100(),
        );
        assert!(p.peak_memory() < Bytes::from_gib_f64(4.5));
    }

    #[test]
    fn exclusive_throughput_prefers_big_batches() {
        let m = ModelId::BertBase.build();
        let (tput, profile) =
            exclusive_throughput(&m, JobKind::BatchInference, &v100(), &[1, 8, 64, 256]).unwrap();
        assert!(profile.config.batch_size >= 64, "{}", profile.config);
        assert!(
            tput > 100.0,
            "BERT-base inference should exceed 100 samples/s, got {tput}"
        );
    }

    #[test]
    fn exclusive_throughput_exists_for_all_fill_jobs() {
        for id in ModelId::FILL_JOBS {
            let m = id.build();
            let kinds: &[JobKind] = if id.trainable_as_fill_job() {
                &[JobKind::Training, JobKind::BatchInference]
            } else {
                &[JobKind::BatchInference]
            };
            for &k in kinds {
                let r = exclusive_throughput(&m, k, &v100(), &[1, 2, 4, 8, 16, 32, 64, 128, 256]);
                assert!(r.is_some(), "{id} {k} has no feasible exclusive config");
            }
        }
    }

    #[test]
    fn memory_peaks_at_end_of_forward_for_plain_training() {
        let m = ModelId::BertBase.build();
        let p = build_profile(
            &m,
            JobKind::Training,
            cfg(16, ExecTechnique::Plain),
            &v100(),
        );
        let l = m.layers.len();
        // Peak is at the last forward node (all activations stored) and
        // the first backward node.
        let peak = p.peak_memory();
        assert_eq!(p.nodes[l - 1].memory.max(p.nodes[l].memory), peak);
        // Memory declines over the backward pass.
        assert!(p.nodes[2 * l - 1].memory < peak);
    }

    #[test]
    fn nvme_streaming_is_slower_but_not_bigger() {
        // The NVMe tier trades time, not memory: same resident window,
        // longer stalls (3.2 vs 12 GB/s on a V100).
        let m = ModelId::XlmRobertaXl.build();
        let host = build_profile(
            &m,
            JobKind::BatchInference,
            cfg(8, ExecTechnique::OffloadParams),
            &v100(),
        );
        let nvme = build_profile(
            &m,
            JobKind::BatchInference,
            cfg(8, ExecTechnique::OffloadParamsNvme),
            &v100(),
        );
        assert_eq!(nvme.peak_memory(), host.peak_memory());
        assert!(nvme.iteration_time() > host.iteration_time());
    }

    #[test]
    #[should_panic(expected = "not applicable")]
    fn inference_rejects_training_technique() {
        let m = ModelId::BertBase.build();
        let _ = build_profile(
            &m,
            JobKind::BatchInference,
            cfg(8, ExecTechnique::OffloadOptimizer),
            &v100(),
        );
    }
}
