//! The Fill Job Execution Plan Algorithm — the paper's Algorithm 1.
//!
//! Given the bubble cycle (the per-iteration sequence of bubble durations
//! and free-memory capacities) and a job profile, the planner:
//!
//! 1. replicates the linearized graph until its total duration approaches
//!    the cycle's total bubble time (Algorithm 1, lines 3–7);
//! 2. greedily packs source nodes of the remaining graph into successive
//!    bubbles without violating each bubble's duration or free-memory
//!    limit (lines 8–18).
//!
//! [`plan_best`] runs this for every feasible configuration (batch size ×
//! technique) and keeps the plan with the highest throughput, which is the
//! Executor's "choose a batch size and create partitions … that maximize
//! the amount of work completed during the pipeline bubbles" (§4.1).

use pipefill_device::{Bytes, DeviceSpec};
use pipefill_sim_core::SimDuration;
use serde::{Deserialize, Serialize};

use crate::config::{ExecConfig, ExecTechnique, ExecutorConfig};
use crate::job::FillJobSpec;
use crate::profile::{build_profile, JobProfile};

/// One contiguous chunk of graph nodes assigned to one bubble slot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Partition {
    /// Bubble-slot index in the cycle this partition runs in.
    pub bubble_index: usize,
    /// Total execution time of the nodes (already inflated by the
    /// cold-start factor).
    pub duration: SimDuration,
    /// Peak memory across the nodes.
    pub memory: Bytes,
    /// FLOPs executed.
    pub flops: f64,
    /// Number of graph nodes.
    pub node_count: usize,
    /// Fill-job iterations whose final node completes inside this
    /// partition.
    pub iterations_completed: u64,
}

/// Why planning failed for a configuration (or a whole job).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlanError {
    /// Some graph node cannot fit in any bubble: either it is longer than
    /// the longest usable bubble or needs more memory than any bubble
    /// offers.
    NodeDoesNotFit,
    /// The bubble cycle has no usable capacity (all bubbles shorter than
    /// the context-switch overhead).
    NoUsableBubbles,
    /// No configuration in the job's menu produced a feasible plan.
    NoFeasibleConfig,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NodeDoesNotFit => write!(f, "a graph node fits no bubble"),
            PlanError::NoUsableBubbles => write!(f, "no usable bubble capacity"),
            PlanError::NoFeasibleConfig => write!(f, "no feasible configuration"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A complete execution plan: partitions mapped cyclically onto the
/// bubble slots of successive main-job iterations.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExecutionPlan {
    /// The chosen configuration.
    pub config: ExecConfig,
    /// Partitions in execution order.
    pub partitions: Vec<Partition>,
    /// Graph replicas (fill-job iterations) packed per pass.
    pub iterations_per_pass: u64,
    /// Samples completed per pass.
    pub samples_per_pass: u64,
    /// FLOPs executed per pass.
    pub flops_per_pass: f64,
    /// Total bubble time occupied per pass (sum of partition durations,
    /// excluding context-switch overhead).
    pub busy_time_per_pass: SimDuration,
    /// Bubble slots in the cycle (= fillable windows per main-job
    /// iteration).
    pub bubbles_per_iteration: usize,
    /// Main-job iterations one pass spans.
    pub main_iterations_per_pass: u64,
}

impl ExecutionPlan {
    /// Samples completed per main-job iteration — the throughput metric
    /// `plan_best` maximizes.
    pub fn samples_per_main_iteration(&self) -> f64 {
        self.samples_per_pass as f64 / self.main_iterations_per_pass as f64
    }

    /// Main-job iterations needed to process `samples`.
    pub fn main_iterations_for(&self, samples: u64) -> u64 {
        let passes = samples.div_ceil(self.samples_per_pass.max(1));
        passes * self.main_iterations_per_pass
    }
}

/// Alias used throughout: one bubble slot = (usable duration, free memory).
pub type BubbleSlot = (SimDuration, Bytes);

/// Runs Algorithm 1 for one already-built profile.
///
/// # Errors
///
/// See [`PlanError`].
pub fn plan_for_config(
    profile: &JobProfile,
    bubbles: &[BubbleSlot],
    exec: &ExecutorConfig,
) -> Result<ExecutionPlan, PlanError> {
    exec.validate();
    // Usable capacity per bubble: the filled fraction minus switch cost.
    let caps: Vec<BubbleSlot> = bubbles
        .iter()
        .map(|&(d, m)| {
            (
                d.mul_f64(exec.fill_fraction)
                    .saturating_sub(exec.switch_overhead),
                m,
            )
        })
        .collect();
    let total_cap: SimDuration = caps.iter().map(|&(d, _)| d).sum();
    if total_cap.is_zero() {
        return Err(PlanError::NoUsableBubbles);
    }

    // Node durations as executed in bubbles (cold caches).
    let slowdown = 1.0 / exec.cold_start_factor;
    let node_dur: Vec<SimDuration> = profile
        .nodes
        .iter()
        .map(|n| n.duration.mul_f64(slowdown))
        .collect();
    let node_mem: Vec<Bytes> = profile.nodes.iter().map(|n| n.memory).collect();
    let node_flops: Vec<f64> = profile.nodes.iter().map(|n| n.flops).collect();
    let graph_dur: SimDuration = node_dur.iter().copied().sum();

    // Every node must fit in at least one bubble (duration and memory in
    // the same bubble).
    for (d, m) in node_dur.iter().zip(&node_mem) {
        if !caps.iter().any(|&(cd, cm)| *d <= cd && *m <= cm) {
            return Err(PlanError::NodeDoesNotFit);
        }
    }

    // Lines 3–7: replicate the graph while another copy still fits.
    let mut replicas = 1u64;
    let mut planned = graph_dur;
    while planned + graph_dur < total_cap {
        replicas += 1;
        planned += graph_dur;
    }
    let n_nodes = profile.nodes.len();
    let total_nodes = n_nodes * replicas as usize;

    // Lines 8–18: greedy packing into cyclic bubbles. `slot_steps` counts
    // every bubble slot consumed (including ones skipped for memory), so
    // the pass's main-iteration span is exact.
    let mut partitions = Vec::new();
    let mut next = 0usize; // index into the replicated node sequence
    let mut bubble_i = 0usize;
    let mut empty_streak = 0usize;
    let mut slot_steps = 0u64;
    while next < total_nodes {
        let (cap_d, cap_m) = caps[bubble_i];
        let mut dur = SimDuration::ZERO;
        let mut mem = Bytes::ZERO;
        let mut flops = 0.0;
        let mut count = 0usize;
        let mut iterations = 0u64;
        while next < total_nodes {
            let k = next % n_nodes;
            if dur + node_dur[k] > cap_d || node_mem[k] > cap_m {
                break;
            }
            dur += node_dur[k];
            mem = mem.max(node_mem[k]);
            flops += node_flops[k];
            count += 1;
            if k == n_nodes - 1 {
                iterations += 1;
            }
            next += 1;
        }
        if count == 0 {
            empty_streak += 1;
            // A full cycle without progress means the head node fits no
            // bubble under current occupancy — impossible by the
            // feasibility pre-check unless all bubbles were tried.
            if empty_streak >= caps.len() {
                return Err(PlanError::NodeDoesNotFit);
            }
        } else {
            empty_streak = 0;
            partitions.push(Partition {
                bubble_index: bubble_i,
                duration: dur,
                memory: mem,
                flops,
                node_count: count,
                iterations_completed: iterations,
            });
        }
        slot_steps += 1;
        bubble_i = (bubble_i + 1) % caps.len();
    }
    let main_iterations = slot_steps.div_ceil(caps.len() as u64).max(1);

    Ok(ExecutionPlan {
        config: profile.config,
        iterations_per_pass: replicas,
        samples_per_pass: replicas * profile.samples_per_iteration,
        flops_per_pass: partitions.iter().map(|p| p.flops).sum(),
        busy_time_per_pass: partitions.iter().map(|p| p.duration).sum(),
        bubbles_per_iteration: caps.len(),
        main_iterations_per_pass: main_iterations,
        partitions,
    })
}

/// Builds profiles for every configuration in the job's menu, plans each,
/// and returns the feasible plan with the most samples per main-job
/// iteration.
///
/// # Errors
///
/// [`PlanError::NoFeasibleConfig`] if nothing fits.
pub fn plan_best(
    job: &FillJobSpec,
    bubbles: &[BubbleSlot],
    device: &DeviceSpec,
    exec: &ExecutorConfig,
) -> Result<ExecutionPlan, PlanError> {
    let model = job.model_graph();
    let mut best: Option<ExecutionPlan> = None;
    for batch_size in FillJobSpec::BATCH_SIZES {
        for &technique in ExecTechnique::applicable(job.kind) {
            let profile = build_profile(
                &model,
                job.kind,
                ExecConfig {
                    batch_size,
                    technique,
                },
                device,
            );
            let Ok(plan) = plan_for_config(&profile, bubbles, exec) else {
                continue;
            };
            // Maximize throughput; break sample ties toward the plan
            // executing more FLOPs (e.g. prefer a bigger checkpointed
            // batch over a small plain one at equal sample rate).
            let key = |p: &ExecutionPlan| {
                (
                    p.samples_per_main_iteration(),
                    p.flops_per_pass / p.main_iterations_per_pass as f64,
                )
            };
            if best.as_ref().is_none_or(|b| key(&plan) > key(b)) {
                best = Some(plan);
            }
        }
    }
    best.ok_or(PlanError::NoFeasibleConfig)
}

/// Ablation baseline: no partitioning — the whole fill-job iteration must
/// fit inside a single bubble or the config is infeasible. This is what a
/// bubble-filler without Algorithm 1 could do.
///
/// # Errors
///
/// Same conditions as [`plan_for_config`], with the stricter whole-graph
/// fit requirement.
pub fn plan_whole_graph_only(
    profile: &JobProfile,
    bubbles: &[BubbleSlot],
    exec: &ExecutorConfig,
) -> Result<ExecutionPlan, PlanError> {
    exec.validate();
    let slowdown = 1.0 / exec.cold_start_factor;
    let graph_dur: SimDuration = profile
        .nodes
        .iter()
        .map(|n| n.duration.mul_f64(slowdown))
        .sum();
    let peak = profile.peak_memory();
    let caps: Vec<BubbleSlot> = bubbles
        .iter()
        .map(|&(d, m)| {
            (
                d.mul_f64(exec.fill_fraction)
                    .saturating_sub(exec.switch_overhead),
                m,
            )
        })
        .collect();
    let fitting: Vec<usize> = caps
        .iter()
        .enumerate()
        .filter(|&(_, &(d, m))| graph_dur <= d && peak <= m)
        .map(|(i, _)| i)
        .collect();
    if fitting.is_empty() {
        return Err(PlanError::NodeDoesNotFit);
    }
    // One whole iteration per fitting bubble per cycle.
    let partitions: Vec<Partition> = fitting
        .iter()
        .map(|&i| Partition {
            bubble_index: i,
            duration: graph_dur,
            memory: peak,
            flops: profile.iteration_flops(),
            node_count: profile.nodes.len(),
            iterations_completed: 1,
        })
        .collect();
    let iterations = partitions.len() as u64;
    Ok(ExecutionPlan {
        config: profile.config,
        iterations_per_pass: iterations,
        samples_per_pass: iterations * profile.samples_per_iteration,
        flops_per_pass: partitions.iter().map(|p| p.flops).sum(),
        busy_time_per_pass: partitions.iter().map(|p| p.duration).sum(),
        bubbles_per_iteration: caps.len(),
        main_iterations_per_pass: 1,
        partitions,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::NodeProfile;
    use pipefill_model_zoo::{JobKind, ModelId};

    fn exec() -> ExecutorConfig {
        ExecutorConfig {
            fill_fraction: 1.0,
            cold_start_factor: 1.0,
            switch_overhead: SimDuration::ZERO,
        }
    }

    fn uniform_profile(nodes: usize, ms: u64, mem_mib: u64) -> JobProfile {
        JobProfile {
            config: ExecConfig {
                batch_size: 4,
                technique: ExecTechnique::Plain,
            },
            nodes: (0..nodes)
                .map(|_| NodeProfile {
                    duration: SimDuration::from_millis(ms),
                    memory: Bytes::from_mib(mem_mib),
                    flops: 1.0e9,
                })
                .collect(),
            samples_per_iteration: 4,
        }
    }

    fn slots(spec: &[(u64, u64)]) -> Vec<BubbleSlot> {
        spec.iter()
            .map(|&(ms, gib)| (SimDuration::from_millis(ms), Bytes::from_gib(gib)))
            .collect()
    }

    #[test]
    fn partitions_respect_bubble_durations() {
        // Graph: 10 nodes × 30 ms = 300 ms. Bubbles: 100 ms and 65 ms.
        let profile = uniform_profile(10, 30, 100);
        let plan = plan_for_config(&profile, &slots(&[(100, 4), (65, 4)]), &exec()).unwrap();
        for p in &plan.partitions {
            let cap = if p.bubble_index == 0 { 100 } else { 65 };
            assert!(
                p.duration <= SimDuration::from_millis(cap),
                "partition {p:?} exceeds bubble {cap} ms"
            );
        }
        // All nodes of all replicas are packed.
        let total: usize = plan.partitions.iter().map(|p| p.node_count).sum();
        assert_eq!(total, 10 * plan.iterations_per_pass as usize);
    }

    #[test]
    fn replication_fills_available_time() {
        // Graph 100 ms; cycle 1000 ms => Algorithm 1 lines 3-7 replicate
        // while dur(F') + dur(F) < ΣB: 9 replicas (900 + 100 !< 1000).
        let profile = uniform_profile(10, 10, 10);
        let plan = plan_for_config(&profile, &slots(&[(1000, 4)]), &exec()).unwrap();
        assert_eq!(plan.iterations_per_pass, 9);
        assert_eq!(plan.samples_per_pass, 9 * 4);
    }

    #[test]
    fn memory_constraint_defers_to_fitting_bubble() {
        // Node needs 3 GiB; bubble 0 offers 1 GiB, bubble 1 offers 4 GiB.
        let profile = uniform_profile(4, 10, 3 * 1024);
        let plan = plan_for_config(&profile, &slots(&[(1000, 1), (1000, 4)]), &exec()).unwrap();
        for p in &plan.partitions {
            assert_eq!(p.bubble_index, 1, "all work must land in the 4 GiB bubble");
        }
    }

    #[test]
    fn oversized_node_is_rejected() {
        // 200 ms node, longest bubble 100 ms.
        let profile = uniform_profile(1, 200, 10);
        assert_eq!(
            plan_for_config(&profile, &slots(&[(100, 4), (50, 4)]), &exec()),
            Err(PlanError::NodeDoesNotFit)
        );
        // 8 GiB node, biggest bubble 4 GiB.
        let profile = uniform_profile(1, 10, 8 * 1024);
        assert_eq!(
            plan_for_config(&profile, &slots(&[(100, 4)]), &exec()),
            Err(PlanError::NodeDoesNotFit)
        );
    }

    #[test]
    fn zero_capacity_cycle_is_rejected() {
        let profile = uniform_profile(2, 10, 10);
        let tiny = ExecutorConfig {
            fill_fraction: 0.5,
            cold_start_factor: 1.0,
            switch_overhead: SimDuration::from_millis(100),
        };
        // 100 ms bubble × 0.5 − 100 ms switch = 0 usable.
        assert_eq!(
            plan_for_config(&profile, &slots(&[(100, 4)]), &tiny),
            Err(PlanError::NoUsableBubbles)
        );
    }

    #[test]
    fn fill_fraction_shrinks_capacity() {
        let profile = uniform_profile(10, 10, 10);
        let full = plan_for_config(&profile, &slots(&[(400, 4)]), &exec()).unwrap();
        assert_eq!(full.iterations_per_pass, 3);
        let capped = plan_for_config(
            &profile,
            &slots(&[(400, 4)]),
            &ExecutorConfig {
                fill_fraction: 0.5,
                cold_start_factor: 1.0,
                switch_overhead: SimDuration::ZERO,
            },
        )
        .unwrap();
        assert!(capped.iterations_per_pass < full.iterations_per_pass);
    }

    #[test]
    fn cold_start_inflates_node_time() {
        let profile = uniform_profile(10, 10, 10);
        let cold = plan_for_config(
            &profile,
            &slots(&[(200, 4)]),
            &ExecutorConfig {
                fill_fraction: 1.0,
                cold_start_factor: 0.5,
                switch_overhead: SimDuration::ZERO,
            },
        )
        .unwrap();
        // Nodes run at half speed: a 200 ms bubble fits 10 nodes of 20 ms.
        assert_eq!(cold.partitions[0].node_count, 10);
        assert_eq!(cold.partitions[0].duration, SimDuration::from_millis(200));
    }

    #[test]
    fn multi_iteration_pass_spans_main_iterations() {
        // Graph 400 ms, cycle capacity 100 ms/iteration => pass spans 4+
        // main iterations.
        let profile = uniform_profile(40, 10, 10);
        let plan = plan_for_config(&profile, &slots(&[(100, 4)]), &exec()).unwrap();
        assert!(plan.main_iterations_per_pass >= 4);
        assert_eq!(plan.main_iterations_for(4), plan.main_iterations_per_pass);
        assert_eq!(
            plan.main_iterations_for(8),
            2 * plan.main_iterations_per_pass
        );
    }

    #[test]
    fn plan_best_picks_bert_inference_plain() {
        let job = FillJobSpec::new(1, ModelId::BertBase, JobKind::BatchInference, 10_000);
        let bubbles = slots(&[(1900, 4), (1000, 4)]);
        let plan = plan_best(
            &job,
            &bubbles,
            &DeviceSpec::v100(),
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert_eq!(plan.config.technique, ExecTechnique::Plain);
        assert!(plan.config.batch_size >= 16, "{}", plan.config);
        assert!(plan.samples_per_main_iteration() > 0.0);
    }

    #[test]
    fn plan_best_uses_streaming_for_xlm() {
        // XLM's weights exceed 4.5 GB: only ZeRO-Infinity-style configs
        // are feasible (§6.2).
        let job = FillJobSpec::new(2, ModelId::XlmRobertaXl, JobKind::BatchInference, 1_000);
        let bubbles = slots(&[(1900, 4), (1000, 4)]);
        let plan = plan_best(
            &job,
            &bubbles,
            &DeviceSpec::v100(),
            &ExecutorConfig::default(),
        )
        .unwrap();
        assert!(plan.config.technique.streams_params(), "{}", plan.config);
    }

    #[test]
    fn whole_graph_baseline_is_no_better_than_algorithm1() {
        let job = FillJobSpec::new(3, ModelId::BertLarge, JobKind::BatchInference, 10_000);
        let model = job.model_graph();
        let bubbles = slots(&[(500, 4), (300, 4)]);
        let cfg = ExecutorConfig::default();
        let device = DeviceSpec::v100();
        let best = plan_best(&job, &bubbles, &device, &cfg).unwrap();
        // Compare against the naive baseline under the same best config.
        let profile = build_profile(&model, job.kind, best.config, &device);
        match plan_whole_graph_only(&profile, &bubbles, &cfg) {
            Ok(naive) => assert!(
                naive.samples_per_main_iteration() <= best.samples_per_main_iteration() + 1e-9
            ),
            Err(_) => { /* naive infeasible: Algorithm 1 strictly better */ }
        }
    }
}
