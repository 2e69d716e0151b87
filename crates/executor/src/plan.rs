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
//! [`plan_for_config`] runs this for one profile.
//! [`PreparedMenu::plan_best_of`] finds the feasible plan with the
//! highest throughput over a job's profile menu (batch size × technique),
//! its node durations scaled once by [`COLD_START_FACTOR`];
//! [`plan_best_of`] prepares the menu first, and [`plan_best`] also
//! builds it.
//! This is the Executor's "choose a batch size and create partitions …
//! that maximize the amount of work completed during the pipeline
//! bubbles" (§4.1).
//!
//! The menu search is best-bound-first and exact. A configuration whose
//! cold graph takes `g` against a cycle of total usable capacity `T`
//! (both in nanoseconds) packs `r = max(1, ⌊(T − 1) / g⌋)` replicas ([`replica_count`]), which
//! hold `r·g` of work. A pass visits a prefix of the cyclic slots, and
//! each slot holds at most its usable duration, so the pass spans at
//! least `⌈r·g / T⌉` main-job iterations. The configuration's samples per
//! main-job iteration are therefore at most
//! `r·samples_per_iteration / max(1, ⌈r·g / T⌉)` ([`rate_bound`]). The
//! search packs configurations in descending bound and stops at the
//! first bound below the best rate found, so it returns the plan the
//! exhaustive search in menu order would.

use std::cmp::Ordering;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};

use pipefill_device::{Bytes, DeviceSpec};
use pipefill_sim_core::SimDuration;

use crate::config::{ExecConfig, ExecutorConfig, COLD_START_FACTOR, SWITCH_OVERHEAD};
use crate::job::FillJobSpec;
use crate::profile::{profile_menu, JobProfile};

/// One contiguous chunk of graph nodes assigned to one bubble slot.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    /// Bubble-slot index in the cycle this partition runs in.
    pub bubble_index: usize,
    /// Total execution time of the nodes (already inflated by the
    /// [`COLD_START_FACTOR`]).
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// The graph takes no time: it has no nodes, or only instant ones.
    ZeroDurationGraph,
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::NodeDoesNotFit => write!(f, "a graph node fits no bubble"),
            PlanError::NoUsableBubbles => write!(f, "no usable bubble capacity"),
            PlanError::NoFeasibleConfig => write!(f, "no feasible configuration"),
            PlanError::ZeroDurationGraph => write!(f, "the job graph takes no time"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A complete execution plan: partitions mapped cyclically onto the
/// bubble slots of successive main-job iterations.
#[derive(Debug, Clone, PartialEq)]
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

/// Usable capacity of a bubble cycle: each slot's filled fraction minus
/// [`SWITCH_OVERHEAD`], at the slot's full free memory.
struct UsableCaps {
    slots: Vec<BubbleSlot>,
    /// Sum of the slots' usable durations.
    total: SimDuration,
    /// Longest usable duration of any slot.
    longest: SimDuration,
    /// Largest free memory of any slot.
    roomiest: Bytes,
}

impl UsableCaps {
    fn new(bubbles: &[BubbleSlot], exec: &ExecutorConfig) -> Self {
        let slots: Vec<BubbleSlot> = bubbles
            .iter()
            .map(|&(d, m)| {
                (
                    d.mul_f64(exec.fill_fraction)
                        .saturating_sub(SWITCH_OVERHEAD),
                    m,
                )
            })
            .collect();
        UsableCaps {
            total: slots.iter().map(|&(d, _)| d).sum(),
            longest: slots.iter().map(|&(d, _)| d).max().unwrap_or_default(),
            roomiest: slots.iter().map(|&(_, m)| m).max().unwrap_or_default(),
            slots,
        }
    }
}

/// One profile's node durations as executed in bubbles (cold caches,
/// [`COLD_START_FACTOR`]), with the summaries the menu search reads.
#[derive(Debug)]
struct ColdProfile {
    node_durations: Vec<SimDuration>,
    /// Sum of `node_durations`: one graph replica.
    duration: SimDuration,
    longest_node: SimDuration,
    largest_memory: Bytes,
}

impl ColdProfile {
    fn new(profile: &JobProfile) -> Self {
        let slowdown = 1.0 / COLD_START_FACTOR;
        let node_durations: Vec<SimDuration> = profile
            .nodes
            .iter()
            .map(|n| n.duration.mul_f64(slowdown))
            .collect();
        ColdProfile {
            duration: node_durations.iter().copied().sum(),
            longest_node: node_durations.iter().copied().max().unwrap_or_default(),
            largest_memory: profile.peak_memory(),
            node_durations,
        }
    }
}

/// A profile menu prepared for the best-bound-first search
/// ([`PreparedMenu::plan_best_of`]): every profile's node durations scaled
/// once by [`COLD_START_FACTOR`], with its graph duration, longest node
/// and largest node memory. Node memory and FLOPs are still read from the
/// menu's profiles.
#[derive(Debug)]
pub struct PreparedMenu {
    profiles: Vec<ColdProfile>,
    /// Configurations handed to the packer by every search so far.
    packed: AtomicUsize,
}

impl PreparedMenu {
    /// Prepares `menu` for plans.
    pub fn new(menu: &[JobProfile]) -> Self {
        PreparedMenu {
            profiles: menu.iter().map(ColdProfile::new).collect(),
            packed: AtomicUsize::new(0),
        }
    }

    /// Configurations that searches over this menu have run the packer
    /// on, out of the menu's length per search.
    pub fn configs_packed(&self) -> usize {
        self.packed.load(AtomicOrdering::Relaxed)
    }
}

/// Graph replicas Algorithm 1 packs per pass (lines 3–7: replicate while
/// another copy still fits strictly below the cycle's capacity): the
/// largest `r ≥ 1` with `r·graph < total_cap`, or 1.
///
/// # Panics
///
/// Panics if `graph` or `total_cap` is zero.
pub fn replica_count(graph: SimDuration, total_cap: SimDuration) -> u64 {
    assert!(
        !graph.is_zero() && !total_cap.is_zero(),
        "replica count needs a graph and a cycle that take time"
    );
    ((total_cap.as_nanos() - 1) / graph.as_nanos()).max(1)
}

/// An upper bound on the samples per main-job iteration of any plan that
/// packs a graph of cold duration `graph`, processing
/// `samples_per_iteration` per replica, into a cycle of total usable
/// capacity `total_cap` (see the module docs). It is computed with the
/// same integer numerator and float division as
/// [`ExecutionPlan::samples_per_main_iteration`], so the bound holds in
/// floating point too.
///
/// # Panics
///
/// Panics if `graph` or `total_cap` is zero.
pub fn rate_bound(graph: SimDuration, samples_per_iteration: u64, total_cap: SimDuration) -> f64 {
    let replicas = replica_count(graph, total_cap);
    let work = u128::from(replicas) * u128::from(graph.as_nanos());
    let span = work.div_ceil(u128::from(total_cap.as_nanos())).max(1);
    (replicas * samples_per_iteration) as f64 / span as f64
}

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
    let caps = UsableCaps::new(bubbles, exec);
    if caps.total.is_zero() {
        return Err(PlanError::NoUsableBubbles);
    }
    pack(profile, &ColdProfile::new(profile), &caps)
}

/// Algorithm 1 proper: packs `profile`, whose cold node durations are
/// `cold`, into `caps`, which must have usable capacity.
fn pack(
    profile: &JobProfile,
    cold: &ColdProfile,
    caps: &UsableCaps,
) -> Result<ExecutionPlan, PlanError> {
    let nodes = &profile.nodes;
    let node_dur = &cold.node_durations;
    let slots = &caps.slots;

    // Every node must fit in at least one bubble (duration and memory in
    // the same bubble).
    for (d, n) in node_dur.iter().zip(nodes) {
        if !slots.iter().any(|&(cd, cm)| *d <= cd && n.memory <= cm) {
            return Err(PlanError::NodeDoesNotFit);
        }
    }

    // Lines 3–7: replicate the graph while another copy still fits (an
    // instant graph always would).
    if cold.duration.is_zero() {
        return Err(PlanError::ZeroDurationGraph);
    }
    let replicas = replica_count(cold.duration, caps.total);
    let n_nodes = nodes.len();
    let total_nodes = n_nodes * replicas as usize;

    // Lines 8–18: greedy packing into cyclic bubbles. `slot_steps` counts
    // every bubble slot consumed (including ones skipped for memory), so
    // the pass's main-iteration span is exact.
    let mut partitions = Vec::new();
    let mut next = 0usize; // index into the replicated node sequence
    let mut k = 0usize; // `next`'s node within its replica
    let mut bubble_i = 0usize;
    let mut empty_streak = 0usize;
    let mut slot_steps = 0u64;
    while next < total_nodes {
        let (cap_d, cap_m) = slots[bubble_i];
        let mut dur = SimDuration::ZERO;
        let mut mem = Bytes::ZERO;
        let mut flops = 0.0;
        let mut count = 0usize;
        let mut iterations = 0u64;
        while next < total_nodes {
            let node = &nodes[k];
            if dur + node_dur[k] > cap_d || node.memory > cap_m {
                break;
            }
            dur += node_dur[k];
            mem = mem.max(node.memory);
            flops += node.flops;
            count += 1;
            k += 1;
            if k == n_nodes {
                iterations += 1;
                k = 0;
            }
            next += 1;
        }
        if count == 0 {
            empty_streak += 1;
            // A full cycle without progress means the head node fits no
            // bubble under current occupancy — impossible by the
            // feasibility pre-check unless all bubbles were tried.
            if empty_streak >= slots.len() {
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
        bubble_i = (bubble_i + 1) % slots.len();
    }
    let main_iterations = slot_steps.div_ceil(slots.len() as u64).max(1);

    Ok(ExecutionPlan {
        config: profile.config,
        iterations_per_pass: replicas,
        samples_per_pass: replicas * profile.samples_per_iteration,
        flops_per_pass: partitions.iter().map(|p| p.flops).sum(),
        busy_time_per_pass: partitions.iter().map(|p| p.duration).sum(),
        bubbles_per_iteration: slots.len(),
        main_iterations_per_pass: main_iterations,
        partitions,
    })
}

/// The order [`plan_best_of`] maximizes: throughput, then FLOPs per
/// main-job iteration, so a sample tie goes to the plan executing more
/// FLOPs (e.g. a bigger checkpointed batch over a small plain one at
/// equal sample rate).
fn plan_order(a: &ExecutionPlan, b: &ExecutionPlan) -> Ordering {
    let flops_rate = |p: &ExecutionPlan| p.flops_per_pass / p.main_iterations_per_pass as f64;
    a.samples_per_main_iteration()
        .total_cmp(&b.samples_per_main_iteration())
        .then_with(|| flops_rate(a).total_cmp(&flops_rate(b)))
}

impl PreparedMenu {
    /// Returns the feasible plan of `menu`, which this was prepared from,
    /// with the most samples per main-job iteration (then the most FLOPs
    /// per main-job iteration); the earliest in the menu wins a tie.
    /// Configurations are packed in descending [`rate_bound`] and the
    /// search stops at the first bound below the best rate found (see the
    /// module docs), so the result is the exhaustive search's.
    ///
    /// # Errors
    ///
    /// [`PlanError::NoFeasibleConfig`] if nothing fits.
    ///
    /// # Panics
    ///
    /// Panics if this was not prepared from a menu of `menu`'s length, or
    /// if `exec` is out of range.
    pub fn plan_best_of(
        &self,
        menu: &[JobProfile],
        bubbles: &[BubbleSlot],
        exec: &ExecutorConfig,
    ) -> Result<ExecutionPlan, PlanError> {
        exec.validate();
        assert_eq!(
            menu.len(),
            self.profiles.len(),
            "one prepared profile per config"
        );
        let caps = UsableCaps::new(bubbles, exec);
        if caps.total.is_zero() {
            return Err(PlanError::NoFeasibleConfig);
        }
        // A graph that takes no time is refused by the packer, and bounds
        // nothing.
        let mut by_bound: Vec<(f64, usize)> = self
            .profiles
            .iter()
            .zip(menu)
            .enumerate()
            .filter(|(_, (cold, _))| !cold.duration.is_zero())
            .map(|(i, (cold, profile))| {
                let bound = rate_bound(cold.duration, profile.samples_per_iteration, caps.total);
                (bound, i)
            })
            .collect();
        by_bound.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut best: Option<(ExecutionPlan, usize)> = None;
        for (bound, i) in by_bound {
            if best
                .as_ref()
                .is_some_and(|(b, _)| bound < b.samples_per_main_iteration())
            {
                break;
            }
            let cold = &self.profiles[i];
            // A node longer than every slot, or larger than every slot's
            // memory, fits no slot.
            if cold.longest_node > caps.longest || cold.largest_memory > caps.roomiest {
                continue;
            }
            self.packed.fetch_add(1, AtomicOrdering::Relaxed);
            let Ok(plan) = pack(&menu[i], cold, &caps) else {
                continue;
            };
            let wins = best
                .as_ref()
                .is_none_or(|(b, j)| plan_order(&plan, b).then(j.cmp(&i)) == Ordering::Greater);
            if wins {
                best = Some((plan, i));
            }
        }
        best.map(|(plan, _)| plan)
            .ok_or(PlanError::NoFeasibleConfig)
    }
}

/// Prepares `menu` and returns its best plan over `bubbles`
/// ([`PreparedMenu::plan_best_of`]).
///
/// # Errors
///
/// [`PlanError::NoFeasibleConfig`] if nothing fits.
pub fn plan_best_of(
    menu: &[JobProfile],
    bubbles: &[BubbleSlot],
    exec: &ExecutorConfig,
) -> Result<ExecutionPlan, PlanError> {
    PreparedMenu::new(menu).plan_best_of(menu, bubbles, exec)
}

/// Builds the job's [`profile_menu`] on `device` and returns its best plan
/// over `bubbles` ([`plan_best_of`]).
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
    let menu = profile_menu(&job.model_graph(), job.kind, device);
    plan_best_of(&menu, bubbles, exec)
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
    let graph_dur = ColdProfile::new(profile).duration;
    let peak = profile.peak_memory();
    let caps = UsableCaps::new(bubbles, exec).slots;
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
    use crate::config::ExecTechnique;
    use crate::profile::{build_profile, NodeProfile};
    use pipefill_model_zoo::{JobKind, ModelId};

    /// Fills whole bubbles. A slot of `d` ms then leaves `d − 5` ms
    /// usable ([`SWITCH_OVERHEAD`]), and a node of `3k` ms runs cold in
    /// `4k` ms ([`COLD_START_FACTOR`]).
    fn exec() -> ExecutorConfig {
        ExecutorConfig { fill_fraction: 1.0 }
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

    #[test]
    fn graphs_that_take_no_time_are_refused() {
        let bubble = [(SimDuration::from_millis(10), Bytes::from_gib(1))];
        for profile in [uniform_profile(0, 1, 64), uniform_profile(3, 0, 64)] {
            assert_eq!(
                plan_for_config(&profile, &bubble, &exec()),
                Err(PlanError::ZeroDurationGraph),
                "{} nodes",
                profile.nodes.len()
            );
        }
    }

    fn slots(spec: &[(u64, u64)]) -> Vec<BubbleSlot> {
        spec.iter()
            .map(|&(ms, gib)| (SimDuration::from_millis(ms), Bytes::from_gib(gib)))
            .collect()
    }

    #[test]
    fn partitions_respect_bubble_durations() {
        // Graph: 10 nodes of 30 ms, 40 ms each cold = 400 ms. Bubbles:
        // 105 ms and 70 ms, leaving 100 ms and 65 ms usable.
        let profile = uniform_profile(10, 30, 100);
        let plan = plan_for_config(&profile, &slots(&[(105, 4), (70, 4)]), &exec()).unwrap();
        assert_eq!(plan.partitions[0].node_count, 2);
        assert_eq!(plan.partitions[1].node_count, 1);
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
        // Graph 10 × 4 ms = 40 ms cold; cycle 405 ms, 400 ms usable =>
        // Algorithm 1 lines 3-7 replicate while dur(F') + dur(F) < ΣB:
        // 9 replicas (360 + 40 !< 400), all in the one slot.
        let profile = uniform_profile(10, 3, 10);
        let plan = plan_for_config(&profile, &slots(&[(405, 4)]), &exec()).unwrap();
        assert_eq!(plan.iterations_per_pass, 9);
        assert_eq!(plan.samples_per_pass, 9 * 4);
        assert_eq!(plan.partitions[0].node_count, 90);
        assert_eq!(plan.partitions[0].duration, SimDuration::from_millis(360));
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
        // A 75 ms node runs cold in 100 ms: the longest bubble, 104 ms,
        // leaves 99 ms usable; 105 ms would leave 100 ms.
        let profile = uniform_profile(1, 75, 10);
        assert_eq!(
            plan_for_config(&profile, &slots(&[(104, 4), (50, 4)]), &exec()),
            Err(PlanError::NodeDoesNotFit)
        );
        assert!(plan_for_config(&profile, &slots(&[(105, 4)]), &exec()).is_ok());
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
        let half = ExecutorConfig { fill_fraction: 0.5 };
        // 10 ms bubble × 0.5 − 5 ms switch = 0 usable.
        assert_eq!(
            plan_for_config(&profile, &slots(&[(10, 4)]), &half),
            Err(PlanError::NoUsableBubbles)
        );
    }

    #[test]
    fn fill_fraction_shrinks_capacity() {
        // Graph 40 ms cold. Filling all of a 165 ms bubble leaves 160 ms:
        // 3 replicas; filling half leaves 77.5 ms: 1.
        let profile = uniform_profile(10, 3, 10);
        let full = plan_for_config(&profile, &slots(&[(165, 4)]), &exec()).unwrap();
        assert_eq!(full.iterations_per_pass, 3);
        let capped = plan_for_config(
            &profile,
            &slots(&[(165, 4)]),
            &ExecutorConfig { fill_fraction: 0.5 },
        )
        .unwrap();
        assert_eq!(capped.iterations_per_pass, 1);
    }

    #[test]
    fn multi_iteration_pass_spans_main_iterations() {
        // Graph 40 × 4 ms = 160 ms cold, cycle capacity 40 ms/iteration
        // => one replica, 10 nodes a slot: the pass spans 4 main
        // iterations.
        let profile = uniform_profile(40, 3, 10);
        let plan = plan_for_config(&profile, &slots(&[(45, 4)]), &exec()).unwrap();
        assert_eq!(plan.iterations_per_pass, 1);
        assert_eq!(plan.main_iterations_per_pass, 4);
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
