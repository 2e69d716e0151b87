//! Property tests for Algorithm 1: the plan must respect every bubble's
//! duration and memory constraints for arbitrary graphs and cycles, pack
//! all nodes in order, and drive the executor to completion. A reference
//! copy of the original modulo-indexed greedy pins `plan_for_config`'s
//! packing field for field, and `plan_best` is pinned to the menu split.
//! An exhaustive menu-order search pins the best-bound-first
//! `plan_best_of`, and every feasible plan is pinned under its rate
//! bound.

use proptest::prelude::*;

use pipefill_device::{Bytes, DeviceSpec};
use pipefill_executor::plan::BubbleSlot;
use pipefill_executor::{
    plan_best, plan_best_of, plan_for_config, profile_menu, rate_bound, replica_count, ExecConfig,
    ExecTechnique, ExecutionPlan, ExecutorConfig, FillJobExecutor, FillJobSpec, JobProfile,
    NodeProfile, Partition, PlanError, COLD_START_FACTOR, SWITCH_OVERHEAD,
};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_sim_core::SimDuration;

fn profile_from(nodes: Vec<(u64, u64)>) -> JobProfile {
    JobProfile {
        config: ExecConfig {
            batch_size: 2,
            technique: ExecTechnique::Plain,
        },
        nodes: nodes
            .into_iter()
            .map(|(ms, mib)| NodeProfile {
                duration: SimDuration::from_millis(ms),
                memory: Bytes::from_mib(mib),
                flops: ms as f64 * 1e9,
            })
            .collect(),
        samples_per_iteration: 2,
    }
}

fn full_exec() -> ExecutorConfig {
    ExecutorConfig { fill_fraction: 1.0 }
}

/// A slot's usable duration: its filled fraction minus the switch cost.
fn usable(d: SimDuration, exec: &ExecutorConfig) -> SimDuration {
    d.mul_f64(exec.fill_fraction)
        .saturating_sub(SWITCH_OVERHEAD)
}

/// A node's duration as executed in bubbles (cold caches).
fn cold(d: SimDuration) -> SimDuration {
    d.mul_f64(1.0 / COLD_START_FACTOR)
}

/// The greedy packer as first written, indexing the replicated node
/// sequence with `next % n_nodes`: the reference `plan_for_config` must
/// reproduce field for field.
fn reference_plan(
    profile: &JobProfile,
    bubbles: &[BubbleSlot],
    exec: &ExecutorConfig,
) -> Result<ExecutionPlan, PlanError> {
    exec.validate();
    // Usable capacity per bubble: the filled fraction minus switch cost.
    let caps: Vec<BubbleSlot> = bubbles.iter().map(|&(d, m)| (usable(d, exec), m)).collect();
    let total_cap: SimDuration = caps.iter().map(|&(d, _)| d).sum();
    if total_cap.is_zero() {
        return Err(PlanError::NoUsableBubbles);
    }

    // Node durations as executed in bubbles (cold caches).
    let node_dur: Vec<SimDuration> = profile.nodes.iter().map(|n| cold(n.duration)).collect();
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

/// The menu search as first written: every profile planned in menu
/// order, a plan kept only when its (samples, FLOPs) rate beats the best
/// so far. The best-bound-first `plan_best_of` must return its plan.
fn exhaustive_best_of(
    menu: &[JobProfile],
    bubbles: &[BubbleSlot],
    exec: &ExecutorConfig,
) -> Result<ExecutionPlan, PlanError> {
    let key = |p: &ExecutionPlan| {
        (
            p.samples_per_main_iteration(),
            p.flops_per_pass / p.main_iterations_per_pass as f64,
        )
    };
    let mut best: Option<ExecutionPlan> = None;
    for profile in menu {
        let Ok(plan) = plan_for_config(profile, bubbles, exec) else {
            continue;
        };
        if best.as_ref().is_none_or(|b| key(&plan) > key(b)) {
            best = Some(plan);
        }
    }
    best.ok_or(PlanError::NoFeasibleConfig)
}

/// A menu of `picks.len()` profiles drawn, with repeats, from `graphs`
/// (nodes as `(ms, MiB)`, samples per iteration). Each entry is labelled
/// with its own batch size, so the plan of a tie shows which entry won.
fn menu_from(graphs: &[(Vec<(u64, u64)>, u64)], picks: &[usize]) -> Vec<JobProfile> {
    picks
        .iter()
        .enumerate()
        .map(|(i, &pick)| {
            let (nodes, samples) = &graphs[pick % graphs.len()];
            JobProfile {
                config: ExecConfig {
                    batch_size: i + 1,
                    technique: ExecTechnique::Plain,
                },
                samples_per_iteration: *samples,
                ..profile_from(nodes.clone())
            }
        })
        .collect()
}

/// The slots of `bubbles` (in ms, MiB) and the executor filling
/// `fill_pct` percent of each. With `zero_capacity`, every bubble is cut
/// to at most the switch cost (its length in ms, taken modulo the switch
/// cost in ns plus one), so its filled share is too and nothing in the
/// cycle is usable.
fn cycle(
    bubbles: &[(u64, u64)],
    fill_pct: u64,
    zero_capacity: bool,
) -> (Vec<BubbleSlot>, ExecutorConfig) {
    let slots: Vec<BubbleSlot> = bubbles
        .iter()
        .map(|&(ms, mib)| {
            let d = SimDuration::from_millis(ms);
            let d = if zero_capacity {
                SimDuration::from_nanos(d.as_nanos() % (SWITCH_OVERHEAD.as_nanos() + 1))
            } else {
                d
            };
            (d, Bytes::from_mib(mib))
        })
        .collect();
    let exec = ExecutorConfig {
        fill_fraction: fill_pct as f64 / 100.0,
    };
    (slots, exec)
}

/// Fill-job types the menu pin sweeps: both kinds, a dense and an
/// embedding-heavy model, and one that only fits by streaming.
const MENU_JOBS: [(ModelId, JobKind); 5] = [
    (ModelId::BertBase, JobKind::BatchInference),
    (ModelId::BertBase, JobKind::Training),
    (ModelId::EfficientNet, JobKind::Training),
    (ModelId::BertLarge, JobKind::BatchInference),
    (ModelId::XlmRobertaXl, JobKind::BatchInference),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `plan_for_config` packs exactly like the modulo-indexed reference:
    /// same partitions, pass span and error on random graphs and cycles.
    /// Memory-skipped slots come from node sizes above some bubbles' free
    /// memory, multi-replica passes from short graphs under long cycles,
    /// and `NodeDoesNotFit` from nodes larger than every bubble. Every
    /// generated graph has a node of at least 1 ms: on a graph that
    /// takes no time the reference never returns, while
    /// `plan_for_config` refuses it with `ZeroDurationGraph`.
    #[test]
    fn packing_matches_the_modulo_reference(
        nodes in prop::collection::vec((1u64..150, 1u64..2200), 1..16),
        bubbles in prop::collection::vec((20u64..2500, 512u64..2560), 1..6),
        fill_pct in 50u64..101,
    ) {
        let profile = profile_from(nodes);
        let slots: Vec<BubbleSlot> = bubbles
            .iter()
            .map(|&(ms, mib)| (SimDuration::from_millis(ms), Bytes::from_mib(mib)))
            .collect();
        let exec = ExecutorConfig {
            fill_fraction: fill_pct as f64 / 100.0,
        };
        prop_assert_eq!(
            plan_for_config(&profile, &slots, &exec),
            reference_plan(&profile, &slots, &exec)
        );
    }

    /// `plan_best` is `plan_best_of` over the job's profile menu, for
    /// real fill-job types on random cycles and both device generations.
    #[test]
    fn plan_best_is_the_best_of_its_menu(
        job in 0usize..MENU_JOBS.len(),
        bubbles in prop::collection::vec((50u64..3000, 512u64..8192), 1..5),
        h100 in 0u64..2,
    ) {
        let (model, kind) = MENU_JOBS[job];
        let device = if h100 == 1 { DeviceSpec::h100() } else { DeviceSpec::v100() };
        let slots: Vec<BubbleSlot> = bubbles
            .iter()
            .map(|&(ms, mib)| (SimDuration::from_millis(ms), Bytes::from_mib(mib)))
            .collect();
        let exec = ExecutorConfig::default();
        let spec = FillJobSpec::new(1, model, kind, 1_000);
        let menu = profile_menu(&model.build(), kind, &device);
        prop_assert_eq!(
            menu.len(),
            FillJobSpec::BATCH_SIZES.len() * ExecTechnique::applicable(kind).len()
        );
        prop_assert_eq!(
            plan_best(&spec, &slots, &device, &exec),
            plan_best_of(&menu, &slots, &exec)
        );
    }

    /// The best-bound-first search returns exactly the exhaustive
    /// menu-order search's plan (or error) on random menus: repeated
    /// graphs make ties the earliest entry must win, nodes up to 2.2 GiB
    /// and 400 ms miss some cycles on memory or duration, and some cycles
    /// have no usable capacity at all (one in ten).
    #[test]
    fn best_bound_first_matches_the_exhaustive_search(
        graphs in prop::collection::vec(
            (prop::collection::vec((0u64..400, 1u64..2200), 1..12), 1u64..9),
            1..6,
        ),
        picks in prop::collection::vec(0usize..6, 1..14),
        bubbles in prop::collection::vec((5u64..2500, 512u64..2560), 1..6),
        fill_pct in 50u64..101,
        zero_capacity in 0u64..10,
    ) {
        let menu = menu_from(&graphs, &picks);
        let (slots, exec) = cycle(&bubbles, fill_pct, zero_capacity == 0);
        prop_assert_eq!(
            plan_best_of(&menu, &slots, &exec),
            exhaustive_best_of(&menu, &slots, &exec)
        );
    }

    /// The same on real fill-job menus (18 to 60 configurations) under
    /// random cycles and fill fractions.
    #[test]
    fn real_menus_match_the_exhaustive_search(
        job in 0usize..MENU_JOBS.len(),
        bubbles in prop::collection::vec((20u64..3000, 512u64..8192), 1..5),
        h100 in 0u64..2,
        fill_pct in 50u64..101,
    ) {
        let (model, kind) = MENU_JOBS[job];
        let device = if h100 == 1 { DeviceSpec::h100() } else { DeviceSpec::v100() };
        let menu = profile_menu(&model.build(), kind, &device);
        let (slots, exec) = cycle(&bubbles, fill_pct, false);
        prop_assert_eq!(
            plan_best_of(&menu, &slots, &exec),
            exhaustive_best_of(&menu, &slots, &exec)
        );
    }

    /// Every feasible configuration's samples per main-job iteration are
    /// at most its rate bound, and it packs the closed-form replica count.
    #[test]
    fn feasible_plans_stay_within_their_rate_bound(
        graphs in prop::collection::vec(
            (prop::collection::vec((1u64..400, 1u64..2200), 1..12), 1u64..9),
            1..4,
        ),
        bubbles in prop::collection::vec((5u64..2500, 512u64..2560), 1..6),
        fill_pct in 50u64..101,
    ) {
        let menu = menu_from(&graphs, &(0..graphs.len()).collect::<Vec<_>>());
        let (slots, exec) = cycle(&bubbles, fill_pct, false);
        let total_cap: SimDuration = slots.iter().map(|&(d, _)| usable(d, &exec)).sum();
        for profile in &menu {
            let Ok(plan) = plan_for_config(profile, &slots, &exec) else {
                continue;
            };
            let graph: SimDuration = profile.nodes.iter().map(|n| cold(n.duration)).sum();
            prop_assert_eq!(plan.iterations_per_pass, replica_count(graph, total_cap));
            let bound = rate_bound(graph, profile.samples_per_iteration, total_cap);
            prop_assert!(
                plan.samples_per_main_iteration() <= bound,
                "{} > bound {}",
                plan.samples_per_main_iteration(),
                bound
            );
        }
    }

    /// The closed-form replica count is Algorithm 1's replication loop.
    #[test]
    fn replica_count_is_the_replication_loop(
        graph_ns in 1u64..5_000,
        total_ns in 1u64..200_000,
    ) {
        let (graph, total) = (SimDuration::from_nanos(graph_ns), SimDuration::from_nanos(total_ns));
        let mut replicas = 1u64;
        let mut planned = graph;
        while planned + graph < total {
            replicas += 1;
            planned += graph;
        }
        prop_assert_eq!(replica_count(graph, total), replicas);
    }

    /// Every partition honours its bubble slot's usable duration and
    /// memory limits; all replicated nodes are packed exactly once, in
    /// order.
    #[test]
    fn partitions_respect_all_constraints(
        nodes in prop::collection::vec((1u64..50, 1u64..512), 1..30),
        bubbles in prop::collection::vec((60u64..500, 256u64..2048), 1..6),
    ) {
        let profile = profile_from(nodes.clone());
        let slots: Vec<(SimDuration, Bytes)> = bubbles
            .iter()
            .map(|&(ms, mib)| (SimDuration::from_millis(ms), Bytes::from_mib(mib)))
            .collect();
        let exec = full_exec();
        let caps: Vec<(SimDuration, Bytes)> =
            slots.iter().map(|&(d, m)| (usable(d, &exec), m)).collect();
        match plan_for_config(&profile, &slots, &exec) {
            Err(PlanError::NodeDoesNotFit) => {
                // Legitimate only if some node really fits no bubble.
                let unfit = profile.nodes.iter().any(|n| {
                    !caps.iter().any(|&(d, m)| cold(n.duration) <= d && n.memory <= m)
                });
                prop_assert!(unfit, "planner gave up although every node fits somewhere");
            }
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            Ok(plan) => {
                for part in &plan.partitions {
                    let (cap_d, cap_m) = caps[part.bubble_index];
                    prop_assert!(part.duration <= cap_d, "duration violated");
                    prop_assert!(part.memory <= cap_m, "memory violated");
                    prop_assert!(part.node_count > 0);
                }
                let packed: usize = plan.partitions.iter().map(|p| p.node_count).sum();
                prop_assert_eq!(
                    packed,
                    profile.nodes.len() * plan.iterations_per_pass as usize,
                    "not every node packed exactly once"
                );
                let iters: u64 = plan.partitions.iter().map(|p| p.iterations_completed).sum();
                prop_assert_eq!(iters, plan.iterations_per_pass);
                // Replication is bounded by Algorithm 1 line 4.
                let graph: SimDuration = profile.nodes.iter().map(|n| cold(n.duration)).sum();
                let total: SimDuration = caps.iter().map(|&(d, _)| d).sum();
                if plan.iterations_per_pass > 1 {
                    prop_assert!(graph * plan.iterations_per_pass < total + graph);
                }
            }
        }
    }

    /// Fill-fraction scaling: a smaller fraction never packs more work
    /// per pass-iteration.
    #[test]
    fn fill_fraction_monotonicity(
        nodes in prop::collection::vec((1u64..30, 1u64..256), 1..15),
        frac_pct in 30u64..100,
    ) {
        let profile = profile_from(nodes);
        let slots = vec![(SimDuration::from_millis(600), Bytes::from_mib(2048))];
        let full = plan_for_config(&profile, &slots, &full_exec());
        let partial = plan_for_config(
            &profile,
            &slots,
            &ExecutorConfig {
                fill_fraction: frac_pct as f64 / 100.0,
            },
        );
        if let (Ok(f), Ok(p)) = (full, partial) {
            prop_assert!(
                p.samples_per_main_iteration() <= f.samples_per_main_iteration() + 1e-9
            );
        }
    }

    /// The executor driven slot-by-slot completes any finite job, and
    /// its FLOPs/time accounting matches the partitions it executed.
    #[test]
    fn executor_completes_and_accounts(samples in 1u64..5_000, seed in 0u64..8) {
        // Vary the job type with the seed for coverage.
        let (model, kind) = match seed % 4 {
            0 => (ModelId::BertBase, JobKind::BatchInference),
            1 => (ModelId::BertBase, JobKind::Training),
            2 => (ModelId::BertLarge, JobKind::BatchInference),
            _ => (ModelId::EfficientNet, JobKind::BatchInference),
        };
        let job = FillJobSpec::new(seed, model, kind, samples);
        let slots = vec![
            (SimDuration::from_millis(1900), Bytes::from_gib_f64(4.5)),
            (SimDuration::from_millis(1000), Bytes::from_gib_f64(4.5)),
        ];
        let plan = pipefill_executor::plan_best(
            &job,
            &slots,
            &pipefill_device::DeviceSpec::v100(),
            &ExecutorConfig::default(),
        ).unwrap();
        let mut ex = FillJobExecutor::new(job, plan);
        let mut flops = 0.0;
        let mut time = SimDuration::ZERO;
        let mut slot = 0usize;
        let mut guard = 0u64;
        while !ex.is_complete() {
            let r = ex.on_bubble(slot);
            flops += r.flops;
            time += r.time_used;
            slot = (slot + 1) % 2;
            guard += 1;
            prop_assert!(guard < 10_000_000, "did not terminate");
        }
        prop_assert_eq!(ex.samples_done(), samples);
        prop_assert!((ex.flops_done() - flops).abs() < 1.0);
        prop_assert_eq!(ex.bubble_time_used(), time);
    }
}
