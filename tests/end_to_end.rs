//! End-to-end integration: trace generation → job conversion → planning →
//! cluster simulation → metrics, across every crate boundary.

use pipefill::core::{steady_recovered_tflops, ClusterSimConfig, CoarseBackend, PolicyKind};
use pipefill::executor::ExecutorConfig;
use pipefill::pipeline::{MainJobSpec, ScheduleKind};
use pipefill::sim::SimDuration;
use pipefill::trace::{ModelMix, TraceConfig};

fn base_config(seed: u64) -> ClusterSimConfig {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let mut trace = TraceConfig::physical(seed);
    trace.horizon = SimDuration::from_secs(3600);
    ClusterSimConfig::new(main, trace)
}

#[test]
fn cluster_simulation_full_stack() {
    let mut cfg = base_config(100);
    cfg.trace = cfg.trace.with_load(2.0);
    let result = CoarseBackend::simulate(cfg);

    assert_eq!(result.num_devices, 16);
    assert!(
        result.completed.len() > 50,
        "only {} jobs",
        result.completed.len()
    );
    assert!(result.rejected < result.completed.len() / 10);

    // Causality and accounting hold for every job.
    for job in &result.completed {
        assert!(job.started >= job.arrival, "{job:?}");
        assert!(job.completed > job.started, "{job:?}");
        assert!(job.flops > 0.0);
        assert!(job.samples > 0);
        assert!(job.device < 16);
    }

    // Utilization decomposition is sane: main + fill ≤ device peak.
    assert!(result.main_tflops_per_gpu > 10.0);
    assert!(result.recovered_tflops_per_gpu > 0.5);
    assert!(result.total_tflops_per_gpu() < 125.0);

    // JCT statistics derive from the completed set.
    assert_eq!(result.jct.count, result.completed.len());
    assert!(result.jct.mean_secs > 0.0);
    assert!(result.jct.p95_secs >= result.jct.median_secs);
}

#[test]
fn saturated_cluster_approaches_steady_state_rate() {
    // With a deep backlog, the event-driven simulator's recovered
    // utilization should approach the plan-level steady-state analysis —
    // the same consistency the paper exploits when its simulator replays
    // profiled patterns between events.
    let mut cfg = base_config(101);
    cfg.trace = cfg.trace.with_load(8.0); // deep backlog
    cfg.trace.horizon = SimDuration::from_secs(7200);
    let main = cfg.main_job.clone();
    let result = CoarseBackend::simulate(cfg);
    let steady = steady_recovered_tflops(&main, &ExecutorConfig::default(), &ModelMix::paper_mix());
    let ratio = result.recovered_tflops_per_gpu / steady;
    // The trace's model mix and job granularity differ from the
    // continuous steady model; agreement within ~35% confirms the two
    // paths measure the same thing.
    assert!(
        (0.65..1.35).contains(&ratio),
        "cluster {} vs steady {steady} (ratio {ratio})",
        result.recovered_tflops_per_gpu
    );
}

#[test]
fn policies_change_outcomes_not_throughput() {
    // Scheduling policy reshuffles completion order (JCT/makespan) but
    // saturated utilization is policy-insensitive.
    let run = |policy: PolicyKind| {
        let mut cfg = base_config(102);
        cfg.trace = cfg.trace.with_load(3.0);
        cfg.policy = policy;
        CoarseBackend::simulate(cfg)
    };
    let sjf = run(PolicyKind::Sjf);
    let fifo = run(PolicyKind::Fifo);
    assert_eq!(sjf.completed.len(), fifo.completed.len());
    let util_gap = (sjf.recovered_tflops_per_gpu - fifo.recovered_tflops_per_gpu).abs()
        / fifo.recovered_tflops_per_gpu;
    assert!(util_gap < 0.15, "utilization diverged {util_gap}");
    assert!(sjf.jct.mean_secs <= fifo.jct.mean_secs * 1.02);
}

#[test]
fn deadline_aware_policy_meets_more_deadlines() {
    let run = |policy: PolicyKind| {
        let mut cfg = base_config(103);
        cfg.trace = cfg.trace.with_load(2.5);
        cfg.trace.deadline_fraction = 0.5;
        cfg.policy = policy;
        let result = CoarseBackend::simulate(cfg);
        let spec_deadlines: Vec<_> = result
            .completed
            .iter()
            .filter(|j| j.arrival >= pipefill::sim::SimTime::ZERO)
            .collect();
        let _ = spec_deadlines;
        result
    };
    // Smoke-level: both run to completion and produce full metrics. The
    // deadline-aware policy must not lose jobs.
    let edf = run(PolicyKind::DeadlineThenSjf);
    let fifo = run(PolicyKind::Fifo);
    assert_eq!(edf.completed.len(), fifo.completed.len());
}

#[test]
fn forty_b_cluster_simulation_at_scale() {
    // The simulator main job (40B, 16 stages of TP=8) drives the same
    // machinery; one representative device per stage.
    let main = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe);
    let mut trace = TraceConfig::simulator(104).with_load(3.0);
    trace.horizon = SimDuration::from_secs(3 * 3600);
    let result = CoarseBackend::simulate(ClusterSimConfig::new(main, trace));
    assert!(result.bubble_ratio > 0.6);
    assert!(result.completed.len() > 20);
    assert!(result.recovered_tflops_per_gpu > 1.0);
}
