//! Reproducibility: every layer of the stack is a pure function of its
//! seeds and configuration, so every number in EXPERIMENTS.md can be
//! regenerated to the digit.

use pipefill::core::{ClusterSimConfig, CoarseBackend, PhysicalBackend, PhysicalSimConfig};
use pipefill::executor::{plan_best, ExecutorConfig, FillJobSpec};
use pipefill::models::{JobKind, ModelId};
use pipefill::pipeline::{MainJobSpec, ScheduleKind};
use pipefill::sim::SimDuration;
use pipefill::trace::{TraceConfig, TraceGenerator};

#[test]
fn engine_timeline_is_pure() {
    let a = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe).engine_timeline();
    let b = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe).engine_timeline();
    assert_eq!(a, b);
}

#[test]
fn plans_are_pure() {
    let main = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe);
    let timeline = main.engine_timeline();
    let slots: Vec<_> = timeline.stages[5]
        .fillable_windows()
        .iter()
        .map(|w| (w.duration, w.free_memory))
        .collect();
    let job = FillJobSpec::new(1, ModelId::BertLarge, JobKind::Training, 10_000);
    let a = plan_best(&job, &slots, &main.device, &ExecutorConfig::default()).unwrap();
    let b = plan_best(&job, &slots, &main.device, &ExecutorConfig::default()).unwrap();
    assert_eq!(a, b);
}

#[test]
fn traces_and_cluster_runs_reproduce() {
    let (t1, s1) = TraceGenerator::new(TraceConfig::physical(77)).generate();
    let (t2, s2) = TraceGenerator::new(TraceConfig::physical(77)).generate();
    assert_eq!(t1, t2);
    assert_eq!(s1, s2);

    let mk = || {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut trace = TraceConfig::physical(78);
        trace.horizon = SimDuration::from_secs(1200);
        CoarseBackend::simulate(ClusterSimConfig::new(main, trace))
    };
    let a = mk();
    let b = mk();
    assert_eq!(a, b);
}

#[test]
fn physical_sim_reproduces_and_seeds_differ() {
    let mk = |seed: u64| {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = PhysicalSimConfig::new(main);
        cfg.iterations = 60;
        cfg.seed = seed;
        PhysicalBackend::simulate(cfg)
    };
    assert_eq!(mk(5), mk(5));
    let a = mk(5);
    let c = mk(6);
    // Different seeds perturb the jittered measurements.
    assert!(a.fill_flops != c.fill_flops || a.main_slowdown != c.main_slowdown);
}
