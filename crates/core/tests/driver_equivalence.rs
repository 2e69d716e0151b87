//! The two drivers of a no-fault run agree exactly.
//!
//! `BackendDriver::run` takes a fresh no-fault pipeline-filling backend
//! off the event kernel: every pipeline runs pipeline-major to its end,
//! in parallel, and keeps its own completed ids. A driver stepped with
//! `step()` stays on the kernel, which logs each completion to the job
//! whose bubble completed it. Both must give the same `FleetSimResult`
//! (each job's completed-id order included, as the job-major sequence),
//! the same `BackendMetrics` bits and the same `events_dispatched`:
//! across shapes of different periods, staggered iteration counts, jobs
//! that decline filling, jitter on and off and fast-forward on and off.
//! The parallel run runs at one worker and at two.

use proptest::prelude::*;

use pipefill_core::{
    BackendDriver, BackendMetrics, FleetBackend, FleetJobConfig, FleetSimConfig, FleetSimResult,
    PhysicalBackend, PhysicalSimConfig, PhysicalSimResult, SimBackend,
};
use pipefill_model_zoo::ModelId;
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_sim_core::StepOutcome;
use pipefill_trace::ModelMix;

use pipefill_core::experiments::sweep::set_threads;

#[path = "support/widths.rs"]
mod widths;

use widths::one_and_two_workers;

/// Main-job shapes as (microbatches, schedule): four distinct periods.
const SHAPES: [(usize, ScheduleKind); 4] = [
    (8, ScheduleKind::GPipe),
    (4, ScheduleKind::GPipe),
    (8, ScheduleKind::OneFOneB),
    (6, ScheduleKind::ZbH1),
];

/// One job of a generated fleet: shape index, iterations, and whether it
/// declines filling.
type JobDraw = (usize, usize, u8);

/// A no-fault fleet. `quiet` is the regime fast-forward can fire in: a
/// deterministic one-model mix and small backlog jobs.
fn fleet(jobs: &[JobDraw], quiet: bool, jitter: bool, fast_forward: bool) -> FleetSimConfig {
    let jobs = jobs
        .iter()
        .enumerate()
        .map(|(j, &(shape, iterations, declines))| {
            let (microbatches, schedule) = SHAPES[shape];
            let mut job = FleetJobConfig::new(MainJobSpec::physical_5b(microbatches, schedule));
            job.iterations = iterations;
            job.seed = 100 + j as u64;
            if declines == 0 {
                job.executor.fill_fraction = 0.0;
            }
            job
        })
        .collect();
    let mut cfg = FleetSimConfig::new(jobs);
    if quiet {
        cfg.deterministic_mix = true;
        cfg.mix = ModelMix::single(ModelId::EfficientNet);
        cfg.backlog_job_gpu_hours = 0.0005;
    } else {
        cfg.backlog_job_gpu_hours = 0.002;
    }
    if !jitter {
        cfg.jitter_cv = 0.0;
    }
    cfg.fast_forward = fast_forward;
    cfg
}

/// Steps a fresh driver to the end on the kernel, then runs it.
fn stepped<B: SimBackend>(backend: B) -> (BackendMetrics, B) {
    let mut driver = BackendDriver::new(backend);
    while driver.step() == StepOutcome::Dispatched {}
    driver.run()
}

/// Every metrics field, floats by their exact bits.
fn metric_bits(m: &BackendMetrics) -> [u64; 13] {
    [
        m.kind as u64,
        m.num_devices as u64,
        m.elapsed.as_nanos(),
        m.events_dispatched,
        m.fill_flops.to_bits(),
        m.recovered_tflops_per_gpu.to_bits(),
        m.main_tflops_per_gpu.to_bits(),
        m.main_slowdown.to_bits(),
        m.bubble_ratio.to_bits(),
        m.jobs_completed as u64,
        m.evictions,
        m.lost_fill_flops.to_bits(),
        m.goodput_fraction.to_bits(),
    ]
}

/// Both drivers over one fleet config, under `build` (the fleet or the
/// fault label), the run at one worker and at two. Returns the run's
/// result for further checks.
fn fleet_agrees(cfg: FleetSimConfig, build: fn(FleetSimConfig) -> FleetBackend) -> FleetSimResult {
    let (kernel_metrics, kernel) = stepped(build(cfg.clone()));
    let kernel = kernel.into_result();
    for _width in one_and_two_workers() {
        let (metrics, backend) = BackendDriver::new(build(cfg.clone())).run();
        assert_eq!(metric_bits(&metrics), metric_bits(&kernel_metrics));
        assert_eq!(backend.into_result(), kernel);
    }
    kernel
}

/// Both drivers over one physical config.
fn physical_agrees(cfg: PhysicalSimConfig) -> PhysicalSimResult {
    let (metrics, backend) = BackendDriver::new(PhysicalBackend::new(cfg.clone())).run();
    let (kernel_metrics, kernel) = stepped(PhysicalBackend::new(cfg));
    let (run, kernel) = (backend.into_result(), kernel.into_result());
    assert_eq!(metric_bits(&metrics), metric_bits(&kernel_metrics));
    assert_eq!(run, kernel);
    run
}

fn job() -> impl Strategy<Value = JobDraw> {
    (0usize..SHAPES.len(), 0usize..240, 0u8..5)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn random_fleets_agree(
        jobs in prop::collection::vec(job(), 2..6),
        quiet in 0u8..2,
        jitter in 0u8..2,
        fast_forward in 0u8..2,
    ) {
        let cfg = fleet(&jobs, quiet == 1, jitter == 1, fast_forward == 1);
        fleet_agrees(cfg, FleetBackend::new);
    }

    #[test]
    fn one_job_fleets_agree(
        job in job(),
        quiet in 0u8..2,
        jitter in 0u8..2,
        fast_forward in 0u8..2,
    ) {
        let cfg = fleet(&[job], quiet == 1, jitter == 1, fast_forward == 1);
        fleet_agrees(cfg.clone(), FleetBackend::new);
        fleet_agrees(cfg, FleetBackend::fault);
    }
}

/// A quiescent fleet whose jobs skip: each skip's ids must land in its
/// job's log after that job's literal ids of the iterations before it.
#[test]
fn skipping_fleets_agree() {
    let jobs: Vec<JobDraw> = (0..5).map(|j| (j % 2, 300 + 17 * j, 1)).collect();
    let run = fleet_agrees(fleet(&jobs, true, false, true), FleetBackend::new);
    assert!(run.iterations_fast_forwarded > 0, "nothing skipped");
}

/// A one-pipeline run skips too, and keeps its ids in sequence: the
/// skip's ids follow the literal ids of its own iterations, not the run's.
#[test]
fn skipping_one_pipeline_runs_agree() {
    let run = fleet_agrees(fleet(&[(0, 400, 1)], true, false, true), FleetBackend::new);
    assert!(run.iterations_fast_forwarded > 0, "nothing skipped");
    let run = fleet_agrees(
        fleet(&[(2, 400, 1)], true, false, true),
        FleetBackend::fault,
    );
    assert!(run.iterations_fast_forwarded > 0, "nothing skipped");

    let mut phys = PhysicalSimConfig::new(MainJobSpec::physical_5b(8, ScheduleKind::GPipe))
        .with_mix(ModelMix::single(ModelId::EfficientNet));
    phys.iterations = 400;
    phys.jitter_cv = 0.0;
    phys.deterministic_mix = true;
    phys.backlog_job_gpu_hours = 0.0005;
    assert!(physical_agrees(phys.clone()).iterations_fast_forwarded > 0);
    phys.jitter_cv = 0.08;
    phys.memory_jitter_cv = 0.2;
    assert_eq!(physical_agrees(phys).iterations_fast_forwarded, 0);
}
