//! Cross-backend conformance: one parameterized harness that drives every
//! `BackendConfig` arm — coarse, physical, fault, fleet — through the
//! shared `BackendDriver` and asserts the invariants the whole backend
//! family must uphold, whatever its fidelity:
//!
//! * the kernel clock never moves backwards while stepping;
//! * `metrics()` fields are finite, non-negative and internally
//!   consistent;
//! * reruns from the same seed are bit-identical;
//! * drain accounts every scheduled job exactly once (no losses, no
//!   double completions);
//! * the fault backend with MTBF = ∞ agrees with the physical backend
//!   within the Fig. 6 tolerance;
//! * a 1-job homogeneous fleet reproduces the physical backend bit for
//!   bit.

use pipefill::core::experiments::validation::AGREEMENT_TOLERANCE;
use pipefill::core::{
    BackendConfig, BackendDriver, BackendMetrics, ClusterSimConfig, CoarseBackend, FleetBackend,
    FleetSimConfig, PhysicalBackend, PhysicalSimConfig, SimBackend,
};
use pipefill::pipeline::{MainJobSpec, ScheduleKind};
use pipefill::sim::{SimDuration, SimTime, StepOutcome};
use pipefill::trace::{FleetWorkloadConfig, TraceConfig, TraceGenerator};

fn coarse_config(seed: u64) -> ClusterSimConfig {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let mut trace = TraceConfig::physical(seed);
    trace.horizon = SimDuration::from_secs(900);
    ClusterSimConfig::new(main, trace)
}

fn physical_config(seed: u64) -> PhysicalSimConfig {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let mut cfg = PhysicalSimConfig::new(main);
    cfg.iterations = 60;
    cfg.seed = seed;
    cfg
}

/// The fault fidelity: the physical job as a one-job fleet with a
/// 400 s MTBF.
fn fault_config(seed: u64) -> FleetSimConfig {
    FleetSimConfig::from_physical(&physical_config(seed)).with_mtbf(SimDuration::from_secs(400))
}

/// A small heterogeneous fleet with fault injection, so the global
/// queue's eviction/requeue path is exercised by the harness.
fn fleet_config(seed: u64) -> FleetSimConfig {
    let mut workload = FleetWorkloadConfig::new(3, 3 * 128, seed);
    workload.iterations = 60;
    FleetSimConfig::from_workload(&workload).with_mtbf(SimDuration::from_secs(400))
}

/// The parameterized harness: every backend must pass this, whatever its
/// fidelity level.
fn check_conformance<B: SimBackend>(label: &str, mk: impl Fn() -> B) -> BackendMetrics {
    // 1. Monotone kernel clock under single-stepping.
    let mut driver = BackendDriver::new(mk());
    let mut prev = SimTime::ZERO;
    let mut steps = 0u64;
    while driver.step() == StepOutcome::Dispatched {
        let now = driver.now();
        assert!(
            now >= prev,
            "{label}: clock moved backwards at step {steps}"
        );
        prev = now;
        steps += 1;
        assert!(steps < 50_000_000, "{label}: runaway event loop");
    }
    assert!(steps > 0, "{label}: backend dispatched nothing");

    // 2. Metrics are finite, non-negative and internally consistent.
    let (metrics, _) = BackendDriver::new(mk()).run();
    assert_eq!(
        metrics.events_dispatched, steps,
        "{label}: step/run mismatch"
    );
    assert!(metrics.num_devices > 0, "{label}");
    assert!(metrics.elapsed > SimDuration::ZERO, "{label}");
    for (name, value) in [
        ("fill_flops", metrics.fill_flops),
        ("recovered_tflops_per_gpu", metrics.recovered_tflops_per_gpu),
        ("main_tflops_per_gpu", metrics.main_tflops_per_gpu),
        ("main_slowdown", metrics.main_slowdown),
        ("bubble_ratio", metrics.bubble_ratio),
        ("lost_fill_flops", metrics.lost_fill_flops),
        ("goodput_fraction", metrics.goodput_fraction),
    ] {
        assert!(
            value.is_finite() && value >= 0.0,
            "{label}: {name} = {value}"
        );
    }
    assert!((0.0..=1.0).contains(&metrics.bubble_ratio), "{label}");
    assert!((0.0..=1.0).contains(&metrics.goodput_fraction), "{label}");
    assert!(metrics.total_tflops_per_gpu() >= metrics.main_tflops_per_gpu);

    // 3. Bit-identical rerun from the same configuration.
    let (again, _) = BackendDriver::new(mk()).run();
    assert_eq!(metrics, again, "{label}: rerun diverged");

    metrics
}

#[test]
fn coarse_backend_conforms() {
    for seed in [1u64, 2, 3] {
        let metrics = check_conformance("coarse", || CoarseBackend::new(coarse_config(seed)));
        // Drain accounts jobs exactly once: every completed job is
        // distinct, the metrics agree with the ledger, and no job is
        // conjured beyond what the trace scheduled.
        let (m2, backend) = BackendDriver::new(CoarseBackend::new(coarse_config(seed))).run();
        assert_eq!(metrics, m2);
        let detail = backend.into_result();
        assert_eq!(detail.completed.len(), metrics.jobs_completed);
        let mut ids: Vec<_> = detail.completed.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(n, ids.len(), "coarse: a job completed twice");
        let (trace_jobs, _) = TraceGenerator::new(coarse_config(seed).trace).generate();
        assert!(
            detail.completed.len() + detail.rejected <= trace_jobs.len(),
            "coarse: more outcomes than arrivals"
        );
    }
}

#[test]
fn physical_backend_conforms() {
    for seed in [1u64, 2, 3] {
        let metrics = check_conformance("physical", || PhysicalBackend::new(physical_config(seed)));
        let (_, backend) = BackendDriver::new(PhysicalBackend::new(physical_config(seed))).run();
        let detail = backend.into_result();
        assert_eq!(detail.jobs_completed, metrics.jobs_completed);
        assert_eq!(detail.fill_flops, metrics.fill_flops);
    }
}

#[test]
fn fault_backend_conforms() {
    for seed in [1u64, 2, 3] {
        let metrics = check_conformance("fault", || FleetBackend::fault(fault_config(seed)));
        let (_, backend) = BackendDriver::new(FleetBackend::fault(fault_config(seed))).run();
        let detail = backend.into_result();
        // Exactly-once job accounting survives eviction/revival churn.
        assert_eq!(detail.completed_fill_ids.len(), metrics.jobs_completed);
        let mut ids = detail.completed_fill_ids.clone();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(n, ids.len(), "fault: a job completed twice");
        // Executed work splits exactly into surviving + lost.
        assert_eq!(detail.fill_flops, metrics.fill_flops);
        assert_eq!(detail.lost_fill_flops, metrics.lost_fill_flops);
        assert!(detail.failures > 0, "seed {seed}: 400s MTBF never fired");
    }
}

#[test]
fn fleet_backend_conforms() {
    for seed in [1u64, 2, 3] {
        let metrics = check_conformance("fleet", || FleetBackend::new(fleet_config(seed)));
        let (_, backend) = BackendDriver::new(FleetBackend::new(fleet_config(seed))).run();
        let detail = backend.into_result();
        // Exactly-once fill-job accounting survives the global queue's
        // eviction/requeue churn across job boundaries.
        assert_eq!(detail.fill_jobs_completed, metrics.jobs_completed);
        let mut ids = detail.completed_fill_ids.clone();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(n, ids.len(), "fleet: a fill job completed twice");
        // Executed work splits exactly into surviving + lost.
        assert_eq!(detail.fill_flops, metrics.fill_flops);
        assert_eq!(detail.lost_fill_flops, metrics.lost_fill_flops);
        assert!(detail.failures > 0, "seed {seed}: 400s MTBF never fired");
        // The aggregate view is consistent with the per-job ledger.
        assert_eq!(
            detail.jobs.iter().map(|j| j.fill_flops).sum::<f64>(),
            detail.fill_flops
        );
        assert_eq!(
            detail.jobs.iter().map(|j| j.evictions).sum::<u64>(),
            detail.evictions
        );
        assert_eq!(detail.num_devices, metrics.num_devices);
    }
}

/// Schedule diversity: every fidelity runs every canonical schedule —
/// GPipe, 1F1B, interleaved 1F1B, ZB-H1 — through the full conformance
/// harness, and the derived bubble geometry orders the way the theory
/// says: ZB-H1 leaves less total bubble than 1F1B/GPipe.
#[test]
fn all_backends_conform_on_every_schedule() {
    for schedule in ScheduleKind::ALL {
        let main = || MainJobSpec::physical_5b(8, schedule);

        let coarse = check_conformance(&format!("coarse/{schedule}"), || {
            let mut trace = TraceConfig::physical(3);
            trace.horizon = SimDuration::from_secs(900);
            CoarseBackend::new(ClusterSimConfig::new(main(), trace))
        });
        let phys = check_conformance(&format!("physical/{schedule}"), || {
            let mut cfg = PhysicalSimConfig::new(main());
            cfg.iterations = 40;
            cfg.seed = 3;
            PhysicalBackend::new(cfg)
        });
        let fault = check_conformance(&format!("fault/{schedule}"), || {
            let mut cfg = PhysicalSimConfig::new(main());
            cfg.iterations = 40;
            cfg.seed = 3;
            FleetBackend::fault(
                FleetSimConfig::from_physical(&cfg).with_mtbf(SimDuration::from_secs(400)),
            )
        });
        let fleet = check_conformance(&format!("fleet/{schedule}"), || {
            let mut workload = FleetWorkloadConfig::new(2, 2 * 128, 3);
            workload.iterations = 40;
            FleetBackend::new(FleetSimConfig::from_workload_scheduled(&workload, schedule))
        });

        // All fidelities agree on the engine-derived bubble ratio of the
        // same main job (the fleet runs different jobs, so it only has
        // to be sane).
        assert_eq!(coarse.bubble_ratio, phys.bubble_ratio, "{schedule}");
        assert_eq!(phys.bubble_ratio, fault.bubble_ratio, "{schedule}");
        assert!(fleet.bubble_ratio > 0.0, "{schedule}");
    }

    // The geometry ordering across schedules on the fixed 5B job.
    let ratio = |schedule| {
        MainJobSpec::physical_5b(8, schedule)
            .engine_timeline()
            .bubble_ratio()
    };
    let gpipe = ratio(ScheduleKind::GPipe);
    let ofob = ratio(ScheduleKind::OneFOneB);
    let zb = ratio(ScheduleKind::ZbH1);
    assert!(zb < ofob, "ZB-H1 {zb} vs 1F1B {ofob}");
    // Inter-stage comm latency perturbs the two periods slightly (the
    // same 2% the fig8 driver tolerates); without comm they are equal.
    assert!((ofob - gpipe).abs() < 0.02, "1F1B {ofob} vs GPipe {gpipe}");
}

/// The tentpole's conformance pin: 1-chunk interleaved reproduces 1F1B
/// **bit for bit** — identical engine timelines and identical physical-
/// backend metrics, fill FLOPs included.
#[test]
fn one_chunk_interleaved_reproduces_one_f_one_b_bit_for_bit() {
    let mk = |schedule| {
        let main = MainJobSpec::physical_5b(8, schedule);
        assert_eq!(
            main.engine_timeline(),
            MainJobSpec::physical_5b(8, ScheduleKind::OneFOneB).engine_timeline(),
            "engine timelines must match bit for bit"
        );
        let mut cfg = PhysicalSimConfig::new(main);
        cfg.iterations = 60;
        cfg.seed = 5;
        BackendConfig::Physical(cfg).run()
    };
    let interleaved = mk(ScheduleKind::Interleaved { chunks: 1 });
    let ofob = mk(ScheduleKind::OneFOneB);
    assert_eq!(interleaved.metrics, ofob.metrics);
    let il_detail = interleaved.physical().expect("physical detail");
    let ofob_detail = ofob.physical().expect("physical detail");
    assert_eq!(il_detail.fill_flops, ofob_detail.fill_flops);
    assert_eq!(il_detail.jobs_completed, ofob_detail.jobs_completed);
    assert_eq!(il_detail.main_slowdown, ofob_detail.main_slowdown);
    assert_eq!(il_detail.nominal_period, ofob_detail.nominal_period);
}

/// The fleet acceptance gate: a fleet of exactly one homogeneous job —
/// no faults, physical workload defaults — must reproduce the physical
/// backend **bit for bit**: same fill FLOPs, same recovered and main
/// rates, same slowdown, same completion count.
#[test]
fn fleet_single_job_reproduces_physical_bit_for_bit() {
    for seed in [1u64, 5, 9] {
        let mut phys_cfg = physical_config(seed);
        phys_cfg.iterations = 120;
        let fleet_cfg = FleetSimConfig::from_physical(&phys_cfg);

        let phys = BackendConfig::Physical(phys_cfg)
            .run()
            .physical()
            .expect("physical detail");
        let run = BackendConfig::Fleet(fleet_cfg).run();
        let fleet = run.as_fleet().expect("fleet detail");

        assert_eq!(fleet.jobs.len(), 1);
        let job = &fleet.jobs[0];
        assert_eq!(job.fill_flops, phys.fill_flops, "seed {seed}");
        assert_eq!(
            job.recovered_tflops_per_gpu, phys.recovered_tflops_per_gpu,
            "seed {seed}"
        );
        assert_eq!(job.main_tflops_per_gpu, phys.main_tflops_per_gpu);
        assert_eq!(job.main_slowdown, phys.main_slowdown);
        assert_eq!(job.nominal_period, phys.nominal_period);
        assert_eq!(job.mean_period, phys.mean_period);
        assert_eq!(job.fill_jobs_completed, phys.jobs_completed);
        // The fleet-aggregate view of the degenerate fleet is the job.
        assert_eq!(run.metrics.fill_flops, phys.fill_flops);
        assert_eq!(
            run.metrics.recovered_tflops_per_gpu,
            phys.recovered_tflops_per_gpu
        );
        assert_eq!(run.metrics.evictions, 0);
        assert_eq!(run.metrics.goodput_fraction, 1.0);
        assert_eq!(fleet.cross_job_dispatches, 0);
        assert_eq!(fleet.peak_queue_depth, 0);
    }
}

/// The acceptance gate: with fault injection disabled and a homogeneous
/// device list, the fault backend must agree with the physical backend on
/// recovered TFLOPs within the Fig. 6 tolerance. (The implementation
/// actually achieves bit-parity; the tolerance keeps the gate meaningful
/// if the two fidelities ever drift apart legitimately.)
#[test]
fn fault_with_infinite_mtbf_agrees_with_physical() {
    for seed in [1u64, 5, 9] {
        let mut phys_cfg = physical_config(seed);
        phys_cfg.iterations = 120;
        let fault_cfg = FleetSimConfig::from_physical(&phys_cfg);

        let fault = BackendConfig::Fault(fault_cfg).run().metrics;
        let phys = BackendConfig::Physical(phys_cfg).run().metrics;

        assert!(fault.recovered_tflops_per_gpu > 0.0);
        let err = (fault.recovered_tflops_per_gpu - phys.recovered_tflops_per_gpu).abs()
            / phys.recovered_tflops_per_gpu;
        assert!(
            err < AGREEMENT_TOLERANCE,
            "seed {seed}: fault vs physical disagree by {:.2}% (tolerance {:.0}%)",
            100.0 * err,
            100.0 * AGREEMENT_TOLERANCE
        );
        assert_eq!(fault.evictions, 0);
        assert_eq!(fault.goodput_fraction, 1.0);
    }
}
