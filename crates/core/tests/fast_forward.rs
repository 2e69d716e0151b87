//! Property tests for steady-state fast-forward: skipping is a pure
//! wall-clock optimization, so with identical configuration the skipped
//! and event-by-event runs must agree on every [`BackendMetrics`] field
//! *bit for bit* — across every simulation backend, every pipeline
//! schedule and arbitrary seeds. A jittered run consumes RNG every
//! iteration, so the quiescence pre-filter must keep the detector
//! disarmed. A no-fault fleet runs its pipelines in parallel, so every
//! check holds at one worker and at two.

use proptest::prelude::*;

use pipefill_core::{
    BackendConfig, BackendMetrics, BackendRun, FleetJobConfig, FleetSimConfig, PhysicalSimConfig,
};
use pipefill_model_zoo::ModelId;
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_trace::ModelMix;

use pipefill_core::experiments::sweep::set_threads;

#[path = "support/widths.rs"]
mod widths;

use widths::one_and_two_workers;

const SCHEDULES: [ScheduleKind; 4] = [
    ScheduleKind::GPipe,
    ScheduleKind::OneFOneB,
    ScheduleKind::Interleaved { chunks: 2 },
    ScheduleKind::ZbH1,
];

/// Iterations per run: detection needs ~150 boundaries in the quiescent
/// regime, leaving a long skippable tail.
const ITERS: usize = 400;

/// A quiescent physical config: no jitter draws, deterministic
/// single-model mix, small fill jobs — the regime in which the detector
/// can prove a repeating iteration cycle. The tiny backlog keeps the
/// executor cycle short on every schedule's bubble geometry (1F1B's
/// smaller windows need smaller jobs to recur within the run).
fn quiet_physical(seed: u64, schedule: ScheduleKind) -> PhysicalSimConfig {
    let main = MainJobSpec::physical_5b(8, schedule);
    let mut cfg = PhysicalSimConfig::new(main).with_fill_fraction(0.68);
    cfg.iterations = ITERS;
    cfg.seed = seed;
    cfg.jitter_cv = 0.0;
    cfg.deterministic_mix = true;
    cfg.mix = ModelMix::single(ModelId::EfficientNet);
    cfg.backlog_job_gpu_hours = 0.0005;
    cfg
}

/// The fault backend in the same quiescent regime (injection disabled —
/// the gate under which its detector arms): the same job as a one-job
/// fleet.
fn quiet_fault(seed: u64, schedule: ScheduleKind) -> FleetSimConfig {
    FleetSimConfig::from_physical(&quiet_physical(seed, schedule))
}

/// A quiescent two-job fleet: per-job detectors, distinct per-job seeds.
fn quiet_fleet(seed: u64, schedule: ScheduleKind) -> FleetSimConfig {
    quiet_fleet_of(2, ITERS, seed, schedule)
}

/// A quiescent fleet of `jobs` main jobs running `iterations` each.
fn quiet_fleet_of(
    jobs: usize,
    iterations: usize,
    seed: u64,
    schedule: ScheduleKind,
) -> FleetSimConfig {
    let main = MainJobSpec::physical_5b(8, schedule);
    let jobs = (0..jobs)
        .map(|j| {
            let mut job = FleetJobConfig::new(main.clone());
            job.iterations = iterations;
            job.seed = seed + j as u64;
            job
        })
        .collect();
    let mut cfg = FleetSimConfig::new(jobs);
    cfg.jitter_cv = 0.0;
    cfg.deterministic_mix = true;
    cfg.mix = ModelMix::single(ModelId::EfficientNet);
    cfg.backlog_job_gpu_hours = 0.0005;
    cfg
}

fn set_fast_forward(cfg: &mut BackendConfig, on: bool) {
    match cfg {
        BackendConfig::Physical(c) => c.fast_forward = on,
        BackendConfig::Fault(c) => c.fast_forward = on,
        BackendConfig::Fleet(c) => c.fast_forward = on,
        BackendConfig::Coarse(_) => unreachable!("coarse has no iteration loop"),
    }
}

/// Iterations the run skipped, from whichever detail it produced.
fn fast_forwarded(run: &BackendRun) -> u64 {
    run.as_physical()
        .map(|r| r.iterations_fast_forwarded)
        .or_else(|| run.as_fleet().map(|r| r.iterations_fast_forwarded))
        .expect("simulation backends report the skip counter")
}

/// Every shared-metrics field with floats as raw bits: the invariant is
/// bit-for-bit equality, not closeness.
fn metric_bits(m: &BackendMetrics) -> [u64; 12] {
    [
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

/// Runs one config with the knob on and off; returns (on, off).
fn on_off(cfg: BackendConfig) -> (BackendRun, BackendRun) {
    let mut on = cfg.clone();
    set_fast_forward(&mut on, true);
    let mut off = cfg;
    set_fast_forward(&mut off, false);
    (on.run(), off.run())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// Quiescent runs: fast-forward fires on every backend × schedule at
    /// an arbitrary seed, and the metrics agree down to the last bit.
    #[test]
    fn fast_forward_is_bitwise_invisible(seed in 0u64..1_000, sched in 0usize..SCHEDULES.len()) {
        let schedule = SCHEDULES[sched];
        let configs = [
            BackendConfig::Physical(quiet_physical(seed, schedule)),
            BackendConfig::Fault(quiet_fault(seed, schedule)),
            BackendConfig::Fleet(quiet_fleet(seed, schedule)),
        ];
        for _width in one_and_two_workers() {
            for cfg in configs.clone() {
                let kind = cfg.kind();
                let (r_on, r_off) = on_off(cfg);
                prop_assert!(
                    fast_forwarded(&r_on) > 0,
                    "{kind}/{schedule} seed {seed}: steady state never detected"
                );
                prop_assert_eq!(
                    fast_forwarded(&r_off), 0,
                    "{}/{} seed {}: the off run must not skip", kind, schedule, seed
                );
                prop_assert_eq!(
                    metric_bits(r_on.metrics()),
                    metric_bits(r_off.metrics()),
                    "{}/{} seed {}: fast-forward changed the metrics", kind, schedule, seed
                );
            }
        }
    }

    /// Default-jitter runs draw RNG every iteration: the quiescence
    /// pre-filter keeps the detector disarmed and the knob is a no-op.
    #[test]
    fn jittered_runs_never_fast_forward(seed in 0u64..1_000) {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut phys = PhysicalSimConfig::new(main).with_fill_fraction(0.68);
        phys.iterations = 60;
        phys.seed = seed;
        let fault = FleetSimConfig::from_physical(&phys);
        for cfg in [BackendConfig::Physical(phys), BackendConfig::Fault(fault)] {
            let kind = cfg.kind();
            let (r_on, r_off) = on_off(cfg);
            prop_assert_eq!(
                fast_forwarded(&r_on), 0,
                "{} seed {}: jittered run fast-forwarded", kind, seed
            );
            prop_assert_eq!(
                metric_bits(r_on.metrics()),
                metric_bits(r_off.metrics())
            );
        }
    }
}

/// Iterations per job of the long-horizon pin: long enough that the skip
/// dwarfs the detection prefix, so the replayed FLOP sum crosses several
/// binades and the replay mixes in-binade jumps with crossing cycles.
const LONG_ITERS: usize = 5_000;

/// Long horizons are where the FLOP replay leaves the binade it started
/// in. A four-job fleet must agree with its event-by-event twin bit for
/// bit on every result field, the job-major completed-id sequence
/// included: within a job a skip is bit-identical to the events it
/// replaces.
#[test]
fn long_horizon_skips_agree_bit_for_bit() {
    for _width in one_and_two_workers() {
        for jobs in [4, 1] {
            let cfg = quiet_fleet_of(jobs, LONG_ITERS, 11, ScheduleKind::GPipe);
            let (r_on, r_off) = on_off(BackendConfig::Fleet(cfg));
            assert_eq!(
                metric_bits(r_on.metrics()),
                metric_bits(r_off.metrics()),
                "{jobs}-job fleet: fast-forward changed the metrics"
            );
            let mut on = r_on.as_fleet().expect("fleet detail").clone();
            let off = r_off.as_fleet().expect("fleet detail");
            let total = (jobs * LONG_ITERS) as u64;
            // At least 15/16 skipped: the skipped span is 15 times the
            // simulated prefix or more, so the FLOP sums grow about 16x while
            // fast-forward replays them.
            assert!(
                16 * on.iterations_fast_forwarded >= 15 * total,
                "{jobs}-job fleet skipped only {} of {total} iterations",
                on.iterations_fast_forwarded
            );
            assert_eq!(off.iterations_fast_forwarded, 0);
            on.iterations_fast_forwarded = 0;
            assert!(
                on == *off,
                "{jobs}-job fleet: fast-forward changed the fleet result"
            );
        }
    }
}
