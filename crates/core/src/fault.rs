//! The heterogeneous, failure-injecting cluster simulator.
//!
//! The third fidelity level behind the [`SimBackend`](crate::SimBackend)
//! seam. It extends the fine-grained physical model along the two axes the
//! paper's testbed cannot express:
//!
//! * **Heterogeneous stages** — each pipeline stage may run a different
//!   GPU generation ([`FleetJobConfig::stage_devices`](crate::FleetJobConfig::stage_devices)). The slowest
//!   stage paces the pipeline, so the iteration period stretches to
//!   `period × max(slowdown)` and every *other* stage gains idle time:
//!   its fillable windows grow by exactly the slack the pacing stage
//!   creates (Zero-Bubble-style bubble-geometry shifts under hardware
//!   variation). Execution plans, free bubble memory and fill throughput
//!   are all derived from the stage's own device spec.
//! * **Fault injection** — each device fails as a Poisson process with a
//!   configurable MTBF ([`FleetSimConfig::mtbf`]). A failure evicts the
//!   fill job running on that stage: work since the job's last checkpoint
//!   is charged to `lost_fill_flops`, the executor rewinds to the
//!   checkpoint, and the job re-enters the fill queue with its original
//!   arrival time (FreeRide-style preemption accounting: side
//!   jobs survive eviction but pay for it). When the stage recovers, the
//!   revived job must burn [`FleetSimConfig::checkpoint_cost`] of bubble
//!   time reloading state before it makes progress. Bubbles that pass
//!   while a stage is down are lost to filling. The *main* job's own
//!   fault tolerance (elastic redundancy, hot spares) is out of scope:
//!   failures here attack the fill layer, which is exactly the part
//!   FreeRide shows must survive preemption — so `main_slowdown` keeps
//!   the physical backend's meaning (fill-overrun stalls only).
//!
//! A fault run is a one-job fleet: its configuration is a
//! [`FleetSimConfig`] — typically [`FleetSimConfig::from_physical`] plus
//! `mtbf`, `checkpoint_cost` and the job's `stage_devices` — and
//! [`FleetBackend::fault`] builds it under the fault label: its metrics
//! are its one pipeline's own numbers, and its detail is the fleet's
//! [`FleetSimResult`](crate::FleetSimResult). With an
//! infinite MTBF and a homogeneous device list every code path that
//! consumes randomness is therefore
//! [`PhysicalBackend`](crate::PhysicalBackend)'s, so the no-fault fault
//! run reproduces the physical backend *bit for bit* — which is what
//! makes the cross-backend conformance suite
//! (`tests/backend_conformance.rs`) an exact regression gate rather than
//! a statistical one.
//!
//! Determinism is structural, as everywhere else: workload randomness
//! comes from one seeded stream shared with the physical backend's draw
//! order, failure processes own per-stage forked streams (so sweeping the
//! MTBF never perturbs the workload), and all event ordering goes through
//! the kernel queue.

use crate::backend::BackendKind;
use crate::filling::FillBackend;
use crate::fleet::{FleetBackend, FleetSimConfig};

impl FleetBackend {
    /// Builds a fault run: the one-job fleet `cfg` under the fault label.
    /// It profiles the baseline pipeline once, then re-derives per-stage
    /// bubble geometry from the job's stage devices.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` does not hold exactly one job, or if that job's
    /// `stage_devices` is non-empty with a length different from the
    /// pipeline depth.
    pub fn fault(cfg: FleetSimConfig) -> Self {
        assert_eq!(cfg.jobs.len(), 1, "a fault run is a one-job fleet");
        FillBackend::build(cfg, BackendKind::Fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::BackendDriver;
    use crate::fleet::FleetSimResult;
    use crate::physical::{PhysicalBackend, PhysicalSimConfig};
    use pipefill_device::DeviceSpec;
    use pipefill_pipeline::{MainJobSpec, ScheduleKind};
    use pipefill_sim_core::SimDuration;
    use pipefill_trace::ModelMix;

    fn physical_config(fill: f64) -> PhysicalSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = PhysicalSimConfig::new(main).with_fill_fraction(fill);
        cfg.iterations = 120;
        cfg
    }

    fn config(fill: f64) -> FleetSimConfig {
        FleetSimConfig::from_physical(&physical_config(fill))
    }

    /// A heterogeneous pipeline: one device spec per stage.
    fn heterogeneous(iterations: usize, devices: Vec<DeviceSpec>) -> FleetSimConfig {
        let mut cfg = FleetSimConfig::from_physical(&PhysicalSimConfig {
            iterations,
            ..physical_config(0.68)
        });
        cfg.jobs[0].stage_devices = devices;
        cfg
    }

    fn simulate(cfg: FleetSimConfig) -> FleetSimResult {
        BackendDriver::new(FleetBackend::fault(cfg))
            .run()
            .1
            .into_result()
    }

    #[test]
    fn no_faults_homogeneous_matches_physical_exactly() {
        // The headline conformance property: with faults off and a
        // homogeneous device list, every randomness-consuming code path
        // is identical to the physical backend's.
        let fault = simulate(config(0.68));
        let phys = PhysicalBackend::simulate(physical_config(0.68));
        let job = &fault.jobs[0];
        assert_eq!(job.fill_flops, phys.fill_flops);
        assert_eq!(job.recovered_tflops_per_gpu, phys.recovered_tflops_per_gpu);
        assert_eq!(job.main_slowdown, phys.main_slowdown);
        assert_eq!(job.fill_jobs_completed, phys.jobs_completed);
        assert_eq!(fault.evictions, 0);
        assert_eq!(fault.failures, 0);
        assert_eq!(fault.lost_fill_flops, 0.0);
        assert_eq!(fault.goodput_fraction, 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut cfg = config(0.68).with_mtbf(SimDuration::from_secs(600));
        cfg.seed = 11;
        cfg.jobs[0].seed = 11;
        let a = simulate(cfg.clone());
        let b = simulate(cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn failures_cause_evictions_and_lost_work() {
        let r = simulate(config(0.68).with_mtbf(SimDuration::from_secs(300)));
        let job = &r.jobs[0];
        assert!(r.failures > 0, "no failures at a 5-minute MTBF");
        assert!(r.evictions > 0, "failures never evicted a job");
        assert!(r.lost_fill_flops > 0.0);
        assert!(r.goodput_fraction < 1.0);
        assert!(job.downtime > SimDuration::ZERO);
        assert!(job.bubbles_lost > 0, "down stages must lose bubbles");
        // Goodput is consistent with the flops split.
        let expect = r.fill_flops / (r.fill_flops + r.lost_fill_flops);
        assert!((r.goodput_fraction - expect).abs() < 1e-12);
    }

    #[test]
    fn faults_reduce_recovered_throughput() {
        let clean = simulate(config(0.68)).jobs[0].recovered_tflops_per_gpu;
        let faulty = simulate(config(0.68).with_mtbf(SimDuration::from_secs(300))).jobs[0]
            .recovered_tflops_per_gpu;
        assert!(faulty < clean, "faulty {faulty} vs clean {clean}");
    }

    #[test]
    fn evicted_jobs_complete_at_most_once() {
        let r = simulate(config(0.68).with_mtbf(SimDuration::from_secs(200)));
        assert!(r.evictions > 0);
        let mut ids = r.completed_fill_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            r.completed_fill_ids.len(),
            "a job completed twice"
        );
        assert_eq!(r.completed_fill_ids.len(), r.fill_jobs_completed);
    }

    #[test]
    fn heterogeneous_pipeline_stretches_to_the_pacing_stage() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let p = main.engine_timeline().stages.len();
        // One stage on a slower "GPU" (half the baseline peak): the
        // period must stretch by 2×.
        let mut slowpoke = main.device.clone();
        slowpoke.peak_tflops /= 2.0;
        slowpoke.name = "V50".into();
        let mut devices = vec![main.device.clone(); p];
        devices[p / 2] = slowpoke;
        let het = simulate(heterogeneous(60, devices)).jobs.remove(0);
        let homo = simulate(heterogeneous(60, Vec::new())).jobs.remove(0);

        let ratio = het.nominal_period.as_secs_f64() / homo.nominal_period.as_secs_f64();
        assert!((ratio - 2.0).abs() < 1e-9, "period ratio {ratio}");
        // The pacing stage halves the main job's per-GPU rate…
        assert!(het.main_tflops_per_gpu < homo.main_tflops_per_gpu * 0.6);
        // …while every non-pacing stage gains bubble span, so recovered
        // fill throughput per iteration-second goes *up*.
        assert!(
            het.recovered_tflops_per_gpu > homo.recovered_tflops_per_gpu,
            "het {} vs homo {}",
            het.recovered_tflops_per_gpu,
            homo.recovered_tflops_per_gpu
        );
    }

    /// Half the stages upgraded to A100s: same pacing (V100 stages
    /// remain), faster fill execution on the upgraded stages.
    fn half_upgraded() -> Vec<DeviceSpec> {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let p = main.engine_timeline().stages.len();
        let mut devices = vec![main.device.clone(); p];
        for d in devices.iter_mut().take(p / 2) {
            *d = DeviceSpec::a100_40g();
        }
        devices
    }

    #[test]
    fn faster_heterogeneous_devices_recover_more() {
        let upgraded = simulate(heterogeneous(60, half_upgraded())).jobs.remove(0);
        let homo = simulate(heterogeneous(60, Vec::new())).jobs.remove(0);
        assert_eq!(upgraded.nominal_period, homo.nominal_period);
        assert!(
            upgraded.recovered_tflops_per_gpu > homo.recovered_tflops_per_gpu,
            "upgraded {} vs homo {}",
            upgraded.recovered_tflops_per_gpu,
            homo.recovered_tflops_per_gpu
        );
    }

    #[test]
    fn no_fill_baseline_is_inert() {
        let r = simulate(config(0.0).with_mtbf(SimDuration::from_secs(60)));
        assert_eq!(r.jobs[0].main_slowdown, 0.0);
        assert_eq!(r.jobs[0].recovered_tflops_per_gpu, 0.0);
        assert_eq!(r.failures, 0, "failure chain must not outlive filling");
    }

    #[test]
    fn heterogeneous_quiescent_runs_fast_forward_too() {
        // Heterogeneity reshapes bubble geometry but consumes no extra
        // randomness, so a quiescent heterogeneous pipeline cycles and
        // fast-forwards just like a homogeneous one — whichever label
        // the one-job fleet runs under. Its cycle is longer than a
        // multi-job fleet's per-job history, so this also pins that a
        // one-pipeline run gets the long history.
        let mut cfg = heterogeneous(800, half_upgraded());
        cfg.jitter_cv = 0.0;
        cfg.deterministic_mix = true;
        cfg.mix = ModelMix::single(pipefill_model_zoo::ModelId::EfficientNet);
        cfg.backlog_job_gpu_hours = 0.001;
        let off = FleetSimConfig {
            fast_forward: false,
            ..cfg.clone()
        };
        let r_off = simulate(off.clone());
        assert_eq!(r_off, FleetBackend::simulate(off));
        let r_fault = simulate(cfg.clone());
        let r_fleet = FleetBackend::simulate(cfg);
        assert!(r_fault.iterations_fast_forwarded > 0);
        assert_eq!(
            r_fault.iterations_fast_forwarded,
            r_fleet.iterations_fast_forwarded
        );
        for r in [r_fault, r_fleet] {
            assert_eq!(
                FleetSimResult {
                    iterations_fast_forwarded: 0,
                    ..r
                },
                r_off
            );
        }
    }

    #[test]
    #[should_panic(expected = "stage_devices must cover every pipeline stage")]
    fn wrong_device_count_is_rejected() {
        let _ = FleetBackend::fault(heterogeneous(60, vec![DeviceSpec::v100(); 3]));
    }

    #[test]
    #[should_panic(expected = "a fault run is a one-job fleet")]
    fn multi_job_fault_run_is_rejected() {
        let mut cfg = config(0.68);
        cfg.jobs.push(cfg.jobs[0].clone());
        let _ = FleetBackend::fault(cfg);
    }
}
