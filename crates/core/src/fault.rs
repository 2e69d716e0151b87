//! The heterogeneous, failure-injecting cluster simulator.
//!
//! The third fidelity level behind the [`SimBackend`](crate::SimBackend)
//! seam. It extends the fine-grained physical model along the two axes the
//! paper's testbed cannot express:
//!
//! * **Heterogeneous stages** — each pipeline stage may run a different
//!   GPU generation ([`FaultSimConfig::stage_devices`]). The slowest
//!   stage paces the pipeline, so the iteration period stretches to
//!   `period × max(slowdown)` and every *other* stage gains idle time:
//!   its fillable windows grow by exactly the slack the pacing stage
//!   creates (Zero-Bubble-style bubble-geometry shifts under hardware
//!   variation). Execution plans, free bubble memory and fill throughput
//!   are all derived from the stage's own device spec.
//! * **Fault injection** — each device fails as a Poisson process with a
//!   configurable MTBF ([`FaultSimConfig::mtbf`]). A failure evicts the
//!   fill job running on that stage: work since the job's last checkpoint
//!   is charged to `lost_fill_flops`, the executor rewinds to the
//!   checkpoint, and the job re-enters the fill queue with its original
//!   arrival time (FreeRide-style preemption accounting: side
//!   jobs survive eviction but pay for it). When the stage recovers, the
//!   revived job must burn [`FaultSimConfig::checkpoint_cost`] of bubble
//!   time reloading state before it makes progress. Bubbles that pass
//!   while a stage is down are lost to filling. The *main* job's own
//!   fault tolerance (elastic redundancy, hot spares) is out of scope:
//!   failures here attack the fill layer, which is exactly the part
//!   FreeRide shows must survive preemption — so `main_slowdown` keeps
//!   the physical backend's meaning (fill-overrun stalls only).
//!
//! The backend is [`FaultBackend`], the fault preset of the
//! pipeline-filling engine (`crate::filling`): a one-job fleet with
//! per-stage devices. With an infinite MTBF and a homogeneous device list
//! every code path that consumes randomness is therefore
//! [`PhysicalBackend`](crate::PhysicalBackend)'s, so the no-fault fault
//! backend reproduces the physical backend *bit for bit* — which is what
//! makes the cross-backend conformance suite
//! (`tests/backend_conformance.rs`) an exact regression gate rather than
//! a statistical one.
//!
//! Determinism is structural, as everywhere else: workload randomness
//! comes from one seeded stream shared with the physical backend's draw
//! order, failure processes own per-stage forked streams (so sweeping the
//! MTBF never perturbs the workload), and all event ordering goes through
//! the kernel queue.

use pipefill_device::DeviceSpec;
use pipefill_executor::{ExecutorConfig, JobId};
use pipefill_pipeline::MainJobSpec;
use pipefill_sim_core::SimDuration;
use pipefill_trace::ModelMix;
use serde::{Deserialize, Serialize};

use crate::backend::{BackendDriver, BackendKind};
use crate::filling::FillBackend;
use crate::fleet::FleetSimConfig;

/// Heterogeneous + fault-injecting simulation parameters.
#[derive(Debug, Clone)]
pub struct FaultSimConfig {
    /// The main job; its device is the *baseline* GPU that heterogeneous
    /// stages are expressed relative to.
    pub main_job: MainJobSpec,
    /// Executor tuning; `fill_fraction == 0.0` disables filling.
    pub executor: ExecutorConfig,
    /// Fill-job model mix (devices draw from an infinite backlog).
    pub mix: ModelMix,
    /// Main-job iterations to simulate.
    pub iterations: usize,
    /// RNG seed (workload stream; failure streams are forked per stage).
    pub seed: u64,
    /// Coefficient of variation of the multiplicative timing jitter.
    pub jitter_cv: f64,
    /// Fraction of each (jittered) bubble actually usable for filling.
    pub usable_fraction: f64,
    /// Size of each backlog job in GPU-hours.
    pub backlog_job_gpu_hours: f64,
    /// Draw backlog jobs by weighted round-robin instead of random
    /// sampling (exact mix realization, as in the Fig. 6 runs).
    pub deterministic_mix: bool,
    /// Per-stage GPU specs. Empty means homogeneous: every stage runs
    /// `main_job.device`. When non-empty the length must equal the
    /// pipeline depth.
    pub stage_devices: Vec<DeviceSpec>,
    /// Per-device mean time between failures. [`SimDuration::MAX`]
    /// disables fault injection entirely.
    pub mtbf: SimDuration,
    /// Mean outage length once a device fails.
    pub mean_recovery: SimDuration,
    /// Bubble time an evicted job must burn reloading its checkpoint
    /// before it resumes making progress after recovery.
    pub checkpoint_cost: SimDuration,
    /// A job checkpoints automatically after this many executed bubble
    /// partitions; work since the last checkpoint is lost on eviction.
    pub checkpoint_every_bubbles: usize,
    /// Steady-state fast-forward (see
    /// [`PhysicalSimConfig::fast_forward`](crate::PhysicalSimConfig)).
    /// Only armed when fault injection is off (`mtbf == MAX`): failure
    /// events are external transitions that void any cycle hypothesis.
    pub fast_forward: bool,
    /// Signature matches required before the first fast-forward skip;
    /// `u32::MAX` pins fast-forward off (see
    /// [`PhysicalSimConfig::steady_confirm`](crate::PhysicalSimConfig)).
    pub steady_confirm: u32,
}

impl FaultSimConfig {
    /// Defaults matching [`crate::PhysicalSimConfig::new`] with faults
    /// disabled and a homogeneous cluster — the configuration under which
    /// this backend reproduces the physical backend exactly.
    pub fn new(main_job: MainJobSpec) -> Self {
        FaultSimConfig {
            main_job,
            executor: ExecutorConfig::default(),
            mix: ModelMix::paper_mix(),
            iterations: 200,
            seed: 7,
            jitter_cv: 0.08,
            usable_fraction: 0.88,
            backlog_job_gpu_hours: 0.02,
            deterministic_mix: false,
            stage_devices: Vec::new(),
            mtbf: SimDuration::MAX,
            mean_recovery: SimDuration::from_secs(120),
            checkpoint_cost: SimDuration::from_secs(2),
            checkpoint_every_bubbles: 8,
            fast_forward: true,
            steady_confirm: 1,
        }
    }

    /// A heterogeneous pipeline: one device spec per stage.
    pub fn heterogeneous(main_job: MainJobSpec, stage_devices: Vec<DeviceSpec>) -> Self {
        let mut cfg = FaultSimConfig::new(main_job);
        cfg.stage_devices = stage_devices;
        cfg
    }

    /// Sets the fill fraction (0.0 = no-filling baseline).
    pub fn with_fill_fraction(mut self, f: f64) -> Self {
        if f == 0.0 {
            self.executor.fill_fraction = 0.0;
        } else {
            self.executor = self.executor.with_fill_fraction(f);
        }
        self
    }

    /// Sets the model mix.
    pub fn with_mix(mut self, mix: ModelMix) -> Self {
        self.mix = mix;
        self
    }

    /// Sets the mean time between failures per device.
    pub fn with_mtbf(mut self, mtbf: SimDuration) -> Self {
        self.mtbf = mtbf;
        self
    }

    /// Sets the checkpoint-restart cost charged to each eviction.
    pub fn with_checkpoint_cost(mut self, cost: SimDuration) -> Self {
        self.checkpoint_cost = cost;
        self
    }
}

/// Heterogeneous + fault simulation output.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSimResult {
    /// Iterations simulated.
    pub iterations: usize,
    /// Undisturbed iteration period of the (possibly heterogeneous)
    /// pipeline — already stretched to the pacing stage.
    pub nominal_period: SimDuration,
    /// Mean iteration period including fill-overrun stalls.
    pub mean_period: SimDuration,
    /// Main-job slowdown from fill-overrun stalls (outages attack the
    /// fill layer, not the main job — see the module docs).
    pub main_slowdown: f64,
    /// Fill FLOPs that survived (executed minus lost to evictions).
    pub fill_flops: f64,
    /// Fill FLOPs executed but lost to evictions.
    pub lost_fill_flops: f64,
    /// Surviving fill TFLOPS per GPU over the stretched run.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job TFLOPS per GPU (heterogeneity- and slowdown-adjusted).
    pub main_tflops_per_gpu: f64,
    /// Fill jobs completed.
    pub jobs_completed: usize,
    /// Ids of completed jobs, in completion order. A job evicted and
    /// revived appears at most once — the double-completion invariant the
    /// property suite checks.
    pub completed_job_ids: Vec<JobId>,
    /// Device failures injected.
    pub failures: u64,
    /// Fill jobs evicted by failures.
    pub evictions: u64,
    /// Bubbles that passed while their stage was down.
    pub bubbles_lost: u64,
    /// Total device downtime across the run (outages in flight at the
    /// end are clamped to the run's span).
    pub downtime: SimDuration,
    /// `fill_flops / (fill_flops + lost_fill_flops)`; 1 when nothing ran.
    pub goodput_fraction: f64,
    /// Iterations skipped analytically by steady-state fast-forward
    /// (always zero while fault injection is on).
    pub iterations_fast_forwarded: u64,
}

impl FaultSimResult {
    /// Aggregate TFLOPS per GPU.
    pub fn total_tflops_per_gpu(&self) -> f64 {
        self.main_tflops_per_gpu + self.recovered_tflops_per_gpu
    }
}

/// The heterogeneous, failure-injecting backend: the pipeline-filling
/// engine's fault preset, a one-job fleet whose stages may run different
/// GPUs. See the module docs for the model.
pub type FaultBackend = FillBackend<FaultSimResult>;

impl FaultBackend {
    /// Builds the backend: profiles the baseline pipeline once, then
    /// re-derives per-stage bubble geometry from the stage devices.
    ///
    /// # Panics
    ///
    /// Panics if `stage_devices` is non-empty with a length different
    /// from the pipeline depth.
    pub fn new(cfg: FaultSimConfig) -> Self {
        FillBackend::build(FleetSimConfig::fault_preset(cfg), BackendKind::Fault)
    }

    /// Runs a configuration to completion on the shared event kernel.
    pub fn simulate(cfg: FaultSimConfig) -> FaultSimResult {
        BackendDriver::new(Self::new(cfg)).run().1.into_result()
    }

    /// The detailed result. Only valid after the driver has run.
    ///
    /// # Panics
    ///
    /// Panics if the backend has not been drained yet.
    pub fn into_result(self) -> FaultSimResult {
        let fleet = self.into_report();
        let job = &fleet.jobs[0];
        FaultSimResult {
            iterations: job.iterations,
            nominal_period: job.nominal_period,
            mean_period: job.mean_period,
            main_slowdown: job.main_slowdown,
            fill_flops: job.fill_flops,
            lost_fill_flops: job.lost_fill_flops,
            recovered_tflops_per_gpu: job.recovered_tflops_per_gpu,
            main_tflops_per_gpu: job.main_tflops_per_gpu,
            jobs_completed: job.fill_jobs_completed,
            failures: job.failures,
            evictions: job.evictions,
            bubbles_lost: job.bubbles_lost,
            downtime: job.downtime,
            goodput_fraction: fleet.goodput_fraction,
            iterations_fast_forwarded: fleet.iterations_fast_forwarded,
            completed_job_ids: fleet.completed_fill_ids,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::physical::{PhysicalBackend, PhysicalSimConfig};
    use pipefill_pipeline::ScheduleKind;

    fn config(fill: f64) -> FaultSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = FaultSimConfig::new(main).with_fill_fraction(fill);
        cfg.iterations = 120;
        cfg
    }

    fn physical_config(fill: f64) -> PhysicalSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = PhysicalSimConfig::new(main).with_fill_fraction(fill);
        cfg.iterations = 120;
        cfg
    }

    #[test]
    fn no_faults_homogeneous_matches_physical_exactly() {
        // The headline conformance property: with faults off and a
        // homogeneous device list, every randomness-consuming code path
        // is identical to the physical backend's.
        let fault = FaultBackend::simulate(config(0.68));
        let phys = PhysicalBackend::simulate(physical_config(0.68));
        assert_eq!(fault.fill_flops, phys.fill_flops);
        assert_eq!(
            fault.recovered_tflops_per_gpu,
            phys.recovered_tflops_per_gpu
        );
        assert_eq!(fault.main_slowdown, phys.main_slowdown);
        assert_eq!(fault.jobs_completed, phys.jobs_completed);
        assert_eq!(fault.evictions, 0);
        assert_eq!(fault.failures, 0);
        assert_eq!(fault.lost_fill_flops, 0.0);
        assert_eq!(fault.goodput_fraction, 1.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let mut cfg = config(0.68).with_mtbf(SimDuration::from_secs(600));
        cfg.seed = 11;
        let a = FaultBackend::simulate(cfg.clone());
        let b = FaultBackend::simulate(cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn failures_cause_evictions_and_lost_work() {
        let cfg = config(0.68).with_mtbf(SimDuration::from_secs(300));
        let r = FaultBackend::simulate(cfg);
        assert!(r.failures > 0, "no failures at a 5-minute MTBF");
        assert!(r.evictions > 0, "failures never evicted a job");
        assert!(r.lost_fill_flops > 0.0);
        assert!(r.goodput_fraction < 1.0);
        assert!(r.downtime > SimDuration::ZERO);
        assert!(r.bubbles_lost > 0, "down stages must lose bubbles");
        // Goodput is consistent with the flops split.
        let expect = r.fill_flops / (r.fill_flops + r.lost_fill_flops);
        assert!((r.goodput_fraction - expect).abs() < 1e-12);
    }

    #[test]
    fn faults_reduce_recovered_throughput() {
        let clean = FaultBackend::simulate(config(0.68));
        let faulty = FaultBackend::simulate(config(0.68).with_mtbf(SimDuration::from_secs(300)));
        assert!(
            faulty.recovered_tflops_per_gpu < clean.recovered_tflops_per_gpu,
            "faulty {} vs clean {}",
            faulty.recovered_tflops_per_gpu,
            clean.recovered_tflops_per_gpu
        );
    }

    #[test]
    fn evicted_jobs_complete_at_most_once() {
        let cfg = config(0.68).with_mtbf(SimDuration::from_secs(200));
        let r = FaultBackend::simulate(cfg);
        assert!(r.evictions > 0);
        let mut ids = r.completed_job_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(
            ids.len(),
            r.completed_job_ids.len(),
            "a job completed twice"
        );
        assert_eq!(r.completed_job_ids.len(), r.jobs_completed);
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
        let mut cfg = FaultSimConfig::heterogeneous(main.clone(), devices);
        cfg.iterations = 60;
        let het = FaultBackend::simulate(cfg);

        let mut homo_cfg = FaultSimConfig::new(main);
        homo_cfg.iterations = 60;
        let homo = FaultBackend::simulate(homo_cfg);

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

    #[test]
    fn faster_heterogeneous_devices_recover_more() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let p = main.engine_timeline().stages.len();
        // Half the stages upgraded to A100s: same pacing (V100 stages
        // remain), faster fill execution on the upgraded stages.
        let mut devices = vec![main.device.clone(); p];
        for d in devices.iter_mut().take(p / 2) {
            *d = DeviceSpec::a100_40g();
        }
        let mut cfg = FaultSimConfig::heterogeneous(main.clone(), devices);
        cfg.iterations = 60;
        let upgraded = FaultBackend::simulate(cfg);

        let mut homo_cfg = FaultSimConfig::new(main);
        homo_cfg.iterations = 60;
        let homo = FaultBackend::simulate(homo_cfg);

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
        let r = FaultBackend::simulate(config(0.0).with_mtbf(SimDuration::from_secs(60)));
        assert_eq!(r.main_slowdown, 0.0);
        assert_eq!(r.recovered_tflops_per_gpu, 0.0);
        assert_eq!(r.failures, 0, "failure chain must not outlive filling");
    }

    #[test]
    fn heterogeneous_quiescent_runs_fast_forward_too() {
        // Heterogeneity reshapes bubble geometry but consumes no extra
        // randomness, so a quiescent heterogeneous pipeline cycles and
        // fast-forwards just like a homogeneous one.
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let p = main.engine_timeline().stages.len();
        let mut devices = vec![main.device.clone(); p];
        for d in devices.iter_mut().take(p / 2) {
            *d = DeviceSpec::a100_40g();
        }
        let mut cfg = FaultSimConfig::heterogeneous(main, devices).with_fill_fraction(0.68);
        cfg.jitter_cv = 0.0;
        cfg.deterministic_mix = true;
        cfg.mix = ModelMix::single(pipefill_model_zoo::ModelId::EfficientNet);
        cfg.backlog_job_gpu_hours = 0.001;
        cfg.iterations = 800;
        let mut off = cfg.clone();
        off.fast_forward = false;
        let mut r_on = FaultBackend::simulate(cfg);
        let r_off = FaultBackend::simulate(off);
        assert!(r_on.iterations_fast_forwarded > 0);
        r_on.iterations_fast_forwarded = 0;
        assert_eq!(r_on, r_off);
    }

    #[test]
    #[should_panic(expected = "stage_devices must cover every pipeline stage")]
    fn wrong_device_count_is_rejected() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let cfg = FaultSimConfig::heterogeneous(main, vec![DeviceSpec::v100(); 3]);
        let _ = FaultBackend::new(cfg);
    }
}
