//! The fleet-scale multi-job cluster simulator.
//!
//! The physical and fault fidelities simulate exactly one
//! pipeline-parallel main job with a private fill queue; the paper's
//! headline projections (Figs. 9/10, §6.2) are about *fleets* — thousands
//! of GPUs running many jobs at once, with bubble-filling operated as a
//! cluster-level service (the framing FreeRide makes explicit).
//! [`FleetBackend`] is that fleet: N concurrent main jobs —
//! heterogeneous pipeline depths, iteration periods, and device
//! generations per job — on one shared event kernel, sharing one
//! cluster-wide [`GlobalFillQueue`](pipefill_scheduler::GlobalFillQueue).
//!
//! * **Per-job mechanics are the physical model's.** Each main job
//!   unfolds exactly like a [`PhysicalBackend`](crate::PhysicalBackend)
//!   run: per-stage `StageBubbles` events on a *flat* device index space,
//!   per-bubble fill execution with jitter and switch costs, and a
//!   [`ClusterEvent::JobIterationEnd`] per job that folds that job's
//!   stalls into its own critical path. Each job owns its workload RNG
//!   stream, so a job's realized workload is independent of which other
//!   jobs share the fleet — and a **1-job homogeneous fleet reproduces
//!   the physical backend bit for bit**, which the conformance suite
//!   pins.
//! * **The fill layer is cluster-wide.** Device failures (optional,
//!   seeded per flat device) evict the running fill job; the work since
//!   its last checkpoint is lost and the job re-enters the *global*
//!   queue with its original arrival. Locality-aware dispatch: an
//!   evicted fill job's execution plan is bound to a bubble geometry, so
//!   it is feasible exactly on stages with matching geometry — its own
//!   pipeline's stage, or the same stage of any *identically shaped* job
//!   that admits foreign work (per-job admission). Cross-job resumes are
//!   counted, making "how much does a global queue buy over per-job
//!   queues" a measurable quantity.
//!
//! The fleet *is* the pipeline-filling engine (`crate::filling`), and
//! [`FleetSimConfig`] is its one configuration: the physical fidelity
//! lowers to a one-job fleet ([`FleetSimConfig::from_physical`]), and a
//! fault run *is* a one-job fleet, built with [`FleetBackend::fault`].
//! Construction profiles each distinct job *shape* once (jobs with
//! identical main-job spec, executor tuning and stage devices share bubble
//! geometry and one [`StagePlans`](crate::StagePlans)) and fans the profiling across cores through
//! the sweep driver. All shapes plan against one shared
//! [`ProfileMenus`](crate::ProfileMenus) table, so each fill-job type is
//! profiled once per device generation and planned once per stage
//! geometry — results are byte-stable at any thread count because
//! geometry is a pure function of the spec and all simulation randomness
//! flows through per-job seeded streams.

use pipefill_device::DeviceSpec;
use pipefill_executor::{ExecutorConfig, JobId};
use pipefill_pipeline::{MainJobSpec, ParallelismConfig, ScheduleKind};
use pipefill_sim_core::SimDuration;
use pipefill_trace::{DeviceGeneration, FleetWorkloadConfig, ModelMix};

use crate::backend::{BackendDriver, BackendKind};
use crate::cluster::PolicyKind;
use crate::filling::FillBackend;
use crate::physical::PhysicalSimConfig;

/// One main job of the fleet.
#[derive(Debug, Clone)]
pub struct FleetJobConfig {
    /// The pipeline-parallel training job (its device is the GPU every
    /// stage of this job runs on).
    pub main_job: MainJobSpec,
    /// Executor tuning; the no-fill config (`fill_fraction == 0.0`, see
    /// [`ExecutorConfig::with_fill_fraction`]) means this job declines
    /// filling entirely.
    pub executor: ExecutorConfig,
    /// Main-job iterations to simulate.
    pub iterations: usize,
    /// Workload RNG seed for this job's fill backlog.
    pub seed: u64,
    /// Whether this job's stages accept fill work evicted from other
    /// jobs (per-job admission at the global queue).
    pub admits_foreign: bool,
    /// Per-stage GPU specs. Empty means homogeneous: every stage runs
    /// `main_job.device`, the baseline heterogeneous stages are expressed
    /// relative to. When non-empty the length must equal the pipeline
    /// depth; the slowest stage then paces the pipeline (see
    /// [`FleetBackend::fault`]).
    pub stage_devices: Vec<DeviceSpec>,
}

impl FleetJobConfig {
    /// Defaults matching the physical backend's: the paper's 68% fill
    /// fraction and 200 iterations.
    pub fn new(main_job: MainJobSpec) -> Self {
        FleetJobConfig {
            main_job,
            executor: ExecutorConfig::default(),
            iterations: 200,
            seed: 7,
            admits_foreign: true,
            stage_devices: Vec::new(),
        }
    }
}

/// Fleet-simulation parameters. Workload knobs shared with the physical
/// backend keep its defaults so the degenerate single-job fleet stays an
/// exact physical run.
#[derive(Debug, Clone)]
pub struct FleetSimConfig {
    /// The concurrent main jobs.
    pub jobs: Vec<FleetJobConfig>,
    /// Policy of the cluster-wide fill queue.
    pub policy: PolicyKind,
    /// Fill-job model mix (every job draws from an infinite backlog).
    pub mix: ModelMix,
    /// Coefficient of variation of the multiplicative timing jitter.
    pub jitter_cv: f64,
    /// Size of each backlog job in GPU-hours.
    pub backlog_job_gpu_hours: f64,
    /// Draw backlog jobs by weighted round-robin instead of random
    /// sampling (exact mix realization).
    pub deterministic_mix: bool,
    /// Coefficient of variation of the actual free bubble memory; only
    /// the physical lowering sets it (see
    /// [`PhysicalSimConfig::memory_jitter_cv`]).
    pub(crate) memory_jitter_cv: f64,
    /// Fleet-level seed; failure streams fork from it per flat device,
    /// independent of every job's workload stream.
    pub seed: u64,
    /// Per-device mean time between failures; [`SimDuration::MAX`]
    /// disables fault injection (and with it all global-queue traffic).
    pub mtbf: SimDuration,
    /// Bubble time an evicted fill job burns reloading its checkpoint
    /// before it resumes making progress.
    pub checkpoint_cost: SimDuration,
    /// Steady-state fast-forward (see
    /// [`PhysicalSimConfig::fast_forward`]). Per job: each main job owns
    /// a detector over its private iteration stream. Only armed when
    /// fault injection is off (`mtbf == MAX`), the configuration in which
    /// jobs are provably independent and the global queue stays empty.
    pub fast_forward: bool,
}

impl FleetSimConfig {
    /// A fleet over the given jobs with physical-backend workload
    /// defaults and faults disabled.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is empty.
    pub fn new(jobs: Vec<FleetJobConfig>) -> Self {
        assert!(!jobs.is_empty(), "a fleet needs at least one main job");
        FleetSimConfig {
            jobs,
            policy: PolicyKind::Fifo,
            mix: ModelMix::paper_mix(),
            jitter_cv: 0.08,
            backlog_job_gpu_hours: 0.02,
            deterministic_mix: false,
            memory_jitter_cv: 0.0,
            seed: 7,
            mtbf: SimDuration::MAX,
            checkpoint_cost: SimDuration::from_secs(2),
            fast_forward: true,
        }
    }

    /// The degenerate fleet: one job carrying exactly the given physical
    /// configuration. This fleet reproduces
    /// [`PhysicalBackend`](crate::PhysicalBackend) bit for bit — the
    /// conformance suite's pin — and is what the physical fidelity
    /// lowers to. Add `mtbf`, `checkpoint_cost` and per-stage devices to
    /// make it a fault run.
    pub fn from_physical(phys: &PhysicalSimConfig) -> Self {
        let mut job = FleetJobConfig::new(phys.main_job.clone());
        job.executor = phys.executor;
        job.iterations = phys.iterations;
        job.seed = phys.seed;
        let mut cfg = FleetSimConfig::new(vec![job]);
        cfg.mix = phys.mix.clone();
        cfg.jitter_cv = phys.jitter_cv;
        cfg.backlog_job_gpu_hours = phys.backlog_job_gpu_hours;
        cfg.deterministic_mix = phys.deterministic_mix;
        cfg.memory_jitter_cv = phys.memory_jitter_cv;
        cfg.seed = phys.seed;
        cfg.fast_forward = phys.fast_forward;
        cfg
    }

    /// Lowers a generated fleet workload (see
    /// [`FleetWorkloadConfig`]) onto a runnable configuration; every
    /// main job runs GPipe.
    pub fn from_workload(workload: &FleetWorkloadConfig) -> Self {
        Self::from_workload_scheduled(workload, ScheduleKind::GPipe)
    }

    /// Like [`FleetSimConfig::from_workload`], with every main job
    /// running the given pipeline schedule — the fleet-level seam of the
    /// `--schedule` flag.
    ///
    /// Every job's main job is the physical GPT-5B spec with the plan's
    /// parallelism and device generation, and all of them share one
    /// model graph, built once per call.
    pub fn from_workload_scheduled(workload: &FleetWorkloadConfig, schedule: ScheduleKind) -> Self {
        // Every job replaces the template's parallelism and device.
        let template = MainJobSpec::physical_5b(8, schedule);
        let jobs = workload
            .generate()
            .iter()
            .map(|plan| {
                let mut main_job = template.clone();
                main_job.parallelism = ParallelismConfig::new(
                    plan.tensor_parallel,
                    plan.pipeline_stages,
                    plan.data_parallel,
                    2,
                    2 * plan.microbatches * plan.data_parallel,
                );
                main_job.device = match plan.device_generation {
                    DeviceGeneration::V100 => DeviceSpec::v100(),
                    DeviceGeneration::A100 => DeviceSpec::a100_40g(),
                    DeviceGeneration::H100 => DeviceSpec::h100(),
                };
                FleetJobConfig {
                    main_job,
                    executor: ExecutorConfig::default().with_fill_fraction(plan.fill_fraction),
                    iterations: plan.iterations,
                    seed: plan.seed,
                    admits_foreign: plan.admits_foreign,
                    stage_devices: Vec::new(),
                }
            })
            .collect();
        let mut cfg = FleetSimConfig::new(jobs);
        cfg.seed = workload.seed;
        cfg
    }

    /// Sets the mean time between failures per device.
    pub fn with_mtbf(mut self, mtbf: SimDuration) -> Self {
        self.mtbf = mtbf;
        self
    }

    /// Sets the global-queue policy.
    pub fn with_policy(mut self, policy: PolicyKind) -> Self {
        self.policy = policy;
        self
    }
}

/// Per-job output of a fleet run. The degenerate single-job fleet is
/// pinned bit for bit against [`PhysicalSimResult`](crate::PhysicalSimResult)
/// on the fields the two share: `fill_flops`,
/// `recovered_tflops_per_gpu`, `main_tflops_per_gpu`, `main_slowdown`,
/// `nominal_period`, `mean_period`, and `fill_jobs_completed` against
/// `jobs_completed`. The fault and fleet fields here have no physical
/// twin, and the fast-forward count is on [`FleetSimResult`].
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJobResult {
    /// Index within the fleet.
    pub job: usize,
    /// Total GPUs this job occupies (the simulator models one
    /// representative device per pipeline stage).
    pub gpus: usize,
    /// Pipeline depth.
    pub stages: usize,
    /// GPU generation name.
    pub device: String,
    /// Fill fraction this job ran at.
    pub fill_fraction: f64,
    /// Iterations simulated.
    pub iterations: usize,
    /// Undisturbed iteration period.
    pub nominal_period: SimDuration,
    /// Mean iteration period including fill-overrun stalls.
    pub mean_period: SimDuration,
    /// Main-job slowdown caused by filling.
    pub main_slowdown: f64,
    /// Engine bubble ratio.
    pub bubble_ratio: f64,
    /// Simulated span of this job (`iterations × period + stalls`).
    pub elapsed: SimDuration,
    /// Fill FLOPs that survived on this job's stages.
    pub fill_flops: f64,
    /// Fill FLOPs executed on this job's stages but lost to evictions.
    pub lost_fill_flops: f64,
    /// Surviving fill TFLOPS per GPU of this pipeline.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job TFLOPS per GPU (slowdown-adjusted).
    pub main_tflops_per_gpu: f64,
    /// Fill jobs completed on this job's stages.
    pub fill_jobs_completed: usize,
    /// Fill partitions killed by isolated OOMs under memory jitter.
    pub isolated_ooms: u64,
    /// Device failures injected into this job's stages.
    pub failures: u64,
    /// Fill jobs evicted from this job's stages.
    pub evictions: u64,
    /// Bubbles that passed while a stage was down.
    pub bubbles_lost: u64,
    /// Total device downtime across this job's stages, clamped to the
    /// run.
    pub downtime: SimDuration,
}

impl FleetJobResult {
    /// Aggregate TFLOPS per GPU of this pipeline.
    pub fn total_tflops_per_gpu(&self) -> f64 {
        self.main_tflops_per_gpu + self.recovered_tflops_per_gpu
    }
}

/// Fleet-simulation output: per-job results plus fleet aggregates and
/// global-queue statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetSimResult {
    /// One result per main job, in job order.
    pub jobs: Vec<FleetJobResult>,
    /// Total GPU footprint of the fleet.
    pub total_gpus: usize,
    /// Flat devices simulated (one per pipeline stage per job).
    pub num_devices: usize,
    /// Longest per-job simulated span.
    pub elapsed: SimDuration,
    /// Surviving fill FLOPs fleet-wide.
    pub fill_flops: f64,
    /// Fill FLOPs lost to evictions fleet-wide.
    pub lost_fill_flops: f64,
    /// Surviving fill TFLOPS per simulated device, weighted by each
    /// job's device-time.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job TFLOPS per GPU, device-weighted across jobs.
    pub main_tflops_per_gpu: f64,
    /// Device-weighted mean main-job slowdown.
    pub mean_slowdown: f64,
    /// Device-weighted mean bubble ratio.
    pub bubble_ratio: f64,
    /// Fill jobs completed fleet-wide.
    pub fill_jobs_completed: usize,
    /// Ids of completed fill jobs, job-major: the fill jobs main job 0's
    /// bubbles completed, in completion order, then main job 1's, and so
    /// on. A fill job evicted and resumed on another main job counts
    /// under the one that completed it; each id appears at most once,
    /// whatever eviction churn it survived.
    pub completed_fill_ids: Vec<JobId>,
    /// Device failures injected fleet-wide.
    pub failures: u64,
    /// Fill-job evictions fleet-wide.
    pub evictions: u64,
    /// Evicted fill jobs resumed on a *different* main job than they
    /// were evicted from — what the global queue buys over per-job
    /// queues.
    pub cross_job_dispatches: u64,
    /// Deepest the global queue ever was.
    pub peak_queue_depth: usize,
    /// Evicted fill jobs still waiting when the run ended.
    pub left_in_queue: usize,
    /// `fill_flops / (fill_flops + lost_fill_flops)`; 1 when nothing ran.
    pub goodput_fraction: f64,
    /// Iterations skipped analytically by steady-state fast-forward,
    /// summed across jobs (always zero while fault injection is on).
    pub iterations_fast_forwarded: u64,
}

impl FleetSimResult {
    /// Aggregate TFLOPS per GPU (main + fill), device-weighted.
    pub fn total_tflops_per_gpu(&self) -> f64 {
        self.main_tflops_per_gpu + self.recovered_tflops_per_gpu
    }
}

/// The fleet backend: the pipeline-filling engine reporting the whole
/// fleet, many physical-model pipelines on one kernel and one global
/// fill queue. See the module docs for the model.
pub type FleetBackend = FillBackend<FleetSimResult>;

impl FleetBackend {
    /// Builds the backend: interns the jobs' shape classes through a
    /// fingerprint map (one lookup and one exact comparison per job,
    /// classes numbered by first appearance), profiles each class once
    /// (fanned across cores through the sweep driver), and lays the jobs
    /// out on a flat device index space.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.jobs` is empty.
    pub fn new(cfg: FleetSimConfig) -> Self {
        FillBackend::build(cfg, BackendKind::Fleet)
    }

    /// Runs a configuration to completion on the shared event kernel.
    pub fn simulate(cfg: FleetSimConfig) -> FleetSimResult {
        BackendDriver::new(Self::new(cfg)).run().1.into_result()
    }

    /// The detailed result. Only valid after the driver has run.
    ///
    /// # Panics
    ///
    /// Panics if the backend has not been drained yet.
    pub fn into_result(self) -> FleetSimResult {
        self.into_report()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn physical_config(seed: u64) -> PhysicalSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = PhysicalSimConfig::new(main);
        cfg.iterations = 120;
        cfg.seed = seed;
        cfg
    }

    fn twin_fleet(seed: u64) -> FleetSimConfig {
        // Two identical jobs, both admitting foreign fill work.
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut a = FleetJobConfig::new(main.clone());
        a.iterations = 120;
        a.seed = seed;
        let mut b = FleetJobConfig::new(main);
        b.iterations = 120;
        b.seed = seed ^ 0xABCD;
        let mut cfg = FleetSimConfig::new(vec![a, b]);
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn degenerate_zero_horizon_fleet_reports_finite_zeros() {
        // A fleet whose every job simulates zero iterations has no
        // elapsed time and no bubbles; the aggregate divisions must not
        // mint NaN (which would flow silently into fleet_scale.csv).
        let mut cfg = twin_fleet(11);
        for job in &mut cfg.jobs {
            job.iterations = 0;
        }
        let result = FleetBackend::simulate(cfg);
        assert_eq!(result.elapsed, SimDuration::ZERO);
        assert_eq!(result.fill_flops, 0.0);
        for (name, v) in [
            ("recovered", result.recovered_tflops_per_gpu),
            ("main", result.main_tflops_per_gpu),
            ("slowdown", result.mean_slowdown),
            ("bubble", result.bubble_ratio),
            ("goodput", result.goodput_fraction),
        ] {
            assert!(v.is_finite(), "{name} = {v}");
        }
        for job in &result.jobs {
            assert!(job.recovered_tflops_per_gpu.is_finite());
            assert!(job.main_tflops_per_gpu.is_finite());
            assert!(job.main_slowdown.is_finite());
            assert_eq!(job.mean_period, job.nominal_period);
        }
        // The per-job main TFLOPS aggregate is still the nominal rate —
        // the guard zeroes only truly stage-less fleets.
        assert!(result.main_tflops_per_gpu > 0.0);
    }

    #[test]
    fn deterministic_per_seed() {
        let cfg = twin_fleet(11).with_mtbf(SimDuration::from_secs(400));
        let a = FleetBackend::simulate(cfg.clone());
        let b = FleetBackend::simulate(cfg);
        assert_eq!(a, b);
    }

    #[test]
    fn jobs_are_independent_without_faults() {
        // A job's workload stream is its own: adding a second job to the
        // fleet must not perturb the first one's results.
        let solo = FleetBackend::simulate(FleetSimConfig::from_physical(&physical_config(3)));
        let mut duo_cfg = twin_fleet(3);
        duo_cfg.jobs[0].seed = 3;
        let duo = FleetBackend::simulate(duo_cfg);
        assert_eq!(duo.jobs[0].fill_flops, solo.jobs[0].fill_flops);
        assert_eq!(duo.jobs[0].main_slowdown, solo.jobs[0].main_slowdown);
    }

    #[test]
    fn failures_route_evictions_through_the_global_queue() {
        let cfg = twin_fleet(5).with_mtbf(SimDuration::from_secs(200));
        let r = FleetBackend::simulate(cfg);
        assert!(r.failures > 0, "no failures at a 200s MTBF");
        assert!(r.evictions > 0, "failures never evicted a fill job");
        assert!(r.lost_fill_flops > 0.0);
        assert!(r.goodput_fraction < 1.0);
        assert!(r.peak_queue_depth > 0, "evictions never reached the queue");
        // Both jobs share a shape class and admit foreign work, so the
        // global queue resumes evictions across job boundaries.
        assert!(
            r.cross_job_dispatches > 0,
            "global queue never dispatched across jobs"
        );
        // Goodput is consistent with the flops split.
        let expect = r.fill_flops / (r.fill_flops + r.lost_fill_flops);
        assert!((r.goodput_fraction - expect).abs() < 1e-12);
    }

    #[test]
    fn admission_gates_cross_job_dispatch() {
        let mut cfg = twin_fleet(5).with_mtbf(SimDuration::from_secs(200));
        for job in &mut cfg.jobs {
            job.admits_foreign = false;
        }
        let r = FleetBackend::simulate(cfg);
        assert!(r.evictions > 0);
        assert_eq!(
            r.cross_job_dispatches, 0,
            "admission off, yet work crossed jobs"
        );
    }

    #[test]
    fn completed_fill_ids_are_unique_under_churn() {
        let cfg = twin_fleet(9).with_mtbf(SimDuration::from_secs(200));
        let r = FleetBackend::simulate(cfg);
        assert!(r.evictions > 0);
        let mut ids = r.completed_fill_ids.clone();
        ids.sort_unstable();
        let n = ids.len();
        ids.dedup();
        assert_eq!(n, ids.len(), "a fill job completed twice");
        assert_eq!(r.completed_fill_ids.len(), r.fill_jobs_completed);
    }

    #[test]
    fn heterogeneous_fleet_runs_and_aggregates() {
        let workload = FleetWorkloadConfig {
            jobs: 6,
            target_gpus: 6 * 64,
            seed: 13,
            iterations: 30,
        };
        let cfg = FleetSimConfig::from_workload(&workload);
        let r = FleetBackend::simulate(cfg);
        assert_eq!(r.jobs.len(), 6);
        assert!(r.total_gpus > 0);
        assert!(r.num_devices >= 6 * 8);
        // Filling jobs recover throughput; opted-out jobs recover none.
        for job in &r.jobs {
            if job.fill_fraction == 0.0 {
                assert_eq!(job.recovered_tflops_per_gpu, 0.0);
                assert_eq!(job.main_slowdown, 0.0);
            }
            assert!(job.main_tflops_per_gpu > 0.0);
            assert!((0.0..=1.0).contains(&job.bubble_ratio));
        }
        assert!(r.fill_flops > 0.0);
        assert!(r.recovered_tflops_per_gpu > 0.0);
        assert!(r.elapsed >= r.jobs.iter().map(|j| j.elapsed).max().unwrap());
    }

    #[test]
    fn no_fill_fleet_is_inert() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut job = FleetJobConfig::new(main);
        job.executor.fill_fraction = 0.0;
        job.iterations = 50;
        let cfg = FleetSimConfig::new(vec![job]).with_mtbf(SimDuration::from_secs(60));
        let r = FleetBackend::simulate(cfg);
        assert_eq!(r.fill_flops, 0.0);
        assert_eq!(r.failures, 0, "failure chain must not outlive filling");
        assert_eq!(r.mean_slowdown, 0.0);
    }

    fn quiescent_fleet(jobs: usize, iterations: usize) -> FleetSimConfig {
        // No jitter, deterministic single-model mix, small fill jobs:
        // every job's iteration stream cycles quickly, so fast-forward
        // fires (each job still owns a distinct seed, which only matters
        // for sampled mixes — kept distinct to mirror real fleets).
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let jobs = (0..jobs)
            .map(|j| {
                let mut job = FleetJobConfig::new(main.clone());
                job.iterations = iterations;
                job.seed = 7 + j as u64;
                job
            })
            .collect();
        let mut cfg = FleetSimConfig::new(jobs);
        cfg.jitter_cv = 0.0;
        cfg.deterministic_mix = true;
        cfg.mix = ModelMix::single(pipefill_model_zoo::ModelId::EfficientNet);
        cfg.backlog_job_gpu_hours = 0.002;
        cfg
    }

    #[test]
    fn multi_job_fast_forward_matches_per_job_results_bit_for_bit() {
        // Each job skips its own cycles independently, and a skip is
        // bit-identical to the events it replaces: the per-job results
        // and the job-major completed-id sequence match either way.
        let cfg = quiescent_fleet(3, 400);
        let mut off = cfg.clone();
        off.fast_forward = false;
        let r_on = FleetBackend::simulate(cfg);
        let r_off = FleetBackend::simulate(off);
        assert!(r_on.iterations_fast_forwarded > 0);
        assert_eq!(r_on.jobs, r_off.jobs);
        assert_eq!(r_on.fill_flops.to_bits(), r_off.fill_flops.to_bits());
        assert_eq!(r_on.fill_jobs_completed, r_off.fill_jobs_completed);
        assert_eq!(r_on.completed_fill_ids, r_off.completed_fill_ids);
    }

    #[test]
    #[should_panic(expected = "at least one main job")]
    fn empty_fleet_rejected() {
        let mut cfg = twin_fleet(1);
        cfg.jobs.clear();
        let _ = FleetBackend::new(cfg);
    }
}

/// `FleetSimConfig::from_workload_scheduled` against the per-job lowering
/// it replaced, kept here verbatim: every field of every job is equal,
/// and every job shares job 0's model graph.
#[cfg(test)]
mod lowering_pin {
    use std::sync::Arc;

    use super::{FleetJobConfig, FleetSimConfig};
    use pipefill_device::DeviceSpec;
    use pipefill_executor::ExecutorConfig;
    use pipefill_pipeline::{MainJobSpec, ParallelismConfig, ScheduleKind};
    use pipefill_trace::{DeviceGeneration, FleetJobPlan, FleetWorkloadConfig};
    use proptest::prelude::*;

    /// `FleetJobConfig::from_plan` as it was: a fresh GPT-5B spec per job.
    fn from_plan(plan: &FleetJobPlan, schedule: ScheduleKind) -> FleetJobConfig {
        let mut main_job = MainJobSpec::physical_5b(plan.microbatches, schedule);
        main_job.parallelism = ParallelismConfig::new(
            plan.tensor_parallel,
            plan.pipeline_stages,
            plan.data_parallel,
            2,
            2 * plan.microbatches * plan.data_parallel,
        );
        main_job.device = match plan.device_generation {
            DeviceGeneration::V100 => DeviceSpec::v100(),
            DeviceGeneration::A100 => DeviceSpec::a100_40g(),
            DeviceGeneration::H100 => DeviceSpec::h100(),
        };
        let mut executor = ExecutorConfig::default();
        if plan.fill_fraction == 0.0 {
            executor.fill_fraction = 0.0;
        } else {
            executor = executor.with_fill_fraction(plan.fill_fraction);
        }
        FleetJobConfig {
            main_job,
            executor,
            iterations: plan.iterations,
            seed: plan.seed,
            admits_foreign: plan.admits_foreign,
            stage_devices: Vec::new(),
        }
    }

    const SCHEDULES: [ScheduleKind; 4] = [
        ScheduleKind::GPipe,
        ScheduleKind::OneFOneB,
        ScheduleKind::Interleaved { chunks: 2 },
        ScheduleKind::ZbH1,
    ];

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn shared_template_lowers_like_the_per_job_build(
            jobs in 1usize..96,
            gpus_per_job in 8usize..2048,
            seed in 0u64..1 << 32,
            schedule in 0usize..SCHEDULES.len(),
        ) {
            let schedule = SCHEDULES[schedule];
            let workload = FleetWorkloadConfig::new(jobs, jobs * gpus_per_job, seed);
            let cfg = FleetSimConfig::from_workload_scheduled(&workload, schedule);
            let plans = workload.generate();
            prop_assert_eq!(cfg.seed, workload.seed);
            prop_assert_eq!(cfg.jobs.len(), plans.len());
            let shared = &cfg.jobs[0].main_job.model;
            for (job, plan) in cfg.jobs.iter().zip(&plans) {
                let FleetJobConfig {
                    main_job,
                    executor,
                    iterations,
                    seed,
                    admits_foreign,
                    stage_devices,
                } = from_plan(plan, schedule);
                prop_assert_eq!(&job.main_job, &main_job);
                prop_assert_eq!(job.executor, executor);
                prop_assert_eq!(job.iterations, iterations);
                prop_assert_eq!(job.seed, seed);
                prop_assert_eq!(job.admits_foreign, admits_foreign);
                prop_assert_eq!(&job.stage_devices, &stage_devices);
                prop_assert!(Arc::ptr_eq(&job.main_job.model, shared));
            }
        }
    }
}
