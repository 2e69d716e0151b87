//! The coarse, profile-driven cluster simulator.
//!
//! Mirrors the paper's event-driven simulator (§5.1): "the events in our
//! simulator are the arrivals and completions of fill-jobs (since these
//! are when the state of the system can change), and we simulate the time
//! in between these events using the profiled execution times and the job
//! arrivals from the trace."
//!
//! One device is simulated per pipeline stage (every GPU of a
//! tensor-parallel group sees identical bubbles, and data-parallel
//! replicas are statistically identical — the paper likewise runs a
//! single replica, §5.2), so a device's index is its stage.
//!
//! The simulator is implemented as [`CoarseBackend`], a
//! [`SimBackend`](crate::SimBackend) over the shared
//! [`ClusterEvent`](crate::ClusterEvent) alphabet: it owns no time loop and
//! is driven entirely by the `sim-core` kernel.
//! [`CoarseBackend::simulate`] is the convenience entry point.

use pipefill_executor::{ExecutorConfig, FillJobSpec, JobId};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::MainJobSpec;
use pipefill_scheduler::{
    ExecutorSnapshot, Fifo, GlobalFillQueue, JobInfo, MakespanMin, SchedulingPolicy,
    ShortestJobFirst, SystemState, Weighted,
};
use pipefill_sim_core::{EventHandler, EventQueue, LookupMap, SimDuration, SimTime, Simulation};
use pipefill_trace::{TraceConfig, TraceGenerator};

use crate::backend::{BackendDriver, BackendKind, BackendMetrics, ClusterEvent, SimBackend};
use crate::convert::trace_job_to_spec;
use crate::metrics::JctStats;
use crate::plans::StagePlans;

/// Which built-in policy the simulation uses (a serializable stand-in for
/// the boxed policy trait).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PolicyKind {
    /// First-in-first-out.
    Fifo,
    /// Shortest-Job-First (paper example).
    Sjf,
    /// Makespan-minimizing (paper example).
    MakespanMin,
    /// Deadline-aware hierarchy falling back to SJF.
    DeadlineThenSjf,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn SchedulingPolicy> {
        match self {
            PolicyKind::Fifo => Box::new(Fifo),
            PolicyKind::Sjf => Box::new(ShortestJobFirst),
            PolicyKind::MakespanMin => Box::new(MakespanMin),
            PolicyKind::DeadlineThenSjf => Box::new(Weighted::deadline_then_sjf()),
        }
    }
}

impl std::fmt::Display for PolicyKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PolicyKind::Fifo => write!(f, "FIFO"),
            PolicyKind::Sjf => write!(f, "SJF"),
            PolicyKind::MakespanMin => write!(f, "Makespan-Min"),
            PolicyKind::DeadlineThenSjf => write!(f, "EDF+SJF"),
        }
    }
}

impl std::str::FromStr for PolicyKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fifo" => Ok(PolicyKind::Fifo),
            "sjf" => Ok(PolicyKind::Sjf),
            "makespan" | "makespan-min" => Ok(PolicyKind::MakespanMin),
            "edf" | "edf-sjf" => Ok(PolicyKind::DeadlineThenSjf),
            other => Err(format!(
                "unknown policy '{other}' (fifo|sjf|makespan-min|edf)"
            )),
        }
    }
}

/// Cluster-simulation configuration.
#[derive(Debug, Clone)]
pub struct ClusterSimConfig {
    /// The main training job whose bubbles are filled.
    pub main_job: MainJobSpec,
    /// Fill-job workload.
    pub trace: TraceConfig,
    /// Scheduling policy.
    pub policy: PolicyKind,
    /// Executor tuning.
    pub executor: ExecutorConfig,
}

impl ClusterSimConfig {
    /// Defaults: SJF, paper executor constants.
    pub fn new(main_job: MainJobSpec, trace: TraceConfig) -> Self {
        ClusterSimConfig {
            main_job,
            trace,
            policy: PolicyKind::Sjf,
            executor: ExecutorConfig::default(),
        }
    }
}

/// One finished fill job.
#[derive(Debug, Clone, PartialEq)]
pub struct CompletedJob {
    /// Job id.
    pub id: JobId,
    /// Model run.
    pub model: ModelId,
    /// Training or inference.
    pub kind: JobKind,
    /// Arrival time.
    pub arrival: SimTime,
    /// Dispatch time.
    pub started: SimTime,
    /// Completion time.
    pub completed: SimTime,
    /// Device it ran on.
    pub device: usize,
    /// Samples processed.
    pub samples: u64,
    /// FLOPs executed.
    pub flops: f64,
    /// The job's deadline, if it had one.
    pub deadline: Option<SimTime>,
}

impl CompletedJob {
    /// Whether the job finished by its deadline (`None` if it had none).
    pub fn met_deadline(&self) -> Option<bool> {
        self.deadline.map(|d| self.completed <= d)
    }
}

/// Simulation output.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSimResult {
    /// Devices simulated.
    pub num_devices: usize,
    /// Trace horizon.
    pub horizon: SimDuration,
    /// Finished jobs.
    pub completed: Vec<CompletedJob>,
    /// Jobs infeasible on every device.
    pub rejected: usize,
    /// Fill FLOPs executed within the horizon (running jobs prorated).
    pub fill_flops_in_horizon: f64,
    /// Fill TFLOPS per GPU over the horizon.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job TFLOPS per GPU.
    pub main_tflops_per_gpu: f64,
    /// Engine bubble ratio.
    pub bubble_ratio: f64,
    /// Completion-time statistics.
    pub jct: JctStats,
    /// Time of the last completion (the makespan, Fig. 9b's metric).
    pub makespan: SimDuration,
    /// Jobs with deadlines that finished in time.
    pub deadlines_met: usize,
    /// Jobs with deadlines that finished late.
    pub deadlines_missed: usize,
}

impl ClusterSimResult {
    /// Aggregate TFLOPS per GPU (main + fill).
    pub fn total_tflops_per_gpu(&self) -> f64 {
        self.main_tflops_per_gpu + self.recovered_tflops_per_gpu
    }
}

struct Running {
    job: FillJobSpec,
    started: SimTime,
    completes: SimTime,
    flops: f64,
}

/// The coarse profile-driven backend: a [`SimBackend`] whose events are
/// fill-job arrivals and completions, exactly as in the paper's simulator.
/// All time keeping lives in the `sim-core` kernel that drives it.
pub struct CoarseBackend {
    config: ClusterSimConfig,
    period: SimDuration,
    bubble_ratio: f64,
    main_tflops: f64,
    /// The main job's plan for every fill-job type on every stage.
    pub(crate) plans: StagePlans,
    /// The fill-job queue: one pipeline owning every device.
    fill_queue: GlobalFillQueue,
    /// The job each device (= stage) runs, if any.
    running: Vec<Option<Running>>,
    specs: LookupMap<JobId, FillJobSpec>,
    arrivals: Vec<FillJobSpec>,
    completed: Vec<CompletedJob>,
    rejected: usize,
    result: Option<ClusterSimResult>,
}

impl CoarseBackend {
    /// Builds the backend: runs the engine once to extract bubbles, then
    /// generates and converts the fill-job trace.
    pub fn new(config: ClusterSimConfig) -> Self {
        let timeline = config.main_job.engine_timeline();
        let plans = StagePlans::homogeneous(&timeline, &config.main_job.device, config.executor);
        let main_tflops = config.main_job.main_job_tflops_per_gpu(&timeline);
        let num_devices = plans.stages();

        let (trace_jobs, _) = TraceGenerator::new(config.trace.clone()).generate();
        // Every stage runs the main job's device, so stage 0's exclusive
        // throughput sizes each trace job.
        let arrivals: Vec<FillJobSpec> = trace_jobs
            .iter()
            .filter_map(|t| {
                let throughput = plans.throughput(t.model, t.kind, 0)?;
                Some(trace_job_to_spec(t, throughput))
            })
            .collect();

        let fill_queue =
            GlobalFillQueue::new(config.policy.build(), vec![0; num_devices], vec![true]);
        CoarseBackend {
            period: timeline.period,
            bubble_ratio: timeline.bubble_ratio(),
            main_tflops,
            plans,
            fill_queue,
            running: (0..num_devices).map(|_| None).collect(),
            specs: LookupMap::new(),
            arrivals,
            completed: Vec::new(),
            rejected: 0,
            result: None,
            config,
        }
    }

    fn proc_time(&self, job: &FillJobSpec, stage: usize) -> Option<SimDuration> {
        let plan = self.plans.plan(job.model, job.kind, stage)?;
        Some(self.period * plan.main_iterations_for(job.samples))
    }

    fn job_flops(&self, job: &FillJobSpec, stage: usize) -> f64 {
        match self.plans.plan(job.model, job.kind, stage) {
            None => 0.0,
            Some(p) => p.flops_per_pass * (job.samples as f64 / p.samples_per_pass.max(1) as f64),
        }
    }

    /// Runs a configuration to completion (all trace jobs finished) on
    /// the shared event kernel.
    pub fn simulate(config: ClusterSimConfig) -> ClusterSimResult {
        BackendDriver::new(Self::new(config)).run().1.into_result()
    }

    /// The detailed result. Only valid after the driver has run.
    ///
    /// # Panics
    ///
    /// Panics if the backend has not been drained yet.
    pub fn into_result(self) -> ClusterSimResult {
        self.result
            .expect("backend not drained; drive it with BackendDriver::run")
    }

    fn snapshot(&self, now: SimTime) -> SystemState {
        SystemState {
            now,
            executors: self
                .running
                .iter()
                .map(|r| ExecutorSnapshot {
                    remaining: r
                        .as_ref()
                        .map_or(SimDuration::ZERO, |r| r.completes.saturating_since(now)),
                })
                .collect(),
        }
    }

    fn dispatch_idle(&mut self, now: SimTime, queue: &mut EventQueue<ClusterEvent>) {
        let idle: Vec<usize> = self
            .running
            .iter()
            .enumerate()
            .filter(|(_, r)| r.is_none())
            .map(|(i, _)| i)
            .collect();
        for device in idle {
            let state = self.snapshot(now);
            let Some(info) = self.fill_queue.pick_for(device, &state) else {
                continue;
            };
            let spec = self
                .specs
                .remove(&info.id)
                .expect("spec recorded at arrival");
            let proc = info.proc_time(device).expect("picked job is feasible here");
            let flops = self.job_flops(&spec, device);
            let completes = now + proc;
            self.running[device] = Some(Running {
                job: spec,
                started: now,
                completes,
                flops,
            });
            queue.push(completes, ClusterEvent::JobCompletion { device });
        }
    }
}

impl EventHandler for CoarseBackend {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, event: ClusterEvent, queue: &mut EventQueue<ClusterEvent>) {
        match event {
            ClusterEvent::JobArrival(i) => {
                let spec = self.arrivals[i].clone();
                let proc_times: Vec<Option<SimDuration>> = (0..self.running.len())
                    .map(|stage| self.proc_time(&spec, stage))
                    .collect();
                if proc_times.iter().all(|t| t.is_none()) {
                    self.rejected += 1;
                    return;
                }
                let mut info = JobInfo::new(spec.id, spec.arrival, proc_times);
                if let Some(d) = spec.deadline {
                    info = info.with_deadline(d);
                }
                self.specs.insert(spec.id, spec);
                self.fill_queue.requeue_from(0, info);
                self.dispatch_idle(now, queue);
            }
            ClusterEvent::JobCompletion { device } => {
                let running = self.running[device]
                    .take()
                    .expect("completion without running job");
                debug_assert_eq!(running.completes, now);
                self.completed.push(CompletedJob {
                    id: running.job.id,
                    model: running.job.model,
                    kind: running.job.kind,
                    arrival: running.job.arrival,
                    started: running.started,
                    completed: now,
                    device,
                    samples: running.job.samples,
                    flops: running.flops,
                    deadline: running.job.deadline,
                });
                self.dispatch_idle(now, queue);
            }
            ClusterEvent::StageBubbles { .. }
            | ClusterEvent::JobIterationEnd { .. }
            | ClusterEvent::DeviceFailure { .. }
            | ClusterEvent::DeviceRecovery { .. } => {
                debug_assert!(false, "coarse backend received a fine-grained event");
            }
        }
    }
}

impl SimBackend for CoarseBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Coarse
    }

    fn prime(&mut self, sim: &mut Simulation<ClusterEvent>) {
        for (i, job) in self.arrivals.iter().enumerate() {
            sim.schedule(job.arrival, ClusterEvent::JobArrival(i));
        }
    }

    fn drain(&mut self, _now: SimTime) {
        // Utilization accounting within the horizon.
        let horizon = self.config.trace.horizon;
        let num_devices = self.running.len();
        let horizon_secs = horizon.as_secs_f64();
        let mut flops_in_horizon = 0.0;
        let mut jcts = Vec::with_capacity(self.completed.len());
        let mut makespan = SimDuration::ZERO;
        let mut deadlines_met = 0usize;
        let mut deadlines_missed = 0usize;
        for job in &self.completed {
            match job.met_deadline() {
                Some(true) => deadlines_met += 1,
                Some(false) => deadlines_missed += 1,
                None => {}
            }
            jcts.push(job.completed.saturating_since(job.arrival).as_secs_f64());
            makespan = makespan.max(job.completed.saturating_since(SimTime::ZERO));
            let start = job.started.as_secs_f64();
            let end = job.completed.as_secs_f64();
            if start >= horizon_secs {
                continue;
            }
            let fraction = if end <= horizon_secs {
                1.0
            } else {
                (horizon_secs - start) / (end - start)
            };
            flops_in_horizon += job.flops * fraction;
        }

        self.result = Some(ClusterSimResult {
            num_devices,
            horizon,
            rejected: self.rejected,
            fill_flops_in_horizon: flops_in_horizon,
            recovered_tflops_per_gpu: if horizon.is_zero() {
                // A zero horizon would divide 0 by 0 and print NaN.
                0.0
            } else {
                flops_in_horizon / (num_devices as f64 * horizon_secs) / 1e12
            },
            main_tflops_per_gpu: self.main_tflops,
            bubble_ratio: self.bubble_ratio,
            jct: JctStats::from_secs(&jcts),
            makespan,
            deadlines_met,
            deadlines_missed,
            completed: std::mem::take(&mut self.completed),
        });
    }

    fn metrics(&self, events_dispatched: u64) -> BackendMetrics {
        let result = self
            .result
            .as_ref()
            .expect("metrics requested before drain");
        BackendMetrics {
            kind: BackendKind::Coarse,
            num_devices: result.num_devices,
            elapsed: result.horizon,
            events_dispatched,
            fill_flops: result.fill_flops_in_horizon,
            recovered_tflops_per_gpu: result.recovered_tflops_per_gpu,
            main_tflops_per_gpu: result.main_tflops_per_gpu,
            // The coarse fidelity replays profiled plans capped at the fill
            // fraction, so it models no main-job interference.
            main_slowdown: 0.0,
            bubble_ratio: result.bubble_ratio,
            jobs_completed: result.completed.len(),
            // The coarse fidelity injects no failures.
            evictions: 0,
            lost_fill_flops: 0.0,
            goodput_fraction: 1.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_pipeline::ScheduleKind;
    use pipefill_sim_core::SimDuration;

    fn quick_config(seed: u64) -> ClusterSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut trace = TraceConfig::physical(seed);
        trace.horizon = SimDuration::from_secs(1800);
        ClusterSimConfig::new(main, trace)
    }

    #[test]
    fn simulation_completes_all_accepted_jobs() {
        let result = CoarseBackend::simulate(quick_config(1));
        assert!(
            result.completed.len() > 10,
            "only {}",
            result.completed.len()
        );
        assert_eq!(result.num_devices, 16);
        for job in &result.completed {
            assert!(job.started >= job.arrival);
            assert!(job.completed > job.started);
            assert!(job.flops > 0.0);
        }
    }

    #[test]
    fn deterministic_across_runs() {
        let a = CoarseBackend::simulate(quick_config(2));
        let b = CoarseBackend::simulate(quick_config(2));
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.recovered_tflops_per_gpu, b.recovered_tflops_per_gpu);
    }

    #[test]
    fn recovered_utilization_is_positive_and_bounded() {
        let result = CoarseBackend::simulate(quick_config(3));
        assert!(result.recovered_tflops_per_gpu > 0.0);
        // Cannot exceed peak × bubble ratio.
        assert!(
            result.recovered_tflops_per_gpu < 125.0 * result.bubble_ratio,
            "{}",
            result.recovered_tflops_per_gpu
        );
        assert!(result.total_tflops_per_gpu() > result.main_tflops_per_gpu);
    }

    #[test]
    fn degenerate_zero_horizon_reports_finite_zeros() {
        // No time passes, so nothing is recovered; the per-GPU rate must
        // be 0, not the NaN of dividing by zero device-seconds.
        let mut cfg = quick_config(5);
        cfg.trace.horizon = SimDuration::ZERO;
        let result = CoarseBackend::simulate(cfg);
        assert_eq!(result.horizon, SimDuration::ZERO);
        assert_eq!(result.fill_flops_in_horizon, 0.0);
        assert_eq!(result.recovered_tflops_per_gpu, 0.0);
        for (name, v) in [
            ("main", result.main_tflops_per_gpu),
            ("total", result.total_tflops_per_gpu()),
            ("bubble", result.bubble_ratio),
            ("jct", result.jct.mean_secs),
        ] {
            assert!(v.is_finite(), "{name} = {v}");
        }
        // The main job's rate is still its nominal one.
        assert!(result.main_tflops_per_gpu > 0.0);
    }

    #[test]
    fn higher_load_increases_makespan_and_jct() {
        let lo = CoarseBackend::simulate(ClusterSimConfig {
            trace: TraceConfig::physical(4).with_load(0.3).clone(),
            ..quick_config(4)
        });
        let hi = CoarseBackend::simulate(ClusterSimConfig {
            trace: TraceConfig::physical(4).with_load(3.0).clone(),
            ..quick_config(4)
        });
        assert!(hi.completed.len() > lo.completed.len());
        assert!(hi.jct.mean_secs > lo.jct.mean_secs);
    }

    #[test]
    fn deadline_policy_meets_more_deadlines_under_load() {
        let mk = |policy| {
            let mut cfg = quick_config(6);
            cfg.trace = cfg.trace.with_load(3.0);
            cfg.trace.deadline_fraction = 0.6;
            cfg.trace.deadline_slack = 5.0;
            cfg.policy = policy;
            CoarseBackend::simulate(cfg)
        };
        let edf = mk(PolicyKind::DeadlineThenSjf);
        let fifo = mk(PolicyKind::Fifo);
        assert!(
            edf.deadlines_met + edf.deadlines_missed > 10,
            "too few deadline jobs"
        );
        assert!(
            edf.deadlines_met >= fifo.deadlines_met,
            "EDF met {} vs FIFO {}",
            edf.deadlines_met,
            fifo.deadlines_met
        );
    }

    #[test]
    fn sjf_beats_fifo_on_mean_jct() {
        let mk = |policy| {
            let mut cfg = quick_config(5);
            cfg.trace = cfg.trace.with_load(1.5);
            cfg.policy = policy;
            CoarseBackend::simulate(cfg)
        };
        let sjf = mk(PolicyKind::Sjf);
        let fifo = mk(PolicyKind::Fifo);
        assert!(
            sjf.jct.mean_secs <= fifo.jct.mean_secs,
            "SJF {} vs FIFO {}",
            sjf.jct.mean_secs,
            fifo.jct.mean_secs
        );
    }
}
