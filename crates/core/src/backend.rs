//! The fidelity-polymorphic simulation backend layer.
//!
//! The paper evaluates PipeFill with two simulators that must agree: a
//! coarse profile-driven one whose events are fill-job arrivals and
//! completions (§5.1), and a fine-grained stand-in for the 16-GPU physical
//! cluster validated against it in Fig. 6. Both are expressed here as
//! [`SimBackend`]s over one shared event alphabet ([`ClusterEvent`]) and
//! driven by the same `pipefill_sim_core` kernel — the backends own *state*,
//! the kernel owns *time*. That split is what makes the Fig. 6 validation an
//! apples-to-apples comparison (identical event ordering and RNG machinery,
//! different fidelity), and it leaves a single seam for future backends:
//! heterogeneous clusters, failure injection, trace replay.
//!
//! Selection is by value, not by type: experiment drivers build a
//! [`BackendConfig`] (an enum over the per-fidelity configurations) and call
//! [`BackendConfig::run`], which returns the fidelity-independent
//! [`BackendMetrics`] plus the backend-specific detail.

use pipefill_sim_core::{EventHandler, SimDuration, SimTime, Simulation, StepOutcome};

use crate::cluster::{ClusterSimConfig, ClusterSimResult, CoarseBackend};
use crate::fleet::{FleetBackend, FleetSimConfig, FleetSimResult};
use crate::physical::{PhysicalBackend, PhysicalSimConfig, PhysicalSimResult};

/// Which fidelity level a simulation runs at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// Profile-driven: events are job arrivals/completions; the time in
    /// between is replayed from execution plans (§5.1).
    Coarse,
    /// Fine-grained: every bubble of every iteration executes with timing
    /// jitter, context-switch costs and engine slack (§6.1's testbed).
    Physical,
    /// Fine-grained plus heterogeneous per-stage GPUs and seeded
    /// failure/recovery injection with FreeRide-style fill-job eviction
    /// accounting.
    Fault,
    /// Fleet-scale: many concurrent pipeline-parallel main jobs sharing
    /// one cluster-wide fill queue on a single event kernel.
    Fleet,
}

impl BackendKind {
    /// All backends, for sweeps and CLI listings.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Coarse,
        BackendKind::Physical,
        BackendKind::Fault,
        BackendKind::Fleet,
    ];
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BackendKind::Coarse => write!(f, "coarse"),
            BackendKind::Physical => write!(f, "physical"),
            BackendKind::Fault => write!(f, "fault"),
            BackendKind::Fleet => write!(f, "fleet"),
        }
    }
}

impl std::str::FromStr for BackendKind {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "coarse" | "sim" | "cluster" => Ok(BackendKind::Coarse),
            "physical" | "phys" | "fine" => Ok(BackendKind::Physical),
            "fault" | "faults" | "hetero" => Ok(BackendKind::Fault),
            "fleet" | "multi" | "multi-job" => Ok(BackendKind::Fleet),
            other => Err(format!(
                "unknown backend '{other}' (coarse|physical|fault|fleet)"
            )),
        }
    }
}

/// The shared event alphabet. Each backend uses the subset matching its
/// fidelity; sharing one alphabet keeps the kernel, queue and driver
/// monomorphic so backends can be swapped behind a value-level enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClusterEvent {
    /// A fill job arrived (index into the backend's arrival list).
    JobArrival(usize),
    /// The fill job running on `device` completed.
    JobCompletion {
        /// Device whose job finished.
        device: usize,
    },
    /// Execute the bubbles of one pipeline stage for the current main-job
    /// iteration (pipeline-filling backends only). `stage` is a *flat*
    /// index over every pipeline's stages.
    StageBubbles {
        /// Flat pipeline stage index.
        stage: usize,
    },
    /// Iteration boundary of one main job: aggregate its per-stage stalls
    /// into the pipeline's critical path (pipeline-filling backends
    /// only).
    JobIterationEnd {
        /// Main-job index.
        job: usize,
    },
    /// The GPU driving `device` failed: evict its fill job and take the
    /// stage down until recovery (failure-injecting backends only).
    DeviceFailure {
        /// Device (pipeline stage) that failed.
        device: usize,
    },
    /// The GPU driving `device` came back: re-admit fill work and schedule
    /// the next failure (failure-injecting backends only).
    DeviceRecovery {
        /// Device (pipeline stage) that recovered.
        device: usize,
    },
}

/// Fidelity-independent metrics every backend reports; the common currency
/// of the Fig. 6 agreement test and the parallel sweep driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackendMetrics {
    /// Which backend produced this.
    pub kind: BackendKind,
    /// Devices simulated.
    pub num_devices: usize,
    /// Simulated span the rates below are normalized over.
    pub elapsed: SimDuration,
    /// Events the kernel dispatched.
    pub events_dispatched: u64,
    /// Fill FLOPs executed within `elapsed`.
    pub fill_flops: f64,
    /// Fill TFLOPS per GPU recovered from bubbles.
    pub recovered_tflops_per_gpu: f64,
    /// Main-job TFLOPS per GPU (slowdown-adjusted where measured).
    pub main_tflops_per_gpu: f64,
    /// Main-job slowdown caused by filling (0 where the fidelity level
    /// models no interference).
    pub main_slowdown: f64,
    /// Engine bubble ratio of the main job.
    pub bubble_ratio: f64,
    /// Fill jobs completed.
    pub jobs_completed: usize,
    /// Fill jobs evicted by injected device failures (0 where the
    /// fidelity level models no faults).
    pub evictions: u64,
    /// Fill FLOPs executed but lost to evictions (work since the evicted
    /// job's last checkpoint).
    pub lost_fill_flops: f64,
    /// Fraction of executed fill FLOPs that survived eviction:
    /// `fill_flops / (fill_flops + lost_fill_flops)`, 1 when nothing ran.
    pub goodput_fraction: f64,
}

impl BackendMetrics {
    /// Aggregate TFLOPS per GPU (main + fill).
    pub fn total_tflops_per_gpu(&self) -> f64 {
        self.main_tflops_per_gpu + self.recovered_tflops_per_gpu
    }

    /// Goodput fraction from surviving/lost FLOPs (1 when nothing ran).
    pub fn goodput_of(surviving: f64, lost: f64) -> f64 {
        let executed = surviving + lost;
        if executed == 0.0 {
            1.0
        } else {
            surviving / executed
        }
    }
}

/// A cluster-simulation backend driven by the `sim-core` event kernel.
///
/// A backend never owns a time loop: it schedules [`ClusterEvent`]s, reacts
/// to them in [`EventHandler::handle`], and reads the clock the kernel
/// hands it. The lifecycle is `prime` → kernel dispatch → `drain` →
/// `metrics`.
pub trait SimBackend: EventHandler<Event = ClusterEvent> {
    /// Which fidelity level this backend implements.
    fn kind(&self) -> BackendKind;

    /// Schedules the initial event set (trace arrivals, first-iteration
    /// bubbles, …) into the kernel.
    fn prime(&mut self, sim: &mut Simulation<ClusterEvent>);

    /// Dispatch horizon: events beyond it stay queued. `None` runs until
    /// the queue drains.
    fn horizon(&self) -> Option<SimTime> {
        None
    }

    /// Runs the whole simulation without the kernel, when the backend can
    /// reproduce the kernel's run exactly that way, and drains it.
    /// Returns the events the kernel would have dispatched, or `None`
    /// (the default) to leave the run to the kernel. Called only on a
    /// freshly primed backend.
    fn run_pipeline_major(&mut self) -> Option<u64> {
        None
    }

    /// Final accounting once the kernel stops dispatching; `now` is the
    /// firing time of the last event.
    fn drain(&mut self, now: SimTime);

    /// Extracts the fidelity-independent metrics. Only valid after
    /// [`SimBackend::drain`].
    fn metrics(&self, events_dispatched: u64) -> BackendMetrics;
}

/// Owns the kernel plus a backend; supports single-stepping (for tests and
/// debuggers) and run-to-completion.
#[derive(Debug)]
pub struct BackendDriver<B: SimBackend> {
    sim: Simulation<ClusterEvent>,
    backend: B,
}

impl<B: SimBackend> BackendDriver<B> {
    /// Creates the kernel and primes the backend's initial events.
    pub fn new(mut backend: B) -> Self {
        let mut sim = Simulation::new();
        backend.prime(&mut sim);
        BackendDriver { sim, backend }
    }

    /// Dispatches one event.
    pub fn step(&mut self) -> StepOutcome {
        let horizon = self.backend.horizon();
        self.sim.step(&mut self.backend, horizon)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.sim.now()
    }

    /// The backend being driven.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Runs to completion and returns the metrics plus the backend (for
    /// fidelity-specific detail extraction). A driver no step has
    /// dispatched from first offers the run to
    /// [`SimBackend::run_pipeline_major`]; the kernel runs it otherwise.
    pub fn run(mut self) -> (BackendMetrics, B) {
        if self.sim.dispatched() == 0 {
            if let Some(events) = self.backend.run_pipeline_major() {
                let metrics = self.backend.metrics(events);
                return (metrics, self.backend);
            }
        }
        let horizon = self.backend.horizon();
        self.sim.run(&mut self.backend, horizon);
        self.backend.drain(self.sim.now());
        let metrics = self.backend.metrics(self.sim.dispatched());
        (metrics, self.backend)
    }
}

/// Backend selection by value: the configuration for one simulation run at
/// a chosen fidelity. This is what experiment drivers, the CLI and the
/// sweep driver pass around.
#[derive(Debug, Clone)]
pub enum BackendConfig {
    /// Run the coarse profile-driven backend.
    Coarse(ClusterSimConfig),
    /// Run the fine-grained physical backend.
    Physical(PhysicalSimConfig),
    /// Run the heterogeneous, failure-injecting backend: a one-job fleet
    /// (see [`FleetBackend::fault`]).
    Fault(FleetSimConfig),
    /// Run the fleet-scale multi-job backend.
    Fleet(FleetSimConfig),
}

impl BackendConfig {
    /// Which backend this configuration selects.
    pub fn kind(&self) -> BackendKind {
        match self {
            BackendConfig::Coarse(_) => BackendKind::Coarse,
            BackendConfig::Physical(_) => BackendKind::Physical,
            BackendConfig::Fault(_) => BackendKind::Fault,
            BackendConfig::Fleet(_) => BackendKind::Fleet,
        }
    }

    /// Builds the backend, drives it through the shared kernel, and
    /// returns metrics plus detail.
    pub fn run(self) -> BackendRun {
        match self {
            BackendConfig::Coarse(config) => {
                let (metrics, backend) = BackendDriver::new(CoarseBackend::new(config)).run();
                BackendRun {
                    metrics,
                    detail: BackendDetail::Coarse(backend.into_result()),
                }
            }
            BackendConfig::Physical(config) => {
                let (metrics, backend) = BackendDriver::new(PhysicalBackend::new(config)).run();
                BackendRun {
                    metrics,
                    detail: BackendDetail::Physical(backend.into_result()),
                }
            }
            BackendConfig::Fault(config) => Self::run_fleet(FleetBackend::fault(config)),
            BackendConfig::Fleet(config) => Self::run_fleet(FleetBackend::new(config)),
        }
    }

    /// Drives a fault or fleet backend; both report the fleet detail.
    fn run_fleet(backend: FleetBackend) -> BackendRun {
        let (metrics, backend) = BackendDriver::new(backend).run();
        BackendRun {
            metrics,
            detail: BackendDetail::Fleet(backend.into_result()),
        }
    }
}

/// One finished backend run.
#[derive(Debug, Clone)]
pub struct BackendRun {
    /// The fidelity-independent metrics.
    pub metrics: BackendMetrics,
    /// The backend-specific detail.
    pub detail: BackendDetail,
}

/// Fidelity-specific results.
#[derive(Debug, Clone)]
pub enum BackendDetail {
    /// Full coarse-simulation output (per-job records, JCT, deadlines).
    Coarse(ClusterSimResult),
    /// Full physical-simulation output (slowdown, OOM isolation).
    Physical(PhysicalSimResult),
    /// Full fleet-simulation output (per-job and aggregate metrics,
    /// global-queue statistics). Fault runs report it too: a fault run is
    /// a one-job fleet.
    Fleet(FleetSimResult),
}

impl BackendRun {
    /// The fidelity-independent metrics, by reference (the field is
    /// `Copy`, but the accessor pairs with [`BackendRun::detail`] for
    /// generic callers).
    pub fn metrics(&self) -> &BackendMetrics {
        &self.metrics
    }

    /// The backend-specific detail, by reference. Borrowing callers
    /// (conformance suites comparing a run against its metrics, report
    /// printers) use this instead of cloning the whole run just to feed
    /// one of the consuming accessors below.
    pub fn detail(&self) -> &BackendDetail {
        &self.detail
    }

    /// The physical detail by reference, if this was a physical run.
    pub fn as_physical(&self) -> Option<&PhysicalSimResult> {
        match &self.detail {
            BackendDetail::Physical(r) => Some(r),
            _ => None,
        }
    }

    /// The fleet detail by reference, if this was a fault or fleet run.
    pub fn as_fleet(&self) -> Option<&FleetSimResult> {
        match &self.detail {
            BackendDetail::Fleet(r) => Some(r),
            _ => None,
        }
    }

    /// The coarse detail, if this was a coarse run.
    pub fn coarse(self) -> Option<ClusterSimResult> {
        match self.detail {
            BackendDetail::Coarse(r) => Some(r),
            _ => None,
        }
    }

    /// The physical detail, if this was a physical run.
    pub fn physical(self) -> Option<PhysicalSimResult> {
        match self.detail {
            BackendDetail::Physical(r) => Some(r),
            _ => None,
        }
    }

    /// The fleet detail, if this was a fault or fleet run.
    pub fn fleet(self) -> Option<FleetSimResult> {
        match self.detail {
            BackendDetail::Fleet(r) => Some(r),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_pipeline::{MainJobSpec, ScheduleKind};
    use pipefill_trace::TraceConfig;

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

    #[test]
    fn backend_kind_parses_and_prints() {
        assert_eq!(
            "coarse".parse::<BackendKind>().unwrap(),
            BackendKind::Coarse
        );
        assert_eq!(
            "physical".parse::<BackendKind>().unwrap(),
            BackendKind::Physical
        );
        assert_eq!("fault".parse::<BackendKind>().unwrap(), BackendKind::Fault);
        assert_eq!("fleet".parse::<BackendKind>().unwrap(), BackendKind::Fleet);
        assert!("warp-speed".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Coarse.to_string(), "coarse");
        assert_eq!(BackendKind::Fault.to_string(), "fault");
        assert_eq!(BackendKind::Fleet.to_string(), "fleet");
        assert_eq!(BackendKind::ALL.len(), 4);
    }

    #[test]
    fn enum_selection_runs_both_fidelities() {
        let coarse = BackendConfig::Coarse(coarse_config(3)).run();
        assert_eq!(coarse.metrics.kind, BackendKind::Coarse);
        assert!(coarse.metrics.recovered_tflops_per_gpu > 0.0);
        assert!(coarse.metrics.events_dispatched > 0);
        assert!(coarse.as_physical().is_none());
        assert!(matches!(coarse.detail(), BackendDetail::Coarse(_)));
        assert_eq!(coarse.metrics(), &coarse.metrics);
        assert!(coarse.physical().is_none());

        let phys = BackendConfig::Physical(physical_config(3)).run();
        assert_eq!(phys.metrics.kind, BackendKind::Physical);
        assert!(phys.metrics.recovered_tflops_per_gpu > 0.0);
        assert!(phys.metrics.main_slowdown >= 0.0);
        assert!(phys.metrics.events_dispatched > 0);
        assert!(phys.physical().is_some());

        let mut fault_cfg = physical_config(3);
        fault_cfg.iterations = 40;
        let fault = BackendConfig::Fault(FleetSimConfig::from_physical(&fault_cfg)).run();
        assert_eq!(fault.metrics.kind, BackendKind::Fault);
        assert!(fault.metrics.recovered_tflops_per_gpu > 0.0);
        assert_eq!(fault.metrics.evictions, 0); // faults disabled by default
        assert_eq!(fault.metrics.goodput_fraction, 1.0);
        assert!(fault.fleet().is_some());
    }

    #[test]
    fn goodput_helper_handles_edge_cases() {
        assert_eq!(BackendMetrics::goodput_of(0.0, 0.0), 1.0);
        assert_eq!(BackendMetrics::goodput_of(3.0, 1.0), 0.75);
        assert_eq!(BackendMetrics::goodput_of(0.0, 5.0), 0.0);
    }

    #[test]
    fn driver_single_steps() {
        let mut driver = BackendDriver::new(CoarseBackend::new(coarse_config(4)));
        let mut steps = 0u64;
        while driver.step() == StepOutcome::Dispatched {
            steps += 1;
        }
        assert!(steps > 0);
        assert!(driver.now() > SimTime::ZERO);
    }

    #[test]
    fn metrics_agree_with_detailed_results() {
        let run = BackendConfig::Coarse(coarse_config(5)).run();
        let metrics = run.metrics;
        let detail = run.coarse().unwrap();
        assert_eq!(metrics.jobs_completed, detail.completed.len());
        assert_eq!(
            metrics.recovered_tflops_per_gpu,
            detail.recovered_tflops_per_gpu
        );
        assert_eq!(metrics.num_devices, detail.num_devices);

        let run = BackendConfig::Physical(physical_config(5)).run();
        let metrics = run.metrics;
        let detail = run.physical().unwrap();
        assert_eq!(metrics.jobs_completed, detail.jobs_completed);
        assert_eq!(metrics.main_slowdown, detail.main_slowdown);
        assert_eq!(metrics.fill_flops, detail.fill_flops);
    }
}
