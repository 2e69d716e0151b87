//! The three simulation workloads: their inputs, the timed set-up + run
//! loop, the traced run and the correctness checks.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

use pipefill_core::{
    BackendConfig, BackendDriver, BackendKind, BackendMetrics, FleetBackend, FleetJobConfig,
    FleetSimConfig, FleetSimResult, PhysicalBackend, PhysicalSimConfig, PhysicalSimResult,
    SimBackend,
};
use pipefill_executor::ExecutorConfig;
use pipefill_model_zoo::ModelId;
use pipefill_pipeline::{MainJobSpec, ParallelismConfig, ScheduleKind};
use pipefill_scenario::ScenarioSpec;
use pipefill_sim_core::{Simulation, StepOutcome};
use pipefill_trace::{FleetWorkloadConfig, ModelMix};

use crate::layers::{self, FleetLayout, Histogram};
use crate::{
    host_slowdown, median, mix_seed, peak_rss_mb, repeat, Checks, Report, Scale, Workload,
};

/// MTBF of the fault-heavy fleet, in seconds per device.
const FAULT_MTBF_SECS: f64 = 300.0;

/// Generator seed of the fault-heavy fleet's composition. The fleet is
/// one fixed heterogeneous fleet; the benchmark seed drives its failure
/// and fill-backlog streams instead, so that run time does not swing
/// with which job shapes happened to be drawn.
const FAULT_FLEET_SHAPE_SEED: u64 = 7;

/// Fill-job size of the quiescent fleet in GPU-hours: small enough that
/// fills complete and recycle many times per iteration window, large
/// enough that the completed-id list stays tractable over two days.
const QUIESCENT_BACKLOG: f64 = 0.002;

/// Untraced and traced runs of one input, alternated, so that neither
/// side owns the quieter moments of the host.
const TRACE_PAIRS: usize = 3;

/// A simulation workload's input: the backend configs the workloads use.
enum Input {
    Physical(Box<PhysicalSimConfig>),
    Fleet(FleetSimConfig),
}

impl Input {
    fn from(cfg: BackendConfig) -> Input {
        match cfg {
            BackendConfig::Physical(c) => Input::Physical(Box::new(c)),
            BackendConfig::Fleet(c) => Input::Fleet(c),
            other => unreachable!("no workload runs the {} backend", other.kind()),
        }
    }
}

/// The scenario a workload is described by, where scenario keys can
/// express it.
fn scenario(workload: Workload, scale: &Scale, seed: u64) -> Option<ScenarioSpec> {
    match workload {
        Workload::JitteredPhysical => Some(
            ScenarioSpec::run(BackendKind::Physical)
                .with_iterations(scale.physical_iterations)
                .with_seed(seed),
        ),
        Workload::FaultFleet => Some(
            ScenarioSpec::run(BackendKind::Fleet)
                .with_jobs(scale.fault_jobs)
                .with_gpus(scale.fault_gpus)
                .with_iterations(scale.fault_iterations)
                .with_mtbf_secs(FAULT_MTBF_SECS)
                .with_seed(FAULT_FLEET_SHAPE_SEED),
        ),
        Workload::QuiescentFleet | Workload::ScheduleCertify => None,
    }
}

/// Lowers a workload's scenario and applies the benchmark seed.
fn lower(workload: Workload, spec: &ScenarioSpec, seed: u64) -> Input {
    let mut input = Input::from(spec.lower().expect("benchmark scenarios are valid"));
    if let (Workload::FaultFleet, Input::Fleet(c)) = (workload, &mut input) {
        c.seed = seed;
        for (j, job) in c.jobs.iter_mut().enumerate() {
            job.seed = mix_seed(seed, j as u64);
        }
    }
    input
}

/// The quiescent fleet: tp2/pp8/dp7 jobs (112 GPUs each), jitter 0, one
/// model drawn round-robin, no faults. Scenario keys cannot switch
/// jitter off, so the config is built directly. The seed staggers each
/// job's horizon by up to 63 iterations and seeds its workload stream.
fn quiescent(seed: u64, jobs: usize, horizon_secs: f64, fast_forward: bool) -> Input {
    let mut main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    main.parallelism = ParallelismConfig::new(2, 8, 7, 2, 112);
    let period = main.engine_timeline().period.as_secs_f64();
    let iterations = (horizon_secs / period).ceil() as usize;
    let jobs = (0..jobs as u64)
        .map(|j| {
            let mut job = FleetJobConfig::new(main.clone());
            let stagger = (mix_seed(seed, j) % 64) as usize;
            job.iterations = iterations.saturating_sub(stagger).max(1);
            job.seed = mix_seed(seed, j + (1 << 32));
            job
        })
        .collect();
    let mut cfg = FleetSimConfig::new(jobs);
    cfg.jitter_cv = 0.0;
    cfg.deterministic_mix = true;
    cfg.mix = ModelMix::single(ModelId::EfficientNet);
    cfg.backlog_job_gpu_hours = QUIESCENT_BACKLOG;
    cfg.seed = seed;
    cfg.fast_forward = fast_forward;
    Input::Fleet(cfg)
}

/// Generates and lowers the workload's input.
fn input(workload: Workload, scale: &Scale, seed: u64) -> Input {
    match scenario(workload, scale, seed) {
        Some(spec) => lower(workload, &spec, seed),
        None => quiescent(
            seed,
            scale.quiescent_jobs,
            scale.quiescent_horizon_secs,
            true,
        ),
    }
}

/// A backend whose initial events are scheduled.
enum Primed {
    Physical(Box<BackendDriver<PhysicalBackend>>),
    Fleet(Box<BackendDriver<FleetBackend>>),
}

fn prime(input: Input) -> Primed {
    match input {
        Input::Physical(c) => {
            Primed::Physical(Box::new(BackendDriver::new(PhysicalBackend::new(*c))))
        }
        Input::Fleet(c) => Primed::Fleet(Box::new(BackendDriver::new(FleetBackend::new(c)))),
    }
}

/// The backend-specific result of a run.
#[derive(Debug, Clone, PartialEq)]
enum Detail {
    Physical(PhysicalSimResult),
    Fleet(FleetSimResult),
}

/// A finished simulation.
#[derive(Debug, Clone)]
struct Outcome {
    metrics: BackendMetrics,
    detail: Detail,
}

impl Outcome {
    fn skipped(&self) -> u64 {
        match &self.detail {
            Detail::Physical(r) => r.iterations_fast_forwarded,
            Detail::Fleet(r) => r.iterations_fast_forwarded,
        }
    }

    fn fleet(&self) -> Option<&FleetSimResult> {
        match &self.detail {
            Detail::Fleet(r) => Some(r),
            Detail::Physical(_) => None,
        }
    }
}

fn finish(primed: Primed) -> Outcome {
    match primed {
        Primed::Physical(driver) => {
            let (metrics, backend) = driver.run();
            Outcome {
                metrics,
                detail: Detail::Physical(backend.into_result()),
            }
        }
        Primed::Fleet(driver) => {
            let (metrics, backend) = driver.run();
            Outcome {
                metrics,
                detail: Detail::Fleet(backend.into_result()),
            }
        }
    }
}

/// Every field of the fidelity-independent metrics as bits, so two runs
/// can be compared bit for bit.
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

/// Checks that two runs of one input agree bit for bit, detail included.
fn check_same(checks: &mut Checks, what: &str, a: &Outcome, b: &Outcome) {
    checks.check(
        metric_bits(&a.metrics) == metric_bits(&b.metrics) && a.detail == b.detail,
        || format!("{what}: simulated results differ"),
    );
}

/// What the harness knows about an input without running it: work
/// counts for the throughput metrics and the shapes the layer timings
/// replay.
struct Facts {
    /// Main-job pipeline instructions the run simulates (fast-forwarded
    /// iterations included).
    instructions: u64,
    /// Distinct main-job shapes, in first-use order.
    shapes: Vec<MainJobSpec>,
    /// The first job's executor tuning.
    executor: ExecutorConfig,
    mix: ModelMix,
    /// Present for fleet inputs.
    layout: Option<FleetLayout>,
}

impl Facts {
    fn of(input: &Input) -> Facts {
        let (jobs, mix, fleet) = match input {
            Input::Physical(c) => (vec![(&c.main_job, c.executor, c.iterations)], &c.mix, None),
            Input::Fleet(c) => (
                c.jobs
                    .iter()
                    .map(|j| (&j.main_job, j.executor, j.iterations))
                    .collect(),
                &c.mix,
                Some(c),
            ),
        };
        let mut per_iteration: HashMap<(ScheduleKind, usize, usize), u64> = HashMap::new();
        let mut instructions = 0u64;
        let mut shapes: Vec<MainJobSpec> = Vec::new();
        let mut class_of = Vec::with_capacity(jobs.len());
        for &(main, _, iterations) in &jobs {
            let p = main.parallelism.pipeline_stages;
            let m = main.parallelism.microbatches_per_replica();
            let count = *per_iteration
                .entry((main.schedule, p, m))
                .or_insert_with(|| {
                    main.schedule
                        .all_stage_instructions(p, m)
                        .iter()
                        .map(|s| s.len() as u64)
                        .sum()
                });
            instructions += count * iterations as u64;
            let class = shapes.iter().position(|s| s == main).unwrap_or_else(|| {
                shapes.push(main.clone());
                shapes.len() - 1
            });
            class_of.push(class);
        }
        // Flat devices in the backend's order: each job's stages in turn.
        // An evicted job is feasible on stage 0 of every job sharing job
        // 0's shape class.
        let layout = fleet.map(|c| {
            let mut owner = Vec::new();
            let mut feasible = Vec::new();
            for (j, &(main, _, _)) in jobs.iter().enumerate() {
                if class_of[j] == class_of[0] {
                    feasible.push(owner.len());
                }
                owner.extend(std::iter::repeat_n(j, main.parallelism.pipeline_stages));
            }
            FleetLayout {
                owner,
                admits_foreign: c.jobs.iter().map(|j| j.admits_foreign).collect(),
                feasible,
                policy: c.policy,
            }
        });
        Facts {
            instructions,
            executor: jobs[0].1,
            shapes,
            mix: mix.clone(),
            layout,
        }
    }
}

/// The correctness checks on one run's outcome that hold for the
/// workload's regime.
fn check_outcome(checks: &mut Checks, workload: Workload, out: &Outcome) {
    let skipped = out.skipped();
    let evictions = out.metrics.evictions;
    let name = workload.name();
    if workload == Workload::QuiescentFleet {
        checks.check(skipped > 0, || format!("{name}: fast-forward never fired"));
    } else {
        checks.check(skipped == 0, || {
            format!("{name}: fast-forward skipped {skipped} iterations")
        });
    }
    checks.check(
        (evictions > 0) == (workload == Workload::FaultFleet),
        || format!("{name}: {evictions} evictions"),
    );
    if let Some(fleet) = out.fleet() {
        let mut ids = fleet.completed_fill_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        checks.check(
            ids.len() == fleet.completed_fill_ids.len() && ids.len() == fleet.fill_jobs_completed,
            || {
                format!(
                    "{name}: {} completed ids, {} distinct, {} fill jobs completed",
                    fleet.completed_fill_ids.len(),
                    ids.len(),
                    fleet.fill_jobs_completed
                )
            },
        );
    }
}

/// Fast-forward on and off agree bit for bit on a short twin of the
/// quiescent fleet, and the twin does skip. A skipping job appends a
/// whole cycle's completions at once, so across jobs only the completed
/// id *set* is pinned, not its interleaving.
fn check_fast_forward_twin(checks: &mut Checks, seed: u64, scale: &Scale) {
    let run = |ff| {
        let mut out = finish(prime(quiescent(
            seed,
            scale.twin_jobs,
            scale.twin_horizon_secs,
            ff,
        )));
        let skipped = out.skipped();
        if let Detail::Fleet(r) = &mut out.detail {
            r.iterations_fast_forwarded = 0;
            r.completed_fill_ids.sort_unstable();
        }
        (out, skipped)
    };
    let ((on, skipped), (off, _)) = (run(true), run(false));
    checks.check(skipped > 0, || {
        "fast-forward twin: nothing was skipped".into()
    });
    check_same(checks, "fast-forward on vs off", &on, &off);
}

/// Tracing off: one untimed warm-up run (checked), then set-up + run
/// repeated for `budget` (see [`repeat`]).
pub fn measure(
    workload: Workload,
    seed: u64,
    budget: Duration,
    scale: &Scale,
    report: &mut Report,
) {
    let facts = Facts::of(&input(workload, scale, seed));
    if workload == Workload::QuiescentFleet {
        check_fast_forward_twin(&mut report.checks, seed, scale);
    }
    let first = finish(prime(input(workload, scale, seed)));
    check_outcome(&mut report.checks, workload, &first);
    // Read before the reference workload first runs: the repetitions
    // below repeat this run exactly.
    report.set("peak_rss_mb", peak_rss_mb());
    let checks = &mut report.checks;
    let timings = repeat(
        budget,
        scale.min_reps,
        || {
            let t0 = Instant::now();
            let primed = prime(input(workload, scale, seed));
            let t1 = Instant::now();
            let out = finish(primed);
            let t2 = Instant::now();
            check_same(checks, "repeated run", &first, &out);
            ((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64())
        },
        || drop(prime(input(workload, scale, seed))),
    );
    let m = &first.metrics;
    report.set_timings(&timings);
    report.set("events_per_s", m.events_dispatched as f64 / timings.wall_s);
    report.set(
        "instructions_per_s",
        facts.instructions as f64 / timings.wall_s,
    );
    report.notes.extend([
        (
            "recovered_tflops_per_gpu",
            "TFLOPS",
            Some(m.recovered_tflops_per_gpu),
        ),
        ("main_slowdown_pct", "%", Some(100.0 * m.main_slowdown)),
        ("goodput_fraction", "ratio", Some(m.goodput_fraction)),
    ]);
}

/// Steps a driver to completion, timing every `BackendDriver::step` into
/// `hist`. Returns the outcome metrics, the backend and the host time of
/// the whole loop.
fn step_traced<B: SimBackend>(
    mut driver: BackendDriver<B>,
    hist: &mut Histogram,
) -> (BackendMetrics, B, Duration) {
    let start = Instant::now();
    loop {
        let t = Instant::now();
        let outcome = driver.step();
        let ns = t.elapsed().as_nanos() as u64;
        if outcome != StepOutcome::Dispatched {
            break;
        }
        hist.record(ns);
    }
    let (metrics, backend) = driver.run();
    (metrics, backend, start.elapsed())
}

/// Drives a backend through the kernel directly (the steps
/// `BackendDriver` takes) to sample the pending-event depth before every
/// dispatch. Returns the outcome metrics and the mean depth.
fn probe_depth<B: SimBackend>(mut backend: B) -> (BackendMetrics, f64) {
    let mut sim = Simulation::new();
    backend.prime(&mut sim);
    let horizon = backend.horizon();
    let (mut steps, mut depth) = (0u64, 0u64);
    loop {
        let pending = sim.queue().len() as u64;
        if sim.step(&mut backend, horizon) != StepOutcome::Dispatched {
            break;
        }
        steps += 1;
        depth += pending;
    }
    backend.drain(sim.now());
    let metrics = backend.metrics(sim.dispatched());
    (metrics, depth as f64 / steps.max(1) as f64)
}

/// One traced run: set-up one layer at a time, then every
/// `BackendDriver::step` timed.
struct Traced {
    out: Outcome,
    steps: Histogram,
    wall: f64,
    lower_us: f64,
    backend_new_ms: f64,
}

fn traced_run(workload: Workload, scale: &Scale, seed: u64) -> Traced {
    let (input, lower_us) = match scenario(workload, scale, seed) {
        Some(spec) => {
            let t = Instant::now();
            let input = lower(workload, &spec, seed);
            (input, t.elapsed().as_secs_f64() * 1e6)
        }
        None => (input(workload, scale, seed), 0.0),
    };
    let mut steps = Histogram::default();
    let t = Instant::now();
    let (metrics, detail, wall, backend_new_ms) = match input {
        Input::Physical(c) => {
            let backend = PhysicalBackend::new(*c);
            let new_ms = t.elapsed().as_secs_f64() * 1e3;
            let (metrics, backend, wall) = step_traced(BackendDriver::new(backend), &mut steps);
            (
                metrics,
                Detail::Physical(backend.into_result()),
                wall,
                new_ms,
            )
        }
        Input::Fleet(c) => {
            let backend = FleetBackend::new(c);
            let new_ms = t.elapsed().as_secs_f64() * 1e3;
            let (metrics, backend, wall) = step_traced(BackendDriver::new(backend), &mut steps);
            (metrics, Detail::Fleet(backend.into_result()), wall, new_ms)
        }
    };
    Traced {
        out: Outcome { metrics, detail },
        steps,
        wall: wall.as_secs_f64(),
        lower_us,
        backend_new_ms,
    }
}

/// Tracing on: a depth probe (which doubles as the warm-up), untraced
/// runs alternated with traced runs of the same input, then the layer
/// timings at the operating point those runs recorded.
pub fn trace(workload: Workload, seed: u64, scale: &Scale, report: &mut Report) {
    let facts = Facts::of(&input(workload, scale, seed));
    let (probed, depth) = match input(workload, scale, seed) {
        Input::Physical(c) => probe_depth(PhysicalBackend::new(*c)),
        Input::Fleet(c) => probe_depth(FleetBackend::new(c)),
    };

    let mut steps = Histogram::default();
    let mut untraced_walls = Vec::new();
    let mut runs: Vec<Traced> = Vec::new();
    for pair in 0..TRACE_PAIRS {
        let primed = prime(input(workload, scale, seed));
        let t = Instant::now();
        let untraced = finish(primed);
        untraced_walls.push(t.elapsed().as_secs_f64());
        let run = traced_run(workload, scale, seed);
        steps.merge(&run.steps);
        let checks = &mut report.checks;
        if pair == 0 {
            checks.check(
                metric_bits(&probed) == metric_bits(&untraced.metrics),
                || "kernel-driven probe vs BackendDriver run: metrics differ".into(),
            );
            check_outcome(checks, workload, &run.out);
        }
        check_same(checks, "traced vs untraced run", &untraced, &run.out);
        let (dispatched, events) = (run.steps.len(), run.out.metrics.events_dispatched);
        // Fast-forward credits skipped events without dispatching them.
        if workload != Workload::QuiescentFleet {
            checks.check(dispatched == events, || {
                format!("{dispatched} dispatched steps but {events} events dispatched")
            });
        }
        runs.push(run);
    }
    let of = |f: fn(&Traced) -> f64| median(&runs.iter().map(f).collect::<Vec<_>>());
    let (traced_wall, untraced_wall) = (of(|r| r.wall), median(&untraced_walls));
    report.set("core.backend_new_ms", of(|r| r.backend_new_ms));
    report.set("scenario.lower_us", of(|r| r.lower_us));
    let fleet_workload_ms = if workload == Workload::FaultFleet {
        let mut generator =
            FleetWorkloadConfig::new(scale.fault_jobs, scale.fault_gpus, FAULT_FLEET_SHAPE_SEED);
        generator.iterations = scale.fault_iterations;
        let t = Instant::now();
        black_box(generator.generate());
        t.elapsed().as_secs_f64() * 1e3
    } else {
        0.0
    };
    report.set("trace.fleet_workload_ms", fleet_workload_ms);

    let out = &runs[0].out;
    let m = &out.metrics;
    let iterations: u64 = match &out.detail {
        Detail::Physical(r) => r.iterations as u64,
        Detail::Fleet(r) => r.jobs.iter().map(|j| j.iterations as u64).sum(),
    };
    let budget = scale.layer_budget;
    let push_pop = layers::queue_push_pop_ns(depth.round() as usize, seed, budget);
    report.set("sim_core.queue.push_pop_ns", push_pop);
    report.set("sim_core.queue.depth", depth);
    report.set("core.step_ns_p50", steps.quantile(0.50));
    report.set("core.step_ns_p99", steps.quantile(0.99));
    report.set("core.events_dispatched", m.events_dispatched as f64);
    report.set("core.ff_iterations_skipped", out.skipped() as f64);
    report.set(
        "core.ff_skip_frac",
        out.skipped() as f64 / iterations.max(1) as f64,
    );
    report.set(
        "pipeline.engine_timeline_us",
        layers::engine_timeline_us(&facts.shapes),
    );
    report.set("pipeline.shape_classes", facts.shapes.len() as f64);

    let point = layers::plan_best_point(&facts.shapes[0], &facts.executor, &facts.mix);
    report.set("executor.plan_best_us", point.plan_best_us);
    let on_bubble = point
        .plan
        .as_ref()
        .map_or(0.0, |p| layers::on_bubble_ns(p, budget));
    report.set("executor.on_bubble_ns", on_bubble);

    // Eviction-path layers exist only in the fleet backend.
    let fleet = out.fleet();
    let (ckpt, requeue, pick) = match (&facts.layout, &point.plan, fleet) {
        (Some(layout), Some(plan), Some(r)) => {
            let (requeue, pick) = layers::global_queue_ns(layout, r.peak_queue_depth, budget);
            (layers::checkpoint_restore_ns(plan, budget), requeue, pick)
        }
        _ => (0.0, 0.0, 0.0),
    };
    report.set("executor.checkpoint_restore_ns", ckpt);
    report.set("scheduler.global.requeue_ns", requeue);
    report.set("scheduler.global.pick_ns", pick);
    let (cross, peak) = fleet.map_or((0, 0), |r| (r.cross_job_dispatches, r.peak_queue_depth));
    let resume_frac = if m.evictions == 0 {
        0.0
    } else {
        cross as f64 / m.evictions as f64
    };
    report.set("scheduler.evictions", m.evictions as f64);
    report.set("scheduler.cross_job_dispatches", cross as f64);
    report.set("scheduler.peak_queue_depth", peak as f64);
    report.set("scheduler.resume_frac", resume_frac);
    report.set("pipeline.execute_streams_us", 0.0);
    report.set("schedverify.verify_ns_per_instr", 0.0);
    report.set("sim.recovered_tflops_per_gpu", m.recovered_tflops_per_gpu);
    report.set("sim.main_slowdown_pct", 100.0 * m.main_slowdown);
    report.set("sim.goodput_fraction", m.goodput_fraction);
    report.set("harness.host_slowdown", host_slowdown(5));
    report.set("harness.traced_wall_s", traced_wall);
    report.set("harness.trace_overhead_s", traced_wall - untraced_wall);
}
