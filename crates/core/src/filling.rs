//! The one pipeline-filling core.
//!
//! The physical, fault and fleet fidelities are one model: pipeline-parallel
//! main jobs whose stages execute fill work inside their bubbles. Each main
//! job is a [`Pipeline`] — its workload stream, the fill lease running on
//! each stage, its stall and fast-forward state — and [`FillBackend`] is a
//! set of pipelines on one kernel sharing one cluster-wide
//! [`GlobalFillQueue`] for fill jobs evicted by device failures. Everything
//! per-bubble (backlog draw against the shape's [`StagePlans`], jitter,
//! stall accounting, checkpointing), per-iteration (`critical_path_delay`
//! folding, the steady-state skip) and per-failure (eviction, outage,
//! recovery) lives here once.
//!
//! The engine reads every switch off its [`FleetSimConfig`]:
//!
//! * **Fault layer.** Fill jobs checkpoint, and devices fail and recover,
//!   only when a device can fail (`mtbf` finite). Fast-forward arms only
//!   when none can, so the steady-state signature never carries device or
//!   checkpoint state.
//! * **Per-stage devices.** A job with `FleetJobConfig::stage_devices`
//!   runs a heterogeneous pipeline: the slowest stage paces it and every
//!   other stage gains its slack as fillable span.
//! * **Detector history.** A one-pipeline run keeps a long signature
//!   history; a multi-pipeline fleet keeps a short one per job.
//!
//! The [`BackendKind`] a run is built with is only its label, plus the
//! two choices tied to it: a physical run records no completed fill ids,
//! and only a fleet run reports the device-weighted aggregate metrics.
//! The physical and fault fidelities are one-job fleets, so every
//! randomness-consuming code path is shared: a no-fault homogeneous fault
//! run and a one-job fleet both reproduce the physical run bit for bit —
//! the conformance suite pins it.

use std::collections::BTreeMap;
use std::marker::PhantomData;
use std::sync::Arc;

use pipefill_executor::{ExecutorCheckpoint, FillJobExecutor, FillJobSpec, JobId, SWITCH_OVERHEAD};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::{BubbleWindow, EngineTimeline, MainJobSpec, ScheduleKind};
use pipefill_scheduler::{GlobalFillQueue, JobInfo, SystemState};
use pipefill_sim_core::rng::{DeterministicRng, Jitter};
use pipefill_sim_core::{EventHandler, EventQueue, LookupMap, SimDuration, SimTime, Simulation};
use pipefill_trace::ModelMix;

use crate::backend::{BackendKind, BackendMetrics, ClusterEvent, SimBackend};
use crate::experiments::sweep;
use crate::ff::SteadyDetector;
use crate::fleet::{FleetJobConfig, FleetJobResult, FleetSimConfig, FleetSimResult};
use crate::plans::{fingerprint, ProfileMenus, StagePlans};

/// Signature-history depth of a one-pipeline run: long enough for the
/// realistic fill-cycle periods (plan cursor × rotation × job-completion
/// interleavings). A jitter-free workload that never cycles still pays
/// for a signature and a history search at every boundary: on
/// `jittered_physical`'s config at `jitter_cv = 0` (250K iterations, no
/// skip) that took 1.6–2.0× the detector-off wall time over 10 pairs.
const STEADY_HISTORY: usize = 512;

/// Per-pipeline signature history of a multi-pipeline fleet. Each main
/// job carries its own detector and observed fleet cycles are short (a
/// few iterations), so a modest window keeps thousand-job fleets cheap.
const FLEET_STEADY_HISTORY: usize = 64;

/// Draws per refill before a bubble is left idle this round.
const MAX_DRAW_TRIES: usize = 5;

/// Fraction of each (jittered) bubble actually usable for filling before
/// the engine needs the device back (receive setup, allocator work).
const USABLE_FRACTION: f64 = 0.88;

/// Slack of a stall decision taken on jitter bounds; the paired-halves
/// test keeps two (see [`bubble_stall`]). The exact path rounds three
/// times to whole nanoseconds, half a nanosecond each, and the f64 check
/// itself rounds by under a nanosecond for spans below 2⁵⁰ ns (13 days).
const STALL_MARGIN_NS: f64 = 4.0;

/// Mean outage length once a device fails.
const MEAN_RECOVERY: SimDuration = SimDuration::from_secs(120);

/// A fill job checkpoints after this many executed bubble partitions
/// (only while `mtbf` is finite: without failures nothing restores).
const CHECKPOINT_EVERY_BUBBLES: usize = 8;

/// Bubble geometry and time model of one pipeline *shape*, with its
/// per-stage plans. Jobs with identical main-job spec, executor tuning and
/// stage devices share one shape, so an 8K-GPU fleet profiles each
/// distinct shape once.
struct Shape {
    /// GPUs one job of this shape occupies, and their generation (the
    /// main job's device), for the report.
    gpus: usize,
    device: String,
    period: SimDuration,
    /// Main-job TFLOPS per GPU at `period`, before fill slowdown.
    main_nominal: f64,
    bubble_ratio: f64,
    /// Fillable windows, executor tuning, and the plan and throughput of
    /// every fill-job type on every stage.
    plans: StagePlans,
}

impl Shape {
    /// Profiles a job's pipeline once from its main job's engine
    /// `timeline`, planning through the fleet's shared `menus`. A
    /// homogeneous job keeps the engine's geometry; with per-stage
    /// devices the slowest stage paces the pipeline, so the period
    /// stretches to `period × max(slow)` and stage `s` keeps its busy
    /// time (scaled by its own slowness) while absorbing the pacing
    /// slack as fillable span: `W'_s = P' − slow_s × (P − W_s)`.
    ///
    /// # Panics
    ///
    /// Panics if `stage_devices` is non-empty with a length different
    /// from the pipeline depth, or if `menus` lacks one of the job's
    /// stage devices.
    fn profile(
        job: &FleetJobConfig,
        timeline: &EngineTimeline,
        menus: &Arc<ProfileMenus>,
    ) -> Shape {
        let main = &job.main_job;
        let p = timeline.stages.len();
        let base_period = timeline.period;
        let base_nominal = main.main_job_tflops_per_gpu(timeline);
        let fillable = timeline.stages.iter().map(|s| s.fillable_windows());
        let (period, main_nominal, bubble_ratio, windows) = if job.stage_devices.is_empty() {
            let windows = fillable.collect();
            (base_period, base_nominal, timeline.bubble_ratio(), windows)
        } else {
            assert_eq!(
                job.stage_devices.len(),
                p,
                "stage_devices must cover every pipeline stage ({p})"
            );
            let devices = &job.stage_devices;
            let baseline = &main.device;
            // slow_s > 1 ⇒ stage s is slower than the baseline.
            let slow: Vec<f64> = devices
                .iter()
                .map(|d| 1.0 / d.relative_speed(baseline))
                .collect();
            let max_slow = slow.iter().cloned().fold(f64::MIN, f64::max);
            let period = base_period.mul_f64(max_slow);
            let windows = fillable
                .enumerate()
                .map(|(s, windows)| {
                    let w_total: SimDuration = windows.iter().map(|w| w.duration).sum();
                    if w_total.is_zero() {
                        return windows;
                    }
                    let busy = base_period.saturating_sub(w_total).mul_f64(slow[s]);
                    let scale = period.saturating_sub(busy).as_secs_f64() / w_total.as_secs_f64();
                    let mem_scale = devices[s].hbm.as_f64() / baseline.hbm.as_f64();
                    windows
                        .into_iter()
                        .map(|w| BubbleWindow {
                            duration: w.duration.mul_f64(scale),
                            free_memory: w.free_memory.mul_f64(mem_scale),
                            offset: w.offset.mul_f64(slow[s]),
                            kind: w.kind,
                        })
                        .collect()
                })
                .collect();
            // The main job's FLOPs per iteration are unchanged; only the
            // period stretched, so the per-GPU rate scales by P/P'. The
            // bubble-ratio estimate scales the busy share the same way.
            let period_ratio = base_period.as_secs_f64() / period.as_secs_f64();
            let avg_slow = slow.iter().sum::<f64>() / p as f64;
            let ratio =
                (1.0 - (1.0 - timeline.bubble_ratio()) * avg_slow * period_ratio).clamp(0.0, 1.0);
            (period, base_nominal * period_ratio, ratio, windows)
        };
        let devices = match job.stage_devices.as_slice() {
            [] => vec![main.device.clone(); p],
            listed => listed.to_vec(),
        };
        Shape {
            gpus: main.parallelism.total_gpus(),
            device: main.device.name.clone(),
            period,
            main_nominal,
            bubble_ratio,
            plans: StagePlans::new(windows, &devices, job.executor, Arc::clone(menus)),
        }
    }

    fn stages(&self) -> usize {
        self.plans.stages()
    }
}

/// Sorts `jobs` into shape classes: jobs whose main job, executor tuning
/// and stage devices are equal share one. Classes are interned in an
/// ordered map keyed on [`shape_fingerprint`]; a job joins the first class
/// in its bucket that it equals exactly, or opens a new one. So a job
/// costs one map lookup and, unless fingerprints collide, at most one
/// full comparison, however many shapes the fleet has. Returns each job's
/// class and each class's first job, classes numbered in order of first
/// appearance.
fn shape_classes(jobs: &[FleetJobConfig]) -> (Vec<usize>, Vec<usize>) {
    let mut buckets: BTreeMap<u64, Vec<usize>> = BTreeMap::new();
    let mut class_of = Vec::with_capacity(jobs.len());
    let mut reps: Vec<usize> = Vec::new();
    for (j, job) in jobs.iter().enumerate() {
        let bucket = buckets.entry(shape_fingerprint(job)).or_default();
        let class = match bucket.iter().find(|&&c| same_shape(&jobs[reps[c]], job)) {
            Some(&c) => c,
            None => {
                bucket.push(reps.len());
                reps.push(j);
                reps.len() - 1
            }
        };
        class_of.push(class);
    }
    (class_of, reps)
}

/// The exact shape-class test: equal main job (model included), executor
/// tuning and stage devices.
///
/// The model graphs are compared by pointer first (see
/// [`same_main_job`]): a fleet's jobs share one graph, so the
/// layer-by-layer comparison runs only for graphs built apart. This
/// changes no answer unless a graph holds a NaN, which equals nothing,
/// itself included; no graph the model zoo builds holds one, and the
/// zoo's tests pin that every graph equals a fresh build of itself.
fn same_shape(a: &FleetJobConfig, b: &FleetJobConfig) -> bool {
    #[cfg(test)]
    SHAPE_CHECKS.with(|n| n.set(n.get() + 1));
    same_main_job(&a.main_job, &b.main_job)
        && a.executor == b.executor
        && a.stage_devices == b.stage_devices
}

/// `a == b`, with the model graphs compared by pointer before by value.
fn same_main_job(a: &MainJobSpec, b: &MainJobSpec) -> bool {
    let MainJobSpec {
        model,
        parallelism,
        device,
        schedule,
        bubble_free_memory,
    } = a;
    *parallelism == b.parallelism
        && *schedule == b.schedule
        && *bubble_free_memory == b.bubble_free_memory
        && *device == b.device
        && (Arc::ptr_eq(model, &b.model) || {
            #[cfg(test)]
            GRAPH_VALUE_CHECKS.with(|n| n.set(n.get() + 1));
            **model == *b.model
        })
}

#[cfg(test)]
thread_local! {
    /// Full [`same_shape`] comparisons made so far on this thread.
    static SHAPE_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Model graphs [`same_main_job`] compared by value so far on this
    /// thread.
    static GRAPH_VALUE_CHECKS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    /// Engine timelines [`main_job_timelines`] ran for calls made on
    /// this thread.
    static TIMELINE_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Runs the engine once per distinct main job among the shape classes'
/// first jobs `reps`, fanned across cores through the sweep driver:
/// classes that differ only in executor tuning or stage devices share
/// one timeline. Returns each class's timeline index and the timelines,
/// numbered in order of first appearance.
fn main_job_timelines(
    jobs: &[FleetJobConfig],
    reps: &[usize],
) -> (Vec<usize>, Vec<EngineTimeline>) {
    let mut mains: Vec<usize> = Vec::new();
    let timeline_of = reps
        .iter()
        .map(|&rep| {
            let main = &jobs[rep].main_job;
            mains
                .iter()
                .position(|&m| same_main_job(&jobs[m].main_job, main))
                .unwrap_or_else(|| {
                    mains.push(rep);
                    mains.len() - 1
                })
        })
        .collect();
    #[cfg(test)]
    let runs = std::sync::atomic::AtomicUsize::new(0);
    let timelines = sweep::par_map(mains, |m| {
        #[cfg(test)]
        runs.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        jobs[m].main_job.engine_timeline()
    });
    #[cfg(test)]
    TIMELINE_RUNS.with(|n| n.set(n.get() + runs.into_inner()));
    (timeline_of, timelines)
}

/// A fingerprint of the fields that tell fleet shapes apart: parallelism
/// degrees, schedule, bubble free memory, fill fraction, and the numbers
/// of the main device and of every stage device. Names (the model's, its
/// layers', the devices') are left to [`same_shape`]. Jobs that are
/// [`same_shape`] fingerprint equal.
fn shape_fingerprint(job: &FleetJobConfig) -> u64 {
    let main = &job.main_job;
    let p = main.parallelism;
    let (schedule, chunks) = match main.schedule {
        ScheduleKind::GPipe => (0, 0),
        ScheduleKind::OneFOneB => (1, 0),
        ScheduleKind::Interleaved { chunks } => (2, chunks),
        ScheduleKind::ZbH1 => (3, 0),
    };
    let sizes = [
        p.tensor_parallel,
        p.pipeline_stages,
        p.data_parallel,
        p.microbatch_size,
        p.global_minibatch,
        schedule,
        chunks,
        job.stage_devices.len(),
    ];
    fingerprint(
        sizes
            .into_iter()
            .map(|n| n as u64)
            .chain([
                main.bubble_free_memory.as_u64(),
                float_word(job.executor.fill_fraction),
            ])
            .chain(
                std::iter::once(&main.device)
                    .chain(&job.stage_devices)
                    .flat_map(|d| {
                        [
                            float_word(d.peak_tflops),
                            d.hbm.as_u64(),
                            float_word(d.hbm_bandwidth),
                            float_word(d.host_link_bandwidth),
                            float_word(d.nvme_bandwidth),
                        ]
                    }),
            ),
    )
}

/// `x`'s bits, with both zeros one word: they compare equal.
fn float_word(x: f64) -> u64 {
    if x == 0.0 {
        0
    } else {
        x.to_bits()
    }
}

/// A fill job bound to a stage, with the checkpoint state eviction needs.
struct FillLease {
    exec: FillJobExecutor,
    ckpt: ExecutorCheckpoint,
    /// FLOPs executed since `ckpt` — lost if the device fails now.
    unsaved_flops: f64,
    /// Bubble partitions executed since `ckpt`.
    runs_since_ckpt: usize,
    /// Bubble time still owed to checkpoint reloading after a revival.
    restart_debt: SimDuration,
}

impl FillLease {
    fn fresh(exec: FillJobExecutor) -> Self {
        let ckpt = exec.checkpoint();
        FillLease {
            exec,
            ckpt,
            unsaved_flops: 0.0,
            runs_since_ckpt: 0,
            restart_debt: SimDuration::ZERO,
        }
    }
}

/// One main job: its shape, workload stream, the fill lease on each
/// stage, and its stall, counter and fast-forward state.
struct Pipeline {
    shape: usize,
    /// First flat device of this pipeline.
    base: usize,
    iterations: usize,
    /// False when the job declines filling or runs no iterations: it then
    /// schedules no events at all.
    filling: bool,
    rng: DeterministicRng,
    rotation: Option<MixRotation>,
    /// Boxed so an idle stage costs a pointer, not a lease: a
    /// thousand-job fleet starts with every stage idle.
    leases: Vec<Option<Box<FillLease>>>,
    up: Vec<bool>,
    next_fill_id: u64,
    iterations_done: usize,
    /// Per-stage stall of the iteration in flight.
    stage_delays: Vec<SimDuration>,
    /// Critical-path stall of the iteration in flight, set once its last
    /// stage ran.
    iteration_delay: SimDuration,
    total_delay: SimDuration,
    downtime: SimDuration,
    /// All fill FLOPs executed on this pipeline, surviving or not.
    executed_flops: f64,
    lost_flops: f64,
    completed: usize,
    /// Fill ids this pipeline's bubbles completed; `None` for a physical
    /// run, whose result does not report them.
    ids: Option<IdLog>,
    isolated_ooms: u64,
    failures: u64,
    evictions: u64,
    bubbles_lost: u64,
    /// Steady-state detector over this pipeline's iteration stream.
    detector: SteadyDetector<Mark>,
    fast_forwarded: u64,
}

impl Pipeline {
    /// Draws the next backlog fill job for `stage` and binds it to its
    /// plan. Returns `None` (leaving the bubble idle this round) if
    /// several draws in a row are infeasible on this stage.
    fn draw(
        &mut self,
        plans: &StagePlans,
        job: usize,
        stage: usize,
        cfg: &FleetSimConfig,
    ) -> Option<FillJobExecutor> {
        for _ in 0..MAX_DRAW_TRIES {
            let (model, kind) = match self.rotation.as_mut() {
                Some(r) => r.next(),
                None => {
                    let model = cfg.mix.sample_model(&mut self.rng);
                    (model, cfg.mix.sample_kind(model, &mut self.rng))
                }
            };
            let Some(plan) = plans.plan(model, kind, stage) else {
                continue;
            };
            let Some(throughput) = plans.throughput(model, kind, stage) else {
                continue;
            };
            let samples = ((cfg.backlog_job_gpu_hours * 3600.0 * throughput).round() as u64).max(1);
            let id = ((job as u64) << 32) | self.next_fill_id;
            self.next_fill_id += 1;
            return Some(FillJobExecutor::new(
                FillJobSpec::new(id, model, kind, samples),
                Arc::clone(plan),
            ));
        }
        None
    }

    /// Executes stage `stage`'s bubble windows for the iteration in
    /// flight and records the stall they caused. An idle stage is
    /// refilled before each window: with the lease `unpark` offers (an
    /// evicted job the global queue hands this device), else with a
    /// backlog draw. Returns the iteration's critical-path stall once the
    /// pipeline's last stage ran.
    fn run_stage(
        &mut self,
        job: usize,
        stage: usize,
        plans: &StagePlans,
        cfg: &FleetSimConfig,
        mut unpark: impl FnMut() -> Option<Box<FillLease>>,
    ) -> Option<SimDuration> {
        let mut delay = SimDuration::ZERO;
        for slot in 0..plans.windows(stage).len() {
            if !self.up[stage] {
                self.bubbles_lost += 1;
                continue;
            }
            if self.leases[stage].is_none() {
                self.leases[stage] = unpark().or_else(|| {
                    self.draw(plans, job, stage, cfg)
                        .map(|exec| Box::new(FillLease::fresh(exec)))
                });
            }
            delay += self.run_bubble(stage, slot, plans, cfg);
        }
        self.stage_delays.push(delay);
        (stage + 1 == self.leases.len()).then(|| {
            self.iteration_delay = critical_path_delay(&self.stage_delays);
            self.iteration_delay
        })
    }

    /// Executes one bubble window on `stage` with the lease already
    /// acquired (if any work was available); returns the stall it caused.
    /// Fill jobs checkpoint only when a device can fail (`mtbf` finite):
    /// without failures a checkpoint is never restored.
    #[inline]
    fn run_bubble(
        &mut self,
        stage: usize,
        slot: usize,
        plans: &StagePlans,
        cfg: &FleetSimConfig,
    ) -> SimDuration {
        let window = plans.windows(stage)[slot];
        let Some(lease) = self.leases[stage].as_mut() else {
            return SimDuration::ZERO;
        };
        // A revived job reloads its checkpoint before any new work: the
        // restart debt consumes whole bubbles (no stall — the reload fits
        // inside the usable span it displaces).
        if !lease.restart_debt.is_zero() {
            let usable = window.duration.mul_f64(USABLE_FRACTION);
            lease.restart_debt = lease.restart_debt.saturating_sub(usable);
            return SimDuration::ZERO;
        }
        // Memory failure injection: the engine capped the executor at the
        // profiled free memory, but the *actual* free memory this bubble
        // may be less. A request over the cap dies as an isolated OOM; the
        // bubble idles and the partition retries next cycle.
        if cfg.memory_jitter_cv > 0.0 {
            if let Some(need) = lease.exec.pending_memory(slot) {
                let actual_free = window
                    .free_memory
                    .mul_f64(self.rng.jitter(cfg.memory_jitter_cv));
                if need > actual_free {
                    self.isolated_ooms += 1;
                    return SimDuration::ZERO;
                }
            }
        }
        let run = lease.exec.on_bubble(slot);
        if run.time_used.is_zero() && run.samples_completed == 0 && !run.job_finished {
            return SimDuration::ZERO;
        }
        let finished_id = lease.exec.job().id;
        if cfg.mtbf != SimDuration::MAX {
            lease.unsaved_flops += run.flops;
            lease.runs_since_ckpt += 1;
            if !run.job_finished && lease.runs_since_ckpt >= CHECKPOINT_EVERY_BUBBLES {
                lease.ckpt = lease.exec.checkpoint();
                lease.unsaved_flops = 0.0;
                lease.runs_since_ckpt = 0;
            }
        }
        self.executed_flops += run.flops;
        self.detector.record_flops(run.flops);
        // Jittered reality: the bubble and the partition both deviate from
        // their profiled durations.
        let window_jitter = self.rng.jitter_deferred(cfg.jitter_cv);
        let used_jitter = self.rng.jitter_deferred(cfg.jitter_cv);
        if run.job_finished {
            self.completed += 1;
            self.leases[stage] = None;
            if let Some(ids) = &mut self.ids {
                ids.literal.push(finished_id);
            }
        }
        bubble_stall(
            window.duration,
            SWITCH_OVERHEAD,
            run.time_used,
            (window_jitter, used_jitter),
        )
    }

    /// This pipeline's share of the report. An outage in flight when the
    /// run ends only counts up to the final iteration boundary: downtime
    /// never exceeds the span the run actually observed.
    fn result(&mut self, job: usize, shape: &Shape, down_until: &[SimTime]) -> FleetJobResult {
        let p = shape.stages();
        let iterations = self.iterations;
        let nominal_total = shape.period * iterations as u64;
        let elapsed = nominal_total + self.total_delay;
        let run_end = SimTime::ZERO + elapsed;
        for &until in down_until {
            self.downtime = self
                .downtime
                .saturating_sub(until.saturating_since(run_end));
        }
        let slowdown = if iterations == 0 {
            0.0
        } else {
            self.total_delay.as_secs_f64() / nominal_total.as_secs_f64()
        };
        let surviving = (self.executed_flops - self.lost_flops).max(0.0);
        FleetJobResult {
            job,
            gpus: shape.gpus,
            stages: p,
            device: shape.device.clone(),
            fill_fraction: shape.plans.executor().fill_fraction,
            iterations,
            nominal_period: shape.period,
            mean_period: if iterations == 0 {
                shape.period
            } else {
                shape.period + self.total_delay / iterations as u64
            },
            main_slowdown: slowdown,
            bubble_ratio: shape.bubble_ratio,
            elapsed,
            fill_flops: surviving,
            lost_fill_flops: self.lost_flops,
            recovered_tflops_per_gpu: if surviving == 0.0 || elapsed.is_zero() {
                // The elapsed guard covers degenerate zero-iteration
                // jobs, where the division would mint a NaN that flows
                // straight into fleet_scale.csv.
                0.0
            } else {
                surviving / (p as f64 * elapsed.as_secs_f64()) / 1e12
            },
            main_tflops_per_gpu: shape.main_nominal / (1.0 + slowdown),
            fill_jobs_completed: self.completed,
            isolated_ooms: self.isolated_ooms,
            failures: self.failures,
            evictions: self.evictions,
            bubbles_lost: self.bubbles_lost,
            downtime: self.downtime,
        }
    }

    /// The absolute counters a fast-forward skip advances, at this
    /// boundary.
    fn mark(&self) -> Mark {
        Mark {
            completed: self.completed,
            next_fill_id: self.next_fill_id,
            total_delay: self.total_delay,
        }
    }

    /// Full behavioral state at an iteration boundary, as exact bit
    /// patterns. Two boundaries with equal signatures (and no randomness
    /// consumed in between — enforced separately by the RNG fingerprint)
    /// evolve identically, which is what licenses a fast-forward skip.
    /// Fill ids themselves are excluded: they are the one monotone,
    /// behavior-neutral component, and the skip advances them in closed
    /// form instead. Each in-flight job's draw age (`next_fill_id` minus
    /// its id) is included: without it two boundaries can match while
    /// their in-flight jobs sit at different distances from the draw
    /// counter, and shifting the recorded ids by the per-cycle stride
    /// would then permute the completion order. Device state and
    /// checkpoint progress are not part of it: the detector only arms
    /// when no device can fail, and then every stage stays up and no fill
    /// job checkpoints. Appends to `sig`, a buffer the detector recycles.
    fn steady_sig(&self, sig: &mut Vec<u64>) {
        // Exact for a fully leased pipeline, so a fresh buffer is
        // allocated once, at its final size, before the detector recycles it.
        sig.reserve(
            1 + self.rotation.as_ref().map_or(0, MixRotation::sig_len) + 8 * self.leases.len(),
        );
        match &self.rotation {
            None => sig.push(0),
            Some(r) => {
                sig.push(1);
                r.sig_into(sig);
            }
        }
        for lease in &self.leases {
            match lease {
                None => sig.push(0),
                Some(l) => {
                    // The plan's `Arc` pointer stands in for (model, kind,
                    // stage geometry, plan) identity: the fleet's plan
                    // table lives for the whole run and binds an `Arc`
                    // only on stages of its own geometry, so equal
                    // pointers in one lease slot mean the same plan.
                    let ex = &l.exec;
                    sig.extend([
                        1,
                        Arc::as_ptr(ex.plan_handle()) as usize as u64,
                        ex.cursor() as u64,
                        ex.samples_done(),
                        ex.flops_done().to_bits(),
                        ex.bubble_time_used().as_nanos(),
                        ex.job().samples,
                        self.next_fill_id.wrapping_sub(ex.job().id.0),
                    ]);
                }
            }
        }
    }

    /// Closes the iteration in flight: adds its critical-path stall to
    /// the total and, if iterations remain, says when the next one
    /// starts.
    ///
    /// Steady-state fast-forward happens here: if this boundary's full
    /// state matches an earlier one (with the RNG frozen in between), the
    /// iterations separating them form a cycle that would repeat
    /// verbatim. The cycle's recorded effects are applied M times over
    /// (the FLOP sum through [`replay_adds`]) instead of simulating
    /// M × cycle events, and event fidelity resumes at the advanced
    /// clock — bit-for-bit identical by construction.
    fn end_iteration(&mut self, now: SimTime, period: SimDuration) -> Boundary {
        let delay = self.iteration_delay;
        self.total_delay += delay;
        self.stage_delays.clear();
        self.iterations_done += 1;
        if self.iterations_done >= self.iterations {
            // The stream is over, so its cycle history is dead: free it
            // now. A pipeline-major worker then holds the history of the
            // one pipeline it runs, not of every pipeline it has run.
            self.detector = SteadyDetector::new(false, 0);
            return Boundary::default();
        }
        let boundary = Boundary {
            next: Some(now),
            ..Boundary::default()
        };
        if !self.detector.enabled() || !self.detector.observe(self.rng.state_fingerprint()) {
            return boundary;
        }
        let mut sig = self.detector.sig_buffer();
        self.steady_sig(&mut sig);
        let remaining = (self.iterations - self.iterations_done) as u64;
        let mark = self.mark();
        let Some(skip) = self.detector.end_iteration(sig, mark, remaining) else {
            return boundary;
        };
        // One cycle moves each counter by the difference of its marks.
        // Fill ids are the only non-cyclic state: each cycle's sit exactly
        // `stride` draws above the previous cycle's. Isolated OOMs and
        // lost bubbles need a memory-jitter draw or a failure, so they
        // stay put over any armed window.
        let completions = mark.completed - skip.since.completed;
        let stride = mark.next_fill_id - skip.since.next_fill_id;
        let delay = mark.total_delay - skip.since.total_delay;
        self.executed_flops = replay_adds(self.executed_flops, &skip.flops, skip.cycles);
        self.total_delay += delay * skip.cycles;
        self.iterations_done += skip.iterations() as usize;
        self.completed += completions * skip.cycles as usize;
        self.next_fill_id += stride * skip.cycles;
        self.fast_forwarded += skip.iterations();
        // In-flight jobs were drawn a fixed number of cycles before they
        // complete; their ids advance with the skipped draws so post-skip
        // completions continue the event-fidelity id stream exactly.
        for lease in self.leases.iter_mut().flatten() {
            lease.exec.advance_job_id(stride * skip.cycles);
        }
        if let Some(ids) = &mut self.ids {
            ids.skip(SkippedIds {
                count: completions,
                stride,
                cycles: skip.cycles,
            });
        }
        // Each skipped iteration would have fired one StageBubbles per
        // stage plus one JobIterationEnd.
        Boundary {
            next: Some(now + (period * skip.len + delay) * skip.cycles),
            credit: skip.iterations() * (self.leases.len() as u64 + 1),
        }
    }

    /// Runs this pipeline's events pipeline-major, from its first block
    /// to its last iteration end, calling exactly what the kernel's
    /// handler calls for each; returns the events the kernel would have
    /// dispatched, fast-forward credits included. A block is one
    /// iteration's stage fan-out, which the kernel pops as one run.
    fn advance(&mut self, job: usize, shape: &Shape, cfg: &FleetSimConfig) -> u64 {
        let mut events = 0;
        let mut block = self.filling.then_some(SimTime::ZERO);
        while let Some(at) = block {
            for stage in 0..self.leases.len() {
                self.run_stage(job, stage, &shape.plans, cfg, || None);
            }
            let end = at + shape.period + self.iteration_delay;
            let boundary = self.end_iteration(end, shape.period);
            events += self.leases.len() as u64 + 1 + boundary.credit;
            block = boundary.next;
        }
        events
    }
}

/// What closing an iteration did.
#[derive(Default)]
struct Boundary {
    /// When the next iteration's block fires; `None` once the last
    /// iteration closed.
    next: Option<SimTime>,
    /// Events a fast-forward skip stood in for.
    credit: u64,
}

/// A pipeline's absolute counters at an iteration boundary, the mark
/// its [`SteadyDetector`] keeps per boundary: a cycle's effect on each is
/// the difference of the marks at its two ends.
#[derive(Clone, Copy)]
struct Mark {
    completed: usize,
    next_fill_id: u64,
    total_delay: SimDuration,
}

/// The fill ids a fast-forward skip completed: the last `count` literal
/// ids before the skip (one cycle's completions, in order), shifted up by
/// `stride` per cycle, for cycles `1..=cycles`.
struct SkippedIds {
    count: usize,
    stride: u64,
    cycles: u64,
}

impl SkippedIds {
    fn len(&self) -> usize {
        self.count * self.cycles as usize
    }

    /// Appends the skipped ids, given the literal ids logged before it.
    fn write(&self, before: &[JobId], ids: &mut Vec<JobId>) {
        let cycle = &before[before.len() - self.count..];
        for m in 1..=self.cycles {
            ids.extend(cycle.iter().map(|&JobId(id)| JobId(id + m * self.stride)));
        }
    }
}

/// One pipeline's completed fill ids in its completion order: the ids of
/// event-by-event completions as they are, and each fast-forward skip as
/// one [`SkippedIds`] segment over the literal ids before it, expanded
/// only when [`IdLog::write`] lays the log out.
#[derive(Default)]
struct IdLog {
    literal: Vec<JobId>,
    /// Each skip, after the first `.0` ids of `literal`.
    skips: Vec<(usize, SkippedIds)>,
}

impl IdLog {
    /// Logs a skip over the tail of the literal ids. The detector resets
    /// on every skip, so a cycle never reaches back past the previous
    /// segment.
    fn skip(&mut self, skipped: SkippedIds) {
        let at = self.literal.len();
        debug_assert!(
            skipped.count <= at - self.skips.last().map_or(0, |(prev, _)| *prev),
            "a cycle's completions reach back past the previous skip"
        );
        self.skips.push((at, skipped));
    }

    fn len(&self) -> usize {
        self.literal.len() + self.skips.iter().map(|(_, s)| s.len()).sum::<usize>()
    }

    /// Appends the log to `ids` in completion order.
    fn write(&self, ids: &mut Vec<JobId>) {
        let mut from = 0;
        for (at, skipped) in &self.skips {
            ids.extend_from_slice(&self.literal[from..*at]);
            skipped.write(&self.literal[..*at], ids);
            from = *at;
        }
        ids.extend_from_slice(&self.literal[from..]);
    }
}

/// Ulps in one binade: an accumulator `m·u` with ulp `u` stays in its
/// binade exactly while `m < BINADE_ULPS`.
const BINADE_ULPS: u64 = 1 << 53;

/// `acc` after `cycles` rounds of `for &f in adds { acc += f }`, bit for
/// bit, in O(`adds` × binades crossed) rather than O(`adds` × `cycles`).
///
/// Under round-to-nearest-even, a positive normal `acc = m·u` (`u` its
/// ulp) plus a finite `f ≥ 0` is exactly `(m + round(f/u))·u` while the
/// sum stays in `acc`'s binade, provided `f/u` is not a tie (fractional
/// part exactly one half). One round of `adds` then adds a constant `D`
/// ulps, so all whole rounds that stay in the binade collapse into the
/// integer step `m + k·D` (below 2^53, so exact). One plain round then
/// crosses into the next binade, where the argument restarts. A binade
/// without that proof — a tie, a zero or subnormal `acc`, a negative or
/// non-finite add — is replayed round by round; a plain round that leaves
/// `acc` bit-identical is a fixed point and ends the replay.
fn replay_adds(mut acc: f64, adds: &[f64], mut cycles: u64) -> f64 {
    while cycles > 0 {
        if let Some((m, ulp, step)) = binade_step(acc, adds) {
            if step == 0 {
                return acc;
            }
            let k = ((BINADE_ULPS - 1 - m) / step).min(cycles);
            acc = (m + k * step) as f64 * ulp;
            cycles -= k;
            if cycles == 0 {
                break;
            }
        }
        let before = acc.to_bits();
        for &f in adds {
            acc += f;
        }
        cycles -= 1;
        if acc.to_bits() == before {
            break;
        }
    }
    acc
}

/// For a positive normal `acc = m·u` (`u` its ulp), returns `(m, u, D)`,
/// where one round of `adds` moves `acc` by exactly `D` ulps while it
/// stays in the binade. `None` when `acc` is not positive and normal, or
/// when an add is negative, NaN, a tie at `u` or leaves the binade on its
/// own.
fn binade_step(acc: f64, adds: &[f64]) -> Option<(u64, f64, u64)> {
    if !acc.is_normal() || acc.is_sign_negative() {
        return None;
    }
    let bits = acc.to_bits();
    let exp = bits >> 52;
    let m = (bits & (BINADE_ULPS / 2 - 1)) | (BINADE_ULPS / 2);
    // u = 2^(exp - 1075): normal from exp 53 on, subnormal below.
    let ulp = f64::from_bits(if exp > 52 {
        (exp - 52) << 52
    } else {
        1 << (exp - 1)
    });
    let mut step = 0u64;
    for &f in adds {
        // Exact: division by a power of two, and q < 2^53 below.
        let q = f / ulp;
        if !(f >= 0.0 && q < BINADE_ULPS as f64) {
            return None;
        }
        // For 0 ≤ q < 2^53 the truncating cast is the floor and both it
        // and the fraction are exact, so no call into `floor` or `round`
        // (software routines on the baseline x86_64 target) is needed.
        let whole = q as u64;
        let frac = q - whole as f64;
        if frac == 0.5 {
            return None;
        }
        step = step.saturating_add(whole + u64::from(frac > 0.5));
    }
    Some((m, ulp, step))
}

/// The pipeline-filling backend: main-job pipelines on one kernel over a
/// flat device space, sharing one global fill queue. See the module docs;
/// [`PhysicalBackend`](crate::PhysicalBackend) and
/// [`FleetBackend`](crate::FleetBackend) are its two result views, `R`.
pub struct FillBackend<R> {
    /// The lowered configuration: workload, failure and queue knobs.
    cfg: FleetSimConfig,
    /// The label the run reports under.
    kind: BackendKind,
    shapes: Vec<Shape>,
    /// Owning pipeline per flat device.
    flat_owner: Vec<usize>,
    /// First flat device of every pipeline of each shape, ascending: an
    /// evicted job of shape `c` and stage `s` is feasible exactly on
    /// `base + s` for each `base` in `shape_bases[c]`.
    shape_bases: Vec<Vec<usize>>,
    queue: GlobalFillQueue,
    /// Reusable all-idle occupancy snapshot for queue picks (occupancy
    /// is not tracked at this fidelity; only the clock changes).
    idle_state: SystemState,
    /// Evicted fill leases waiting in the global queue.
    parked: LookupMap<JobId, Box<FillLease>>,
    /// Per-flat-device failure processes, independent of the workloads.
    fail_rngs: Vec<DeterministicRng>,
    /// End of each flat device's outage in flight, for clamping the last
    /// outage's downtime to the run.
    down_until: Vec<SimTime>,
    pipes: Vec<Pipeline>,
    report: Option<FleetSimResult>,
    view: PhantomData<fn() -> R>,
}

impl<R> FillBackend<R> {
    /// Builds the engine: interns the jobs' shape classes through a
    /// fingerprint map ([`shape_classes`]), runs the engine timeline
    /// once per distinct main job ([`main_job_timelines`]), profiles
    /// each class once (fanned across cores through the sweep driver),
    /// and lays the pipelines out on a flat device index space. `kind`
    /// is the label the run reports under.
    ///
    /// # Panics
    ///
    /// Panics if `cfg.jobs` is empty.
    pub(crate) fn build(cfg: FleetSimConfig, kind: BackendKind) -> Self {
        assert!(!cfg.jobs.is_empty(), "a fleet needs at least one main job");
        let (class_of, class_reps) = shape_classes(&cfg.jobs);
        // One menu and plan table over every stage device of the fleet,
        // shared by all shapes: a (model, kind) menu is profiled once per
        // device and planned once per stage geometry, however many shapes
        // plan on it.
        let menus = Arc::new(ProfileMenus::new(class_reps.iter().flat_map(|&rep| {
            let job = &cfg.jobs[rep];
            match job.stage_devices.as_slice() {
                [] => std::slice::from_ref(&job.main_job.device),
                listed => listed,
            }
        })));
        let (timeline_of, timelines) = main_job_timelines(&cfg.jobs, &class_reps);
        let shapes: Vec<Shape> = sweep::par_map(
            class_reps.into_iter().zip(timeline_of).collect(),
            |(rep, t)| Shape::profile(&cfg.jobs[rep], &timelines[t], &menus),
        );

        // Faults feed the global queue and entangle the pipelines;
        // fast-forward only arms while each pipeline's iteration stream is
        // provably private.
        let ff_armed = cfg.fast_forward && cfg.mtbf == SimDuration::MAX;
        let history = if cfg.jobs.len() == 1 {
            STEADY_HISTORY
        } else {
            FLEET_STEADY_HISTORY
        };
        let mut base = Vec::with_capacity(cfg.jobs.len());
        let mut flat_owner = Vec::new();
        let mut shape_bases = vec![Vec::new(); shapes.len()];
        for (j, &class) in class_of.iter().enumerate() {
            base.push(flat_owner.len());
            shape_bases[class].push(flat_owner.len());
            flat_owner.extend(std::iter::repeat_n(j, shapes[class].stages()));
        }
        // Failure streams fork from a root separate from every workload
        // stream, one per flat device in layout order, so sweeping the
        // MTBF never perturbs a workload.
        let mut fail_root = DeterministicRng::seed_from(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
        let fail_rngs = (0..flat_owner.len()).map(|_| fail_root.fork()).collect();
        let queue = GlobalFillQueue::new(
            cfg.policy.build(),
            flat_owner.clone(),
            cfg.jobs.iter().map(|job| job.admits_foreign).collect(),
        );
        let pipes = cfg
            .jobs
            .iter()
            .enumerate()
            .map(|(j, job)| {
                let stages = shapes[class_of[j]].stages();
                Pipeline {
                    shape: class_of[j],
                    base: base[j],
                    iterations: job.iterations,
                    filling: job.executor.fill_fraction != 0.0 && job.iterations > 0,
                    rng: DeterministicRng::seed_from(job.seed),
                    rotation: cfg.deterministic_mix.then(|| MixRotation::new(&cfg.mix)),
                    leases: (0..stages).map(|_| None).collect(),
                    up: vec![true; stages],
                    next_fill_id: 0,
                    iterations_done: 0,
                    stage_delays: Vec::with_capacity(stages),
                    iteration_delay: SimDuration::ZERO,
                    total_delay: SimDuration::ZERO,
                    downtime: SimDuration::ZERO,
                    executed_flops: 0.0,
                    lost_flops: 0.0,
                    completed: 0,
                    ids: (kind != BackendKind::Physical).then(IdLog::default),
                    isolated_ooms: 0,
                    failures: 0,
                    evictions: 0,
                    bubbles_lost: 0,
                    detector: SteadyDetector::new(ff_armed, history),
                    fast_forwarded: 0,
                }
            })
            .collect();
        FillBackend {
            kind,
            shapes,
            idle_state: SystemState::idle(SimTime::ZERO, flat_owner.len()),
            down_until: vec![SimTime::ZERO; flat_owner.len()],
            flat_owner,
            shape_bases,
            queue,
            parked: LookupMap::new(),
            fail_rngs,
            pipes,
            report: None,
            view: PhantomData,
            cfg,
        }
    }

    /// Decomposes a flat device index into (pipeline, local stage).
    fn locate(&self, flat: usize) -> (usize, usize) {
        let j = self.flat_owner[flat];
        (j, flat - self.pipes[j].base)
    }

    /// The fleet-shaped report of the drained run.
    ///
    /// # Panics
    ///
    /// Panics if the backend has not been drained yet.
    pub(crate) fn into_report(self) -> FleetSimResult {
        self.report
            .expect("backend not drained; drive it with BackendDriver::run")
    }

    /// Runs every pipeline pipeline-major instead of on the kernel; only
    /// valid while no device can fail, when the pipelines share nothing
    /// but the kernel's clock. Each pipeline runs straight to its end,
    /// striped across cores, and keeps its own completed ids. Returns the
    /// events the kernel would have dispatched.
    fn run_pipelines(&mut self) -> u64 {
        let FillBackend {
            cfg, shapes, pipes, ..
        } = self;
        let lanes: Vec<(usize, &mut Pipeline)> = pipes.iter_mut().enumerate().collect();
        sweep::par_map(lanes, |(j, pipe)| pipe.advance(j, &shapes[pipe.shape], cfg))
            .into_iter()
            .sum()
    }

    /// Evicts the fill job running on pipeline `j`'s stage `s` (device
    /// failed): work since the last checkpoint is lost, the executor
    /// rewinds, and the fill job re-enters the global queue owing the
    /// restart cost. Its plan is bound to this bubble geometry, so it is
    /// feasible exactly on stage `s` of every pipeline of the same shape;
    /// admission masking happens inside the queue.
    fn evict(&mut self, j: usize, s: usize) {
        let pipe = &mut self.pipes[j];
        let Some(mut lease) = pipe.leases[s].take() else {
            return;
        };
        pipe.evictions += 1;
        pipe.lost_flops += lease.unsaved_flops;
        lease.exec.restore(lease.ckpt);
        lease.unsaved_flops = 0.0;
        lease.runs_since_ckpt = 0;
        lease.restart_debt = self.cfg.checkpoint_cost;

        let shape = pipe.shape;
        let remaining = self.shapes[shape].period * lease.exec.remaining_main_iterations();
        let feasible = self.shape_bases[shape]
            .iter()
            .map(|&base| (base + s, remaining))
            .collect();
        let id = lease.exec.job().id;
        let info = JobInfo::sparse(
            id,
            lease.exec.job().arrival,
            self.flat_owner.len(),
            feasible,
        );
        self.queue.requeue_from(j, info);
        self.parked.insert(id, lease);
    }

    /// Every pipeline's completed fill ids, job-major: job 0's in its
    /// completion order, then job 1's, and so on. Each log is freed
    /// once written.
    fn completed_fill_ids(&mut self) -> Vec<JobId> {
        let total = self
            .pipes
            .iter()
            .filter_map(|p| p.ids.as_ref())
            .map(IdLog::len)
            .sum();
        let mut ids = Vec::with_capacity(total);
        for log in self.pipes.iter_mut().filter_map(|p| p.ids.take()) {
            log.write(&mut ids);
        }
        ids
    }

    /// Per-pipeline results plus fleet aggregates.
    fn collect(&mut self) -> FleetSimResult {
        let jobs: Vec<FleetJobResult> = self
            .pipes
            .iter_mut()
            .enumerate()
            .map(|(j, pipe)| {
                let stages = pipe.base..pipe.base + pipe.leases.len();
                pipe.result(j, &self.shapes[pipe.shape], &self.down_until[stages])
            })
            .collect();
        // Fleet aggregates fold in job order from +0.0, weighting by
        // simulated devices.
        let fold = |f: &dyn Fn(&FleetJobResult) -> f64| jobs.iter().fold(0.0, |acc, r| acc + f(r));
        let total_stages: usize = jobs.iter().map(|r| r.stages).sum();
        let device_time = fold(&|r| r.stages as f64 * r.elapsed.as_secs_f64());
        let fill_flops = fold(&|r| r.fill_flops);
        let lost_fill_flops = fold(&|r| r.lost_fill_flops);
        // A degenerate fleet — no stages or a zero horizon — must
        // aggregate to zeros, not to the NaNs the unguarded divisions
        // would produce (which then land silently in fleet_scale.csv).
        let per_stage = |f: &dyn Fn(&FleetJobResult) -> f64| {
            if total_stages == 0 {
                0.0
            } else {
                fold(&|r| f(r) * r.stages as f64) / total_stages as f64
            }
        };
        FleetSimResult {
            total_gpus: jobs.iter().map(|r| r.gpus).sum(),
            num_devices: self.flat_owner.len(),
            elapsed: jobs
                .iter()
                .map(|r| r.elapsed)
                .max()
                .unwrap_or(SimDuration::ZERO),
            fill_flops,
            lost_fill_flops,
            recovered_tflops_per_gpu: if fill_flops == 0.0 || device_time == 0.0 {
                0.0
            } else {
                fill_flops / device_time / 1e12
            },
            main_tflops_per_gpu: per_stage(&|r| r.main_tflops_per_gpu),
            mean_slowdown: per_stage(&|r| r.main_slowdown),
            bubble_ratio: per_stage(&|r| r.bubble_ratio),
            fill_jobs_completed: jobs.iter().map(|r| r.fill_jobs_completed).sum(),
            completed_fill_ids: self.completed_fill_ids(),
            failures: jobs.iter().map(|r| r.failures).sum(),
            evictions: jobs.iter().map(|r| r.evictions).sum(),
            cross_job_dispatches: self.queue.cross_job_dispatches(),
            peak_queue_depth: self.queue.peak_depth(),
            left_in_queue: self.queue.queue_len(),
            goodput_fraction: BackendMetrics::goodput_of(fill_flops, lost_fill_flops),
            iterations_fast_forwarded: self.pipes.iter().map(|p| p.fast_forwarded).sum(),
            jobs,
        }
    }
}

impl FillBackend<FleetSimResult> {
    /// Fill jobs each main job's bubbles have completed so far, in job
    /// order. A kernel step completes fill jobs on one main job at most,
    /// so reading this after every [`BackendDriver::step`] tells which
    /// ids of the job-major [`FleetSimResult::completed_fill_ids`] each
    /// step completed: that recovers the kernel's completion order.
    ///
    /// [`BackendDriver::step`]: crate::BackendDriver::step
    pub fn completed_per_job(&self) -> impl ExactSizeIterator<Item = usize> + '_ {
        self.pipes.iter().map(|pipe| pipe.completed)
    }
}

impl<R> EventHandler for FillBackend<R> {
    type Event = ClusterEvent;

    fn handle(&mut self, now: SimTime, event: ClusterEvent, queue: &mut EventQueue<ClusterEvent>) {
        match event {
            ClusterEvent::StageBubbles { stage } => {
                let (j, s) = self.locate(stage);
                let pipe = &mut self.pipes[j];
                let shape = &self.shapes[pipe.shape];
                let (fill_queue, parked, idle_state) =
                    (&mut self.queue, &mut self.parked, &mut self.idle_state);
                let delay = pipe.run_stage(j, s, &shape.plans, &self.cfg, || {
                    unpark(fill_queue, parked, idle_state, stage, now)
                });
                // Once the pipeline's last stage ran, its stall aggregate
                // is known; the iteration boundary lands at the
                // *stretched* period so the kernel clock carries the
                // emergent slowdown.
                if let Some(delay) = delay {
                    queue.push(
                        now + shape.period + delay,
                        ClusterEvent::JobIterationEnd { job: j },
                    );
                }
            }
            ClusterEvent::JobIterationEnd { job } => {
                let pipe = &mut self.pipes[job];
                let boundary = pipe.end_iteration(now, self.shapes[pipe.shape].period);
                queue.credit(boundary.credit);
                if let Some(at) = boundary.next {
                    let stages = pipe.base..pipe.base + pipe.leases.len();
                    queue.push_run(at, stages.map(|stage| ClusterEvent::StageBubbles { stage }));
                }
            }
            ClusterEvent::DeviceFailure { device } => {
                let (j, s) = self.locate(device);
                let pipe = &mut self.pipes[j];
                // A failure landing after the pipeline's last iteration
                // has nothing left to attack; dropping it (and its
                // recovery) lets the queue drain.
                if pipe.iterations_done >= pipe.iterations {
                    return;
                }
                debug_assert!(pipe.up[s], "failure on an already-down device");
                // Defensive: faults gate the detector off at construction,
                // but a failure is exactly the external transition that
                // voids a cycle hypothesis, so say so explicitly too.
                pipe.detector.reset();
                pipe.failures += 1;
                pipe.up[s] = false;
                let outage = self.fail_rngs[device].exponential_duration(MEAN_RECOVERY);
                pipe.downtime += outage;
                self.down_until[device] = now + outage;
                self.evict(j, s);
                queue.push(now + outage, ClusterEvent::DeviceRecovery { device });
            }
            ClusterEvent::DeviceRecovery { device } => {
                let (j, s) = self.locate(device);
                let pipe = &mut self.pipes[j];
                pipe.up[s] = true;
                // Keep the failure process alive only while iterations
                // remain; otherwise the chain would outlive the run.
                if pipe.iterations_done < pipe.iterations {
                    let gap = self.fail_rngs[device].exponential_duration(self.cfg.mtbf);
                    if let Some(at) = now.checked_add(gap) {
                        queue.push(at, ClusterEvent::DeviceFailure { device });
                    }
                }
            }
            ClusterEvent::JobArrival(_) | ClusterEvent::JobCompletion { .. } => {
                debug_assert!(false, "pipeline-filling backend received a foreign event");
            }
        }
    }
}

impl<R> SimBackend for FillBackend<R> {
    fn kind(&self) -> BackendKind {
        self.kind
    }

    fn prime(&mut self, sim: &mut Simulation<ClusterEvent>) {
        // A job that declines filling (fill fraction exactly 0.0) runs as
        // the nominal pipeline: no bubble events, no failure chain.
        for pipe in self.pipes.iter().filter(|p| p.filling) {
            for flat in pipe.base..pipe.base + pipe.leases.len() {
                sim.schedule(SimTime::ZERO, ClusterEvent::StageBubbles { stage: flat });
            }
        }
        if self.cfg.mtbf != SimDuration::MAX {
            for pipe in self.pipes.iter().filter(|p| p.filling) {
                for device in pipe.base..pipe.base + pipe.leases.len() {
                    let gap = self.fail_rngs[device].exponential_duration(self.cfg.mtbf);
                    if let Some(at) = SimTime::ZERO.checked_add(gap) {
                        sim.schedule(at, ClusterEvent::DeviceFailure { device });
                    }
                }
            }
        }
    }

    fn run_pipeline_major(&mut self) -> Option<u64> {
        if self.cfg.mtbf != SimDuration::MAX {
            return None;
        }
        let events = self.run_pipelines();
        self.report = Some(self.collect());
        Some(events)
    }

    fn drain(&mut self, _now: SimTime) {
        self.report = Some(self.collect());
    }

    fn metrics(&self, events_dispatched: u64) -> BackendMetrics {
        let r = self
            .report
            .as_ref()
            .expect("metrics requested before drain");
        let kind = self.kind;
        // Only the fleet reports the device-weighted aggregates; a
        // one-pipeline label reports its pipeline's own numbers, which
        // the aggregates do not reproduce bit for bit.
        if kind == BackendKind::Fleet {
            return BackendMetrics {
                kind,
                num_devices: r.num_devices,
                elapsed: r.elapsed,
                events_dispatched,
                fill_flops: r.fill_flops,
                recovered_tflops_per_gpu: r.recovered_tflops_per_gpu,
                main_tflops_per_gpu: r.main_tflops_per_gpu,
                main_slowdown: r.mean_slowdown,
                bubble_ratio: r.bubble_ratio,
                jobs_completed: r.fill_jobs_completed,
                evictions: r.evictions,
                lost_fill_flops: r.lost_fill_flops,
                goodput_fraction: r.goodput_fraction,
            };
        }
        let job = &r.jobs[0];
        BackendMetrics {
            kind,
            num_devices: job.stages,
            elapsed: job.elapsed,
            events_dispatched,
            fill_flops: job.fill_flops,
            recovered_tflops_per_gpu: job.recovered_tflops_per_gpu,
            main_tflops_per_gpu: job.main_tflops_per_gpu,
            main_slowdown: job.main_slowdown,
            bubble_ratio: job.bubble_ratio,
            jobs_completed: job.fill_jobs_completed,
            evictions: job.evictions,
            lost_fill_flops: job.lost_fill_flops,
            goodput_fraction: BackendMetrics::goodput_of(job.fill_flops, job.lost_fill_flops),
        }
    }
}

/// Takes the evicted lease the global queue offers flat device `flat`
/// for its idle stage, if any: evicted fill jobs take priority over
/// fresh backlog draws.
fn unpark(
    queue: &mut GlobalFillQueue,
    parked: &mut LookupMap<JobId, Box<FillLease>>,
    idle_state: &mut SystemState,
    flat: usize,
    now: SimTime,
) -> Option<Box<FillLease>> {
    if queue.queue_len() == 0 {
        return None;
    }
    // Reuse the all-idle snapshot (only the clock moves) rather than
    // allocating a devices-sized state per pick — this is the hot path of
    // every refill in a large fleet.
    idle_state.now = now;
    let info = queue.pick_for(flat, idle_state)?;
    let lease = parked
        .remove(&info.id)
        .expect("global queue and parked map must stay in sync");
    Some(lease)
}

/// The stall a bubble of profiled length `window` suffers when a
/// partition profiled at `time_used` runs in it after a `switch`:
/// `(switch + time_used·j_used − USABLE_FRACTION·window·j_window)⁺`, in
/// whole nanoseconds, for the drawn factors `(j_window, j_used)`. The
/// answer is the exact one, found by the cheapest of three tests that
/// decides it:
///
/// - When the factors are the cosine and sine halves of one Box–Muller
///   pair (every bubble without memory jitter), write `W` for the usable
///   span and `t` for `time_used`. The stall's jittered part is
///   `cv·r·(t·sin θ − W·cos θ) ≤ cv·r·√(t² + W²)` by Cauchy–Schwarz, so
///   [`Jitter::pair_within`] rules the stall out at every angle, with no
///   division, when `cv·r·√(t² + W²)` fits in `W − t − switch`. The
///   slack keeps two [`STALL_MARGIN_NS`]: one for the exact path's
///   roundings, as the bounds test does, and one for the evaluated
///   factors' departure from `1 + cv·r·(cos θ, sin θ)` and the slack's
///   own rounding.
/// - Otherwise [`bounded_stall`] tries the factors' [`Jitter::bounds`],
///   then evaluates them.
#[inline]
fn bubble_stall(
    window: SimDuration,
    switch: SimDuration,
    time_used: SimDuration,
    (window_jitter, used_jitter): (Jitter, Jitter),
) -> SimDuration {
    let usable = window.as_nanos() as f64 * USABLE_FRACTION;
    let used = time_used.as_nanos() as f64;
    let slack = usable - used - switch.as_nanos() as f64 - 2.0 * STALL_MARGIN_NS;
    if window_jitter.pair_within(used_jitter, used * used + usable * usable, slack) {
        return SimDuration::ZERO;
    }
    bounded_stall(
        window,
        switch,
        time_used,
        (window_jitter.bounds().0, used_jitter.bounds().1),
        || (window_jitter.value(), used_jitter.value()),
    )
}

/// [`bubble_stall`] from bounds on its factors: `window_lo` bounds
/// `j_window` from below and `used_hi` bounds `j_used` from above;
/// `jitters` evaluates the pair `(j_window, j_used)` and runs only when
/// the bounds cannot rule a stall out. The answer is the exact one either
/// way.
#[inline]
fn bounded_stall(
    window: SimDuration,
    switch: SimDuration,
    time_used: SimDuration,
    (window_lo, used_hi): (f64, f64),
    jitters: impl FnOnce() -> (f64, f64),
) -> SimDuration {
    let worst_used = switch.as_nanos() as f64 + time_used.as_nanos() as f64 * used_hi;
    let least_usable = window.as_nanos() as f64 * window_lo * USABLE_FRACTION;
    if worst_used + STALL_MARGIN_NS <= least_usable {
        return SimDuration::ZERO;
    }
    let (j_window, j_used) = jitters();
    let actual_window = window.mul_f64(j_window);
    let used = switch + time_used.mul_f64(j_used);
    used.saturating_sub(actual_window.mul_f64(USABLE_FRACTION))
}

/// Critical-path aggregation of one iteration's per-stage stalls: stalls
/// on different stages partially overlap, so the longest is fully paid
/// and the rest half.
fn critical_path_delay(stage_delays: &[SimDuration]) -> SimDuration {
    let max = stage_delays
        .iter()
        .copied()
        .max()
        .unwrap_or(SimDuration::ZERO);
    let sum: SimDuration = stage_delays.iter().copied().sum();
    max + (sum - max).mul_f64(0.5)
}

/// Weighted round-robin over a model mix (largest-accumulator rule), with
/// training/inference alternation for the sub-700M models — realizes mix
/// weights exactly, without sampling noise.
#[derive(Debug)]
pub(crate) struct MixRotation {
    weights: Vec<(ModelId, f64)>,
    acc: Vec<f64>,
    kind_flip: LookupMap<ModelId, bool>,
}

impl MixRotation {
    /// Validates the mix and builds the rotation. Non-finite, negative or
    /// all-zero weights are reported as an error instead of deferring a
    /// panic into the per-draw selection loop.
    pub(crate) fn try_new(mix: &ModelMix) -> Result<Self, String> {
        Self::try_from_weights(mix.weights())
    }

    pub(crate) fn try_from_weights(raw: &[(ModelId, f64)]) -> Result<Self, String> {
        if raw.is_empty() {
            return Err("model mix has no entries".to_string());
        }
        for &(m, w) in raw {
            if !w.is_finite() || w < 0.0 {
                return Err(format!("model mix weight for {m:?} is not usable: {w}"));
            }
        }
        let total: f64 = raw.iter().map(|&(_, w)| w).sum();
        if !total.is_finite() || total <= 0.0 {
            return Err(format!("model mix weights sum to {total}, need > 0"));
        }
        let weights: Vec<(ModelId, f64)> = raw.iter().map(|&(m, w)| (m, w / total)).collect();
        Ok(MixRotation {
            acc: vec![0.0; weights.len()],
            weights,
            kind_flip: LookupMap::new(),
        })
    }

    /// # Panics
    ///
    /// Panics if the mix fails [`Self::try_new`] validation. Every
    /// in-tree [`ModelMix`] constructor produces valid weights.
    pub(crate) fn new(mix: &ModelMix) -> Self {
        Self::try_new(mix).expect("invalid model mix")
    }

    pub(crate) fn next(&mut self) -> (ModelId, JobKind) {
        for (i, &(_, w)) in self.weights.iter().enumerate() {
            self.acc[i] += w;
        }
        // Manual total-order scan with a fixed index-order tie rule:
        // `>=` keeps the *highest* maximal index, so exact ties (e.g. a
        // 50/50 blend) resolve identically on every run and platform.
        // This replaces `max_by(partial_cmp(..).expect(..))`, which
        // panicked on NaN; the tie direction deliberately matches
        // `max_by`'s last-maximum rule so realized sequences (and the
        // golden experiment outputs derived from them) are unchanged.
        let mut best = 0;
        for i in 1..self.acc.len() {
            if self.acc[i] >= self.acc[best] {
                best = i;
            }
        }
        self.acc[best] -= 1.0;
        let model = self.weights[best].0;
        let kind = if model.trainable_as_fill_job() {
            let flip = self.kind_flip.entry(model).or_insert(false);
            *flip = !*flip;
            if *flip {
                JobKind::Training
            } else {
                JobKind::BatchInference
            }
        } else {
            JobKind::BatchInference
        };
        (model, kind)
    }

    /// Words [`Self::sig_into`] appends.
    fn sig_len(&self) -> usize {
        2 * self.weights.len()
    }

    /// Appends the rotation's full state (accumulators and
    /// training/inference flips) to a steady-state signature, iterating
    /// in stable weight order (the flip map has no iteration API).
    fn sig_into(&self, out: &mut Vec<u64>) {
        for (i, &(m, _)) in self.weights.iter().enumerate() {
            out.push(self.acc[i].to_bits());
            out.push(self.kind_flip.get(&m).copied().unwrap_or(false) as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{FleetBackend, PhysicalBackend, PhysicalSimConfig};
    use pipefill_pipeline::{MainJobSpec, ScheduleKind};

    /// A quiescent physical run: no jitter draws, a deterministic
    /// one-model mix and small fill jobs — the regime in which steady
    /// state is provable.
    fn quiet_physical() -> PhysicalSimConfig {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut cfg = PhysicalSimConfig::new(main)
            .with_fill_fraction(0.68)
            .with_mix(ModelMix::single(ModelId::EfficientNet));
        cfg.jitter_cv = 0.0;
        cfg.deterministic_mix = true;
        cfg.backlog_job_gpu_hours = 0.002;
        cfg.iterations = 400;
        cfg
    }

    /// A fault run to completion.
    fn simulate_fault(cfg: FleetSimConfig) -> FleetSimResult {
        crate::BackendDriver::new(FleetBackend::fault(cfg))
            .run()
            .1
            .into_result()
    }

    #[test]
    fn homogeneous_stage_devices_plan_like_the_empty_list_and_the_coarse_backend() {
        // One per-stage model: listing the main job's device on every
        // stage is the homogeneous job, so both shapes — and the coarse
        // backend, which plans with the main job's device everywhere —
        // see the same windows and choose the same plans.
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let p = main.parallelism.pipeline_stages;
        let empty = FleetJobConfig::new(main.clone());
        let listed = FleetJobConfig {
            stage_devices: vec![main.device.clone(); p],
            ..empty.clone()
        };
        let menus = Arc::new(ProfileMenus::new([&main.device]));
        let timeline = main.engine_timeline();
        let (a, b) = (
            Shape::profile(&empty, &timeline, &menus),
            Shape::profile(&listed, &timeline, &menus),
        );
        let mut trace = pipefill_trace::TraceConfig::physical(1);
        trace.horizon = SimDuration::from_secs(60);
        let mut coarse = crate::ClusterSimConfig::new(main, trace);
        coarse.executor = empty.executor;
        let c = crate::CoarseBackend::new(coarse).plans;
        assert_eq!(a.period, b.period);
        assert_eq!((a.stages(), b.stages(), c.stages()), (p, p, p));
        for s in 0..p {
            assert_eq!(a.plans.windows(s), b.plans.windows(s), "stage {s}");
            assert_eq!(a.plans.windows(s), c.windows(s), "stage {s}");
            for model in ModelId::ALL {
                for kind in [JobKind::Training, JobKind::BatchInference] {
                    let plan = a.plans.plan(model, kind, s);
                    assert_eq!(plan, b.plans.plan(model, kind, s), "{model} {kind} {s}");
                    assert_eq!(plan, c.plan(model, kind, s), "{model} {kind} {s}");
                }
            }
        }
    }

    #[test]
    fn fast_forward_is_invisible_in_every_preset_result() {
        // The skip lives once, in `Pipeline::end_iteration`: every
        // fidelity's full result — completed-id stream included, whose
        // replay shifts ids by the per-cycle draw stride — must equal the
        // event-by-event run except for the skip counter.
        let phys = quiet_physical();
        let on = PhysicalBackend::simulate(phys.clone());
        let off = PhysicalBackend::simulate(PhysicalSimConfig {
            fast_forward: false,
            ..phys.clone()
        });
        assert!(on.iterations_fast_forwarded > 0, "physical never skipped");
        assert_eq!(off.iterations_fast_forwarded, 0);
        assert_eq!(on.fill_flops.to_bits(), off.fill_flops.to_bits());
        assert_eq!(
            crate::PhysicalSimResult {
                iterations_fast_forwarded: 0,
                ..on
            },
            off
        );

        let fleet = FleetSimConfig::from_physical(&phys);
        let off_cfg = FleetSimConfig {
            fast_forward: false,
            ..fleet.clone()
        };
        let on = FleetBackend::simulate(fleet.clone());
        let off = FleetBackend::simulate(off_cfg.clone());
        assert!(on.iterations_fast_forwarded > 0, "fleet never skipped");
        assert_eq!(
            FleetSimResult {
                iterations_fast_forwarded: 0,
                ..on
            },
            off
        );

        // The fault label over the same one-job fleet (faults off).
        let on = simulate_fault(fleet);
        let off = simulate_fault(off_cfg);
        assert!(on.iterations_fast_forwarded > 0, "fault never skipped");
        assert_eq!(
            FleetSimResult {
                iterations_fast_forwarded: 0,
                ..on
            },
            off
        );
    }

    #[test]
    fn randomness_or_faults_keep_fast_forward_disarmed() {
        // Jitter consumes randomness every iteration and failures are
        // external transitions: either keeps every fidelity at event
        // fidelity.
        let jittered = PhysicalSimConfig {
            jitter_cv: 0.08,
            ..quiet_physical()
        };
        let fleet = FleetSimConfig::from_physical(&jittered);
        assert_eq!(
            PhysicalBackend::simulate(jittered).iterations_fast_forwarded,
            0
        );
        assert_eq!(FleetBackend::simulate(fleet).iterations_fast_forwarded, 0);
        let faulty =
            FleetSimConfig::from_physical(&quiet_physical()).with_mtbf(SimDuration::from_secs(300));
        let r = simulate_fault(faulty);
        assert!(r.failures > 0);
        assert_eq!(r.iterations_fast_forwarded, 0);
    }

    #[test]
    fn fleet_logs_hold_as_many_skip_segments_at_any_horizon() {
        // Every job of a quiescent fleet skips, and each skip is one
        // segment of its job's log: a horizon ten times longer adds
        // cycles to the segments, not segments, on either driver.
        let logs = |iterations: usize| {
            let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
            let jobs = (0..4)
                .map(|j| FleetJobConfig {
                    iterations,
                    seed: 3 + j,
                    ..FleetJobConfig::new(main.clone())
                })
                .collect();
            let mut cfg = FleetSimConfig::new(jobs);
            cfg.jitter_cv = 0.0;
            cfg.deterministic_mix = true;
            cfg.mix = ModelMix::single(ModelId::EfficientNet);
            cfg.backlog_job_gpu_hours = 0.0005;
            let segments = |pipes: &[Pipeline]| -> Vec<usize> {
                pipes
                    .iter()
                    .map(|pipe| pipe.ids.as_ref().map_or(0, |ids| ids.skips.len()))
                    .collect()
            };
            let mut major = FleetBackend::new(cfg.clone());
            assert!(major.run_pipelines() > 0);
            let mut kernel = crate::BackendDriver::new(FleetBackend::new(cfg));
            while kernel.step() == pipefill_sim_core::StepOutcome::Dispatched {}
            let (major, kernel) = (segments(&major.pipes), segments(&kernel.backend().pipes));
            assert_eq!(major, kernel);
            major
        };
        let (short, long) = (logs(400), logs(4000));
        assert!(short.iter().all(|&skips| skips > 0), "{short:?}");
        assert_eq!(short, long);
    }

    #[test]
    fn id_log_segments_replay_the_literal_tail_shifted_per_cycle() {
        // Each segment repeats the last `count` literal ids before it,
        // shifted by `m·stride` for `m = 1..=cycles`, and the literal ids
        // logged after it follow.
        let mut log = IdLog::default();
        log.literal.extend([1, 2, 3, 4].map(JobId));
        log.skip(SkippedIds {
            count: 2,
            stride: 10,
            cycles: 3,
        });
        log.literal.extend([35, 36, 37].map(JobId));
        log.skip(SkippedIds {
            count: 1,
            stride: 2,
            cycles: 2,
        });
        log.literal.push(JobId(42));
        let mut ids = Vec::new();
        log.write(&mut ids);
        let expect = [1, 2, 3, 4, 13, 14, 23, 24, 33, 34, 35, 36, 37, 39, 41, 42].map(JobId);
        assert_eq!(ids, expect);
        assert_eq!(log.len(), expect.len());
    }

    #[test]
    fn rotation_ties_resolve_by_index_deterministically() {
        // A 50/50 blend produces exact accumulator ties every other draw;
        // the fixed index-order rule (last maximal index wins, matching
        // the historical `max_by` behavior) must alternate
        // deterministically instead of depending on float comparison
        // quirks.
        let mix = ModelMix::blend(ModelId::XlmRobertaXl, ModelId::EfficientNet, 0.5);
        let mut r = MixRotation::new(&mix);
        let seq: Vec<ModelId> = (0..8).map(|_| r.next().0).collect();
        let expect: Vec<ModelId> = (0..8)
            .map(|i| {
                if i % 2 == 0 {
                    ModelId::EfficientNet
                } else {
                    ModelId::XlmRobertaXl
                }
            })
            .collect();
        assert_eq!(seq, expect);
    }

    #[test]
    fn rotation_rejects_unusable_weights() {
        // Regression: non-finite weights used to panic inside the
        // per-draw `max_by(partial_cmp)` selection; they now surface as a
        // constructor error.
        assert!(MixRotation::try_from_weights(&[]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, f64::NAN)]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, f64::INFINITY)]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, -1.0)]).is_err());
        assert!(MixRotation::try_from_weights(&[(ModelId::BertBase, 0.0)]).is_err());
        assert!(MixRotation::try_new(&ModelMix::paper_mix()).is_ok());
    }
}

/// `replay_adds` against the loop it replaces, bit for bit.
#[cfg(test)]
mod replay_oracle {
    use super::{binade_step, replay_adds};
    use proptest::prelude::*;

    /// The naive replay: every add of every cycle, in order.
    fn naive(mut acc: f64, adds: &[f64], cycles: u64) -> f64 {
        for _ in 0..cycles {
            for &f in adds {
                acc += f;
            }
        }
        acc
    }

    /// `2^k` for a normal exponent `k`.
    fn pow2(k: i64) -> f64 {
        f64::from_bits(((k + 1023) as u64) << 52)
    }

    /// The accumulator spacing at `acc`: its ulp if normal, the subnormal
    /// spacing at zero or below the normal range.
    fn ulp_at(acc: f64) -> f64 {
        f64::from_bits(acc.to_bits() + 1) - acc
    }

    /// Accumulators: zero, subnormal, exactly `2^k`, `2^k − ulp` (one
    /// add from the next binade) and random normal values.
    fn accumulator() -> impl Strategy<Value = f64> {
        (0u8..5, -1000i64..1000, 0u64..1 << 52).prop_map(|(kind, k, mantissa)| match kind {
            0 => 0.0,
            1 => f64::from_bits(mantissa.max(1)),
            2 => pow2(k),
            3 => f64::from_bits(pow2(k).to_bits() - 1),
            _ => f64::from_bits(pow2(k).to_bits() | mantissa),
        })
    }

    /// One add scaled to `acc`'s binade: zeros, fractions of an ulp,
    /// small and large fractions of `acc`, and values at or above the
    /// binade's width.
    fn add_at(acc: f64, kind: u8, x: f64) -> f64 {
        let ulp = ulp_at(acc);
        let scale = acc.max(ulp);
        match kind {
            0 => 0.0,
            1 => -0.0,
            2 => ulp * 6.0 * x,
            3 => scale * x * 2f64.powi(-20),
            4 => scale * x * 2f64.powi(-9),
            5 => scale * (1.0 + x),
            _ => scale * 2.0 * (1.0 + x),
        }
    }

    /// How a case's adds may break the jump's proof.
    #[derive(Debug, Clone, Copy)]
    enum Hazard {
        None,
        /// An odd multiple of half an ulp at `acc`'s binade.
        Tie,
        Negative,
        Nan,
    }

    fn hazard() -> impl Strategy<Value = Hazard> {
        prop_oneof![
            Just(Hazard::None),
            Just(Hazard::None),
            Just(Hazard::Tie),
            Just(Hazard::Negative),
            Just(Hazard::Nan),
        ]
    }

    fn cycles() -> impl Strategy<Value = u64> {
        prop_oneof![0u64..4, 0u64..10_001]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn replay_matches_the_naive_loop_bit_for_bit(
            acc in accumulator(),
            raw in prop::collection::vec((0u8..7, 0.0f64..1.0), 0..16),
            hazard in hazard(),
            at in 0usize..16,
            odd in 0u64..64,
            cycles in cycles(),
        ) {
            let mut adds: Vec<f64> = raw.iter().map(|&(kind, x)| add_at(acc, kind, x)).collect();
            let slot = at.min(adds.len());
            let ulp = ulp_at(acc);
            match hazard {
                Hazard::None => {}
                Hazard::Tie => adds.insert(slot, (2 * odd + 1) as f64 * (ulp / 2.0)),
                Hazard::Negative => adds.insert(slot, -acc.max(ulp) * 2f64.powi(-12)),
                Hazard::Nan => adds.insert(slot, f64::NAN),
            }
            let fast = replay_adds(acc, &adds, cycles);
            let slow = naive(acc, &adds, cycles);
            prop_assert_eq!(
                fast.to_bits(),
                slow.to_bits(),
                "acc {:e} ({:#x}), {} cycles of {:?}: {:e} vs {:e}",
                acc, acc.to_bits(), cycles, adds, fast, slow
            );
        }
    }

    #[test]
    fn sub_half_ulp_adds_are_a_fixed_point_at_any_horizon() {
        // At 2^60 the ulp is 256: every add rounds away, so no cycle
        // count, however far beyond a naive loop, changes the sum.
        let acc = pow2(60);
        assert_eq!(replay_adds(acc, &[1.0; 16], 1_000_000_000_000_000), acc);
    }

    #[test]
    fn binade_steps_cover_fifty_binades_then_stop_at_a_tie() {
        // 1 + n/2 is exact up to 2^52, where 0.5 becomes a tie at an even
        // significand and rounds away forever.
        assert_eq!(replay_adds(1.0, &[0.5], 1_000_000_000_000_000), 5e14 + 1.0);
        assert_eq!(replay_adds(1.0, &[0.5], u64::MAX), pow2(52));
    }

    #[test]
    fn binade_steps_take_floor_ties_and_rounding_bit_for_bit() {
        // At 2^52 the ulp is 1, so each add is its own quotient: ties at
        // half-integers (exact below 2^52), fractions either side of
        // one half, and integers up to 2^53, the first quotient refused.
        let acc = pow2(52);
        let near = |x: f64, ulps: i64| f64::from_bits((x.to_bits() as i64 + ulps) as u64);
        let mut quotients = vec![0.0, -0.0, 0.25, 0.5, 0.75, 1.0, 1.5, 2.5, 3.5, 1e15 + 0.5];
        for x in [pow2(51), pow2(52), pow2(53)] {
            quotients.extend((-3..=3).map(|ulps| near(x, ulps)));
        }
        quotients.extend([near(0.5, -1), near(0.5, 1), pow2(52) - 0.5, pow2(52) - 1.5]);
        for q in quotients {
            let want = (q < pow2(53) && q - q.floor() != 0.5).then(|| q.round() as u64);
            let got = binade_step(acc, &[q]).map(|(_, _, step)| step);
            assert_eq!(got, want, "quotient {q:e}");
            for cycles in [1, 2, 7] {
                let (fast, slow) = (replay_adds(acc, &[q], cycles), naive(acc, &[q], cycles));
                assert_eq!(fast.to_bits(), slow.to_bits(), "{cycles} cycles of {q:e}");
            }
        }
    }

    #[test]
    fn empty_or_zero_cycle_replays_leave_the_accumulator_alone() {
        for acc in [0.0, -0.0, 1.5, f64::MIN_POSITIVE / 4.0] {
            assert_eq!(replay_adds(acc, &[], 1 << 40).to_bits(), acc.to_bits());
            assert_eq!(replay_adds(acc, &[3.0], 0).to_bits(), acc.to_bits());
        }
    }
}

/// `bubble_stall` and `bounded_stall` against the formula they stand
/// for, evaluated eagerly, on random and on boundary cases.
#[cfg(test)]
mod decision_oracle {
    use super::{bounded_stall, bubble_stall, USABLE_FRACTION};
    use pipefill_sim_core::rng::{DeterministicRng, Jitter};
    use pipefill_sim_core::SimDuration;
    use proptest::prelude::*;

    /// Exactly zero, small, typical, and large enough that draws clip at
    /// zero.
    const CVS: [f64; 8] = [0.0, 1e-6, 0.02, 0.08, 0.3, 0.6, 1.0, 2.0];

    /// A jitter factor with its bounds, as `(lo, value, hi)`: a draw of
    /// the generator, either half of a Box–Muller pair, bounded by
    /// `Jitter::bounds`; or a factor of 0–3 bounded by itself, the
    /// tightest a bound can be, where the exact path's roundings alone
    /// decide.
    fn factor() -> impl Strategy<Value = (f64, f64, f64)> {
        prop_oneof![
            (0u64..1 << 48, 0usize..CVS.len(), 0u8..2).prop_map(|(seed, cv, half)| {
                let mut rng = DeterministicRng::seed_from(seed);
                if half == 1 {
                    let _ = rng.normal(0.0, 1.0);
                }
                let jitter = rng.jitter_deferred(CVS[cv]);
                let (lo, hi) = jitter.bounds();
                (lo, jitter.value(), hi)
            }),
            (0.0f64..3.0).prop_map(|v| (v, v, v)),
        ]
    }

    /// A bubble's two factors as `run_bubble` draws them, two deferred
    /// draws in a row at one cv: from a fresh generator, the cosine and
    /// sine halves of one pair. A quarter of the cases draw one normal
    /// first, so the factors are the sine half of one pair and the cosine
    /// half of the next. Another quarter skip to the first pair whose
    /// radius is under 0.1, where the radius bound is within a few parts
    /// in 10⁶ and the pair test's nanosecond margin decides.
    fn bubble_factors() -> impl Strategy<Value = (Jitter, Jitter)> {
        (0u64..1 << 48, 0usize..CVS.len(), 0u8..4).prop_map(|(seed, cv, kind)| {
            let cv = CVS[cv];
            let mut rng = DeterministicRng::seed_from(seed);
            if kind == 0 {
                let _ = rng.normal(0.0, 1.0);
            }
            loop {
                let pair = (rng.jitter_deferred(cv), rng.jitter_deferred(cv));
                let (x, y) = (pair.0.value() - 1.0, pair.1.value() - 1.0);
                if kind != 1 || cv == 0.0 || x * x + y * y < (0.1 * cv) * (0.1 * cv) {
                    return pair;
                }
            }
        })
    }

    /// The stall with every factor evaluated.
    fn eager_stall(
        window: SimDuration,
        switch: SimDuration,
        time_used: SimDuration,
        j_window: f64,
        j_used: f64,
    ) -> SimDuration {
        let actual_window = window.mul_f64(j_window);
        let used = switch + time_used.mul_f64(j_used);
        used.saturating_sub(actual_window.mul_f64(USABLE_FRACTION))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(1 << 16))]

        /// A partition of 0–1.2× the usable span after a 0–10 ms switch,
        /// or (`exact` 0 or 1) one whose switch makes the eager stall
        /// exactly 0 or 1 ns.
        #[test]
        fn stall_decision_matches_the_eager_formula(
            j_window in factor(),
            j_used in factor(),
            window_ns in 1_000u64..100_000_000,
            switch_ns in 0u64..10_000_001,
            fill in 0.0f64..1.2,
            exact in 0u8..4,
        ) {
            let ((window_lo, jw, _), (_, ju, used_hi)) = (j_window, j_used);
            let window = SimDuration::from_nanos(window_ns);
            let time_used = SimDuration::from_nanos((fill * USABLE_FRACTION * window_ns as f64) as u64);
            let mut switch = SimDuration::from_nanos(switch_ns);
            if exact < 2 {
                let usable = window.mul_f64(jw).mul_f64(USABLE_FRACTION).as_nanos();
                let used = time_used.mul_f64(ju).as_nanos();
                prop_assume!(usable + u64::from(exact) >= used);
                switch = SimDuration::from_nanos(usable + u64::from(exact) - used);
                prop_assert_eq!(
                    eager_stall(window, switch, time_used, jw, ju),
                    SimDuration::from_nanos(u64::from(exact))
                );
            }
            prop_assert_eq!(
                bounded_stall(window, switch, time_used, (window_lo, used_hi), || (jw, ju)),
                eager_stall(window, switch, time_used, jw, ju),
                "window {:?}·{} (lo {}), switch {:?}, used {:?}·{} (hi {})",
                window, jw, window_lo, switch, time_used, ju, used_hi
            );
        }

        /// A bubble's factors drawn as `run_bubble` draws them, at every
        /// cv, with a partition of 0–1.2× the usable span after a
        /// 0–10 ms switch. `aligned` (half the cases) instead sizes the
        /// partition so that `(time_used, usable)` points along the
        /// factors' deviation `(j_used − 1, 1 − j_window)` where it can:
        /// the angle at which Cauchy–Schwarz is tight, so only the pair
        /// test's margin stands between it and a stall. `exact` 0 or 1
        /// sets the switch so the eager stall is exactly 0 or 1 ns.
        #[test]
        fn paired_stall_decision_matches_the_eager_formula(
            factors in bubble_factors(),
            window_ns in 1_000u64..100_000_000,
            switch_ns in 0u64..10_000_001,
            fill in 0.0f64..1.2,
            aligned in 0u8..2,
            exact in 0u8..4,
        ) {
            let (jw, ju) = (factors.0.value(), factors.1.value());
            let window = SimDuration::from_nanos(window_ns);
            let fill = if aligned == 1 && jw < 1.0 && ju >= 1.0 {
                ((ju - 1.0) / (1.0 - jw)).min(1e3)
            } else {
                fill
            };
            let time_used = SimDuration::from_nanos((fill * USABLE_FRACTION * window_ns as f64) as u64);
            let mut switch = SimDuration::from_nanos(switch_ns);
            let usable = window.mul_f64(jw).mul_f64(USABLE_FRACTION).as_nanos();
            let used = time_used.mul_f64(ju).as_nanos();
            if exact < 2 && usable + u64::from(exact) >= used {
                switch = SimDuration::from_nanos(usable + u64::from(exact) - used);
                prop_assert_eq!(
                    eager_stall(window, switch, time_used, jw, ju),
                    SimDuration::from_nanos(u64::from(exact))
                );
            }
            prop_assert_eq!(
                bubble_stall(window, switch, time_used, factors),
                eager_stall(window, switch, time_used, jw, ju),
                "window {:?}·{}, switch {:?}, used {:?}·{}",
                window, jw, switch, time_used, ju
            );
        }
    }
}

/// `shape_classes` against the linear scan it replaced, kept here
/// verbatim: every job's class and every class's first job match, on
/// generated fleets and on hand-made jobs that differ only where the
/// fingerprint does not look, so that only the exact check tells them
/// apart. And the full comparisons grow with the jobs, not with jobs ×
/// shapes. Renamed layers unshare their job's model graph, so the value
/// comparison behind the pointer test stays covered.
#[cfg(test)]
mod shape_class_oracle {
    use std::sync::Arc;

    use super::{shape_classes, sweep, GRAPH_VALUE_CHECKS, SHAPE_CHECKS};
    use crate::fleet::{FleetJobConfig, FleetSimConfig};
    use pipefill_device::{Bytes, DeviceSpec};
    use pipefill_pipeline::{MainJobSpec, ScheduleKind};
    use pipefill_trace::FleetWorkloadConfig;
    use proptest::prelude::*;

    /// The class loop `FillBackend::build` ran before classes were
    /// interned: each job against every class representative so far.
    fn linear_scan(jobs: &[FleetJobConfig]) -> (Vec<usize>, Vec<usize>) {
        let mut class_of: Vec<usize> = Vec::with_capacity(jobs.len());
        let mut class_reps: Vec<usize> = Vec::new();
        for (j, job) in jobs.iter().enumerate() {
            let class = class_reps
                .iter()
                .position(|&r| {
                    let rep = &jobs[r];
                    rep.main_job == job.main_job
                        && rep.executor == job.executor
                        && rep.stage_devices == job.stage_devices
                })
                .unwrap_or_else(|| {
                    class_reps.push(j);
                    class_reps.len() - 1
                });
            class_of.push(class);
        }
        (class_of, class_reps)
    }

    /// Runs `shape_classes` on `jobs`: its class count and the full
    /// comparisons it made.
    fn counted(jobs: &[FleetJobConfig]) -> (usize, usize) {
        let before = SHAPE_CHECKS.with(|n| n.get());
        let (_, reps) = shape_classes(jobs);
        (reps.len(), SHAPE_CHECKS.with(|n| n.get()) - before)
    }

    const SCHEDULES: [ScheduleKind; 4] = [
        ScheduleKind::GPipe,
        ScheduleKind::OneFOneB,
        ScheduleKind::Interleaved { chunks: 2 },
        ScheduleKind::ZbH1,
    ];

    /// Hand-made variants of one job. Each group of the same fingerprint
    /// holds jobs the exact check must split or merge: a renamed layer, a
    /// renamed device, one renamed stage device; both zeros of the fill
    /// fraction (equal) and a NaN one (equal to nothing, itself
    /// included). Fields outside the shape (iterations, seed, admission)
    /// must not split a class.
    fn variant(v: usize) -> FleetJobConfig {
        let mut job = FleetJobConfig::new(MainJobSpec::physical_5b(8, ScheduleKind::GPipe));
        let stages = job.main_job.parallelism.pipeline_stages;
        match v {
            0 => {}
            1 => Arc::make_mut(&mut job.main_job.model).layers[3]
                .name
                .push('\''),
            2 => job.main_job.device.name.push('\''),
            3 => job.stage_devices = vec![DeviceSpec::v100(); stages],
            4 => {
                job.stage_devices = vec![DeviceSpec::v100(); stages];
                job.stage_devices[stages / 2].name.push('\'');
            }
            5 => job.executor.fill_fraction = 0.0,
            6 => job.executor.fill_fraction = -0.0,
            7 => job.executor.fill_fraction = f64::NAN,
            8 => job.main_job.bubble_free_memory = Bytes::from_mib(4096),
            9 => job.main_job.schedule = ScheduleKind::Interleaved { chunks: 2 },
            _ => {
                job.iterations = 17;
                job.seed = 99;
                job.admits_foreign = false;
            }
        }
        job
    }

    const VARIANTS: usize = 11;

    /// A generated fleet whose every `rename_every`-th job has a renamed
    /// model layer, so renamed and plain jobs of one shape collide.
    fn generated(
        jobs: usize,
        gpus_per_job: usize,
        seed: u64,
        schedule: usize,
        rename_every: usize,
    ) -> Vec<FleetJobConfig> {
        let workload = FleetWorkloadConfig::new(jobs, jobs * gpus_per_job, seed);
        let mut fleet =
            FleetSimConfig::from_workload_scheduled(&workload, SCHEDULES[schedule]).jobs;
        for job in fleet.iter_mut().step_by(rename_every) {
            Arc::make_mut(&mut job.main_job.model).layers[0]
                .name
                .push('\'');
        }
        fleet
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn generated_fleets_match_the_linear_scan(
            jobs in 1usize..64,
            gpus_per_job in 8usize..1024,
            seed in 0u64..1 << 32,
            schedule in 0usize..SCHEDULES.len(),
            rename_every in 2usize..9,
        ) {
            let fleet = generated(jobs, gpus_per_job, seed, schedule, rename_every);
            for _width in sweep::widths::one_and_two_workers() {
                prop_assert_eq!(shape_classes(&fleet), linear_scan(&fleet));
            }
        }

        #[test]
        fn hand_made_collisions_match_the_linear_scan(
            picks in prop::collection::vec(0usize..VARIANTS, 1..40),
        ) {
            let jobs: Vec<FleetJobConfig> = picks.into_iter().map(variant).collect();
            for _width in sweep::widths::one_and_two_workers() {
                prop_assert_eq!(shape_classes(&jobs), linear_scan(&jobs));
            }
        }
    }

    /// The collisions the exact check must resolve, one by one. Every
    /// variant builds its own graph, so the graphs are compared by value.
    #[test]
    fn exact_check_splits_and_merges_within_a_bucket() {
        let jobs: Vec<FleetJobConfig> = (0..VARIANTS).chain(0..VARIANTS).map(variant).collect();
        for _width in sweep::widths::one_and_two_workers() {
            let before = GRAPH_VALUE_CHECKS.with(|n| n.get());
            let (class_of, reps) = shape_classes(&jobs);
            assert!(GRAPH_VALUE_CHECKS.with(|n| n.get()) > before);
            assert_eq!((class_of.clone(), reps.clone()), linear_scan(&jobs));
            // Variants 1–4 each open a class of their own; -0.0 joins 0.0,
            // each NaN job opens one, and the last variant joins the plain
            // job.
            assert_eq!(&class_of[..VARIANTS], [0, 1, 2, 3, 4, 5, 5, 6, 7, 8, 0]);
            assert_eq!(class_of[VARIANTS + 7], reps.len() - 1);
            assert_eq!(reps.len(), 10);
        }
    }

    /// One full comparison per job on a `fault_fleet`-sized fleet, and a
    /// fleet with 4× its jobs and 4× its shapes makes at most 4× the
    /// comparisons, where the linear scan's grew with jobs × shapes.
    #[test]
    fn full_checks_grow_with_jobs_not_shapes() {
        let fleet = FleetSimConfig::from_workload(&FleetWorkloadConfig::new(2048, 262_144, 7)).jobs;
        // Four copies of the fleet, each at its own bubble free memory.
        let larger: Vec<FleetJobConfig> = (0..4)
            .flat_map(|k| {
                fleet.iter().cloned().map(move |mut job| {
                    job.main_job.bubble_free_memory = Bytes::from_mib(4096 + 256 * k);
                    job
                })
            })
            .collect();
        for _width in sweep::widths::one_and_two_workers() {
            let (classes, checks) = counted(&fleet);
            assert!(classes > 64, "{classes} shapes");
            assert!(
                checks <= fleet.len(),
                "{checks} full checks for {} jobs",
                fleet.len()
            );
            let (larger_classes, larger_checks) = counted(&larger);
            assert_eq!(larger_classes, 4 * classes);
            assert!(
                larger_checks <= 4 * checks,
                "{larger_checks} full checks at 4x, {checks} at 1x"
            );
        }
    }
}

/// `FillBackend::build` runs one engine timeline per distinct main job,
/// not one per shape class, and on a fleet lowered from a generated
/// workload, whose jobs share one model graph, it compares no graph by
/// value.
#[cfg(test)]
mod timeline_count {
    use super::{shape_classes, sweep, GRAPH_VALUE_CHECKS, TIMELINE_RUNS};
    use crate::fleet::{FleetBackend, FleetSimConfig};
    use pipefill_pipeline::MainJobSpec;
    use pipefill_trace::FleetWorkloadConfig;

    /// perfbench's `fault_fleet` composition: 2,048 jobs on 262,144 GPUs
    /// in 108 shape classes over 36 distinct main jobs.
    #[test]
    fn one_timeline_per_distinct_main_job() {
        let cfg = FleetSimConfig::from_workload(&FleetWorkloadConfig::new(2048, 262_144, 7));
        let mut mains: Vec<&MainJobSpec> = Vec::new();
        for job in &cfg.jobs {
            if !mains.contains(&&job.main_job) {
                mains.push(&job.main_job);
            }
        }
        let distinct = mains.len();
        let classes = shape_classes(&cfg.jobs).1.len();
        assert_eq!((distinct, classes), (36, 108));

        for _width in sweep::widths::one_and_two_workers() {
            let runs = TIMELINE_RUNS.with(|n| n.get());
            let value_checks = GRAPH_VALUE_CHECKS.with(|n| n.get());
            let backend = FleetBackend::new(cfg.clone());
            assert_eq!(backend.shapes.len(), classes);
            assert_eq!(TIMELINE_RUNS.with(|n| n.get()) - runs, distinct);
            assert_eq!(GRAPH_VALUE_CHECKS.with(|n| n.get()), value_checks);
        }
    }
}
