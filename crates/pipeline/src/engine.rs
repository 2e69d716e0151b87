//! The instrumented pipeline engine: executes per-stage instruction
//! streams through a deterministic dependency simulation and extracts each
//! stage's periodic bubble timeline — the artifact PipeFill's Executor and
//! Scheduler consume.
//!
//! Instead of hand-coding the paper's closed-form bubble formulas, the
//! engine *derives* bubbles from actual instruction timing (forwards wait
//! for upstream activations, backwards for downstream gradients), and the
//! unit tests then verify the paper's formulas fall out. This keeps 1F1B's
//! non-contiguous bubbles — the ones PipeFill deliberately does not fill
//! (§4.5) — emergent rather than asserted.

use pipefill_device::Bytes;
use pipefill_sim_core::{SimDuration, SimTime};

use crate::bubbles::{BubbleKind, BubbleWindow};
use crate::deps::{self, DepSlots};
use crate::instructions::PipelineInstruction;
use crate::memory::MEASURED_BUBBLE_FREE_MEMORY;
use crate::schedule::ScheduleKind;

/// Number of iterations simulated; the timeline is extracted from a
/// steady-state iteration in the middle.
const SIM_ITERATIONS: usize = 4;
/// Which iteration the timeline is extracted from.
const STEADY_ITER: usize = 2;
/// The iteration before the steady one: the periodicity check reads
/// stage 0's start in it.
const PREVIOUS_ITER: usize = STEADY_ITER - 1;
/// The iteration after the steady one: each stage's start in it closes
/// that stage's window.
const NEXT_ITER: usize = STEADY_ITER + 1;

/// Why an instruction-stream execution could not complete, or had no
/// steady state to read a timeline from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// In-order execution wedged: every device is either done or blocked
    /// on a dependency key no completed instruction has published.
    Deadlock {
        /// The lowest-numbered blocked device.
        stage: usize,
        /// Position of the blocked instruction in that device's stream.
        position: usize,
        /// The blocked instruction itself.
        instruction: PipelineInstruction,
        /// Per device, how many positions of iteration 0 ran: the stream
        /// length on a device that finished it. Iteration 0 waits only on
        /// its own keys, so for streams with one producer per key these
        /// are exactly the instructions that can ever run, and what lies
        /// past them is what the wedge blocks.
        ran: Vec<usize>,
    },
    /// A simulated iteration ran no non-zero-duration instruction on a
    /// stage, so it has no start to measure a period from.
    IdleIteration {
        /// The idle stage.
        stage: usize,
        /// The iteration found idle.
        iteration: usize,
    },
    /// Stage 0's iteration starts were not evenly spaced by the steady
    /// iteration.
    NonPeriodic {
        /// Distance from the previous iteration start to the steady one.
        previous: SimDuration,
        /// Distance from the steady iteration start to the next one.
        period: SimDuration,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Deadlock {
                stage,
                position,
                instruction,
                ..
            } => write!(
                f,
                "pipeline schedule deadlocked on stage {stage}: \
                 position {position} ({instruction:?}) waits on a \
                 dependency no instruction publishes"
            ),
            EngineError::IdleIteration { stage, iteration } => write!(
                f,
                "stage {stage}: iteration {iteration} has no busy instruction"
            ),
            EngineError::NonPeriodic { previous, period } => write!(
                f,
                "not periodic by iteration {STEADY_ITER}: consecutive \
                 iteration starts are {previous} then {period} apart"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

/// When one executed instruction ran: `(start, end)`.
type ExecRecord = (SimTime, SimTime);

/// Receives every instruction a simulation executes, in the order it
/// executes them.
trait Record {
    /// Device `stage` ran `step` of `iteration` from `start` to `end`.
    fn record(&mut self, iteration: usize, stage: usize, step: &Step, start: SimTime, end: SimTime);
}

/// Records nothing: [`EngineConfig::execute_streams`] wants only the
/// verdict.
impl Record for () {
    fn record(&mut self, _: usize, _: usize, _: &Step, _: SimTime, _: SimTime) {}
}

/// One stream position of a scheduled iteration as it ran: its device
/// and what [`Scheduled::replay`] reads of its [`Step`].
struct Ran {
    duration: SimDuration,
    waits: Slot,
    publishes: Slot,
    device: u32,
    crosses_device: bool,
}

const _: () = assert!(std::mem::size_of::<Ran>() == 24);

/// The positions of one scheduled iteration in the order they ran: the
/// order [`Scheduled::replay`] repeats.
impl Record for Vec<Ran> {
    fn record(&mut self, _: usize, stage: usize, step: &Step, _: SimTime, _: SimTime) {
        self.push(Ran {
            duration: step.duration,
            waits: step.waits,
            publishes: step.publishes,
            // `stage` fits (the scheduler asserts `p` does).
            device: stage as u32,
            crosses_device: step.crosses_device,
        });
    }
}

/// What [`EngineConfig::extract_timeline`] reads of a run, and nothing
/// else: every record of the steady iteration, stage 0's first busy
/// start in the iteration before it, and each stage's first busy start
/// in the iteration after it. A busy instruction is one that ran for a
/// non-zero time (`end > start`).
struct SteadyRecords {
    /// Per device, the steady iteration's records in stream order.
    steady: Vec<Vec<ExecRecord>>,
    /// Stage 0's first busy start in [`PREVIOUS_ITER`].
    previous: Option<SimTime>,
    /// Per device, its first busy start in [`NEXT_ITER`].
    next: Vec<Option<SimTime>>,
    /// Devices whose `next` start has not been seen yet.
    unstarted: usize,
}

impl SteadyRecords {
    fn new(streams: &[Vec<PipelineInstruction>]) -> Self {
        SteadyRecords {
            steady: streams
                .iter()
                .map(|s| Vec::with_capacity(s.len()))
                .collect(),
            previous: None,
            next: vec![None; streams.len()],
            unstarted: streams.len(),
        }
    }
}

impl SteadyRecords {
    /// Device `stage` ran an instruction of `iteration` from `start` to
    /// `end`.
    fn push(&mut self, iteration: usize, stage: usize, start: SimTime, end: SimTime) {
        match iteration {
            STEADY_ITER => self.steady[stage].push((start, end)),
            PREVIOUS_ITER if stage == 0 && end > start && self.previous.is_none() => {
                self.previous = Some(start);
            }
            NEXT_ITER if end > start && self.next[stage].is_none() => {
                self.next[stage] = Some(start);
                self.unstarted -= 1;
            }
            _ => {}
        }
    }
}

impl Record for SteadyRecords {
    fn record(&mut self, iteration: usize, stage: usize, _: &Step, start: SimTime, end: SimTime) {
        self.push(iteration, stage, start, end);
    }
}

/// A completed list schedule of the streams, kept so that further
/// iterations can be replayed in its order.
struct Scheduled {
    /// Per device, when it finished its last instruction.
    free_at: Vec<SimTime>,
    /// Dense dependency slots per iteration.
    slots_per_iteration: usize,
    /// Whether every key a step waits on or publishes lives in a dense
    /// slot and no dense key was published twice in one iteration: the
    /// condition under which [`Scheduled::replay`] is exact.
    one_producer_per_key: bool,
}

impl Scheduled {
    /// Runs iterations `1..SIM_ITERATIONS` in `order`, the positions of
    /// the one iteration scheduled as they ran, into `records`, and stops
    /// once [`NEXT_ITER`] has shown every device's first busy start.
    ///
    /// With one producer per dense key, each start is a longest path over
    /// the iteration's dependencies plus the device's program order, so
    /// any topological order yields the same times, and the scheduled
    /// order is one. Iteration `k` reads only iteration `k`'s keys, and
    /// in that order each key is published before it is read, so one
    /// end-time table serves every iteration.
    fn replay(mut self, comm: SimDuration, order: &[Ran], records: &mut SteadyRecords) {
        debug_assert!(self.one_producer_per_key);
        let mut published = vec![SimTime::ZERO; self.slots_per_iteration];
        for iteration in 1..SIM_ITERATIONS {
            for ran in order {
                let s = ran.device as usize;
                let arrived = match ran.waits {
                    Slot::UNKEYED => SimTime::ZERO,
                    Slot(offset) => published[offset as usize],
                };
                let link = if ran.crosses_device {
                    comm
                } else {
                    SimDuration::ZERO
                };
                let start = self.free_at[s].max(arrived + link);
                let end = start + ran.duration;
                if ran.publishes != Slot::UNKEYED {
                    published[ran.publishes.0 as usize] = end;
                }
                self.free_at[s] = end;
                records.push(iteration, s, start, end);
                if iteration == NEXT_ITER && records.unstarted == 0 {
                    return;
                }
            }
        }
    }
}

/// One stream position as the list scheduler runs it: its keys resolved
/// to places in the end-time table, its consumer device, link and
/// duration ([`Resolver`]).
#[derive(Debug, PartialEq)]
struct Step {
    duration: SimDuration,
    /// Where the key it waits on lives.
    waits: Slot,
    /// Where the key it publishes lives.
    publishes: Slot,
    /// The one device the published key can unblock
    /// ([`deps::consumer_device`]); unused when nothing is published.
    consumer: u32,
    /// Whether the awaited key arrives over an inter-device link, and so
    /// pays `comm`.
    crosses_device: bool,
}

/// Where a step's key lives in the list scheduler's [`DepSlots`]: its
/// dense offset within every iteration ([`DepSlots::offset`]), or one of
/// two markers. Four bytes keep a [`Ran`] at 24.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Slot(u32);

impl Slot {
    /// The step has no such key.
    const UNKEYED: Slot = Slot(u32::MAX);
    /// The key lies outside the dense range (only malformed streams name
    /// such keys): it is re-derived from the instruction and looked up in
    /// the overflow map.
    const OVERFLOW: Slot = Slot(u32::MAX - 1);

    fn of(key: Option<deps::DepKey>, done: &DepSlots<SimTime>) -> Slot {
        match key {
            None => Slot::UNKEYED,
            Some(key) => done
                .offset(key)
                .and_then(|offset| u32::try_from(offset).ok())
                .filter(|&offset| offset < Slot::OVERFLOW.0)
                .map_or(Slot::OVERFLOW, Slot),
        }
    }
}

/// Turns stream positions into [`Step`]s for one run, each time one
/// runs. Forwards and backwards (chunked or not) whose keys lie in the
/// dense range resolve with one `match` against per-stage values computed
/// once: no [`deps::DepKey`], no division, no modulo. Everything else —
/// the `W` half, the markers, a chunk or microbatch past the dense range,
/// a run with no dense table — goes through [`Resolver::generic`], the
/// [`crate::deps`] keying itself, so a malformed stream resolves exactly
/// as the keying says. Both paths build the same [`Step`] for every
/// instruction (`tests/support/resolver_oracle.rs`).
struct Resolver<'a> {
    cfg: &'a EngineConfig,
    p: usize,
    chunks: usize,
    microbatches: usize,
    /// `chunks·p` when the dense table exists, every dense offset fits a
    /// [`Slot`] and every chunk slice is computed without overflow; 0
    /// sends every position to the generic path.
    virtual_stages: usize,
    /// Per stage, what its forwards and backwards resolve to.
    stages: Vec<StageSteps>,
    /// Per stage and chunk, at `stage·chunks + chunk`: the forward and
    /// backward chunk slices ([`EngineConfig::instruction_duration`]).
    slices: Vec<(SimDuration, SimDuration)>,
}

/// One stage's share of a [`Resolver`].
struct StageSteps {
    /// The device its activations unblock: the next one, wrapping.
    next: u32,
    /// The device its gradients unblock: the previous one, wrapping.
    previous: u32,
    fwd: SimDuration,
    bwd: SimDuration,
    /// The `B` half of a split backward.
    bwd_input: SimDuration,
}

impl<'a> Resolver<'a> {
    /// A resolver for `cfg`'s stages against `done`, the run's end-time
    /// table, which every call then passes. `cfg` has at most 2^32
    /// stages.
    fn new(cfg: &'a EngineConfig, done: &DepSlots<SimTime>) -> Self {
        let p = cfg.num_stages();
        let chunks = cfg.schedule.chunk_count();
        let slots = done.slots_per_iteration();
        // A slice multiplies a stage total by at most `chunks`.
        let slices_fit = cfg
            .stage_fwd
            .iter()
            .chain(&cfg.stage_bwd)
            .all(|total| total.as_nanos().checked_mul(chunks as u64).is_some());
        let dense = slots > 0 && slots <= Slot::OVERFLOW.0 as usize && slices_fit;
        let chunk_slice = |total: SimDuration, c: usize| {
            let chunks = chunks as u64;
            total * (c as u64 + 1) / chunks - total * c as u64 / chunks
        };
        Resolver {
            cfg,
            p,
            chunks,
            microbatches: cfg.microbatches,
            virtual_stages: if dense { chunks * p } else { 0 },
            stages: (0..p)
                .map(|s| StageSteps {
                    // Below `p`, which fits a `u32`.
                    next: if s + 1 == p { 0 } else { s as u32 + 1 },
                    previous: if s == 0 { p as u32 - 1 } else { s as u32 - 1 },
                    fwd: cfg.stage_fwd[s],
                    bwd: cfg.stage_bwd[s],
                    bwd_input: cfg.stage_bwd[s] / 2,
                })
                .collect(),
            slices: if dense {
                (0..p)
                    .flat_map(|s| {
                        (0..chunks).map(move |c| {
                            (
                                chunk_slice(cfg.stage_fwd[s], c),
                                chunk_slice(cfg.stage_bwd[s], c),
                            )
                        })
                    })
                    .collect()
            } else {
                Vec::new()
            },
        }
    }

    /// Instruction `instr` on device `s`.
    fn step(&self, instr: PipelineInstruction, s: usize, done: &DepSlots<SimTime>) -> Step {
        use PipelineInstruction as I;
        if self.virtual_stages == 0 {
            return self.generic(instr, s, done);
        }
        let stage = &self.stages[s];
        // Unchunked compute is virtual stage `s` of a `p`-stage chain,
        // chunk `c` virtual stage `c·p + s` of the `chunks·p`-stage one.
        let (backward, vs, last, microbatch, duration) = match instr {
            I::Forward { microbatch } => (false, s, self.p - 1, microbatch, stage.fwd),
            I::Backward { microbatch } => (true, s, self.p - 1, microbatch, stage.bwd),
            I::BackwardInput { microbatch } => (true, s, self.p - 1, microbatch, stage.bwd_input),
            I::ForwardChunk { chunk, microbatch } if chunk < self.chunks => (
                false,
                chunk * self.p + s,
                self.virtual_stages - 1,
                microbatch,
                self.slices[s * self.chunks + chunk].0,
            ),
            I::BackwardChunk { chunk, microbatch } if chunk < self.chunks => (
                true,
                chunk * self.p + s,
                self.virtual_stages - 1,
                microbatch,
                self.slices[s * self.chunks + chunk].1,
            ),
            _ => return self.generic(instr, s, done),
        };
        if microbatch >= self.microbatches {
            return self.generic(instr, s, done);
        }
        // [`DepSlots::offset`]: below `slots_per_iteration`, which fits.
        let slot = |backward: bool, vs: usize| {
            let direction = usize::from(backward);
            Slot(((direction * self.virtual_stages + vs) * self.microbatches + microbatch) as u32)
        };
        // A forward waits on the virtual stage before it, a backward on
        // the one after it; the chain's ends wait on nothing.
        let (waits, consumer) = match backward {
            false => ((vs > 0).then(|| slot(false, vs - 1)), stage.next),
            true => ((vs < last).then(|| slot(true, vs + 1)), stage.previous),
        };
        Step {
            duration,
            waits: waits.unwrap_or(Slot::UNKEYED),
            publishes: slot(backward, vs),
            consumer,
            // Neighbouring virtual stages share a device only when p = 1.
            crosses_device: waits.is_some() && self.p != 1,
        }
    }

    /// Instruction `instr` on device `s`, resolved through the
    /// [`crate::deps`] keying: [`Resolver::step`]'s reference, and its
    /// path for everything outside the dense range.
    fn generic(&self, instr: PipelineInstruction, s: usize, done: &DepSlots<SimTime>) -> Step {
        let (p, chunks) = (self.p, self.chunks);
        let dep = deps::consumed(instr, s, p, chunks);
        let publishes = deps::produced(instr, s, p);
        Step {
            duration: self.cfg.instruction_duration(instr, s),
            waits: Slot::of(dep.map(|edge| edge.key), done),
            publishes: Slot::of(publishes, done),
            // Below `p`, which fits a `u32`.
            consumer: publishes.map_or(0, |key| deps::consumer_device(key, p) as u32),
            crosses_device: dep.is_some_and(|edge| edge.crosses_device),
        }
    }
}

#[cfg(test)]
thread_local! {
    /// Times [`EngineConfig::timeline_of`] list-scheduled all four
    /// iterations instead of replaying one, on this thread.
    static FULL_HORIZON_SCHEDULES: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// Everything the engine needs to run one main job.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineConfig {
    /// Pipeline schedule.
    pub schedule: ScheduleKind,
    /// Microbatches per iteration (`m`).
    pub microbatches: usize,
    /// Per-stage forward time for one microbatch.
    pub stage_fwd: Vec<SimDuration>,
    /// Per-stage backward time for one microbatch.
    pub stage_bwd: Vec<SimDuration>,
    /// Per-stage optimizer-step time.
    pub stage_opt: Vec<SimDuration>,
    /// Activation/gradient hand-off latency between adjacent stages.
    pub comm: SimDuration,
    /// Free HBM every bubble window reports.
    pub bubble_free_memory: Bytes,
}

impl EngineConfig {
    /// Uniform-stage convenience constructor (used heavily in tests).
    pub fn uniform(
        schedule: ScheduleKind,
        stages: usize,
        microbatches: usize,
        fwd: SimDuration,
        bwd: SimDuration,
    ) -> Self {
        EngineConfig {
            schedule,
            microbatches,
            stage_fwd: vec![fwd; stages],
            stage_bwd: vec![bwd; stages],
            stage_opt: vec![SimDuration::ZERO; stages],
            comm: SimDuration::ZERO,
            bubble_free_memory: MEASURED_BUBBLE_FREE_MEMORY,
        }
    }

    /// Number of pipeline stages.
    pub fn num_stages(&self) -> usize {
        self.stage_fwd.len()
    }

    fn validate(&self) {
        let p = self.num_stages();
        assert!(p > 0, "need at least one stage");
        assert_eq!(self.stage_bwd.len(), p, "stage_bwd length mismatch");
        assert_eq!(self.stage_opt.len(), p, "stage_opt length mismatch");
        assert!(self.microbatches > 0, "need at least one microbatch");
        assert!(
            self.schedule.chunk_count() > 0,
            "interleaved schedule needs at least 1 chunk per device"
        );
    }

    /// Runs the dependency simulation and extracts the steady-state
    /// timeline.
    ///
    /// # Panics
    ///
    /// Panics on configuration inconsistencies or if the schedule
    /// deadlocks (which would indicate a generator bug).
    pub fn run(&self) -> EngineTimeline {
        self.validate();
        // One generator pass covers every stage (the interleaved schedule
        // derives all streams from a single constructive simulation);
        // every simulated iteration replays the same emission.
        let streams = self
            .schedule
            .all_stage_instructions(self.num_stages(), self.microbatches);
        self.timeline_of(&streams)
            .unwrap_or_else(|e| panic!("{e} (generator bug)"))
    }

    /// The steady-state timeline of arbitrary per-device instruction
    /// streams (one iteration each), by the simulation and extraction
    /// [`EngineConfig::run`] applies to the generated ones. The static
    /// verifier's deadlock decision and bubble bound are one call of this
    /// function on stream text.
    ///
    /// The streams run back to back for four iterations and the timeline
    /// is read off iteration 2. Only iteration 0 is list-scheduled; when
    /// every key it published lives in a dense slot and has one producer
    /// (every well-formed stream set), iterations 1–3 replay its
    /// execution order, which yields the same times (see
    /// `Scheduled::replay`), and iteration 3 stops once every stage has
    /// started. A duplicated producer, a key outside the dense range or a
    /// deadlock instead list-schedules all four iterations, so the result
    /// and every error payload are those of that schedule.
    ///
    /// # Errors
    ///
    /// Any [`EngineError`]: a deadlock, an idle iteration or a
    /// non-periodic stage 0.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len()` differs from the configured stage count.
    pub fn timeline_of(
        &self,
        streams: &[Vec<PipelineInstruction>],
    ) -> Result<EngineTimeline, EngineError> {
        let mut records = SteadyRecords::new(streams);
        let mut order = Vec::with_capacity(streams.iter().map(Vec::len).sum());
        match self.simulate(streams, 1, &mut order) {
            Ok(first) if first.one_producer_per_key => {
                first.replay(self.comm, &order, &mut records)
            }
            _ => {
                #[cfg(test)]
                FULL_HORIZON_SCHEDULES.with(|n| n.set(n.get() + 1));
                self.simulate(streams, SIM_ITERATIONS, &mut records)?;
            }
        }
        self.extract_timeline(streams, &records)
    }

    /// Executes arbitrary per-device instruction streams (one iteration
    /// each) through the same in-order dependency simulation `run` uses,
    /// reporting whether they complete. This is the engine-safety oracle
    /// the `schedverify` differential harness pins its static verdicts
    /// against: a stream set is "engine-safe" iff this returns `Ok`.
    ///
    /// Dependency keying and instruction durations are identical to
    /// [`EngineConfig::run`] (chunk count taken from `self.schedule`);
    /// unlike `run`, a wedged schedule is a value, not a panic. It is the
    /// one list-scheduled iteration [`EngineConfig::timeline_of`] starts
    /// from, with nothing recorded.
    ///
    /// # Errors
    ///
    /// [`EngineError::Deadlock`] when in-order execution cannot complete.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len()` differs from the configured stage count.
    pub fn execute_streams(&self, streams: &[Vec<PipelineInstruction>]) -> Result<(), EngineError> {
        self.simulate(streams, 1, &mut ()).map(|_| ())
    }

    /// Dependency-driven list scheduling of `iterations` back-to-back
    /// runs of one iteration's per-device streams, each executed
    /// instruction handed to `records` as it runs.
    ///
    /// Each device runs its stream in order, every instruction starting
    /// at `max(device free, dependency end [+ comm])`. A device that
    /// reaches an unpublished dependency blocks; publishing a key wakes
    /// the one device that can consume it ([`deps::consumer_device`]), so
    /// the pass is linear in the instruction count. For streams with one
    /// producer per key, start times are longest paths and the set of
    /// instructions that can ever run is unique, so the result does not
    /// depend on which ready device runs first. End times live in
    /// [`deps::DepSlots`], keyed by `(iteration, DepKey)`; the keying
    /// itself — virtual stages, cross-device hand-offs — lives in
    /// [`crate::deps`], shared with the static verifier. A stream
    /// position is resolved into a [`Step`] as it runs ([`Resolver`]),
    /// holding its keys' in-iteration slot offsets, so the scheduler
    /// indexes `iteration · slots_per_iteration + offset` directly. The
    /// steps are not kept: a recorder that needs them, the replay's,
    /// keeps what it reads.
    ///
    /// [`EngineConfig::timeline_of`] calls it with one iteration and
    /// replays the rest from the returned [`Scheduled`], and with all
    /// four only when that replay would not be exact.
    fn simulate(
        &self,
        streams: &[Vec<PipelineInstruction>],
        iterations: usize,
        records: &mut impl Record,
    ) -> Result<Scheduled, EngineError> {
        let p = self.num_stages();
        assert_eq!(
            streams.len(),
            p,
            "stream count must match the configured stage count"
        );
        assert!(u32::try_from(p).is_ok(), "more than 2^32 stages");
        let chunks = self.schedule.chunk_count();
        let instructions = streams.iter().map(Vec::len).sum::<usize>() * iterations;
        let mut done = DepSlots::new(
            p,
            chunks,
            self.microbatches,
            iterations,
            instructions,
            SimTime::MAX,
        );
        let resolver = Resolver::new(self, &done);
        // Any key outside the dense range, or any dense key published
        // twice in one iteration, makes the order of execution matter.
        let mut one_producer_per_key = true;
        // Per device: the iteration and stream position it is at, and the
        // time it is free from.
        let mut at = vec![(0usize, 0usize); p];
        let mut free_at = vec![SimTime::ZERO; p];
        let mut blocked = vec![false; p];
        let mut ready: Vec<usize> = (0..p).rev().collect();
        let mut settled = usize::MAX;

        loop {
            while let Some(s) = ready.pop() {
                let stream = &streams[s];
                let mut free = free_at[s];
                let (mut iter, mut pos) = at[s];
                while iter < iterations && !stream.is_empty() {
                    let step = resolver.step(stream[pos], s, &done);
                    let arrived = match step.waits {
                        Slot::UNKEYED => Some(SimTime::ZERO),
                        Slot::OVERFLOW => {
                            one_producer_per_key = false;
                            deps::consumed(stream[pos], s, p, chunks)
                                .and_then(|edge| done.get(iter, edge.key))
                        }
                        Slot(offset) => done.get_at(iter, offset as usize),
                    };
                    let Some(arrived) = arrived else {
                        blocked[s] = true;
                        break;
                    };
                    let link = if step.crosses_device {
                        self.comm
                    } else {
                        SimDuration::ZERO
                    };
                    let start = free.max(arrived + link);
                    let end = start + step.duration;
                    let published = match step.publishes {
                        Slot::UNKEYED => false,
                        Slot::OVERFLOW => {
                            one_producer_per_key = false;
                            if let Some(key) = deps::produced(stream[pos], s, p) {
                                done.insert(iter, key, end);
                            }
                            true
                        }
                        Slot(offset) => {
                            let earlier = done.insert_at(iter, offset as usize, end);
                            one_producer_per_key &= earlier.is_none();
                            true
                        }
                    };
                    let consumer = step.consumer as usize;
                    if published && std::mem::take(&mut blocked[consumer]) {
                        ready.push(consumer);
                    }
                    records.record(iter, s, &step, start, end);
                    free = end;
                    pos += 1;
                    if pos == stream.len() {
                        (iter, pos) = (iter + 1, 0);
                    }
                }
                at[s] = (iter, pos);
                free_at[s] = free;
            }
            // Quiescent: every device is done or blocked. Confirm the
            // fixpoint by retrying each blocked device once — only a key
            // whose virtual-stage arithmetic wrapped (a malformed chunk
            // index) can have missed its wake-up — and stop when a retry
            // round runs nothing.
            let executed = at
                .iter()
                .zip(streams)
                .map(|(&(iter, pos), stream)| iter * stream.len() + pos)
                .sum();
            if executed == settled {
                break;
            }
            settled = executed;
            for s in (0..p).rev() {
                if std::mem::take(&mut blocked[s]) {
                    ready.push(s);
                }
            }
            if ready.is_empty() {
                break;
            }
        }
        match (0..p).find(|&s| at[s].0 < iterations && !streams[s].is_empty()) {
            Some(s) => Err(EngineError::Deadlock {
                stage: s,
                position: at[s].1,
                instruction: streams[s][at[s].1],
                ran: at
                    .iter()
                    .zip(streams)
                    .map(|(&(iter, pos), stream)| if iter > 0 { stream.len() } else { pos })
                    .collect(),
            }),
            None => Ok(Scheduled {
                slots_per_iteration: done.slots_per_iteration(),
                free_at,
                one_producer_per_key,
            }),
        }
    }

    /// How long `instr` occupies device `stage` — exactly the durations
    /// the dependency simulation schedules with, published so static
    /// analyses can weight the same DAG the engine executes.
    ///
    /// Chunked compute slices `1/chunks` of the stage total (chunk count
    /// from the configured schedule), telescoped so chunk durations sum
    /// exactly to the stage's; ZB-H1's split makes `B` the
    /// activation-gradient half and `W` the weight-gradient remainder
    /// (together exactly the full backward).
    ///
    /// # Panics
    ///
    /// Panics if `stage` is out of range.
    pub fn instruction_duration(&self, instr: PipelineInstruction, stage: usize) -> SimDuration {
        let chunks = self.schedule.chunk_count() as u64;
        // Per-chunk compute: slice `1/chunks` of the stage total,
        // telescoped so chunk durations sum exactly to the stage's.
        let chunk_slice = |total: SimDuration, c: usize| -> SimDuration {
            total * (c as u64 + 1) / chunks - total * c as u64 / chunks
        };
        match instr {
            PipelineInstruction::Forward { .. } => self.stage_fwd[stage],
            PipelineInstruction::Backward { .. } => self.stage_bwd[stage],
            PipelineInstruction::ForwardChunk { chunk, .. } => {
                chunk_slice(self.stage_fwd[stage], chunk)
            }
            PipelineInstruction::BackwardChunk { chunk, .. } => {
                chunk_slice(self.stage_bwd[stage], chunk)
            }
            PipelineInstruction::BackwardInput { .. } => self.stage_bwd[stage] / 2,
            PipelineInstruction::BackwardWeight { .. } => {
                self.stage_bwd[stage] - self.stage_bwd[stage] / 2
            }
            PipelineInstruction::OptimizerStep => self.stage_opt[stage],
            // Gradient sync overlaps the backward passes, and a bubble is
            // a marker: neither occupies the device.
            PipelineInstruction::GradSync | PipelineInstruction::Bubble { .. } => SimDuration::ZERO,
        }
    }

    fn extract_timeline(
        &self,
        streams: &[Vec<PipelineInstruction>],
        records: &SteadyRecords,
    ) -> Result<EngineTimeline, EngineError> {
        let p = self.num_stages();
        // Stage `s`'s instructions of the steady iteration, with their
        // records.
        let steady = |s: usize| records.steady[s].iter().zip(&streams[s]);
        // Start of an iteration on a stage = start of its first busy
        // (non-zero-duration) instruction of that iteration.
        let iter_start = |s: usize, k: usize| -> Result<SimTime, EngineError> {
            match (s, k) {
                (_, STEADY_ITER) => steady(s)
                    .find(|((start, end), _)| end > start)
                    .map(|(&(start, _), _)| start),
                (_, NEXT_ITER) => records.next[s],
                (0, PREVIOUS_ITER) => records.previous,
                _ => unreachable!("stage {s}'s iteration {k} is not recorded"),
            }
            .ok_or(EngineError::IdleIteration {
                stage: s,
                iteration: k,
            })
        };

        let t0 = iter_start(0, STEADY_ITER)?;
        let period = iter_start(0, STEADY_ITER + 1)? - t0;
        // Periodicity check: the previous iteration must show the same
        // period, or we are not in steady state.
        let previous = t0 - iter_start(0, STEADY_ITER - 1)?;
        if period != previous {
            return Err(EngineError::NonPeriodic { previous, period });
        }

        let mut stages = Vec::with_capacity(p);
        for s in 0..p {
            // The window's end is looked up first, so an idle stage past
            // stage 0 reports the later iteration.
            let window_end = iter_start(s, STEADY_ITER + 1)?;
            let window_start = iter_start(s, STEADY_ITER)?;
            let anchor_offset = window_start.saturating_since(t0);

            // Busy intervals inside the stage's window. The device runs its
            // stream in order, so stream order is time order.
            let intervals = || steady(s).filter(|((start, end), _)| end > start);
            let first_bwd_start = intervals()
                .find(|(_, i)| i.is_backward())
                .map(|(&(start, _), _)| start);

            let period = window_end - window_start;
            let mut windows = Vec::new();
            let mut busy = SimDuration::ZERO;
            let mut cursor = window_start;
            for (&(start, end), _) in intervals() {
                if start > cursor {
                    let kind = if Some(start) == first_bwd_start {
                        BubbleKind::FwdBwd
                    } else {
                        BubbleKind::NonContiguous
                    };
                    windows.push(BubbleWindow::within_period(
                        kind,
                        cursor - window_start,
                        start - cursor,
                        self.bubble_free_memory,
                        period,
                    ));
                }
                busy += end - start;
                cursor = cursor.max(end);
            }
            if window_end > cursor {
                windows.push(BubbleWindow::within_period(
                    BubbleKind::FillDrain,
                    cursor - window_start,
                    window_end - cursor,
                    self.bubble_free_memory,
                    period,
                ));
            }
            debug_assert!(
                windows
                    .windows(2)
                    .all(|w| w[0].offset + w[0].duration <= w[1].offset),
                "stage {s}: bubble windows overlap or are unordered"
            );

            stages.push(StageTimeline {
                stage: s,
                anchor_offset,
                windows,
                busy,
            });
        }

        Ok(EngineTimeline { period, stages })
    }
}

/// One stage's periodic timeline.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTimeline {
    /// Stage index.
    pub stage: usize,
    /// Phase of this stage's period window relative to stage 0's.
    pub anchor_offset: SimDuration,
    /// Idle windows within one period, ordered by offset (relative to
    /// this stage's anchor).
    pub windows: Vec<BubbleWindow>,
    /// Device-busy time per period.
    pub busy: SimDuration,
}

impl StageTimeline {
    /// Total bubble time per period.
    pub fn bubble_time(&self) -> SimDuration {
        self.windows.iter().map(|w| w.duration).sum()
    }

    /// Total fillable bubble time per period.
    pub fn fillable_time(&self) -> SimDuration {
        self.windows
            .iter()
            .filter(|w| w.fillable())
            .map(|w| w.duration)
            .sum()
    }

    /// The fillable windows, in period order.
    pub fn fillable_windows(&self) -> Vec<BubbleWindow> {
        self.windows
            .iter()
            .filter(|w| w.fillable())
            .copied()
            .collect()
    }
}

/// The engine's steady-state output: one period length plus per-stage
/// windows.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineTimeline {
    /// Iteration period (identical across stages).
    pub period: SimDuration,
    /// Per-stage timelines, indexed by stage.
    pub stages: Vec<StageTimeline>,
}

impl EngineTimeline {
    /// Fraction of all GPU time spent in bubbles — the paper's
    /// `(p-1)/(m+p-1)` for uniform stages.
    pub fn bubble_ratio(&self) -> f64 {
        let total: SimDuration = self.stages.iter().map(|s| s.bubble_time()).sum();
        total.ratio(self.period * self.stages.len() as u64)
    }

    /// Fraction of all GPU time in *fillable* bubbles (excludes 1F1B's
    /// non-contiguous gaps).
    pub fn fillable_ratio(&self) -> f64 {
        let total: SimDuration = self.stages.iter().map(|s| s.fillable_time()).sum();
        total.ratio(self.period * self.stages.len() as u64)
    }
}

/// The oracle inputs `tests/list_scheduler_oracle.rs` uses too.
#[cfg(test)]
#[path = "../tests/support/inputs.rs"]
mod inputs;

/// The per-kind step resolver pinned to the generic `deps` path.
#[cfg(test)]
#[path = "../tests/support/resolver_oracle.rs"]
mod resolver_oracle;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    /// GPipe with uniform stages and zero comm must reproduce the
    /// closed-form bubble structure exactly.
    #[test]
    fn gpipe_matches_closed_form() {
        let (p, m) = (4usize, 6usize);
        let (tf, tb) = (ms(10), ms(20));
        let tl = EngineConfig::uniform(ScheduleKind::GPipe, p, m, tf, tb).run();
        // Period = (m + p - 1) (tf + tb).
        assert_eq!(tl.period, (tf + tb) * (m + p - 1) as u64);
        for (s, st) in tl.stages.iter().enumerate() {
            // Busy = m (tf + tb).
            assert_eq!(st.busy, (tf + tb) * m as u64, "stage {s}");
            // fwd-bwd bubble = (p-1-s)(tf+tb); fill-drain = s(tf+tb).
            let fwd_bwd: SimDuration = st
                .windows
                .iter()
                .filter(|w| w.kind == BubbleKind::FwdBwd)
                .map(|w| w.duration)
                .sum();
            let fill_drain: SimDuration = st
                .windows
                .iter()
                .filter(|w| w.kind == BubbleKind::FillDrain)
                .map(|w| w.duration)
                .sum();
            assert_eq!(fwd_bwd, (tf + tb) * (p - 1 - s) as u64, "stage {s} fwd-bwd");
            assert_eq!(fill_drain, (tf + tb) * s as u64, "stage {s} fill-drain");
            assert!(
                st.windows
                    .iter()
                    .all(|w| w.kind != BubbleKind::NonContiguous),
                "GPipe with uniform stages has no non-contiguous bubbles"
            );
        }
        // Bubble ratio = (p-1)/(m+p-1).
        let expect = (p - 1) as f64 / (m + p - 1) as f64;
        assert!((tl.bubble_ratio() - expect).abs() < 1e-9);
        assert!((tl.fillable_ratio() - expect).abs() < 1e-9);
    }

    /// 1F1B keeps the same period and total bubble time as GPipe but part
    /// of it becomes non-contiguous (§4.5: "the total bubble time is the
    /// same for both schedules").
    #[test]
    fn one_f_one_b_same_total_bubble_less_fillable() {
        let (p, m) = (4usize, 8usize);
        let (tf, tb) = (ms(10), ms(20));
        let gpipe = EngineConfig::uniform(ScheduleKind::GPipe, p, m, tf, tb).run();
        let ofob = EngineConfig::uniform(ScheduleKind::OneFOneB, p, m, tf, tb).run();
        assert_eq!(gpipe.period, ofob.period);
        assert!((gpipe.bubble_ratio() - ofob.bubble_ratio()).abs() < 1e-9);
        assert!(
            ofob.fillable_ratio() < gpipe.fillable_ratio(),
            "1F1B: {} vs GPipe: {}",
            ofob.fillable_ratio(),
            gpipe.fillable_ratio()
        );
        // Non-contiguous bubbles exist on early stages.
        assert!(ofob.stages[0]
            .windows
            .iter()
            .any(|w| w.kind == BubbleKind::NonContiguous));
    }

    /// The paper's 1F1B fwd-bwd bubble formula:
    /// (p-s-1)·t_bwd + max(0, p-s-m)·t_fwd.
    #[test]
    fn one_f_one_b_fwd_bwd_formula() {
        let (p, m) = (6usize, 4usize);
        let (tf, tb) = (ms(10), ms(20));
        let tl = EngineConfig::uniform(ScheduleKind::OneFOneB, p, m, tf, tb).run();
        for (s, st) in tl.stages.iter().enumerate() {
            let fwd_bwd: SimDuration = st
                .windows
                .iter()
                .filter(|w| w.kind == BubbleKind::FwdBwd)
                .map(|w| w.duration)
                .sum();
            let expect = tb * (p - 1 - s) as u64 + tf * (p - s).saturating_sub(m) as u64;
            assert_eq!(fwd_bwd, expect, "stage {s}");
        }
    }

    /// At large scale (small m) the non-contiguous share shrinks, closing
    /// the GPipe↔1F1B fillable gap (Fig. 8's trend).
    #[test]
    fn schedule_gap_closes_at_scale() {
        let (p, tf, tb) = (16usize, ms(10), ms(20));
        let gap = |m: usize| {
            let g = EngineConfig::uniform(ScheduleKind::GPipe, p, m, tf, tb)
                .run()
                .fillable_ratio();
            let o = EngineConfig::uniform(ScheduleKind::OneFOneB, p, m, tf, tb)
                .run()
                .fillable_ratio();
            (g - o) / g
        };
        let gap_low_scale = gap(64); // 1K GPUs
        let gap_high_scale = gap(4); // 16K GPUs
        assert!(
            gap_high_scale < gap_low_scale,
            "low={gap_low_scale} high={gap_high_scale}"
        );
        // Raw fillable-time gap at m=4 is (m-1)·tf per stage ≈ 6-7%; the
        // paper's <5% figure is after fill-job efficiency compression.
        assert!(gap_high_scale < 0.08, "high-scale gap {gap_high_scale}");
    }

    #[test]
    fn bubble_windows_partition_idle_time() {
        let tl = EngineConfig::uniform(ScheduleKind::OneFOneB, 5, 7, ms(13), ms(29)).run();
        for st in &tl.stages {
            assert_eq!(st.busy + st.bubble_time(), tl.period, "stage {}", st.stage);
            // Windows are ordered and non-overlapping.
            let mut cursor = SimDuration::ZERO;
            for w in &st.windows {
                assert!(w.offset >= cursor, "window overlap on stage {}", st.stage);
                cursor = w.offset + w.duration;
            }
        }
    }

    #[test]
    fn comm_latency_stretches_period() {
        let base = EngineConfig::uniform(ScheduleKind::GPipe, 4, 4, ms(10), ms(20));
        let mut with_comm = base.clone();
        with_comm.comm = ms(2);
        assert!(with_comm.run().period > base.run().period);
    }

    #[test]
    fn optimizer_time_adds_busy_time() {
        let mut cfg = EngineConfig::uniform(ScheduleKind::GPipe, 4, 4, ms(10), ms(20));
        cfg.stage_opt = vec![ms(5); 4];
        let tl = cfg.run();
        assert_eq!(tl.stages[0].busy, ms((10 + 20) * 4 + 5));
    }

    #[test]
    fn anchor_offsets_increase_downstream_for_gpipe() {
        let tl = EngineConfig::uniform(ScheduleKind::GPipe, 4, 4, ms(10), ms(20)).run();
        // Stage s starts its forward phase s·tf after stage 0.
        for (s, st) in tl.stages.iter().enumerate() {
            assert_eq!(st.anchor_offset, ms(10) * s as u64, "stage {s}");
        }
    }

    #[test]
    fn single_stage_pipeline_has_no_bubbles() {
        let tl = EngineConfig::uniform(ScheduleKind::GPipe, 1, 4, ms(10), ms(20)).run();
        assert_eq!(tl.bubble_ratio(), 0.0);
        assert!(tl.stages[0].windows.is_empty());
    }

    #[test]
    #[should_panic(expected = "stage_bwd length mismatch")]
    fn mismatched_config_rejected() {
        let mut cfg = EngineConfig::uniform(ScheduleKind::GPipe, 4, 4, ms(10), ms(20));
        cfg.stage_bwd.pop();
        let _ = cfg.run();
    }

    /// `execute_streams` is the non-panicking oracle: every built-in
    /// stream set completes, and a cross-device order inversion —
    /// wellformed on each device in isolation — reports a deadlock value
    /// instead of panicking.
    #[test]
    fn execute_streams_completes_builtins_and_reports_deadlock() {
        for kind in ScheduleKind::ALL {
            let cfg = EngineConfig::uniform(kind, 4, 8, ms(10), ms(20));
            let streams = kind.all_stage_instructions(4, 8);
            assert!(cfg.execute_streams(&streams).is_ok(), "{kind}");
        }
        // dev0: F0 B0 F1 B1 / dev1: F1 F0 B0 B1 — dev0's B0 waits on
        // dev1's B0, which program-order-follows dev1's F1, which waits
        // on dev0's F1, which program-order-follows dev0's B0.
        use PipelineInstruction::{Backward, Forward};
        let wedged = vec![
            vec![
                Forward { microbatch: 0 },
                Backward { microbatch: 0 },
                Forward { microbatch: 1 },
                Backward { microbatch: 1 },
            ],
            vec![
                Forward { microbatch: 1 },
                Forward { microbatch: 0 },
                Backward { microbatch: 0 },
                Backward { microbatch: 1 },
            ],
        ];
        let cfg = EngineConfig::uniform(ScheduleKind::OneFOneB, 2, 2, ms(10), ms(20));
        let err = cfg
            .execute_streams(&wedged)
            .expect_err("cyclic streams wedge");
        assert_eq!(
            err,
            EngineError::Deadlock {
                stage: 0,
                position: 1,
                instruction: Backward { microbatch: 0 },
                ran: vec![1, 0],
            }
        );
        assert!(err.to_string().contains("deadlocked on stage 0"), "{err}");
    }

    #[test]
    fn timeline_of_generated_streams_equals_run() {
        for kind in ScheduleKind::ALL
            .into_iter()
            .chain([ScheduleKind::Interleaved { chunks: 3 }])
        {
            for (p, m) in [(1, 3), (4, 8), (8, 4)] {
                let mut cfg = EngineConfig::uniform(kind, p, m, ms(13), ms(29));
                cfg.comm = SimDuration::from_micros(700);
                let streams = kind.all_stage_instructions(p, m);
                assert_eq!(
                    cfg.timeline_of(&streams),
                    Ok(cfg.run()),
                    "{kind} p={p} m={m}"
                );
            }
        }
    }

    /// An all-idle stage has no iteration start: stage 0 reports the
    /// steady iteration, a later stage the one after it (the window's
    /// end is looked up first).
    #[test]
    fn timeline_of_reports_idle_iterations() {
        use PipelineInstruction::{Backward, Bubble, Forward, GradSync, OptimizerStep};
        let idle = vec![
            GradSync,
            OptimizerStep,
            Bubble {
                kind: BubbleKind::FillDrain,
            },
        ];
        let cfg = EngineConfig::uniform(ScheduleKind::OneFOneB, 2, 1, ms(10), ms(20));
        // The last stage's backward waits on nothing.
        assert_eq!(
            cfg.timeline_of(&[idle.clone(), vec![Backward { microbatch: 0 }]]),
            Err(EngineError::IdleIteration {
                stage: 0,
                iteration: STEADY_ITER,
            })
        );
        let busy = vec![Forward { microbatch: 0 }];
        assert_eq!(
            cfg.timeline_of(&[busy, idle]),
            Err(EngineError::IdleIteration {
                stage: 1,
                iteration: STEADY_ITER + 1,
            })
        );
    }

    /// A set that completes its first iteration but wedges in a later one
    /// reports the blocked instruction's position within its stream, not
    /// its index across unrolled iterations.
    #[test]
    fn timeline_of_reports_deadlock_at_a_stream_position() {
        use PipelineInstruction::{Backward, Forward};
        // dev1 blocks on F1, which dev0 never forwards; dev0 finishes
        // iteration 0 and then waits on the B0 gradient of iteration 1,
        // which dev1 never reaches.
        let wedged = vec![
            vec![Forward { microbatch: 0 }, Backward { microbatch: 0 }],
            vec![
                Forward { microbatch: 0 },
                Backward { microbatch: 0 },
                Forward { microbatch: 1 },
            ],
        ];
        let cfg = EngineConfig::uniform(ScheduleKind::OneFOneB, 2, 2, ms(10), ms(20));
        let err = cfg.timeline_of(&wedged).expect_err("wedges");
        assert_eq!(
            err,
            EngineError::Deadlock {
                stage: 0,
                position: 1,
                instruction: Backward { microbatch: 0 },
                ran: vec![2, 2],
            }
        );
        let EngineError::Deadlock {
            stage, position, ..
        } = err
        else {
            unreachable!()
        };
        assert!(position < wedged[stage].len());
    }

    /// The published per-instruction durations are the ones the
    /// simulation schedules with: chunk slices telescope to the stage
    /// total and the ZB-H1 halves recompose the full backward.
    #[test]
    fn instruction_durations_telescope() {
        let cfg = EngineConfig::uniform(
            ScheduleKind::Interleaved { chunks: 3 },
            4,
            4,
            ms(10),
            ms(25),
        );
        let fwd: SimDuration = (0..3)
            .map(|c| {
                cfg.instruction_duration(
                    PipelineInstruction::ForwardChunk {
                        chunk: c,
                        microbatch: 0,
                    },
                    1,
                )
            })
            .sum();
        assert_eq!(fwd, ms(10));
        let zb = EngineConfig::uniform(ScheduleKind::ZbH1, 4, 4, ms(10), ms(25));
        let b = zb.instruction_duration(PipelineInstruction::BackwardInput { microbatch: 0 }, 0);
        let w = zb.instruction_duration(PipelineInstruction::BackwardWeight { microbatch: 0 }, 0);
        assert_eq!(b + w, ms(25));
    }

    /// ZB-H1 with uniform stages and m ≥ p reproduces the Qi et al.
    /// closed form exactly: per-stage bubble (p-1)(t_f + t_B - t_W) and
    /// period m(t_f + t_b) + (p-1)(t_f + t_B - t_W).
    #[test]
    fn zb_h1_matches_closed_form() {
        for (p, m) in [(2usize, 4usize), (4, 8), (8, 16), (16, 16)] {
            let (tf, tb) = (ms(10), ms(20));
            let tl = EngineConfig::uniform(ScheduleKind::ZbH1, p, m, tf, tb).run();
            // t_B = t_W = t_b / 2, so the residual ramp term is t_f alone.
            let ramp = tf * (p - 1) as u64;
            assert_eq!(tl.period, (tf + tb) * m as u64 + ramp, "p={p} m={m}");
            for (s, st) in tl.stages.iter().enumerate() {
                assert_eq!(st.busy, (tf + tb) * m as u64, "p={p} m={m} stage {s}");
                assert_eq!(st.bubble_time(), ramp, "p={p} m={m} stage {s}");
            }
            let expect = (p - 1) as f64 * 10.0 / (m as f64 * 30.0 + (p - 1) as f64 * 10.0);
            assert!((tl.bubble_ratio() - expect).abs() < 1e-9, "p={p} m={m}");
        }
    }

    /// ZB-H1 strictly shrinks both total and fillable bubble relative to
    /// 1F1B, and every remaining window is fillable (the W-fill converts
    /// the fragmented drain gaps into solid compute).
    #[test]
    fn zb_h1_beats_one_f_one_b() {
        let (p, m) = (8usize, 16usize);
        let (tf, tb) = (ms(10), ms(20));
        let ofob = EngineConfig::uniform(ScheduleKind::OneFOneB, p, m, tf, tb).run();
        let zb = EngineConfig::uniform(ScheduleKind::ZbH1, p, m, tf, tb).run();
        assert!(zb.period < ofob.period);
        assert!(zb.bubble_ratio() < ofob.bubble_ratio());
    }

    /// Interleaving shrinks the total bubble below 1F1B's, monotonically
    /// in the chunk count, while fragmenting what remains (fillable share
    /// drops even faster — the Fig. 8 trade-off at its sharpest).
    #[test]
    fn interleaving_shrinks_but_fragments_bubbles() {
        let (p, m) = (4usize, 8usize);
        let (tf, tb) = (ms(10), ms(20));
        let ofob = EngineConfig::uniform(ScheduleKind::OneFOneB, p, m, tf, tb).run();
        let il2 =
            EngineConfig::uniform(ScheduleKind::Interleaved { chunks: 2 }, p, m, tf, tb).run();
        let il4 =
            EngineConfig::uniform(ScheduleKind::Interleaved { chunks: 4 }, p, m, tf, tb).run();
        assert!(il2.bubble_ratio() < ofob.bubble_ratio());
        assert!(il4.bubble_ratio() < il2.bubble_ratio());
        assert!(il2.period < ofob.period);
        // The ideal interleaved geometry lower-bounds the realized one.
        let ideal2 = crate::analysis::bubble_fraction_for(
            ScheduleKind::Interleaved { chunks: 2 },
            p,
            m,
            2.0,
        );
        assert!(il2.bubble_ratio() >= ideal2 - 1e-9);
        // Fragmentation: interleaved fills a smaller share of a smaller
        // bubble than 1F1B does.
        assert!(il2.fillable_ratio() < ofob.fillable_ratio());
        assert!(
            il2.stages.iter().any(|s| s
                .windows
                .iter()
                .any(|w| w.kind == BubbleKind::NonContiguous)),
            "interleaving induces non-contiguous fragments"
        );
    }

    /// The conformance pin's engine half: 1-chunk interleaved is 1F1B
    /// bit for bit, timelines included.
    #[test]
    fn one_chunk_interleaved_timeline_equals_one_f_one_b() {
        for (p, m) in [(4usize, 8usize), (8, 4), (1, 2)] {
            let il = EngineConfig::uniform(
                ScheduleKind::Interleaved { chunks: 1 },
                p,
                m,
                ms(13),
                ms(29),
            )
            .run();
            let ofob = EngineConfig::uniform(ScheduleKind::OneFOneB, p, m, ms(13), ms(29)).run();
            assert_eq!(il, ofob, "p={p} m={m}");
        }
    }

    /// Busy + bubble time still partitions the period for the new
    /// schedules (the invariant the proptests sweep much wider).
    #[test]
    fn new_schedules_partition_the_period() {
        for schedule in [
            ScheduleKind::Interleaved { chunks: 2 },
            ScheduleKind::Interleaved { chunks: 3 },
            ScheduleKind::ZbH1,
        ] {
            let tl = EngineConfig::uniform(schedule, 5, 7, ms(13), ms(29)).run();
            for st in &tl.stages {
                assert_eq!(
                    st.busy + st.bubble_time(),
                    tl.period,
                    "{schedule} stage {}",
                    st.stage
                );
                let mut cursor = SimDuration::ZERO;
                for w in &st.windows {
                    assert!(w.offset >= cursor, "{schedule} window overlap");
                    cursor = w.offset + w.duration;
                }
                assert!(cursor <= tl.period, "{schedule} windows exceed period");
            }
        }
    }

    /// The timeline's first iteration read, in the scheduler copied below.
    const FIRST_READ: usize = STEADY_ITER - 1;

    /// The engine before it replayed: `simulate` list-scheduled all four
    /// iterations and `extract_timeline` read iterations 1–3 off full
    /// per-device record vectors. Both bodies are verbatim copies; the
    /// proptests below hold `timeline_of` to them bit for bit.
    impl EngineConfig {
        fn reference_timeline_of(
            &self,
            streams: &[Vec<PipelineInstruction>],
        ) -> Result<EngineTimeline, EngineError> {
            let records = self.reference_simulate(streams, SIM_ITERATIONS, FIRST_READ)?;
            self.reference_extract_timeline(streams, &records)
        }

        /// Dependency-driven list scheduling of `iterations` back-to-back
        /// replays of one iteration's per-device streams.
        ///
        /// Each device runs its stream in order, every instruction starting
        /// at `max(device free, dependency end [+ comm])`. A device that
        /// reaches an unpublished dependency blocks; publishing a key wakes
        /// the one device that can consume it ([`deps::consumer_device`]), so
        /// the pass is linear in the instruction count. For streams with one
        /// producer per key, start times are longest paths and the set of
        /// instructions that can ever run is unique, so the result does not
        /// depend on which ready device runs first. End times live in
        /// [`deps::DepSlots`], keyed by `(iteration, DepKey)`; the keying
        /// itself — virtual stages, cross-device hand-offs — lives in
        /// [`crate::deps`], shared with the static verifier. Each stream
        /// position is resolved against that table once, into a [`Step`]
        /// holding its keys' in-iteration slot offsets, so the replay indexes
        /// `iteration · slots_per_iteration + offset` directly. Only
        /// iterations from `first_recorded` on are recorded.
        fn reference_simulate(
            &self,
            streams: &[Vec<PipelineInstruction>],
            iterations: usize,
            first_recorded: usize,
        ) -> Result<Vec<Vec<ExecRecord>>, EngineError> {
            let p = self.num_stages();
            assert_eq!(
                streams.len(),
                p,
                "stream count must match the configured stage count"
            );
            assert!(u32::try_from(p).is_ok(), "more than 2^32 stages");
            let chunks = self.schedule.chunk_count();
            let instructions = streams.iter().map(Vec::len).sum::<usize>() * iterations;
            let mut done = DepSlots::new(
                p,
                chunks,
                self.microbatches,
                iterations,
                instructions,
                SimTime::MAX,
            );
            // Each stream position's slots, consumer, link and duration,
            // resolved once and replayed every iteration.
            let steps: Vec<Vec<Step>> = streams
                .iter()
                .enumerate()
                .map(|(s, stream)| {
                    stream
                        .iter()
                        .map(|&instr| {
                            let dep = deps::consumed(instr, s, p, chunks);
                            let publishes = deps::produced(instr, s, p);
                            Step {
                                duration: self.instruction_duration(instr, s),
                                waits: Slot::of(dep.map(|edge| edge.key), &done),
                                publishes: Slot::of(publishes, &done),
                                // Below `p`, which fits a `u32` (asserted above).
                                consumer: publishes
                                    .map_or(0, |key| deps::consumer_device(key, p) as u32),
                                crosses_device: dep.is_some_and(|edge| edge.crosses_device),
                            }
                        })
                        .collect()
                })
                .collect();
            // Per device: the iteration and stream position it is at, and the
            // time it is free from.
            let mut at = vec![(0usize, 0usize); p];
            let mut free_at = vec![SimTime::ZERO; p];
            let mut records: Vec<Vec<ExecRecord>> = streams
                .iter()
                .map(|s| Vec::with_capacity(s.len() * iterations.saturating_sub(first_recorded)))
                .collect();
            let mut blocked = vec![false; p];
            let mut ready: Vec<usize> = (0..p).rev().collect();
            let mut settled = usize::MAX;

            loop {
                while let Some(s) = ready.pop() {
                    let stream = &steps[s];
                    let ran = &mut records[s];
                    let mut free = free_at[s];
                    let (mut iter, mut pos) = at[s];
                    while iter < iterations && !stream.is_empty() {
                        let step = &stream[pos];
                        let arrived = match step.waits {
                            Slot::UNKEYED => Some(SimTime::ZERO),
                            Slot::OVERFLOW => deps::consumed(streams[s][pos], s, p, chunks)
                                .and_then(|edge| done.get(iter, edge.key)),
                            Slot(offset) => done.get_at(iter, offset as usize),
                        };
                        let Some(arrived) = arrived else {
                            blocked[s] = true;
                            break;
                        };
                        let link = if step.crosses_device {
                            self.comm
                        } else {
                            SimDuration::ZERO
                        };
                        let start = free.max(arrived + link);
                        let end = start + step.duration;
                        let published = match step.publishes {
                            Slot::UNKEYED => false,
                            Slot::OVERFLOW => {
                                if let Some(key) = deps::produced(streams[s][pos], s, p) {
                                    done.insert(iter, key, end);
                                }
                                true
                            }
                            Slot(offset) => {
                                done.insert_at(iter, offset as usize, end);
                                true
                            }
                        };
                        let consumer = step.consumer as usize;
                        if published && std::mem::take(&mut blocked[consumer]) {
                            ready.push(consumer);
                        }
                        if iter >= first_recorded {
                            ran.push((start, end));
                        }
                        free = end;
                        pos += 1;
                        if pos == stream.len() {
                            (iter, pos) = (iter + 1, 0);
                        }
                    }
                    at[s] = (iter, pos);
                    free_at[s] = free;
                }
                // Quiescent: every device is done or blocked. Confirm the
                // fixpoint by retrying each blocked device once — only a key
                // whose virtual-stage arithmetic wrapped (a malformed chunk
                // index) can have missed its wake-up — and stop when a retry
                // round runs nothing.
                let executed = at
                    .iter()
                    .zip(streams)
                    .map(|(&(iter, pos), stream)| iter * stream.len() + pos)
                    .sum();
                if executed == settled {
                    break;
                }
                settled = executed;
                for s in (0..p).rev() {
                    if std::mem::take(&mut blocked[s]) {
                        ready.push(s);
                    }
                }
                if ready.is_empty() {
                    break;
                }
            }
            match (0..p).find(|&s| at[s].0 < iterations && !streams[s].is_empty()) {
                Some(s) => Err(EngineError::Deadlock {
                    stage: s,
                    position: at[s].1,
                    instruction: streams[s][at[s].1],
                    ran: at
                        .iter()
                        .zip(streams)
                        .map(|(&(iter, pos), stream)| if iter > 0 { stream.len() } else { pos })
                        .collect(),
                }),
                None => Ok(records),
            }
        }

        fn reference_extract_timeline(
            &self,
            streams: &[Vec<PipelineInstruction>],
            records: &[Vec<ExecRecord>],
        ) -> Result<EngineTimeline, EngineError> {
            let p = self.num_stages();
            // Stage `s`'s instructions of iteration `k`, with their records.
            let iteration = |s: usize, k: usize| {
                let len = streams[s].len();
                let first = (k - FIRST_READ) * len;
                records[s][first..first + len].iter().zip(&streams[s])
            };
            // Start of an iteration on a stage = start of its first busy
            // (non-zero-duration) instruction of that iteration.
            let iter_start = |s: usize, k: usize| -> Result<SimTime, EngineError> {
                iteration(s, k)
                    .find(|((start, end), _)| end > start)
                    .map(|(&(start, _), _)| start)
                    .ok_or(EngineError::IdleIteration {
                        stage: s,
                        iteration: k,
                    })
            };

            let t0 = iter_start(0, STEADY_ITER)?;
            let period = iter_start(0, STEADY_ITER + 1)? - t0;
            // Periodicity check: the previous iteration must show the same
            // period, or we are not in steady state.
            let previous = t0 - iter_start(0, STEADY_ITER - 1)?;
            if period != previous {
                return Err(EngineError::NonPeriodic { previous, period });
            }

            let mut stages = Vec::with_capacity(p);
            for s in 0..p {
                // The window's end is looked up first, so an idle stage past
                // stage 0 reports the later iteration.
                let window_end = iter_start(s, STEADY_ITER + 1)?;
                let window_start = iter_start(s, STEADY_ITER)?;
                let anchor_offset = window_start.saturating_since(t0);

                // Busy intervals inside the stage's window. The device runs its
                // stream in order, so stream order is time order.
                let intervals =
                    || iteration(s, STEADY_ITER).filter(|((start, end), _)| end > start);
                let first_bwd_start = intervals()
                    .find(|(_, i)| i.is_backward())
                    .map(|(&(start, _), _)| start);

                let period = window_end - window_start;
                let mut windows = Vec::new();
                let mut busy = SimDuration::ZERO;
                let mut cursor = window_start;
                for (&(start, end), _) in intervals() {
                    if start > cursor {
                        let kind = if Some(start) == first_bwd_start {
                            BubbleKind::FwdBwd
                        } else {
                            BubbleKind::NonContiguous
                        };
                        windows.push(BubbleWindow::within_period(
                            kind,
                            cursor - window_start,
                            start - cursor,
                            self.bubble_free_memory,
                            period,
                        ));
                    }
                    busy += end - start;
                    cursor = cursor.max(end);
                }
                if window_end > cursor {
                    windows.push(BubbleWindow::within_period(
                        BubbleKind::FillDrain,
                        cursor - window_start,
                        window_end - cursor,
                        self.bubble_free_memory,
                        period,
                    ));
                }
                debug_assert!(
                    windows
                        .windows(2)
                        .all(|w| w[0].offset + w[0].duration <= w[1].offset),
                    "stage {s}: bubble windows overlap or are unordered"
                );

                stages.push(StageTimeline {
                    stage: s,
                    anchor_offset,
                    windows,
                    busy,
                });
            }

            Ok(EngineTimeline { period, stages })
        }
    }

    /// Full-horizon list schedules run on this thread so far.
    fn full_horizon_schedules() -> usize {
        FULL_HORIZON_SCHEDULES.with(std::cell::Cell::get)
    }

    fn any_schedule() -> impl Strategy<Value = ScheduleKind> {
        prop_oneof![
            Just(ScheduleKind::GPipe),
            Just(ScheduleKind::OneFOneB),
            Just(ScheduleKind::Interleaved { chunks: 2 }),
            Just(ScheduleKind::Interleaved { chunks: 3 }),
            Just(ScheduleKind::Interleaved { chunks: 4 }),
            Just(ScheduleKind::ZbH1),
        ]
    }

    proptest::proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Generated streams: the replayed timeline is the full list
        /// schedule's, bit for bit.
        #[test]
        fn timeline_of_matches_the_full_list_schedule(
            kind in any_schedule(),
            p in 1usize..10,
            m in 1usize..14,
            times in proptest::collection::vec((1u64..40, 1u64..80, 0u64..10), 1..5),
            comm_us in prop_oneof![Just(0u64), 1u64..30],
        ) {
            let cfg = super::inputs::config(kind, p, m, &times, comm_us);
            let streams = kind.all_stage_instructions(p, m);
            prop_assert_eq!(
                cfg.timeline_of(&streams),
                cfg.reference_timeline_of(&streams),
                "{} p={} m={}",
                kind,
                p,
                m
            );
        }

        /// Mutated streams — duplicated producers, out-of-range indices,
        /// drops and moves that deadlock — give the full list schedule's
        /// timeline or its error, payload included.
        #[test]
        fn timeline_of_matches_the_full_list_schedule_on_mutated_streams(
            kind in any_schedule(),
            p in 1usize..7,
            m in 1usize..9,
            times in proptest::collection::vec((1u64..40, 1u64..80, 0u64..10), 1..4),
            comm_us in 0u64..20,
            mutations in proptest::collection::vec(
                (0u8..6, 0usize..1_000, 0usize..1_000, 0usize..1_000),
                1..6,
            ),
        ) {
            let cfg = super::inputs::config(kind, p, m, &times, comm_us);
            let mut streams = kind.all_stage_instructions(p, m);
            for &op in &mutations {
                super::inputs::mutate(&mut streams, m, kind.chunk_count(), op);
            }
            prop_assert_eq!(
                cfg.timeline_of(&streams),
                cfg.reference_timeline_of(&streams),
                "{} p={} m={} mutations {:?}",
                kind,
                p,
                m,
                mutations
            );
        }

        /// Duplicated producers alone: the mutation that makes execution
        /// order matter, so the one the replay must never take.
        #[test]
        fn timeline_of_matches_the_full_list_schedule_with_duplicated_producers(
            kind in any_schedule(),
            p in 1usize..6,
            m in 1usize..6,
            times in proptest::collection::vec((1u64..40, 1u64..80, 0u64..10), 1..4),
            comm_us in 0u64..20,
            duplicates in proptest::collection::vec(
                (0usize..1_000, 0usize..1_000, 0usize..1_000),
                1..4,
            ),
        ) {
            let cfg = super::inputs::config(kind, p, m, &times, comm_us);
            let mut streams = kind.all_stage_instructions(p, m);
            for &(a, b, c) in &duplicates {
                super::inputs::mutate(&mut streams, m, kind.chunk_count(), (2, a, b, c));
            }
            prop_assert_eq!(
                cfg.timeline_of(&streams),
                cfg.reference_timeline_of(&streams),
                "{} p={} m={} duplicates {:?}",
                kind,
                p,
                m,
                duplicates
            );
        }
    }

    /// Every generated schedule replays: none list-schedules all four
    /// iterations, at the certificate grid's shapes (`schedverify`'s
    /// `certificate::grid`) nor at perfbench's `schedule_certify` shapes.
    /// Only the stream structure decides, so uniform times stand in for
    /// both weightings. A duplicated producer, a key outside the dense
    /// range and a deadlock each take the full schedule once.
    #[test]
    fn only_malformed_streams_schedule_the_full_horizon() {
        let certificate_grid = [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::ZbH1,
            ScheduleKind::Interleaved { chunks: 2 },
            ScheduleKind::Interleaved { chunks: 4 },
        ]
        .into_iter()
        .flat_map(|kind| [(2, 4), (2, 8), (4, 8), (4, 16), (8, 16)].map(|(p, m)| (kind, p, m)));
        let certify_shapes = ScheduleKind::ALL.into_iter().flat_map(|kind| {
            [(4, 8), (8, 16), (16, 128), (32, 256), (64, 512)].map(|(p, m)| (kind, p, m))
        });
        let before = full_horizon_schedules();
        for (kind, p, m) in certificate_grid.chain(certify_shapes) {
            let cfg = EngineConfig::uniform(kind, p, m, ms(10), ms(20));
            let streams = kind.all_stage_instructions(p, m);
            assert!(cfg.timeline_of(&streams).is_ok(), "{kind} p={p} m={m}");
            assert_eq!(full_horizon_schedules(), before, "{kind} p={p} m={m}");
        }

        use PipelineInstruction::{Backward, Forward};
        let well_formed = vec![
            Forward { microbatch: 0 },
            Backward { microbatch: 0 },
            Forward { microbatch: 1 },
            Backward { microbatch: 1 },
        ];
        // The last stage publishes B0's gradient twice. Replaying
        // iteration 0's order would always read the first and report a
        // steady 60 ms period; scheduled in full, later iterations read
        // the second, and the periods disagree. One microbatch, so the
        // dense table's four slots fit the five instructions (more slots
        // than instructions would send every key to the overflow map).
        let duplicated = vec![
            vec![Forward { microbatch: 0 }, Backward { microbatch: 0 }],
            vec![
                Backward { microbatch: 0 },
                Forward { microbatch: 0 },
                Backward { microbatch: 0 },
            ],
        ];
        // An activation for a microbatch past `m`, which nothing awaits.
        let mut out_of_range = vec![well_formed.clone(), well_formed.clone()];
        out_of_range[0].insert(1, Forward { microbatch: 2 });
        // dev0 waits on B0 before forwarding F1; dev1 wants F1 first.
        let deadlocked = vec![
            well_formed,
            vec![
                Forward { microbatch: 1 },
                Forward { microbatch: 0 },
                Backward { microbatch: 0 },
                Backward { microbatch: 1 },
            ],
        ];
        let malformed = [(1, duplicated), (2, out_of_range), (2, deadlocked)];
        let runs: Vec<_> = malformed
            .iter()
            .enumerate()
            .map(|(n, (m, streams))| {
                let cfg = EngineConfig::uniform(ScheduleKind::OneFOneB, 2, *m, ms(10), ms(20));
                let run = cfg.timeline_of(streams);
                assert_eq!(full_horizon_schedules(), before + n + 1, "{streams:?}");
                assert_eq!(run, cfg.reference_timeline_of(streams), "{streams:?}");
                run
            })
            .collect();
        assert!(
            matches!(runs[0], Err(EngineError::NonPeriodic { .. })),
            "{runs:?}"
        );
        assert!(runs[1].is_ok(), "{runs:?}");
        assert!(
            matches!(runs[2], Err(EngineError::Deadlock { .. })),
            "{runs:?}"
        );
    }
}
