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

use pipefill_sim_core::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::bubbles::{BubbleKind, BubbleWindow};
use crate::deps::{self, DepSlots};
use crate::instructions::PipelineInstruction;
use crate::memory::BubbleMemoryModel;
use crate::schedule::ScheduleKind;

/// Number of iterations simulated; the timeline is extracted from a
/// steady-state iteration in the middle.
const SIM_ITERATIONS: usize = 4;
/// Which iteration the timeline is extracted from.
const STEADY_ITER: usize = 2;

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

/// When one executed instruction ran: `(start, end)`. A device's records
/// follow its stream replayed iteration after iteration, so record `k`
/// is iteration `k / len` at stream position `k % len`.
type ExecRecord = (SimTime, SimTime);

/// One stream position as the list scheduler replays it.
struct Step {
    /// The key it waits on, if any.
    dep: Option<deps::DepEdge>,
    /// The key it publishes, if any.
    publishes: Option<deps::DepKey>,
    duration: SimDuration,
}

/// Everything the engine needs to run one main job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Data-parallel gradient all-reduce duration.
    pub grad_sync: SimDuration,
    /// Whether gradient sync is overlapped with backward (contributing no
    /// timeline length, the common production setting). Either way its
    /// duration defines the onload window for main-job offloading.
    pub overlap_grad_sync: bool,
    /// How bubble free-memory is reported.
    pub memory: BubbleMemoryModel,
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
            grad_sync: SimDuration::ZERO,
            overlap_grad_sync: true,
            memory: BubbleMemoryModel::measured_default(),
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
        if let BubbleMemoryModel::PerStage(v) = &self.memory {
            assert_eq!(v.len(), p, "per-stage memory length mismatch");
        }
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
    /// verifier's bubble bound is this function applied to stream text.
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
        let records = self.simulate(streams, SIM_ITERATIONS)?;
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
    /// unlike `run`, a wedged schedule is a value, not a panic.
    ///
    /// # Errors
    ///
    /// [`EngineError::Deadlock`] when in-order execution cannot complete.
    ///
    /// # Panics
    ///
    /// Panics if `streams.len()` differs from the configured stage count.
    pub fn execute_streams(&self, streams: &[Vec<PipelineInstruction>]) -> Result<(), EngineError> {
        self.simulate(streams, 1).map(|_| ())
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
    /// [`crate::deps`], shared with the static verifier.
    fn simulate(
        &self,
        streams: &[Vec<PipelineInstruction>],
        iterations: usize,
    ) -> Result<Vec<Vec<ExecRecord>>, EngineError> {
        let p = self.num_stages();
        assert_eq!(
            streams.len(),
            p,
            "stream count must match the configured stage count"
        );
        let chunks = self.schedule.chunk_count();
        // Each stream position's dependency, publication and duration,
        // resolved once and replayed every iteration.
        let steps: Vec<Vec<Step>> = streams
            .iter()
            .enumerate()
            .map(|(s, stream)| {
                stream
                    .iter()
                    .map(|&instr| Step {
                        dep: deps::consumed(instr, s, p, chunks),
                        publishes: deps::produced(instr, s, p),
                        duration: self.instruction_duration(instr, s),
                    })
                    .collect()
            })
            .collect();
        let instructions = streams.iter().map(Vec::len).sum::<usize>() * iterations;
        let mut done = DepSlots::new(p, chunks, self.microbatches, iterations, instructions);
        // Per device: the iteration and stream position it is at.
        let mut at = vec![(0usize, 0usize); p];
        let mut free = vec![SimTime::ZERO; p];
        let mut records: Vec<Vec<ExecRecord>> = streams
            .iter()
            .map(|s| Vec::with_capacity(s.len() * iterations))
            .collect();
        let mut blocked = vec![false; p];
        let mut ready: Vec<usize> = (0..p).rev().collect();
        let mut settled = usize::MAX;

        loop {
            while let Some(s) = ready.pop() {
                let stream = &steps[s];
                let (mut iter, mut pos) = at[s];
                while iter < iterations && !stream.is_empty() {
                    let step = &stream[pos];
                    let dep = match step.dep {
                        None => SimTime::ZERO,
                        Some(edge) => match done.get(iter, edge.key) {
                            Some(t) if edge.crosses_device => t + self.comm,
                            Some(t) => t,
                            None => {
                                blocked[s] = true;
                                break;
                            }
                        },
                    };
                    let start = free[s].max(dep);
                    let end = start + step.duration;
                    if let Some(key) = step.publishes {
                        done.insert(iter, key, end);
                        let consumer = deps::consumer_device(key, p);
                        if std::mem::take(&mut blocked[consumer]) {
                            ready.push(consumer);
                        }
                    }
                    records[s].push((start, end));
                    free[s] = end;
                    pos += 1;
                    if pos == stream.len() {
                        (iter, pos) = (iter + 1, 0);
                    }
                }
                at[s] = (iter, pos);
            }
            // Quiescent: every device is done or blocked. Confirm the
            // fixpoint by retrying each blocked device once — only a key
            // whose virtual-stage arithmetic wrapped (a malformed chunk
            // index) can have missed its wake-up — and stop when a retry
            // round runs nothing.
            let executed = records.iter().map(Vec::len).sum();
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
        match (0..p).find(|&s| records[s].len() < streams[s].len() * iterations) {
            Some(s) => Err(EngineError::Deadlock {
                stage: s,
                position: at[s].1,
                instruction: streams[s][at[s].1],
            }),
            None => Ok(records),
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
            PipelineInstruction::GradSync => {
                if self.overlap_grad_sync {
                    SimDuration::ZERO
                } else {
                    self.grad_sync
                }
            }
            PipelineInstruction::Bubble { .. } => SimDuration::ZERO,
        }
    }

    fn extract_timeline(
        &self,
        streams: &[Vec<PipelineInstruction>],
        records: &[Vec<ExecRecord>],
    ) -> Result<EngineTimeline, EngineError> {
        let p = self.num_stages();
        // Stage `s`'s instructions of iteration `k`, with their records.
        let iteration = |s: usize, k: usize| {
            let len = streams[s].len();
            records[s][k * len..(k + 1) * len].iter().zip(&streams[s])
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
            let intervals = || iteration(s, STEADY_ITER).filter(|((start, end), _)| end > start);
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
                        self.memory.free(s, kind),
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
                    self.memory.free(s, BubbleKind::FillDrain),
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

#[cfg(test)]
mod tests {
    use super::*;

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
    fn non_overlapped_grad_sync_is_busy() {
        let mut cfg = EngineConfig::uniform(ScheduleKind::GPipe, 4, 4, ms(10), ms(20));
        cfg.grad_sync = ms(50);
        cfg.overlap_grad_sync = false;
        let tl = cfg.run();
        assert_eq!(tl.stages[0].busy, ms((10 + 20) * 4 + 50));
        cfg.overlap_grad_sync = true;
        assert_eq!(cfg.run().stages[0].busy, ms((10 + 20) * 4));
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
}
