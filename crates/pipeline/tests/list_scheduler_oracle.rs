//! Reference oracle for the engine's list scheduler.
//!
//! `reference_simulate` is the straightforward formulation of in-order
//! list scheduling: poll every stage round-robin until none progresses,
//! with end times in an ordered map keyed by `(iteration, DepKey)`. It is
//! slow (every round re-polls every blocked stage) but obviously
//! correct, so the engine's wake-on-publish scheduler over dense
//! dependency slots is pinned against it:
//!
//! * `EngineConfig::run` timelines equal the reference's, for every
//!   schedule and shape (including `m < p` and `p = 1`), non-uniform
//!   stage times, optimizer time, and comm latency;
//! * `EngineConfig::execute_streams` returns exactly the reference's
//!   `Ok`/`Err` — the `Deadlock` payload, per-device iteration-0
//!   progress included — on randomly mutated streams: swapped, dropped,
//!   moved and duplicated instructions (so duplicated producers), and
//!   out-of-range microbatch and chunk indices;
//! * `EngineConfig::timeline_of` returns exactly the reference's
//!   timeline or error on those mutated streams whenever they keep one
//!   producer per key, where the order devices run in cannot matter.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use pipefill_pipeline::deps;
use pipefill_pipeline::{
    BubbleKind, BubbleWindow, EngineConfig, EngineError, EngineTimeline, PipelineInstruction,
    ScheduleKind, StageTimeline,
};
use pipefill_sim_core::{SimDuration, SimTime};

#[path = "support/inputs.rs"]
mod inputs;
use inputs::{config, mutate};

/// The engine's unroll horizon and steady iteration.
const SIM_ITERATIONS: usize = 4;
const STEADY_ITER: usize = 2;

type Record = (usize, PipelineInstruction, SimTime, SimTime);

/// Round-robin list scheduling over iteration-tagged streams.
fn reference_simulate(
    cfg: &EngineConfig,
    streams: &[Vec<(usize, PipelineInstruction)>],
) -> Result<Vec<Vec<Record>>, EngineError> {
    let p = cfg.num_stages();
    let chunks = cfg.schedule.chunk_count();
    let mut done: BTreeMap<(usize, deps::DepKey), SimTime> = BTreeMap::new();
    let mut next = vec![0usize; p];
    let mut free = vec![SimTime::ZERO; p];
    let mut records: Vec<Vec<Record>> = vec![Vec::new(); p];
    loop {
        let mut progressed = false;
        for s in 0..p {
            while next[s] < streams[s].len() {
                let (iter, instr) = streams[s][next[s]];
                let dep = match deps::consumed(instr, s, p, chunks) {
                    None => SimTime::ZERO,
                    Some(edge) => match done.get(&(iter, edge.key)) {
                        Some(&t) if edge.crosses_device => t + cfg.comm,
                        Some(&t) => t,
                        None => break,
                    },
                };
                let start = free[s].max(dep);
                let end = start + cfg.instruction_duration(instr, s);
                if let Some(key) = deps::produced(instr, s, p) {
                    done.insert((iter, key), end);
                }
                records[s].push((iter, instr, start, end));
                free[s] = end;
                next[s] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    for s in 0..p {
        if next[s] < streams[s].len() {
            return Err(EngineError::Deadlock {
                stage: s,
                position: next[s],
                instruction: streams[s][next[s]].1,
                ran: streams
                    .iter()
                    .zip(&next)
                    .map(|(stream, &n)| stream[..n].iter().filter(|&&(iter, _)| iter == 0).count())
                    .collect(),
            });
        }
    }
    Ok(records)
}

/// The steady-state timeline of arbitrary streams by the reference:
/// the streams unrolled for four iterations, scheduled round-robin, and
/// read off as the engine does, failing in the engine's order of checks.
/// A deadlock's position is reported within its stream.
fn reference_timeline(
    cfg: &EngineConfig,
    streams: &[Vec<PipelineInstruction>],
) -> Result<EngineTimeline, EngineError> {
    let unrolled: Vec<Vec<(usize, PipelineInstruction)>> = streams
        .iter()
        .map(|stream| {
            (0..SIM_ITERATIONS)
                .flat_map(|iter| stream.iter().map(move |&i| (iter, i)))
                .collect()
        })
        .collect();
    let records = reference_simulate(cfg, &unrolled).map_err(|e| match e {
        EngineError::Deadlock {
            stage,
            position,
            instruction,
            ran,
        } => EngineError::Deadlock {
            stage,
            position: position % streams[stage].len(),
            instruction,
            ran,
        },
        other => other,
    })?;
    let iter_start = |s: usize, k: usize| -> Result<SimTime, EngineError> {
        records[s]
            .iter()
            .find(|(iter, _, start, end)| *iter == k && end > start)
            .map(|&(_, _, start, _)| start)
            .ok_or(EngineError::IdleIteration {
                stage: s,
                iteration: k,
            })
    };
    let t0 = iter_start(0, STEADY_ITER)?;
    let period = iter_start(0, STEADY_ITER + 1)? - t0;
    let previous = t0 - iter_start(0, STEADY_ITER - 1)?;
    if period != previous {
        return Err(EngineError::NonPeriodic { previous, period });
    }
    let mut stages = Vec::new();
    for (s, stage_records) in records.iter().enumerate() {
        let window_end = iter_start(s, STEADY_ITER + 1)?;
        let window_start = iter_start(s, STEADY_ITER)?;
        let mut intervals: Vec<(SimTime, SimTime, PipelineInstruction)> = stage_records
            .iter()
            .filter(|(iter, _, start, end)| *iter == STEADY_ITER && end > start)
            .map(|&(_, instr, start, end)| (start, end, instr))
            .collect();
        intervals.sort_by_key(|&(start, _, _)| start);
        let first_bwd_start = intervals
            .iter()
            .find(|(_, _, i)| i.is_backward())
            .map(|&(start, _, _)| start);
        let stage_period = window_end - window_start;
        let mut windows = Vec::new();
        let mut busy = SimDuration::ZERO;
        let mut cursor = window_start;
        for &(start, end, _) in &intervals {
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
                    cfg.bubble_free_memory,
                    stage_period,
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
                cfg.bubble_free_memory,
                stage_period,
            ));
        }
        stages.push(StageTimeline {
            stage: s,
            anchor_offset: window_start.saturating_since(t0),
            windows,
            busy,
        });
    }
    Ok(EngineTimeline { period, stages })
}

/// The reference timeline of the generated streams.
fn reference_run(cfg: &EngineConfig) -> EngineTimeline {
    let streams = cfg
        .schedule
        .all_stage_instructions(cfg.num_stages(), cfg.microbatches);
    reference_timeline(cfg, &streams).expect("generated streams complete")
}

/// Whether no key is published by two instructions of the streams.
fn one_producer_per_key(streams: &[Vec<PipelineInstruction>]) -> bool {
    let p = streams.len();
    let mut seen = BTreeSet::new();
    streams.iter().enumerate().all(|(s, stream)| {
        stream
            .iter()
            .filter_map(|&instr| deps::produced(instr, s, p))
            .all(|key| seen.insert(key))
    })
}

fn schedule() -> impl Strategy<Value = ScheduleKind> {
    prop_oneof![
        Just(ScheduleKind::GPipe),
        Just(ScheduleKind::OneFOneB),
        Just(ScheduleKind::Interleaved { chunks: 1 }),
        Just(ScheduleKind::Interleaved { chunks: 2 }),
        Just(ScheduleKind::Interleaved { chunks: 3 }),
        Just(ScheduleKind::ZbH1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// `run()` reproduces the reference timeline exactly.
    #[test]
    fn run_matches_the_round_robin_reference(
        kind in schedule(),
        p in 1usize..9,
        m in 1usize..13,
        times in prop::collection::vec((1u64..40, 1u64..80, 0u64..10), 1..5),
        comm_us in prop_oneof![Just(0u64), 1u64..30],
    ) {
        let cfg = config(kind, p, m, &times, comm_us);
        prop_assert_eq!(cfg.run(), reference_run(&cfg), "{} p={} m={}", kind, p, m);
    }

    /// `execute_streams` agrees with the reference on mutated streams,
    /// deadlock payload included.
    #[test]
    fn execute_streams_matches_the_reference_on_mutated_streams(
        kind in schedule(),
        p in 1usize..7,
        m in 1usize..9,
        times in prop::collection::vec((1u64..40, 1u64..80, 0u64..10), 1..4),
        comm_us in 0u64..20,
        mutations in prop::collection::vec(
            (0u8..6, 0usize..1_000, 0usize..1_000, 0usize..1_000),
            0..6,
        ),
    ) {
        let cfg = config(kind, p, m, &times, comm_us);
        let mut streams = kind.all_stage_instructions(p, m);
        for &op in &mutations {
            mutate(&mut streams, m, kind.chunk_count(), op);
        }
        let tagged: Vec<Vec<(usize, PipelineInstruction)>> = streams
            .iter()
            .map(|s| s.iter().map(|&i| (0, i)).collect())
            .collect();
        prop_assert_eq!(
            cfg.execute_streams(&streams),
            reference_simulate(&cfg, &tagged).map(|_| ()),
            "{} p={} m={} mutations {:?}",
            kind,
            p,
            m,
            mutations
        );
    }

    /// `timeline_of` agrees with the reference, errors included, on
    /// mutated streams that keep one producer per key.
    #[test]
    fn timeline_of_matches_the_reference_on_mutated_streams_with_one_producer_per_key(
        kind in schedule(),
        p in 1usize..7,
        m in 1usize..9,
        times in prop::collection::vec((1u64..40, 1u64..80, 0u64..10), 1..4),
        comm_us in 0u64..20,
        mutations in prop::collection::vec(
            (0u8..6, 0usize..1_000, 0usize..1_000, 0usize..1_000),
            1..6,
        ),
    ) {
        let cfg = config(kind, p, m, &times, comm_us);
        let mut streams = kind.all_stage_instructions(p, m);
        for &op in &mutations {
            mutate(&mut streams, m, kind.chunk_count(), op);
        }
        if one_producer_per_key(&streams) {
            prop_assert_eq!(
                cfg.timeline_of(&streams),
                reference_timeline(&cfg, &streams),
                "{} p={} m={} mutations {:?}",
                kind,
                p,
                m,
                mutations
            );
        }
    }
}

/// Shapes the random draws above reach rarely: one stage, a single
/// microbatch, and far fewer microbatches than stages.
#[test]
fn degenerate_shapes_match_the_reference() {
    for kind in ScheduleKind::ALL
        .into_iter()
        .chain([ScheduleKind::Interleaved { chunks: 4 }])
    {
        for (p, m) in [(1, 1), (1, 5), (2, 1), (8, 1), (9, 2), (16, 3)] {
            let cfg = config(kind, p, m, &[(7, 15, 2), (11, 19, 0)], 3);
            assert_eq!(cfg.run(), reference_run(&cfg), "{kind} p={p} m={m}");
        }
    }
}

/// A chunk index so large that `chunk · p + stage` wraps (release builds
/// only; debug builds panic on the overflow). With `c = 2 · 3⁻¹ mod 2⁶⁴`,
/// `F<c>.0` on device 1 of a 3-device pipeline waits on the activation
/// device 2's `F0` publishes, although that key's consumer device is 0.
/// The wake-up misses device 1, and only the fixpoint retry lets it run,
/// as the reference does.
#[cfg(not(debug_assertions))]
#[test]
fn a_wrapped_chunk_index_still_runs_once_its_key_is_published() {
    use PipelineInstruction::{Forward, ForwardChunk};
    let wrapped = ForwardChunk {
        chunk: 0x5555_5555_5555_5556,
        microbatch: 0,
    };
    let streams = vec![
        vec![Forward { microbatch: 0 }],
        vec![Forward { microbatch: 0 }, wrapped],
        vec![Forward { microbatch: 0 }],
    ];
    let cfg = config(ScheduleKind::OneFOneB, 3, 1, &[(5, 9, 0)], 2);
    let tagged: Vec<Vec<(usize, PipelineInstruction)>> = streams
        .iter()
        .map(|s| s.iter().map(|&i| (0, i)).collect())
        .collect();
    assert_eq!(reference_simulate(&cfg, &tagged).map(|_| ()), Ok(()));
    assert_eq!(cfg.execute_streams(&streams), Ok(()));
}
