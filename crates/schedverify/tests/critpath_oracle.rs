//! Reference oracle for the longest-path analysis.
//!
//! `reference_analyze` evaluates the start-time recurrence the
//! straightforward way: poll every stage round-robin until none
//! progresses, with end times in an ordered map keyed by `(iteration,
//! DepKey)`. `critpath::analyze` evaluates it with wake-on-publish list
//! scheduling over dense dependency slots; over random schedules, shapes
//! (including `m < p` and `p = 1`), non-uniform stage times, comm latency
//! and order-scrambling mutations, both must prove the same period, the
//! same per-stage busy times and the same bubble-fraction bits — or
//! report the same finding.

use std::collections::BTreeMap;

use proptest::prelude::*;

use pipefill_pipeline::deps::{self, DepKey};
use pipefill_pipeline::{EngineConfig, PipelineInstruction, ScheduleKind};
use pipefill_schedverify::critpath;
use pipefill_schedverify::{Finding, Property, StreamSet};
use pipefill_sim_core::{SimDuration, SimTime};

const ITERATIONS: usize = 4;
const STEADY_ITER: usize = 2;

/// What the analysis proves, with the fraction by its bits.
type Proof = (SimDuration, Vec<SimDuration>, u64);

fn reference_analyze(set: &StreamSet, engine: &EngineConfig) -> Result<Proof, Finding> {
    let p = set.stages();
    let chunks = set.chunks;
    let mut done: BTreeMap<(usize, DepKey), SimTime> = BTreeMap::new();
    let mut next = vec![0usize; p];
    let mut free = vec![SimTime::ZERO; p];
    let mut records: Vec<Vec<(usize, SimTime, SimTime)>> = vec![Vec::new(); p];
    let total = set.instruction_count() * ITERATIONS;
    let at = |stream: &[PipelineInstruction], flat: usize| -> (usize, PipelineInstruction) {
        (flat / stream.len(), stream[flat % stream.len()])
    };
    loop {
        let mut progressed = false;
        for s in 0..p {
            let stream = &set.streams[s];
            while next[s] < stream.len() * ITERATIONS {
                let (iter, instr) = at(stream, next[s]);
                let dep = match deps::consumed(instr, s, p, chunks) {
                    None => SimTime::ZERO,
                    Some(edge) => match done.get(&(iter, edge.key)) {
                        Some(&t) if edge.crosses_device => t + engine.comm,
                        Some(&t) => t,
                        None => break,
                    },
                };
                let start = free[s].max(dep);
                let end = start + engine.instruction_duration(instr, s);
                if let Some(key) = deps::produced(instr, s, p) {
                    done.insert((iter, key), end);
                }
                records[s].push((iter, start, end));
                free[s] = end;
                next[s] += 1;
                progressed = true;
            }
        }
        if !progressed {
            break;
        }
    }
    if next.iter().sum::<usize>() < total {
        let s = (0..p)
            .find(|&s| next[s] < set.streams[s].len() * ITERATIONS)
            .expect("some stage is short");
        let (_, instr) = at(&set.streams[s], next[s]);
        return Err(Finding::on_device(
            Property::Deadlock,
            s,
            format!(
                "longest-path evaluation wedged at position {} ({})",
                next[s] % set.streams[s].len(),
                pipefill_schedverify::stream::token(instr)
            ),
        ));
    }
    let iter_start = |s: usize, k: usize| -> Result<SimTime, Finding> {
        records[s]
            .iter()
            .find(|&&(iter, start, end)| iter == k && end > start)
            .map(|&(_, start, _)| start)
            .ok_or_else(|| {
                Finding::on_device(
                    Property::Bubble,
                    s,
                    format!(
                        "iteration {k} has no busy instruction, so there is \
                         no steady-state period to bound"
                    ),
                )
            })
    };
    let t0 = iter_start(0, STEADY_ITER)?;
    let period = iter_start(0, STEADY_ITER + 1)? - t0;
    let prev_period = t0 - iter_start(0, STEADY_ITER - 1)?;
    if period != prev_period {
        return Err(Finding::on_device(
            Property::Bubble,
            0,
            format!(
                "not periodic by iteration {STEADY_ITER}: consecutive \
                 iteration starts are {prev_period} then {period} apart"
            ),
        ));
    }
    let mut busy = Vec::with_capacity(p);
    let mut total_bubble = SimDuration::ZERO;
    for (s, stage_records) in records.iter().enumerate() {
        let window = iter_start(s, STEADY_ITER + 1)? - iter_start(s, STEADY_ITER)?;
        let stage_busy: SimDuration = stage_records
            .iter()
            .filter(|&&(iter, start, end)| iter == STEADY_ITER && end > start)
            .map(|&(_, start, end)| end - start)
            .sum();
        total_bubble += window - stage_busy;
        busy.push(stage_busy);
    }
    Ok((
        period,
        busy,
        total_bubble.ratio(period * p as u64).to_bits(),
    ))
}

fn analyze(set: &StreamSet, engine: &EngineConfig) -> Result<Proof, Finding> {
    critpath::analyze(set, engine).map(|c| (c.period, c.busy, c.bubble_fraction.to_bits()))
}

fn schedule() -> impl Strategy<Value = ScheduleKind> {
    prop_oneof![
        Just(ScheduleKind::GPipe),
        Just(ScheduleKind::OneFOneB),
        Just(ScheduleKind::Interleaved { chunks: 2 }),
        Just(ScheduleKind::Interleaved { chunks: 3 }),
        Just(ScheduleKind::ZbH1),
    ]
}

/// An engine config with per-stage times cycled from `times`.
fn engine(
    kind: ScheduleKind,
    p: usize,
    m: usize,
    times: &[(u64, u64)],
    comm_us: u64,
) -> EngineConfig {
    let us = SimDuration::from_micros;
    let mut cfg = EngineConfig::uniform(kind, p, m, us(1), us(1));
    cfg.stage_fwd = (0..p).map(|s| us(times[s % times.len()].0)).collect();
    cfg.stage_bwd = (0..p).map(|s| us(times[s % times.len()].1)).collect();
    cfg.comm = us(comm_us);
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Swapping instructions within a device keeps every key's producer
    /// unique, so the recurrence has one solution: the two evaluations
    /// must agree exactly, findings included (swaps can wedge a set or
    /// break its periodicity).
    #[test]
    fn analyze_matches_the_round_robin_reference(
        kind in schedule(),
        p in 1usize..9,
        m in 1usize..12,
        times in prop::collection::vec((1u64..40, 1u64..80), 1..5),
        comm_us in prop_oneof![Just(0u64), 1u64..30],
        swaps in prop::collection::vec((0usize..1_000, 0usize..1_000, 0usize..1_000), 0..4),
    ) {
        let mut set = StreamSet::from_schedule(kind, p, m);
        for &(d, i, j) in &swaps {
            let stream = &mut set.streams[d % p];
            let len = stream.len();
            stream.swap(i % len, j % len);
        }
        let cfg = engine(kind, p, m, &times, comm_us);
        prop_assert_eq!(
            analyze(&set, &cfg),
            reference_analyze(&set, &cfg),
            "{} p={} m={} swaps {:?}",
            kind,
            p,
            m,
            swaps
        );
    }
}

/// Shapes the random draws reach rarely: one stage, one microbatch, and
/// far fewer microbatches than stages.
#[test]
fn degenerate_shapes_match_the_reference() {
    for kind in ScheduleKind::ALL
        .into_iter()
        .chain([ScheduleKind::Interleaved { chunks: 4 }])
    {
        for (p, m) in [(1, 1), (1, 5), (2, 1), (8, 1), (9, 2), (16, 3)] {
            let set = StreamSet::from_schedule(kind, p, m);
            let cfg = engine(kind, p, m, &[(7, 15), (11, 19), (5, 9)], 3);
            let proof = analyze(&set, &cfg);
            assert!(proof.is_ok(), "{kind} p={p} m={m}: {proof:?}");
            assert_eq!(proof, reference_analyze(&set, &cfg), "{kind} p={p} m={m}");
        }
    }
}

/// A chunk index so large that `chunk · p + stage` wraps (release builds
/// only; debug builds panic on the overflow) makes device 1 wait on a key
/// whose consumer device is 0, so its wake-up is missed; the fixpoint
/// retry must still evaluate it exactly as the reference does.
#[cfg(not(debug_assertions))]
#[test]
fn a_wrapped_chunk_index_still_evaluates_once_its_key_is_published() {
    use PipelineInstruction::{Forward, ForwardChunk};
    let wrapped = ForwardChunk {
        chunk: 0x5555_5555_5555_5556,
        microbatch: 0,
    };
    let set = StreamSet {
        streams: vec![
            vec![Forward { microbatch: 0 }],
            vec![Forward { microbatch: 0 }, wrapped],
            vec![Forward { microbatch: 0 }],
        ],
        microbatches: 1,
        chunks: 1,
    };
    let cfg = engine(ScheduleKind::OneFOneB, 3, 1, &[(5, 9)], 2);
    let reference = reference_analyze(&set, &cfg);
    assert!(
        !matches!(&reference, Err(f) if f.property == Property::Deadlock),
        "{reference:?}"
    );
    assert_eq!(analyze(&set, &cfg), reference);
}
