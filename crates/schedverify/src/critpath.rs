//! Bubble lower bound via longest paths through the weighted dependency
//! DAG.
//!
//! Each instruction occurrence's earliest start time satisfies
//!
//! ```text
//! start(n) = max(end(program-order predecessor),
//!                end(dependency producer) [+ comm if cross-device])
//! ```
//!
//! which over an acyclic graph is exactly a longest-path computation —
//! and *identical* to the recurrence the engine's in-order list
//! scheduler evaluates (`start = free[s].max(dep)`). Evaluating it here
//! over the same unrolled iterations, durations
//! ([`EngineConfig::instruction_duration`]) and dependency keys
//! ([`pipefill_pipeline::deps`]) therefore reproduces the engine's
//! steady-state period and per-stage busy time as integers, making the
//! derived bubble fraction equal [`EngineTimeline::bubble_ratio`]
//! bit-for-bit — proven statically, from the stream text alone.
//!
//! [`EngineTimeline::bubble_ratio`]: pipefill_pipeline::EngineTimeline::bubble_ratio

use pipefill_pipeline::deps::{self, DepEdge, DepKey, DepSlots};
use pipefill_pipeline::EngineConfig;
use pipefill_sim_core::{SimDuration, SimTime};

use crate::stream::{token, StreamSet};
use crate::{Finding, Property};

/// Iterations unrolled before reading off the steady state — the same
/// horizon the engine simulates (its `SIM_ITERATIONS`/`STEADY_ITER`).
const ITERATIONS: usize = 4;
const STEADY_ITER: usize = 2;

/// One stream position of the weighted dependency DAG.
struct Node {
    waits_on: Option<DepEdge>,
    publishes: Option<DepKey>,
    weight: SimDuration,
}

/// The steady-state quantities the longest-path analysis proves.
#[derive(Debug, Clone, PartialEq)]
pub struct CritPath {
    /// Iteration period: the steady-state distance between consecutive
    /// iteration starts on stage 0.
    pub period: SimDuration,
    /// Per-stage busy time within one steady-state period.
    pub busy: Vec<SimDuration>,
    /// Fraction of all device time spent idle — computed with the same
    /// integer sums and single division as the engine's `bubble_ratio`.
    pub bubble_fraction: f64,
}

/// Runs the longest-path analysis over `ITERATIONS` unrolled copies of
/// the stream set.
///
/// # Errors
///
/// A finding when no steady state exists to bound: the unrolled graph
/// wedges (unreachable after [`crate::graph::check`] passes — kept as a
/// defensive invariant), an iteration has no busy instruction on some
/// stage, or consecutive iterations disagree on the period.
pub fn analyze(set: &StreamSet, engine: &EngineConfig) -> Result<CritPath, Finding> {
    let p = set.stages();
    let chunks = set.chunks;
    // The weighted DAG, one node per stream position: the key it waits
    // on, the key it publishes and how long it runs. Every unrolled
    // iteration replays the same nodes.
    let nodes: Vec<Vec<Node>> = set
        .streams
        .iter()
        .enumerate()
        .map(|(s, stream)| {
            stream
                .iter()
                .map(|&instr| Node {
                    waits_on: deps::consumed(instr, s, p, chunks),
                    publishes: deps::produced(instr, s, p),
                    weight: engine.instruction_duration(instr, s),
                })
                .collect()
        })
        .collect();

    // Earliest-start evaluation, iteration-tagged exactly like the
    // engine: key availability is per (iteration, DepKey). A stage that
    // reaches an unpublished key waits until that key's one consumer
    // device is woken by its publication; longest paths do not depend on
    // the order ready stages are evaluated in.
    let total: usize = set.instruction_count() * ITERATIONS;
    let mut done = DepSlots::new(p, chunks, set.microbatches, ITERATIONS, total);
    let mut free = vec![SimTime::ZERO; p];
    // Per stage: (start, end) per evaluated occurrence of the unrolled
    // stream, so occurrence `k` is iteration `k / len` at position
    // `k % len`.
    let mut records: Vec<Vec<(SimTime, SimTime)>> = set
        .streams
        .iter()
        .map(|s| Vec::with_capacity(s.len() * ITERATIONS))
        .collect();
    let mut waiting = vec![false; p];
    let mut ready: Vec<usize> = (0..p).rev().collect();
    let mut settled = usize::MAX;

    loop {
        while let Some(s) = ready.pop() {
            let stream = &nodes[s];
            if stream.is_empty() {
                continue;
            }
            let evaluated = records[s].len();
            let (mut iter, mut pos) = (evaluated / stream.len(), evaluated % stream.len());
            while iter < ITERATIONS {
                let node = &stream[pos];
                let dep = match node.waits_on {
                    None => SimTime::ZERO,
                    Some(edge) => match done.get(iter, edge.key) {
                        Some(t) if edge.crosses_device => t + engine.comm,
                        Some(t) => t,
                        None => {
                            waiting[s] = true;
                            break;
                        }
                    },
                };
                let start = free[s].max(dep);
                let end = start + node.weight;
                if let Some(key) = node.publishes {
                    done.insert(iter, key, end);
                    let consumer = deps::consumer_device(key, p);
                    if std::mem::take(&mut waiting[consumer]) {
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
        }
        // Every stage is finished or waiting. Re-examine the waiting ones
        // once (a wrapped virtual-stage index can miss its wake-up) and
        // stop when a round evaluates nothing new.
        let evaluated = records.iter().map(Vec::len).sum();
        if evaluated == settled {
            break;
        }
        settled = evaluated;
        for s in (0..p).rev() {
            if std::mem::take(&mut waiting[s]) {
                ready.push(s);
            }
        }
        if ready.is_empty() {
            break;
        }
    }
    if let Some(s) = (0..p).find(|&s| records[s].len() < set.streams[s].len() * ITERATIONS) {
        let position = records[s].len() % set.streams[s].len();
        return Err(Finding::on_device(
            Property::Deadlock,
            s,
            format!(
                "longest-path evaluation wedged at position {position} ({})",
                token(set.streams[s][position])
            ),
        ));
    }

    // Steady state: iteration k starts (per stage) at its first busy
    // instruction; the stage-0 deltas must agree across iterations.
    let iteration = |s: usize, k: usize| {
        let len = set.streams[s].len();
        &records[s][k * len..(k + 1) * len]
    };
    let iter_start = |s: usize, k: usize| -> Result<SimTime, Finding> {
        iteration(s, k)
            .iter()
            .find(|&&(start, end)| end > start)
            .map(|&(start, _)| start)
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
    for s in 0..p {
        let window = iter_start(s, STEADY_ITER + 1)? - iter_start(s, STEADY_ITER)?;
        let stage_busy: SimDuration = iteration(s, STEADY_ITER)
            .iter()
            .filter(|&&(start, end)| end > start)
            .map(|&(start, end)| end - start)
            .sum();
        total_bubble += window - stage_busy;
        busy.push(stage_busy);
    }
    let bubble_fraction = total_bubble.ratio(period * p as u64);
    Ok(CritPath {
        period,
        busy,
        bubble_fraction,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_pipeline::ScheduleKind;

    fn ms(x: u64) -> SimDuration {
        SimDuration::from_millis(x)
    }

    #[test]
    fn reproduces_the_engine_exactly_for_builtins() {
        for kind in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved { chunks: 2 },
            ScheduleKind::ZbH1,
        ] {
            for (p, m) in [(2, 4), (4, 8), (8, 16)] {
                let cfg = EngineConfig::uniform(kind, p, m, ms(10), ms(20));
                let set = StreamSet::from_schedule(kind, p, m);
                let crit = analyze(&set, &cfg).unwrap_or_else(|f| panic!("{kind}: {f:?}"));
                let tl = cfg.run();
                assert_eq!(crit.period, tl.period, "{kind} p={p} m={m}");
                // Bit-for-bit: same integer dividend and divisor, same
                // single f64 division.
                assert_eq!(
                    crit.bubble_fraction.to_bits(),
                    tl.bubble_ratio().to_bits(),
                    "{kind} p={p} m={m}: {} vs {}",
                    crit.bubble_fraction,
                    tl.bubble_ratio()
                );
                for (s, st) in tl.stages.iter().enumerate() {
                    assert_eq!(crit.busy[s], st.busy, "{kind} p={p} m={m} stage {s}");
                }
            }
        }
    }

    #[test]
    fn comm_latency_flows_through_cross_device_edges() {
        let mut cfg = EngineConfig::uniform(ScheduleKind::OneFOneB, 4, 8, ms(10), ms(20));
        cfg.comm = SimDuration::from_micros(500);
        let set = StreamSet::from_schedule(ScheduleKind::OneFOneB, 4, 8);
        let crit = analyze(&set, &cfg).expect("analyzes");
        let tl = cfg.run();
        assert_eq!(crit.period, tl.period);
        assert_eq!(crit.bubble_fraction.to_bits(), tl.bubble_ratio().to_bits());
    }

    #[test]
    fn single_device_pipeline_has_no_bubbles() {
        let cfg = EngineConfig::uniform(ScheduleKind::GPipe, 1, 4, ms(10), ms(20));
        let set = StreamSet::from_schedule(ScheduleKind::GPipe, 1, 4);
        let crit = analyze(&set, &cfg).expect("analyzes");
        assert_eq!(crit.bubble_fraction, 0.0);
        assert_eq!(crit.busy[0], crit.period);
    }

    #[test]
    fn all_idle_streams_are_rejected_not_divided_by_zero() {
        let set = StreamSet::parse(
            "stages = 1\nmicrobatches = 1\ndevice_0 = \"sync opt bubble:fill-drain\"\n",
        )
        .expect("parses");
        let cfg = EngineConfig::uniform(ScheduleKind::OneFOneB, 1, 1, ms(10), ms(20));
        let finding = analyze(&set, &cfg).expect_err("no busy instruction");
        assert!(finding.message.contains("no busy instruction"));
    }
}
