//! Bubble lower bound: the engine's own steady-state evaluation of the
//! stream text.
//!
//! Each instruction occurrence's earliest start time satisfies
//!
//! ```text
//! start(n) = max(end(program-order predecessor),
//!                end(dependency producer) [+ comm if cross-device])
//! ```
//!
//! which over an acyclic graph is a longest-path computation — exactly
//! the recurrence the engine's in-order list scheduler evaluates. So the
//! bound is [`EngineConfig::timeline_of`] applied to the parsed streams:
//! the same four iterations, durations, dependency keys and steady-state
//! extraction, which makes the bubble fraction
//! [`EngineTimeline::bubble_ratio`] bit-for-bit by construction. The
//! engine list-schedules iteration 0 and replays the other three in its
//! order: with one producer per key a longest path does not depend on
//! the order it is evaluated in, and a set with a duplicated producer,
//! where order would matter, is list-scheduled in full. This module only
//! maps the engine's failures to findings in stream-file vocabulary.

use pipefill_pipeline::{EngineConfig, EngineError, EngineTimeline};
use pipefill_sim_core::SimDuration;

use crate::stream::{token, StreamSet};
use crate::{Finding, Property};

/// The steady-state quantities the longest-path analysis proves.
#[derive(Debug, Clone, PartialEq)]
pub struct CritPath {
    /// Iteration period: the steady-state distance between consecutive
    /// iteration starts on stage 0.
    pub period: SimDuration,
    /// Per-stage busy time within one steady-state period.
    pub busy: Vec<SimDuration>,
    /// Fraction of all device time spent idle: the engine's
    /// `bubble_ratio`.
    pub bubble_fraction: f64,
}

/// Evaluates the stream set's steady state with the engine's list
/// scheduler.
///
/// # Errors
///
/// A finding when no steady state exists to bound: see [`read`].
pub fn analyze(set: &StreamSet, engine: &EngineConfig) -> Result<CritPath, Finding> {
    read(engine.timeline_of(&set.streams))
}

/// The steady-state quantities of one engine run of the streams
/// ([`EngineConfig::timeline_of`]).
///
/// # Errors
///
/// A finding when no steady state exists to bound: the unrolled streams
/// wedge, an iteration has no busy instruction on some stage, or
/// consecutive iterations disagree on the period.
pub fn read(run: Result<EngineTimeline, EngineError>) -> Result<CritPath, Finding> {
    let tl = run.map_err(|e| match e {
        EngineError::Deadlock {
            stage,
            position,
            instruction,
            ..
        } => Finding::on_device(
            Property::Deadlock,
            stage,
            format!(
                "longest-path evaluation wedged at position {position} ({})",
                token(instruction)
            ),
        ),
        EngineError::IdleIteration { stage, iteration } => Finding::on_device(
            Property::Bubble,
            stage,
            format!(
                "iteration {iteration} has no busy instruction, so there is \
                 no steady-state period to bound"
            ),
        ),
        EngineError::NonPeriodic { .. } => Finding::on_device(Property::Bubble, 0, e.to_string()),
    })?;
    Ok(CritPath {
        period: tl.period,
        busy: tl.stages.iter().map(|st| st.busy).collect(),
        bubble_fraction: tl.bubble_ratio(),
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
