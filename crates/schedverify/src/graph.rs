//! Deadlock explanation: the dependency cycle behind a wedge the engine
//! reports.
//!
//! The engine decides deadlock-freedom by running the streams
//! ([`EngineConfig::timeline_of`]); this module only says why a wedged
//! run wedged. An instruction waits on (a) the one before it on its
//! device — the engine executes each stream strictly in order — and
//! (b) the producer of the inter-stage key it consumes, keyed exactly as
//! the engine keys execution via [`pipefill_pipeline::deps`]. Past the
//! prefix of iteration 0 each device ran, every instruction is stuck, and
//! every stuck instruction keeps a stuck predecessor (else it would have
//! run), so walking stuck predecessors must close a cycle.
//!
//! [`EngineConfig::timeline_of`]: pipefill_pipeline::EngineConfig::timeline_of

use std::collections::BTreeMap;

use pipefill_pipeline::deps::{self, DepSlots};

use crate::stream::{token, StreamSet};
use crate::{Finding, Property};

/// Location of an instruction: `(device, position)`.
type Loc = (usize, usize);

/// Spells out one dependency cycle among the instructions a wedged run
/// left stuck, given `ran`, how many positions of iteration 0 each device
/// ran ([`EngineError::Deadlock`]).
///
/// The walk starts at the first stuck instruction in device-major order
/// and steps to a stuck predecessor — program order before the
/// dependency — until an instruction repeats.
///
/// # Panics
///
/// Panics if a stuck instruction waits on a key nothing publishes (a
/// set that passes [`crate::wellformed::check`] publishes every key it
/// consumes), or if `ran` is not the engine's report of a wedge on
/// `set`.
///
/// [`EngineError::Deadlock`]: pipefill_pipeline::EngineError::Deadlock
pub fn explain(set: &StreamSet, ran: &[usize]) -> Finding {
    let p = set.stages();
    // Each key's publishing instruction, in dense slots. Well-formedness
    // pins producers to one occurrence per key. No instruction sits at
    // position `usize::MAX`, so that location marks a vacant slot.
    let mut producer: DepSlots<Loc> = DepSlots::new(
        p,
        set.chunks,
        set.microbatches,
        1,
        set.instruction_count(),
        (usize::MAX, usize::MAX),
    );
    for (s, stream) in set.streams.iter().enumerate() {
        for (i, &instr) in stream.iter().enumerate() {
            if let Some(key) = deps::produced(instr, s, p) {
                producer.insert(0, key, (s, i));
            }
        }
    }
    let stuck = |(s, i): Loc| i >= ran[s];
    // A stuck instruction's predecessors in the order the walk tries
    // them: program order first, then the dependency.
    let stuck_pred = |(s, i): Loc| -> Loc {
        let program = (i > 0).then(|| (s, i - 1));
        let dependency = deps::consumed(set.streams[s][i], s, p, set.chunks).map(|edge| {
            producer
                .get(0, edge.key)
                .expect("well-formed sets publish every key they consume")
        });
        program
            .into_iter()
            .chain(dependency)
            .find(|&q| stuck(q))
            .expect("stuck instructions retain a stuck predecessor")
    };

    let start = (0..p)
        .find(|&s| ran[s] < set.streams[s].len())
        .map(|s| (s, ran[s]))
        .expect("a wedge leaves an instruction stuck");
    let mut path = vec![start];
    let mut on_path = BTreeMap::from([(start, 0)]);
    let cycle = loop {
        let back = stuck_pred(*path.last().expect("path starts non-empty"));
        if let Some(&at) = on_path.get(&back) {
            let mut cycle = path.split_off(at);
            // Walking predecessors built the path in reverse dependency
            // order; reverse so the report reads "runs before".
            cycle.reverse();
            break cycle;
        }
        on_path.insert(back, path.len());
        path.push(back);
    };
    let rendered: Vec<String> = cycle
        .iter()
        .map(|&(s, i)| format!("dev{s}[{i}] {}", token(set.streams[s][i])))
        .collect();
    Finding::on_device(
        Property::Deadlock,
        cycle[0].0,
        format!(
            "dependency cycle among {} instructions: {} -> back to start",
            cycle.len(),
            rendered.join(" -> ")
        ),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::VerifyConfig;
    use pipefill_pipeline::EngineError;
    use pipefill_sim_core::SimDuration;

    /// The explanation of the wedge the engine reports on a stream file.
    fn explained(text: &str) -> Finding {
        let set = StreamSet::parse(text).expect("parses");
        let ms = SimDuration::from_millis;
        let engine = VerifyConfig::new(ms(10), ms(20)).engine_config(&set);
        match engine.timeline_of(&set.streams) {
            Err(EngineError::Deadlock { ran, .. }) => explain(&set, &ran),
            other => panic!("expected a wedge, got {other:?}"),
        }
    }

    #[test]
    fn classic_wedge_is_reported_as_a_cycle() {
        // dev0 wants B0 before emitting F1, but dev1 wants F1 before it
        // will run the F0/B0 pair dev0's B0 is waiting on: dev0[1] B0 →
        // (program order) dev0[2] F1 → dev1[0] F1 → dev1[2] B0 →
        // dev0[1] B0 again.
        let finding = explained(
            "stages = 2\nmicrobatches = 2\n\
             device_0 = \"F0 B0 F1 B1\"\n\
             device_1 = \"F1 F0 B0 B1\"\n",
        );
        assert!(finding.message.contains("dependency cycle"), "{finding:?}");
        assert!(finding.message.contains("dev0[1] B0"), "{finding:?}");
    }

    /// The exact cycle text: the walk starts at the first stuck node and
    /// tries each node's program-order predecessor before its dependency.
    #[test]
    fn cycle_reports_are_pinned_word_for_word() {
        for (text, device, cycle) in [
            (
                "stages = 2\nmicrobatches = 2\n\
                 device_0 = \"F0 B0 F1 B1\"\ndevice_1 = \"F1 F0 B0 B1\"\n",
                0,
                "dependency cycle among 5 instructions: dev0[2] F1 -> dev1[0] F1 -> \
                 dev1[1] F0 -> dev1[2] B0 -> dev0[1] B0 -> back to start",
            ),
            (
                "stages = 2\nmicrobatches = 1\nchunks = 2\n\
                 device_0 = \"F0.0 B1.0 F1.0 B0.0\"\ndevice_1 = \"F0.0 F1.0 B1.0 B0.0\"\n",
                0,
                "dependency cycle among 4 instructions: dev0[2] F1.0 -> dev1[1] F1.0 -> \
                 dev1[2] B1.0 -> dev0[1] B1.0 -> back to start",
            ),
            (
                "stages = 3\nmicrobatches = 2\ndevice_0 = \"F0 F1 B0 B1\"\n\
                 device_1 = \"F0 B0 F1 B1\"\ndevice_2 = \"F1 B1 F0 B0\"\n",
                1,
                "dependency cycle among 6 instructions: dev1[2] F1 -> dev2[0] F1 -> \
                 dev2[1] B1 -> dev2[2] F0 -> dev2[3] B0 -> dev1[1] B0 -> back to start",
            ),
            // Here the walk meets nodes whose program-order predecessor
            // and dependency are both stuck; trying the dependency first
            // would report a 5-instruction cycle instead.
            (
                "stages = 2\nmicrobatches = 5\n\
                 device_0 = \"F0 B2 B0 F2 B1 F3 F1 F4 B3 B4\"\n\
                 device_1 = \"F0 B0 F1 B1 F2 B2 F3 B3 F4 B4\"\n",
                0,
                "dependency cycle among 10 instructions: dev0[2] B0 -> dev0[3] F2 -> \
                 dev0[4] B1 -> dev0[5] F3 -> dev0[6] F1 -> dev1[2] F1 -> dev1[3] B1 -> \
                 dev1[4] F2 -> dev1[5] B2 -> dev0[1] B2 -> back to start",
            ),
        ] {
            assert_eq!(
                explained(text),
                Finding::on_device(Property::Deadlock, device, cycle.to_string())
            );
        }
    }
}
