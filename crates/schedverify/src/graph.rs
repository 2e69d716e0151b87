//! Deadlock-freedom: acyclicity of the cross-device dependency graph.
//!
//! Nodes are instruction occurrences; edges are (a) intra-device program
//! order — the engine executes each stream strictly in order — and
//! (b) inter-stage activation/gradient hand-offs, keyed exactly as the
//! engine keys its end-time maps via [`pipefill_pipeline::deps`]. A
//! stream set deadlocks under in-order execution **iff** this graph has
//! a cycle or an instruction waits on a key nothing publishes; proving
//! the graph acyclic therefore proves the engine completes, without
//! running it.

use pipefill_pipeline::deps::{self, DepKey, DepSlots};

use crate::stream::{token, StreamSet};
use crate::{Finding, Property};

/// Size of the verified graph, reported in certificates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphStats {
    /// Instruction occurrences.
    pub nodes: usize,
    /// Inter-stage dependency edges (program-order edges excluded — they
    /// are implied by the stream layout).
    pub dependency_edges: usize,
}

/// Location of a node: `(device, position)`.
type Loc = (usize, usize);

/// No node: an absent predecessor, or a node not on the cycle walk.
const NONE: usize = usize::MAX;

/// Proves the dependency graph acyclic, or reports why it is not.
///
/// # Errors
///
/// One finding per unsatisfiable dependency (a consumed key nothing
/// publishes), or a single finding spelling out an offending cycle.
pub fn check(set: &StreamSet) -> Result<GraphStats, Vec<Finding>> {
    let p = set.stages();
    let chunks = set.chunks;

    // Node ids: device-major, position-minor.
    let offsets: Vec<usize> = set
        .streams
        .iter()
        .scan(0usize, |acc, s| {
            let o = *acc;
            *acc += s.len();
            Some(o)
        })
        .collect();
    let nodes: usize = set.instruction_count();
    let loc = |id: usize| -> Loc {
        let s = offsets.iter().rposition(|&o| o <= id).unwrap_or(0);
        (s, id - offsets[s])
    };

    // Producer index: each key's publishing node, in dense slots.
    // Well-formedness has already pinned producers to one occurrence per
    // key; should there be more, the first in node order wins.
    let mut producer: DepSlots<usize> = DepSlots::new(p, chunks, set.microbatches, 1, nodes);
    for (s, stream) in set.streams.iter().enumerate() {
        for (i, &instr) in stream.iter().enumerate() {
            if let Some(key) = deps::produced(instr, s, p) {
                if producer.get(0, key).is_none() {
                    producer.insert(0, key, offsets[s] + i);
                }
            }
        }
    }

    // Predecessors, flat: every node has at most a program-order
    // predecessor (the node before it on its device) and one dependency
    // predecessor (its key's producer).
    let mut first_on_device = vec![false; nodes];
    let mut dep_pred = vec![NONE; nodes];
    let mut findings = Vec::new();
    let mut dependency_edges = 0usize;
    for (s, stream) in set.streams.iter().enumerate() {
        if !stream.is_empty() {
            first_on_device[offsets[s]] = true;
        }
        for (i, &instr) in stream.iter().enumerate() {
            let Some(edge) = deps::consumed(instr, s, p, chunks) else {
                continue;
            };
            match producer.get(0, edge.key) {
                Some(src) => {
                    dep_pred[offsets[s] + i] = src;
                    dependency_edges += 1;
                }
                None => findings.push(Finding::on_device(
                    Property::Deadlock,
                    s,
                    format!(
                        "position {i} ({}) waits on {} which no instruction publishes",
                        token(instr),
                        render_key(edge.key)
                    ),
                )),
            }
        }
    }
    if !findings.is_empty() {
        return Err(findings);
    }
    // Predecessors in the order the cycle walk tries them: program order
    // first, then the dependency.
    let preds = |id: usize| {
        let program = (!first_on_device[id]).then(|| id - 1);
        program
            .into_iter()
            .chain((dep_pred[id] != NONE).then_some(dep_pred[id]))
    };

    // Kahn's algorithm over CSR successor lists; whatever it cannot pop
    // is a cycle (every stuck node retains a stuck predecessor).
    let mut indegree: Vec<u8> = (0..nodes).map(|id| preds(id).count() as u8).collect();
    let mut succ_start = vec![0usize; nodes + 1];
    for id in 0..nodes {
        for src in preds(id) {
            succ_start[src + 1] += 1;
        }
    }
    for id in 0..nodes {
        succ_start[id + 1] += succ_start[id];
    }
    let mut succs = vec![0usize; succ_start[nodes]];
    let mut fill = succ_start.clone();
    for id in 0..nodes {
        for src in preds(id) {
            succs[fill[src]] = id;
            fill[src] += 1;
        }
    }
    let mut ready: Vec<usize> = (0..nodes).filter(|&id| indegree[id] == 0).collect();
    let mut popped = 0usize;
    let mut done = vec![false; nodes];
    while let Some(id) = ready.pop() {
        done[id] = true;
        popped += 1;
        for &next in &succs[succ_start[id]..succ_start[id + 1]] {
            indegree[next] -= 1;
            if indegree[next] == 0 {
                ready.push(next);
            }
        }
    }
    if popped == nodes {
        return Ok(GraphStats {
            nodes,
            dependency_edges,
        });
    }

    // Extract one concrete cycle: from the first stuck node, repeatedly
    // step to a stuck predecessor until a node repeats.
    let start = done
        .iter()
        .position(|&d| !d)
        .expect("popped < nodes implies a stuck node");
    let mut path = vec![start];
    let mut on_path = vec![NONE; nodes];
    on_path[start] = 0;
    let cycle = loop {
        let cur = *path.last().expect("path starts non-empty");
        let back = preds(cur)
            .find(|&q| !done[q])
            .expect("stuck nodes retain a stuck predecessor");
        if on_path[back] != NONE {
            let mut cycle = path.split_off(on_path[back]);
            // Walking predecessors built the path in reverse dependency
            // order; reverse so the report reads "runs before".
            cycle.reverse();
            break cycle;
        }
        on_path[back] = path.len();
        path.push(back);
    };
    let rendered: Vec<String> = cycle
        .iter()
        .map(|&id| {
            let (s, i) = loc(id);
            format!("dev{s}[{i}] {}", token(set.streams[s][i]))
        })
        .collect();
    let (s0, _) = loc(cycle[0]);
    Err(vec![Finding::on_device(
        Property::Deadlock,
        s0,
        format!(
            "dependency cycle among {} instructions: {} -> back to start",
            cycle.len(),
            rendered.join(" -> ")
        ),
    )])
}

fn render_key(key: DepKey) -> String {
    match key {
        DepKey::Fwd { vs, microbatch } => {
            format!("the activation of microbatch {microbatch} from virtual stage {vs}")
        }
        DepKey::Bwd { vs, microbatch } => {
            format!("the gradient of microbatch {microbatch} from virtual stage {vs}")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_pipeline::ScheduleKind;

    #[test]
    fn builtins_are_acyclic() {
        for kind in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved { chunks: 2 },
            ScheduleKind::ZbH1,
        ] {
            let set = StreamSet::from_schedule(kind, 4, 8);
            let stats = check(&set).unwrap_or_else(|f| panic!("{kind}: {f:?}"));
            assert_eq!(stats.nodes, set.instruction_count());
            assert!(stats.dependency_edges > 0, "{kind}");
        }
    }

    #[test]
    fn classic_wedge_is_reported_as_a_cycle() {
        // dev0 wants B0 before emitting F1, but dev1 wants F1 before it
        // will run the F0/B0 pair dev0's B0 is waiting on: dev0[1] B0 →
        // (program order) dev0[2] F1 → dev1[0] F1 → dev1[2] B0 →
        // dev0[1] B0 again.
        let set = StreamSet::parse(
            "stages = 2\nmicrobatches = 2\n\
             device_0 = \"F0 B0 F1 B1\"\n\
             device_1 = \"F1 F0 B0 B1\"\n",
        )
        .expect("parses");
        let findings = check(&set).expect_err("wedged");
        assert_eq!(findings.len(), 1);
        assert!(
            findings[0].message.contains("dependency cycle"),
            "{findings:?}"
        );
        assert!(findings[0].message.contains("dev0[1] B0"), "{findings:?}");
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
            let set = StreamSet::parse(text).expect("parses");
            let findings = check(&set).expect_err("wedged");
            assert_eq!(
                findings,
                vec![Finding::on_device(
                    Property::Deadlock,
                    device,
                    cycle.to_string()
                )]
            );
        }
    }

    #[test]
    fn unsatisfiable_keys_are_reported_per_instruction() {
        // Stage 0 never forwards microbatch 0, so stage 1's F0 waits on
        // an activation nothing publishes — starvation, not a cycle.
        let set = StreamSet::parse(
            "stages = 2\nmicrobatches = 1\n\
             device_0 = \"B0\"\n\
             device_1 = \"F0 B0\"\n",
        )
        .expect("parses");
        let findings = check(&set).expect_err("starved");
        assert!(
            findings
                .iter()
                .any(|f| f.message.contains("no instruction publishes")),
            "{findings:?}"
        );
    }
}
