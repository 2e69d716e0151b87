//! Completeness and well-formedness: every microbatch's compute appears
//! exactly once per stage (per chunk), in a legal per-microbatch order.
//!
//! This is the verifier's first gate. The later analyses (dependency
//! graph, memory envelope, critical path) assume each `(chunk,
//! microbatch)` key has exactly one producer per device; checking that
//! here keeps their diagnostics sharp instead of cascading.

use pipefill_pipeline::PipelineInstruction;

use crate::stream::{token, StreamSet};
use crate::{Finding, Property};

/// How often one kind of instruction occurs for a (chunk, microbatch),
/// and where it first does — all the findings below ever read.
#[derive(Debug, Clone, Copy, Default)]
struct Seen {
    count: usize,
    first: usize,
}

impl Seen {
    fn record(&mut self, pos: usize) {
        if self.count == 0 {
            self.first = pos;
        }
        self.count += 1;
    }
}

/// Which counter of a [`Tally`] an instruction lands in.
type TallySlot = fn(&mut Tally) -> &mut Seen;

/// Per-(chunk, microbatch) tally on one device.
#[derive(Debug, Clone, Copy, Default)]
struct Tally {
    /// Forward instructions.
    fwd: Seen,
    /// Full backwards (`B` / chunked `B`).
    bwd_full: Seen,
    /// ZB-H1 `B` halves.
    bwd_input: Seen,
    /// ZB-H1 `W` halves.
    bwd_weight: Seen,
}

/// Checks stream-set well-formedness, returning one finding per defect.
pub fn check(set: &StreamSet) -> Vec<Finding> {
    let mut findings = Vec::new();
    let m = set.microbatches;
    let chunks = set.chunks;
    // One dense tally per (chunk, microbatch), reused across devices.
    // Parsed sets bound chunks × microbatches by their own length.
    let keys = chunks
        .checked_mul(m)
        .expect("chunks × microbatches overflows usize");
    let mut tallies = vec![Tally::default(); keys];

    for (s, stream) in set.streams.iter().enumerate() {
        tallies.fill(Tally::default());
        let mut shape_ok = true;
        for (pos, &instr) in stream.iter().enumerate() {
            // Range checks on the instruction's own indices.
            if let Some(mb) = instr.microbatch() {
                if mb >= m {
                    findings.push(Finding::on_device(
                        Property::Wellformed,
                        s,
                        format!(
                            "position {pos} ({}) names microbatch {mb}, \
                             but the iteration has {m}",
                            token(instr)
                        ),
                    ));
                    shape_ok = false;
                    continue;
                }
            }
            let (key, slot): (Option<(usize, usize)>, TallySlot) = match instr {
                PipelineInstruction::Forward { microbatch } => {
                    (Some((0, microbatch)), |t| &mut t.fwd)
                }
                PipelineInstruction::Backward { microbatch } => {
                    (Some((0, microbatch)), |t| &mut t.bwd_full)
                }
                PipelineInstruction::ForwardChunk { chunk, microbatch } => {
                    (Some((chunk, microbatch)), |t| &mut t.fwd)
                }
                PipelineInstruction::BackwardChunk { chunk, microbatch } => {
                    (Some((chunk, microbatch)), |t| &mut t.bwd_full)
                }
                PipelineInstruction::BackwardInput { microbatch } => {
                    (Some((0, microbatch)), |t| &mut t.bwd_input)
                }
                PipelineInstruction::BackwardWeight { microbatch } => {
                    (Some((0, microbatch)), |t| &mut t.bwd_weight)
                }
                _ => (None, |t| &mut t.fwd),
            };
            let Some((chunk, mb)) = key else { continue };
            if chunk >= chunks {
                findings.push(Finding::on_device(
                    Property::Wellformed,
                    s,
                    format!(
                        "position {pos} ({}) names chunk {chunk}, \
                         but each device hosts {chunks}",
                        token(instr)
                    ),
                ));
                shape_ok = false;
                continue;
            }
            // In a chunked stream every compute must be chunk-addressed —
            // the engine keys virtual stages off the chunk index, so an
            // unchunked F/B would silently alias chunk 0.
            if chunks > 1
                && matches!(
                    instr,
                    PipelineInstruction::Forward { .. }
                        | PipelineInstruction::Backward { .. }
                        | PipelineInstruction::BackwardInput { .. }
                        | PipelineInstruction::BackwardWeight { .. }
                )
            {
                findings.push(Finding::on_device(
                    Property::Wellformed,
                    s,
                    format!(
                        "position {pos} ({}) is unchunked compute in a \
                         {chunks}-chunk stream (write F<c>.<m>/B<c>.<m>)",
                        token(instr)
                    ),
                ));
                shape_ok = false;
                continue;
            }
            slot(&mut tallies[chunk * m + mb]).record(pos);
        }
        if !shape_ok {
            // Counting against a malformed shape would only add noise.
            continue;
        }

        for chunk in 0..chunks {
            for mb in 0..m {
                let t = tallies[chunk * m + mb];
                let at = |chunk: usize, mb: usize| -> String {
                    if chunks > 1 {
                        format!("chunk {chunk} microbatch {mb}")
                    } else {
                        format!("microbatch {mb}")
                    }
                };
                if t.fwd.count != 1 {
                    findings.push(Finding::on_device(
                        Property::Wellformed,
                        s,
                        format!(
                            "{} has {} forward instructions, expected exactly 1",
                            at(chunk, mb),
                            t.fwd.count
                        ),
                    ));
                }
                let full = t.bwd_full.count;
                let (bi, bw) = (t.bwd_input.count, t.bwd_weight.count);
                let legal_full = full == 1 && bi == 0 && bw == 0;
                let legal_split = full == 0 && bi == 1 && bw == 1;
                if !legal_full && !legal_split {
                    findings.push(Finding::on_device(
                        Property::Wellformed,
                        s,
                        format!(
                            "{} has {full} full backward(s), {bi} BI and {bw} BW; \
                             expected exactly one B, or one BI + one BW",
                            at(chunk, mb)
                        ),
                    ));
                }
                // Order checks only once the counts are unambiguous.
                if t.fwd.count == 1 && (legal_full || legal_split) {
                    let f_pos = t.fwd.first;
                    let b_pos = if legal_full {
                        t.bwd_full.first
                    } else {
                        t.bwd_input.first
                    };
                    if b_pos < f_pos {
                        findings.push(Finding::on_device(
                            Property::Wellformed,
                            s,
                            format!(
                                "{}: backward at position {b_pos} precedes \
                                 its forward at position {f_pos}",
                                at(chunk, mb)
                            ),
                        ));
                    }
                    if legal_split && t.bwd_weight.first < t.bwd_input.first {
                        findings.push(Finding::on_device(
                            Property::Wellformed,
                            s,
                            format!(
                                "{}: BW at position {} precedes its BI at position {}",
                                at(chunk, mb),
                                t.bwd_weight.first,
                                t.bwd_input.first
                            ),
                        ));
                    }
                }
            }
        }
    }
    findings
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_pipeline::ScheduleKind;

    #[test]
    fn builtins_are_wellformed() {
        for kind in [
            ScheduleKind::GPipe,
            ScheduleKind::OneFOneB,
            ScheduleKind::Interleaved { chunks: 2 },
            ScheduleKind::ZbH1,
        ] {
            let set = StreamSet::from_schedule(kind, 4, 8);
            assert_eq!(check(&set), Vec::new(), "{kind}");
        }
    }

    #[test]
    fn each_defect_class_is_named() {
        let cases: [(&str, &str); 6] = [
            // Dropped backward.
            ("device_0 = \"F0 F1 B0\"", "0 full backward(s)"),
            // Duplicated forward.
            ("device_0 = \"F0 F0 F1 B0 B1\"", "2 forward instructions"),
            // Backward before its forward.
            ("device_0 = \"B0 F0 F1 B1\"", "precedes its forward"),
            // Microbatch out of range.
            ("device_0 = \"F0 F5 B0 B5\"", "names microbatch 5"),
            // Mixed split and full backward.
            (
                "device_0 = \"F0 F1 B0 BI1 BW1 B1\"",
                "expected exactly one B",
            ),
            // W before B.
            ("device_0 = \"F0 F1 BW0 BI0 BI1 BW1\"", "precedes its BI"),
        ];
        for (line, needle) in cases {
            let set = StreamSet::parse(&format!("stages = 1\nmicrobatches = 2\n{line}\n"))
                .expect("parses");
            let findings = check(&set);
            assert!(
                findings.iter().any(|f| f.message.contains(needle)),
                "{line}: {findings:?} should mention '{needle}'"
            );
        }
    }

    #[test]
    fn chunked_streams_reject_unchunked_compute_and_bad_chunks() {
        let set = StreamSet::parse(
            "stages = 1\nmicrobatches = 1\nchunks = 2\ndevice_0 = \"F0 F0.0 F1.0 B1.0 B0.0\"\n",
        )
        .expect("parses");
        let findings = check(&set);
        assert!(findings
            .iter()
            .any(|f| f.message.contains("unchunked compute")));

        let set = StreamSet::parse(
            "stages = 1\nmicrobatches = 1\nchunks = 2\ndevice_0 = \"F0.0 F3.0 B3.0 B0.0\"\n",
        )
        .expect("parses");
        let findings = check(&set);
        assert!(findings.iter().any(|f| f.message.contains("names chunk 3")));
    }

    #[test]
    fn markers_and_sync_are_ignored() {
        let set = StreamSet::parse(
            "stages = 1\nmicrobatches = 1\n\
             device_0 = \"bubble:fwd-bwd F0 B0 sync opt bubble:fill-drain\"\n",
        )
        .expect("parses");
        assert_eq!(check(&set), Vec::new());
    }
}
