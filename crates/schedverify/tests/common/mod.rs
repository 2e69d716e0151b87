//! The single-instruction mutation corpus shared by the differential
//! harness and the verdict pin.

use pipefill_pipeline::PipelineInstruction;

/// Every single-instruction mutant of `streams` — drop, duplicate, swap
/// with the next instruction, move to front, move to end — at every
/// position of every device, each with a label, in a fixed order.
pub fn mutants(
    streams: &[Vec<PipelineInstruction>],
) -> Vec<(String, Vec<Vec<PipelineInstruction>>)> {
    let mut out = Vec::new();
    for (s, stream) in streams.iter().enumerate() {
        for i in 0..stream.len() {
            let mut drop = streams.to_vec();
            drop[s].remove(i);
            out.push((format!("dev{s}: drop [{i}]"), drop));

            let mut dup = streams.to_vec();
            let instr = dup[s][i];
            dup[s].insert(i + 1, instr);
            out.push((format!("dev{s}: duplicate [{i}]"), dup));

            if i + 1 < stream.len() {
                let mut swap = streams.to_vec();
                swap[s].swap(i, i + 1);
                out.push((format!("dev{s}: swap [{i}]<->[{}]", i + 1), swap));
            }

            if i > 0 {
                let mut front = streams.to_vec();
                let instr = front[s].remove(i);
                front[s].insert(0, instr);
                out.push((format!("dev{s}: move [{i}] to front"), front));
            }

            if i + 1 < stream.len() {
                let mut back = streams.to_vec();
                let instr = back[s].remove(i);
                back[s].push(instr);
                out.push((format!("dev{s}: move [{i}] to end"), back));
            }
        }
    }
    out
}
