//! Inputs shared by the list-scheduler oracles: configs whose stages
//! differ, and stream mutations. The engine's own unit tests
//! (`crates/pipeline/src/engine.rs`) and `list_scheduler_oracle.rs`
//! include this file as a module, with `EngineConfig`, `ScheduleKind`,
//! `PipelineInstruction` and `SimDuration` in scope.

use super::{EngineConfig, PipelineInstruction, ScheduleKind, SimDuration};

/// A config with per-stage forward, backward and optimizer times drawn
/// from `times` in microseconds (cycled), so stages differ.
pub fn config(
    kind: ScheduleKind,
    p: usize,
    m: usize,
    times: &[(u64, u64, u64)],
    comm_us: u64,
) -> EngineConfig {
    let us = SimDuration::from_micros;
    let mut cfg = EngineConfig::uniform(kind, p, m, us(1), us(1));
    cfg.stage_fwd = (0..p).map(|s| us(times[s % times.len()].0)).collect();
    cfg.stage_bwd = (0..p).map(|s| us(times[s % times.len()].1)).collect();
    cfg.stage_opt = (0..p).map(|s| us(times[s % times.len()].2)).collect();
    cfg.comm = us(comm_us);
    cfg
}

/// Applies one mutation to the streams. `op` picks the kind; `a`, `b`
/// and `c` pick devices, positions and replacement indices.
pub fn mutate(
    streams: &mut [Vec<PipelineInstruction>],
    m: usize,
    chunks: usize,
    (op, a, b, c): (u8, usize, usize, usize),
) {
    let p = streams.len();
    let dev = a % p;
    if streams[dev].is_empty() {
        return;
    }
    let len = streams[dev].len();
    let (i, j) = (b % len, c % len);
    match op {
        // Swap two instructions on one device.
        0 => streams[dev].swap(i, j),
        // Drop one.
        1 => {
            streams[dev].remove(i);
        }
        // Duplicate one onto a (possibly different) device: a second
        // producer of the same key.
        2 => {
            let instr = streams[dev][i];
            let to = c % p;
            let at = b % (streams[to].len() + 1);
            streams[to].insert(at, instr);
        }
        // Move one to another device.
        3 => {
            let instr = streams[dev].remove(i);
            let to = c % p;
            let at = b % (streams[to].len() + 1);
            streams[to].insert(at, instr);
        }
        // Point one at a microbatch past the end.
        4 => {
            let mb = m + c % 3;
            streams[dev][i] = match streams[dev][i] {
                PipelineInstruction::Forward { .. } => {
                    PipelineInstruction::Forward { microbatch: mb }
                }
                PipelineInstruction::Backward { .. } => {
                    PipelineInstruction::Backward { microbatch: mb }
                }
                PipelineInstruction::ForwardChunk { chunk, .. } => {
                    PipelineInstruction::ForwardChunk {
                        chunk,
                        microbatch: mb,
                    }
                }
                PipelineInstruction::BackwardChunk { chunk, .. } => {
                    PipelineInstruction::BackwardChunk {
                        chunk,
                        microbatch: mb,
                    }
                }
                PipelineInstruction::BackwardInput { .. } => {
                    PipelineInstruction::BackwardInput { microbatch: mb }
                }
                other => other,
            };
        }
        // Point one at a chunk past the end (or rewrite unchunked
        // compute as chunked).
        _ => {
            let chunk = chunks + c % 2;
            streams[dev][i] = match streams[dev][i] {
                PipelineInstruction::Forward { microbatch }
                | PipelineInstruction::ForwardChunk { microbatch, .. } => {
                    PipelineInstruction::ForwardChunk { chunk, microbatch }
                }
                PipelineInstruction::Backward { microbatch }
                | PipelineInstruction::BackwardChunk { microbatch, .. }
                | PipelineInstruction::BackwardInput { microbatch } => {
                    PipelineInstruction::BackwardChunk { chunk, microbatch }
                }
                other => other,
            };
        }
    }
}
