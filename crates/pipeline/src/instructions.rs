//! The pipeline-instruction IR.
//!
//! "Existing pipeline engines execute a sequence of pipeline instructions
//! … PipeFill's bubble instruction is inserted into the schedule to
//! indicate where large bubbles are expected to occur" (§4.2). Schedules
//! here are per-stage instruction sequences; activation/gradient
//! send/receive pairs are represented as cross-stage dependencies resolved
//! by the engine (with a configurable transfer cost) rather than separate
//! instructions, which keeps the streams compact without losing timing.

use serde::{Deserialize, Serialize};

use crate::bubbles::BubbleKind;

/// One instruction in a stage's pipeline schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PipelineInstruction {
    /// Forward computation of one microbatch (global microbatch index
    /// within the iteration).
    Forward {
        /// Microbatch index in `0..m`.
        microbatch: usize,
    },
    /// Backward computation of one microbatch.
    Backward {
        /// Microbatch index in `0..m`.
        microbatch: usize,
    },
    /// Forward of one microbatch through one *virtual* pipeline stage
    /// (interleaved 1F1B: each device hosts `v` model chunks; chunk `c`
    /// on device `s` is virtual stage `c·p + s`, and its compute is
    /// `1/v` of the device's full forward).
    ForwardChunk {
        /// Model-chunk index in `0..v`.
        chunk: usize,
        /// Microbatch index in `0..m`.
        microbatch: usize,
    },
    /// Backward of one microbatch through one virtual pipeline stage
    /// (interleaved 1F1B).
    BackwardChunk {
        /// Model-chunk index in `0..v`.
        chunk: usize,
        /// Microbatch index in `0..m`.
        microbatch: usize,
    },
    /// ZB-H1's `B` instruction: the activation-gradient half of the
    /// backward pass. It is the only dependency-critical part — the
    /// upstream stage's backward waits on it, not on the weight half.
    BackwardInput {
        /// Microbatch index in `0..m`.
        microbatch: usize,
    },
    /// ZB-H1's `W` instruction: the weight-gradient half of the backward
    /// pass. Purely local work with no cross-stage consumers, so the
    /// schedule defers it into what would otherwise be bubble time.
    BackwardWeight {
        /// Microbatch index in `0..m`.
        microbatch: usize,
    },
    /// PipeFill's explicit bubble marker: zero-cost, but tells the engine
    /// where to profile and where to signal the fill-job Executor.
    Bubble {
        /// Which bubble this marker announces.
        kind: BubbleKind,
    },
    /// Data-parallel gradient synchronization (all-reduce across
    /// replicas). The engine can model it as overlapped with backward,
    /// contributing no timeline length.
    GradSync,
    /// Optimizer step (Adam update of this stage's parameters).
    OptimizerStep,
}

impl PipelineInstruction {
    /// True for any flavour of backward compute (full, chunked, or either
    /// ZB-H1 half) — what the engine uses to spot a stage's fwd-bwd
    /// transition.
    pub fn is_backward(self) -> bool {
        matches!(
            self,
            PipelineInstruction::Backward { .. }
                | PipelineInstruction::BackwardChunk { .. }
                | PipelineInstruction::BackwardInput { .. }
                | PipelineInstruction::BackwardWeight { .. }
        )
    }

    /// The microbatch this instruction processes, if any.
    pub fn microbatch(self) -> Option<usize> {
        match self {
            PipelineInstruction::Forward { microbatch }
            | PipelineInstruction::Backward { microbatch }
            | PipelineInstruction::ForwardChunk { microbatch, .. }
            | PipelineInstruction::BackwardChunk { microbatch, .. }
            | PipelineInstruction::BackwardInput { microbatch }
            | PipelineInstruction::BackwardWeight { microbatch } => Some(microbatch),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backward_classification() {
        assert!(PipelineInstruction::Backward { microbatch: 0 }.is_backward());
        assert!(PipelineInstruction::BackwardChunk {
            chunk: 0,
            microbatch: 0
        }
        .is_backward());
        assert!(PipelineInstruction::BackwardInput { microbatch: 0 }.is_backward());
        assert!(PipelineInstruction::BackwardWeight { microbatch: 0 }.is_backward());
        assert!(!PipelineInstruction::Forward { microbatch: 0 }.is_backward());
        assert!(!PipelineInstruction::ForwardChunk {
            chunk: 0,
            microbatch: 0
        }
        .is_backward());
        assert!(!PipelineInstruction::OptimizerStep.is_backward());
    }

    #[test]
    fn microbatch_extraction() {
        assert_eq!(
            PipelineInstruction::Forward { microbatch: 3 }.microbatch(),
            Some(3)
        );
        assert_eq!(
            PipelineInstruction::ForwardChunk {
                chunk: 2,
                microbatch: 5
            }
            .microbatch(),
            Some(5)
        );
        assert_eq!(
            PipelineInstruction::BackwardWeight { microbatch: 4 }.microbatch(),
            Some(4)
        );
        assert_eq!(PipelineInstruction::GradSync.microbatch(), None);
    }
}
