//! Oracle for the engine's per-kind step resolution. `Resolver::step`
//! resolves forwards and backwards against per-stage values computed
//! once; `Resolver::generic` resolves any instruction through the
//! `deps` keying (`consumed`, `produced`, `consumer_device`) and
//! `EngineConfig::instruction_duration`. The two must build the same
//! `Step`, field for field, for every instruction on every device:
//! well-formed ones, ones whose chunk or microbatch is past the dense
//! range, the `W` half and the markers, with and without a dense table.
//! `p = 1` covers the chunk hand-off that stays on one device.
//!
//! `crates/pipeline/src/engine.rs` includes this file as a module of its
//! unit tests, since `Step` is private to the engine.

use proptest::prelude::*;

use super::{
    DepSlots, EngineConfig, PipelineInstruction, Resolver, ScheduleKind, SimDuration, SimTime,
};
use crate::bubbles::BubbleKind;

/// Instruction `kind` (0–9) with its chunk and microbatch.
fn instruction(kind: u8, chunk: usize, microbatch: usize) -> PipelineInstruction {
    use PipelineInstruction as I;
    match kind {
        0 => I::Forward { microbatch },
        1 => I::Backward { microbatch },
        2 => I::ForwardChunk { chunk, microbatch },
        3 => I::BackwardChunk { chunk, microbatch },
        4 => I::BackwardInput { microbatch },
        5 => I::BackwardWeight { microbatch },
        6 => I::GradSync,
        7 => I::OptimizerStep,
        8 => I::Bubble {
            kind: BubbleKind::FwdBwd,
        },
        _ => I::Bubble {
            kind: BubbleKind::FillDrain,
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Every instruction on every device resolves to the generic path's
    /// `Step`, for one iteration and for the full horizon, and with no
    /// dense table (too few instructions for its slots). Chunks are drawn
    /// up to two past the chunk count and microbatches up to two past
    /// `m`; per-stage times differ, zeros and odd values included, so
    /// chunk slices telescope unevenly.
    #[test]
    fn per_kind_steps_equal_the_generic_steps(
        p in 1usize..9,
        chunks in 1usize..5,
        m in 1usize..10,
        times in proptest::collection::vec((0u64..50_000, 0u64..90_000, 0u64..100), 1..9),
        drawn in proptest::collection::vec((0u8..10, 0usize..1_000, 0usize..1_000), 1..40),
        iterations in prop_oneof![Just(1usize), Just(4)],
        dense in prop_oneof![Just(true), Just(false)],
    ) {
        let ns = SimDuration::from_nanos;
        let time = |s: usize| times[s % times.len()];
        let mut cfg = EngineConfig::uniform(ScheduleKind::Interleaved { chunks }, p, m, ns(1), ns(1));
        cfg.stage_fwd = (0..p).map(|s| ns(time(s).0)).collect();
        cfg.stage_bwd = (0..p).map(|s| ns(time(s).1)).collect();
        cfg.stage_opt = (0..p).map(|s| ns(time(s).2)).collect();
        let budget = if dense { usize::MAX } else { 0 };
        let done = DepSlots::new(p, chunks, m, iterations, budget, SimTime::MAX);
        prop_assert_eq!(done.slots_per_iteration() > 0, dense);
        let resolver = Resolver::new(&cfg, &done);
        for s in 0..p {
            for &(kind, chunk, microbatch) in &drawn {
                let instr = instruction(kind, chunk % (chunks + 2), microbatch % (m + 2));
                prop_assert_eq!(
                    resolver.step(instr, s, &done),
                    resolver.generic(instr, s, &done),
                    "{:?} on device {} of p={} v={} m={}",
                    instr,
                    s,
                    p,
                    chunks,
                    m
                );
            }
        }
    }
}
