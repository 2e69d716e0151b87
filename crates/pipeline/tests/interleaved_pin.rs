//! Pins the interleaved-1F1B generator's exact output: an order-sensitive
//! digest of `all_stage_instructions` for 2, 3 and 4 chunks over a grid
//! of pipeline shapes that includes `p = 1`, `m < p` and `m` not a
//! multiple of `p`, and at the three deep shapes perfbench's
//! `schedule_certify` workload runs.
//!
//! The expected digests were recorded from the original full-scan
//! generator. Any change to how it picks the next unit — including how
//! ties between equally early units break — moves a digest.

use pipefill_pipeline::{PipelineInstruction, ScheduleKind};

const STAGES: [usize; 7] = [1, 2, 3, 4, 5, 7, 8];
const MICROBATCHES: [usize; 8] = [1, 2, 3, 4, 5, 7, 8, 13];

/// FNV-1a over a word stream: order-sensitive and stable across hosts.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// One instruction as words: a variant tag, then its indices.
fn encode(instr: PipelineInstruction) -> [u64; 3] {
    match instr {
        PipelineInstruction::Forward { microbatch } => [1, 0, microbatch as u64],
        PipelineInstruction::Backward { microbatch } => [2, 0, microbatch as u64],
        PipelineInstruction::ForwardChunk { chunk, microbatch } => {
            [3, chunk as u64, microbatch as u64]
        }
        PipelineInstruction::BackwardChunk { chunk, microbatch } => {
            [4, chunk as u64, microbatch as u64]
        }
        PipelineInstruction::BackwardInput { microbatch } => [5, 0, microbatch as u64],
        PipelineInstruction::BackwardWeight { microbatch } => [6, 0, microbatch as u64],
        PipelineInstruction::Bubble { kind } => [7, kind as u64, 0],
        PipelineInstruction::GradSync => [8, 0, 0],
        PipelineInstruction::OptimizerStep => [9, 0, 0],
    }
}

/// Digest of every device's stream at every grid shape, in grid order.
fn grid_digest(chunks: usize) -> u64 {
    let kind = ScheduleKind::Interleaved { chunks };
    let mut words = Vec::new();
    for p in STAGES {
        for m in MICROBATCHES {
            words.extend([p as u64, m as u64]);
            for stream in kind.all_stage_instructions(p, m) {
                words.push(stream.len() as u64);
                words.extend(stream.into_iter().flat_map(encode));
            }
        }
    }
    fnv(words)
}

#[test]
fn interleaved_streams_match_the_recorded_digests() {
    let moved: Vec<String> = [
        (2, 0xa052_072f_6e37_5d26u64),
        (3, 0x6c81_2a33_3b12_56c6),
        (4, 0x3a6c_fdd9_156a_a4a6),
    ]
    .into_iter()
    .filter_map(|(chunks, expected)| {
        let got = grid_digest(chunks);
        (got != expected)
            .then(|| format!("interleaved:{chunks}: {got:#018x}, pinned {expected:#018x}"))
    })
    .collect();
    assert!(moved.is_empty(), "streams moved: {moved:#?}");
}

/// Digest of every device's stream at one shape.
fn shape_digest(chunks: usize, p: usize, m: usize) -> u64 {
    let mut words = vec![p as u64, m as u64];
    let kind = ScheduleKind::Interleaved { chunks };
    for stream in kind.all_stage_instructions(p, m) {
        words.push(stream.len() as u64);
        words.extend(stream.into_iter().flat_map(encode));
    }
    fnv(words)
}

/// The `schedule_certify` benchmark shapes at two chunks: deep enough
/// that start times, Megatron ranks and virtual stages reach the wide
/// values the small grid never does. Recorded from the generator whose
/// tournament compared units field by field.
fn wide_shape_matches(p: usize, m: usize, expected: u64) {
    let got = shape_digest(2, p, m);
    assert_eq!(
        got, expected,
        "interleaved:2 at p={p} m={m}: {got:#018x}, pinned {expected:#018x}"
    );
}

#[test]
fn interleaved_p16_m128_matches_the_recorded_digest() {
    wide_shape_matches(16, 128, 0xc710_e3fa_0456_4ab5);
}

#[test]
fn interleaved_p32_m256_matches_the_recorded_digest() {
    wide_shape_matches(32, 256, 0x9268_2041_5dcb_128a);
}

#[test]
fn interleaved_p64_m512_matches_the_recorded_digest() {
    wide_shape_matches(64, 512, 0xab48_d31f_c0c5_c8bf);
}
