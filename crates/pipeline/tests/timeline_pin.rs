//! Pins the engine's steady-state timelines at deep shapes: an
//! order-sensitive digest of `EngineConfig::timeline_of` on the generated
//! streams of every built-in schedule at the three shapes perfbench's
//! `schedule_certify` workload runs, plus interleaved with three and four
//! chunks at its deepest shape.
//!
//! Each shape runs under two weightings: the uniform r = 2 calibration
//! the certificate grid uses, and per-stage forward, backward and
//! optimizer times that all differ, with a non-zero link latency.
//!
//! The expected digests were recorded from the engine that list-scheduled
//! all four unrolled iterations. Any change to a period, an anchor, a
//! busy time or a single bubble window moves a digest.

use pipefill_pipeline::{BubbleKind, EngineConfig, EngineTimeline, ScheduleKind};
use pipefill_sim_core::SimDuration;

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

/// Every field of a timeline as words, stages and windows in order.
fn encode(tl: &EngineTimeline, words: &mut Vec<u64>) {
    words.extend([tl.period.as_nanos(), tl.stages.len() as u64]);
    for st in &tl.stages {
        words.extend([
            st.stage as u64,
            st.anchor_offset.as_nanos(),
            st.busy.as_nanos(),
            st.windows.len() as u64,
        ]);
        for w in &st.windows {
            let kind = match w.kind {
                BubbleKind::FillDrain => 1,
                BubbleKind::FwdBwd => 2,
                BubbleKind::NonContiguous => 3,
            };
            words.extend([
                kind,
                w.offset.as_nanos(),
                w.duration.as_nanos(),
                w.free_memory.as_u64(),
            ]);
        }
    }
}

/// The two weightings of one shape.
fn configs(kind: ScheduleKind, p: usize, m: usize) -> [EngineConfig; 2] {
    let ms = SimDuration::from_millis;
    let us = SimDuration::from_micros;
    let uniform = EngineConfig::uniform(kind, p, m, ms(10), ms(20));
    let mut skewed = uniform.clone();
    let s = 0..p as u64;
    skewed.stage_fwd = s.clone().map(|s| us(5_000 + 137 * (s % 7))).collect();
    skewed.stage_bwd = s.clone().map(|s| us(9_000 + 311 * (s % 5))).collect();
    skewed.stage_opt = s.map(|s| us(40 * (s % 3))).collect();
    skewed.comm = us(700);
    [uniform, skewed]
}

/// Digest of both weightings' timelines at one shape.
fn digest(kind: ScheduleKind, p: usize, m: usize) -> u64 {
    let streams = kind.all_stage_instructions(p, m);
    let mut words = vec![p as u64, m as u64];
    for cfg in configs(kind, p, m) {
        let tl = cfg
            .timeline_of(&streams)
            .unwrap_or_else(|e| panic!("{kind} p={p} m={m}: {e}"));
        encode(&tl, &mut words);
    }
    fnv(words)
}

const GPIPE: ScheduleKind = ScheduleKind::GPipe;
const ONE_F_ONE_B: ScheduleKind = ScheduleKind::OneFOneB;
const ZB_H1: ScheduleKind = ScheduleKind::ZbH1;
const fn interleaved(chunks: usize) -> ScheduleKind {
    ScheduleKind::Interleaved { chunks }
}

#[test]
fn deep_timelines_match_the_recorded_digests() {
    let pinned: [(ScheduleKind, usize, usize, u64); 14] = [
        (GPIPE, 16, 128, 0xbe95_575e_caf2_ce83),
        (GPIPE, 32, 256, 0xdc39_27a3_67b2_c23e),
        (GPIPE, 64, 512, 0x9a51_f14a_d3e1_8851),
        (ONE_F_ONE_B, 16, 128, 0xbc77_fd64_d426_3a7e),
        (ONE_F_ONE_B, 32, 256, 0x1b1e_a540_7a3a_aa1b),
        (ONE_F_ONE_B, 64, 512, 0x6edd_e057_3e3e_9bec),
        (interleaved(2), 16, 128, 0xbe68_8dea_28ae_1fe4),
        (interleaved(2), 32, 256, 0x3f3e_fec8_258d_a4e8),
        (interleaved(2), 64, 512, 0x7920_db66_2818_c0ad),
        (ZB_H1, 16, 128, 0xd2d2_892c_df8d_49b1),
        (ZB_H1, 32, 256, 0x00d1_46a2_e40d_17fd),
        (ZB_H1, 64, 512, 0x9f60_6697_4bae_be51),
        (interleaved(3), 64, 512, 0x96d1_a607_78dc_6307),
        (interleaved(4), 64, 512, 0xf1e5_16ac_b023_a94a),
    ];
    let moved: Vec<String> = pinned
        .into_iter()
        .filter_map(|(kind, p, m, expected)| {
            let got = digest(kind, p, m);
            (got != expected)
                .then(|| format!("{kind} p={p} m={m}: {got:#018x}, pinned {expected:#018x}"))
        })
        .collect();
    assert!(moved.is_empty(), "timelines moved: {moved:#?}");
}
