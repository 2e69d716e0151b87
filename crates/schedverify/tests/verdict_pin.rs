//! Pins every verdict the verifier renders over the differential
//! harness's mutation corpus, word for word.
//!
//! Each built-in schedule at two shapes is mutated every way
//! [`common::mutants`] knows, and each mutant is verified twice: bare,
//! and claiming its schedule under a memory limit of three microbatches
//! (so closed-form and memory findings are rendered too). The digest runs
//! over the [`verdict_json`] documents in corpus order, so a change to
//! any finding's text, property, device or position, or to any stat,
//! moves it.

mod common;

use common::mutants;
use pipefill_pipeline::ScheduleKind;
use pipefill_schedverify::certificate::verdict_json;
use pipefill_schedverify::{verify, Property, StreamSet, VerifyConfig};
use pipefill_sim_core::SimDuration;

/// FNV-1a over a byte stream: order-sensitive and stable across hosts.
fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// What one (schedule, shape) corpus is pinned by: the digest, plus
/// three counts that say at a glance what the corpus exercises.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    mutants: usize,
    /// Bare verdicts whose first finding is a deadlock.
    deadlocked: usize,
    /// Bare verdicts that certify.
    certified: usize,
    digest: u64,
}

fn pin(kind: ScheduleKind, p: usize, m: usize) -> Pin {
    let ms = SimDuration::from_millis;
    let bare = VerifyConfig::new(ms(10), ms(20));
    let claimed = bare.with_schedule(kind).with_memory_limit(3);
    let all = mutants(&kind.all_stage_instructions(p, m));
    let mut out = Pin {
        mutants: all.len(),
        deadlocked: 0,
        certified: 0,
        digest: 0xcbf2_9ce4_8422_2325,
    };
    for (label, streams) in all {
        let set = StreamSet {
            streams,
            microbatches: m,
            chunks: kind.chunk_count(),
        };
        for cfg in [bare, claimed] {
            let verdict = verify(&set, &cfg);
            let json = verdict_json(&label, &set, &verdict);
            out.digest = fnv(out.digest, json.as_bytes());
            if cfg == bare {
                out.certified += usize::from(verdict.certified());
                out.deadlocked += usize::from(
                    verdict
                        .findings
                        .first()
                        .is_some_and(|f| f.property == Property::Deadlock),
                );
            }
        }
    }
    out
}

/// Recorded before the verifier's deadlock decision moved onto the
/// engine run. No single GPipe mutation both stays well-formed and
/// wedges, so its deadlock counts are 0.
const EXPECTED: [(ScheduleKind, usize, usize, Pin); 8] = [
    (
        ScheduleKind::GPipe,
        4,
        8,
        pinned(388, 0, 196, 0xa92b_89c6_0063_7a3f),
    ),
    (
        ScheduleKind::GPipe,
        3,
        5,
        pinned(201, 0, 111, 0x7c8d_6358_b255_429e),
    ),
    (
        ScheduleKind::OneFOneB,
        4,
        8,
        pinned(388, 30, 158, 0x6023_3575_13d4_5526),
    ),
    (
        ScheduleKind::OneFOneB,
        3,
        5,
        pinned(201, 10, 96, 0x69eb_73e0_19ac_d3c5),
    ),
    (
        INTERLEAVED,
        4,
        8,
        pinned(708, 93, 224, 0x657f_a7b3_5d30_c2ad),
    ),
    (
        INTERLEAVED,
        3,
        5,
        pinned(351, 42, 125, 0xc1a4_baa9_9551_d9fd),
    ),
    (
        ScheduleKind::ZbH1,
        4,
        8,
        pinned(548, 15, 205, 0xf067_42c3_a8cc_59e5),
    ),
    (
        ScheduleKind::ZbH1,
        3,
        5,
        pinned(276, 5, 116, 0xfdd1_1aaa_bae1_3ead),
    ),
];

const INTERLEAVED: ScheduleKind = ScheduleKind::Interleaved { chunks: 2 };

const fn pinned(mutants: usize, deadlocked: usize, certified: usize, digest: u64) -> Pin {
    Pin {
        mutants,
        deadlocked,
        certified,
        digest,
    }
}

#[test]
fn every_mutant_verdict_is_pinned() {
    for (kind, p, m, expected) in EXPECTED {
        assert_eq!(pin(kind, p, m), expected, "{kind} p={p} m={m}");
    }
}
