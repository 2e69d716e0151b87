//! Differential testing: the static verdict versus the engine oracle.
//!
//! The soundness contract is one-directional: **whenever schedcheck
//! certifies a stream set, the engine must execute it to completion**
//! (no false negatives). The harness takes every built-in schedule,
//! applies every single-instruction mutation — drop, duplicate, swap
//! with the next instruction, move to front, move to end — at every
//! position of every device, and checks the contract on each mutant
//! against [`EngineConfig::execute_streams`], the engine's own
//! completion oracle. The verifier's deadlock decision is itself an
//! engine run (four unrolled iterations, where `execute_streams` runs
//! one), so the contract also pins that the two runs agree.
//!
//! The verifier is allowed to be *stricter* than the engine (a dropped
//! ZB-H1 `W` half executes fine but is still an incomplete iteration,
//! and schedcheck rightly rejects it); the counts printed per schedule
//! pin how often that happens so a regression in either direction shows
//! up as a changed census, not silence.

mod common;

use common::mutants;
use pipefill_pipeline::{EngineConfig, PipelineInstruction, ScheduleKind};
use pipefill_schedverify::{verify, StreamSet, VerifyConfig};
use pipefill_sim_core::SimDuration;

const KINDS: [ScheduleKind; 4] = [
    ScheduleKind::GPipe,
    ScheduleKind::OneFOneB,
    ScheduleKind::Interleaved { chunks: 2 },
    ScheduleKind::ZbH1,
];

fn ms(x: u64) -> SimDuration {
    SimDuration::from_millis(x)
}

/// The invariant, per mutant: certified implies engine-safe.
#[test]
fn certified_mutants_always_execute() {
    for kind in KINDS {
        for (p, m) in [(2, 4), (4, 8)] {
            let cfg = EngineConfig::uniform(kind, p, m, ms(10), ms(20));
            let vcfg = VerifyConfig::new(ms(10), ms(20));
            let base = kind.all_stage_instructions(p, m);

            // The unmutated streams certify and execute.
            let set = StreamSet {
                streams: base.clone(),
                microbatches: m,
                chunks: kind.chunk_count(),
            };
            assert!(
                verify(&set, &vcfg).certified(),
                "{kind} p={p} m={m}: baseline must certify"
            );
            assert!(cfg.execute_streams(&base).is_ok());

            let mut censused = [0usize; 4]; // [both-ok, both-reject, strict, FALSE NEGATIVE]
            let all = mutants(&base);
            for (label, mutant) in &all {
                let set = StreamSet {
                    streams: mutant.clone(),
                    microbatches: m,
                    chunks: kind.chunk_count(),
                };
                let certified = verify(&set, &vcfg).certified();
                let engine_ok = cfg.execute_streams(mutant).is_ok();
                let bucket = match (certified, engine_ok) {
                    (true, true) => 0,
                    (false, false) => 1,
                    (false, true) => 2, // verifier stricter: allowed
                    (true, false) => 3, // FALSE NEGATIVE: forbidden
                };
                censused[bucket] += 1;
                assert!(
                    !certified || engine_ok,
                    "{kind} p={p} m={m}: FALSE NEGATIVE — certified mutant \
                     deadlocks the engine: {label}"
                );
            }
            // Census sanity: the corpus genuinely exercises both sides.
            assert_eq!(censused.iter().sum::<usize>(), all.len());
            assert!(
                censused[1] > 0,
                "{kind} p={p} m={m}: no mutant was rejected by both — corpus too weak"
            );
            assert!(
                censused[2] > 0,
                "{kind} p={p} m={m}: verifier never out-rejected the engine — \
                 expected e.g. dropped weight halves or duplicated compute \
                 that executes but is incomplete"
            );
        }
    }
}

/// Dedicated regression for the canonical wedge: the mutation that
/// reorders device 1's warmup is caught by both the verifier (as a
/// cycle) and the engine (as a deadlock).
#[test]
fn the_canonical_wedge_is_caught_by_both() {
    let (p, m) = (2, 2);
    let cfg = EngineConfig::uniform(ScheduleKind::OneFOneB, p, m, ms(10), ms(20));
    let streams = vec![
        vec![
            PipelineInstruction::Forward { microbatch: 0 },
            PipelineInstruction::Backward { microbatch: 0 },
            PipelineInstruction::Forward { microbatch: 1 },
            PipelineInstruction::Backward { microbatch: 1 },
        ],
        vec![
            PipelineInstruction::Forward { microbatch: 1 },
            PipelineInstruction::Forward { microbatch: 0 },
            PipelineInstruction::Backward { microbatch: 0 },
            PipelineInstruction::Backward { microbatch: 1 },
        ],
    ];
    assert!(cfg.execute_streams(&streams).is_err());
    let set = StreamSet {
        streams,
        microbatches: m,
        chunks: 1,
    };
    let verdict = verify(&set, &VerifyConfig::new(ms(10), ms(20)));
    assert!(!verdict.certified());
    assert!(
        verdict.findings[0].message.contains("dependency cycle"),
        "{:?}",
        verdict.findings
    );
}
