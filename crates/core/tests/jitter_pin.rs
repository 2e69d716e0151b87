//! Pins the physical backend's results across jitter regimes the goldens
//! never reach: high timing jitter, and memory jitter that makes fill
//! partitions die as isolated OOMs. The goldens run the default 8%
//! timing jitter with no memory jitter; these cases cover both branches of
//! a bubble's stall decision and its OOM check, including jitter factors
//! clipped at zero (cv 1.0).
//!
//! Without memory jitter each bubble's two timing factors are the cosine
//! and sine halves of one Box–Muller pair, and the stall decision first
//! tries the test that holds only for such a pair. A memory-jitter draw
//! takes one half and shifts the pairing on alternate bubbles, so the
//! high-jitter regimes are pinned both with memory jitter and without.
//!
//! The expected values are exact. A change to how jitter factors are
//! drawn or evaluated that moves one stream value by one bit moves a
//! digest here.

use pipefill_core::{PhysicalBackend, PhysicalSimConfig, PhysicalSimResult};
use pipefill_pipeline::{MainJobSpec, ScheduleKind};

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

/// Every field of the result, floats by their exact bit patterns.
fn result_digest(r: &PhysicalSimResult) -> u64 {
    fnv([
        r.iterations as u64,
        r.nominal_period.as_nanos(),
        r.mean_period.as_nanos(),
        r.main_slowdown.to_bits(),
        r.fill_flops.to_bits(),
        r.recovered_tflops_per_gpu.to_bits(),
        r.main_tflops_per_gpu.to_bits(),
        r.jobs_completed as u64,
        r.isolated_ooms,
        r.iterations_fast_forwarded,
    ])
}

/// What one run is pinned by: the digest, plus two counts that say at a
/// glance which branches the run took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    digest: u64,
    jobs_completed: usize,
    isolated_ooms: u64,
}

/// The benchmark's physical job (5B, 8 microbatches, GPipe, fill
/// fraction 0.68) at the given jitter.
fn run(jitter_cv: f64, memory_jitter_cv: f64, seed: u64) -> Pin {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let mut cfg = PhysicalSimConfig::new(main).with_fill_fraction(0.68);
    cfg.iterations = 3_000;
    cfg.seed = seed;
    cfg.jitter_cv = jitter_cv;
    cfg.memory_jitter_cv = memory_jitter_cv;
    let r = PhysicalBackend::simulate(cfg);
    Pin {
        digest: result_digest(&r),
        jobs_completed: r.jobs_completed,
        isolated_ooms: r.isolated_ooms,
    }
}

/// `(jitter_cv, memory_jitter_cv, seed, pin)`, recorded before bubble
/// jitter was drawn deferred and evaluated only where it decides. The
/// high-jitter pins without memory jitter were recorded before the
/// paired-halves stall test existed.
const EXPECTED: [(f64, f64, u64, Pin); 18] = [
    (0.08, 0.0, 1, pin(0xc2ee_dfa0_50e9_11df, 565, 0)),
    (0.08, 0.0, 7, pin(0x8877_5c91_9328_0a68, 556, 0)),
    (0.08, 0.0, 711, pin(0xdb46_467b_9c64_ad56, 566, 0)),
    (0.02, 0.0, 1, pin(0xbb57_3a5a_94a9_6488, 565, 0)),
    (0.02, 0.0, 7, pin(0x9a1c_b9a2_c7a9_3a3d, 556, 0)),
    (0.02, 0.0, 711, pin(0x31bb_6a41_6d98_29cc, 566, 0)),
    (0.3, 0.1, 1, pin(0x09cb_9579_06bc_4721, 516, 4011)),
    (0.3, 0.1, 7, pin(0x77b0_9c96_634a_4b98, 513, 4423)),
    (0.3, 0.1, 711, pin(0xb7a3_2d03_035e_f0fb, 518, 4691)),
    (1.0, 0.2, 1, pin(0x094d_787d_2f70_a41c, 459, 8617)),
    (1.0, 0.2, 7, pin(0xd848_63e2_bdfa_44d9, 447, 9469)),
    (1.0, 0.2, 711, pin(0x53dc_ac2a_ad6c_6eac, 456, 8769)),
    (0.3, 0.0, 1, pin(0x679b_4860_ce4e_592e, 565, 0)),
    (0.3, 0.0, 7, pin(0x2724_17ab_19bd_fffb, 556, 0)),
    (0.3, 0.0, 711, pin(0x8f47_c274_fb45_f2cc, 566, 0)),
    (1.0, 0.0, 1, pin(0x1896_0266_3b45_6e04, 565, 0)),
    (1.0, 0.0, 7, pin(0x622c_20fd_5631_75ab, 556, 0)),
    (1.0, 0.0, 711, pin(0x1102_676d_8a82_1b56, 566, 0)),
];

const fn pin(digest: u64, jobs_completed: usize, isolated_ooms: u64) -> Pin {
    Pin {
        digest,
        jobs_completed,
        isolated_ooms,
    }
}

fn check(jitter_cv: f64, memory_jitter_cv: f64) {
    let cases: Vec<_> = EXPECTED
        .iter()
        .filter(|c| c.0 == jitter_cv && c.1 == memory_jitter_cv)
        .collect();
    assert_eq!(cases.len(), 3, "one pin per seed");
    for &&(_, _, seed, want) in &cases {
        assert_eq!(
            run(jitter_cv, memory_jitter_cv, seed),
            want,
            "jitter_cv {jitter_cv}, memory_jitter_cv {memory_jitter_cv}, seed {seed}"
        );
    }
}

#[test]
fn default_jitter_without_memory_jitter() {
    check(0.08, 0.0);
}

#[test]
fn low_jitter_without_memory_jitter() {
    check(0.02, 0.0);
}

#[test]
fn high_jitter_with_memory_jitter() {
    check(0.3, 0.1);
}

#[test]
fn clipped_jitter_with_memory_jitter() {
    check(1.0, 0.2);
}

#[test]
fn high_jitter_without_memory_jitter() {
    check(0.3, 0.0);
}

#[test]
fn clipped_jitter_without_memory_jitter() {
    check(1.0, 0.0);
}
