//! Pins the coarse backend's dispatch order. Every completion's (id,
//! device, start ns) feeds an order-sensitive digest, next to the
//! in-horizon fill FLOPs' exact bits and the rejected count, over all
//! four built-in policies at three loads and two seeds.
//!
//! The expected values are exact and must survive any change to how the
//! fill-job queue is stored or scanned: a pick that breaks a score tie
//! differently moves the digest.

use pipefill_core::{ClusterSimConfig, ClusterSimResult, CoarseBackend, PolicyKind};
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_sim_core::SimDuration;
use pipefill_trace::TraceConfig;

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

/// What one run is pinned by: (completed jobs, order digest over each
/// completion's (id, device, start ns), in-horizon fill-FLOPs bits,
/// rejected jobs).
type Pin = (usize, u64, u64, usize);

fn pin(result: &ClusterSimResult) -> Pin {
    (
        result.completed.len(),
        fnv(result
            .completed
            .iter()
            .flat_map(|j| [j.id.0, j.device as u64, j.started.as_nanos()])),
        result.fill_flops_in_horizon.to_bits(),
        result.rejected,
    )
}

fn run(policy: PolicyKind, load: f64, seed: u64) -> ClusterSimResult {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let mut trace = TraceConfig::physical(seed).with_load(load);
    trace.horizon = SimDuration::from_secs(3600);
    let mut cfg = ClusterSimConfig::new(main, trace);
    cfg.policy = policy;
    CoarseBackend::simulate(cfg)
}

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Fifo,
    PolicyKind::Sjf,
    PolicyKind::MakespanMin,
    PolicyKind::DeadlineThenSjf,
];
const LOADS: [f64; 3] = [0.5, 2.0, 8.0];
const SEEDS: [u64; 2] = [1, 7];

/// One pin per grid point, policy-major, then load, then seed.
const EXPECTED: [Pin; 24] = [
    (21, 0xfdc3e3df81689390, 0x437f3a5c491f79be, 0),
    (15, 0x4ffdaf1acc760553, 0x43751ce16843db0c, 0),
    (85, 0xaa1f37536f603844, 0x439cf4e3dd219433, 0),
    (76, 0x7fa970e7a174b18b, 0x43968dab7203a197, 0),
    (315, 0x29d7a4e8d8a32ea8, 0x43a1bdf3b6f9cac6, 0),
    (268, 0xd414c58a93809ae7, 0x43a1124926abbcab, 0),
    (21, 0xfdc3e3df81689390, 0x437f3a5c491f79be, 0),
    (15, 0x4ffdaf1acc760553, 0x43751ce16843db0c, 0),
    (85, 0x8b18bf889f60fcc5, 0x439ce19eb041dadf, 0),
    (76, 0x7fa970e7a174b18b, 0x43968dab7203a197, 0),
    (315, 0x4030946cc358e27b, 0x43a3388c38ced794, 0),
    (268, 0xd3492aa73f330bea, 0x43a2054db1cf13dd, 0),
    (21, 0xfdc3e3df81689390, 0x437f3a5c491f79be, 0),
    (15, 0x4ffdaf1acc760553, 0x43751ce16843db0c, 0),
    (85, 0x8ecd8ab509aa2743, 0x439cfcc3cd62cbf2, 0),
    (76, 0x7fa970e7a174b18b, 0x43968dab7203a197, 0),
    (315, 0xe45c19ae4c37acc7, 0x43a338822cf8645e, 0),
    (268, 0x6b2c3f528363db32, 0x43a1fac6f8df72be, 0),
    (21, 0xfdc3e3df81689390, 0x437f3a5c491f79be, 0),
    (15, 0x4ffdaf1acc760553, 0x43751ce16843db0c, 0),
    (85, 0x597779e6a2592559, 0x439cdbe1f8aa397e, 0),
    (76, 0x7fa970e7a174b18b, 0x43968dab7203a197, 0),
    (315, 0xffcdfd624445494b, 0x43a1f12f56cf7c1c, 0),
    (268, 0x254dc30ae0b26ee2, 0x43a18fd58cb06f57, 0),
];

#[test]
fn coarse_dispatch_order_is_pinned() {
    let mut got = Vec::new();
    for policy in POLICIES {
        for load in LOADS {
            for seed in SEEDS {
                got.push(pin(&run(policy, load, seed)));
            }
        }
    }
    assert_eq!(got, EXPECTED, "{got:#x?}");
}
