//! Conformance: the static analyses pinned against the engine and the
//! published closed forms across randomized shapes and timings.
//!
//! These are the properties the certificates rest on: the longest-path
//! bubble fraction *is* the engine's `bubble_ratio` (bit-for-bit, not
//! approximately), the static memory peaks *are* the engine's published
//! activation envelope, a claimed built-in schedule always certifies —
//! i.e. the closed-form regime gating in the verifier never misfires on a
//! valid stream — and a well-formed set is rejected as a deadlock exactly
//! when the engine wedges, with a cycle of real dependencies.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use pipefill_pipeline::deps;
use pipefill_pipeline::{
    activation_envelope, activation_peaks, EngineConfig, PipelineInstruction, ScheduleKind,
};
use pipefill_schedverify::{verify, wellformed, Property, StreamSet, VerifyConfig};
use pipefill_sim_core::SimDuration;

fn any_kind() -> impl Strategy<Value = ScheduleKind> {
    prop_oneof![
        Just(ScheduleKind::GPipe),
        Just(ScheduleKind::OneFOneB),
        Just(ScheduleKind::Interleaved { chunks: 2 }),
        Just(ScheduleKind::Interleaved { chunks: 3 }),
        Just(ScheduleKind::ZbH1),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A valid built-in stream with its schedule claimed always
    /// certifies — across shapes (including m < p), timings (including
    /// backwards that don't split evenly) and comm latencies. Any regime
    /// misgating in the closed-form comparison would surface here as a
    /// spurious bubble finding.
    #[test]
    fn builtins_certify_for_arbitrary_shapes(
        kind in any_kind(),
        p in 1usize..9,
        m in 1usize..17,
        tf_ms in 1u64..30,
        tb_ms in 1u64..60,
        comm_us in 0u64..1_000,
    ) {
        let set = StreamSet::from_schedule(kind, p, m);
        let mut cfg = VerifyConfig::new(
            SimDuration::from_millis(tf_ms),
            SimDuration::from_millis(tb_ms),
        )
        .with_schedule(kind);
        cfg.comm = SimDuration::from_micros(comm_us);
        let verdict = verify(&set, &cfg);
        prop_assert!(
            verdict.certified(),
            "{kind} p={p} m={m} tf={tf_ms}ms tb={tb_ms}ms comm={comm_us}us: {:?}",
            verdict.findings
        );
    }

    /// The static bubble fraction and period equal the engine's,
    /// bit-for-bit / integer-exactly, for every schedule, shape and
    /// timing — the verifier's longest-path recurrence is the engine's
    /// list scheduler, proven on the same inputs.
    #[test]
    fn static_fraction_is_engine_fraction_bit_for_bit(
        kind in any_kind(),
        p in 1usize..9,
        m in 1usize..17,
        tf_ms in 1u64..30,
        tb_ms in 1u64..60,
        comm_us in 0u64..1_000,
    ) {
        let tf = SimDuration::from_millis(tf_ms);
        let tb = SimDuration::from_millis(tb_ms);
        let mut engine = EngineConfig::uniform(kind, p, m, tf, tb);
        engine.comm = SimDuration::from_micros(comm_us);
        let tl = engine.run();

        let set = StreamSet::from_schedule(kind, p, m);
        let mut cfg = VerifyConfig::new(tf, tb);
        cfg.comm = SimDuration::from_micros(comm_us);
        let verdict = verify(&set, &cfg);
        let stats = verdict.stats.expect("valid streams analyze");
        prop_assert_eq!(stats.period, tl.period);
        prop_assert_eq!(
            stats.bubble_fraction_static.to_bits(),
            tl.bubble_ratio().to_bits(),
            "{} p={} m={}: {} vs {}",
            kind, p, m, stats.bubble_fraction_static, tl.bubble_ratio()
        );
    }

    /// The static per-device memory peaks equal the engine's published
    /// activation envelope for every built-in schedule and shape.
    #[test]
    fn static_peaks_equal_published_envelope(
        kind in any_kind(),
        p in 1usize..9,
        m in 1usize..17,
    ) {
        let set = StreamSet::from_schedule(kind, p, m);
        prop_assert_eq!(
            activation_peaks(&set.streams, set.chunks),
            activation_envelope(kind, p, m)
        );
    }

    /// Randomized single mutations preserve the no-false-negative
    /// contract (the exhaustive corpus lives in `differential.rs`; this
    /// covers shapes it does not).
    #[test]
    fn random_mutants_never_produce_false_negatives(
        kind in any_kind(),
        p in 1usize..6,
        m in 1usize..9,
        device in 0usize..6,
        position in 0usize..64,
        mutation in 0usize..4,
    ) {
        let tf = SimDuration::from_millis(10);
        let tb = SimDuration::from_millis(20);
        let mut streams = kind.all_stage_instructions(p, m);
        let s = device % p;
        let len = streams[s].len();
        let i = position % len;
        match mutation {
            0 => { streams[s].remove(i); }
            1 => { let instr = streams[s][i]; streams[s].insert(i + 1, instr); }
            2 if i + 1 < len => { streams[s].swap(i, i + 1); }
            _ => { let instr = streams[s].remove(i); streams[s].insert(0, instr); }
        }
        let engine_ok = EngineConfig::uniform(kind, p, m, tf, tb)
            .execute_streams(&streams)
            .is_ok();
        let set = StreamSet { streams, microbatches: m, chunks: kind.chunk_count() };
        let certified = verify(&set, &VerifyConfig::new(tf, tb)).certified();
        prop_assert!(
            !certified || engine_ok,
            "{kind} p={p} m={m} dev{s}[{i}] mutation {mutation}: false negative"
        );
    }
}

/// A compute instruction's `(chunk, microbatch)` and its rank within
/// that pair: forward, then backward (or `BI`), then `BW`.
fn compute_slot(instr: PipelineInstruction) -> Option<((usize, usize), u8)> {
    use PipelineInstruction::*;
    match instr {
        Forward { microbatch } => Some(((0, microbatch), 0)),
        ForwardChunk { chunk, microbatch } => Some(((chunk, microbatch), 0)),
        Backward { microbatch } | BackwardInput { microbatch } => Some(((0, microbatch), 1)),
        BackwardChunk { chunk, microbatch } => Some(((chunk, microbatch), 1)),
        BackwardWeight { microbatch } => Some(((0, microbatch), 2)),
        _ => None,
    }
}

/// Puts each `(chunk, microbatch)`'s instructions back in legal order on
/// the positions they occupy, so a reordered stream stays well-formed.
fn restore_per_microbatch_order(stream: &mut [PipelineInstruction]) {
    let mut groups: BTreeMap<(usize, usize), Vec<usize>> = BTreeMap::new();
    for (i, &instr) in stream.iter().enumerate() {
        if let Some((key, _)) = compute_slot(instr) {
            groups.entry(key).or_default().push(i);
        }
    }
    for positions in groups.values() {
        let mut instrs: Vec<PipelineInstruction> = positions.iter().map(|&i| stream[i]).collect();
        instrs.sort_by_key(|&instr| compute_slot(instr).map(|(_, rank)| rank));
        for (&i, instr) in positions.iter().zip(instrs) {
            stream[i] = instr;
        }
    }
}

/// The `devS[I]` locations a rendered cycle names, in order.
fn cycle_locations(message: &str) -> Vec<(usize, usize)> {
    let body = message
        .split_once(": ")
        .and_then(|(_, rest)| rest.strip_suffix(" -> back to start"))
        .expect("a cycle report");
    body.split(" -> ")
        .map(|step| {
            let (dev, rest) = step
                .strip_prefix("dev")
                .and_then(|s| s.split_once('['))
                .expect("devS[I]");
            let (pos, _) = rest.split_once(']').expect("devS[I]");
            (
                dev.parse().expect("device index"),
                pos.parse().expect("position"),
            )
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Built-in streams with instructions swapped far apart on a device,
    /// then put back in legal per-microbatch order, are well-formed yet
    /// often wedge. Every such set publishes every key it consumes — so
    /// a wedge is always a cycle, never a starved key — and the verifier
    /// reports a deadlock exactly when the engine wedges, naming a cycle
    /// whose every step is program order or a published key.
    #[test]
    fn well_formed_sets_wedge_only_on_a_dependency_cycle(
        kind in any_kind(),
        p in 1usize..6,
        m in 1usize..7,
        swaps in prop::collection::vec((0usize..6, 0usize..1_000, 0usize..1_000), 0..4),
    ) {
        let mut streams = kind.all_stage_instructions(p, m);
        for &(device, a, b) in &swaps {
            let stream = &mut streams[device % p];
            let len = stream.len();
            stream.swap(a % len, b % len);
            restore_per_microbatch_order(stream);
        }
        let set = StreamSet { streams, microbatches: m, chunks: kind.chunk_count() };
        prop_assert_eq!(wellformed::check(&set), Vec::new());

        let (chunks, streams) = (set.chunks, &set.streams);
        let produced: BTreeSet<deps::DepKey> = (0..p)
            .flat_map(|s| streams[s].iter().filter_map(move |&i| deps::produced(i, s, p)))
            .collect();
        for (s, stream) in streams.iter().enumerate() {
            for &instr in stream {
                if let Some(edge) = deps::consumed(instr, s, p, chunks) {
                    prop_assert!(produced.contains(&edge.key), "dev{s} {instr:?}: starved");
                }
            }
        }

        let tf = SimDuration::from_millis(10);
        let tb = SimDuration::from_millis(20);
        let wedged = EngineConfig::uniform(kind, p, m, tf, tb).execute_streams(streams).is_err();
        let verdict = verify(&set, &VerifyConfig::new(tf, tb));
        let deadlock = verdict.findings.first().filter(|f| f.property == Property::Deadlock);
        prop_assert_eq!(deadlock.is_some(), wedged, "{:?}", verdict.findings);
        if let Some(finding) = deadlock {
            prop_assert_eq!(verdict.findings.len(), 1);
            let cycle = cycle_locations(&finding.message);
            prop_assert_eq!(finding.device, Some(cycle[0].0));
            prop_assert_eq!(cycle.iter().collect::<BTreeSet<_>>().len(), cycle.len());
            for (k, &(s, i)) in cycle.iter().enumerate() {
                let (t, j) = cycle[(k + 1) % cycle.len()];
                let program_order = t == s && j == i + 1;
                let hand_off = deps::consumed(streams[t][j], t, p, chunks)
                    .is_some_and(|edge| deps::produced(streams[s][i], s, p) == Some(edge.key));
                prop_assert!(program_order || hand_off, "{}", finding.message);
            }
        }
    }
}

/// The closed forms themselves, spot-checked at the calibration point
/// the certificates are generated at (r = 2): GPipe/1F1B at
/// (p-1)/(m+p-1), ZB-H1 at (p-1)/(3m+p-1), interleaved bounded below by
/// (p-1)/(vm+p-1).
#[test]
fn closed_forms_at_the_calibration_point() {
    let tf = SimDuration::from_millis(10);
    let tb = SimDuration::from_millis(20);
    for (kind, p, m, expected) in [
        (ScheduleKind::GPipe, 4, 8, 3.0f64 / 11.0),
        (ScheduleKind::OneFOneB, 4, 8, 3.0 / 11.0),
        (ScheduleKind::ZbH1, 4, 8, 3.0 / 27.0),
    ] {
        let set = StreamSet::from_schedule(kind, p, m);
        let verdict = verify(&set, &VerifyConfig::new(tf, tb).with_schedule(kind));
        let stats = verdict.stats.expect("certifies");
        assert_eq!(
            stats.bubble_fraction_static.to_bits(),
            expected.to_bits(),
            "{kind}"
        );
    }
    let set = StreamSet::from_schedule(ScheduleKind::Interleaved { chunks: 2 }, 4, 8);
    let verdict = verify(
        &set,
        &VerifyConfig::new(tf, tb).with_schedule(ScheduleKind::Interleaved { chunks: 2 }),
    );
    let stats = verdict.stats.expect("certifies");
    let ideal = 3.0 / 19.0;
    assert!(stats.bubble_fraction_static >= ideal);
}
