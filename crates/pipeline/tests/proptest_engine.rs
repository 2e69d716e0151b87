//! Property tests for the pipeline engine: the closed-form bubble
//! formulas must fall out of the dependency simulation for arbitrary
//! pipeline shapes.

use proptest::prelude::*;

use pipefill_pipeline::{bubble_fraction, BubbleKind, EngineConfig, ScheduleKind};
use pipefill_sim_core::SimDuration;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GPipe with uniform stages and no communication matches
    /// (p-1)/(m+p-1) exactly, with the per-stage split
    /// fwd-bwd = (p-1-s)(tf+tb), fill-drain = s(tf+tb).
    #[test]
    fn gpipe_closed_form(
        p in 1usize..12,
        m in 1usize..24,
        tf_ms in 1u64..40,
        tb_mult in 1u64..4,
    ) {
        let tf = SimDuration::from_millis(tf_ms);
        let tb = SimDuration::from_millis(tf_ms * tb_mult);
        let tl = EngineConfig::uniform(ScheduleKind::GPipe, p, m, tf, tb).run();
        prop_assert_eq!(tl.period, (tf + tb) * (m + p - 1) as u64);
        prop_assert!((tl.bubble_ratio() - bubble_fraction(p, m)).abs() < 1e-9);
        for (s, st) in tl.stages.iter().enumerate() {
            let fwd_bwd: SimDuration = st.windows.iter()
                .filter(|w| w.kind == BubbleKind::FwdBwd)
                .map(|w| w.duration)
                .sum();
            let fill_drain: SimDuration = st.windows.iter()
                .filter(|w| w.kind == BubbleKind::FillDrain)
                .map(|w| w.duration)
                .sum();
            prop_assert_eq!(fwd_bwd, (tf + tb) * (p - 1 - s) as u64);
            prop_assert_eq!(fill_drain, (tf + tb) * s as u64);
        }
    }

    /// For any schedule and shape: busy + bubbles = period on every
    /// stage, windows are disjoint and ordered, and every window reports
    /// the configured free memory.
    #[test]
    fn timeline_partitions_the_period(
        schedule in prop_oneof![
            Just(ScheduleKind::GPipe),
            Just(ScheduleKind::OneFOneB),
            Just(ScheduleKind::Interleaved { chunks: 2 }),
            Just(ScheduleKind::Interleaved { chunks: 3 }),
            Just(ScheduleKind::ZbH1),
        ],
        p in 1usize..10,
        m in 1usize..16,
        tf_ms in 1u64..30,
        tb_ms in 1u64..60,
        comm_us in 0u64..2_000,
    ) {
        let mut cfg = EngineConfig::uniform(
            schedule,
            p,
            m,
            SimDuration::from_millis(tf_ms),
            SimDuration::from_millis(tb_ms),
        );
        cfg.comm = SimDuration::from_micros(comm_us);
        let tl = cfg.run();
        for st in &tl.stages {
            prop_assert_eq!(st.busy + st.bubble_time(), tl.period);
            let mut cursor = SimDuration::ZERO;
            for w in &st.windows {
                prop_assert!(w.offset >= cursor);
                prop_assert_eq!(w.free_memory, cfg.bubble_free_memory);
                cursor = w.offset + w.duration;
            }
            prop_assert!(cursor <= tl.period);
        }
        prop_assert!(tl.fillable_ratio() <= tl.bubble_ratio() + 1e-12);
    }

    /// 1F1B and GPipe have identical total bubble time for uniform
    /// stages without communication, and 1F1B never fills more.
    #[test]
    fn one_f_one_b_vs_gpipe(
        p in 2usize..10,
        m in 1usize..16,
        tf_ms in 1u64..30,
        tb_ms in 1u64..60,
    ) {
        let tf = SimDuration::from_millis(tf_ms);
        let tb = SimDuration::from_millis(tb_ms);
        let g = EngineConfig::uniform(ScheduleKind::GPipe, p, m, tf, tb).run();
        let o = EngineConfig::uniform(ScheduleKind::OneFOneB, p, m, tf, tb).run();
        prop_assert_eq!(g.period, o.period);
        prop_assert!((g.bubble_ratio() - o.bubble_ratio()).abs() < 1e-9);
        prop_assert!(o.fillable_ratio() <= g.fillable_ratio() + 1e-9);
    }

    /// The theoretical total-bubble-fraction ordering at equal depth and
    /// microbatch count: ZB-H1 ≤ 1F1B ≤ GPipe (the latter two are equal
    /// for uniform stages — GPipe never fractions *less*). The
    /// interleaved family is pinned separately at the repo's 2:1
    /// calibration: its greedy realization can sit a hair above 1F1B for
    /// adversarial forward/backward ratios.
    #[test]
    fn schedule_bubble_fraction_ordering(
        p in 2usize..10,
        m in 1usize..16,
        tf_ms in 1u64..30,
        tb_ms in 1u64..60,
    ) {
        let tf = SimDuration::from_millis(tf_ms);
        let tb = SimDuration::from_millis(tb_ms);
        let ratio = |schedule| {
            EngineConfig::uniform(schedule, p, m, tf, tb).run().bubble_ratio()
        };
        let gpipe = ratio(ScheduleKind::GPipe);
        let ofob = ratio(ScheduleKind::OneFOneB);
        let zb = ratio(ScheduleKind::ZbH1);
        prop_assert!(ofob <= gpipe + 1e-9, "1F1B {} vs GPipe {}", ofob, gpipe);
        prop_assert!(zb <= ofob + 1e-9, "ZB-H1 {} vs 1F1B {}", zb, ofob);
    }

    /// At the repo's backward = 2×forward calibration and in
    /// interleaving's target regime — complete microbatch rounds,
    /// m ≡ 0 (mod p), exactly Megatron-LM's precondition — the
    /// interleaved schedule never exceeds 1F1B's total bubble and never
    /// beats the ideal closed-form floor. (Partial rounds and the
    /// chunk-count monotonicity are pinned loosely by the partition
    /// property and the engine unit tests; off-regime shapes can
    /// fragment past 1F1B.)
    #[test]
    fn interleaved_ordering_at_calibration(
        p in 2usize..10,
        rounds in 1usize..6,
        tf_ms in 1u64..30,
    ) {
        let m = p * rounds;
        let tf = SimDuration::from_millis(tf_ms);
        let tb = tf * 2;
        let ratio = |schedule| {
            EngineConfig::uniform(schedule, p, m, tf, tb).run().bubble_ratio()
        };
        let ofob = ratio(ScheduleKind::OneFOneB);
        let il2 = ratio(ScheduleKind::Interleaved { chunks: 2 });
        let il4 = ratio(ScheduleKind::Interleaved { chunks: 4 });
        prop_assert!(il2 <= ofob + 1e-9, "interleaved:2 {} vs 1F1B {}", il2, ofob);
        let ideal = |chunks| pipefill_pipeline::bubble_fraction_for(
            ScheduleKind::Interleaved { chunks },
            p,
            m,
            2.0,
        );
        prop_assert!(il2 >= ideal(2) - 1e-9);
        prop_assert!(il4 >= ideal(4) - 1e-9);
    }

    /// ZB-H1's closed form at the 2:1 calibration and m ≥ p: period
    /// stretches 1F1B's m(t_f+t_b) by (p-1)(t_f + t_B − t_W) = (p-1)t_f
    /// exactly, every stage. (Off-calibration ratios leave W remainders
    /// that the ordering property above still bounds.)
    #[test]
    fn zb_h1_closed_form(
        p in 2usize..9,
        m_extra in 0usize..8,
        tf_ms in 1u64..30,
    ) {
        let m = p + m_extra;
        let tf = SimDuration::from_millis(tf_ms);
        let tb = tf * 2;
        let tl = EngineConfig::uniform(ScheduleKind::ZbH1, p, m, tf, tb).run();
        let ramp = tf * (p - 1) as u64;
        prop_assert_eq!(tl.period, (tf + tb) * m as u64 + ramp);
        for st in &tl.stages {
            prop_assert_eq!(st.bubble_time(), ramp, "stage {}", st.stage);
        }
    }

    /// 1-chunk interleaved reproduces 1F1B bit for bit across arbitrary
    /// shapes — the conformance pin's property-level form.
    #[test]
    fn one_chunk_interleaved_is_one_f_one_b(
        p in 1usize..10,
        m in 1usize..16,
        tf_ms in 1u64..30,
        tb_ms in 1u64..60,
        comm_us in 0u64..2_000,
    ) {
        let mk = |schedule| {
            let mut cfg = EngineConfig::uniform(
                schedule,
                p,
                m,
                SimDuration::from_millis(tf_ms),
                SimDuration::from_millis(tb_ms),
            );
            cfg.comm = SimDuration::from_micros(comm_us);
            cfg.run()
        };
        prop_assert_eq!(
            mk(ScheduleKind::Interleaved { chunks: 1 }),
            mk(ScheduleKind::OneFOneB)
        );
    }

    /// The 1F1B fwd-bwd bubble formula from §4.5:
    /// (p-s-1)·t_bwd + max(0, p-s-m)·t_fwd.
    #[test]
    fn one_f_one_b_fwd_bwd_formula(
        p in 2usize..10,
        m in 1usize..16,
        tf_ms in 1u64..30,
        tb_ms in 1u64..60,
    ) {
        let tf = SimDuration::from_millis(tf_ms);
        let tb = SimDuration::from_millis(tb_ms);
        let tl = EngineConfig::uniform(ScheduleKind::OneFOneB, p, m, tf, tb).run();
        for (s, st) in tl.stages.iter().enumerate() {
            let fwd_bwd: SimDuration = st.windows.iter()
                .filter(|w| w.kind == BubbleKind::FwdBwd)
                .map(|w| w.duration)
                .sum();
            let expect = tb * (p - 1 - s) as u64 + tf * (p - s).saturating_sub(m) as u64;
            prop_assert_eq!(fwd_bwd, expect, "stage {}", s);
        }
    }
}
