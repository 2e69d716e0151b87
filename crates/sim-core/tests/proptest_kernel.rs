//! Property tests for the simulation kernel: queue ordering, time
//! arithmetic, and statistics invariants.

use proptest::prelude::*;

use pipefill_sim_core::rng::DeterministicRng;
use pipefill_sim_core::stats::{OnlineStats, Summary};
use pipefill_sim_core::{EventQueue, SimDuration, SimTime};

proptest! {
    /// The event queue yields events in non-decreasing time order, and
    /// simultaneous events in push order.
    #[test]
    fn queue_is_a_stable_time_sort(times in prop::collection::vec(0u64..1_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_nanos(t), i);
        }
        let mut popped: Vec<(SimTime, usize)> = Vec::new();
        while let Some(e) = q.pop() {
            popped.push(e);
        }
        prop_assert_eq!(popped.len(), times.len());
        for w in popped.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "time order violated");
            if w[0].0 == w[1].0 {
                prop_assert!(w[0].1 < w[1].1, "FIFO tie-break violated");
            }
        }
    }

    /// `push_run` is exactly a sequence of single pushes. Random
    /// interleavings of `push`, `push_run` (empty and one-event runs
    /// included), `pop` and `peek_time` over four instants, so ties are
    /// common and later pushes often land earlier than a half-drained
    /// run, must match a reference queue fed one `push` per event.
    #[test]
    fn push_run_matches_single_pushes(
        ops in prop::collection::vec((0u8..4, 0u64..4, 0usize..5), 1..120),
    ) {
        let mut q = EventQueue::new();
        let mut reference = EventQueue::new();
        let mut next_event = 0u32;
        for (op, at, n) in ops {
            let at = SimTime::from_nanos(at);
            match op {
                0 => {
                    q.push(at, next_event);
                    reference.push(at, next_event);
                    next_event += 1;
                }
                1 => {
                    let run = next_event..next_event + n as u32;
                    next_event += n as u32;
                    q.push_run(at, run.clone());
                    for event in run {
                        reference.push(at, event);
                    }
                }
                2 => prop_assert_eq!(q.pop(), reference.pop()),
                _ => prop_assert_eq!(q.peek_time(), reference.peek_time()),
            }
            prop_assert_eq!(q.peek_time(), reference.peek_time());
            prop_assert_eq!(q.len(), reference.len());
            prop_assert_eq!(q.is_empty(), reference.is_empty());
        }
        while let Some(event) = reference.pop() {
            prop_assert_eq!(q.pop(), Some(event));
            prop_assert_eq!(q.len(), reference.len());
        }
        prop_assert_eq!(q.pop(), None);
        prop_assert!(q.is_empty());
    }

    /// Duration arithmetic is consistent: sum of parts equals the whole,
    /// and scaling by a ratio then its inverse round-trips within 1 ns
    /// per operation.
    #[test]
    fn duration_arithmetic_consistency(parts in prop::collection::vec(0u64..1_000_000, 1..50)) {
        let total: SimDuration = parts.iter().map(|&n| SimDuration::from_nanos(n)).sum();
        prop_assert_eq!(total.as_nanos(), parts.iter().sum::<u64>());
        let t = SimTime::ZERO + total;
        prop_assert_eq!(t.saturating_since(SimTime::ZERO), total);
    }

    /// `mul_f64` is monotone in the factor.
    #[test]
    fn scaling_is_monotone(nanos in 1u64..1_000_000_000, a in 0.0f64..2.0, b in 0.0f64..2.0) {
        let d = SimDuration::from_nanos(nanos);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(d.mul_f64(lo) <= d.mul_f64(hi));
    }

    /// Welford accumulation matches the batch summary for any sample.
    #[test]
    fn online_stats_match_batch(values in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let mut online = OnlineStats::new();
        for &v in &values {
            online.push(v);
        }
        let batch = Summary::from_slice(&values).unwrap();
        prop_assert!((online.mean() - batch.mean).abs() < 1e-6 * (1.0 + batch.mean.abs()));
        prop_assert!((online.std_dev() - batch.std_dev).abs() < 1e-5 * (1.0 + batch.std_dev));
        prop_assert_eq!(online.min().unwrap(), batch.min);
        prop_assert_eq!(online.max().unwrap(), batch.max);
    }

    /// Merging two accumulators equals accumulating the concatenation.
    #[test]
    fn stats_merge_is_concatenation(
        a in prop::collection::vec(-1e3f64..1e3, 0..100),
        b in prop::collection::vec(-1e3f64..1e3, 0..100),
    ) {
        let mut sa = OnlineStats::new();
        let mut sb = OnlineStats::new();
        let mut sall = OnlineStats::new();
        for &v in &a { sa.push(v); sall.push(v); }
        for &v in &b { sb.push(v); sall.push(v); }
        sa.merge(&sb);
        prop_assert_eq!(sa.count(), sall.count());
        prop_assert!((sa.mean() - sall.mean()).abs() < 1e-9);
        prop_assert!((sa.variance() - sall.variance()).abs() < 1e-6);
    }

    /// The RNG's weighted choice never selects a zero-weight arm and is
    /// deterministic per seed.
    #[test]
    fn weighted_index_support(seed in 0u64..1000, zero_arm in 0usize..4) {
        let mut weights = [1.0f64; 4];
        weights[zero_arm] = 0.0;
        let mut a = DeterministicRng::seed_from(seed);
        let mut b = DeterministicRng::seed_from(seed);
        for _ in 0..64 {
            let ia = a.weighted_index(&weights);
            let ib = b.weighted_index(&weights);
            prop_assert_eq!(ia, ib, "determinism violated");
            prop_assert_ne!(ia, zero_arm, "zero-weight arm selected");
        }
    }

    /// Distribution samples stay in their support.
    #[test]
    fn distribution_supports(seed in 0u64..1000) {
        let mut rng = DeterministicRng::seed_from(seed);
        for _ in 0..100 {
            prop_assert!(rng.exponential(3.0) >= 0.0);
            prop_assert!(rng.lognormal(-1.0, 2.0) > 0.0);
            prop_assert!(rng.jitter(0.3) >= 0.0);
            let u = rng.uniform(2.0, 5.0);
            prop_assert!((2.0..5.0).contains(&u));
        }
    }
}
