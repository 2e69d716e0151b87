//! Property tests for the heterogeneous + fault-injecting backend:
//! no-fault inertness, monotone degradation in the failure rate, and the
//! exactly-once completion invariant for evicted jobs, across arbitrary
//! seeds and checkpoint costs.

use proptest::prelude::*;

use pipefill_core::{BackendConfig, FleetSimConfig, FleetSimResult, PhysicalSimConfig};
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_sim_core::SimDuration;

/// One fault run: the physical defaults as a one-job fleet, plus the
/// failure model.
fn run_fault(seed: u64, iterations: usize, mtbf: SimDuration, ckpt_secs: f64) -> FleetSimResult {
    let mut phys = PhysicalSimConfig::new(MainJobSpec::physical_5b(8, ScheduleKind::GPipe));
    phys.iterations = iterations;
    phys.seed = seed;
    let mut cfg = FleetSimConfig::from_physical(&phys).with_mtbf(mtbf);
    cfg.checkpoint_cost = SimDuration::from_secs_f64(ckpt_secs);
    BackendConfig::Fault(cfg)
        .run()
        .fleet()
        .expect("fault config yields fleet detail")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// An MTBF beyond the run's horizon injects nothing: no failures, no
    /// evictions, no lost work, goodput exactly 1.
    #[test]
    fn mtbf_beyond_horizon_evicts_nothing(seed in 0u64..1_000, ckpt_pct in 0u64..80) {
        // The 40-iteration run spans minutes; a ~32-year MTBF per device
        // cannot fire within it under any seed's exponential draw (the
        // earliest draw observed across the u64 seed space is orders of
        // magnitude above the horizon).
        let r = run_fault(seed, 40, SimDuration::from_secs(1_000_000_000), ckpt_pct as f64 / 10.0);
        prop_assert_eq!(r.failures, 0, "seed {} injected failures", seed);
        prop_assert_eq!(r.evictions, 0);
        prop_assert_eq!(r.lost_fill_flops, 0.0);
        prop_assert_eq!(r.goodput_fraction, 1.0);
        prop_assert_eq!(r.jobs[0].bubbles_lost, 0);
        prop_assert_eq!(r.jobs[0].downtime, SimDuration::ZERO);
    }

    /// Raising the failure rate (lowering the MTBF) never *increases*
    /// recovered throughput: each step down the MTBF ladder loses at
    /// least as much fill work to downtime and evictions. Failure
    /// processes own forked RNG streams, so the workload draws are
    /// identical across the ladder; a 2% tolerance absorbs the jitter
    /// realignment the extra/fewer eviction paths cause.
    #[test]
    fn recovered_tflops_degrade_with_failure_rate(seed in 0u64..500) {
        let ladder = [
            SimDuration::MAX,
            SimDuration::from_secs(14_400),
            SimDuration::from_secs(3_600),
            SimDuration::from_secs(900),
            SimDuration::from_secs(300),
        ];
        let recovered: Vec<f64> = ladder
            .iter()
            .map(|&mtbf| run_fault(seed, 60, mtbf, 2.0).jobs[0].recovered_tflops_per_gpu)
            .collect();
        for (i, pair) in recovered.windows(2).enumerate() {
            prop_assert!(
                pair[1] <= pair[0] * 1.02,
                "seed {}: recovered went up at ladder step {}: {} -> {}",
                seed, i, pair[0], pair[1]
            );
        }
        // And the ends of the ladder separate decisively.
        prop_assert!(
            recovered[ladder.len() - 1] < recovered[0],
            "seed {}: a 5-minute MTBF did not cost anything ({} vs {})",
            seed, recovered[ladder.len() - 1], recovered[0]
        );
    }

    /// An evicted job that is revived completes at most once, and the
    /// completion ledger matches the counter — no double counting
    /// through the evict → requeue → resume path.
    #[test]
    fn evicted_jobs_are_never_double_completed(seed in 0u64..500, ckpt_pct in 0u64..80) {
        let r = run_fault(seed, 80, SimDuration::from_secs(250), ckpt_pct as f64 / 10.0);
        prop_assert!(r.failures > 0, "seed {} never failed at a 250s MTBF", seed);
        let mut ids: Vec<_> = r.completed_fill_ids.clone();
        ids.sort_unstable();
        let before = ids.len();
        ids.dedup();
        prop_assert_eq!(before, ids.len(), "seed {}: a job completed twice", seed);
        prop_assert_eq!(r.completed_fill_ids.len(), r.fill_jobs_completed);
        // Accounting identities hold under eviction pressure.
        prop_assert!(r.fill_flops >= 0.0);
        prop_assert!(r.lost_fill_flops >= 0.0);
        prop_assert!((0.0..=1.0).contains(&r.goodput_fraction));
    }
}
