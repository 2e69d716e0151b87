//! The rayon-parallel sweep driver.
//!
//! Every figure of the evaluation is a *sweep*: the same simulation or
//! analysis repeated over a grid of configurations (fill fractions, loads,
//! seeds, mixes, GPU counts). The points are independent, so this module
//! fans them out across cores while keeping results in input order — a
//! sweep returns exactly what the serial loop would, just faster.
//!
//! Determinism is unaffected: each point owns its seeded RNG, and
//! [`par_map`] preserves index order, so experiment output is byte-stable
//! regardless of the worker count (including `--threads 1`).

use rayon::prelude::*;

use crate::backend::{BackendConfig, BackendRun};

/// Configures the global worker count used by all sweeps (0 or
/// [`default`](set_threads) = machine-sized). Returns the count now in
/// effect. Wired to the CLI's `--threads` flag.
pub fn set_threads(threads: usize) -> usize {
    rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build_global()
        .ok();
    rayon::current_num_threads()
}

/// Applies `f` to every item across cores, preserving input order.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    items.into_par_iter().map(f).collect()
}

/// Runs a batch of backend configurations (any mix of fidelities) across
/// cores; results preserve input order.
pub fn run_sweep(configs: Vec<BackendConfig>) -> Vec<BackendRun> {
    par_map(configs, BackendConfig::run)
}

/// Multi-seed replication: runs `f` once per seed across cores, in seed
/// order. The backbone of the agreement and sensitivity studies.
pub fn replicate<R, F>(seeds: &[u64], f: F) -> Vec<R>
where
    R: Send,
    F: Fn(u64) -> R + Sync,
{
    par_map(seeds.to_vec(), f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendConfig, BackendKind};
    use crate::{ClusterSimConfig, PhysicalSimConfig};
    use pipefill_pipeline::{MainJobSpec, ScheduleKind};
    use pipefill_sim_core::SimDuration;
    use pipefill_trace::TraceConfig;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0u64..100).collect(), |x| x * x);
        assert_eq!(out, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_matches_serial_execution() {
        let mk = |seed: u64| {
            let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
            let mut trace = TraceConfig::physical(seed);
            trace.horizon = SimDuration::from_secs(600);
            BackendConfig::Coarse(ClusterSimConfig::new(main, trace))
        };
        let parallel = run_sweep(vec![mk(1), mk(2), mk(3)]);
        for (i, seed) in [1u64, 2, 3].iter().enumerate() {
            let serial = mk(*seed).run();
            assert_eq!(
                parallel[i].metrics.recovered_tflops_per_gpu,
                serial.metrics.recovered_tflops_per_gpu,
                "parallel order or determinism broken at seed {seed}"
            );
        }
    }

    #[test]
    fn mixed_fidelity_sweep() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut trace = TraceConfig::physical(9);
        trace.horizon = SimDuration::from_secs(600);
        let mut phys = PhysicalSimConfig::new(main.clone());
        phys.iterations = 40;
        let runs = run_sweep(vec![
            BackendConfig::Coarse(ClusterSimConfig::new(main, trace)),
            BackendConfig::Physical(phys),
        ]);
        assert_eq!(runs[0].metrics.kind, BackendKind::Coarse);
        assert_eq!(runs[1].metrics.kind, BackendKind::Physical);
    }

    #[test]
    fn replicate_is_seed_ordered() {
        let out = replicate(&[5, 6, 7], |s| s * 10);
        assert_eq!(out, vec![50, 60, 70]);
    }
}
