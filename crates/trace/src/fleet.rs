//! The fleet workload generator: job mixes for multi-job, cluster-scale
//! simulations.
//!
//! Where the rest of this crate generates *fill-job* workloads, this
//! module generates *main-job* populations: N concurrent
//! pipeline-parallel training jobs with heterogeneous pipeline depths,
//! microbatch counts (and therefore iteration periods), device
//! generations and fill appetites. The output is a pure description —
//! [`FleetJobPlan`] carries no simulator types — which the core crate
//! lowers onto concrete `MainJobSpec`s; that keeps this crate free of a
//! pipeline-engine dependency, mirroring how [`TraceJob`](crate::TraceJob)
//! defers GPU-hours → samples conversion downstream.
//!
//! Presets scale from a single rack to the paper's Fig. 9/10 projection
//! regime: up to 64 jobs on 8K GPUs ([`FleetWorkloadConfig::production_8k`]).

use pipefill_sim_core::rng::DeterministicRng;

/// GPU generation a fleet job runs on (lowered to a concrete
/// `DeviceSpec` by the simulator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DeviceGeneration {
    /// V100 16 GB — the paper's baseline.
    V100,
    /// A100 40 GB.
    A100,
    /// H100 80 GB.
    H100,
}

impl DeviceGeneration {
    /// All generations, oldest first.
    pub const ALL: [DeviceGeneration; 3] = [
        DeviceGeneration::V100,
        DeviceGeneration::A100,
        DeviceGeneration::H100,
    ];
}

impl std::fmt::Display for DeviceGeneration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DeviceGeneration::V100 => write!(f, "V100"),
            DeviceGeneration::A100 => write!(f, "A100"),
            DeviceGeneration::H100 => write!(f, "H100"),
        }
    }
}

/// One main job of a fleet: the shape of a pipeline-parallel training
/// job plus its fill-layer knobs. `gpus = tensor_parallel ×
/// pipeline_stages × data_parallel` is the job's cluster footprint; the
/// simulator models one representative stage per pipeline stage, exactly
/// as the single-job backends do.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetJobPlan {
    /// Index within the fleet.
    pub id: usize,
    /// Total GPUs this job occupies.
    pub gpus: usize,
    /// Tensor-parallel degree.
    pub tensor_parallel: usize,
    /// Pipeline depth.
    pub pipeline_stages: usize,
    /// Data-parallel degree.
    pub data_parallel: usize,
    /// Microbatches per pipeline replica (sets the bubble ratio and,
    /// with the device generation, the iteration period).
    pub microbatches: usize,
    /// GPU generation of every device in this job (homogeneous within a
    /// job; heterogeneous across the fleet).
    pub device_generation: DeviceGeneration,
    /// Workload RNG seed for this job's fill backlog.
    pub seed: u64,
    /// Fill fraction (0.0 = this job declines filling entirely).
    pub fill_fraction: f64,
    /// Main-job iterations to simulate.
    pub iterations: usize,
    /// Whether this job's stages accept fill work evicted from other
    /// jobs (per-job admission at the global fill queue).
    pub admits_foreign: bool,
}

/// Fleet workload parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetWorkloadConfig {
    /// Concurrent main jobs.
    pub jobs: usize,
    /// Total GPU budget split evenly across jobs (each job's realized
    /// footprint rounds down to a whole number of pipeline replicas).
    pub target_gpus: usize,
    /// RNG seed; the same seed reproduces the same fleet exactly.
    pub seed: u64,
    /// Main-job iterations each job simulates.
    pub iterations: usize,
}

impl FleetWorkloadConfig {
    /// A fleet of `jobs` main jobs over `target_gpus` GPUs.
    ///
    /// # Panics
    ///
    /// Panics if `jobs` is zero or the per-job GPU budget is below the
    /// smallest pipeline this generator emits (8 GPUs).
    pub fn new(jobs: usize, target_gpus: usize, seed: u64) -> Self {
        assert!(jobs > 0, "a fleet needs at least one main job");
        assert!(
            target_gpus / jobs >= 8,
            "per-job GPU budget {} is below the smallest pipeline (8 GPUs)",
            target_gpus / jobs
        );
        FleetWorkloadConfig {
            jobs,
            target_gpus,
            seed,
            // Long enough that backlog fill jobs (~0.02 GPU-hours) finish
            // and recycle through the queue many times per run.
            iterations: 150,
        }
    }

    /// The paper's projection regime: 64 concurrent jobs on 8K GPUs.
    pub fn production_8k(seed: u64) -> Self {
        FleetWorkloadConfig::new(64, 8192, seed)
    }

    /// A rack-scale fleet: 4 jobs on 512 GPUs.
    pub fn rack_scale(seed: u64) -> Self {
        FleetWorkloadConfig::new(4, 512, seed)
    }

    /// Draws the fleet. Deterministic per seed; jobs are emitted in id
    /// order.
    pub fn generate(&self) -> Vec<FleetJobPlan> {
        let mut rng = DeterministicRng::seed_from(self.seed);
        let budget = self.target_gpus / self.jobs;
        (0..self.jobs)
            .map(|id| {
                // Pipeline shape: depth × tensor width, capped by budget.
                let shapes: &[(usize, usize)] = &[(1, 8), (1, 16), (2, 8), (2, 16)];
                let feasible: Vec<(usize, usize)> = shapes
                    .iter()
                    .copied()
                    .filter(|&(tp, pp)| tp * pp <= budget)
                    .collect();
                let (tensor_parallel, pipeline_stages) =
                    feasible[rng.uniform_usize(0, feasible.len())];
                let data_parallel = (budget / (tensor_parallel * pipeline_stages)).max(1);
                let microbatches = [4usize, 8, 16][rng.uniform_usize(0, 3)];
                let device_generation = {
                    let r = rng.uniform(0.0, 1.0);
                    if r < 0.5 {
                        DeviceGeneration::V100
                    } else if r < 0.8 {
                        DeviceGeneration::A100
                    } else {
                        DeviceGeneration::H100
                    }
                };
                // Most jobs fill at the paper's 68% default; a few run
                // conservatively, and a few opt out of filling entirely.
                let fill_fraction = {
                    let r = rng.uniform(0.0, 1.0);
                    if r < 0.80 {
                        0.68
                    } else if r < 0.95 {
                        0.50
                    } else {
                        0.0
                    }
                };
                let admits_foreign = rng.bernoulli(0.8);
                FleetJobPlan {
                    id,
                    gpus: tensor_parallel * pipeline_stages * data_parallel,
                    tensor_parallel,
                    pipeline_stages,
                    data_parallel,
                    microbatches,
                    device_generation,
                    seed: self.seed ^ ((id as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15)),
                    fill_fraction,
                    iterations: self.iterations,
                    admits_foreign,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_is_deterministic_per_seed() {
        let a = FleetWorkloadConfig::production_8k(7).generate();
        let b = FleetWorkloadConfig::production_8k(7).generate();
        let c = FleetWorkloadConfig::production_8k(8).generate();
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn production_preset_hits_the_paper_scale() {
        let plans = FleetWorkloadConfig::production_8k(1).generate();
        assert_eq!(plans.len(), 64);
        let total: usize = plans.iter().map(|p| p.gpus).sum();
        // Rounding to whole replicas can shave a little off the target.
        assert!(
            total > 7000 && total <= 8192,
            "fleet footprint {total} GPUs"
        );
        for (i, p) in plans.iter().enumerate() {
            assert_eq!(p.id, i);
            assert_eq!(
                p.gpus,
                p.tensor_parallel * p.pipeline_stages * p.data_parallel
            );
            assert!(p.gpus <= 8192 / 64);
            assert!((0.0..=1.0).contains(&p.fill_fraction));
            assert!(p.iterations > 0);
        }
    }

    #[test]
    fn fleet_is_heterogeneous_at_scale() {
        // BTreeSet, not HashSet: uniqueness checks on ordered sets keep
        // the whole validation order-deterministic (and detlint-clean
        // should a future assertion ever observe iteration order).
        let plans = FleetWorkloadConfig::production_8k(3).generate();
        let depths: std::collections::BTreeSet<usize> =
            plans.iter().map(|p| p.pipeline_stages).collect();
        let microbatches: std::collections::BTreeSet<usize> =
            plans.iter().map(|p| p.microbatches).collect();
        let gens: std::collections::BTreeSet<DeviceGeneration> =
            plans.iter().map(|p| p.device_generation).collect();
        assert!(depths.len() > 1, "all jobs have the same depth");
        assert!(microbatches.len() > 1, "all jobs have the same period");
        assert!(gens.len() > 1, "all jobs run the same GPU generation");
        assert!(plans.iter().any(|p| p.admits_foreign));
        // Per-job seeds are distinct, so workload streams never collide.
        let seeds: std::collections::BTreeSet<u64> = plans.iter().map(|p| p.seed).collect();
        assert_eq!(seeds.len(), plans.len());
    }

    #[test]
    fn small_budgets_shrink_the_shape_menu() {
        let plans = FleetWorkloadConfig::new(4, 32, 5).generate();
        for p in &plans {
            assert!(p.gpus <= 8, "job exceeded its budget: {p:?}");
            assert_eq!(p.pipeline_stages, 8);
            assert_eq!(p.tensor_parallel, 1);
        }
    }

    #[test]
    #[should_panic(expected = "at least one main job")]
    fn empty_fleet_rejected() {
        let _ = FleetWorkloadConfig::new(0, 1024, 1);
    }

    #[test]
    #[should_panic(expected = "below the smallest pipeline")]
    fn starved_budget_rejected() {
        let _ = FleetWorkloadConfig::new(64, 64, 1);
    }
}
