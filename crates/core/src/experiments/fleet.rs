//! Extension experiment: fleet-scale projection.
//!
//! The paper's Fig. 9/10 regime projects PipeFill onto 8K-GPU jobs; this
//! driver goes one step further and sweeps the *fleet size* — 1 to 64
//! concurrent main jobs over up to 8K GPUs, each fleet generated by the
//! workload generator with heterogeneous depths, periods and device
//! generations — through the fleet backend with fault injection on, and
//! reports how recovered throughput, slowdown, and global-queue traffic
//! (evictions, cross-job resumes) scale with fleet size.

use pipefill_sim_core::SimDuration;
use pipefill_trace::FleetWorkloadConfig;

use crate::backend::BackendConfig;
use crate::experiments::{row, sweep, Axis, Experiment, Grid, Scale, Table};
use crate::fleet::FleetSimConfig;

/// Per-device MTBF of the sweep: long enough that filling dominates,
/// short enough that the global queue sees real eviction traffic at
/// fleet scale.
pub const FLEET_MTBF: SimDuration = SimDuration::from_secs(1800);

/// The fleet-size sweep, one row per fleet size in grid order: `jobs`
/// main jobs on `jobs × 128` GPUs with fault injection at
/// [`FLEET_MTBF`]. Per-GPU rates are device-time weighted; the queue
/// columns count evictions routed through the global queue, those
/// resumed on a different main job (the global queue's win over per-job
/// queues), and its peak depth. The points fan out across cores.
pub struct FleetScale;

impl Experiment for FleetScale {
    fn name(&self) -> &'static str {
        "fleet_scale"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fleet-scale"]
    }
    fn description(&self) -> &'static str {
        "Extension: fleet-size scaling, 1-64 concurrent main jobs on one global fill queue"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "jobs",
            "gpus",
            "devices",
            "recovered_tflops_per_gpu",
            "main_tflops_per_gpu",
            "total_tflops_per_gpu",
            "mean_slowdown",
            "fill_jobs_completed",
            "failures",
            "evictions",
            "cross_job_dispatches",
            "peak_queue_depth",
            "goodput_fraction",
        ]
    }
    fn grid(&self, scale: Scale) -> Grid {
        match scale {
            Scale::Full => Grid {
                fleet_sizes: vec![1, 4, 16, 64],
                iterations: 150,
                seed: 7,
                ..Grid::default()
            },
            Scale::Golden => Grid {
                fleet_sizes: vec![1, 2, 4],
                iterations: 150,
                seed: 7,
                ..Grid::default()
            },
        }
    }
    fn axes(&self) -> &'static [Axis] {
        &[Axis::Iterations, Axis::Seed]
    }
    fn simulation_backed(&self) -> bool {
        true
    }
    fn run(&self, grid: &Grid) -> Table {
        let rows = sweep::par_map(grid.fleet_sizes.clone(), |jobs| {
            let mut workload = FleetWorkloadConfig::new(jobs, jobs * 128, grid.seed);
            workload.iterations = grid.iterations;
            let cfg = FleetSimConfig::from_workload(&workload).with_mtbf(FLEET_MTBF);
            let run = BackendConfig::Fleet(cfg).run();
            let detail = run.fleet().expect("fleet config yields fleet detail");
            row![
                jobs,
                detail.total_gpus,
                detail.num_devices,
                detail.recovered_tflops_per_gpu,
                detail.main_tflops_per_gpu,
                detail.total_tflops_per_gpu(),
                detail.mean_slowdown,
                detail.fill_jobs_completed,
                detail.failures,
                detail.evictions,
                detail.cross_job_dispatches,
                detail.peak_queue_depth,
                detail.goodput_fraction,
            ]
        });
        Table::with_rows(self.columns(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fleet_sweep_scales_and_stays_sane() {
        let grid = Grid {
            fleet_sizes: vec![1, 4],
            ..Grid::sim(25, 7)
        };
        let t = FleetScale.run(&grid);
        assert_eq!(t.len(), 2);
        let column = |name| t.f64_column(name);
        assert_eq!(column("jobs"), [1.0, 4.0]);
        let (gpus, devices) = (column("gpus"), column("devices"));
        assert!(gpus[1] > gpus[0]);
        assert!(devices[1] > devices[0]);
        for r in column("recovered_tflops_per_gpu") {
            assert!(r.is_finite() && r >= 0.0);
        }
        assert!(column("main_tflops_per_gpu").iter().all(|&m| m > 0.0));
        let goodput = column("goodput_fraction");
        assert!(goodput.iter().all(|g| (0.0..=1.0).contains(g)));
        assert!(column("mean_slowdown").iter().all(|&s| s >= 0.0));
        // Same seed reruns are byte-stable (the golden snapshot relies
        // on this).
        assert_eq!(t, FleetScale.run(&grid));
    }
}
