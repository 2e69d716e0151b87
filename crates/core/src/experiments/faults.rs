//! Extension experiment: fault-tolerance what-if.
//!
//! FreeRide-style bubble harvesting only pays off if the side jobs
//! survive the cluster's failure regime: every eviction burns the work
//! since the job's last checkpoint plus a restart tax. This driver sweeps
//! the MTBF × checkpoint-cost grid through the fault backend and reports
//! how much recovered throughput and goodput survive at each point — the
//! operating map for choosing a checkpoint cadence on real clusters.

use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_sim_core::SimDuration;

use crate::backend::BackendConfig;
use crate::experiments::{row, sweep, Axis, Experiment, Grid, Scale, Table, Value};
use crate::fleet::FleetSimConfig;
use crate::physical::PhysicalSimConfig;

/// The MTBF axis, in seconds: 10 min (burn-in-grade), 30 min, 2 h,
/// 8 h, and no faults.
pub const FAULT_MTBFS_SECS: [f64; 5] = [600.0, 1800.0, 7200.0, 28800.0, f64::INFINITY];

/// The checkpoint-cost axis, in seconds of bubble time per restart.
pub const FAULT_CHECKPOINT_COSTS_SECS: [f64; 3] = [0.5, 2.0, 8.0];

/// The MTBF × checkpoint-cost sweep; grid points fan out across cores in
/// row-major order (MTBF outer, checkpoint cost inner). Each row reports
/// the one job's failures, evictions, fill FLOPs lost to evictions,
/// surviving fill TFLOPS per GPU and main-job slowdown (fill-overrun
/// stalls; outages attack only the fill layer), plus the fleet's
/// goodput: the fraction of executed fill FLOPs that survived.
pub struct WhatifFaults;

impl Experiment for WhatifFaults {
    fn name(&self) -> &'static str {
        "whatif_faults"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["faults"]
    }
    fn description(&self) -> &'static str {
        "Extension: MTBF x checkpoint-cost fault-tolerance map through the fault backend"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "mtbf_secs",
            "checkpoint_cost_secs",
            "failures",
            "evictions",
            "lost_fill_flops",
            "recovered_tflops",
            "goodput_fraction",
            "main_slowdown",
        ]
    }
    fn grid(&self, scale: Scale) -> Grid {
        match scale {
            Scale::Full => Grid::sim(200, 7),
            Scale::Golden => Grid::sim(40, 7),
        }
    }
    fn axes(&self) -> &'static [Axis] {
        &[Axis::Iterations, Axis::Seed]
    }
    fn simulation_backed(&self) -> bool {
        true
    }
    fn run(&self, grid: &Grid) -> Table {
        let points: Vec<(f64, f64)> = FAULT_MTBFS_SECS
            .iter()
            .flat_map(|&m| FAULT_CHECKPOINT_COSTS_SECS.iter().map(move |&c| (m, c)))
            .collect();
        let rows = sweep::par_map(points, |(mtbf_secs, ckpt_secs)| {
            let mut phys = PhysicalSimConfig::new(MainJobSpec::physical_5b(8, ScheduleKind::GPipe));
            phys.iterations = grid.iterations;
            phys.seed = grid.seed;
            // A fault run is a one-job fleet; an infinite MTBF is the
            // backends' `SimDuration::MAX` "never" sentinel.
            let mtbf = if mtbf_secs.is_finite() {
                SimDuration::from_secs_f64(mtbf_secs)
            } else {
                SimDuration::MAX
            };
            let mut cfg = FleetSimConfig::from_physical(&phys).with_mtbf(mtbf);
            cfg.checkpoint_cost = SimDuration::from_secs_f64(ckpt_secs);
            let run = BackendConfig::Fault(cfg).run();
            let fleet = run.fleet().expect("fault config yields fleet detail");
            // The row reads the one job's own numbers: the fleet aggregates
            // are device-weighted and need not match them bit for bit.
            let job = &fleet.jobs[0];
            let mut row = row![
                ckpt_secs,
                job.failures,
                job.evictions,
                job.lost_fill_flops,
                job.recovered_tflops_per_gpu,
                fleet.goodput_fraction,
                job.main_slowdown,
            ];
            row.insert(0, mtbf_cell(mtbf_secs));
            row
        });
        Table::with_rows(self.columns(), rows)
    }
}

/// The `mtbf_secs` cell. The disabled-injection sentinel is written as
/// the explicit string the CLI accepts ('none'), not as a float
/// infinity: non-finite numeric renderings are treated as bugs.
fn mtbf_cell(mtbf_secs: f64) -> Value {
    if mtbf_secs.is_finite() {
        Value::Float(mtbf_secs)
    } else {
        Value::from("none")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_grid_covers_both_axes_and_degrades_gracefully() {
        let t = WhatifFaults.run(&Grid::sim(40, 7));
        assert_eq!(
            t.len(),
            FAULT_MTBFS_SECS.len() * FAULT_CHECKPOINT_COSTS_SECS.len()
        );
        let column = |name| t.f64_column(name);
        let (failures, evictions) = (column("failures"), column("evictions"));
        let (recovered, goodput) = (column("recovered_tflops"), column("goodput_fraction"));
        let last = t.len() - 1;
        // The no-fault corner is clean, its MTBF written as 'none'…
        assert_eq!(t.rows()[last][0], Value::from("none"));
        assert!(!t.to_csv_string().contains("inf"));
        assert_eq!(evictions[last], 0.0);
        assert_eq!(goodput[last], 1.0);
        // …and the burn-in corner visibly is not.
        assert_eq!(column("mtbf_secs")[0], 600.0);
        assert!(failures[0] > 0.0);
        assert!(recovered[0] < recovered[last]);
        // Every row is finite and sane.
        for ((r, g), s) in recovered.iter().zip(&goodput).zip(column("main_slowdown")) {
            assert!(r.is_finite() && *r >= 0.0);
            assert!((0.0..=1.0).contains(g));
            assert!(s >= 0.0);
        }
    }
}
