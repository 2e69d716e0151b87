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
use serde::{Deserialize, Serialize};

use crate::backend::BackendConfig;
use crate::experiments::sweep;
use crate::fleet::FleetSimConfig;
use crate::physical::PhysicalSimConfig;

/// One MTBF × checkpoint-cost point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FaultWhatIfRow {
    /// Per-device mean time between failures, in seconds
    /// (`f64::INFINITY` = no faults).
    pub mtbf_secs: f64,
    /// Checkpoint-restart cost per eviction, in seconds.
    pub checkpoint_cost_secs: f64,
    /// Device failures injected.
    pub failures: u64,
    /// Fill jobs evicted.
    pub evictions: u64,
    /// Fill FLOPs lost to evictions.
    pub lost_fill_flops: f64,
    /// Surviving fill TFLOPS per GPU.
    pub recovered_tflops: f64,
    /// Fraction of executed fill FLOPs that survived.
    pub goodput_fraction: f64,
    /// Main-job slowdown (fill-overrun stalls; outages attack only the
    /// fill layer).
    pub main_slowdown: f64,
}

/// The MTBF axis, in seconds: 10 min (burn-in-grade), 30 min, 2 h,
/// 8 h, and no faults.
pub const FAULT_MTBFS_SECS: [f64; 5] = [600.0, 1800.0, 7200.0, 28800.0, f64::INFINITY];

/// The checkpoint-cost axis, in seconds of bubble time per restart.
pub const FAULT_CHECKPOINT_COSTS_SECS: [f64; 3] = [0.5, 2.0, 8.0];

/// Builds the fault configuration (a one-job fleet) for one grid point.
pub fn fault_grid_config(
    iterations: usize,
    seed: u64,
    mtbf_secs: f64,
    checkpoint_cost_secs: f64,
) -> FleetSimConfig {
    let mut phys = PhysicalSimConfig::new(MainJobSpec::physical_5b(8, ScheduleKind::GPipe));
    phys.iterations = iterations;
    phys.seed = seed;
    let mtbf = if mtbf_secs.is_finite() {
        SimDuration::from_secs_f64(mtbf_secs)
    } else {
        SimDuration::MAX
    };
    let mut cfg = FleetSimConfig::from_physical(&phys).with_mtbf(mtbf);
    cfg.checkpoint_cost = SimDuration::from_secs_f64(checkpoint_cost_secs);
    cfg
}

/// Runs the MTBF × checkpoint-cost sweep; grid points fan out across
/// cores in row-major order (MTBF outer, checkpoint cost inner).
pub fn whatif_faults(iterations: usize, seed: u64) -> Vec<FaultWhatIfRow> {
    let grid: Vec<(f64, f64)> = FAULT_MTBFS_SECS
        .iter()
        .flat_map(|&m| FAULT_CHECKPOINT_COSTS_SECS.iter().map(move |&c| (m, c)))
        .collect();
    sweep::par_map(grid, |(mtbf_secs, ckpt_secs)| {
        let cfg = fault_grid_config(iterations, seed, mtbf_secs, ckpt_secs);
        let run = BackendConfig::Fault(cfg).run();
        let fleet = run.fleet().expect("fault config yields fleet detail");
        // The row reads the one job's own numbers: the fleet aggregates
        // are device-weighted and need not match them bit for bit.
        let job = &fleet.jobs[0];
        FaultWhatIfRow {
            mtbf_secs,
            checkpoint_cost_secs: ckpt_secs,
            failures: job.failures,
            evictions: job.evictions,
            lost_fill_flops: job.lost_fill_flops,
            recovered_tflops: job.recovered_tflops_per_gpu,
            goodput_fraction: fleet.goodput_fraction,
            main_slowdown: job.main_slowdown,
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_grid_covers_both_axes_and_degrades_gracefully() {
        let rows = whatif_faults(40, 7);
        assert_eq!(
            rows.len(),
            FAULT_MTBFS_SECS.len() * FAULT_CHECKPOINT_COSTS_SECS.len()
        );
        // The no-fault corner is clean…
        let clean = rows.last().unwrap();
        assert!(clean.mtbf_secs.is_infinite());
        assert_eq!(clean.evictions, 0);
        assert_eq!(clean.goodput_fraction, 1.0);
        // …and the burn-in corner visibly is not.
        let harsh = rows.first().unwrap();
        assert_eq!(harsh.mtbf_secs, 600.0);
        assert!(harsh.failures > 0);
        assert!(harsh.recovered_tflops < clean.recovered_tflops);
        // Every row is finite and sane.
        for r in &rows {
            assert!(r.recovered_tflops.is_finite() && r.recovered_tflops >= 0.0);
            assert!((0.0..=1.0).contains(&r.goodput_fraction));
            assert!(r.main_slowdown >= 0.0);
        }
    }

    // The MTBF=∞-renders-as-'none' pin moved next to the generic CSV
    // path: see `faults_table_renders_disabled_injection_as_none_not_inf`
    // in pipefill-scenario's registry tests.
}
