//! Fig. 8: fill-job GPU utilization under GPipe vs 1F1B main-job
//! schedules, 2K–16K GPUs. 1F1B's non-contiguous bubbles are not filled,
//! so it recovers less at low scale; the gap closes at high scale as the
//! fill-drain and fwd-bwd bubbles dominate.
//!
//! The depth sweep extends the Fig. 8 question to the full schedule
//! family — GPipe, 1F1B, interleaved 1F1B and ZB-H1 — across pipeline
//! depths: how much fillable bubble *remains* once the main job runs a
//! better schedule ([`schedule_depth_sweep`]).

use pipefill_executor::ExecutorConfig;
use pipefill_pipeline::{bubble_fraction_for, EngineConfig, MainJobSpec, ScheduleKind};
use pipefill_sim_core::SimDuration;
use pipefill_trace::ModelMix;
use serde::{Deserialize, Serialize};

use crate::experiments::sweep;
use crate::steady::steady_recovered_tflops;

/// One (GPU count, schedule) point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ScheduleRow {
    /// Total GPUs.
    pub gpus: usize,
    /// Main-job schedule.
    pub schedule: ScheduleKind,
    /// Total bubble ratio (identical across schedules).
    pub bubble_ratio: f64,
    /// Fillable bubble ratio (lower for 1F1B).
    pub fillable_ratio: f64,
    /// Recovered fill TFLOPS per GPU with the trace mix.
    pub recovered_tflops: f64,
}

/// Runs the sweep at the paper's 2K–16K GPU range; the (scale, schedule)
/// grid fans out across cores.
pub fn fig8_schedules(exec: &ExecutorConfig) -> Vec<ScheduleRow> {
    let mix = ModelMix::paper_mix();
    let mut grid = Vec::new();
    for &m in &[32usize, 16, 8, 4] {
        for schedule in [ScheduleKind::GPipe, ScheduleKind::OneFOneB] {
            grid.push((m, schedule));
        }
    }
    sweep::par_map(grid, |(m, schedule)| {
        let main = MainJobSpec::simulator_40b(m, schedule);
        let timeline = main.engine_timeline();
        ScheduleRow {
            gpus: main.parallelism.total_gpus(),
            schedule,
            bubble_ratio: timeline.bubble_ratio(),
            fillable_ratio: timeline.fillable_ratio(),
            recovered_tflops: steady_recovered_tflops(&main, exec, &mix),
        }
    })
}

/// One point of the 4-schedule × depth sweep.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DepthRow {
    /// Main-job schedule.
    pub schedule: ScheduleKind,
    /// Pipeline depth `p`.
    pub stages: usize,
    /// Microbatches per replica `m`.
    pub microbatches: usize,
    /// Steady-state iteration period in seconds.
    pub period_secs: f64,
    /// Engine-measured total bubble ratio.
    pub bubble_ratio: f64,
    /// Engine-measured fillable bubble ratio (what PipeFill gets).
    pub fillable_ratio: f64,
    /// Closed-form ideal bubble ratio for this schedule
    /// ([`bubble_fraction_for`] at the 2:1 calibration) — exact for
    /// GPipe/1F1B/ZB-H1, a lower bound for interleaved.
    pub formula_bubble_ratio: f64,
}

/// The per-microbatch forward time the depth sweep runs at (the 40B
/// job's calibration; backward is 2×).
const SWEEP_FWD: SimDuration = SimDuration::from_millis(43);

/// Runs the 4-schedule × depth sweep: every canonical schedule
/// ([`ScheduleKind::ALL`]) across pipeline depths 4–32 at one and two
/// full microbatch rounds per depth. Pure engine geometry — no fill
/// workload — so the sweep isolates exactly what each schedule leaves
/// for PipeFill to fill.
pub fn schedule_depth_sweep() -> Vec<DepthRow> {
    let mut grid = Vec::new();
    for &p in &[4usize, 8, 16, 32] {
        for &m in &[p, 2 * p] {
            for schedule in ScheduleKind::ALL {
                grid.push((schedule, p, m));
            }
        }
    }
    sweep::par_map(grid, |(schedule, p, m)| {
        let timeline = EngineConfig::uniform(schedule, p, m, SWEEP_FWD, SWEEP_FWD * 2).run();
        DepthRow {
            schedule,
            stages: p,
            microbatches: m,
            period_secs: timeline.period.as_secs_f64(),
            bubble_ratio: timeline.bubble_ratio(),
            fillable_ratio: timeline.fillable_ratio(),
            formula_bubble_ratio: bubble_fraction_for(schedule, p, m, 2.0),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gap_shrinks_with_scale() {
        let rows = fig8_schedules(&ExecutorConfig::default());
        let gap = |gpus: usize| {
            let g = rows
                .iter()
                .find(|r| r.gpus == gpus && r.schedule == ScheduleKind::GPipe)
                .unwrap()
                .recovered_tflops;
            let o = rows
                .iter()
                .find(|r| r.gpus == gpus && r.schedule == ScheduleKind::OneFOneB)
                .unwrap()
                .recovered_tflops;
            (g - o) / g
        };
        let low_scale = gap(2048);
        let high_scale = gap(16384);
        // Fig. 8: ~17-20% more recovered with GPipe at small scale,
        // shrinking substantially at large scale. The paper reaches <5%;
        // here Algorithm 1 packs 1F1B's shorter windows less tightly, so
        // the large-scale gap stays higher (bounded at 13% below).
        assert!(low_scale > 0.05, "low-scale gap {low_scale}");
        assert!(
            high_scale < low_scale * 0.6,
            "gap did not close: {low_scale} -> {high_scale}"
        );
        assert!(high_scale < 0.13, "high-scale gap {high_scale}");
    }

    #[test]
    fn depth_sweep_covers_the_full_grid() {
        let rows = schedule_depth_sweep();
        // 4 depths × 2 microbatch points × 4 schedules.
        assert_eq!(rows.len(), 32);
        for r in &rows {
            assert!(r.period_secs > 0.0);
            assert!((0.0..1.0).contains(&r.bubble_ratio), "{r:?}");
            assert!(r.fillable_ratio <= r.bubble_ratio + 1e-12, "{r:?}");
            assert!(r.formula_bubble_ratio <= r.bubble_ratio + 1e-9, "{r:?}");
        }
        for schedule in ScheduleKind::ALL {
            assert_eq!(
                rows.iter().filter(|r| r.schedule == schedule).count(),
                8,
                "{schedule}"
            );
        }
    }

    #[test]
    fn depth_sweep_orders_schedules_at_every_grid_point() {
        let rows = schedule_depth_sweep();
        for &p in &[4usize, 8, 16, 32] {
            for &m in &[p, 2 * p] {
                let at = |schedule: ScheduleKind| {
                    rows.iter()
                        .find(|r| r.schedule == schedule && r.stages == p && r.microbatches == m)
                        .unwrap()
                };
                let gpipe = at(ScheduleKind::GPipe);
                let ofob = at(ScheduleKind::OneFOneB);
                let il = at(ScheduleKind::Interleaved { chunks: 2 });
                let zb = at(ScheduleKind::ZbH1);
                // ZB-H1 ≤ 1F1B ≤ GPipe, with interleaved under 1F1B too
                // (complete rounds everywhere on this grid).
                assert!(zb.bubble_ratio <= ofob.bubble_ratio + 1e-9, "p={p} m={m}");
                assert!(
                    ofob.bubble_ratio <= gpipe.bubble_ratio + 1e-9,
                    "p={p} m={m}"
                );
                assert!(il.bubble_ratio <= ofob.bubble_ratio + 1e-9, "p={p} m={m}");
                // ZB-H1 matches its closed form exactly on this grid.
                assert!(
                    (zb.bubble_ratio - zb.formula_bubble_ratio).abs() < 1e-9,
                    "p={p} m={m}: {} vs {}",
                    zb.bubble_ratio,
                    zb.formula_bubble_ratio
                );
            }
        }
    }

    #[test]
    fn total_bubble_ratio_is_schedule_independent() {
        let rows = fig8_schedules(&ExecutorConfig::default());
        for gpus in [2048usize, 4096, 8192, 16384] {
            let pair: Vec<&ScheduleRow> = rows.iter().filter(|r| r.gpus == gpus).collect();
            assert_eq!(pair.len(), 2);
            // Identical up to the small period difference the inter-stage
            // communication latency introduces between the two schedules.
            assert!(
                (pair[0].bubble_ratio - pair[1].bubble_ratio).abs() < 0.02,
                "bubble ratios diverge at {gpus}: {} vs {}",
                pair[0].bubble_ratio,
                pair[1].bubble_ratio
            );
            // Fillable is never more than total.
            for r in pair {
                assert!(r.fillable_ratio <= r.bubble_ratio + 1e-12);
            }
        }
    }
}
