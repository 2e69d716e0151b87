//! Fig. 8: fill-job GPU utilization under GPipe vs 1F1B main-job
//! schedules, 2K–16K GPUs. 1F1B's non-contiguous bubbles are not filled,
//! so it recovers less at low scale; the gap closes at high scale as the
//! fill-drain and fwd-bwd bubbles dominate.
//!
//! The depth sweep extends the Fig. 8 question to the full schedule
//! family — GPipe, 1F1B, interleaved 1F1B and ZB-H1 — across pipeline
//! depths: how much fillable bubble *remains* once the main job runs a
//! better schedule ([`ScheduleDepth`]).

use pipefill_executor::ExecutorConfig;
use pipefill_pipeline::{bubble_fraction_for, EngineConfig, MainJobSpec, ScheduleKind};
use pipefill_sim_core::SimDuration;
use pipefill_trace::ModelMix;

use crate::experiments::{row, sweep, Experiment, Grid, Scale, Table};
use crate::steady::steady_recovered_tflops;

/// Fig. 8: GPipe vs 1F1B at the paper's 2K–16K GPU range; the
/// (scale, schedule) grid fans out across cores.
pub struct Fig8Schedules;

impl Experiment for Fig8Schedules {
    fn name(&self) -> &'static str {
        "fig8_schedules"
    }
    // "fig8" is a multi-alias (this sweep + the depth sweep), resolved
    // by [`resolve`](super::resolve) — listing it here too would make
    // `find("fig8")` silently run half of what `resolve("fig8")` runs.
    fn aliases(&self) -> &'static [&'static str] {
        &["schedules"]
    }
    fn description(&self) -> &'static str {
        "Fig. 8: GPipe vs 1F1B fillable bubble and recovered TFLOPS, 2K-16K GPUs"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "gpus",
            "schedule",
            "bubble_ratio",
            "fillable_ratio",
            "recovered_tflops",
        ]
    }
    fn grid(&self, _scale: Scale) -> Grid {
        Grid::default()
    }
    fn run(&self, _grid: &Grid) -> Table {
        let mix = ModelMix::paper_mix();
        let mut grid = Vec::new();
        for &m in &[32usize, 16, 8, 4] {
            for schedule in [ScheduleKind::GPipe, ScheduleKind::OneFOneB] {
                grid.push((m, schedule));
            }
        }
        let rows = sweep::par_map(grid, |(m, schedule)| {
            let main = MainJobSpec::simulator_40b(m, schedule);
            let timeline = main.engine_timeline();
            row![
                main.parallelism.total_gpus(),
                schedule.to_string(),
                timeline.bubble_ratio(),
                timeline.fillable_ratio(),
                steady_recovered_tflops(&main, &ExecutorConfig::default(), &mix),
            ]
        });
        Table::with_rows(self.columns(), rows)
    }
}

/// The per-microbatch forward time the depth sweep runs at (the 40B
/// job's calibration; backward is 2×).
const SWEEP_FWD: SimDuration = SimDuration::from_millis(43);

/// The 4-schedule × depth sweep: every canonical schedule
/// ([`ScheduleKind::ALL`]) across pipeline depths 4–32 at one and two
/// full microbatch rounds per depth. Pure engine geometry — no fill
/// workload — so the sweep isolates exactly what each schedule leaves
/// for PipeFill to fill. Its `formula_bubble_ratio` column is the
/// closed-form ideal ([`bubble_fraction_for`] at the 2:1 calibration):
/// exact for GPipe/1F1B/ZB-H1, a lower bound for interleaved.
pub struct ScheduleDepth;

impl Experiment for ScheduleDepth {
    fn name(&self) -> &'static str {
        "schedule_depth"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["depth"]
    }
    fn description(&self) -> &'static str {
        "Extension: 4-schedule x depth bubble-geometry sweep (engine vs closed forms)"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "schedule",
            "stages",
            "microbatches",
            "period_secs",
            "bubble_ratio",
            "fillable_ratio",
            "formula_bubble_ratio",
        ]
    }
    fn grid(&self, _scale: Scale) -> Grid {
        Grid::default()
    }
    fn run(&self, _grid: &Grid) -> Table {
        let mut grid = Vec::new();
        for &p in &[4usize, 8, 16, 32] {
            for &m in &[p, 2 * p] {
                for schedule in ScheduleKind::ALL {
                    grid.push((schedule, p, m));
                }
            }
        }
        let rows = sweep::par_map(grid, |(schedule, p, m)| {
            let timeline = EngineConfig::uniform(schedule, p, m, SWEEP_FWD, SWEEP_FWD * 2).run();
            row![
                schedule.to_string(),
                p,
                m,
                timeline.period.as_secs_f64(),
                timeline.bubble_ratio(),
                timeline.fillable_ratio(),
                bubble_fraction_for(schedule, p, m, 2.0),
            ]
        });
        Table::with_rows(self.columns(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `column` cell of the `schedule` row in `t` (one row per
    /// schedule).
    fn cell(t: &Table, schedule: ScheduleKind, column: &str) -> f64 {
        t.filter("schedule", schedule.to_string())
            .f64_column(column)[0]
    }

    #[test]
    fn gap_shrinks_with_scale() {
        let t = Fig8Schedules.run(&Grid::default());
        let gap = |gpus: usize| {
            let at = t.filter("gpus", gpus);
            let g = cell(&at, ScheduleKind::GPipe, "recovered_tflops");
            let o = cell(&at, ScheduleKind::OneFOneB, "recovered_tflops");
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
        let t = ScheduleDepth.run(&Grid::default());
        // 4 depths × 2 microbatch points × 4 schedules.
        assert_eq!(t.len(), 32);
        let column = |name| t.f64_column(name);
        let (period, bubble, fillable, formula) = (
            column("period_secs"),
            column("bubble_ratio"),
            column("fillable_ratio"),
            column("formula_bubble_ratio"),
        );
        for (i, row) in t.rows().iter().enumerate() {
            assert!(period[i] > 0.0);
            assert!((0.0..1.0).contains(&bubble[i]), "{row:?}");
            assert!(fillable[i] <= bubble[i] + 1e-12, "{row:?}");
            assert!(formula[i] <= bubble[i] + 1e-9, "{row:?}");
        }
        for schedule in ScheduleKind::ALL {
            assert_eq!(
                t.filter("schedule", schedule.to_string()).len(),
                8,
                "{schedule}"
            );
        }
    }

    #[test]
    fn depth_sweep_orders_schedules_at_every_grid_point() {
        let t = ScheduleDepth.run(&Grid::default());
        for &p in &[4usize, 8, 16, 32] {
            for &m in &[p, 2 * p] {
                let point = t.filter("stages", p).filter("microbatches", m);
                let bubble = |schedule| cell(&point, schedule, "bubble_ratio");
                let gpipe = bubble(ScheduleKind::GPipe);
                let ofob = bubble(ScheduleKind::OneFOneB);
                let il = bubble(ScheduleKind::Interleaved { chunks: 2 });
                let zb = bubble(ScheduleKind::ZbH1);
                // ZB-H1 ≤ 1F1B ≤ GPipe, with interleaved under 1F1B too
                // (complete rounds everywhere on this grid).
                assert!(zb <= ofob + 1e-9, "p={p} m={m}");
                assert!(ofob <= gpipe + 1e-9, "p={p} m={m}");
                assert!(il <= ofob + 1e-9, "p={p} m={m}");
                // ZB-H1 matches its closed form exactly on this grid.
                let zb_formula = cell(&point, ScheduleKind::ZbH1, "formula_bubble_ratio");
                assert!(
                    (zb - zb_formula).abs() < 1e-9,
                    "p={p} m={m}: {zb} vs {zb_formula}"
                );
            }
        }
    }

    #[test]
    fn total_bubble_ratio_is_schedule_independent() {
        let t = Fig8Schedules.run(&Grid::default());
        for gpus in [2048usize, 4096, 8192, 16384] {
            let pair = t.filter("gpus", gpus);
            assert_eq!(pair.len(), 2);
            let bubble = pair.f64_column("bubble_ratio");
            // Identical up to the small period difference the inter-stage
            // communication latency introduces between the two schedules.
            assert!(
                (bubble[0] - bubble[1]).abs() < 0.02,
                "bubble ratios diverge at {gpus}: {} vs {}",
                bubble[0],
                bubble[1]
            );
            // Fillable is never more than total.
            for (fillable, total) in pair.f64_column("fillable_ratio").into_iter().zip(bubble) {
                assert!(fillable <= total + 1e-12);
            }
        }
    }
}
