//! Fig. 10: sensitivity of recovered utilization to bubble size (10a:
//! scaling the main-job model 50–200% at fixed 4.5 GB free memory) and to
//! bubble free memory (10b: 2–8 GB at fixed model size).

use pipefill_device::Bytes;
use pipefill_executor::ExecutorConfig;
use pipefill_model_zoo::gpt_40b_scaled;
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_trace::ModelMix;

use crate::experiments::{row, sweep, Experiment, Grid, Scale, Table};
use crate::steady::steady_recovered_tflops;

/// Fig. 10a: scale the main-job model 50–200%, free memory pinned at the
/// measured 4.5 GB. Reports the mean fillable bubble seconds per
/// iteration per stage and the recovered fill TFLOPS per GPU (trace mix).
pub struct Fig10aBubbleSize;

impl Experiment for Fig10aBubbleSize {
    fn name(&self) -> &'static str {
        "fig10a_bubble_size"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig10a"]
    }
    fn description(&self) -> &'static str {
        "Fig. 10a: sensitivity to bubble size (main-job model scaled 50-200%)"
    }
    fn columns(&self) -> &'static [&'static str] {
        &["model_scale", "mean_fillable_secs", "recovered_tflops"]
    }
    fn grid(&self, _scale: Scale) -> Grid {
        Grid::default()
    }
    fn run(&self, _grid: &Grid) -> Table {
        let rows = sweep::par_map(vec![0.5f64, 0.75, 1.0, 1.5, 2.0], |scale| {
            let main = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe)
                .with_model(gpt_40b_scaled(scale));
            let timeline = main.engine_timeline();
            let mean_fillable = timeline
                .stages
                .iter()
                .map(|s| s.fillable_time().as_secs_f64())
                .sum::<f64>()
                / timeline.stages.len() as f64;
            row![scale, mean_fillable, recovered_tflops(&main)]
        });
        Table::with_rows(self.columns(), rows)
    }
}

/// Fig. 10b: sweep bubble free memory 2–8 GiB at the original model
/// size, reporting the recovered fill TFLOPS per GPU (trace mix).
pub struct Fig10bFreeMemory;

impl Experiment for Fig10bFreeMemory {
    fn name(&self) -> &'static str {
        "fig10b_free_memory"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig10b"]
    }
    fn description(&self) -> &'static str {
        "Fig. 10b: sensitivity to bubble free memory (2-8 GiB)"
    }
    fn columns(&self) -> &'static [&'static str] {
        &["free_gib", "recovered_tflops"]
    }
    fn grid(&self, _scale: Scale) -> Grid {
        Grid::default()
    }
    fn run(&self, _grid: &Grid) -> Table {
        let rows = sweep::par_map(vec![2.0f64, 3.0, 4.0, 4.5, 6.0, 8.0], |gib| {
            let main = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe)
                .with_bubble_free_memory(Bytes::from_gib_f64(gib));
            row![gib, recovered_tflops(&main)]
        });
        Table::with_rows(self.columns(), rows)
    }
}

/// Steady-state recovered TFLOPS per GPU under the trace mix and the
/// default executor configuration.
fn recovered_tflops(main: &MainJobSpec) -> f64 {
    steady_recovered_tflops(main, &ExecutorConfig::default(), &ModelMix::paper_mix())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bubble_size_has_small_effect() {
        // Fig. 10a: "little difference in the recovered TFLOPS, though
        // shrinking the bubble duration by 50% reduced TFLOPS by 5.3%".
        let t = Fig10aBubbleSize.run(&Grid::default());
        let at = |s: f64, column: &str| t.filter("model_scale", s).f64_column(column)[0];
        let base = at(1.0, "recovered_tflops");
        let small = at(0.5, "recovered_tflops");
        let big = at(2.0, "recovered_tflops");
        // Bubbles scale with the model.
        assert!(at(2.0, "mean_fillable_secs") > at(0.5, "mean_fillable_secs"));
        // Recovered TFLOPS varies by far less than the 4× bubble change.
        let spread = (big - small).abs() / base;
        assert!(spread < 0.25, "spread {spread}");
        assert!(small <= base * 1.02, "small bubbles should not help");
    }

    #[test]
    fn free_memory_matters_with_diminishing_returns() {
        // Fig. 10b: "4GB recovers 30% more TFLOPS than 2GB, but 8GB only
        // recovers 12.2% more than 4GB".
        let t = Fig10bFreeMemory.run(&Grid::default());
        let at = |g: f64| t.filter("free_gib", g).f64_column("recovered_tflops")[0];
        let gain_2_to_4 = at(4.0) / at(2.0) - 1.0;
        let gain_4_to_8 = at(8.0) / at(4.0) - 1.0;
        assert!(gain_2_to_4 > 0.1, "2→4 GiB gain {gain_2_to_4}");
        assert!(
            gain_4_to_8 < gain_2_to_4,
            "no diminishing returns: {gain_2_to_4} then {gain_4_to_8}"
        );
        // Monotone in memory.
        for pair in t.f64_column("recovered_tflops").windows(2) {
            assert!(pair[1] >= pair[0] * 0.999);
        }
    }
}
