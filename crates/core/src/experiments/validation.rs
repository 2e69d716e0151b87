//! Fig. 6: simulator validation. Sweeps the fill-job mix from all-XLM
//! (largest model) to all-EfficientNet (smallest, the only CNN) at the
//! default 68% fill fraction, and compares the fine-grained "physical"
//! simulator against the coarse profile-driven prediction. The paper
//! reports main-job overhead independent of the mix and a maximum
//! simulator error under 2%.

use pipefill_executor::ExecutorConfig;
use pipefill_model_zoo::ModelId;
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_sim_core::stats::relative_error;
use pipefill_sim_core::SimDuration;
use pipefill_trace::{ModelMix, TraceConfig};

use crate::backend::BackendConfig;
use crate::cluster::ClusterSimConfig;
use crate::experiments::{row, sweep, Axis, Experiment, Grid, Scale, Table};
use crate::physical::PhysicalSimConfig;
use crate::steady::steady_recovered_tflops;

/// The sweep points of Fig. 6.
pub const FIG6_FRACTIONS: [f64; 5] = [0.0, 0.25, 0.5, 0.75, 1.0];

/// The largest `relative_error` cell of a Fig. 6 table.
fn max_error(table: &Table) -> f64 {
    table
        .f64_column("relative_error")
        .into_iter()
        .fold(0.0, f64::max)
}

/// Fig. 6 (mix sweep): the physical simulator against the coarse
/// profile-driven prediction at each mix point; the points fan out
/// across cores.
pub struct Fig6Validation;

impl Experiment for Fig6Validation {
    fn name(&self) -> &'static str {
        "fig6_validation"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig6"]
    }
    fn description(&self) -> &'static str {
        "Fig. 6: simulator validation across the XLM/EfficientNet mix sweep"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "xlm_fraction",
            "physical_slowdown",
            "physical_recovered",
            "simulator_recovered",
            "relative_error",
        ]
    }
    fn grid(&self, scale: Scale) -> Grid {
        match scale {
            Scale::Full => Grid::sim(300, 7),
            Scale::Golden => Grid::sim(60, 7),
        }
    }
    fn axes(&self) -> &'static [Axis] {
        &[Axis::Iterations, Axis::Seed]
    }
    fn simulation_backed(&self) -> bool {
        true
    }
    fn summary(&self, table: &Table) -> Option<String> {
        Some(format!(
            "maximum simulator error: {:.2}% (paper: <2%)",
            100.0 * max_error(table)
        ))
    }
    fn run(&self, grid: &Grid) -> Table {
        let rows = sweep::par_map(FIG6_FRACTIONS.to_vec(), |frac| {
            let mix = ModelMix::blend(ModelId::XlmRobertaXl, ModelId::EfficientNet, frac);
            let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
            let mut cfg = PhysicalSimConfig::new(main.clone()).with_mix(mix.clone());
            cfg.iterations = grid.iterations;
            cfg.seed = grid.seed;
            cfg.deterministic_mix = true;
            let phys = BackendConfig::Physical(cfg).run().metrics;
            let sim = steady_recovered_tflops(&main, &ExecutorConfig::default(), &mix);
            let error = if sim == 0.0 {
                0.0
            } else {
                relative_error(phys.recovered_tflops_per_gpu, sim)
            };
            row![
                frac,
                phys.main_slowdown,
                phys.recovered_tflops_per_gpu,
                sim,
                error,
            ]
        });
        Table::with_rows(self.columns(), rows)
    }
}

/// Agreement tolerance for [`Fig6Agreement`]: the paper reports <2%
/// simulator error on full-length runs; the shortened runs used here and
/// in CI budget 10% for trace granularity (finite jobs vs an infinite
/// backlog) plus jitter noise.
pub const AGREEMENT_TOLERANCE: f64 = 0.10;

/// Fig. 6 (cross-backend agreement), one row per seed `1..=seeds`: both
/// fidelity levels run from the same experiment spec (5B main job,
/// paper mix, saturated backlog) through the same driver, and must agree
/// on recovered TFLOPs. The seeds fan out across cores.
///
/// The coarse backend is saturated (offered load far above capacity) so
/// its devices never idle — the regime where the paper's profile-replay
/// simulator and the physical cluster are expected to coincide.
pub struct Fig6Agreement;

impl Experiment for Fig6Agreement {
    fn name(&self) -> &'static str {
        "fig6_agreement"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["agree", "agreement"]
    }
    fn description(&self) -> &'static str {
        "Fig. 6: coarse-vs-physical backend agreement, replicated across seeds"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "seed",
            "coarse_recovered",
            "physical_recovered",
            "physical_slowdown",
            "relative_error",
        ]
    }
    fn grid(&self, scale: Scale) -> Grid {
        match scale {
            Scale::Full => Grid {
                seeds: 3,
                iterations: 200,
                ..Grid::default()
            },
            Scale::Golden => Grid {
                seeds: 2,
                iterations: 60,
                ..Grid::default()
            },
        }
    }
    fn axes(&self) -> &'static [Axis] {
        &[Axis::Seeds, Axis::Iterations]
    }
    fn simulation_backed(&self) -> bool {
        true
    }
    fn summary(&self, table: &Table) -> Option<String> {
        Some(format!(
            "maximum disagreement: {:.2}% (paper Fig. 6: <2%; tolerance {:.0}%)",
            100.0 * max_error(table),
            100.0 * AGREEMENT_TOLERANCE
        ))
    }
    fn run(&self, grid: &Grid) -> Table {
        let seeds: Vec<u64> = (1..=grid.seeds).collect();
        let rows = sweep::par_map(seeds, |seed| {
            let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
            let mix = ModelMix::paper_mix();

            let mut phys = PhysicalSimConfig::new(main.clone()).with_mix(mix.clone());
            phys.iterations = grid.iterations;
            phys.seed = seed;
            phys.deterministic_mix = true;

            let mut trace = TraceConfig::physical(seed).with_load(8.0).with_mix(mix);
            trace.horizon = SimDuration::from_secs(7200);
            let coarse_cfg = ClusterSimConfig::new(main, trace);

            let runs = sweep::par_map(
                vec![
                    BackendConfig::Coarse(coarse_cfg),
                    BackendConfig::Physical(phys),
                ],
                BackendConfig::run,
            );
            let coarse = runs[0].metrics;
            let physical = runs[1].metrics;
            row![
                seed,
                coarse.recovered_tflops_per_gpu,
                physical.recovered_tflops_per_gpu,
                physical.main_slowdown,
                relative_error(
                    physical.recovered_tflops_per_gpu,
                    coarse.recovered_tflops_per_gpu,
                ),
            ]
        });
        Table::with_rows(self.columns(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn overhead_is_independent_of_mix_and_error_is_small() {
        let t = Fig6Validation.run(&Grid::sim(150, 5));
        let fractions = t.f64_column("xlm_fraction");
        let slowdowns = t.f64_column("physical_slowdown");
        // Fig. 6 claim 1: overhead does not vary significantly with the
        // job mix (all under the 2% budget at the 68% default fill).
        for (frac, slowdown) in fractions.iter().zip(&slowdowns) {
            assert!(*slowdown < 0.02, "slowdown at XLM {frac} = {slowdown}");
        }
        let spread = slowdowns.iter().cloned().fold(f64::MIN, f64::max)
            - slowdowns.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.015, "slowdown spread {spread}");
        // Fig. 6 claim 2: simulator error bounded (paper: <2%; we allow
        // a little more for the smaller run length used in tests).
        for (frac, error) in fractions.iter().zip(t.f64_column("relative_error")) {
            assert!(error < 0.05, "error at XLM {frac} = {error}");
        }
    }
}
