//! Fig. 5: the fill-fraction sweep on the "physical" 5B cluster —
//! main-job overhead stays <2% up to 68% of the bubble filled, then grows
//! while total utilization keeps rising.

use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use serde::{Deserialize, Serialize};

use crate::backend::BackendConfig;
use crate::experiments::sweep;
use crate::physical::PhysicalSimConfig;

/// One fill-fraction point.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FillFractionRow {
    /// Fraction of each bubble the Executor fills.
    pub fill_fraction: f64,
    /// Measured main-job slowdown.
    pub main_slowdown: f64,
    /// Fill TFLOPS per GPU recovered.
    pub recovered_tflops: f64,
    /// Total TFLOPS per GPU (main + fill).
    pub total_tflops: f64,
}

/// The sweep points used in Fig. 5 (0 = no filling baseline).
pub const FIG5_FRACTIONS: [f64; 8] = [0.0, 0.2, 0.4, 0.55, 0.68, 0.8, 0.9, 0.97];

/// Runs the sweep on the paper's physical setup: 5B LLM, 16 stages,
/// 8 microbatches (65% bubble ratio), full trace-mix backlog. The points
/// are independent physical-backend runs, so they fan out across cores.
pub fn fig5_fill_fraction(iterations: usize, seed: u64) -> Vec<FillFractionRow> {
    let configs = FIG5_FRACTIONS
        .iter()
        .map(|&f| {
            let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
            let mut cfg = PhysicalSimConfig::new(main).with_fill_fraction(f);
            cfg.iterations = iterations;
            cfg.seed = seed;
            BackendConfig::Physical(cfg)
        })
        .collect();
    sweep::run_sweep(configs)
        .into_iter()
        .zip(FIG5_FRACTIONS)
        .map(|(run, f)| {
            let r = run
                .physical()
                .expect("physical config yields physical detail");
            FillFractionRow {
                fill_fraction: f,
                main_slowdown: r.main_slowdown,
                recovered_tflops: r.recovered_tflops_per_gpu,
                total_tflops: r.total_tflops_per_gpu(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5_shape_matches_paper() {
        let rows = fig5_fill_fraction(100, 3);
        let at = |f: f64| rows.iter().find(|r| r.fill_fraction == f).unwrap();
        // Baseline: nothing recovered, no overhead.
        assert_eq!(at(0.0).recovered_tflops, 0.0);
        assert_eq!(at(0.0).main_slowdown, 0.0);
        // <2% overhead through the 68% default.
        for f in [0.2, 0.4, 0.55, 0.68] {
            assert!(
                at(f).main_slowdown < 0.02,
                "slowdown at {f} = {}",
                at(f).main_slowdown
            );
        }
        // Substantial overhead when nearly everything is filled.
        assert!(at(0.97).main_slowdown > 0.02, "{}", at(0.97).main_slowdown);
        // Recovered utilization rises monotonically through the default
        // operating range (0 → 68%).
        let in_range: Vec<&FillFractionRow> =
            rows.iter().filter(|r| r.fill_fraction <= 0.69).collect();
        for pair in in_range.windows(2) {
            assert!(
                pair[1].recovered_tflops > pair[0].recovered_tflops,
                "recovered dipped in range: {pair:?}"
            );
        }
        // Beyond the knee, recovered utilization stays in the same band
        // and clearly above mid-range fills. It is not monotone there:
        // Algorithm 1 replicates the fill graph a whole number of times
        // per pass, so a larger budget can switch a job to a plan that
        // recovers slightly less.
        assert!(at(0.9).recovered_tflops > at(0.55).recovered_tflops);
    }
}
