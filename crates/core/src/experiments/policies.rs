//! Fig. 9: fill-job scheduling-policy sensitivity. SJF achieves lower
//! average JCT (especially at low load); Makespan-Min achieves lower
//! makespan (especially at high load).

use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_sim_core::SimDuration;
use pipefill_trace::TraceConfig;

use crate::backend::BackendConfig;
use crate::cluster::{ClusterSimConfig, PolicyKind};
use crate::experiments::{row, sweep, Axis, Experiment, Grid, Scale, Table};

/// The load axis of Fig. 9 (multiples of the base arrival rate; the top
/// end oversubscribes the 16 devices so queueing effects appear).
pub const FIG9_LOADS: [f64; 4] = [0.5, 1.0, 2.0, 4.0];

/// Fig. 9: the policy comparison on the 5B physical-cluster setting. The
/// (load, policy) grid runs as one parallel coarse-backend sweep.
pub struct Fig9Policies;

impl Experiment for Fig9Policies {
    fn name(&self) -> &'static str {
        "fig9_policies"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["fig9"]
    }
    fn description(&self) -> &'static str {
        "Fig. 9: scheduling-policy sensitivity (SJF vs Makespan-Min over the load axis)"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "policy",
            "load",
            "mean_jct_secs",
            "makespan_secs",
            "completed",
        ]
    }
    fn grid(&self, scale: Scale) -> Grid {
        match scale {
            Scale::Full => Grid::horizon(3600, 11),
            Scale::Golden => Grid::horizon(1200, 11),
        }
    }
    fn axes(&self) -> &'static [Axis] {
        &[Axis::HorizonSecs, Axis::Seed]
    }
    fn simulation_backed(&self) -> bool {
        true
    }
    fn run(&self, grid: &Grid) -> Table {
        let mut points = Vec::new();
        for &load in &FIG9_LOADS {
            for policy in [PolicyKind::Sjf, PolicyKind::MakespanMin] {
                points.push((load, policy));
            }
        }
        let configs = points
            .iter()
            .map(|&(load, policy)| {
                let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
                let mut trace = TraceConfig::physical(grid.seed).with_load(load);
                trace.horizon = SimDuration::from_secs(grid.horizon_secs);
                let mut cfg = ClusterSimConfig::new(main, trace);
                cfg.policy = policy;
                BackendConfig::Coarse(cfg)
            })
            .collect();
        let runs = sweep::par_map(configs, BackendConfig::run)
            .into_iter()
            .zip(points);
        Table::with_rows(
            self.columns(),
            runs.map(|(run, (load, policy))| {
                let result = run.coarse().expect("coarse config yields coarse detail");
                row![
                    policy.to_string(),
                    load,
                    result.jct.mean_secs,
                    result.makespan.as_secs_f64(),
                    result.completed.len(),
                ]
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `column` cell of the (policy, load) row.
    fn cell(t: &Table, policy: PolicyKind, load: f64, column: &str) -> f64 {
        t.filter("policy", policy.to_string())
            .filter("load", load)
            .f64_column(column)[0]
    }

    #[test]
    fn sjf_wins_jct_and_makespan_min_wins_makespan() {
        let t = Fig9Policies.run(&Grid::horizon(2400, 11));
        // Fig. 9a: SJF's mean JCT ≤ Makespan-Min's, most visible at
        // moderate load.
        let mut sjf_wins = 0;
        for &load in &FIG9_LOADS {
            if cell(&t, PolicyKind::Sjf, load, "mean_jct_secs")
                <= cell(&t, PolicyKind::MakespanMin, load, "mean_jct_secs") * 1.02
            {
                sjf_wins += 1;
            }
        }
        assert!(sjf_wins >= 3, "SJF won JCT at only {sjf_wins}/4 loads");
        // Fig. 9b: Makespan-Min's makespan ≤ SJF's at high load.
        let makespan = |policy| cell(&t, policy, 4.0, "makespan_secs");
        assert!(
            makespan(PolicyKind::MakespanMin) <= makespan(PolicyKind::Sjf) * 1.05,
            "makespan-min {} vs sjf {}",
            makespan(PolicyKind::MakespanMin),
            makespan(PolicyKind::Sjf)
        );
    }

    #[test]
    fn jct_grows_with_load() {
        let t = Fig9Policies.run(&Grid::horizon(2400, 12));
        for policy in [PolicyKind::Sjf, PolicyKind::MakespanMin] {
            let lo = cell(&t, policy, 0.5, "mean_jct_secs");
            let hi = cell(&t, policy, 4.0, "mean_jct_secs");
            assert!(hi > lo, "{policy:?}: {hi} !> {lo}");
        }
    }
}
