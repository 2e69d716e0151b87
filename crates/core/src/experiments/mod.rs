//! Experiments — one per table/figure of the paper's evaluation (§6),
//! plus the extension studies. Each `experiments/<name>.rs` holds its
//! own [`Experiment`]: a unit struct whose `run` sweeps its grid through
//! the backends and pushes the cells straight into a schema-carrying
//! [`Table`]. Printing, CSV persistence and golden-snapshot pinning are
//! generic over the trait, and [`REGISTRY`] lists every experiment
//! (`pipefill-cli exp --list`).
//!
//! | Paper artifact | Experiment |
//! |---|---|
//! | Fig. 1 / Fig. 4a-c (scaling & utilization) | [`scaling::Fig4Scaling`] |
//! | Fig. 5 (fill-fraction sweep) | [`fill_fraction::Fig5FillFraction`] |
//! | Fig. 6 (simulator validation, mix sweep) | [`validation::Fig6Validation`] |
//! | Fig. 6 (coarse-vs-physical agreement) | [`validation::Fig6Agreement`] |
//! | Fig. 7a/7b (fill-job characterization) | [`characterization::Fig7Characterization`] |
//! | Fig. 8 (GPipe vs 1F1B) | [`schedules::Fig8Schedules`] |
//! | 4-schedule × depth bubble-geometry sweep (extension) | [`schedules::ScheduleDepth`] |
//! | Fig. 9a/9b (scheduling policies) | [`policies::Fig9Policies`] |
//! | Fig. 10a/10b (bubble size / free memory) | [`sensitivity`] |
//! | Table 1 (fill-job categories) | [`table1::Table1`] |
//! | §6.2 newer-hardware hypothesis (extension) | [`whatif::WhatifOffloadBandwidth`] |
//! | Fault-tolerance MTBF × checkpoint-cost map (extension) | [`faults::WhatifFaults`] |
//! | Fleet-size scaling, multi-job + global queue (extension) | [`fleet::FleetScale`] |
//!
//! Simulation-backed experiments select their fidelity level by value
//! through [`crate::BackendConfig`] rather than naming concrete
//! simulator types, and every experiment fans its configuration grid
//! across cores through the [`sweep`] module (`--threads` on the CLI).
//!
//! Adding an experiment is a one-file change plus one [`REGISTRY`]
//! entry. It is then listed by `pipefill-cli exp --list`, runnable by
//! `exp <name>` or a scenario file, written as
//! `target/experiments/<name>.csv`, and pinned by the registry-driven
//! golden-snapshot suite against `tests/golden/<name>.csv`.

pub mod characterization;
mod experiment;
pub mod faults;
pub mod fill_fraction;
pub mod fleet;
pub mod policies;
pub mod scaling;
pub mod schedules;
pub mod sensitivity;
pub mod sweep;
pub mod table1;
pub mod validation;
pub mod whatif;

pub(crate) use experiment::row;
pub use experiment::{Axis, Experiment, Grid, Scale, Table, Value};

/// Default experiment-output directory.
pub const EXPERIMENTS_DIR: &str = "target/experiments";

/// Every registered experiment, in the order `all` runs and `exp
/// --list` prints them.
pub static REGISTRY: &[&dyn Experiment] = &[
    &table1::Table1,
    &scaling::Fig4Scaling,
    &fill_fraction::Fig5FillFraction,
    &validation::Fig6Validation,
    &validation::Fig6Agreement,
    &characterization::Fig7Characterization,
    &schedules::Fig8Schedules,
    &schedules::ScheduleDepth,
    &policies::Fig9Policies,
    &sensitivity::Fig10aBubbleSize,
    &sensitivity::Fig10bFreeMemory,
    &whatif::WhatifOffloadBandwidth,
    &faults::WhatifFaults,
    &fleet::FleetScale,
];

/// Looks an experiment up by canonical name or alias.
pub fn find(name: &str) -> Option<&'static dyn Experiment> {
    REGISTRY
        .iter()
        .find(|e| e.name() == name || e.aliases().contains(&name))
        .copied()
}

/// Spellings that fan out to more than one experiment — the historical
/// `fig8` subcommand printed the depth sweep alongside the schedule
/// comparison, and `fig10` prints both sensitivity panels.
const MULTI_ALIASES: &[(&str, &[&str])] = &[
    ("fig8", &["fig8_schedules", "schedule_depth"]),
    ("fig10", &["fig10a_bubble_size", "fig10b_free_memory"]),
];

/// Resolves an experiment spelling — canonical name, alias, or
/// multi-experiment alias — to the experiments it runs, in run order.
/// This is the one resolution path the CLI, scenario files and library
/// callers share, so `exp fig10` and `experiment = "fig10"` agree.
pub fn resolve(name: &str) -> Option<Vec<&'static dyn Experiment>> {
    if let Some((_, names)) = MULTI_ALIASES.iter().find(|(alias, _)| *alias == name) {
        return Some(
            names
                .iter()
                .map(|n| find(n).expect("multi-alias names a registered experiment"))
                .collect(),
        );
    }
    find(name).map(|e| vec![e])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_findable() {
        let mut names: Vec<&str> = REGISTRY.iter().map(|e| e.name()).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before, "duplicate experiment names");
        assert!(before >= 12, "the registry must cover all 12+ drivers");
        for e in REGISTRY {
            assert!(find(e.name()).is_some(), "{} not findable", e.name());
            for alias in e.aliases() {
                let hit = find(alias).expect("alias resolves");
                assert_eq!(hit.name(), e.name(), "alias {alias} resolves elsewhere");
            }
            assert!(!e.description().is_empty());
            assert!(!e.columns().is_empty());
        }
        assert!(find("warp-speed").is_none());
    }

    #[test]
    fn aliases_do_not_shadow_canonical_names() {
        for e in REGISTRY {
            for alias in e.aliases() {
                assert!(
                    REGISTRY.iter().all(|other| other.name() != *alias),
                    "alias {alias} collides with a canonical name"
                );
            }
        }
    }

    #[test]
    fn resolve_handles_single_and_multi_aliases_uniformly() {
        assert_eq!(resolve("table1").unwrap().len(), 1);
        assert_eq!(resolve("fig5").unwrap()[0].name(), "fig5_fill_fraction");
        let fig8 = resolve("fig8").unwrap();
        assert_eq!(fig8.len(), 2);
        assert_eq!(fig8[0].name(), "fig8_schedules");
        assert_eq!(fig8[1].name(), "schedule_depth");
        let fig10 = resolve("fig10").unwrap();
        assert_eq!(fig10.len(), 2);
        assert!(resolve("warp-speed").is_none());
        // A multi-alias must not also be a single name/alias — that
        // would make `find` and `resolve` silently disagree.
        for (alias, _) in MULTI_ALIASES {
            assert!(find(alias).is_none(), "{alias} is also a single spelling");
        }
    }

    #[test]
    fn simulation_experiments_declare_their_swept_axes() {
        for e in REGISTRY {
            if e.simulation_backed() {
                assert!(
                    !e.axes().is_empty(),
                    "{}: simulation-backed experiments sweep at least one axis",
                    e.name()
                );
            } else {
                assert!(
                    e.axes().is_empty(),
                    "{}: analysis experiments take no grid overrides",
                    e.name()
                );
            }
        }
    }

    #[test]
    fn golden_grids_match_full_grids_for_analysis_experiments() {
        for e in REGISTRY.iter().filter(|e| !e.simulation_backed()) {
            assert_eq!(
                e.grid(Scale::Full),
                e.grid(Scale::Golden),
                "{}: analysis experiments pin their full grid",
                e.name()
            );
        }
    }

    #[test]
    fn analysis_experiments_produce_schema_true_tables() {
        // The cheap, deterministic experiments run end to end here; the
        // simulation-backed ones are covered by the golden suite.
        for name in ["table1", "fig10b_free_memory", "whatif_offload_bandwidth"] {
            let e = find(name).unwrap();
            let t = e.run(&e.grid(Scale::Full));
            assert!(!t.is_empty(), "{name} produced no rows");
            assert_eq!(t.columns(), e.columns(), "{name} schema drifted");
        }
    }
}
