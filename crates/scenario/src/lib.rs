//! # pipefill-scenario
//!
//! The declarative scenario and experiment API: the paper evaluation's
//! scenario matrix (fidelity × schedule × workload mix × fault/fleet
//! shape, §6) as *data* rather than hand-wired driver functions.
//!
//! Two abstractions:
//!
//! * [`ScenarioSpec`] — a typed builder describing one run end to end
//!   (backend fidelity, pipeline schedule, workload knobs, seeds,
//!   fault/fleet shape) or one registered experiment with grid
//!   overrides. It validates against the one applicability table (every
//!   CLI command's flags are sugar for its keys), lowers to a runnable
//!   `BackendConfig` or resolves to its experiments, and round-trips
//!   through the workspace TOML subset ([`toml::parse`] /
//!   [`toml::render`]).
//! * [`Experiment`] — every paper table/figure driver behind one trait
//!   (`name`/`description`/`columns`/`grid`/`run` → schema-carrying
//!   [`Table`]), registered in the static [`REGISTRY`]. Persistence
//!   (CSV), pretty-printing, and golden-snapshot pinning are generic
//!   over the trait, so adding an experiment is a one-file change that
//!   is automatically CLI-reachable, CSV-writing, and golden-pinned.
//!
//! Lifecycle: scenario text → [`ScenarioSpec`] → `lower()` →
//! `BackendConfig::run()` → metrics, or [`ScenarioSpec::experiments`]
//! (through [`REGISTRY`]) → [`Experiment::run`] → [`Table`] → CSV/golden.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod experiment;
pub mod registry;
mod spec;
pub mod toml;

pub use experiment::{Axis, Experiment, Grid, Scale, Table, Value};
pub use registry::{find, resolve, REGISTRY};
pub use spec::{ScenarioSpec, SpecError};
