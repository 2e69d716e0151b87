//! # pipefill-scenario
//!
//! The declarative scenario API: the paper evaluation's scenario matrix
//! (fidelity × schedule × workload mix × fault/fleet shape, §6) as
//! *data* rather than hand-wired driver functions.
//!
//! [`ScenarioSpec`] is a typed builder describing one run end to end
//! (backend fidelity, pipeline schedule, workload knobs, seeds,
//! fault/fleet shape) or one registered experiment with grid overrides.
//! Every key is one row of [`KEYS`] — spelling, value parser and writer,
//! the modes it applies to, help hint — and `set`, `validate`, the TOML
//! writer and the CLI's flags and usage all read that row (each
//! [`KNOBS`] row is a dashed flag on `sim`, `fleet` and `exp`). A spec
//! lowers to a runnable `BackendConfig` or resolves to its experiments,
//! and round-trips through the workspace TOML subset ([`toml::parse`] /
//! [`toml::render`]).
//!
//! Lifecycle: scenario text → [`ScenarioSpec`] → `lower()` →
//! `BackendConfig::run()` → metrics, or [`ScenarioSpec::experiments`]
//! (through `pipefill_core::experiments::REGISTRY`) →
//! `Experiment::run` → `Table` → CSV/golden.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod spec;
pub mod toml;

pub use spec::{ScenarioKey, ScenarioSpec, SpecError, KEYS, KNOBS};
