//! # pipefill-core
//!
//! The PipeFill system (§4): the integration of the instrumented pipeline
//! engine, the per-device Fill Job Executors and the Fill Job Scheduler
//! into a cluster-level simulation, plus the experiment drivers that
//! regenerate every figure of the paper's evaluation (§6).
//!
//! Four simulation fidelities are provided; the first two mirror the
//! paper's methodology (§5.1):
//!
//! * [`CoarseBackend`] — the *coarse, profile-driven* simulator. Like the
//!   paper's, its events are fill-job arrivals and completions; the time
//!   in between is computed from execution plans ("deep learning jobs
//!   have repetitive patterns, so an accurate simulator only needs to
//!   profile a pattern once").
//! * [`PhysicalBackend`] — the *fine-grained* stand-in for the paper's
//!   16-GPU physical cluster: it executes every bubble of every iteration
//!   with multiplicative timing jitter, explicit context-switch costs and
//!   engine slack, so main-job slowdown is an emergent measurement rather
//!   than an assumption. Comparing the two reproduces the paper's
//!   simulator-validation experiment (Fig. 6, max error <2%).
//! * [`FleetBackend::fault`] — the *heterogeneous, failure-injecting*
//!   extension of the fine-grained model: per-stage GPU specs reshape
//!   bubble geometry and fill throughput, and seeded device failures
//!   evict running fill jobs with FreeRide-style checkpoint/restart
//!   accounting. It is a one-job [`FleetSimConfig`].
//! * [`FleetBackend`] — the *fleet-scale multi-job* simulator: N
//!   concurrent pipeline-parallel main jobs (heterogeneous depths,
//!   periods, device generations) on one kernel, sharing one
//!   cluster-wide fill queue with per-job admission and locality-aware
//!   dispatch.
//!
//! The last three are one pipeline-filling engine, [`FillBackend`],
//! configured by one [`FleetSimConfig`]: physical and fault are one-job
//! fleets, so with faults off and a homogeneous cluster all three
//! reproduce each other bit for bit. The engine reads every behavioural
//! switch off the configuration; the [`BackendKind`] it is built with
//! labels the run and picks what it reports.
//! [`PhysicalBackend::simulate`] and [`FleetBackend::simulate`] run a
//! configuration to completion.
//!
//! Every fidelity reads its fill plans from one per-stage plan model,
//! [`StagePlans`]: the filling engine holds one per pipeline shape, and
//! the coarse backend and the steady-state rates build one with the main
//! job's device on every stage.
//!
//! All are [`SimBackend`]s over the shared [`ClusterEvent`] alphabet,
//! driven by the `pipefill-sim-core` kernel through [`BackendDriver`];
//! experiment drivers select fidelity by value with [`BackendConfig`] and
//! read the common [`BackendMetrics`] (see the `backend` module docs).
//!
//! The [`experiments`] module contains one driver per table/figure; each
//! returns typed rows and prints the same series the paper plots. The
//! `pipefill-scenario` crate's `Table` wraps those rows and writes them as
//! CSV through [`CsvWriter`]; the CLI writes under [`EXPERIMENTS_DIR`]
//! unless told otherwise.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod backend;
mod cluster;
mod convert;
mod csv;
mod fault;
mod ff;
mod filling;
mod fleet;
mod metrics;
mod physical;
mod plans;
mod steady;

pub mod experiments;

pub use backend::{
    BackendConfig, BackendDetail, BackendDriver, BackendKind, BackendMetrics, BackendRun,
    ClusterEvent, SimBackend,
};
pub use cluster::{ClusterSimConfig, ClusterSimResult, CoarseBackend, CompletedJob, PolicyKind};
pub use convert::{samples_for_trace_job, trace_job_to_spec};
pub use csv::{CsvWriter, EXPERIMENTS_DIR};
pub use filling::FillBackend;
pub use fleet::{FleetBackend, FleetJobConfig, FleetJobResult, FleetSimConfig, FleetSimResult};
pub use metrics::{gpus_saved, JctStats, UtilizationBreakdown};
pub use physical::{PhysicalBackend, PhysicalSimConfig, PhysicalSimResult};
pub use plans::StagePlans;
pub use steady::{steady_rate, steady_recovered_tflops, SteadyRate};
