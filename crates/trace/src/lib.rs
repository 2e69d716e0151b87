//! # pipefill-trace
//!
//! Synthetic fill-job workload traces, reproducing the paper's two-step
//! construction (§5.3):
//!
//! 1. **Model distribution** — the paper samples fill-job models to match
//!    the HuggingFace Model Hub population (models <3B parameters, 10.4%
//!    CNNs), mapped onto the five representative models of Table 1.
//!    [`ModelMix`] holds those sampling probabilities.
//! 2. **Job arrivals** — the paper replays the Alibaba PAI GPU-cluster
//!    trace: per-job arrival time, GPU quantity × service time collapsed
//!    to GPU-hours, and a quality-of-service tag. Latency-sensitive jobs
//!    are filtered out (bubbles cannot serve latency-bound work), then
//!    jobs above a GPU-hours cap are dropped — 9 GPU-minutes for the
//!    physical cluster (keeping 55% of jobs) and 1 GPU-hour for the
//!    simulator (keeping 81.6%). The Alibaba trace itself is not
//!    redistributable, so [`TraceGenerator`] draws from a
//!    Poisson-arrival / lognormal-size process whose parameters are fitted
//!    to those published retention percentages. Traces exist only in
//!    memory: nothing here reads or writes a trace file.
//!
//! The output is exactly the tuple stream the paper's trace provides:
//! arrival, model, job kind (training vs batch inference), and job size
//! in GPU-hours; conversion from GPU-hours to a sample count (dividing by
//! the model's max isolated throughput, §5.3) happens downstream where
//! the device profile is known.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fleet;
mod generator;
mod mix;

pub use fleet::{DeviceGeneration, FleetJobPlan, FleetWorkloadConfig};
pub use generator::{TraceConfig, TraceGenerator, TraceJob, TraceStats};
pub use mix::ModelMix;
