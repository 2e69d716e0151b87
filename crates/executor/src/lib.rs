//! # pipefill-executor
//!
//! The Fill Job Executor (§4.3): the per-device component that runs a fill
//! job inside a device's pipeline bubbles at maximum throughput without
//! violating bubble-duration or free-memory constraints.
//!
//! Pipeline, mirroring the paper:
//!
//! 1. **Profiles** ([`profile`]): for each configuration — a batch size ×
//!    an execution technique (plain, activation checkpointing,
//!    ZeRO-Offload-style optimizer offloading, ZeRO-Infinity-style
//!    parameter streaming) — build the linearized computational graph with
//!    each node's execution time and memory requirement.
//! 2. **Planning** ([`plan`]): run the paper's Algorithm 1 — replicate the
//!    graph to fill the bubble cycle, then greedily pack source nodes into
//!    successive bubbles — and keep the configuration with the highest
//!    throughput, searching the menu best-bound-first.
//! 3. **Execution** ([`FillJobExecutor`]): a state machine the cluster
//!    simulator drives one bubble at a time; it reports the work done per
//!    bubble and isolates memory-cap violations to the fill process.
//!
//! # Example
//!
//! ```
//! use pipefill_device::{Bytes, DeviceSpec};
//! use pipefill_executor::{plan_best, ExecutorConfig, FillJobSpec};
//! use pipefill_model_zoo::{JobKind, ModelId};
//! use pipefill_sim_core::{SimDuration, SimTime};
//!
//! let job = FillJobSpec::new(1, ModelId::BertBase, JobKind::BatchInference, 100_000)
//!     .with_arrival(SimTime::ZERO);
//! // One 1-second bubble with the paper's 4.5 GB free memory.
//! let bubbles = vec![(SimDuration::from_secs(1), Bytes::from_gib_f64(4.5))];
//! let plan = plan_best(&job, &bubbles, &DeviceSpec::v100(), &ExecutorConfig::default())
//!     .expect("BERT inference fits easily");
//! assert!(plan.samples_per_pass > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod config;
mod executor;
mod job;
pub mod plan;
pub mod profile;

pub use config::{ExecConfig, ExecTechnique, ExecutorConfig, COLD_START_FACTOR, SWITCH_OVERHEAD};
pub use executor::{BubbleExecution, ExecutorCheckpoint, FillJobExecutor};
pub use job::{FillJobSpec, JobId};
pub use plan::{
    plan_best, plan_best_of, plan_for_config, plan_whole_graph_only, rate_bound, replica_count,
    ExecutionPlan, Partition, PlanError, PreparedMenu,
};
pub use profile::{
    build_profile, exclusive_best_of, exclusive_throughput, profile_menu, JobProfile, NodeProfile,
};
