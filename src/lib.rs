//! # PipeFill — a reproduction of "PipeFill: Using GPUs During Bubbles in
//! Pipeline-parallel LLM Training" (MLSys 2025)
//!
//! PipeFill recovers the GPU time lost to pipeline bubbles in large-scale
//! pipeline-parallel (PP) training by context-switching to independent
//! *fill jobs* — pending training and batch-inference jobs — during each
//! bubble, and switching back before the bubble ends so the main job sees
//! <2% slowdown.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — deterministic discrete-event simulation kernel;
//! * [`device`] — accelerator/cluster hardware models, byte quantities
//!   and interconnect transfer times;
//! * [`models`] — the model zoo (GPT-5B/40B main jobs, Table 1 fill
//!   jobs) and its analytical FLOPs/memory cost model;
//! * [`pipeline`] — pipeline schedules (GPipe, 1F1B, interleaved, ZB-H1),
//!   the instrumented engine with explicit bubble instructions, the
//!   measured bubble free memory and the schedules' activation envelopes;
//! * [`executor`] — per-configuration fill-job profiles, the Algorithm-1
//!   bubble-packing planner and the per-device executor state machine;
//! * [`scheduler`] — the score-function policy interface (FIFO / SJF /
//!   Makespan-Min / EDF / weighted compositions) and the one fill-job
//!   queue, shared by coarse arrivals and engine evictions;
//! * [`trace`] — the synthetic Alibaba-style fill-job trace generator
//!   and HuggingFace-style model mix;
//! * [`core`] — the integrated system: coarse cluster simulator,
//!   fine-grained "physical" simulator, the heterogeneous +
//!   fault-injecting simulator, metrics, and the experiment registry:
//!   one `Experiment` per figure of the paper, each building its own
//!   schema-carrying table;
//! * [`scenario`] — the declarative layer: `ScenarioSpec` (TOML-subset
//!   scenario files lowering to backend configurations or naming a
//!   registered experiment);
//! * [`schedverify`] — schedcheck, the static schedule verifier: proves
//!   deadlock-freedom, memory bounds and bubble optimality of arbitrary
//!   instruction streams from their text.
//!
//! # Quickstart
//!
//! ```
//! use pipefill::core::StagePlans;
//! use pipefill::executor::ExecutorConfig;
//! use pipefill::models::{JobKind, ModelId};
//! use pipefill::pipeline::{MainJobSpec, ScheduleKind};
//!
//! // The paper's 8K-GPU setting: a 40B LLM with a 65% bubble ratio.
//! let main = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe);
//! let timeline = main.engine_timeline();
//! assert!(timeline.bubble_ratio() > 0.6);
//!
//! // Plan a BERT batch-inference fill job into stage 8's bubbles.
//! let plans = StagePlans::homogeneous(&timeline, &main.device, ExecutorConfig::default());
//! let plan = plans
//!     .plan(ModelId::BertBase, JobKind::BatchInference, 8)
//!     .expect("BERT inference fits stage 8");
//! assert!(plan.samples_per_pass > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

/// Discrete-event simulation kernel ([`pipefill_sim_core`]).
pub mod sim {
    pub use pipefill_sim_core::*;
}

/// Device, node and cluster hardware models ([`pipefill_device`]).
pub mod device {
    pub use pipefill_device::*;
}

/// Model zoo and analytical cost model ([`pipefill_model_zoo`]).
pub mod models {
    pub use pipefill_model_zoo::*;
}

/// Pipeline engine, schedules and bubbles ([`pipefill_pipeline`]).
pub mod pipeline {
    pub use pipefill_pipeline::*;
}

/// Fill-job executor and Algorithm 1 ([`pipefill_executor`]).
pub mod executor {
    pub use pipefill_executor::*;
}

/// Fill-job scheduler and policies ([`pipefill_scheduler`]).
pub mod scheduler {
    pub use pipefill_scheduler::*;
}

/// Workload trace generation ([`pipefill_trace`]).
pub mod trace {
    pub use pipefill_trace::*;
}

/// The integrated PipeFill system and experiment drivers
/// ([`pipefill_core`]).
pub mod core {
    pub use pipefill_core::*;
}

/// Declarative scenarios ([`pipefill_scenario`]).
pub mod scenario {
    pub use pipefill_scenario::*;
}

/// schedcheck: the static schedule verifier ([`pipefill_schedverify`]).
pub mod schedverify {
    pub use pipefill_schedverify::*;
}
