//! # pipefill-pipeline
//!
//! The pipeline-parallel training engine substrate: parallelism
//! configuration, model-to-stage partitioning, pipeline instruction
//! sequences with PipeFill's explicit *bubble instruction*, GPipe and 1F1B
//! schedule generators, a dependency-driven engine that derives each
//! stage's busy/bubble timeline, and the main-job memory model.
//!
//! This is the reproduction of §4.2 of the paper ("Pipeline Engine
//! Instrumentation") plus the §2 background machinery it instruments. The
//! engine here executes instruction streams through a deterministic
//! dependency simulation rather than CUDA streams, but exposes exactly
//! the artifacts PipeFill consumes: per-stage bubble windows (kind,
//! duration, free memory) repeating every minibatch iteration. Those
//! durations are exact, so the paper's runtime bubble probe and main-job
//! optimizer-state offload are not modelled: every consumer reads the
//! engine's durations and the un-offloaded free memory directly.
//!
//! # Example
//!
//! ```
//! use pipefill_pipeline::{MainJobSpec, ScheduleKind};
//!
//! // The paper's 8K-GPU setting: 40B LLM, 16 stages, 8 microbatches.
//! let job = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe);
//! let timeline = job.engine_timeline();
//! let ratio = timeline.bubble_ratio();
//! assert!((ratio - 0.652).abs() < 0.03); // (p-1)/(m+p-1) = 15/23
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod analysis;
mod bubbles;
pub mod deps;
mod engine;
mod instructions;
mod job;
mod memory;
mod parallelism;
mod partition;
mod render;
mod schedule;

pub use analysis::{bubble_fraction, bubble_fraction_for, days_to_train, ScalingPoint};
pub use bubbles::{BubbleKind, BubbleWindow};
pub use engine::{EngineConfig, EngineError, EngineTimeline, StageTimeline};
pub use instructions::PipelineInstruction;
pub use job::MainJobSpec;
pub use memory::{activation_envelope, BubbleMemoryModel, MainJobMemoryModel};
pub use parallelism::ParallelismConfig;
pub use partition::{StagePartition, StageProfile};
pub use render::render_timeline;
pub use schedule::ScheduleKind;
