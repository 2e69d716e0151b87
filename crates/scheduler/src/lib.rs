//! # pipefill-scheduler
//!
//! The Fill Job Scheduler (§4.4): the interface between a main job's
//! pipeline bubbles and higher-level cluster schedulers.
//!
//! The scheduling policy is exactly the paper's user-defined scoring
//! function: `f(job, state, executor_index) → score`, evaluated whenever a
//! device finishes a fill job; the queued job with the highest score is
//! submitted to that device. Built-in policies reproduce the paper's
//! examples — Shortest-Job-First (`1 / min(proc_times)`) and
//! Makespan-Minimizing (`1 / max(proc_times[i], rem_times)`) — plus FIFO,
//! Earliest-Deadline-First, and weighted compositions for the paper's
//! "hierarchical policies … that prioritize proximity-to-deadline but
//! default to more standard policies".
//!
//! [`GlobalFillQueue`] is the one queue: fresh arrivals and jobs evicted
//! mid-run enter it the same way, and every pick goes through it.
//!
//! # Example
//!
//! ```
//! use pipefill_scheduler::{GlobalFillQueue, JobInfo, ShortestJobFirst, SystemState};
//! use pipefill_executor::JobId;
//! use pipefill_sim_core::{SimDuration, SimTime};
//!
//! // One pipeline: a single main job owning the one executor.
//! let mut queue = GlobalFillQueue::new(Box::new(ShortestJobFirst), vec![0], vec![true]);
//! queue.requeue_from(0, JobInfo::new(JobId(1), SimTime::ZERO, vec![Some(SimDuration::from_secs(60))]));
//! queue.requeue_from(0, JobInfo::new(JobId(2), SimTime::ZERO, vec![Some(SimDuration::from_secs(5))]));
//! let state = SystemState::idle(SimTime::ZERO, 1);
//! let picked = queue.pick_for(0, &state).unwrap();
//! assert_eq!(picked.id, JobId(2)); // the short job wins
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod fleet;
mod policy;
mod scheduler;

pub use fleet::GlobalFillQueue;
pub use policy::{
    EarliestDeadlineFirst, Fifo, MakespanMin, SchedulingPolicy, ShortestJobFirst, Weighted,
};
pub use scheduler::{ExecutorSnapshot, JobInfo, SystemState};
