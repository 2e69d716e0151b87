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
//! # Example
//!
//! ```
//! use pipefill_scheduler::{FillJobScheduler, JobInfo, ShortestJobFirst, SystemState};
//! use pipefill_executor::JobId;
//! use pipefill_sim_core::{SimDuration, SimTime};
//!
//! let mut sched = FillJobScheduler::new(Box::new(ShortestJobFirst));
//! sched.submit(JobInfo::new(JobId(1), SimTime::ZERO, vec![Some(SimDuration::from_secs(60))]));
//! sched.submit(JobInfo::new(JobId(2), SimTime::ZERO, vec![Some(SimDuration::from_secs(5))]));
//! let state = SystemState::idle(SimTime::ZERO, 1);
//! let picked = sched.pick_for(0, &state).unwrap();
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
pub use scheduler::{ExecutorSnapshot, FillJobScheduler, JobInfo, SystemState};
