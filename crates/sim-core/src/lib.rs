//! # pipefill-sim-core
//!
//! Discrete-event simulation kernel underlying the PipeFill reproduction.
//!
//! The paper evaluates PipeFill with "an event-driven simulator \[whose\]
//! events are the arrivals and completions of fill-jobs" seeded with
//! profiles of the main training job's pipeline instructions (§5.1). This
//! crate provides the generic machinery that both the coarse profile-driven
//! simulator and the fine-grained "physical cluster" simulator are built on:
//!
//! * [`SimTime`] / [`SimDuration`] — integer-nanosecond simulated time, so
//!   event ordering is exact and runs are bit-reproducible.
//! * [`EventQueue`] — a priority queue with deterministic FIFO tie-breaking
//!   for simultaneous events.
//! * [`Simulation`] and the [`EventHandler`] trait — a minimal driver loop.
//! * [`LookupMap`] — a hash map with no iteration API, the one point-lookup
//!   table the workspace allows.
//! * [`rng::DeterministicRng`] — seeded RNG with the distributions the
//!   workload generators need (exponential, normal, lognormal, …),
//!   implemented from scratch on top of `rand`'s uniform source.
//! * [`stats`] — summary statistics used by the metrics layer.
//!
//! # Example
//!
//! ```
//! use pipefill_sim_core::{EventQueue, SimTime, SimDuration};
//!
//! let mut q: EventQueue<&str> = EventQueue::new();
//! q.push(SimTime::from_secs_f64(1.0), "second");
//! q.push(SimTime::ZERO, "first");
//! assert_eq!(q.pop().map(|(_, e)| e), Some("first"));
//! assert_eq!(q.pop().map(|(_, e)| e), Some("second"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod lookup;
mod queue;
mod sim;
mod time;

pub mod rng;
pub mod stats;

pub use lookup::LookupMap;
pub use queue::EventQueue;
pub use sim::{EventHandler, Simulation, StepOutcome};
pub use time::{SimDuration, SimTime};
