//! What the Scheduler sees: jobs, executor occupancy, and the placement
//! order every pick uses.

use pipefill_executor::JobId;
use pipefill_sim_core::{SimDuration, SimTime};

/// What the Scheduler knows about one job: arrival, optional deadline,
/// and its processing time on every device where it can run. Devices
/// missing from the list are infeasible (the Executor found no plan —
/// e.g. the device's bubbles are too small for any configuration of the
/// model).
///
/// Feasibility is stored sparsely, as `(executor, proc_time)` pairs in
/// ascending executor order over an executor space of known size: a
/// fleet-scale fill job is feasible on a few dozen of tens of thousands
/// of devices.
#[derive(Debug, Clone, PartialEq)]
pub struct JobInfo {
    /// Job identifier.
    pub id: JobId,
    /// Submission time.
    pub arrival: SimTime,
    /// Optional completion deadline.
    pub deadline: Option<SimTime>,
    /// Processing time on each feasible executor, ascending by executor.
    feasible: Vec<(usize, SimDuration)>,
    /// Size of the executor space `feasible` indexes into.
    executors: usize,
}

impl JobInfo {
    /// Creates a job description from a dense per-executor list:
    /// `proc_times[e]` is the processing time on executor `e`, `None`
    /// where infeasible.
    pub fn new(id: JobId, arrival: SimTime, proc_times: Vec<Option<SimDuration>>) -> Self {
        let executors = proc_times.len();
        let feasible = proc_times
            .into_iter()
            .enumerate()
            .filter_map(|(e, t)| Some((e, t?)))
            .collect();
        Self::sparse(id, arrival, executors, feasible)
    }

    /// Creates a job description from its feasible executors only:
    /// `(executor, proc_time)` pairs over an executor space of
    /// `executors` devices.
    ///
    /// # Panics
    ///
    /// Panics if the executors are not strictly ascending or one lies
    /// outside the executor space.
    pub fn sparse(
        id: JobId,
        arrival: SimTime,
        executors: usize,
        feasible: Vec<(usize, SimDuration)>,
    ) -> Self {
        assert!(
            feasible.windows(2).all(|w| w[0].0 < w[1].0),
            "feasible executors must be strictly ascending"
        );
        assert!(
            feasible.last().is_none_or(|&(e, _)| e < executors),
            "feasible executor outside the executor space ({executors})"
        );
        JobInfo {
            id,
            arrival,
            deadline: None,
            feasible,
            executors,
        }
    }

    /// Adds a deadline.
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Size of the executor space this job was described over.
    pub(crate) fn num_executors(&self) -> usize {
        self.executors
    }

    /// The feasible executors with their processing times, ascending by
    /// executor.
    pub(crate) fn feasible(&self) -> &[(usize, SimDuration)] {
        &self.feasible
    }

    /// Processing time on `executor`, or `None` where infeasible.
    pub fn proc_time(&self, executor: usize) -> Option<SimDuration> {
        self.feasible
            .binary_search_by_key(&executor, |&(e, _)| e)
            .ok()
            .map(|i| self.feasible[i].1)
    }

    /// Fastest processing time across devices, if feasible anywhere.
    pub fn min_proc_time(&self) -> Option<SimDuration> {
        self.feasible.iter().map(|&(_, t)| t).min()
    }

    /// True if this job can run on the given executor.
    pub fn feasible_on(&self, executor: usize) -> bool {
        self.proc_time(executor).is_some()
    }

    /// Keeps only the feasible executors `keep` accepts.
    pub(crate) fn retain_executors(&mut self, mut keep: impl FnMut(usize) -> bool) {
        self.feasible.retain(|&(e, _)| keep(e));
    }
}

/// One executor's occupancy as seen by the Scheduler.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorSnapshot {
    /// Time until the currently running fill job completes
    /// ([`SimDuration::ZERO`] if idle).
    pub remaining: SimDuration,
}

/// The state the policy's score function receives (`s` in the paper's
/// `f(j, s, i)`).
#[derive(Debug, Clone, PartialEq)]
pub struct SystemState {
    /// Current time.
    pub now: SimTime,
    /// Per-executor occupancy.
    pub executors: Vec<ExecutorSnapshot>,
}

impl SystemState {
    /// A state with `n` idle executors.
    pub fn idle(now: SimTime, n: usize) -> Self {
        SystemState {
            now,
            executors: vec![
                ExecutorSnapshot {
                    remaining: SimDuration::ZERO,
                };
                n
            ],
        }
    }

    /// Largest remaining busy time across executors (`max(s.rem_times)`).
    pub fn max_remaining(&self) -> SimDuration {
        self.executors
            .iter()
            .map(|e| e.remaining)
            .max()
            .unwrap_or(SimDuration::ZERO)
    }
}

/// The placement order every pick uses: higher score first, then earlier
/// arrival, then lower id. For non-NaN scores this is a strict total
/// order over distinct jobs, so the winner does not depend on the order
/// candidates are scanned in.
pub(crate) fn outranks(job: &JobInfo, score: f64, best: &JobInfo, best_score: f64) -> bool {
    score > best_score || (score == best_score && (job.arrival, job.id) < (best.arrival, best.id))
}
