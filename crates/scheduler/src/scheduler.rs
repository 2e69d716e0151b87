//! The scheduler proper: job queue and score-maximizing placement.

use pipefill_executor::JobId;
use pipefill_sim_core::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

use crate::policy::SchedulingPolicy;

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
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ExecutorSnapshot {
    /// Time until the currently running fill job completes
    /// ([`SimDuration::ZERO`] if idle).
    pub remaining: SimDuration,
}

/// The state the policy's score function receives (`s` in the paper's
/// `f(j, s, i)`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

/// The Fill Job Scheduler: a queue plus a pluggable scoring policy.
pub struct FillJobScheduler {
    policy: Box<dyn SchedulingPolicy>,
    queue: Vec<JobInfo>,
}

impl std::fmt::Debug for FillJobScheduler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FillJobScheduler")
            .field("policy", &self.policy.name())
            .field("queued", &self.queue.len())
            .finish()
    }
}

impl FillJobScheduler {
    /// Creates a scheduler with the given policy.
    pub fn new(policy: Box<dyn SchedulingPolicy>) -> Self {
        FillJobScheduler {
            policy,
            queue: Vec::new(),
        }
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Enqueues a job.
    pub fn submit(&mut self, job: JobInfo) {
        self.queue.push(job);
    }

    /// Re-enqueues a job evicted from a device mid-execution (GPU failure,
    /// preemption). The job keeps its *original* arrival time, so
    /// arrival-ordered policies (FIFO, and the deterministic tie-break of
    /// every policy) favor evicted work over jobs that arrived later —
    /// FreeRide-style preemption fairness.
    ///
    /// # Panics
    ///
    /// Panics if a job with the same id is already queued: an evicted job
    /// must have left the queue when it was dispatched, so a duplicate
    /// means the caller is about to run it twice.
    pub fn requeue(&mut self, job: JobInfo) {
        assert!(
            self.queue.iter().all(|j| j.id != job.id),
            "job {} is already queued; evicted jobs re-enter exactly once",
            job.id
        );
        self.queue.push(job);
    }

    /// Jobs currently waiting.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// The queued jobs (for inspection).
    pub fn queued(&self) -> &[JobInfo] {
        &self.queue
    }

    /// "When a device completes a fill-job, the Scheduler chooses which
    /// job to submit to the device by choosing the job which maximizes
    /// the score" (§4.4). Removes and returns that job, or `None` if no
    /// queued job is feasible on this executor. Ties break by earlier
    /// arrival, then lower id, for determinism.
    pub fn pick_for(&mut self, executor: usize, state: &SystemState) -> Option<JobInfo> {
        best_index(&self.queue, self.policy.as_ref(), executor, state)
            .map(|idx| self.queue.swap_remove(idx))
    }
}

/// Index of the highest-scoring feasible job for `executor`, with the
/// deterministic arrival/id tie-break.
fn best_index(
    queue: &[JobInfo],
    policy: &dyn SchedulingPolicy,
    executor: usize,
    state: &SystemState,
) -> Option<usize> {
    let mut best: Option<(usize, f64)> = None;
    for (idx, job) in queue.iter().enumerate() {
        if !job.feasible_on(executor) {
            continue;
        }
        let score = policy.score(job, state, executor);
        if best.is_none_or(|(b, bscore)| outranks(job, score, &queue[b], bscore)) {
            best = Some((idx, score));
        }
    }
    best.map(|(idx, _)| idx)
}

/// The placement order every pick uses: higher score first, then earlier
/// arrival, then lower id. For non-NaN scores this is a strict total
/// order over distinct jobs, so the winner does not depend on the order
/// candidates are scanned in.
pub(crate) fn outranks(job: &JobInfo, score: f64, best: &JobInfo, best_score: f64) -> bool {
    score > best_score || (score == best_score && (job.arrival, job.id) < (best.arrival, best.id))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Fifo, MakespanMin, ShortestJobFirst};

    fn secs(s: u64) -> SimDuration {
        SimDuration::from_secs(s)
    }

    fn job(id: u64, arrival_s: f64, times: &[Option<u64>]) -> JobInfo {
        JobInfo::new(
            JobId(id),
            SimTime::from_secs_f64(arrival_s),
            times.iter().map(|t| t.map(secs)).collect(),
        )
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        let mut s = FillJobScheduler::new(Box::new(ShortestJobFirst));
        s.submit(job(1, 0.0, &[Some(100)]));
        s.submit(job(2, 0.0, &[Some(10)]));
        s.submit(job(3, 0.0, &[Some(50)]));
        let state = SystemState::idle(SimTime::ZERO, 1);
        let order: Vec<u64> =
            std::iter::from_fn(|| s.pick_for(0, &state).map(|j| j.id.0)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn fifo_respects_arrival_order() {
        let mut s = FillJobScheduler::new(Box::new(Fifo));
        s.submit(job(1, 5.0, &[Some(1)]));
        s.submit(job(2, 1.0, &[Some(100)]));
        s.submit(job(3, 3.0, &[Some(50)]));
        let state = SystemState::idle(SimTime::from_secs_f64(10.0), 1);
        let order: Vec<u64> =
            std::iter::from_fn(|| s.pick_for(0, &state).map(|j| j.id.0)).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }

    #[test]
    fn infeasible_jobs_are_skipped() {
        let mut s = FillJobScheduler::new(Box::new(ShortestJobFirst));
        s.submit(job(1, 0.0, &[None, Some(10)]));
        s.submit(job(2, 0.0, &[Some(20), Some(20)]));
        let state = SystemState::idle(SimTime::ZERO, 2);
        // Executor 0 can only run job 2.
        let picked = s.pick_for(0, &state).unwrap();
        assert_eq!(picked.id, JobId(2));
        // Job 1 remains for executor 1.
        let picked = s.pick_for(1, &state).unwrap();
        assert_eq!(picked.id, JobId(1));
        assert!(s.pick_for(0, &state).is_none());
    }

    #[test]
    fn makespan_policy_balances_executors() {
        // Executor 0 has a long queue remaining; both jobs feasible on
        // both. The makespan policy scores a job on executor i by
        // 1/max(proc[i], max_rem): when filling executor 1 (idle) it
        // should prefer the job whose own processing time stays under the
        // current makespan rather than extending it.
        let mut s = FillJobScheduler::new(Box::new(MakespanMin));
        s.submit(job(1, 0.0, &[Some(200), Some(200)])); // would extend makespan
        s.submit(job(2, 0.0, &[Some(90), Some(90)])); // fits under it
        let state = SystemState {
            now: SimTime::ZERO,
            executors: vec![
                ExecutorSnapshot {
                    remaining: secs(100),
                },
                ExecutorSnapshot {
                    remaining: SimDuration::ZERO,
                },
            ],
        };
        let picked = s.pick_for(1, &state).unwrap();
        assert_eq!(picked.id, JobId(2));
    }

    #[test]
    fn ties_break_by_arrival_then_id() {
        let mut s = FillJobScheduler::new(Box::new(ShortestJobFirst));
        s.submit(job(7, 2.0, &[Some(10)]));
        s.submit(job(3, 1.0, &[Some(10)]));
        s.submit(job(5, 1.0, &[Some(10)]));
        let state = SystemState::idle(SimTime::from_secs_f64(5.0), 1);
        let order: Vec<u64> =
            std::iter::from_fn(|| s.pick_for(0, &state).map(|j| j.id.0)).collect();
        assert_eq!(order, vec![3, 5, 7]);
    }

    #[test]
    fn requeued_jobs_keep_arrival_priority() {
        let mut s = FillJobScheduler::new(Box::new(Fifo));
        s.submit(job(1, 0.0, &[Some(10)]));
        s.submit(job(2, 5.0, &[Some(10)]));
        let state = SystemState::idle(SimTime::from_secs_f64(20.0), 1);
        // Job 1 dispatches, gets evicted, and re-enters with its original
        // arrival — FIFO must still run it before the later job 2.
        let evicted = s.pick_for(0, &state).unwrap();
        assert_eq!(evicted.id, JobId(1));
        s.requeue(evicted);
        assert_eq!(s.queue_len(), 2);
        assert_eq!(s.pick_for(0, &state).unwrap().id, JobId(1));
    }

    #[test]
    #[should_panic(expected = "already queued")]
    fn double_requeue_of_a_queued_job_panics() {
        let mut s = FillJobScheduler::new(Box::new(Fifo));
        s.submit(job(1, 0.0, &[Some(10)]));
        s.requeue(job(1, 0.0, &[Some(10)]));
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let mut s = FillJobScheduler::new(Box::new(Fifo));
        let state = SystemState::idle(SimTime::ZERO, 1);
        assert!(s.pick_for(0, &state).is_none());
        assert_eq!(s.queue_len(), 0);
    }
}
