//! Built-in scheduling policies — the paper's worked examples plus the
//! compositions it sketches.

use crate::scheduler::{JobInfo, SystemState};

/// A user-defined scheduling policy: "a function that takes as input a
/// job's information (arrival time, processing-time on every possible
/// device, and deadline) as well as the current state of all the
/// Executors in the system, and outputs a score" (§4.4).
pub trait SchedulingPolicy: Send + Sync {
    /// The score of dispatching `job` to `executor` under `state`; the
    /// scheduler dispatches the queued job with the maximum score.
    fn score(&self, job: &JobInfo, state: &SystemState, executor: usize) -> f64;
}

/// First-in-first-out: earlier arrivals score higher.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fifo;

impl SchedulingPolicy for Fifo {
    fn score(&self, job: &JobInfo, _state: &SystemState, _executor: usize) -> f64 {
        -job.arrival.as_secs_f64()
    }
}

/// The paper's Shortest-Job-First example:
/// `f(j, s, i) = 1 / min(j.proc_times)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ShortestJobFirst;

impl SchedulingPolicy for ShortestJobFirst {
    fn score(&self, job: &JobInfo, _state: &SystemState, _executor: usize) -> f64 {
        match job.min_proc_time() {
            Some(t) if !t.is_zero() => 1.0 / t.as_secs_f64(),
            Some(_) => f64::MAX,
            None => f64::MIN,
        }
    }
}

/// The paper's makespan-minimizing example:
/// `f(j, s, i) = 1 / max(j.proc_times[i], s.rem_times)` — "minimize the
/// maximum busy time across all Executors".
#[derive(Debug, Clone, Copy, Default)]
pub struct MakespanMin;

impl SchedulingPolicy for MakespanMin {
    fn score(&self, job: &JobInfo, state: &SystemState, executor: usize) -> f64 {
        let Some(proc) = job.proc_time(executor) else {
            return f64::MIN;
        };
        let makespan = proc.max(state.max_remaining()).as_secs_f64();
        if makespan == 0.0 {
            f64::MAX
        } else {
            1.0 / makespan
        }
    }
}

/// Earliest-Deadline-First: jobs closer to their deadline score higher;
/// jobs without deadlines score zero (compose with [`Weighted`] to give
/// them a fallback order).
#[derive(Debug, Clone, Copy, Default)]
pub struct EarliestDeadlineFirst;

impl SchedulingPolicy for EarliestDeadlineFirst {
    fn score(&self, job: &JobInfo, state: &SystemState, _executor: usize) -> f64 {
        match job.deadline {
            None => 0.0,
            Some(d) => {
                let slack = d.saturating_since(state.now).as_secs_f64();
                // Already-late jobs are most urgent of all.
                1.0 / slack.max(1e-9)
            }
        }
    }
}

/// A weighted composition of policies — the paper's "hierarchical
/// policies … defined that prioritize proximity-to-deadline as a feature,
/// but default to more standard policies (e.g. SJF, FIFO) when there are
/// no jobs with deadlines".
pub struct Weighted {
    components: Vec<(f64, Box<dyn SchedulingPolicy>)>,
}

impl Weighted {
    /// Builds a composition from `(weight, policy)` pairs.
    ///
    /// # Panics
    ///
    /// Panics if `components` is empty.
    pub fn new(components: Vec<(f64, Box<dyn SchedulingPolicy>)>) -> Self {
        assert!(!components.is_empty(), "weighted policy needs components");
        Weighted { components }
    }

    /// The paper's sketched deadline-aware hierarchy: deadlines dominate
    /// when present, SJF breaks the rest.
    pub fn deadline_then_sjf() -> Self {
        Weighted::new(vec![
            (1e6, Box::new(EarliestDeadlineFirst)),
            (1.0, Box::new(ShortestJobFirst)),
        ])
    }
}

impl SchedulingPolicy for Weighted {
    fn score(&self, job: &JobInfo, state: &SystemState, executor: usize) -> f64 {
        self.components
            .iter()
            .map(|(w, p)| w * p.score(job, state, executor))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_executor::JobId;
    use pipefill_sim_core::{SimDuration, SimTime};

    fn job(id: u64, proc_secs: u64) -> JobInfo {
        JobInfo::new(
            JobId(id),
            SimTime::ZERO,
            vec![Some(SimDuration::from_secs(proc_secs))],
        )
    }

    fn idle() -> SystemState {
        SystemState::idle(SimTime::ZERO, 1)
    }

    #[test]
    fn sjf_scores_match_paper_formula() {
        let j = job(1, 10);
        assert!((ShortestJobFirst.score(&j, &idle(), 0) - 0.1).abs() < 1e-12);
    }

    #[test]
    fn makespan_score_uses_max_of_proc_and_remaining() {
        let j = job(1, 10);
        let mut state = idle();
        state.executors[0].remaining = SimDuration::from_secs(40);
        // max(10, 40) = 40.
        assert!((MakespanMin.score(&j, &state, 0) - 1.0 / 40.0).abs() < 1e-12);
    }

    #[test]
    fn edf_prioritizes_tight_deadlines() {
        let near = job(1, 10).with_deadline(SimTime::from_secs_f64(20.0));
        let far = job(2, 10).with_deadline(SimTime::from_secs_f64(2000.0));
        let none = job(3, 10);
        let state = idle();
        let p = EarliestDeadlineFirst;
        assert!(p.score(&near, &state, 0) > p.score(&far, &state, 0));
        assert_eq!(p.score(&none, &state, 0), 0.0);
    }

    #[test]
    fn overdue_jobs_score_highest() {
        let overdue = job(1, 10).with_deadline(SimTime::from_secs_f64(1.0));
        let state = SystemState::idle(SimTime::from_secs_f64(100.0), 1);
        assert!(EarliestDeadlineFirst.score(&overdue, &state, 0) > 1e6);
    }

    #[test]
    fn weighted_hierarchy_defaults_to_sjf_without_deadlines() {
        let policy = Weighted::deadline_then_sjf();
        let short = job(1, 5);
        let long = job(2, 500);
        let state = idle();
        assert!(policy.score(&short, &state, 0) > policy.score(&long, &state, 0));
        // With a deadline in play it dominates.
        let urgent_long = job(3, 500).with_deadline(SimTime::from_secs_f64(30.0));
        assert!(policy.score(&urgent_long, &state, 0) > policy.score(&short, &state, 0));
    }

    #[test]
    #[should_panic(expected = "needs components")]
    fn empty_weighted_rejected() {
        let _ = Weighted::new(vec![]);
    }
}
