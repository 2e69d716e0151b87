//! Property tests for the scheduler: conservation and policy sanity
//! under arbitrary job populations.

use proptest::prelude::*;

use pipefill_executor::JobId;
use pipefill_scheduler::{
    EarliestDeadlineFirst, Fifo, FillJobScheduler, JobInfo, MakespanMin, SchedulingPolicy,
    ShortestJobFirst, SystemState,
};
use pipefill_sim_core::{SimDuration, SimTime};

#[derive(Debug, Clone)]
struct RawJob {
    arrival: u32,
    procs: Vec<Option<u32>>, // per executor, seconds
    deadline: Option<u32>,
}

fn job_strategy(executors: usize) -> impl Strategy<Value = RawJob> {
    (
        0u32..1_000,
        prop::collection::vec(prop::option::of(1u32..500), executors),
        prop::option::of(1u32..5_000),
    )
        .prop_map(|(arrival, procs, deadline)| RawJob {
            arrival,
            procs,
            deadline,
        })
}

fn build(jobs: &[RawJob]) -> Vec<JobInfo> {
    jobs.iter()
        .enumerate()
        .map(|(i, j)| {
            let mut info = JobInfo::new(
                JobId(i as u64),
                SimTime::from_secs_f64(j.arrival as f64),
                j.procs
                    .iter()
                    .map(|p| p.map(|s| SimDuration::from_secs(s as u64)))
                    .collect(),
            );
            if let Some(d) = j.deadline {
                info = info.with_deadline(SimTime::from_secs_f64(d as f64));
            }
            info
        })
        .collect()
}

fn policies() -> Vec<Box<dyn SchedulingPolicy>> {
    vec![
        Box::new(Fifo),
        Box::new(ShortestJobFirst),
        Box::new(MakespanMin),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Dispatching drains exactly the feasible jobs, each exactly once,
    /// under every policy.
    #[test]
    fn dispatch_conserves_jobs(
        raw in prop::collection::vec(job_strategy(3), 0..30),
        policy_idx in 0usize..3,
    ) {
        let jobs = build(&raw);
        let mut sched = FillJobScheduler::new(policies().remove(policy_idx));
        for j in &jobs {
            sched.submit(j.clone());
        }
        let state = SystemState::idle(SimTime::ZERO, 3);
        let mut dispatched: Vec<JobId> = Vec::new();
        // Round-robin executors until nothing moves.
        loop {
            let mut progressed = false;
            for e in 0..3 {
                if let Some(j) = sched.pick_for(e, &state) {
                    prop_assert!(j.feasible_on(e));
                    dispatched.push(j.id);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
        let feasible = jobs.iter().filter(|j| j.min_proc_time().is_some()).count();
        prop_assert_eq!(dispatched.len(), feasible);
        dispatched.sort();
        dispatched.dedup();
        prop_assert_eq!(dispatched.len(), feasible, "a job was dispatched twice");
    }

    /// SJF never inverts plan-length order: on a single executor, the
    /// dispatch sequence is nondecreasing in processing time, whatever
    /// the arrival pattern.
    #[test]
    fn sjf_never_inverts_plan_length_order(
        jobs in prop::collection::vec((0u32..1_000, 1u32..500), 1..25),
    ) {
        let mut sched = FillJobScheduler::new(Box::new(ShortestJobFirst));
        for (i, &(arrival, proc)) in jobs.iter().enumerate() {
            sched.submit(JobInfo::new(
                JobId(i as u64),
                SimTime::from_secs_f64(arrival as f64),
                vec![Some(SimDuration::from_secs(proc as u64))],
            ));
        }
        let state = SystemState::idle(SimTime::from_secs_f64(2_000.0), 1);
        let mut prev: Option<SimDuration> = None;
        while let Some(job) = sched.pick_for(0, &state) {
            let proc = job.min_proc_time().unwrap();
            if let Some(prev) = prev {
                prop_assert!(
                    proc >= prev,
                    "SJF dispatched {proc} after {prev}"
                );
            }
            prev = Some(proc);
        }
    }

    /// EDF never inverts deadlines: among deadline-carrying jobs on one
    /// executor, the dispatch sequence is nondecreasing in deadline.
    #[test]
    fn edf_never_inverts_deadlines(
        jobs in prop::collection::vec((0u32..1_000, 1u32..5_000), 1..25),
    ) {
        let mut sched = FillJobScheduler::new(Box::new(EarliestDeadlineFirst));
        for (i, &(arrival, deadline)) in jobs.iter().enumerate() {
            sched.submit(
                JobInfo::new(
                    JobId(i as u64),
                    SimTime::from_secs_f64(arrival as f64),
                    vec![Some(SimDuration::from_secs(10))],
                )
                .with_deadline(SimTime::from_secs_f64(deadline as f64)),
            );
        }
        // `now` before every deadline, so no job is clamped to the
        // overdue plateau where only tie-breaks order them.
        let state = SystemState::idle(SimTime::ZERO, 1);
        let mut prev: Option<SimTime> = None;
        while let Some(job) = sched.pick_for(0, &state) {
            let deadline = job.deadline.unwrap();
            if let Some(prev) = prev {
                prop_assert!(
                    deadline >= prev,
                    "EDF dispatched deadline {deadline} after {prev}"
                );
            }
            prev = Some(deadline);
        }
    }

    /// Requeue preserves the evicted job's original arrival: an
    /// immediate pick → requeue detour leaves the full dispatch sequence
    /// identical to the undisturbed one, under every policy.
    #[test]
    fn requeue_preserves_original_arrival(
        raw in prop::collection::vec(job_strategy(1), 1..20),
        policy_idx in 0usize..3,
    ) {
        let jobs = build(&raw);
        let state = SystemState::idle(SimTime::from_secs_f64(5_000.0), 1);
        let drain = |mut sched: FillJobScheduler| {
            std::iter::from_fn(|| sched.pick_for(0, &state).map(|j| j.id))
                .collect::<Vec<JobId>>()
        };

        let mut plain = FillJobScheduler::new(policies().remove(policy_idx));
        for j in &jobs {
            plain.submit(j.clone());
        }
        let undisturbed = drain(plain);

        let mut churned = FillJobScheduler::new(policies().remove(policy_idx));
        for j in &jobs {
            churned.submit(j.clone());
        }
        if let Some(evicted) = churned.pick_for(0, &state) {
            let arrival = evicted.arrival;
            churned.requeue(evicted.clone());
            // The arrival survived the round-trip…
            let requeued = churned
                .queued()
                .iter()
                .find(|j| j.id == evicted.id)
                .expect("requeued job is back in the queue");
            prop_assert_eq!(requeued.arrival, arrival);
        }
        // …so the dispatch order is exactly what it would have been.
        prop_assert_eq!(drain(churned), undisturbed);
    }

    /// SJF's total completion time is never worse than FIFO's on a
    /// single executor (the classic exchange argument): each job starts
    /// when the one picked before it completes.
    #[test]
    fn sjf_dominates_fifo_on_one_executor(
        procs in prop::collection::vec(1u32..500, 1..20),
    ) {
        let jobs: Vec<JobInfo> = procs
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                JobInfo::new(
                    JobId(i as u64),
                    SimTime::ZERO,
                    vec![Some(SimDuration::from_secs(p as u64))],
                )
            })
            .collect();
        let total_completion = |policy: Box<dyn SchedulingPolicy>| {
            let mut s = FillJobScheduler::new(policy);
            for j in &jobs {
                s.submit(j.clone());
            }
            let mut clock = SimTime::ZERO;
            let mut total = 0.0;
            while let Some(job) = s.pick_for(0, &SystemState::idle(clock, 1)) {
                clock += job.proc_time(0).unwrap();
                total += clock.as_secs_f64();
            }
            total
        };
        let sjf = total_completion(Box::new(ShortestJobFirst));
        let fifo = total_completion(Box::new(Fifo));
        prop_assert!(sjf <= fifo + 1e-9, "SJF {sjf} vs FIFO {fifo}");
    }
}
