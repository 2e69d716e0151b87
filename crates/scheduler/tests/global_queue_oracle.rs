//! The bucketed global fill queue against a brute-force oracle.
//!
//! Random interleavings of requeues and picks — over random executor
//! ownership, per-job admission, feasibility sets (shared classes and
//! one-offs), per-executor processing times, deadlines and executor
//! occupancy, under all four built-in policies — must make
//! `GlobalFillQueue` return exactly the job a dense reference scan picks:
//! mask foreign devices of non-admitting jobs, take the maximum score,
//! break ties by (arrival, id). Queue length, peak depth and cross-job
//! dispatch counts must agree after every step, and re-queueing a job
//! that is still queued must panic.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;

use pipefill_executor::JobId;
use pipefill_scheduler::{
    ExecutorSnapshot, Fifo, GlobalFillQueue, JobInfo, MakespanMin, SchedulingPolicy,
    ShortestJobFirst, SystemState, Weighted,
};
use pipefill_sim_core::{SimDuration, SimTime};

/// SplitMix64: the case's structure is drawn from one seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    /// A random (possibly empty) ascending subset of `0..n`.
    fn subset(&mut self, n: usize) -> Vec<usize> {
        let density = 10 + self.below(70);
        (0..n).filter(|_| self.chance(density)).collect()
    }
}

fn policy(idx: usize) -> Box<dyn SchedulingPolicy> {
    match idx {
        0 => Box::new(Fifo),
        1 => Box::new(ShortestJobFirst),
        2 => Box::new(MakespanMin),
        _ => Box::new(Weighted::deadline_then_sjf()),
    }
}

/// The dense reference queue: every queued job with its origin, masked
/// at requeue, scanned in full on every pick.
struct Reference {
    policy: Box<dyn SchedulingPolicy>,
    owner: Vec<usize>,
    jobs: Vec<(usize, JobInfo)>,
    peak: usize,
    cross: u64,
}

impl Reference {
    fn requeue(&mut self, origin: usize, info: &JobInfo, admits: &[bool]) {
        let dense = (0..self.owner.len())
            .map(|d| {
                let receiver = self.owner[d];
                let admitted = receiver == origin || admits[receiver];
                info.proc_time(d).filter(|_| admitted)
            })
            .collect();
        let mut masked = JobInfo::new(info.id, info.arrival, dense);
        if let Some(deadline) = info.deadline {
            masked = masked.with_deadline(deadline);
        }
        self.jobs.push((origin, masked));
        self.peak = self.peak.max(self.jobs.len());
    }

    fn pick(&mut self, device: usize, state: &SystemState) -> Option<JobInfo> {
        let mut best: Option<(usize, f64)> = None;
        for (idx, (_, job)) in self.jobs.iter().enumerate() {
            if !job.feasible_on(device) {
                continue;
            }
            let score = self.policy.score(job, state, device);
            let better = match best {
                None => true,
                Some((b, bscore)) => {
                    let b = &self.jobs[b].1;
                    score > bscore || (score == bscore && (job.arrival, job.id) < (b.arrival, b.id))
                }
            };
            if better {
                best = Some((idx, score));
            }
        }
        let (origin, job) = self.jobs.remove(best?.0);
        if origin != self.owner[device] {
            self.cross += 1;
        }
        Some(job)
    }
}

fn secs(s: usize) -> SimDuration {
    SimDuration::from_secs(s as u64)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bucketed_queue_matches_dense_reference(seed in 0u64..1 << 48, policy_idx in 0usize..4) {
        let mut mix = Mix(seed);
        let devices = 2 + mix.below(11);
        let main_jobs = 1 + mix.below(devices.min(4));
        let owner: Vec<usize> = (0..devices).map(|_| mix.below(main_jobs)).collect();
        let admits: Vec<bool> = (0..main_jobs).map(|_| mix.chance(50)).collect();
        let classes: Vec<Vec<usize>> = (0..3).map(|_| mix.subset(devices)).collect();

        let mut queue = GlobalFillQueue::new(policy(policy_idx), owner.clone(), admits.clone());
        let mut reference = Reference {
            policy: policy(policy_idx),
            owner: owner.clone(),
            jobs: Vec::new(),
            peak: 0,
            cross: 0,
        };
        // Dispatched jobs may be evicted again and re-enter.
        let mut dispatched: Vec<JobId> = Vec::new();
        let mut next_id = 0u64;

        for _ in 0..1 + mix.below(150) {
            if mix.chance(55) {
                let id = if !dispatched.is_empty() && mix.chance(30) {
                    dispatched.swap_remove(mix.below(dispatched.len()))
                } else {
                    next_id += 1;
                    JobId(next_id)
                };
                let set = if mix.chance(80) {
                    classes[mix.below(classes.len())].clone()
                } else {
                    mix.subset(devices)
                };
                let feasible = set.into_iter().map(|d| (d, secs(1 + mix.below(500)))).collect();
                let arrival = SimTime::ZERO + secs(mix.below(1_000));
                let mut info = JobInfo::sparse(id, arrival, devices, feasible);
                if mix.chance(30) {
                    info = info.with_deadline(SimTime::ZERO + secs(mix.below(3_000)));
                }
                let origin = mix.below(main_jobs);
                reference.requeue(origin, &info, &admits);
                queue.requeue_from(origin, info);
            } else {
                let device = mix.below(devices);
                let state = SystemState {
                    now: SimTime::ZERO + secs(mix.below(2_000)),
                    executors: (0..devices)
                        .map(|_| ExecutorSnapshot { remaining: secs(mix.below(600)) })
                        .collect(),
                };
                let expected = reference.pick(device, &state);
                let got = queue.pick_for(device, &state);
                prop_assert_eq!(&got, &expected, "pick for device {}", device);
                if let Some(job) = got {
                    dispatched.push(job.id);
                }
            }
            prop_assert_eq!(queue.queue_len(), reference.jobs.len());
            prop_assert_eq!(queue.peak_depth(), reference.peak);
            prop_assert_eq!(queue.cross_job_dispatches(), reference.cross);
        }

        // A job still queued must not re-enter.
        if let Some((origin, job)) = reference.jobs.first() {
            let again = JobInfo::sparse(job.id, job.arrival, devices, Vec::new());
            let origin = *origin;
            let err = catch_unwind(AssertUnwindSafe(|| queue.requeue_from(origin, again)))
                .expect_err("re-queueing a queued job must panic");
            let msg = err
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| err.downcast_ref::<&str>().copied())
                .unwrap_or_default();
            prop_assert!(msg.contains("re-enter"), "unexpected panic: {msg}");
        }
    }
}
