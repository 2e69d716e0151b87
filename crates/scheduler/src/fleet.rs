//! The one fill-job queue: the Fill Job Scheduler of §4.4.
//!
//! Every fill job waiting for a device sits here, whether it just
//! arrived (the coarse backend) or was evicted mid-run (the fill
//! engine). When a device frees up, [`GlobalFillQueue::pick_for`] hands
//! it the queued job its [`SchedulingPolicy`] scores highest.
//!
//! A fleet runs many pipeline-parallel main jobs at once; their stages
//! form one flat executor space. Evicted fill jobs re-enter here rather
//! than a per-pipeline queue, so any compatible idle stage in the whole
//! fleet can resume them. A single pipeline is the one-owner case. On
//! top of policy scoring the queue handles the fleet-level concerns:
//!
//! * **Locality buckets** — the caller encodes locality in a job's
//!   sparse feasibility (a fill job is only feasible on stages whose
//!   bubble geometry matches its execution plan: one stage of every
//!   pipeline of its shape class). Each queued job sits in exactly one
//!   bucket, keyed by that feasible set as requeued, and a pick for a
//!   device scans only the buckets whose set contains it. Requeue and
//!   the empty-handed picks of unrelated devices never touch the rest of
//!   the queue, and nothing devices-sized is ever allocated.
//! * **Per-job admission** — each main job declares whether its stages
//!   accept fill work evicted from *other* jobs. A device admits a
//!   bucketed job if its owner is the job's origin or admits foreign
//!   work; the stored [`JobInfo`] is masked the same way at requeue, so
//!   policies score exactly the feasibility the job has.
//! * **Origin tracking** — each queued job remembers the main job it was
//!   evicted from, so cross-job dispatches are counted and audited.

use pipefill_executor::JobId;
use pipefill_sim_core::LookupMap;

use crate::policy::SchedulingPolicy;
use crate::scheduler::{outranks, JobInfo, SystemState};

/// A queued fill job and the main job it was evicted from.
struct Queued {
    origin: usize,
    info: JobInfo,
}

/// One global fill queue shared by every main job of a fleet.
pub struct GlobalFillQueue {
    policy: Box<dyn SchedulingPolicy>,
    /// Owning main-job index per flat executor.
    owner: Vec<usize>,
    /// Per main job: whether its stages accept foreign fill work.
    admits_foreign: Vec<bool>,
    /// Queued jobs, one bucket per distinct requeued feasible set.
    buckets: Vec<Vec<Queued>>,
    /// Bucket index by feasible executor set.
    bucket_of: LookupMap<Vec<usize>, usize>,
    /// Buckets whose feasible set contains a device, for every device
    /// some bucket covers.
    device_buckets: LookupMap<usize, Vec<usize>>,
    /// Ids of every queued job.
    queued: LookupMap<JobId, ()>,
    peak_depth: usize,
    cross_job_dispatches: u64,
}

impl std::fmt::Debug for GlobalFillQueue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("GlobalFillQueue")
            .field("devices", &self.owner.len())
            .field("main_jobs", &self.admits_foreign.len())
            .field("buckets", &self.buckets.len())
            .field("queued", &self.queue_len())
            .finish()
    }
}

impl GlobalFillQueue {
    /// Creates the queue. `owner[d]` is the main job owning flat executor
    /// `d`; `admits_foreign[j]` gates whether job `j`'s executors accept
    /// fill work evicted from other jobs.
    ///
    /// # Panics
    ///
    /// Panics if an owner index is out of range.
    pub fn new(
        policy: Box<dyn SchedulingPolicy>,
        owner: Vec<usize>,
        admits_foreign: Vec<bool>,
    ) -> Self {
        assert!(
            owner.iter().all(|&j| j < admits_foreign.len()),
            "every executor owner must index a main job"
        );
        GlobalFillQueue {
            policy,
            owner,
            admits_foreign,
            buckets: Vec::new(),
            bucket_of: LookupMap::new(),
            device_buckets: LookupMap::new(),
            queued: LookupMap::new(),
            peak_depth: 0,
            cross_job_dispatches: 0,
        }
    }

    /// Flat executors in the fleet.
    pub fn num_devices(&self) -> usize {
        self.owner.len()
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &str {
        self.policy.name()
    }

    /// Whether `device` accepts work evicted from main job `origin`: the
    /// origin's own devices always do, other jobs' only if they admit
    /// foreign work.
    fn admits(&self, device: usize, origin: usize) -> bool {
        let receiver = self.owner[device];
        receiver == origin || self.admits_foreign[receiver]
    }

    /// Enqueues a fill job that arrived at, or was evicted from, main job
    /// `origin_job`. Devices of main jobs that do not admit foreign work
    /// are masked infeasible (the origin job's own devices are never
    /// masked). An evicted job keeps its original arrival, so
    /// arrival-ordered policies still favor evicted work over later
    /// submissions.
    ///
    /// # Panics
    ///
    /// Panics if the job's executor space is not the fleet's flat
    /// executor space, or if a job with the same id is already queued (a
    /// fill job re-enters the fleet exactly once per eviction).
    pub fn requeue_from(&mut self, origin_job: usize, mut info: JobInfo) {
        assert_eq!(
            info.num_executors(),
            self.owner.len(),
            "the job's executor space must cover every flat executor"
        );
        assert!(
            self.queued.insert(info.id, ()).is_none(),
            "job {} is already queued; evicted jobs re-enter exactly once",
            info.id
        );
        let key: Vec<usize> = info.feasible().iter().map(|&(e, _)| e).collect();
        let bucket = match self.bucket_of.get(&key) {
            Some(&b) => b,
            None => self.open_bucket(key),
        };
        info.retain_executors(|d| self.admits(d, origin_job));
        self.buckets[bucket].push(Queued {
            origin: origin_job,
            info,
        });
        self.peak_depth = self.peak_depth.max(self.queued.len());
    }

    /// Creates the bucket of a feasible set not seen before and indexes
    /// it under every device of the set.
    fn open_bucket(&mut self, key: Vec<usize>) -> usize {
        let b = self.buckets.len();
        self.buckets.push(Vec::new());
        for &d in &key {
            self.device_buckets.entry(d).or_default().push(b);
        }
        self.bucket_of.insert(key, b);
        b
    }

    /// Picks the best queued fill job for flat executor `device` under
    /// the active policy, or `None` if nothing queued is feasible there.
    /// "When a device completes a fill-job, the Scheduler chooses which
    /// job to submit to the device by choosing the job which maximizes
    /// the score" (§4.4). Ties break by earlier arrival, then lower id.
    pub fn pick_for(&mut self, device: usize, state: &SystemState) -> Option<JobInfo> {
        let buckets = self.device_buckets.get(&device)?;
        // (bucket, slot, score) of the best candidate so far.
        let mut best: Option<(usize, usize, f64)> = None;
        for &b in buckets {
            for (slot, q) in self.buckets[b].iter().enumerate() {
                if !self.admits(device, q.origin) {
                    continue;
                }
                let score = self.policy.score(&q.info, state, device);
                if best.is_none_or(|(bb, bs, bscore)| {
                    outranks(&q.info, score, &self.buckets[bb][bs].info, bscore)
                }) {
                    best = Some((b, slot, score));
                }
            }
        }
        let (b, slot, _) = best?;
        let Queued { origin, info } = self.buckets[b].swap_remove(slot);
        self.queued.remove(&info.id);
        if origin != self.owner[device] {
            self.cross_job_dispatches += 1;
        }
        Some(info)
    }

    /// Fill jobs currently waiting.
    pub fn queue_len(&self) -> usize {
        self.queued.len()
    }

    /// Deepest the queue has ever been.
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Dispatches that resumed a fill job on a different main job than it
    /// was evicted from.
    pub fn cross_job_dispatches(&self) -> u64 {
        self.cross_job_dispatches
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{Fifo, MakespanMin, ShortestJobFirst};
    use crate::scheduler::ExecutorSnapshot;
    use pipefill_sim_core::{SimDuration, SimTime};

    /// Two main jobs × two stages each: flat executors 0,1 belong to job
    /// 0 and 2,3 to job 1.
    fn queue(admits: [bool; 2]) -> GlobalFillQueue {
        GlobalFillQueue::new(Box::new(Fifo), vec![0, 0, 1, 1], admits.to_vec())
    }

    fn info(id: u64, arrival_s: f64, feasible: &[usize]) -> JobInfo {
        let proc_times = (0..4)
            .map(|d| feasible.contains(&d).then(|| SimDuration::from_secs(30)))
            .collect();
        JobInfo::new(JobId(id), SimTime::from_secs_f64(arrival_s), proc_times)
    }

    #[test]
    fn admission_masks_foreign_devices() {
        let mut q = queue([true, false]);
        // Evicted from job 0, nominally feasible everywhere.
        q.requeue_from(0, info(1, 0.0, &[0, 1, 2, 3]));
        let state = SystemState::idle(SimTime::ZERO, 4);
        // Job 1 does not admit foreign work: its devices see nothing.
        assert!(q.pick_for(2, &state).is_none());
        assert!(q.pick_for(3, &state).is_none());
        // The origin job's own devices always remain feasible.
        assert_eq!(q.pick_for(0, &state).unwrap().id, JobId(1));
    }

    #[test]
    fn cross_job_dispatches_are_counted() {
        let mut q = queue([true, true]);
        q.requeue_from(0, info(1, 0.0, &[0, 2]));
        q.requeue_from(1, info(2, 1.0, &[2, 3]));
        let state = SystemState::idle(SimTime::ZERO, 4);
        // Device 2 (job 1) resumes the job evicted from job 0: cross-job.
        assert_eq!(q.pick_for(2, &state).unwrap().id, JobId(1));
        assert_eq!(q.cross_job_dispatches(), 1);
        // Device 3 (job 1) resumes job 1's own eviction: local.
        assert_eq!(q.pick_for(3, &state).unwrap().id, JobId(2));
        assert_eq!(q.cross_job_dispatches(), 1);
        assert_eq!(q.peak_depth(), 2);
        assert_eq!(q.queue_len(), 0);
    }

    #[test]
    fn locality_is_encoded_in_proc_times() {
        let mut q = queue([true, true]);
        // Only feasible on its origin stage (flat 1).
        q.requeue_from(0, info(7, 0.0, &[1]));
        let state = SystemState::idle(SimTime::ZERO, 4);
        assert!(q.pick_for(0, &state).is_none());
        assert!(q.pick_for(2, &state).is_none());
        assert_eq!(q.pick_for(1, &state).unwrap().id, JobId(7));
    }

    #[test]
    #[should_panic(expected = "re-enter")]
    fn double_requeue_panics() {
        let mut q = queue([true, true]);
        q.requeue_from(0, info(1, 0.0, &[0]));
        q.requeue_from(0, info(1, 0.0, &[0]));
    }

    #[test]
    #[should_panic(expected = "every flat executor")]
    fn short_proc_times_rejected() {
        let mut q = queue([true, true]);
        let short = JobInfo::new(
            JobId(1),
            SimTime::ZERO,
            vec![Some(SimDuration::from_secs(1))],
        );
        q.requeue_from(0, short);
    }

    #[test]
    #[should_panic(expected = "index a main job")]
    fn bad_owner_rejected() {
        let _ = GlobalFillQueue::new(Box::new(Fifo), vec![0, 2], vec![true, true]);
    }

    /// A one-pipeline queue over `n` executors, as the coarse backend
    /// builds it.
    fn single(policy: Box<dyn SchedulingPolicy>, n: usize) -> GlobalFillQueue {
        GlobalFillQueue::new(policy, vec![0; n], vec![true])
    }

    fn job(id: u64, arrival_s: f64, times: &[Option<u64>]) -> JobInfo {
        JobInfo::new(
            JobId(id),
            SimTime::from_secs_f64(arrival_s),
            times
                .iter()
                .map(|t| t.map(SimDuration::from_secs))
                .collect(),
        )
    }

    fn drain(q: &mut GlobalFillQueue, state: &SystemState) -> Vec<u64> {
        std::iter::from_fn(|| q.pick_for(0, state).map(|j| j.id.0)).collect()
    }

    #[test]
    fn sjf_prefers_short_jobs() {
        let mut q = single(Box::new(ShortestJobFirst), 1);
        q.requeue_from(0, job(1, 0.0, &[Some(100)]));
        q.requeue_from(0, job(2, 0.0, &[Some(10)]));
        q.requeue_from(0, job(3, 0.0, &[Some(50)]));
        let state = SystemState::idle(SimTime::ZERO, 1);
        assert_eq!(drain(&mut q, &state), vec![2, 3, 1]);
    }

    #[test]
    fn fifo_respects_arrival_order() {
        let mut q = single(Box::new(Fifo), 1);
        q.requeue_from(0, job(1, 5.0, &[Some(1)]));
        q.requeue_from(0, job(2, 1.0, &[Some(100)]));
        q.requeue_from(0, job(3, 3.0, &[Some(50)]));
        let state = SystemState::idle(SimTime::from_secs_f64(10.0), 1);
        assert_eq!(drain(&mut q, &state), vec![2, 3, 1]);
    }

    #[test]
    fn infeasible_jobs_are_skipped() {
        let mut q = single(Box::new(ShortestJobFirst), 2);
        q.requeue_from(0, job(1, 0.0, &[None, Some(10)]));
        q.requeue_from(0, job(2, 0.0, &[Some(20), Some(20)]));
        let state = SystemState::idle(SimTime::ZERO, 2);
        // Executor 0 can only run job 2.
        assert_eq!(q.pick_for(0, &state).unwrap().id, JobId(2));
        // Job 1 remains for executor 1.
        assert_eq!(q.pick_for(1, &state).unwrap().id, JobId(1));
        assert!(q.pick_for(0, &state).is_none());
    }

    #[test]
    fn makespan_policy_balances_executors() {
        // Executor 0 has a long queue remaining; both jobs feasible on
        // both. The makespan policy scores a job on executor i by
        // 1/max(proc[i], max_rem): when filling executor 1 (idle) it
        // should prefer the job whose own processing time stays under the
        // current makespan rather than extending it.
        let mut q = single(Box::new(MakespanMin), 2);
        q.requeue_from(0, job(1, 0.0, &[Some(200), Some(200)])); // would extend makespan
        q.requeue_from(0, job(2, 0.0, &[Some(90), Some(90)])); // fits under it
        let state = SystemState {
            now: SimTime::ZERO,
            executors: vec![
                ExecutorSnapshot {
                    remaining: SimDuration::from_secs(100),
                },
                ExecutorSnapshot {
                    remaining: SimDuration::ZERO,
                },
            ],
        };
        assert_eq!(q.pick_for(1, &state).unwrap().id, JobId(2));
    }

    #[test]
    fn ties_break_by_arrival_then_id() {
        let mut q = single(Box::new(ShortestJobFirst), 1);
        q.requeue_from(0, job(7, 2.0, &[Some(10)]));
        q.requeue_from(0, job(3, 1.0, &[Some(10)]));
        q.requeue_from(0, job(5, 1.0, &[Some(10)]));
        let state = SystemState::idle(SimTime::from_secs_f64(5.0), 1);
        assert_eq!(drain(&mut q, &state), vec![3, 5, 7]);
    }

    #[test]
    fn requeued_jobs_keep_arrival_priority() {
        let mut q = single(Box::new(Fifo), 1);
        q.requeue_from(0, job(1, 0.0, &[Some(10)]));
        q.requeue_from(0, job(2, 5.0, &[Some(10)]));
        let state = SystemState::idle(SimTime::from_secs_f64(20.0), 1);
        // Job 1 dispatches, gets evicted, and re-enters with its original
        // arrival — FIFO must still run it before the later job 2.
        let evicted = q.pick_for(0, &state).unwrap();
        assert_eq!(evicted.id, JobId(1));
        q.requeue_from(0, evicted);
        assert_eq!(q.queue_len(), 2);
        assert_eq!(q.pick_for(0, &state).unwrap().id, JobId(1));
    }

    #[test]
    fn empty_queue_yields_nothing() {
        let mut q = single(Box::new(Fifo), 1);
        let state = SystemState::idle(SimTime::ZERO, 1);
        assert!(q.pick_for(0, &state).is_none());
        assert_eq!(q.queue_len(), 0);
    }
}
