//! The per-device fill-job executor state machine.
//!
//! The cluster simulator drives one of these per device: every time the
//! pipeline engine signals a fillable bubble ("bubble synchronization",
//! §4.3), [`FillJobExecutor::on_bubble`] executes the next partition of
//! the plan and reports what ran. The executor also answers the progress
//! queries the Scheduler needs ("the Scheduler knows how long the
//! currently executing fill-jobs will take to complete", §4.4).

use std::sync::Arc;

use pipefill_sim_core::SimDuration;

use crate::job::FillJobSpec;
use crate::plan::ExecutionPlan;

/// What one bubble's execution accomplished.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BubbleExecution {
    /// Bubble time consumed (partition duration; context-switch cost was
    /// already budgeted at planning time).
    pub time_used: SimDuration,
    /// FLOPs executed.
    pub flops: f64,
    /// Samples newly completed.
    pub samples_completed: u64,
    /// True if the job reached its sample target during this bubble.
    pub job_finished: bool,
}

impl BubbleExecution {
    /// An execution that did nothing (job already complete or partition
    /// skipped).
    pub fn idle() -> Self {
        BubbleExecution {
            time_used: SimDuration::ZERO,
            flops: 0.0,
            samples_completed: 0,
            job_finished: false,
        }
    }
}

/// A serialized executor position: everything needed to resume a fill job
/// after its device is lost (FreeRide-style preemption — side jobs must
/// survive eviction). Cheap to take (four scalars; the weights live in a
/// host-side checkpoint whose reload cost the simulation charges
/// separately at restart).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExecutorCheckpoint {
    cursor: usize,
    samples_done: u64,
    flops_done: f64,
    bubble_time_used: SimDuration,
}

/// Executes one fill job against one device's bubble cycle.
///
/// The plan is held behind an [`Arc`] so that the many executors a cluster
/// simulation spawns for the same (model, kind, stage) shape share one
/// profiled plan instead of deep-copying it per drawn job.
#[derive(Debug, Clone, PartialEq)]
pub struct FillJobExecutor {
    job: FillJobSpec,
    plan: Arc<ExecutionPlan>,
    cursor: usize,
    samples_done: u64,
    flops_done: f64,
    bubble_time_used: SimDuration,
}

impl FillJobExecutor {
    /// Binds a job to its chosen plan. Accepts either a bare
    /// [`ExecutionPlan`] or an already-shared `Arc<ExecutionPlan>`.
    pub fn new(job: FillJobSpec, plan: impl Into<Arc<ExecutionPlan>>) -> Self {
        FillJobExecutor {
            job,
            plan: plan.into(),
            cursor: 0,
            samples_done: 0,
            flops_done: 0.0,
            bubble_time_used: SimDuration::ZERO,
        }
    }

    /// The job being executed.
    pub fn job(&self) -> &FillJobSpec {
        &self.job
    }

    /// The plan being followed.
    pub fn plan(&self) -> &ExecutionPlan {
        &self.plan
    }

    /// The shared handle to the plan being followed. Two executors whose
    /// handles are [`Arc::ptr_eq`] are provably running the same profiled
    /// plan — steady-state detection uses the pointer as a cheap plan
    /// identity.
    pub fn plan_handle(&self) -> &Arc<ExecutionPlan> {
        &self.plan
    }

    /// Shifts the job's id forward. Steady-state fast-forward advances
    /// ids in closed form when it skips whole cycles: the executor's
    /// behavior never depends on the id, but the id this job eventually
    /// completes under must reflect the draws the skip accounted for.
    pub fn advance_job_id(&mut self, delta: u64) {
        self.job.id.0 += delta;
    }

    /// Position in the plan's partition sequence (total partitions
    /// executed so far; the pending partition is `cursor % partitions`).
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Samples completed so far (clamped to the job's target).
    pub fn samples_done(&self) -> u64 {
        self.samples_done
    }

    /// FLOPs executed so far.
    pub fn flops_done(&self) -> f64 {
        self.flops_done
    }

    /// Total bubble time consumed so far.
    pub fn bubble_time_used(&self) -> SimDuration {
        self.bubble_time_used
    }

    /// True once the sample target is reached.
    pub fn is_complete(&self) -> bool {
        self.samples_done >= self.job.samples
    }

    /// Peak memory of the partition that would run if `slot_index` were
    /// offered now — what the executor requests under its memory cap.
    /// `None` if the job is complete or the pending partition targets a
    /// different slot.
    pub fn pending_memory(&self, slot_index: usize) -> Option<pipefill_device::Bytes> {
        if self.is_complete() {
            return None;
        }
        let part = &self.plan.partitions[self.cursor % self.plan.partitions.len()];
        (part.bubble_index == slot_index).then_some(part.memory)
    }

    /// Executes the next partition of the plan (the engine signalled
    /// fillable bubble slot `slot_index` of the cycle). Partitions are
    /// sized for specific bubble slots, so if the pending partition was
    /// planned for a different slot — e.g. the job started mid-cycle —
    /// the executor waits (returns an idle execution) rather than
    /// overrunning a bubble it was not sized for. Calling after
    /// completion is benign and returns an idle execution.
    pub fn on_bubble(&mut self, slot_index: usize) -> BubbleExecution {
        if self.is_complete() {
            return BubbleExecution::idle();
        }
        let part = &self.plan.partitions[self.cursor % self.plan.partitions.len()];
        if part.bubble_index != slot_index {
            return BubbleExecution::idle();
        }
        self.cursor += 1;

        let before = self.samples_done;
        let newly = part.iterations_completed * self.plan.config.batch_size as u64;
        self.samples_done = (before + newly).min(self.job.samples);
        self.flops_done += part.flops;
        self.bubble_time_used += part.duration;

        BubbleExecution {
            time_used: part.duration,
            flops: part.flops,
            samples_completed: self.samples_done - before,
            job_finished: self.is_complete(),
        }
    }

    /// Snapshots the current position. Restoring the snapshot with
    /// [`FillJobExecutor::restore`] rewinds the executor to this point;
    /// progress made after the snapshot is lost — exactly the accounting a
    /// failure-injecting simulation needs for work lost to eviction.
    pub fn checkpoint(&self) -> ExecutorCheckpoint {
        ExecutorCheckpoint {
            cursor: self.cursor,
            samples_done: self.samples_done,
            flops_done: self.flops_done,
            bubble_time_used: self.bubble_time_used,
        }
    }

    /// Rewinds to a previously taken [`checkpoint`](Self::checkpoint).
    ///
    /// # Panics
    ///
    /// Panics if the checkpoint lies *ahead* of the current position —
    /// that would fabricate progress out of thin air.
    pub fn restore(&mut self, ckpt: ExecutorCheckpoint) {
        assert!(
            ckpt.cursor <= self.cursor && ckpt.samples_done <= self.samples_done,
            "cannot restore a checkpoint from the future"
        );
        self.cursor = ckpt.cursor;
        self.samples_done = ckpt.samples_done;
        self.flops_done = ckpt.flops_done;
        self.bubble_time_used = ckpt.bubble_time_used;
    }

    /// Main-job iterations still needed to finish, assuming every future
    /// fillable bubble is delivered — the Scheduler's remaining-time
    /// estimate in iteration units.
    pub fn remaining_main_iterations(&self) -> u64 {
        if self.is_complete() {
            return 0;
        }
        let remaining = self.job.samples - self.samples_done;
        self.plan.main_iterations_for(remaining)
    }

    /// Average TFLOPS achieved over the bubble time actually used — the
    /// Fig. 7a metric for this job.
    pub fn tflops_during_execution(&self) -> f64 {
        let secs = self.bubble_time_used.as_secs_f64();
        if secs == 0.0 {
            0.0
        } else {
            self.flops_done / secs / 1e12
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExecutorConfig;
    use crate::plan::plan_best;
    use pipefill_device::{Bytes, DeviceSpec};
    use pipefill_model_zoo::{JobKind, ModelId};

    fn bubbles() -> Vec<(SimDuration, Bytes)> {
        vec![
            (SimDuration::from_millis(1900), Bytes::from_gib_f64(4.5)),
            (SimDuration::from_millis(1000), Bytes::from_gib_f64(4.5)),
        ]
    }

    fn executor_for(samples: u64) -> FillJobExecutor {
        let job = FillJobSpec::new(1, ModelId::BertBase, JobKind::BatchInference, samples);
        let plan = plan_best(
            &job,
            &bubbles(),
            &DeviceSpec::v100(),
            &ExecutorConfig::default(),
        )
        .unwrap();
        FillJobExecutor::new(job, plan)
    }

    /// Drives the executor through the two-slot bubble cycle in order.
    fn drive(ex: &mut FillJobExecutor, rounds: usize) {
        for i in 0..rounds {
            ex.on_bubble(i % 2);
        }
    }

    #[test]
    fn executes_to_completion() {
        let mut ex = executor_for(5_000);
        let mut guard = 0;
        while !ex.is_complete() {
            let r = ex.on_bubble(guard % 2);
            assert!(r.time_used > SimDuration::ZERO || r.samples_completed == 0);
            guard += 1;
            assert!(guard < 1_000_000, "executor never completed");
        }
        assert_eq!(ex.samples_done(), 5_000);
        assert!(ex.flops_done() > 0.0);
        assert!(ex.tflops_during_execution() > 0.0);
    }

    #[test]
    fn final_bubble_clamps_samples() {
        let mut ex = executor_for(10);
        let r = ex.on_bubble(0);
        // The first partition can complete far more than 10 samples, but
        // the count clamps at the job target.
        assert!(r.job_finished);
        assert_eq!(ex.samples_done(), 10);
    }

    #[test]
    fn wrong_slot_waits_instead_of_running() {
        let mut ex = executor_for(1_000_000);
        // The first pending partition targets slot 0; offering slot 1
        // must not execute anything.
        let r = ex.on_bubble(1);
        assert_eq!(r, BubbleExecution::idle());
        assert_eq!(ex.samples_done(), 0);
        let r = ex.on_bubble(0);
        assert!(r.time_used > SimDuration::ZERO);
    }

    #[test]
    fn partition_slots_are_respected_throughout() {
        let mut ex = executor_for(200_000);
        let partitions = ex.plan().partitions.clone();
        let mut executed = 0usize;
        for i in 0..50 {
            let slot = i % 2;
            let before = ex.bubble_time_used();
            let r = ex.on_bubble(slot);
            if r.time_used > SimDuration::ZERO {
                let part = &partitions[executed % partitions.len()];
                assert_eq!(part.bubble_index, slot, "partition ran in wrong slot");
                assert_eq!(ex.bubble_time_used(), before + part.duration);
                executed += 1;
            }
            if ex.is_complete() {
                break;
            }
        }
        assert!(executed > 0);
    }

    #[test]
    fn on_bubble_after_completion_is_idle() {
        let mut ex = executor_for(10);
        let _ = ex.on_bubble(0);
        assert!(ex.is_complete());
        let r = ex.on_bubble(0);
        assert_eq!(r, BubbleExecution::idle());
        assert_eq!(ex.remaining_main_iterations(), 0);
    }

    #[test]
    fn remaining_iterations_decrease_monotonically() {
        let mut ex = executor_for(100_000);
        let mut prev = ex.remaining_main_iterations();
        assert!(prev > 0);
        for i in 0..20 {
            ex.on_bubble(i % 2);
            let now = ex.remaining_main_iterations();
            assert!(now <= prev, "remaining went up: {prev} -> {now}");
            prev = now;
            if ex.is_complete() {
                break;
            }
        }
    }

    #[test]
    fn checkpoint_restore_rewinds_progress() {
        let mut ex = executor_for(200_000);
        drive(&mut ex, 2);
        let ckpt = ex.checkpoint();
        let at_ckpt = (ex.samples_done(), ex.flops_done(), ex.bubble_time_used());
        drive(&mut ex, 6);
        assert!(ex.flops_done() > at_ckpt.1, "no progress after checkpoint");
        ex.restore(ckpt);
        assert_eq!(
            (ex.samples_done(), ex.flops_done(), ex.bubble_time_used()),
            at_ckpt
        );
        // The rewound executor replays the same partitions it lost.
        let r = ex.on_bubble(0);
        assert!(r.time_used > SimDuration::ZERO || r.samples_completed == 0);
    }

    #[test]
    #[should_panic(expected = "checkpoint from the future")]
    fn restoring_a_future_checkpoint_panics() {
        let mut ex = executor_for(200_000);
        drive(&mut ex, 4);
        let future = ex.checkpoint();
        let mut fresh = executor_for(200_000);
        fresh.restore(future);
    }

    #[test]
    fn tflops_is_flops_over_bubble_time() {
        let mut ex = executor_for(100_000);
        drive(&mut ex, 4);
        let expect = ex.flops_done() / ex.bubble_time_used().as_secs_f64() / 1e12;
        assert!((ex.tflops_during_execution() - expect).abs() < 1e-9);
    }
}
