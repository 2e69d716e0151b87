//! Per-layer timings taken from outside each layer: every function here
//! calls one layer's public API in a loop at an operating point the
//! workload's own run recorded, and returns host time per call.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pipefill_core::{ClusterEvent, PolicyKind};
use pipefill_device::Bytes;
use pipefill_executor::{
    plan_best, ExecutionPlan, ExecutorConfig, FillJobExecutor, FillJobSpec, JobId,
};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::MainJobSpec;
use pipefill_scheduler::{GlobalFillQueue, JobInfo, SystemState};
use pipefill_sim_core::{EventQueue, SimDuration, SimTime};
use pipefill_trace::ModelMix;

use crate::mix_seed;

/// Calls `f` in batches of `batch` until `budget` has passed; returns
/// host nanoseconds per call.
fn per_call(budget: Duration, batch: u64, mut f: impl FnMut()) -> f64 {
    let start = Instant::now();
    let mut calls = 0u64;
    while calls == 0 || start.elapsed() < budget {
        for _ in 0..batch {
            f();
        }
        calls += batch;
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// `EventQueue` push+pop pair at a steady `depth` of pending events,
/// with firing times spread like a simulation's (each popped event
/// re-arms a little later).
pub fn queue_push_pop_ns(depth: usize, seed: u64, budget: Duration) -> f64 {
    let depth = depth.max(1);
    let mut state = mix_seed(seed, 0x51);
    let mut next_delay = move || {
        state = mix_seed(state, 1);
        SimDuration::from_nanos(1 + state % 1_000_000)
    };
    let mut queue = EventQueue::with_capacity(depth + 1);
    for stage in 0..depth {
        queue.push(
            SimTime::ZERO + next_delay(),
            ClusterEvent::StageBubbles { stage },
        );
    }
    per_call(budget, 1024, || {
        if let Some((at, event)) = queue.pop() {
            queue.push(at + next_delay(), black_box(event));
        }
    })
}

/// The bubble slots of the first stage of `main` that has any.
fn first_slots(main: &MainJobSpec) -> Vec<(SimDuration, Bytes)> {
    main.engine_timeline()
        .stages
        .iter()
        .map(|s| {
            s.fillable_windows()
                .iter()
                .map(|w| (w.duration, w.free_memory))
                .collect::<Vec<_>>()
        })
        .find(|slots| !slots.is_empty())
        .unwrap_or_default()
}

/// Every `(model, kind)` fill-job type the mix draws, in mix order.
fn mix_types(mix: &ModelMix) -> Vec<(ModelId, JobKind)> {
    let mut types = Vec::new();
    for &(model, weight) in mix.weights() {
        if weight == 0.0 {
            continue;
        }
        if model.trainable_as_fill_job() {
            types.push((model, JobKind::Training));
        }
        types.push((model, JobKind::BatchInference));
    }
    types
}

/// A fill-job type bound to its plan for one stage's bubble slots.
pub struct BoundPlan {
    plan: ExecutionPlan,
    slots: usize,
    model: ModelId,
    kind: JobKind,
}

/// What the executor timings need: `plan_best`'s cost and the first
/// feasible plan it found.
pub struct ExecutorPoint {
    /// Mean `plan_best` time per fill-job type, in microseconds.
    pub plan_best_us: f64,
    /// The first feasible plan, if any type fits.
    pub plan: Option<BoundPlan>,
}

/// Times `plan_best` for each fill-job type of `mix` on `main`'s first
/// bubble-bearing stage.
pub fn plan_best_point(main: &MainJobSpec, exec: &ExecutorConfig, mix: &ModelMix) -> ExecutorPoint {
    let slots = first_slots(main);
    let mut total = Duration::ZERO;
    let mut calls = 0u32;
    let mut plan = None;
    for (model, kind) in mix_types(mix) {
        let probe = FillJobSpec::new(u64::MAX, model, kind, u64::MAX / 2);
        let start = Instant::now();
        let result = plan_best(black_box(&probe), &slots, &main.device, exec);
        total += start.elapsed();
        calls += 1;
        if plan.is_none() {
            plan = result.ok().map(|plan| BoundPlan {
                plan,
                slots: slots.len(),
                model,
                kind,
            });
        }
    }
    ExecutorPoint {
        plan_best_us: if calls == 0 {
            0.0
        } else {
            total.as_secs_f64() * 1e6 / f64::from(calls)
        },
        plan,
    }
}

fn executor(bound: &BoundPlan) -> FillJobExecutor {
    let spec = FillJobSpec::new(1, bound.model, bound.kind, u64::MAX / 2);
    FillJobExecutor::new(spec, bound.plan.clone())
}

/// `FillJobExecutor::on_bubble` cycling the plan's bubble slots in the
/// order the engine signals them.
pub fn on_bubble_ns(bound: &BoundPlan, budget: Duration) -> f64 {
    let mut exec = executor(bound);
    let start = exec.checkpoint();
    let mut slot = 0usize;
    per_call(budget, 1024, || {
        black_box(exec.on_bubble(slot));
        slot = (slot + 1) % bound.slots.max(1);
        if exec.is_complete() {
            exec.restore(start);
        }
    })
}

/// A `checkpoint` + `restore` pair: what an eviction does to the
/// executor it rewinds.
pub fn checkpoint_restore_ns(bound: &BoundPlan, budget: Duration) -> f64 {
    let mut exec = executor(bound);
    exec.on_bubble(0);
    per_call(budget, 1024, || {
        let ckpt = exec.checkpoint();
        exec.restore(black_box(ckpt));
    })
}

/// The fleet shape the global-queue timings replay.
pub struct FleetLayout {
    /// Owning main job per flat device.
    pub owner: Vec<usize>,
    /// Whether each main job admits foreign fill work.
    pub admits_foreign: Vec<bool>,
    /// Flat devices where an evicted job of job 0's shape class and
    /// stage 0 is feasible (its locality set).
    pub feasible: Vec<usize>,
    /// The fleet's queue policy.
    pub policy: PolicyKind,
}

/// `GlobalFillQueue::requeue_from` and `pick_for` at a steady `depth` of
/// queued jobs, each job's feasibility spanning every flat device the way
/// an eviction builds it. Returns `(requeue_ns, pick_ns)`.
pub fn global_queue_ns(layout: &FleetLayout, depth: usize, budget: Duration) -> (f64, f64) {
    const BATCH: usize = 16;
    let devices = layout.owner.len();
    let mut proc_times = vec![None; devices];
    for &d in &layout.feasible {
        proc_times[d] = Some(SimDuration::from_secs(60));
    }
    let picker = layout.feasible.first().copied().unwrap_or(0);
    let info = |id: u64| JobInfo::new(JobId(id), SimTime::from_nanos(id), proc_times.clone());
    let mut queue = GlobalFillQueue::new(
        layout.policy.build(),
        layout.owner.clone(),
        layout.admits_foreign.clone(),
    );
    let mut next_id = 0u64;
    for _ in 0..depth {
        queue.requeue_from(0, info(next_id));
        next_id += 1;
    }
    let state = SystemState::idle(SimTime::ZERO, devices);
    let (mut requeue, mut pick, mut ops) = (Duration::ZERO, Duration::ZERO, 0u64);
    let start = Instant::now();
    while ops == 0 || start.elapsed() < budget {
        let batch: Vec<JobInfo> = (0..BATCH as u64).map(|i| info(next_id + i)).collect();
        next_id += BATCH as u64;
        let t = Instant::now();
        for job in batch {
            queue.requeue_from(0, job);
        }
        requeue += t.elapsed();
        let t = Instant::now();
        for _ in 0..BATCH {
            black_box(queue.pick_for(picker, &state));
        }
        pick += t.elapsed();
        ops += BATCH as u64;
    }
    (
        requeue.as_nanos() as f64 / ops as f64,
        pick.as_nanos() as f64 / ops as f64,
    )
}

/// Mean `MainJobSpec::engine_timeline` time per shape, in microseconds.
pub fn engine_timeline_us(shapes: &[MainJobSpec]) -> f64 {
    if shapes.is_empty() {
        return 0.0;
    }
    let start = Instant::now();
    for shape in shapes {
        black_box(shape.engine_timeline());
    }
    start.elapsed().as_secs_f64() * 1e6 / shapes.len() as f64
}

/// A log-linear histogram of nanosecond samples: exact below 64 ns and
/// within 1/32 of the value above, in constant memory however many
/// steps a run dispatches.
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            counts: vec![0; 64 + 64 * 32],
            total: 0,
        }
    }
}

impl Histogram {
    fn bucket(ns: u64) -> usize {
        if ns < 64 {
            return ns as usize;
        }
        let shift = 64 - ns.leading_zeros() - 6;
        64 + (shift as usize - 1) * 32 + ((ns >> shift) as usize - 32)
    }

    fn midpoint(bucket: usize) -> f64 {
        if bucket < 64 {
            return bucket as f64;
        }
        let shift = (bucket - 64) / 32 + 1;
        let low = ((bucket - 64) % 32 + 32) << shift;
        low as f64 + (1u64 << shift) as f64 / 2.0
    }

    /// Records one sample.
    pub fn record(&mut self, ns: u64) {
        self.counts[Self::bucket(ns)] += 1;
        self.total += 1;
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Histogram) {
        for (count, add) in self.counts.iter_mut().zip(&other.counts) {
            *count += add;
        }
        self.total += other.total;
    }

    /// Samples recorded.
    pub fn len(&self) -> u64 {
        self.total
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The `q`-quantile (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Self::midpoint(bucket);
            }
        }
        unreachable!("rank is at most the sample count")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_stay_within_bucket_precision() {
        let mut h = Histogram::default();
        for ns in 1..=10_000u64 {
            h.record(ns);
        }
        assert_eq!(h.len(), 10_000);
        for (q, exact) in [(0.5, 5_000.0), (0.99, 9_900.0)] {
            let got = h.quantile(q);
            assert!((got - exact).abs() / exact < 1.0 / 32.0, "q{q}: {got}");
        }
        assert_eq!(Histogram::default().quantile(0.5), 0.0);
        let mut small = Histogram::default();
        small.record(7);
        assert_eq!(small.quantile(0.99), 7.0);
        let mut huge = Histogram::default();
        huge.record(u64::MAX);
        assert!(huge.quantile(0.5) > 1e19);
    }
}
