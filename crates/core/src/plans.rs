//! The one per-stage plan model.
//!
//! PipeFill fits fill work to each stage's measured bubbles: for a fill-job
//! type `(model, kind)` on stage `s`, the executor's `plan_best` chooses the
//! configuration and partitioning that fit the stage's fillable windows
//! (their durations and free memory) on the stage's device. That decision
//! depends only on the model, the kind, the windows, the device and the
//! executor tuning — never on how many samples a job processes — so every
//! fidelity reads it from one [`StagePlans`]:
//!
//! * the pipeline-filling engine holds one per pipeline shape, built from
//!   the shape's (possibly stretched, heterogeneous) windows and per-stage
//!   devices;
//! * [`CoarseBackend`](crate::CoarseBackend), the steady-state rates and
//!   the Fig. 7 characterization build one from the engine timeline with
//!   the main job's device on every stage ([`StagePlans::homogeneous`]).
//!
//! Plans and exclusive throughputs are profiled on first request and
//! cached for the life of the value, so building one costs no planning.

use std::sync::{Arc, OnceLock};

use pipefill_device::DeviceSpec;
use pipefill_executor::plan::BubbleSlot;
use pipefill_executor::{
    exclusive_throughput, plan_best, ExecutionPlan, ExecutorConfig, FillJobSpec,
};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::{BubbleWindow, EngineTimeline};

/// Fill-job types `(model, kind)` a table has room for.
const JOB_TYPES: usize = ModelId::ALL.len() * 2;

/// Fill plans and exclusive throughputs of every fill-job type on every
/// stage of one pipeline. See the module docs.
#[derive(Debug)]
pub struct StagePlans {
    windows: Vec<Vec<BubbleWindow>>,
    /// The same windows as `(duration, free_memory)` planner slots.
    slots: Vec<Vec<BubbleSlot>>,
    devices: Vec<DeviceSpec>,
    /// For each stage, the index of its device among the distinct
    /// devices in stage order: the throughput key, so a homogeneous
    /// pipeline profiles each (model, kind) once, not once per stage.
    device_class: Vec<usize>,
    executor: ExecutorConfig,
    /// Plan per (job type, stage); `None` records "does not fit". Plans
    /// are `Arc`s, so binding one to an executor is a refcount bump.
    plans: Vec<OnceLock<Option<Arc<ExecutionPlan>>>>,
    /// Exclusive throughput per (job type, device class).
    throughputs: Vec<OnceLock<Option<f64>>>,
}

impl StagePlans {
    /// Plans over `windows[s]` on `devices[s]` for every stage `s`.
    ///
    /// # Panics
    ///
    /// Panics if `windows` and `devices` differ in length.
    pub fn new(
        windows: Vec<Vec<BubbleWindow>>,
        devices: Vec<DeviceSpec>,
        executor: ExecutorConfig,
    ) -> Self {
        let p = windows.len();
        assert_eq!(devices.len(), p, "one device per stage");
        let slots = windows
            .iter()
            .map(|ws| ws.iter().map(|w| (w.duration, w.free_memory)).collect())
            .collect();
        let mut distinct: Vec<&DeviceSpec> = Vec::new();
        let device_class = devices
            .iter()
            .map(|d| {
                distinct.iter().position(|&c| c == d).unwrap_or_else(|| {
                    distinct.push(d);
                    distinct.len() - 1
                })
            })
            .collect();
        let classes = distinct.len();
        StagePlans {
            windows,
            slots,
            devices,
            device_class,
            executor,
            plans: (0..JOB_TYPES * p).map(|_| OnceLock::new()).collect(),
            throughputs: (0..JOB_TYPES * classes).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Plans over each stage's fillable windows in `timeline`, with
    /// `device` on every stage.
    pub fn homogeneous(
        timeline: &EngineTimeline,
        device: &DeviceSpec,
        executor: ExecutorConfig,
    ) -> Self {
        let p = timeline.stages.len();
        StagePlans::new(
            timeline
                .stages
                .iter()
                .map(|s| s.fillable_windows())
                .collect(),
            vec![device.clone(); p],
            executor,
        )
    }

    /// Pipeline depth.
    pub fn stages(&self) -> usize {
        self.windows.len()
    }

    /// `stage`'s fillable windows, in period order.
    pub fn windows(&self, stage: usize) -> &[BubbleWindow] {
        &self.windows[stage]
    }

    /// `stage`'s windows as `(duration, free_memory)` planner slots.
    pub fn slots(&self, stage: usize) -> &[BubbleSlot] {
        &self.slots[stage]
    }

    /// The executor tuning every plan is made under.
    pub fn executor(&self) -> &ExecutorConfig {
        &self.executor
    }

    /// Dense index of a job type's row in a table `width` entries wide.
    fn row(model: ModelId, kind: JobKind, width: usize) -> usize {
        (model as usize * 2 + kind as usize) * width
    }

    /// The best plan of a `(model, kind)` fill job on `stage`, or `None`
    /// if no configuration fits its windows.
    pub fn plan(&self, model: ModelId, kind: JobKind, stage: usize) -> Option<&Arc<ExecutionPlan>> {
        let slots = &self.slots[stage];
        let key = Self::row(model, kind, self.stages()) + stage;
        self.plans[key]
            .get_or_init(|| {
                if slots.is_empty() {
                    return None;
                }
                let probe = FillJobSpec::new(u64::MAX, model, kind, u64::MAX / 2);
                plan_best(&probe, slots, &self.devices[stage], &self.executor)
                    .ok()
                    .map(Arc::new)
            })
            .as_ref()
    }

    /// Exclusive throughput (samples per second on an idle GPU) of a
    /// `(model, kind)` fill job on `stage`'s device, or `None` if no
    /// configuration fits the device at all.
    pub fn throughput(&self, model: ModelId, kind: JobKind, stage: usize) -> Option<f64> {
        let device = &self.devices[stage];
        let classes = self.throughputs.len() / JOB_TYPES;
        let key = Self::row(model, kind, classes) + self.device_class[stage];
        *self.throughputs[key].get_or_init(|| {
            let graph = model.build();
            exclusive_throughput(&graph, kind, device, &FillJobSpec::default_batch_sizes())
                .map(|(t, _)| t)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::characterization::fig7_job_types;
    use pipefill_pipeline::{MainJobSpec, ScheduleKind};

    #[test]
    fn discriminants_index_the_catalog() {
        for (i, model) in ModelId::ALL.into_iter().enumerate() {
            assert_eq!(model as usize, i, "{model}");
        }
        assert_eq!(JobKind::Training as usize, 0);
        assert_eq!(JobKind::BatchInference as usize, 1);
    }

    #[test]
    fn plans_equal_a_direct_plan_best_under_every_schedule() {
        let exec = ExecutorConfig::default();
        for schedule in ScheduleKind::ALL {
            let main = MainJobSpec::physical_5b(8, schedule);
            let timeline = main.engine_timeline();
            let plans = StagePlans::homogeneous(&timeline, &main.device, exec);
            assert_eq!(plans.stages(), timeline.stages.len());
            for (s, stage) in timeline.stages.iter().enumerate() {
                let slots: Vec<BubbleSlot> = stage
                    .fillable_windows()
                    .iter()
                    .map(|w| (w.duration, w.free_memory))
                    .collect();
                assert_eq!(plans.slots(s), slots.as_slice(), "{schedule} stage {s}");
                for (model, kind) in fig7_job_types() {
                    let probe = FillJobSpec::new(u64::MAX, model, kind, u64::MAX / 2);
                    let direct = plan_best(&probe, &slots, &main.device, &exec).ok();
                    assert_eq!(
                        plans.plan(model, kind, s).map(|p| &**p),
                        direct.as_ref(),
                        "{schedule} stage {s} {model} {kind}"
                    );
                }
            }
        }
    }

    #[test]
    fn a_stage_without_windows_fits_nothing() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let timeline = main.engine_timeline();
        let mut windows: Vec<Vec<BubbleWindow>> = timeline
            .stages
            .iter()
            .map(|s| s.fillable_windows())
            .collect();
        let empty = 3;
        windows[empty].clear();
        let p = windows.len();
        let plans = StagePlans::new(
            windows,
            vec![main.device.clone(); p],
            ExecutorConfig::default(),
        );
        let mut fitted = 0;
        for (model, kind) in fig7_job_types() {
            assert!(plans.plan(model, kind, empty).is_none(), "{model} {kind}");
            fitted += [empty - 1, empty + 1]
                .iter()
                .filter(|&&s| plans.plan(model, kind, s).is_some())
                .count();
        }
        // The neighbours keep their windows, so the empty stage's `None`
        // is its own and not a mis-indexed neighbour's.
        assert!(fitted > 0);
    }

    #[test]
    fn throughputs_are_keyed_by_each_stage_device() {
        let (v100, h100) = (DeviceSpec::v100(), DeviceSpec::h100());
        let devices = vec![v100.clone(), h100.clone(), v100.clone()];
        let plans = StagePlans::new(vec![Vec::new(); 3], devices, ExecutorConfig::default());
        let batches = FillJobSpec::default_batch_sizes();
        for (model, kind) in fig7_job_types() {
            let graph = model.build();
            let direct =
                |d: &DeviceSpec| exclusive_throughput(&graph, kind, d, &batches).map(|t| t.0);
            // Stage 1 first, so a key shared with stage 0 would show.
            assert_eq!(
                plans.throughput(model, kind, 1),
                direct(&h100),
                "{model} {kind}"
            );
            assert_eq!(
                plans.throughput(model, kind, 2),
                direct(&v100),
                "{model} {kind}"
            );
            assert_eq!(
                plans.throughput(model, kind, 0),
                direct(&v100),
                "{model} {kind}"
            );
        }
    }
}
