//! The one per-stage plan model.
//!
//! PipeFill fits fill work to each stage's measured bubbles: for a fill-job
//! type `(model, kind)` on stage `s`, the executor chooses the
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
//! The executor's profiles depend on (model, kind, configuration,
//! device) and never on the bubbles, so they live one level up, in a
//! [`ProfileMenus`] table keyed by (model, kind, device). The
//! pipeline-filling engine builds one table over the stage devices of all
//! its jobs and shares it, through an `Arc`, with every shape's
//! `StagePlans`; a homogeneous `StagePlans` owns a one-device table. A
//! plan packs its stage's windows against the shared menu
//! ([`plan_best_of`]), and an exclusive throughput is the best isolated
//! throughput over the same menu ([`exclusive_best_of`]). Menus, plans
//! and throughputs are all made on first request and cached for the life
//! of the value, so building either costs no profiling or planning.

use std::sync::{Arc, OnceLock};

use pipefill_device::DeviceSpec;
use pipefill_executor::plan::BubbleSlot;
use pipefill_executor::{
    exclusive_best_of, plan_best_of, profile_menu, ExecutionPlan, ExecutorConfig, JobProfile,
};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::{BubbleWindow, EngineTimeline};

/// Fill-job types `(model, kind)` a table has room for.
const JOB_TYPES: usize = ModelId::ALL.len() * 2;

/// Dense index of a job type's row in a table `width` entries wide.
fn row(model: ModelId, kind: JobKind, width: usize) -> usize {
    (model as usize * 2 + kind as usize) * width
}

/// One fill-job type's profile menu on one device.
#[derive(Debug)]
struct Menu {
    profiles: Vec<JobProfile>,
    /// Best isolated throughput over the profiles that fit the device's
    /// HBM; `None` if none does.
    exclusive: Option<f64>,
}

/// The executor's profile menu of every fill-job type on each of a set of
/// devices. Each (model, kind, device) menu is profiled on first request,
/// once for every [`StagePlans`] sharing the table. See the module docs.
#[derive(Debug)]
pub struct ProfileMenus {
    /// Distinct devices in first-seen order: a menu's column.
    devices: Vec<DeviceSpec>,
    /// Menu per (job type, device).
    menus: Vec<OnceLock<Menu>>,
}

impl ProfileMenus {
    /// An empty table over the distinct devices among `devices`.
    pub fn new<'a>(devices: impl IntoIterator<Item = &'a DeviceSpec>) -> Self {
        let mut distinct: Vec<DeviceSpec> = Vec::new();
        for device in devices {
            if !distinct.contains(device) {
                distinct.push(device.clone());
            }
        }
        ProfileMenus {
            menus: (0..JOB_TYPES * distinct.len())
                .map(|_| OnceLock::new())
                .collect(),
            devices: distinct,
        }
    }

    /// `device`'s column in the table.
    ///
    /// # Panics
    ///
    /// Panics if the table was not built over `device`.
    fn column(&self, device: &DeviceSpec) -> usize {
        self.devices
            .iter()
            .position(|d| d == device)
            .unwrap_or_else(|| panic!("no profile menus for device {}", device.name))
    }

    /// The menu of a `(model, kind)` fill job on the device in `column`.
    fn menu(&self, model: ModelId, kind: JobKind, column: usize) -> &Menu {
        self.menus[row(model, kind, self.devices.len()) + column].get_or_init(|| {
            let device = &self.devices[column];
            let profiles = profile_menu(&model.build(), kind, device);
            let exclusive = exclusive_best_of(&profiles, device.hbm).map(|(t, _)| t);
            Menu {
                profiles,
                exclusive,
            }
        })
    }

    /// Menus profiled so far.
    #[cfg(test)]
    fn built(&self) -> usize {
        self.menus.iter().filter(|m| m.get().is_some()).count()
    }
}

/// Fill plans and exclusive throughputs of every fill-job type on every
/// stage of one pipeline. See the module docs.
#[derive(Debug)]
pub struct StagePlans {
    windows: Vec<Vec<BubbleWindow>>,
    /// The same windows as `(duration, free_memory)` planner slots.
    slots: Vec<Vec<BubbleSlot>>,
    /// Each stage's device, as its column in `menus`.
    columns: Vec<usize>,
    menus: Arc<ProfileMenus>,
    executor: ExecutorConfig,
    /// Plan per (job type, stage); `None` records "does not fit". Plans
    /// are `Arc`s, so binding one to an executor is a refcount bump.
    plans: Vec<OnceLock<Option<Arc<ExecutionPlan>>>>,
}

impl StagePlans {
    /// Plans over `windows[s]` on `devices[s]` for every stage `s`,
    /// profiling through `menus`.
    ///
    /// # Panics
    ///
    /// Panics if `windows` and `devices` differ in length, or if `menus`
    /// was not built over every device in `devices`.
    pub fn new(
        windows: Vec<Vec<BubbleWindow>>,
        devices: &[DeviceSpec],
        executor: ExecutorConfig,
        menus: Arc<ProfileMenus>,
    ) -> Self {
        let p = windows.len();
        assert_eq!(devices.len(), p, "one device per stage");
        let slots = windows
            .iter()
            .map(|ws| ws.iter().map(|w| (w.duration, w.free_memory)).collect())
            .collect();
        StagePlans {
            windows,
            slots,
            columns: devices.iter().map(|d| menus.column(d)).collect(),
            menus,
            executor,
            plans: (0..JOB_TYPES * p).map(|_| OnceLock::new()).collect(),
        }
    }

    /// Plans over each stage's fillable windows in `timeline`, with
    /// `device` on every stage, on a table of its own.
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
            &vec![device.clone(); p],
            executor,
            Arc::new(ProfileMenus::new([device])),
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

    /// The best plan of a `(model, kind)` fill job on `stage`, or `None`
    /// if no configuration fits its windows.
    pub fn plan(&self, model: ModelId, kind: JobKind, stage: usize) -> Option<&Arc<ExecutionPlan>> {
        let slots = &self.slots[stage];
        self.plans[row(model, kind, self.stages()) + stage]
            .get_or_init(|| {
                if slots.is_empty() {
                    return None;
                }
                let menu = self.menus.menu(model, kind, self.columns[stage]);
                plan_best_of(&menu.profiles, slots, &self.executor)
                    .ok()
                    .map(Arc::new)
            })
            .as_ref()
    }

    /// Exclusive throughput (samples per second on an idle GPU) of a
    /// `(model, kind)` fill job on `stage`'s device, or `None` if no
    /// configuration fits the device at all.
    pub fn throughput(&self, model: ModelId, kind: JobKind, stage: usize) -> Option<f64> {
        self.menus.menu(model, kind, self.columns[stage]).exclusive
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::experiments::characterization::fig7_job_types;
    use pipefill_executor::{exclusive_throughput, plan_best, FillJobSpec};
    use pipefill_pipeline::{MainJobSpec, ScheduleKind};

    /// `timeline`'s fillable windows, stage by stage.
    fn windows_of(timeline: &EngineTimeline) -> Vec<Vec<BubbleWindow>> {
        timeline
            .stages
            .iter()
            .map(|s| s.fillable_windows())
            .collect()
    }

    /// What a cold `plan_best` plans for a `(model, kind)` job.
    fn direct_plan(
        model: ModelId,
        kind: JobKind,
        slots: &[BubbleSlot],
        device: &DeviceSpec,
        exec: &ExecutorConfig,
    ) -> Option<ExecutionPlan> {
        let probe = FillJobSpec::new(u64::MAX, model, kind, u64::MAX / 2);
        plan_best(&probe, slots, device, exec).ok()
    }

    /// What a cold `exclusive_throughput` reports for a `(model, kind)` job.
    fn direct_throughput(model: ModelId, kind: JobKind, device: &DeviceSpec) -> Option<f64> {
        exclusive_throughput(&model.build(), kind, device, &FillJobSpec::BATCH_SIZES).map(|t| t.0)
    }

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
                    assert_eq!(
                        plans.plan(model, kind, s).map(|p| &**p),
                        direct_plan(model, kind, &slots, &main.device, &exec).as_ref(),
                        "{schedule} stage {s} {model} {kind}"
                    );
                }
            }
        }
    }

    #[test]
    fn shapes_sharing_a_mixed_device_table_plan_like_plan_best() {
        // Two shapes of different schedules, V100 and H100 interleaved in
        // opposite orders, on one table: each cell must still be its own
        // stage's cold `plan_best` and `exclusive_throughput`, so a menu
        // keyed by the wrong device or a plan read off the wrong shape
        // shows.
        let exec = ExecutorConfig::default();
        let (v100, h100) = (DeviceSpec::v100(), DeviceSpec::h100());
        let shapes: Vec<(Vec<Vec<BubbleWindow>>, Vec<DeviceSpec>)> =
            [ScheduleKind::GPipe, ScheduleKind::OneFOneB]
                .into_iter()
                .enumerate()
                .map(|(i, schedule)| {
                    let windows =
                        windows_of(&MainJobSpec::physical_5b(8, schedule).engine_timeline());
                    let devices = (0..windows.len())
                        .map(|s| {
                            if (s + i) % 2 == 0 {
                                v100.clone()
                            } else {
                                h100.clone()
                            }
                        })
                        .collect();
                    (windows, devices)
                })
                .collect();
        let menus = Arc::new(ProfileMenus::new(shapes.iter().flat_map(|(_, d)| d)));
        let plans: Vec<StagePlans> = shapes
            .iter()
            .map(|(w, d)| StagePlans::new(w.clone(), d, exec, Arc::clone(&menus)))
            .collect();
        for (i, ((_, devices), plans)) in shapes.iter().zip(&plans).enumerate() {
            for (s, device) in devices.iter().enumerate() {
                for (model, kind) in fig7_job_types() {
                    let at = format!("shape {i} stage {s} {model} {kind}");
                    assert_eq!(
                        plans.plan(model, kind, s).map(|p| &**p),
                        direct_plan(model, kind, plans.slots(s), device, &exec).as_ref(),
                        "{at}"
                    );
                    assert_eq!(
                        plans.throughput(model, kind, s),
                        direct_throughput(model, kind, device),
                        "{at}"
                    );
                }
            }
        }
    }

    #[test]
    fn each_menu_is_profiled_once_per_table() {
        // Three shapes over three device generations on one table, every
        // stage asked for plans and throughputs twice: the table profiles
        // exactly the distinct (model, kind, device) triples touched.
        let exec = ExecutorConfig::default();
        let gens = [
            DeviceSpec::v100(),
            DeviceSpec::a100_40g(),
            DeviceSpec::h100(),
        ];
        let shapes: Vec<(Vec<Vec<BubbleWindow>>, Vec<DeviceSpec>)> = ScheduleKind::ALL
            .into_iter()
            .take(3)
            .enumerate()
            .map(|(i, schedule)| {
                let windows = windows_of(&MainJobSpec::physical_5b(8, schedule).engine_timeline());
                let devices = (0..windows.len())
                    .map(|s| gens[(s / 2 + i) % 2].clone())
                    .collect();
                (windows, devices)
            })
            .collect();
        let menus = Arc::new(ProfileMenus::new(gens.iter()));
        let plans: Vec<StagePlans> = shapes
            .iter()
            .map(|(w, d)| StagePlans::new(w.clone(), d, exec, Arc::clone(&menus)))
            .collect();
        assert_eq!(menus.built(), 0, "building plans profiles nothing");
        let types = fig7_job_types();
        let mut touched = BTreeSet::new();
        for _ in 0..2 {
            for ((_, devices), plans) in shapes.iter().zip(&plans) {
                for (s, device) in devices.iter().enumerate() {
                    // A different slice of the job types per stage.
                    for &(model, kind) in types.iter().skip(s % 3).step_by(2) {
                        plans.plan(model, kind, s);
                        plans.throughput(model, kind, s);
                        touched.insert((model as usize, kind as usize, device.name.clone()));
                    }
                }
            }
            assert_eq!(menus.built(), touched.len());
        }
        // The H100 column was never asked for, so it holds no menus.
        assert!(touched.iter().all(|(_, _, name)| *name != gens[2].name));
    }

    #[test]
    fn a_stage_without_windows_fits_nothing() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut windows = windows_of(&main.engine_timeline());
        let empty = 3;
        windows[empty].clear();
        let p = windows.len();
        let plans = StagePlans::new(
            windows,
            &vec![main.device.clone(); p],
            ExecutorConfig::default(),
            Arc::new(ProfileMenus::new([&main.device])),
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
        let menus = Arc::new(ProfileMenus::new(&devices));
        let plans = StagePlans::new(
            vec![Vec::new(); 3],
            &devices,
            ExecutorConfig::default(),
            menus,
        );
        for (model, kind) in fig7_job_types() {
            // Stage 1 first, so a key shared with stage 0 would show.
            assert_eq!(
                plans.throughput(model, kind, 1),
                direct_throughput(model, kind, &h100),
                "{model} {kind}"
            );
            assert_eq!(
                plans.throughput(model, kind, 2),
                direct_throughput(model, kind, &v100),
                "{model} {kind}"
            );
            assert_eq!(
                plans.throughput(model, kind, 0),
                direct_throughput(model, kind, &v100),
                "{model} {kind}"
            );
        }
    }
}
