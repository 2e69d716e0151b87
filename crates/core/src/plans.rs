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
//! Neither the executor's profiles nor its plans belong to a shape, so
//! both live one level up, in a [`ProfileMenus`] table:
//!
//! * a profile depends on (model, kind, configuration, device) and never
//!   on the bubbles, so the table holds one menu per (model, kind,
//!   device);
//! * a plan depends on the fill-job type and the stage's *geometry*: its
//!   device, its `(duration, free_memory)` slots and the executor's
//!   `fill_fraction`, all compared as exact bits. The table holds one row
//!   of plan cells per distinct geometry, one cell per fill-job type.
//!
//! The pipeline-filling engine builds one table over the stage devices of
//! all its jobs and shares it, through an `Arc`, with every shape's
//! `StagePlans`; a homogeneous `StagePlans` owns a one-device table.
//! [`StagePlans::new`] interns its stages' geometries in the table once,
//! under one lock, and keeps a handle to each geometry's row, so stages of
//! any shape with equal geometries read one plan, and
//! [`StagePlans::plan`] takes no lock and hashes nothing once its cell is
//! packed. A plan searches the shared menu against its geometry's slots,
//! best-bound-first ([`PreparedMenu::plan_best_of`]), over the menu's
//! node durations scaled by the cold-start constant. Each menu holds its
//! [`PreparedMenu`], scaled once on the first plan request for it, so
//! only interning a geometry locks. An exclusive throughput is the best
//! isolated throughput over the same menu ([`exclusive_best_of`]) and
//! prepares nothing. Menus, prepared menus, plans and throughputs are all
//! made on first request and cached for the life of the table, so
//! building a `StagePlans` costs no profiling or planning.

use std::cmp::Ordering;
use std::collections::btree_map::{BTreeMap, Entry};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

use pipefill_device::DeviceSpec;
use pipefill_executor::plan::BubbleSlot;
use pipefill_executor::{
    exclusive_best_of, profile_menu, ExecutionPlan, ExecutorConfig, JobProfile, PreparedMenu,
};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::{BubbleWindow, EngineTimeline};

/// Fill-job types `(model, kind)` a table has room for.
const JOB_TYPES: usize = ModelId::ALL.len() * 2;

/// Dense index of a fill-job type.
fn job_type(model: ModelId, kind: JobKind) -> usize {
    model as usize * 2 + kind as usize
}

/// One fill-job type's profile menu on one device.
#[derive(Debug)]
struct Menu {
    profiles: Vec<JobProfile>,
    /// Best isolated throughput over the profiles that fit the device's
    /// HBM; `None` if none does.
    exclusive: Option<f64>,
    /// The profiles prepared for the plan search, on the first plan
    /// request.
    prepared: OnceLock<PreparedMenu>,
}

/// Folds `words` into one word that an interning map orders by first,
/// breaking ties on the exact key: equal keys must fold equal.
pub(crate) fn fingerprint(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0, |h, word| {
        (h.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// Everything a stage's plans depend on besides the fill-job type. Equal
/// means bit-for-bit equal, so two stages share plans only when the menu
/// search would be handed the same inputs.
#[derive(Debug, Clone)]
struct Geometry {
    /// The stage's device, as its column in the table.
    column: usize,
    slots: Vec<BubbleSlot>,
    executor: ExecutorConfig,
    /// A mix of the bits of [`Geometry::key`]. Geometries order by it
    /// first, so a table search mostly compares one word.
    fingerprint: u64,
}

impl Geometry {
    fn new(column: usize, slots: Vec<BubbleSlot>, executor: ExecutorConfig) -> Self {
        let mut geometry = Geometry {
            column,
            slots,
            executor,
            fingerprint: 0,
        };
        let (column, slots, fill_fraction) = geometry.key();
        geometry.fingerprint = fingerprint(
            std::iter::once(column as u64)
                .chain(slots.iter().flat_map(|&(d, m)| [d.as_nanos(), m.as_u64()]))
                .chain([fill_fraction]),
        );
        geometry
    }

    fn key(&self) -> (usize, &[BubbleSlot], u64) {
        (
            self.column,
            &self.slots,
            self.executor.fill_fraction.to_bits(),
        )
    }
}

impl PartialEq for Geometry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Geometry {}

impl PartialOrd for Geometry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Geometry {
    fn cmp(&self, other: &Self) -> Ordering {
        self.fingerprint
            .cmp(&other.fingerprint)
            .then_with(|| self.key().cmp(&other.key()))
    }
}

/// A geometry and its plan per fill-job type; `None` records "does not
/// fit". Plans are `Arc`s, so binding one to an executor is a refcount
/// bump.
#[derive(Debug)]
struct GeometryPlans {
    geometry: Geometry,
    plans: [OnceLock<Option<Arc<ExecutionPlan>>>; JOB_TYPES],
}

/// The executor's profile menu of every fill-job type on each of a set of
/// devices, and its plan of every fill-job type on each stage geometry
/// interned so far. Each (model, kind, device) menu is profiled and
/// prepared, and each (model, kind, geometry) plan packed, on first
/// request, once for every [`StagePlans`] sharing the table. See the
/// module docs.
#[derive(Debug)]
pub struct ProfileMenus {
    /// Distinct devices in first-seen order: a menu's column.
    devices: Vec<DeviceSpec>,
    /// Menu per (job type, device).
    menus: Vec<OnceLock<Menu>>,
    /// Plan row per distinct stage geometry. Only interning locks it.
    geometries: Mutex<BTreeMap<Geometry, Arc<GeometryPlans>>>,
    /// Plans packed so far.
    #[cfg(test)]
    packed: std::sync::atomic::AtomicUsize,
    /// Configurations in the menus of the plans packed so far.
    #[cfg(test)]
    offered: std::sync::atomic::AtomicUsize,
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
            geometries: Mutex::new(BTreeMap::new()),
            #[cfg(test)]
            packed: Default::default(),
            #[cfg(test)]
            offered: Default::default(),
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
        self.menus[job_type(model, kind) * self.devices.len() + column].get_or_init(|| {
            let device = &self.devices[column];
            let profiles = profile_menu(&model.build(), kind, device);
            let exclusive = exclusive_best_of(&profiles, device.hbm).map(|(t, _)| t);
            Menu {
                profiles,
                exclusive,
                prepared: OnceLock::new(),
            }
        })
    }

    /// The table's plan row for each of `geometries`, made empty where
    /// it is new.
    fn intern(&self, geometries: Vec<Geometry>) -> Vec<Arc<GeometryPlans>> {
        let mut table = self
            .geometries
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        geometries
            .into_iter()
            .map(|geometry| match table.entry(geometry) {
                Entry::Occupied(row) => Arc::clone(row.get()),
                Entry::Vacant(vacant) => {
                    let row = Arc::new(GeometryPlans {
                        geometry: vacant.key().clone(),
                        plans: std::array::from_fn(|_| OnceLock::new()),
                    });
                    Arc::clone(vacant.insert(row))
                }
            })
            .collect()
    }

    /// The plan of a `(model, kind)` fill job on `row`'s geometry.
    fn plan<'r>(
        &self,
        model: ModelId,
        kind: JobKind,
        row: &'r GeometryPlans,
    ) -> Option<&'r Arc<ExecutionPlan>> {
        row.plans[job_type(model, kind)]
            .get_or_init(|| {
                let g = &row.geometry;
                if g.slots.is_empty() {
                    return None;
                }
                let menu = self.menu(model, kind, g.column);
                #[cfg(test)]
                {
                    use std::sync::atomic::Ordering::Relaxed;
                    self.packed.fetch_add(1, Relaxed);
                    self.offered.fetch_add(menu.profiles.len(), Relaxed);
                }
                menu.prepared
                    .get_or_init(|| PreparedMenu::new(&menu.profiles))
                    .plan_best_of(&menu.profiles, &g.slots, &g.executor)
                    .ok()
                    .map(Arc::new)
            })
            .as_ref()
    }

    /// Menus profiled so far.
    #[cfg(test)]
    fn built(&self) -> usize {
        self.menus.iter().filter(|m| m.get().is_some()).count()
    }

    /// Plans packed so far.
    #[cfg(test)]
    fn plans_built(&self) -> usize {
        self.packed.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Prepared menus made so far.
    #[cfg(test)]
    fn prepared_built(&self) -> usize {
        self.prepared_menus().count()
    }

    /// Configurations the plans packed so far ran the packer on, and the
    /// configurations their menus hold.
    #[cfg(test)]
    fn configs_packed(&self) -> (usize, usize) {
        let packed = self
            .prepared_menus()
            .map(PreparedMenu::configs_packed)
            .sum();
        (
            packed,
            self.offered.load(std::sync::atomic::Ordering::Relaxed),
        )
    }

    /// The prepared menus made so far.
    #[cfg(test)]
    fn prepared_menus(&self) -> impl Iterator<Item = &PreparedMenu> {
        self.menus
            .iter()
            .filter_map(|m| m.get().and_then(|m| m.prepared.get()))
    }
}

/// Fill plans and exclusive throughputs of every fill-job type on every
/// stage of one pipeline. See the module docs.
#[derive(Debug)]
pub struct StagePlans {
    windows: Vec<Vec<BubbleWindow>>,
    /// Each stage's plan row in `menus`.
    rows: Vec<Arc<GeometryPlans>>,
    menus: Arc<ProfileMenus>,
    executor: ExecutorConfig,
}

impl StagePlans {
    /// Plans over `windows[s]` on `devices[s]` for every stage `s`,
    /// profiling and planning through `menus`.
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
        assert_eq!(devices.len(), windows.len(), "one device per stage");
        let geometries = windows
            .iter()
            .zip(devices)
            .map(|(ws, device)| {
                let slots = ws.iter().map(|w| (w.duration, w.free_memory)).collect();
                Geometry::new(menus.column(device), slots, executor)
            })
            .collect();
        let rows = menus.intern(geometries);
        StagePlans {
            windows,
            rows,
            menus,
            executor,
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
        &self.rows[stage].geometry.slots
    }

    /// The executor tuning every plan is made under.
    pub fn executor(&self) -> &ExecutorConfig {
        &self.executor
    }

    /// The best plan of a `(model, kind)` fill job on `stage`, or `None`
    /// if no configuration fits its windows.
    pub fn plan(&self, model: ModelId, kind: JobKind, stage: usize) -> Option<&Arc<ExecutionPlan>> {
        self.menus.plan(model, kind, &self.rows[stage])
    }

    /// Exclusive throughput (samples per second on an idle GPU) of a
    /// `(model, kind)` fill job on `stage`'s device, or `None` if no
    /// configuration fits the device at all.
    pub fn throughput(&self, model: ModelId, kind: JobKind, stage: usize) -> Option<f64> {
        self.menus
            .menu(model, kind, self.rows[stage].geometry.column)
            .exclusive
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeSet;

    use super::*;
    use crate::experiments::characterization::fig7_job_types;
    use pipefill_device::Bytes;
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
        // opposite orders, then variants of the first: a copy, one with a
        // single slot a byte roomier, and one at another fill fraction.
        // All plan on one table, so each cell must still be its own
        // stage's cold `plan_best` and `exclusive_throughput` (a menu
        // keyed by the wrong device or a plan read off the wrong geometry
        // shows), and a cell shares the first shape's plan exactly when
        // its stage geometry is bit-for-bit the first shape's.
        let exec = ExecutorConfig::default();
        let (v100, h100) = (DeviceSpec::v100(), DeviceSpec::h100());
        let mut shapes: Vec<(Vec<Vec<BubbleWindow>>, Vec<DeviceSpec>, ExecutorConfig)> =
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
                    (windows, devices, exec)
                })
                .collect();
        let (windows, devices, _) = shapes[0].clone();
        let roomier_stage = 1;
        let mut roomier = windows.clone();
        roomier[roomier_stage][0].free_memory += Bytes::new(1);
        shapes.push((windows.clone(), devices.clone(), exec));
        shapes.push((roomier, devices.clone(), exec));
        shapes.push((windows, devices, ExecutorConfig { fill_fraction: 0.5 }));
        let menus = Arc::new(ProfileMenus::new(shapes.iter().flat_map(|(_, d, _)| d)));
        let all: Vec<StagePlans> = shapes
            .iter()
            .map(|(w, d, e)| StagePlans::new(w.clone(), d, *e, Arc::clone(&menus)))
            .collect();
        let mut shared = 0;
        for (i, ((_, devices, exec), plans)) in shapes.iter().zip(&all).enumerate() {
            for (s, device) in devices.iter().enumerate() {
                let first_geometry = i == 0 || i == 2 || (i == 3 && s != roomier_stage);
                for (model, kind) in fig7_job_types() {
                    let at = format!("shape {i} stage {s} {model} {kind}");
                    let plan = plans.plan(model, kind, s);
                    assert_eq!(
                        plan.map(|p| &**p),
                        direct_plan(model, kind, plans.slots(s), device, exec).as_ref(),
                        "{at}"
                    );
                    assert_eq!(
                        plans.throughput(model, kind, s),
                        direct_throughput(model, kind, device),
                        "{at}"
                    );
                    if let (Some(plan), Some(first)) = (plan, all[0].plan(model, kind, s)) {
                        assert_eq!(Arc::ptr_eq(plan, first), first_geometry, "{at}");
                        shared += usize::from(first_geometry);
                    }
                }
            }
        }
        // Shares happened, so the equalities above are not vacuous.
        assert!(shared > 0);
        // The best-bound-first search packed fewer configurations than
        // the menus of the packed cells hold.
        let (packed, offered) = menus.configs_packed();
        assert!(0 < packed && packed < offered, "{packed} of {offered}");
    }

    #[test]
    fn throughputs_prepare_no_menu() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::OneFOneB);
        let windows = windows_of(&main.engine_timeline());
        let p = windows.len();
        let menus = Arc::new(ProfileMenus::new([&main.device]));
        let plans = StagePlans::new(
            windows,
            &vec![main.device.clone(); p],
            ExecutorConfig::default(),
            Arc::clone(&menus),
        );
        for (model, kind) in fig7_job_types() {
            for s in 0..p {
                plans.throughput(model, kind, s);
            }
        }
        assert!(menus.built() > 0);
        assert_eq!(menus.prepared_built(), 0);
        let (model, kind) = fig7_job_types()[0];
        plans.plan(model, kind, 1);
        assert_eq!(menus.prepared_built(), 1);
    }

    #[test]
    fn one_prepared_menu_serves_every_fill_fraction() {
        // Two shapes of one geometry but for the fill fraction, on one
        // table: each job type's menu is prepared exactly once, and every
        // cell is its own fraction's cold `plan_best`, so a cell planned
        // under the other fraction would show.
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let windows = windows_of(&main.engine_timeline());
        let devices = vec![main.device.clone(); windows.len()];
        let menus = Arc::new(ProfileMenus::new([&main.device]));
        let wide = ExecutorConfig::default();
        let narrow = ExecutorConfig { fill_fraction: 0.3 };
        let types = fig7_job_types();
        let mut differ = 0;
        for _ in 0..2 {
            for exec in [wide, narrow] {
                let plans = StagePlans::new(windows.clone(), &devices, exec, Arc::clone(&menus));
                for s in 0..plans.stages() {
                    for &(model, kind) in &types {
                        let direct = direct_plan(model, kind, plans.slots(s), &main.device, &exec);
                        assert_eq!(
                            plans.plan(model, kind, s).map(|p| &**p),
                            direct.as_ref(),
                            "fill {} stage {s} {model} {kind}",
                            exec.fill_fraction
                        );
                        let other = if exec == wide { narrow } else { wide };
                        let other = direct_plan(model, kind, plans.slots(s), &main.device, &other);
                        differ += usize::from(direct != other);
                    }
                }
            }
            assert_eq!(menus.prepared_built(), types.len());
        }
        // The fraction changes some plans, so a cell shared across
        // fractions would fail the equalities above.
        assert!(differ > 0);
    }

    #[test]
    fn stages_of_one_geometry_share_one_plan() {
        // Two shapes of one geometry on one table: every cell of the
        // second is the first's `Arc`, and asking the second packs
        // nothing. Asking both twice packs each distinct (geometry, job
        // type) cell with windows exactly once.
        let main = MainJobSpec::physical_5b(8, ScheduleKind::OneFOneB);
        let windows = windows_of(&main.engine_timeline());
        let devices = vec![main.device.clone(); windows.len()];
        let menus = Arc::new(ProfileMenus::new([&main.device]));
        let exec = ExecutorConfig::default();
        let [a, b] =
            [0, 1].map(|_| StagePlans::new(windows.clone(), &devices, exec, Arc::clone(&menus)));
        assert_eq!(menus.plans_built(), 0, "building plans packs nothing");
        let types = fig7_job_types();
        let geometries: BTreeSet<&[BubbleSlot]> = (0..a.stages())
            .map(|s| a.slots(s))
            .filter(|slots| !slots.is_empty())
            .collect();
        let mut fitted = 0;
        for _ in 0..2 {
            for plans in [&a, &b] {
                for s in 0..plans.stages() {
                    for &(model, kind) in &types {
                        let (p, q) = (a.plan(model, kind, s), plans.plan(model, kind, s));
                        assert_eq!(p.is_some(), q.is_some());
                        if let (Some(p), Some(q)) = (p, q) {
                            assert!(Arc::ptr_eq(p, q), "stage {s} {model} {kind}");
                            fitted += 1;
                        }
                    }
                }
            }
            assert_eq!(menus.plans_built(), geometries.len() * types.len());
        }
        assert!(fitted > 0);
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
