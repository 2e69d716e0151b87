//! [`ScenarioSpec`]: the declarative description of one run.
//!
//! A spec names either a *single simulation* (backend fidelity, pipeline
//! schedule, workload knobs, seeds, fault/fleet shape — everything the
//! old `sim`/`fleet` flag plumbing carried) or a *registered experiment*
//! with grid overrides. Specs are built with a typed builder, validated
//! and lowered to a runnable [`BackendConfig`] or resolved to the
//! experiments they run.
//!
//! Each key is defined once, in its [`KEYS`] row: its spelling, value
//! parser and writer, the modes it applies to and its help hint.
//! [`ScenarioSpec::set`], the applicability check in
//! [`ScenarioSpec::validate`], the writer in [`crate::toml`] and the
//! CLI's flags and usage all read that table, so no per-command flag
//! list exists to drift from it. `render → parse` is identity.
//!
//! Every optional field uses `Option` to mean *explicitly set*: defaults
//! are applied at lowering time, so a spec round-trips through text
//! without inventing keys the author never wrote.

use pipefill_core::{
    BackendConfig, BackendKind, ClusterSimConfig, FleetSimConfig, PhysicalSimConfig, PolicyKind,
};
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_sim_core::SimDuration;
use pipefill_textfmt::toml::quote;
use pipefill_trace::{FleetWorkloadConfig, TraceConfig};
use std::str::FromStr;

use pipefill_core::experiments::{resolve, Axis, Experiment, Grid, Scale};

/// The declarative description of one run. See the module docs; the
/// modes each field applies to are its [`KEYS`] row.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScenarioSpec {
    /// Free-form label (reports, CSV naming by callers).
    pub name: Option<String>,
    /// Experiment mode: the registered experiment to run. Mutually
    /// exclusive with `backend`.
    pub experiment: Option<String>,
    /// Run mode: the backend fidelity. Mutually exclusive with
    /// `experiment`.
    pub backend: Option<BackendKind>,
    /// Pipeline schedule of the main job(s). Default: GPipe.
    pub schedule: Option<ScheduleKind>,
    /// RNG seed. Default: 7 (11 for `fig9_policies`-style grids, which
    /// carry their own default).
    pub seed: Option<u64>,
    /// Main-job iterations. Default: 300 (150 for fleet).
    pub iterations: Option<usize>,
    /// Trace horizon in seconds. Default: 3600.
    pub horizon_secs: Option<u64>,
    /// Offered-load multiplier. Default: 1.0.
    pub load: Option<f64>,
    /// Fill fraction. Default: 0.68.
    pub fill_fraction: Option<f64>,
    /// Mean time between device failures in seconds; `f64::INFINITY`
    /// (spelled `"none"` in text) disables injection. Defaults: disabled
    /// for the fault backend, 1800 s for the fleet backend (matching
    /// the CLI).
    pub mtbf_secs: Option<f64>,
    /// Checkpoint-restart cost per eviction in seconds. Default: 2.0.
    pub checkpoint_secs: Option<f64>,
    /// Steady-state fast-forward: analytically skip provably-repeating
    /// iterations. Results are
    /// bit-for-bit identical either way; `"off"` forces full event
    /// fidelity (debugging, timing the baseline). Default: on.
    pub fast_forward: Option<bool>,
    /// Fill-queue policy. Defaults: SJF (coarse), FIFO (fleet).
    pub policy: Option<PolicyKind>,
    /// Concurrent main jobs. Default: 8.
    pub jobs: Option<usize>,
    /// Total GPU budget. Default: 128 per job.
    pub gpus: Option<usize>,
    /// Replication count for multi-seed experiment grids. Default: 3.
    pub seeds: Option<u64>,
}

/// One scenario key: a row of [`KEYS`].
pub struct ScenarioKey {
    /// The key as scenario files and `--set` spell it; the CLI flag
    /// spells it with dashes (`fill_fraction` is `--fill-fraction`).
    pub name: &'static str,
    /// The value's shape in help text, e.g. `X|none` or `on|off`.
    pub hint: &'static str,
    /// The modes the key applies to, as [`mode`] bits.
    modes: u8,
    /// The experiment grid axis the key overrides, if any.
    axis: Option<Axis>,
    /// Parses a value into its field.
    parse: fn(&mut ScenarioSpec, &str) -> Result<(), SpecError>,
    /// The field as a scenario file writes it; `None` when unset.
    write: fn(&ScenarioSpec) -> Option<String>,
}

impl ScenarioKey {
    /// Whether the key applies to a run on `backend`, or to experiment
    /// mode when `None`.
    pub fn applies_to(&self, backend: Option<BackendKind>) -> bool {
        self.modes & mode(backend) != 0
    }

    /// The key's value in `spec` as a scenario file writes it, or `None`
    /// when the spec leaves it unset.
    pub fn value(&self, spec: &ScenarioSpec) -> Option<String> {
        (self.write)(spec)
    }
}

const EXP: u8 = 1;
const COARSE: u8 = 1 << 1;
const PHYSICAL: u8 = 1 << 2;
const FAULT: u8 = 1 << 3;
const FLEET: u8 = 1 << 4;
/// The backends with an iteration loop.
const LOOPS: u8 = PHYSICAL | FAULT | FLEET;
const RUNS: u8 = COARSE | LOOPS;

/// A mode's bit: experiment mode for `None`, else its backend's.
fn mode(backend: Option<BackendKind>) -> u8 {
    match backend {
        None => EXP,
        Some(BackendKind::Coarse) => COARSE,
        Some(BackendKind::Physical) => PHYSICAL,
        Some(BackendKind::Fault) => FAULT,
        Some(BackendKind::Fleet) => FLEET,
    }
}

/// A [`KEYS`] row for the [`ScenarioSpec`] field of the same name.
/// `parse` turns the text into the field's value: `grammar` is the
/// type's own `FromStr`, whose messages name what they parsed and so
/// stand alone; any other parser's message is about the key. `write`
/// renders a set value as a scenario file spells it. `axis` names the
/// [`Axis`] variant the key overrides in experiment grids, or is `-`.
macro_rules! key {
    ($field:ident, $hint:literal, $modes:expr, $parse:ident, $write:expr, $axis:tt) => {
        ScenarioKey {
            name: stringify!($field),
            hint: $hint,
            modes: $modes,
            axis: key!(@axis $axis),
            parse: |spec, value| {
                spec.$field = Some(key!(@parse $parse, $field, value));
                Ok(())
            },
            write: |spec| spec.$field.as_ref().map($write),
        }
    };
    (@axis -) => {
        None
    };
    (@axis $axis:ident) => {
        Some(Axis::$axis)
    };
    (@parse grammar, $field:ident, $value:ident) => {
        $value.parse()?
    };
    (@parse $parse:ident, $field:ident, $value:ident) => {
        $parse($value).map_err(|message| SpecError::about(stringify!($field), message))?
    };
}

/// Every scenario key, in the canonical order files are written,
/// applicability is checked and the CLI lists flags in. Setting a key
/// outside its modes is an error, not a silent no-op; an experiment
/// further takes only the grid axes it sweeps.
#[rustfmt::skip]
pub const KEYS: &[ScenarioKey] = &[
    //   field            help hint                            applies to        parse       write        grid axis
    key!(name,            "TEXT",                              EXP | RUNS,       text,       quoted,      -),
    key!(experiment,      "NAME",                              EXP,              text,       quoted,      -),
    key!(backend,         "coarse|physical|fault|fleet",       RUNS,             grammar,    quoted,      -),
    key!(schedule,        "gpipe|1f1b|interleaved[:v]|zb-h1",  RUNS,             grammar,    lowercase,   -),
    key!(seed,            "S",                                 EXP | RUNS,       int,        plain,       Seed),
    key!(iterations,      "N",                                 EXP | LOOPS,      int,        plain,       Iterations),
    key!(horizon_secs,    "N",                                 EXP | COARSE,     int,        plain,       HorizonSecs),
    key!(load,            "X",                                 COARSE,           load,       plain,       -),
    key!(fill_fraction,   "F",                                 PHYSICAL | FAULT, fraction,   plain,       -),
    key!(mtbf_secs,       "X|none",                            FAULT | FLEET,    mtbf_secs,  mtbf_text,   -),
    key!(checkpoint_secs, "C",                                 FAULT,            checkpoint, plain,       -),
    key!(fast_forward,    "on|off",                            LOOPS,            on_off,     on_off_text, -),
    key!(policy,          "fifo|sjf|makespan-min|edf",         COARSE | FLEET,   grammar,    policy_text, -),
    key!(jobs,            "N",                                 FLEET,            int,        plain,       -),
    key!(gpus,            "N",                                 FLEET,            int,        plain,       -),
    key!(seeds,           "N",                                 EXP,              int,        plain,       Seeds),
];

/// Every [`KEYS`] row after `name`, `experiment` and `backend`: the
/// knobs the CLI offers as dashed flags on `sim`, `fleet` and `exp`.
pub const KNOBS: &[ScenarioKey] = KEYS.split_at(3).1;

/// A scenario diagnostic. A message about one key keeps the key apart
/// from the text, so each surface spells the key its own way: scenario
/// files and `--set` name the key (`mtbf_secs must be ...`), CLI flags
/// name the flag (`--mtbf-secs must be ...`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpecError {
    key: Option<String>,
    message: String,
}

impl SpecError {
    fn about(key: &str, message: String) -> Self {
        SpecError {
            key: Some(key.to_string()),
            message,
        }
    }

    /// The full message, leading with the key as `spell` spells it.
    pub fn render(&self, spell: impl FnOnce(&str) -> String) -> String {
        match &self.key {
            Some(key) => format!("{} {}", spell(key), self.message),
            None => self.message.clone(),
        }
    }
}

impl std::fmt::Display for SpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render(str::to_string))
    }
}

impl From<String> for SpecError {
    fn from(message: String) -> Self {
        SpecError { key: None, message }
    }
}

impl From<SpecError> for String {
    fn from(err: SpecError) -> String {
        err.to_string()
    }
}

/// Builder methods: `with_<field>(value)` sets the field and returns the
/// spec.
macro_rules! builders {
    ($($(#[$doc:meta])* $with:ident($field:ident: $ty:ty);)*) => {$(
        $(#[$doc])*
        pub fn $with(mut self, $field: $ty) -> Self {
            self.$field = Some($field.into());
            self
        }
    )*};
}

impl ScenarioSpec {
    /// A run-mode spec at the given backend fidelity.
    pub fn run(backend: BackendKind) -> ScenarioSpec {
        ScenarioSpec {
            backend: Some(backend),
            ..ScenarioSpec::default()
        }
    }

    /// An experiment-mode spec naming a registered experiment.
    pub fn experiment(name: &str) -> ScenarioSpec {
        ScenarioSpec {
            experiment: Some(name.to_string()),
            ..ScenarioSpec::default()
        }
    }

    builders! {
        /// Sets the label.
        with_name(name: &str);
        /// Sets the pipeline schedule.
        with_schedule(schedule: ScheduleKind);
        /// Sets the RNG seed.
        with_seed(seed: u64);
        /// Sets the iteration count.
        with_iterations(iterations: usize);
        /// Sets the trace horizon in seconds.
        with_horizon_secs(horizon_secs: u64);
        /// Sets the offered-load multiplier.
        with_load(load: f64);
        /// Sets the fill fraction.
        with_fill_fraction(fill_fraction: f64);
        /// Sets the MTBF in seconds (`f64::INFINITY` disables injection).
        with_mtbf_secs(mtbf_secs: f64);
        /// Sets the checkpoint-restart cost in seconds.
        with_checkpoint_secs(checkpoint_secs: f64);
        /// Enables or disables steady-state fast-forward.
        with_fast_forward(fast_forward: bool);
        /// Sets the fill-queue policy.
        with_policy(policy: PolicyKind);
        /// Sets the fleet job count.
        with_jobs(jobs: usize);
        /// Sets the fleet GPU budget.
        with_gpus(gpus: usize);
        /// Sets the replication count for multi-seed experiment grids.
        with_seeds(seeds: u64);
    }

    /// Assigns one field from its text spelling — the shared engine of
    /// the TOML reader and the CLI's `--set key=value` overrides, so a
    /// file key and an override are guaranteed to parse identically.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown keys or malformed/degenerate
    /// values.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), SpecError> {
        let Some(row) = KEYS.iter().find(|row| row.name == key) else {
            return Err(SpecError::from(format!(
                "unknown scenario key '{key}' (see ScenarioSpec for the accepted set)"
            )));
        };
        (row.parse)(self, value)
    }

    /// Checks mode exclusivity, per-mode field applicability and value
    /// sanity.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message naming the offending field.
    pub fn validate(&self) -> Result<(), SpecError> {
        let experiment = match (&self.experiment, self.backend) {
            (Some(_), Some(_)) => {
                return Err(SpecError::from(
                    "a scenario is either an experiment or a backend run, not both \
                     (set 'experiment' or 'backend', not the two together)"
                        .to_string(),
                ))
            }
            (None, None) => {
                return Err(SpecError::from(
                    "a scenario needs 'backend = \"...\"' (coarse|physical|fault|fleet) \
                            or 'experiment = \"...\"' (see pipefill-cli exp --list)"
                        .to_string(),
                ))
            }
            (Some(name), None) => {
                let Some(exps) = resolve(name) else {
                    return Err(SpecError::from(format!(
                        "unknown experiment '{name}'; run pipefill-cli exp --list"
                    )));
                };
                Some((name, exps))
            }
            (None, Some(_)) => None,
        };
        for key in KEYS {
            if !key.applies_to(self.backend) && key.value(self).is_some() {
                return Err(SpecError::about(
                    key.name,
                    match self.backend {
                        Some(backend) => format!("does not apply to the {backend} backend"),
                        None => "does not apply to experiment scenarios \
                                 (grids take iterations/seed/horizon_secs/seeds)"
                            .to_string(),
                    },
                ));
            }
        }
        if let Some((name, exps)) = experiment {
            // Diagnostics name the canonical experiment, so every
            // spelling of it is rejected with the same message; only a
            // fan-out keeps its one spelling.
            let label = match exps.as_slice() {
                [exp] => exp.name(),
                _ => name.as_str(),
            };
            // An override of an axis the experiment does not sweep
            // would silently no-op.
            // The check runs in `Axis` order, so the first unswept
            // override named is the same whatever the table's order.
            let mut axes: Vec<(Axis, &ScenarioKey)> = KEYS
                .iter()
                .filter_map(|key| Some((key.axis?, key)))
                .collect();
            axes.sort_by_key(|&(axis, _)| axis);
            for (axis, key) in axes {
                if key.value(self).is_some() && !exps.iter().any(|e| e.axes().contains(&axis)) {
                    return Err(SpecError::about(
                        key.name,
                        format!(
                            "does not apply to experiment '{label}' (its grid does not sweep it)"
                        ),
                    ));
                }
            }
            // A zero would silently produce an empty or all-zero table.
            let at_least_one = || format!("must be at least 1 for experiment '{label}'");
            if self.iterations == Some(0) {
                return Err(SpecError::about("iterations", at_least_one()));
            }
            if self.seeds == Some(0) {
                return Err(SpecError::about("seeds", at_least_one()));
            }
            if self.horizon_secs == Some(0) {
                return Err(SpecError::about("horizon_secs", at_least_one()));
            }
        }
        if self.backend == Some(BackendKind::Fleet) {
            let at_least_one = "must be at least 1 for a fleet scenario";
            let (jobs, gpus) = self.fleet_shape()?;
            if jobs == 0 {
                return Err(SpecError::about("jobs", at_least_one.into()));
            }
            if self.iterations == Some(0) {
                return Err(SpecError::about("iterations", at_least_one.into()));
            }
            if gpus / jobs < 8 {
                return Err(SpecError::about(
                    "gpus",
                    format!(
                        "{gpus} leaves under 8 GPUs per job over {jobs} jobs; \
                         the smallest pipeline needs 8"
                    ),
                ));
            }
        }
        if let Some(m) = self.mtbf_secs {
            // INFINITY is the internal disabled sentinel; every other
            // spelling must be a finite positive duration.
            if m.is_nan() || m <= 0.0 {
                return Err(SpecError::about(
                    "mtbf_secs",
                    format!(
                        "must be a finite positive number of seconds \
                         (use \"none\" to disable failure injection), got {m}"
                    ),
                ));
            }
            if m.is_finite() {
                fits_clock("mtbf_secs", m)?;
                // An MTBF that rounds to zero nanoseconds would hand the
                // failure sampler a zero mean.
                if mtbf_duration(m).is_zero() {
                    return Err(SpecError::about(
                        "mtbf_secs",
                        format!("must be at least 1 ns, got {m:?}"),
                    ));
                }
            }
        }
        if let Some(c) = self.checkpoint_secs {
            fits_clock("checkpoint_secs", c)?;
        }
        if let Some(h) = self.horizon_secs {
            fits_clock("horizon_secs", h as f64)?;
        }
        if let Some(load) = self.load {
            // The load divides the trace's mean inter-arrival time; a
            // quotient that rounds to zero nanoseconds would hand the
            // arrival sampler an infinite rate.
            let scale = 1.0 / load;
            let base = TraceConfig::physical(0).mean_interarrival;
            if !(load > 0.0 && scale.is_finite()) || base.mul_f64(scale).is_zero() {
                return Err(SpecError::about(
                    "load",
                    format!(
                        "must be a positive number that leaves a mean inter-arrival \
                         time of at least 1 ns, got {load:?}"
                    ),
                ));
            }
        }
        Ok(())
    }

    /// Validates an experiment-mode spec and resolves it to the
    /// experiments it runs, in run order, each with its full-scale grid
    /// and every explicitly-set axis overridden. A fan-out spelling such
    /// as `fig10` yields one entry per experiment.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioSpec::validate`] error, or a message when
    /// called on a run-mode spec.
    pub fn experiments(&self) -> Result<Vec<(&'static dyn Experiment, Grid)>, SpecError> {
        self.validate()?;
        let Some(exps) = self.experiment.as_deref().and_then(resolve) else {
            return Err(SpecError::from(
                "scenario is a backend run; lower() it, not experiments()".to_string(),
            ));
        };
        Ok(exps
            .into_iter()
            .map(|exp| {
                let grid = exp.grid(Scale::Full).with_overrides(
                    self.iterations,
                    self.seed,
                    self.horizon_secs,
                    self.seeds,
                );
                (exp, grid)
            })
            .collect())
    }

    /// The fleet's job count and GPU budget, with their defaults: 8 jobs
    /// and 128 GPUs per job.
    fn fleet_shape(&self) -> Result<(usize, usize), SpecError> {
        let jobs = self.jobs.unwrap_or(8);
        let gpus = match self.gpus {
            Some(gpus) => gpus,
            None => jobs.checked_mul(128).ok_or_else(|| {
                SpecError::about(
                    "jobs",
                    format!(
                        "must be at most {} under the default budget of 128 GPUs per job, \
                         got {jobs}",
                        usize::MAX / 128
                    ),
                )
            })?,
        };
        Ok((jobs, gpus))
    }

    /// Validates and lowers a run-mode spec to a runnable
    /// [`BackendConfig`], applying documented defaults for unset fields.
    ///
    /// # Errors
    ///
    /// Returns the [`ScenarioSpec::validate`] error, or a message when
    /// called on an experiment-mode spec.
    pub fn lower(&self) -> Result<BackendConfig, SpecError> {
        self.validate()?;
        let Some(backend) = self.backend else {
            return Err(SpecError::from(format!(
                "scenario runs experiment '{}'; run its experiments(), not lower()",
                self.experiment.as_deref().unwrap_or("?")
            )));
        };
        let schedule = self.schedule.unwrap_or(ScheduleKind::GPipe);
        let seed = self.seed.unwrap_or(7);
        Ok(match backend {
            BackendKind::Coarse => {
                let main = MainJobSpec::physical_5b(8, schedule);
                let mut trace = TraceConfig::physical(seed).with_load(self.load.unwrap_or(1.0));
                trace.horizon = SimDuration::from_secs(self.horizon_secs.unwrap_or(3600));
                let mut cfg = ClusterSimConfig::new(main, trace);
                if let Some(policy) = self.policy {
                    cfg.policy = policy;
                }
                BackendConfig::Coarse(cfg)
            }
            BackendKind::Physical | BackendKind::Fault => {
                let main = MainJobSpec::physical_5b(8, schedule);
                let mut cfg = PhysicalSimConfig::new(main)
                    .with_fill_fraction(self.fill_fraction.unwrap_or(0.68));
                cfg.iterations = self.iterations.unwrap_or(300);
                cfg.seed = seed;
                cfg.fast_forward = self.fast_forward.unwrap_or(true);
                if backend == BackendKind::Physical {
                    BackendConfig::Physical(cfg)
                } else {
                    // A fault run is the same job as a one-job fleet,
                    // plus its failure model.
                    let mut cfg = FleetSimConfig::from_physical(&cfg)
                        .with_mtbf(mtbf_duration(self.mtbf_secs.unwrap_or(f64::INFINITY)));
                    cfg.checkpoint_cost =
                        SimDuration::from_secs_f64(self.checkpoint_secs.unwrap_or(2.0));
                    BackendConfig::Fault(cfg)
                }
            }
            BackendKind::Fleet => {
                let (jobs, gpus) = self.fleet_shape()?;
                let mut workload = FleetWorkloadConfig::new(jobs, gpus, seed);
                workload.iterations = self.iterations.unwrap_or(150);
                let mut cfg = FleetSimConfig::from_workload_scheduled(&workload, schedule)
                    .with_mtbf(mtbf_duration(self.mtbf_secs.unwrap_or(1800.0)))
                    .with_policy(self.policy.unwrap_or(PolicyKind::Fifo));
                cfg.fast_forward = self.fast_forward.unwrap_or(true);
                BackendConfig::Fleet(cfg)
            }
        })
    }
}

/// Rejects a span of seconds the simulated clock cannot hold: it must
/// stay below [`SimDuration::MAX`], which also serves as the "never"
/// sentinel.
fn fits_clock(key: &str, secs: f64) -> Result<(), SpecError> {
    let limit = SimDuration::MAX.as_secs_f64();
    if secs < limit {
        Ok(())
    } else {
        Err(SpecError::about(
            key,
            format!("must be under {limit:.0} seconds (the simulated clock's span), got {secs:?}"),
        ))
    }
}

/// Converts an MTBF in seconds to the backends' duration sentinel
/// (`SimDuration::MAX` disables injection).
fn mtbf_duration(secs: f64) -> SimDuration {
    if secs.is_finite() {
        SimDuration::from_secs_f64(secs)
    } else {
        SimDuration::MAX
    }
}

// The [`KEYS`] value parsers: each yields the field's value, or a
// message about the key.

fn text(value: &str) -> Result<String, String> {
    Ok(value.to_string())
}

fn int<T: FromStr>(value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("expects an integer, got '{value}'"))
}

fn number(value: &str) -> Result<f64, String> {
    value
        .parse()
        .map_err(|_| format!("expects a number, got '{value}'"))
}

fn load(value: &str) -> Result<f64, String> {
    let load = number(value)?;
    if !(load > 0.0 && load.is_finite()) {
        return Err(format!("must be a positive number, got {value}"));
    }
    Ok(load)
}

fn fraction(value: &str) -> Result<f64, String> {
    let f = number(value)?;
    if !(0.0..=1.0).contains(&f) {
        return Err(format!("must be within [0, 1], got {value}"));
    }
    Ok(f)
}

/// Parses an MTBF spelling: `"none"` disables injection (internally
/// `f64::INFINITY`); any numeric value must be a finite positive number
/// of seconds. Numeric infinity spellings (`inf`, `Infinity`,
/// overflowing literals like `1e999`) are rejected — `f64::from_str`
/// happily produces them, and they would flow into the exponential MTBF
/// sampler as garbage rather than as the documented off switch.
fn mtbf_secs(value: &str) -> Result<f64, String> {
    if value == "none" {
        return Ok(f64::INFINITY);
    }
    let secs: f64 = value
        .parse()
        .map_err(|_| format!("expects a number of seconds or 'none', got '{value}'"))?;
    if !(secs > 0.0 && secs.is_finite()) {
        return Err(format!(
            "must be a finite positive number of seconds \
             (use 'none' to disable failure injection), got '{value}'"
        ));
    }
    Ok(secs)
}

fn checkpoint(value: &str) -> Result<f64, String> {
    let c: f64 = value
        .parse()
        .map_err(|_| format!("expects a number of seconds, got '{value}'"))?;
    if !(c >= 0.0 && c.is_finite()) {
        return Err(format!("must be a finite non-negative number, got {value}"));
    }
    Ok(c)
}

/// Parses an on/off switch spelling (`on`/`off`, also `true`/`false`).
fn on_off(value: &str) -> Result<bool, String> {
    match value {
        "on" | "true" => Ok(true),
        "off" | "false" => Ok(false),
        _ => Err(format!("expects on|off, got '{value}'")),
    }
}

// The [`KEYS`] value writers: each renders a set field as the scenario
// file spells it, the form a human would type.

fn plain(value: &impl ToString) -> String {
    value.to_string()
}

/// A backend's `Display` is already its parseable lowercase spelling.
fn quoted(value: &impl ToString) -> String {
    quote(&value.to_string())
}

/// A schedule's `Display` (`GPipe`, `ZB-H1`) parses once lowercased.
fn lowercase(schedule: &ScheduleKind) -> String {
    quote(&schedule.to_string().to_lowercase())
}

fn mtbf_text(secs: &f64) -> String {
    match secs.is_finite() {
        true => secs.to_string(),
        false => quote("none"),
    }
}

fn on_off_text(on: &bool) -> String {
    quote(if *on { "on" } else { "off" })
}

/// A policy's parseable spelling (`Display` prints presentation forms
/// like `Makespan-Min` the parser rejects).
fn policy_text(policy: &PolicyKind) -> String {
    quote(match policy {
        PolicyKind::Fifo => "fifo",
        PolicyKind::Sjf => "sjf",
        PolicyKind::MakespanMin => "makespan-min",
        PolicyKind::DeadlineThenSjf => "edf",
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_lowers_to_the_expected_backend() {
        let spec = ScenarioSpec::run(BackendKind::Coarse)
            .with_horizon_secs(600)
            .with_load(2.0)
            .with_seed(3);
        match spec.lower().unwrap() {
            BackendConfig::Coarse(cfg) => {
                assert_eq!(cfg.trace.horizon, SimDuration::from_secs(600));
                assert_eq!(cfg.trace.seed, 3);
            }
            other => panic!("wrong backend: {other:?}"),
        }

        let spec = ScenarioSpec::run(BackendKind::Fault)
            .with_iterations(50)
            .with_mtbf_secs(600.0)
            .with_checkpoint_secs(4.0);
        match spec.lower().unwrap() {
            BackendConfig::Fault(cfg) => {
                assert_eq!(cfg.jobs.len(), 1);
                assert_eq!(cfg.jobs[0].iterations, 50);
                assert_eq!(cfg.mtbf, SimDuration::from_secs(600));
                assert_eq!(cfg.checkpoint_cost, SimDuration::from_secs(4));
            }
            other => panic!("wrong backend: {other:?}"),
        }
    }

    #[test]
    fn fast_forward_lowers_to_every_simulation_backend() {
        // Default on; an explicit "off" reaches the backend config.
        for backend in [
            BackendKind::Physical,
            BackendKind::Fault,
            BackendKind::Fleet,
        ] {
            let on = match ScenarioSpec::run(backend).lower().unwrap() {
                BackendConfig::Physical(cfg) => cfg.fast_forward,
                BackendConfig::Fault(cfg) => cfg.fast_forward,
                BackendConfig::Fleet(cfg) => cfg.fast_forward,
                other => panic!("wrong backend: {other:?}"),
            };
            assert!(on, "{backend}: fast_forward defaults on");
            let off = match ScenarioSpec::run(backend)
                .with_fast_forward(false)
                .lower()
                .unwrap()
            {
                BackendConfig::Physical(cfg) => cfg.fast_forward,
                BackendConfig::Fault(cfg) => cfg.fast_forward,
                BackendConfig::Fleet(cfg) => cfg.fast_forward,
                other => panic!("wrong backend: {other:?}"),
            };
            assert!(!off, "{backend}: fast_forward = off is honoured");
        }
        // The coarse backend has no iteration loop to skip.
        let err = ScenarioSpec::run(BackendKind::Coarse)
            .with_fast_forward(false)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("does not apply to the coarse backend"),
            "{err}"
        );
        let err = ScenarioSpec::experiment("table1")
            .with_fast_forward(false)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("does not apply to experiment"), "{err}");
    }

    #[test]
    fn lowering_matches_cli_defaults() {
        // The spec's defaults are the CLI's defaults: an empty coarse
        // spec is `sim`, an empty fault spec is `sim --backend fault`.
        match ScenarioSpec::run(BackendKind::Coarse).lower().unwrap() {
            BackendConfig::Coarse(cfg) => {
                assert_eq!(cfg.trace.horizon, SimDuration::from_secs(3600));
                assert_eq!(cfg.trace.seed, 7);
                // Load 1.0 keeps the physical trace's arrival rate.
                assert_eq!(
                    cfg.trace.mean_interarrival,
                    TraceConfig::physical(7).mean_interarrival
                );
            }
            other => panic!("wrong backend: {other:?}"),
        }
        match ScenarioSpec::run(BackendKind::Physical).lower().unwrap() {
            BackendConfig::Physical(cfg) => {
                assert_eq!(cfg.iterations, 300);
                assert_eq!(cfg.seed, 7);
                assert_eq!(cfg.executor.fill_fraction, 0.68);
            }
            other => panic!("wrong backend: {other:?}"),
        }
        match ScenarioSpec::run(BackendKind::Fault).lower().unwrap() {
            BackendConfig::Fault(cfg) => {
                assert_eq!(cfg.jobs[0].iterations, 300);
                assert_eq!(cfg.seed, 7);
                assert_eq!(cfg.mtbf, SimDuration::MAX);
                assert_eq!(cfg.checkpoint_cost, SimDuration::from_secs(2));
                assert_eq!(cfg.jobs[0].executor.fill_fraction, 0.68);
            }
            other => panic!("wrong backend: {other:?}"),
        }
        match ScenarioSpec::run(BackendKind::Fleet).lower().unwrap() {
            BackendConfig::Fleet(cfg) => {
                assert_eq!(cfg.jobs.len(), 8);
                assert!(cfg.jobs.iter().all(|job| job.iterations == 150));
                assert_eq!(cfg.policy, PolicyKind::Fifo);
                assert_eq!(cfg.mtbf, SimDuration::from_secs(1800));
            }
            other => panic!("wrong backend: {other:?}"),
        }
    }

    #[test]
    fn validation_rejects_inapplicable_fields() {
        let err = ScenarioSpec::run(BackendKind::Coarse)
            .with_fill_fraction(0.9)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("does not apply to the coarse backend"),
            "{err}"
        );
        let err = ScenarioSpec::run(BackendKind::Physical)
            .with_load(2.0)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("does not apply to the physical backend"),
            "{err}"
        );
        let err = ScenarioSpec::run(BackendKind::Fault)
            .with_jobs(4)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("does not apply to the fault backend"), "{err}");
        let err = ScenarioSpec::run(BackendKind::Fleet)
            .with_fill_fraction(0.5)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("does not apply to the fleet backend"), "{err}");
    }

    #[test]
    fn validation_rejects_mode_confusion_and_bad_fleets() {
        let mut both = ScenarioSpec::run(BackendKind::Coarse);
        both.experiment = Some("table1".into());
        assert!(both
            .validate()
            .unwrap_err()
            .to_string()
            .contains("not both"));

        let neither = ScenarioSpec::default();
        assert!(neither
            .validate()
            .unwrap_err()
            .to_string()
            .contains("backend"));

        let err = ScenarioSpec::experiment("nonesuch")
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("unknown experiment"), "{err}");

        let err = ScenarioSpec::experiment("table1")
            .with_jobs(4)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("does not apply to experiment"), "{err}");

        // Overriding an axis the experiment does not sweep is rejected
        // (it would silently no-op), and degenerate grids are rejected
        // like the CLI flags reject them.
        let err = ScenarioSpec::experiment("table1")
            .with_iterations(50)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("does not sweep"), "{err}");
        let err = ScenarioSpec::experiment("fig5_fill_fraction")
            .with_iterations(0)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("iterations must be at least 1"), "{err}");
        let err = ScenarioSpec::experiment("fig6_agreement")
            .with_seeds(0)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("seeds must be at least 1"), "{err}");
        let err = ScenarioSpec::experiment("fig9_policies")
            .with_horizon_secs(0)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("horizon_secs must be at least 1"), "{err}");
        // Multi-experiment spellings validate (no axis overrides), and
        // reject an axis none of their experiments sweeps.
        ScenarioSpec::experiment("fig10").validate().unwrap();
        let err = ScenarioSpec::experiment("fig10")
            .with_seed(3)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.starts_with("seed does not apply"), "{err}");
        // Swept axes pass.
        ScenarioSpec::experiment("fig9_policies")
            .with_seed(3)
            .with_horizon_secs(60)
            .validate()
            .unwrap();
        ScenarioSpec::experiment("fig6_agreement")
            .with_iterations(10)
            .with_seeds(2)
            .validate()
            .unwrap();
        let err = ScenarioSpec::run(BackendKind::Fleet)
            .with_iterations(0)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("at least 1 for a fleet"), "{err}");

        let err = ScenarioSpec::run(BackendKind::Fleet)
            .with_jobs(4)
            .with_gpus(16)
            .validate()
            .unwrap_err()
            .to_string();
        assert!(err.contains("under 8 GPUs per job"), "{err}");
        // A job count whose default GPU budget (128 per job) overflows
        // is reported against the jobs, not as a wrapped budget.
        for spec in [
            ScenarioSpec::run(BackendKind::Fleet).with_jobs(1 << 58),
            ScenarioSpec::run(BackendKind::Fleet).with_jobs(usize::MAX),
        ] {
            let err = spec.validate().unwrap_err().to_string();
            assert!(err.starts_with("jobs must be at most"), "{err}");
            assert_eq!(spec.lower().unwrap_err().to_string(), err);
        }
    }

    #[test]
    fn set_parses_and_rejects_like_the_cli() {
        let mut spec = ScenarioSpec::run(BackendKind::Fault);
        spec.set("mtbf_secs", "600").unwrap();
        assert_eq!(spec.mtbf_secs, Some(600.0));
        spec.set("mtbf_secs", "none").unwrap();
        assert_eq!(spec.mtbf_secs, Some(f64::INFINITY));
        for bad in ["inf", "infinity", "Infinity", "1e999", "-inf", "NaN", "0"] {
            let err = spec.set("mtbf_secs", bad).unwrap_err().to_string();
            assert!(
                err.contains("finite positive") || err.contains("'none'"),
                "{bad}: {err}"
            );
        }
        assert!(spec.set("checkpoint_secs", "-1").is_err());
        assert!(spec.set("checkpoint_secs", "inf").is_err());
        assert!(spec.set("load", "0").is_err());
        assert!(spec.set("fill_fraction", "1.5").is_err());
        assert!(spec.set("bogus_key", "1").is_err());
        assert!(spec.set("schedule", "2f2b").is_err());
        spec.set("fast_forward", "off").unwrap();
        assert_eq!(spec.fast_forward, Some(false));
        spec.set("fast_forward", "on").unwrap();
        assert_eq!(spec.fast_forward, Some(true));
        let err = spec.set("fast_forward", "maybe").unwrap_err().to_string();
        assert!(err.contains("expects on|off"), "{err}");
        spec.set("schedule", "interleaved:4").unwrap();
        assert_eq!(spec.schedule, Some(ScheduleKind::Interleaved { chunks: 4 }));
    }

    #[test]
    fn validation_rejects_values_the_clock_cannot_hold() {
        // Each of these parses as a finite number but used to panic
        // once lowered: the durations overflow the simulated clock, a tiny
        // MTBF rounds to zero, and the load rounds the mean inter-arrival
        // time to zero.
        let cases = [
            (BackendKind::Fault, "checkpoint_secs", "1e300"),
            (BackendKind::Fault, "mtbf_secs", "1e300"),
            (BackendKind::Fleet, "mtbf_secs", "1e300"),
            (BackendKind::Fault, "mtbf_secs", "1e11"),
            (BackendKind::Fault, "mtbf_secs", "1e-10"),
            (BackendKind::Fleet, "mtbf_secs", "1e-300"),
            (BackendKind::Coarse, "horizon_secs", "18446744074"),
            (BackendKind::Coarse, "load", "1e300"),
            (BackendKind::Coarse, "load", "1e-320"),
        ];
        for (backend, key, value) in cases {
            let mut spec = ScenarioSpec::run(backend);
            spec.set(key, value).unwrap();
            let err = spec.lower().unwrap_err();
            assert!(
                err.render(|k| format!("<{k}>"))
                    .starts_with(&format!("<{key}> must be")),
                "{backend} {key}={value}: {err}"
            );
        }
        // Large values the clock does hold still lower.
        for (backend, key, value) in [
            (BackendKind::Fault, "checkpoint_secs", "1e9"),
            (BackendKind::Fleet, "mtbf_secs", "1e9"),
            (BackendKind::Fleet, "mtbf_secs", "1e-9"),
            (BackendKind::Coarse, "load", "1e9"),
            (BackendKind::Coarse, "horizon_secs", "18446744073"),
        ] {
            let mut spec = ScenarioSpec::run(backend);
            spec.set(key, value).unwrap();
            assert!(spec.lower().is_ok(), "{backend} {key}={value}");
        }
    }

    #[test]
    fn errors_carry_their_key_apart_from_the_message() {
        let flag = |key: &str| format!("--{}", key.replace('_', "-"));
        let err = ScenarioSpec::run(BackendKind::Fault)
            .set("checkpoint_secs", "-1")
            .unwrap_err();
        assert_eq!(
            err.to_string(),
            "checkpoint_secs must be a finite non-negative number, got -1"
        );
        assert_eq!(
            err.render(flag),
            "--checkpoint-secs must be a finite non-negative number, got -1"
        );
        let err = ScenarioSpec::run(BackendKind::Coarse)
            .with_iterations(5)
            .validate()
            .unwrap_err();
        assert_eq!(
            err.render(flag),
            "--iterations does not apply to the coarse backend"
        );
        // Messages about no single key render unchanged.
        let err = ScenarioSpec::run(BackendKind::Coarse)
            .set("schedule", "2f2b")
            .unwrap_err();
        assert_eq!(err.render(|_| unreachable!()), err.to_string());
    }

    /// A valid value for every key, in [`KEYS`] order.
    const SAMPLES: [(&str, &str); 16] = [
        ("name", "walk #1"),
        ("experiment", "fig5"),
        ("backend", "fleet"),
        ("schedule", "interleaved:3"),
        ("seed", "3"),
        ("iterations", "20"),
        ("horizon_secs", "600"),
        ("load", "2.5"),
        ("fill_fraction", "0.5"),
        ("mtbf_secs", "none"),
        ("checkpoint_secs", "2.5"),
        ("fast_forward", "off"),
        ("policy", "makespan-min"),
        ("jobs", "2"),
        ("gpus", "256"),
        ("seeds", "2"),
    ];

    /// Walks the key table: every key round-trips `render → parse` on
    /// its own, and each mode accepts exactly the knobs it accepted when
    /// applicability was a per-mode list of rejected keys.
    #[test]
    fn every_key_round_trips_and_applies_where_it_did() {
        let names: Vec<&str> = KEYS.iter().map(|key| key.name).collect();
        assert_eq!(names, SAMPLES.map(|(key, _)| key));
        assert_eq!(KNOBS.len(), KEYS.len() - 3);
        for (key, value) in SAMPLES {
            let mut spec = ScenarioSpec::default();
            spec.set(key, value).unwrap();
            let text = crate::toml::render(&spec);
            assert_eq!(text.lines().count(), 2, "{text}");
            assert_eq!(crate::toml::parse(&text).unwrap(), spec, "{text}");
        }
        let accepted = [
            (None, "seed iterations horizon_secs seeds"),
            (
                Some(BackendKind::Coarse),
                "schedule seed horizon_secs load policy",
            ),
            (
                Some(BackendKind::Physical),
                "schedule seed iterations fill_fraction fast_forward",
            ),
            (
                Some(BackendKind::Fault),
                "schedule seed iterations fill_fraction mtbf_secs checkpoint_secs fast_forward",
            ),
            (
                Some(BackendKind::Fleet),
                "schedule seed iterations mtbf_secs fast_forward policy jobs gpus",
            ),
        ];
        for (mode, want) in accepted {
            let applies: Vec<&str> = KNOBS
                .iter()
                .filter(|key| key.applies_to(mode))
                .map(|key| key.name)
                .collect();
            assert_eq!(applies.join(" "), want, "{mode:?}");
            // `validate` reads the same column: a knob set alone passes
            // the mode check exactly where it applies.
            for (key, value) in &SAMPLES[3..] {
                let mut spec = match mode {
                    Some(backend) => ScenarioSpec::run(backend),
                    None => ScenarioSpec::experiment("fig5"),
                };
                spec.set(key, value).unwrap();
                let mode_error = match mode {
                    Some(backend) => format!("{key} does not apply to the {backend} backend"),
                    None => format!(
                        "{key} does not apply to experiment scenarios \
                         (grids take iterations/seed/horizon_secs/seeds)"
                    ),
                };
                let refused = spec
                    .validate()
                    .is_err_and(|err| err.to_string() == mode_error);
                assert_eq!(
                    refused,
                    !want.split(' ').any(|k| k == *key),
                    "{mode:?} {key}"
                );
            }
        }
    }

    /// Walks the key table's grid-axis column: each row that names an
    /// [`Axis`] is spelled as the axis displays, no axis has two rows,
    /// and an experiment that sweeps nothing names the unswept
    /// overrides in `Axis` order, whatever order the rows are in.
    #[test]
    fn grid_axis_rows_are_spelled_as_their_axis() {
        let mut axes = Vec::new();
        for key in KEYS {
            if let Some(axis) = key.axis {
                assert_eq!(key.name, axis.to_string());
                assert!(key.applies_to(None), "{}", key.name);
                axes.push(axis);
            }
        }
        axes.sort();
        let names: Vec<String> = axes.iter().map(Axis::to_string).collect();
        assert_eq!(names, ["iterations", "seed", "horizon_secs", "seeds"]);
        let mut spec = ScenarioSpec::experiment("table1");
        for (key, value) in [
            ("seeds", "2"),
            ("horizon_secs", "60"),
            ("seed", "3"),
            ("iterations", "5"),
        ] {
            spec.set(key, value).unwrap();
            assert_eq!(
                spec.validate().unwrap_err().to_string(),
                format!("{key} does not apply to experiment 'table1' (its grid does not sweep it)")
            );
        }
    }

    #[test]
    fn experiments_apply_overrides_to_every_grid() {
        let runs = ScenarioSpec::experiment("fig5_fill_fraction")
            .with_iterations(40)
            .with_seed(9)
            .experiments()
            .unwrap();
        let [(exp, grid)] = runs.as_slice() else {
            panic!("fig5_fill_fraction runs one experiment");
        };
        assert_eq!(exp.name(), "fig5_fill_fraction");
        assert_eq!((grid.iterations, grid.seed), (40, 9));
        // Unset axes keep the experiment's full-scale defaults.
        let runs = ScenarioSpec::experiment("fig5").experiments().unwrap();
        assert_eq!(runs[0].1.iterations, 300);
        // A fan-out yields one grid per experiment, each carrying the
        // spec's overrides. fig10's panels sweep no axis, so the only
        // overrides it accepts are none.
        let spec = ScenarioSpec::experiment("fig10");
        let runs = spec.experiments().unwrap();
        let names: Vec<&str> = runs.iter().map(|(exp, _)| exp.name()).collect();
        assert_eq!(names, ["fig10a_bubble_size", "fig10b_free_memory"]);
        for (exp, grid) in &runs {
            let overridden = exp.grid(Scale::Full).with_overrides(
                spec.iterations,
                spec.seed,
                spec.horizon_secs,
                spec.seeds,
            );
            assert_eq!(grid, &overridden, "{}", exp.name());
        }
        assert_eq!(
            ScenarioSpec::experiment("fig8")
                .experiments()
                .unwrap()
                .len(),
            2
        );
        // Invalid and run-mode specs are errors, not empty runs.
        let err = ScenarioSpec::experiment("fig5")
            .with_iterations(0)
            .experiments()
            .err()
            .expect("a zero grid is rejected")
            .to_string();
        assert!(err.starts_with("iterations must be at least 1"), "{err}");
        assert!(ScenarioSpec::run(BackendKind::Coarse)
            .experiments()
            .is_err());
    }
}
