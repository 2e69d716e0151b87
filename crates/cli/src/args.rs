//! Hand-rolled argument parsing (the workspace's dependency policy has no
//! CLI crate; the grammar is tiny).
//!
//! The uniform entry points are `run <scenario.toml>` (declarative
//! scenarios) and `exp <name>` / `exp --list` (the experiment registry).
//! The historical per-figure subcommands survive as thin aliases over
//! `exp`: each is a registry spelling listed in [`EXP_ALIASES`]. Every
//! command that runs a simulation or an experiment parses to a
//! [`ScenarioSpec`], so its flags validate through the one applicability
//! table the scenario files use.

use pipefill_core::{BackendKind, EXPERIMENTS_DIR};
use pipefill_model_zoo::{JobKind, ModelId};
use pipefill_pipeline::ScheduleKind;
use pipefill_scenario::{ScenarioSpec, SpecError};

/// Usage text printed on parse errors and `help`.
pub const USAGE: &str = "\
usage: pipefill-cli <command> [options] [--threads N]

scenarios & experiments:
  run <scenario.toml> [--set key=value ...]
                                  run a declarative scenario file
                                  (see examples/scenarios/)
  exp <name> [--iterations N] [--seed S] [--horizon-secs N] [--seeds N]
         [--out DIR]              run one registered experiment
  exp --list                      list every registered experiment
  all    [--out DIR]              run every experiment, write CSVs
  table1 | fig1 | fig4 | fig5 | fig6 | fig7 | fig8 | fig9 | fig10
  whatif | faults | agree         aliases over `exp`; each takes the grid
                                  flags its experiment sweeps

single simulations:
  sim    [--backend coarse|physical|fault] [--seed S] [--iterations N]
         [--horizon-secs N] [--load X] [--fill-fraction F]
         [--mtbf-secs X|none] [--checkpoint-secs C]
         [--schedule gpipe|1f1b|interleaved[:v]|zb-h1]
         [--fast-forward on|off]
                                  one simulation at a chosen fidelity
  fleet  [--jobs N] [--gpus N] [--iterations N] [--seed S]
         [--mtbf-secs X|none] [--policy fifo|sjf|makespan-min|edf]
         [--schedule gpipe|1f1b|interleaved[:v]|zb-h1]
         [--fast-forward on|off]
                                  multi-job fleet on one global fill queue

inspection & verification:
  timeline [--schedule gpipe|1f1b|interleaved[:v]|zb-h1]
         [--stages P] [--microbatches M] [--width W]
  plan   [--model NAME] [--kind training|inference] [--stage S]
  verify-schedule <schedule|stream.toml>
         [--stages P] [--microbatches M] [--memory-limit N]
         [--format human|json]
                                  statically prove deadlock-freedom,
                                  memory bounds and the bubble fraction
                                  (exit 0 certified, 1 rejected, 2 usage)
  certify-schedules [--mode check|write] [--out FILE]
                                  re-verify the certificate grid and
                                  check (or rewrite) the pinned report
  help

global options:
  --threads N                     worker threads for parallel sweeps
                                  (default: all cores)";

/// A parsed invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run registered experiments (by canonical name or alias): the
    /// experiment scenario the command and its grid flags spell.
    Exp {
        /// The validated experiment scenario.
        spec: ScenarioSpec,
        /// CSV output directory (default [`EXPERIMENTS_DIR`]).
        out: Option<String>,
    },
    /// List the experiment registry.
    ExpList,
    /// Run a declarative scenario file with `--set key=value` overrides.
    RunScenario {
        /// Path to the scenario TOML.
        path: String,
        /// Key/value overrides applied after parsing.
        sets: Vec<(String, String)>,
    },
    /// Multi-job fleet simulation on one global fill queue: the fleet
    /// scenario the flags spell.
    Fleet(ScenarioSpec),
    /// Everything, with CSV output.
    All {
        /// Output directory.
        out: String,
    },
    /// One simulation at a chosen fidelity: the run scenario the flags
    /// spell.
    Sim(ScenarioSpec),
    /// ASCII schedule rendering.
    Timeline {
        /// Pipeline schedule.
        schedule: ScheduleKind,
        /// Stages.
        stages: usize,
        /// Microbatches.
        microbatches: usize,
        /// Render width in columns.
        width: usize,
    },
    /// Show one job's execution plan.
    Plan {
        /// Fill-job model.
        model: ModelId,
        /// Training or batch inference.
        kind: JobKind,
        /// Pipeline stage whose bubbles to plan against.
        stage: usize,
    },
    /// Statically verify one schedule (or stream file) with schedcheck.
    VerifySchedule {
        /// What to verify: a built-in generator or a stream file.
        target: VerifyTarget,
        /// Pipeline stages (built-in targets only; files fix the shape).
        stages: usize,
        /// Microbatches (built-in targets only; files fix the shape).
        microbatches: usize,
        /// Per-device activation budget in microbatches, if any.
        memory_limit: Option<u64>,
        /// Emit the JSON certificate instead of the human report.
        json: bool,
    },
    /// Re-verify the certificate grid; check or rewrite the pinned
    /// report file.
    CertifySchedules {
        /// Rewrite the report instead of byte-comparing against it.
        write: bool,
        /// Report path.
        out: String,
    },
    /// Print usage.
    Help,
}

/// The operand of `verify-schedule`.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyTarget {
    /// A built-in schedule generator, expanded at `--stages` ×
    /// `--microbatches`.
    Kind(ScheduleKind),
    /// A stream TOML file on disk (anything containing `/` or ending
    /// in `.toml`).
    File(String),
}

/// A parsed command line: the command plus global options.
#[derive(Debug, Clone, PartialEq)]
pub struct Invocation {
    /// The command to run.
    pub command: Command,
    /// Worker threads for parallel sweeps (0 = all cores).
    pub threads: usize,
}

/// The legacy per-figure subcommands: registry spellings accepted as
/// command words. Adding an experiment needs no entry here — `exp
/// <name>` reaches it — this list only preserves the historical short
/// commands.
const EXP_ALIASES: &[&str] = &[
    "table1", "fig1", "fig4", "fig5", "fig6", "fig7", "fig8", "fig9", "fig10", "whatif", "faults",
    "agree",
];

/// The grid flags of every experiment command: scenario keys spelled
/// with dashes. Which of them an experiment accepts is its own `axes()`,
/// checked by [`ScenarioSpec::validate`].
const EXP_FLAGS: &[&str] = &["iterations", "seed", "horizon-secs", "seeds"];

/// The `sim` flags: scenario keys spelled with dashes.
const SIM_FLAGS: &[&str] = &[
    "seed",
    "schedule",
    "iterations",
    "horizon-secs",
    "load",
    "fill-fraction",
    "mtbf-secs",
    "checkpoint-secs",
    "fast-forward",
];

/// The `fleet` flags: scenario keys spelled with dashes.
const FLEET_FLAGS: &[&str] = &[
    "jobs",
    "gpus",
    "iterations",
    "seed",
    "mtbf-secs",
    "policy",
    "schedule",
    "fast-forward",
];

/// Parses an argument vector (without the binary name).
///
/// # Errors
///
/// Returns a human-readable message on unknown commands, unknown flags,
/// or malformed values.
pub fn parse(argv: &[String]) -> Result<Invocation, String> {
    let mut it = argv.iter();
    let Some(cmd) = it.next() else {
        return Err("missing command".into());
    };
    let mut rest: Vec<&String> = it.collect();

    // `exp`, `run` and `verify-schedule` take one positional operand
    // before the flags.
    let positional = match cmd.as_str() {
        "exp" | "run" | "verify-schedule" => {
            if rest.first().is_some_and(|a| !a.starts_with("--")) {
                Some(rest.remove(0).clone())
            } else {
                None
            }
        }
        _ => None,
    };
    if cmd == "exp" && rest.iter().any(|a| a.as_str() == "--list") {
        if positional.is_some() || rest.len() != 1 {
            return Err("exp --list takes no other arguments".into());
        }
        return Ok(Invocation {
            command: Command::ExpList,
            threads: 0,
        });
    }

    let mut flags = FlagSet::new(&rest)?;
    // Global options are accepted by every command.
    let threads = flags.take_usize("threads", 0)?;
    let command = match cmd.as_str() {
        "exp" => {
            let Some(name) = positional else {
                return Err("exp needs an experiment name (or --list)".into());
            };
            Command::Exp {
                spec: take_scenario(&mut flags, ScenarioSpec::experiment(&name), EXP_FLAGS)?,
                out: flags.take("out"),
            }
        }
        "run" => {
            let Some(path) = positional else {
                return Err("run needs a scenario file path".into());
            };
            let mut sets = Vec::new();
            while let Some(pair) = flags.take("set") {
                let Some((key, value)) = pair.split_once('=') else {
                    return Err(format!("--set expects key=value, got '{pair}'"));
                };
                sets.push((key.trim().to_string(), value.trim().to_string()));
            }
            Command::RunScenario { path, sets }
        }
        "fleet" => Command::Fleet(take_scenario(
            &mut flags,
            ScenarioSpec::run(BackendKind::Fleet),
            FLEET_FLAGS,
        )?),
        "all" => Command::All {
            out: flags.take_string("out", EXPERIMENTS_DIR)?,
        },
        "sim" => {
            let backend = flags
                .take_string("backend", "coarse")?
                .parse::<BackendKind>()?;
            if backend == BackendKind::Fleet {
                return Err(
                    "the fleet backend simulates many jobs; use the 'fleet' subcommand".into(),
                );
            }
            Command::Sim(take_scenario(
                &mut flags,
                ScenarioSpec::run(backend),
                SIM_FLAGS,
            )?)
        }
        "timeline" => {
            let schedule = flags
                .take_string("schedule", "gpipe")?
                .parse::<ScheduleKind>()?;
            let stages = flags.take_usize("stages", 8)?;
            let microbatches = flags.take_usize("microbatches", 8)?;
            let width = flags.take_usize("width", 96)?;
            if stages == 0 || microbatches == 0 || width == 0 {
                return Err("--stages, --microbatches and --width must be at least 1".into());
            }
            Command::Timeline {
                schedule,
                stages,
                microbatches,
                width,
            }
        }
        "plan" => Command::Plan {
            model: parse_model(&flags.take_string("model", "bert-base")?)?,
            kind: match flags.take_string("kind", "inference")?.as_str() {
                "training" | "train" => JobKind::Training,
                "inference" | "inf" | "batch-inference" => JobKind::BatchInference,
                other => return Err(format!("unknown kind '{other}' (training|inference)")),
            },
            stage: flags.take_usize("stage", 8)?,
        },
        "verify-schedule" => {
            let Some(target) = positional else {
                return Err("verify-schedule needs a schedule name or a stream file path".into());
            };
            // Paths are read at run time; schedule spellings fail here
            // with the schedule grammar's own message.
            let target = if target.contains('/') || target.ends_with(".toml") {
                VerifyTarget::File(target)
            } else {
                VerifyTarget::Kind(target.parse::<ScheduleKind>()?)
            };
            if let VerifyTarget::File(_) = &target {
                for flag in ["stages", "microbatches"] {
                    if flags.provided(flag) {
                        return Err(format!(
                            "--{flag} does not apply to stream-file targets \
                             (the file fixes the shape)"
                        ));
                    }
                }
            }
            let stages = flags.take_usize("stages", 8)?;
            let microbatches = flags.take_usize("microbatches", 8)?;
            if stages == 0 || microbatches == 0 {
                return Err("--stages and --microbatches must be at least 1".into());
            }
            let memory_limit = match flags.take("memory-limit") {
                None => None,
                Some(v) => Some(parse_u64("memory-limit", &v)?),
            };
            let json = match flags.take_string("format", "human")?.as_str() {
                "human" => false,
                "json" => true,
                other => return Err(format!("--format expects human|json, got '{other}'")),
            };
            Command::VerifySchedule {
                target,
                stages,
                microbatches,
                memory_limit,
                json,
            }
        }
        "certify-schedules" => {
            let write = match flags.take_string("mode", "check")?.as_str() {
                "check" => false,
                "write" => true,
                other => return Err(format!("--mode expects check|write, got '{other}'")),
            };
            Command::CertifySchedules {
                write,
                out: flags.take_string("out", "schedcert-report.json")?,
            }
        }
        "help" | "--help" | "-h" => Command::Help,
        word if EXP_ALIASES.contains(&word) => Command::Exp {
            spec: take_scenario(&mut flags, ScenarioSpec::experiment(word), EXP_FLAGS)?,
            out: None,
        },
        other => return Err(format!("unknown command '{other}'")),
    };
    flags.finish()?;
    Ok(Invocation { command, threads })
}

/// Completes a command's scenario from its flags. Each `--flag value` is
/// sugar for `--set flag=value` with dashes as underscores, so values
/// parse, default and validate exactly as scenario keys do — including
/// the applicability table, which rejects another fidelity's knobs and
/// an experiment's unswept axes instead of silently dropping them.
/// Diagnostics name the flag, not the key.
fn take_scenario(
    flags: &mut FlagSet,
    mut spec: ScenarioSpec,
    accepted: &[&str],
) -> Result<ScenarioSpec, String> {
    let as_flag = |err: SpecError| err.render(|key| format!("--{}", key.replace('_', "-")));
    for flag in accepted {
        if let Some(value) = flags.take(flag) {
            spec.set(&flag.replace('-', "_"), &value).map_err(as_flag)?;
        }
    }
    spec.validate().map_err(as_flag)?;
    Ok(spec)
}

fn parse_model(name: &str) -> Result<ModelId, String> {
    let canonical = name.to_ascii_lowercase().replace('_', "-");
    for id in ModelId::ALL {
        if id.name().to_ascii_lowercase() == canonical {
            return Ok(id);
        }
    }
    let names: Vec<&str> = ModelId::ALL.iter().map(|m| m.name()).collect();
    Err(format!(
        "unknown model '{name}'; available: {}",
        names.join(", ")
    ))
}

fn parse_usize(name: &str, v: &str) -> Result<usize, String> {
    v.parse()
        .map_err(|_| format!("--{name} expects an integer, got '{v}'"))
}

fn parse_u64(name: &str, v: &str) -> Result<u64, String> {
    v.parse()
        .map_err(|_| format!("--{name} expects an integer, got '{v}'"))
}

/// `--flag value` pairs with consumption tracking so leftovers error.
struct FlagSet {
    pairs: Vec<(String, String, bool)>, // (name, value, consumed)
}

impl FlagSet {
    fn new(rest: &[&String]) -> Result<FlagSet, String> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < rest.len() {
            let flag = rest[i];
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("expected a --flag, got '{flag}'"));
            };
            let Some(value) = rest.get(i + 1) else {
                return Err(format!("--{name} needs a value"));
            };
            pairs.push((name.to_string(), value.to_string(), false));
            i += 2;
        }
        Ok(FlagSet { pairs })
    }

    fn provided(&self, name: &str) -> bool {
        self.pairs.iter().any(|(n, _, _)| n == name)
    }

    fn take(&mut self, name: &str) -> Option<String> {
        for (n, v, consumed) in &mut self.pairs {
            if n == name && !*consumed {
                *consumed = true;
                return Some(v.clone());
            }
        }
        None
    }

    fn take_string(&mut self, name: &str, default: &str) -> Result<String, String> {
        Ok(self.take(name).unwrap_or_else(|| default.to_string()))
    }

    fn take_usize(&mut self, name: &str, default: usize) -> Result<usize, String> {
        match self.take(name) {
            None => Ok(default),
            Some(v) => parse_usize(name, &v),
        }
    }

    fn finish(self) -> Result<(), String> {
        for (n, _, consumed) in &self.pairs {
            if !consumed {
                return Err(format!("unknown flag --{n} for this command"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pipefill_core::{BackendConfig, PolicyKind};
    use pipefill_sim_core::SimDuration;
    use pipefill_trace::TraceConfig;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    fn cmd(s: &str) -> Command {
        parse(&argv(s)).unwrap().command
    }

    /// The backend configuration a `sim` or `fleet` command runs.
    fn lowered(s: &str) -> BackendConfig {
        match cmd(s) {
            Command::Sim(spec) | Command::Fleet(spec) => spec.lower().unwrap(),
            other => panic!("{s} is not a scenario command: {other:?}"),
        }
    }

    /// An `Exp` command for `spec`, writing CSVs to the default place.
    fn exp(spec: ScenarioSpec) -> Command {
        Command::Exp { spec, out: None }
    }

    /// The registry experiments an experiment command runs, in order.
    fn runs(s: &str) -> Vec<&'static str> {
        match cmd(s) {
            Command::Exp { spec, .. } => spec
                .experiments()
                .unwrap()
                .into_iter()
                .map(|(exp, _)| exp.name())
                .collect(),
            other => panic!("{s} is not an experiment command: {other:?}"),
        }
    }

    #[test]
    fn parses_bare_commands_as_registry_aliases() {
        assert_eq!(cmd("fig4"), exp(ScenarioSpec::experiment("fig4")));
        assert_eq!(runs("table1"), ["table1"]);
        assert_eq!(runs("fig4"), ["fig4_scaling"]);
        assert_eq!(runs("fig1"), ["fig4_scaling"]);
        assert_eq!(runs("fig7"), ["fig7_characterization"]);
        assert_eq!(runs("fig8"), ["fig8_schedules", "schedule_depth"]);
        assert_eq!(runs("fig10"), ["fig10a_bubble_size", "fig10b_free_memory"]);
        assert_eq!(runs("whatif"), ["whatif_offload_bandwidth"]);
        assert_eq!(cmd("help"), Command::Help);
    }

    #[test]
    fn parses_alias_flags_as_grid_overrides() {
        assert_eq!(runs("fig5"), ["fig5_fill_fraction"]);
        assert_eq!(
            cmd("fig5 --iterations 50 --seed 9"),
            exp(ScenarioSpec::experiment("fig5")
                .with_iterations(50)
                .with_seed(9))
        );
        assert_eq!(
            cmd("fig9 --horizon-secs 1200"),
            exp(ScenarioSpec::experiment("fig9").with_horizon_secs(1200))
        );
        assert_eq!(runs("fig9"), ["fig9_policies"]);
    }

    #[test]
    fn parses_exp_command() {
        assert_eq!(
            cmd("exp fleet_scale"),
            exp(ScenarioSpec::experiment("fleet_scale"))
        );
        assert_eq!(
            cmd("exp whatif_faults --iterations 40 --seed 3 --out /tmp/x"),
            Command::Exp {
                spec: ScenarioSpec::experiment("whatif_faults")
                    .with_iterations(40)
                    .with_seed(3),
                out: Some("/tmp/x".into()),
            }
        );
        assert_eq!(cmd("exp --list"), Command::ExpList);
        let err = parse(&argv("exp")).unwrap_err();
        assert!(err.contains("experiment name"), "{err}");
        let err = parse(&argv("exp --list --seed 3")).unwrap_err();
        assert!(err.contains("no other arguments"), "{err}");
        let err = parse(&argv("exp table1 --iterations 0")).unwrap_err();
        assert!(
            err.starts_with("--iterations does not apply to experiment 'table1'"),
            "{err}"
        );
        let err = parse(&argv("exp table1 --bogus 3")).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        // Unknown names fail at parse time, pointing at the registry.
        let err = parse(&argv("exp warp-speed")).unwrap_err();
        assert!(err.contains("unknown experiment 'warp-speed'"), "{err}");
        assert!(err.contains("exp --list"), "{err}");
    }

    /// Every spelling of an experiment — the legacy word, `exp <alias>`
    /// and `exp <canonical>` — is rejected by the one rule with the one
    /// message, for a zero grid and for an axis it does not sweep.
    #[test]
    fn every_experiment_spelling_rejects_alike() {
        // (legacy word, canonical name, an axis flag it does not sweep);
        // a fan-out's only spelling is its legacy word.
        let cases = [
            ("table1", "table1", "--seed 3"),
            ("fig1", "fig4_scaling", "--seed 3"),
            ("fig4", "fig4_scaling", "--horizon-secs 60"),
            ("fig5", "fig5_fill_fraction", "--horizon-secs 60"),
            ("fig6", "fig6_validation", "--seeds 2"),
            ("fig7", "fig7_characterization", "--iterations 5"),
            ("fig8", "fig8", "--seed 3"),
            ("fig9", "fig9_policies", "--iterations 5"),
            ("fig10", "fig10", "--seed 3"),
            ("whatif", "whatif_offload_bandwidth", "--seeds 2"),
            ("faults", "whatif_faults", "--horizon-secs 60"),
            ("agree", "fig6_agreement", "--seed 3"),
        ];
        assert_eq!(cases.map(|(word, _, _)| word), EXP_ALIASES);
        for (word, canonical, unswept) in cases {
            for flags in ["--iterations 0", "--seeds 0", unswept] {
                let errs: Vec<String> = [word, &format!("exp {word}"), &format!("exp {canonical}")]
                    .iter()
                    .map(|spelling| parse(&argv(&format!("{spelling} {flags}"))).unwrap_err())
                    .collect();
                let flag = flags.split(' ').next().unwrap();
                assert!(errs[0].starts_with(flag), "{word} {flags}: {}", errs[0]);
                assert!(
                    errs.iter().all(|e| *e == errs[0]),
                    "{word} {flags}: {errs:?}"
                );
            }
        }
        // A zero grid on an axis the experiment sweeps is degenerate.
        for (line, name) in [
            ("fig5 --iterations 0", "fig5_fill_fraction"),
            ("fig6 --iterations 0", "fig6_validation"),
            ("agree --seeds 0", "fig6_agreement"),
        ] {
            let flag = line.split(' ').nth(1).unwrap();
            assert_eq!(
                parse(&argv(line)).unwrap_err(),
                format!("{flag} must be at least 1 for experiment '{name}'")
            );
        }
    }

    #[test]
    fn parses_run_command_with_set_overrides() {
        assert_eq!(
            cmd("run examples/scenarios/fault.toml"),
            Command::RunScenario {
                path: "examples/scenarios/fault.toml".into(),
                sets: vec![],
            }
        );
        assert_eq!(
            cmd("run s.toml --set seed=9 --set mtbf_secs=none"),
            Command::RunScenario {
                path: "s.toml".into(),
                sets: vec![
                    ("seed".into(), "9".into()),
                    ("mtbf_secs".into(), "none".into())
                ],
            }
        );
        let err = parse(&argv("run")).unwrap_err();
        assert!(err.contains("scenario file path"), "{err}");
        let err = parse(&argv("run s.toml --set seed")).unwrap_err();
        assert!(err.contains("key=value"), "{err}");
        let err = parse(&argv("run s.toml --bogus 1")).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
    }

    #[test]
    fn parses_global_threads_flag() {
        let inv = parse(&argv("fig5 --threads 4")).unwrap();
        assert_eq!(inv.threads, 4);
        assert_eq!(inv.command, exp(ScenarioSpec::experiment("fig5")));
        // Default: 0 = all cores.
        assert_eq!(parse(&argv("fig4")).unwrap().threads, 0);
        // Accepted by every command.
        assert_eq!(parse(&argv("table1 --threads 2")).unwrap().threads, 2);
        assert_eq!(
            parse(&argv("run s.toml --threads 2 --set seed=1"))
                .unwrap()
                .threads,
            2
        );
    }

    #[test]
    fn parses_sim_command() {
        // Flags are scenario keys: unset flags stay unset and take the
        // scenario's lowering defaults.
        assert_eq!(
            cmd("sim"),
            Command::Sim(ScenarioSpec::run(BackendKind::Coarse))
        );
        // `sim` runs a one-hour coarse trace at load 1.0, seed 7.
        match lowered("sim") {
            BackendConfig::Coarse(cfg) => {
                assert_eq!(cfg.trace.horizon, SimDuration::from_secs(3600));
                assert_eq!(cfg.trace.seed, 7);
                assert_eq!(
                    cfg.trace.mean_interarrival,
                    TraceConfig::physical(7).mean_interarrival
                );
            }
            other => panic!("wrong backend: {other:?}"),
        }
        // `sim --backend physical` runs 300 iterations at fill 0.68.
        match lowered("sim --backend physical") {
            BackendConfig::Physical(cfg) => {
                assert_eq!(cfg.iterations, 300);
                assert_eq!(cfg.seed, 7);
                assert_eq!(cfg.executor.fill_fraction, 0.68);
                assert!(cfg.fast_forward);
            }
            other => panic!("wrong backend: {other:?}"),
        }
        assert_eq!(
            cmd("sim --backend physical --fill-fraction 0.9 --seed 3"),
            Command::Sim(
                ScenarioSpec::run(BackendKind::Physical)
                    .with_fill_fraction(0.9)
                    .with_seed(3)
            )
        );
        assert!(parse(&argv("sim --backend quantum")).is_err());
        assert!(parse(&argv("sim --load 0")).is_err());
        assert!(parse(&argv("sim --load -2")).is_err());
        assert!(parse(&argv("sim --backend physical --fill-fraction 1.5")).is_err());
        // Knobs of the other fidelities are rejected, not silently dropped.
        assert!(parse(&argv("sim --backend coarse --fill-fraction 0.9")).is_err());
        assert!(parse(&argv("sim --backend coarse --iterations 50")).is_err());
        assert!(parse(&argv("sim --backend coarse --mtbf-secs 600")).is_err());
        assert!(parse(&argv("sim --backend physical --load 2.0")).is_err());
        assert!(parse(&argv("sim --backend physical --horizon-secs 60")).is_err());
        assert!(parse(&argv("sim --backend physical --checkpoint-secs 1")).is_err());
        assert!(parse(&argv("sim --backend fault --load 2.0")).is_err());
        assert!(parse(&argv("sim --backend fault --horizon-secs 60")).is_err());
    }

    #[test]
    fn parses_fault_backend_sim() {
        assert_eq!(
            cmd("sim --backend fault --mtbf-secs 600 --checkpoint-secs 4 --seed 5"),
            Command::Sim(
                ScenarioSpec::run(BackendKind::Fault)
                    .with_seed(5)
                    .with_mtbf_secs(600.0)
                    .with_checkpoint_secs(4.0)
            )
        );
        // Defaults: no failure injection, a 2 s checkpoint restore, and
        // the physical backend's 300 iterations at fill 0.68.
        match lowered("sim --backend fault") {
            BackendConfig::Fault(cfg) => {
                assert_eq!(cfg.mtbf, SimDuration::MAX);
                assert_eq!(cfg.checkpoint_cost, SimDuration::from_secs(2));
                assert_eq!(cfg.jobs[0].iterations, 300);
                assert_eq!(cfg.jobs[0].executor.fill_fraction, 0.68);
            }
            other => panic!("wrong backend: {other:?}"),
        }
        // 'none' spelled out disables injection.
        assert!(matches!(
            cmd("sim --backend fault --mtbf-secs none"),
            Command::Sim(spec) if spec.mtbf_secs.is_some_and(f64::is_infinite)
        ));
        let err = parse(&argv("sim --backend fault --mtbf-secs 0")).unwrap_err();
        assert!(err.contains("finite positive"), "{err}");
        let err = parse(&argv("sim --backend fault --mtbf-secs soon")).unwrap_err();
        assert!(
            err.contains("expects a number of seconds or 'none'"),
            "{err}"
        );
        let err = parse(&argv("sim --backend fault --checkpoint-secs -1")).unwrap_err();
        assert!(
            err.contains("--checkpoint-secs must be a finite non-negative"),
            "{err}"
        );
    }

    /// Every duration-valued flag rejects non-finite spellings: `inf`
    /// and friends parse as f64 infinity and would otherwise flow into
    /// `SimDuration` and the MTBF sampler. A finite value too long for
    /// the simulated clock (`1e300`) is rejected the same way, naming
    /// the flag.
    #[test]
    fn duration_flags_reject_non_finite_values() {
        let overflow = |flag: &str, err: &str| {
            err.starts_with(&format!("--{flag} must be under")) && err.contains("simulated clock")
        };
        for spelling in [
            "inf", "infinity", "Infinity", "INF", "1e999", "-inf", "NaN", "1e300",
        ] {
            for flag in ["mtbf-secs", "checkpoint-secs"] {
                let err =
                    parse(&argv(&format!("sim --backend fault --{flag} {spelling}"))).unwrap_err();
                assert!(
                    err.contains("finite positive")
                        || err.contains("'none'")
                        || err.contains("finite non-negative")
                        || overflow(flag, &err),
                    "--{flag} {spelling}: {err}"
                );
            }
            let err = parse(&argv(&format!("fleet --mtbf-secs {spelling}"))).unwrap_err();
            assert!(
                err.contains("finite positive")
                    || err.contains("'none'")
                    || overflow("mtbf-secs", &err),
                "fleet mtbf {spelling}: {err}"
            );
            // Integer-valued duration flags reject them at the integer
            // parse.
            let err = parse(&argv(&format!("sim --horizon-secs {spelling}"))).unwrap_err();
            assert!(
                err.contains("expects an integer"),
                "horizon {spelling}: {err}"
            );
            let err = parse(&argv(&format!("fig9 --horizon-secs {spelling}"))).unwrap_err();
            assert!(err.contains("expects an integer"), "fig9 {spelling}: {err}");
        }
        // The old 'inf'/'infinity' off-switch spellings are gone; only
        // 'none' disables injection.
        let err = parse(&argv("fleet --mtbf-secs inf")).unwrap_err();
        assert!(err.contains("'none'"), "{err}");
        assert!(matches!(
            cmd("fleet --mtbf-secs none"),
            Command::Fleet(spec) if spec.mtbf_secs.is_some_and(f64::is_infinite)
        ));
        // 'none' only disables flags documented to support it.
        let err = parse(&argv("sim --backend fault --checkpoint-secs none")).unwrap_err();
        assert!(err.contains("expects a number of seconds"), "{err}");
        // A load that rounds the mean inter-arrival time to zero is
        // rejected too, instead of reaching the arrival sampler.
        let err = parse(&argv("sim --load 1e300")).unwrap_err();
        assert!(err.starts_with("--load must be a positive number"), "{err}");
    }

    #[test]
    fn parses_schedule_flag_everywhere() {
        assert!(matches!(
            cmd("sim --backend physical --schedule zb-h1"),
            Command::Sim(spec) if spec.schedule == Some(ScheduleKind::ZbH1)
        ));
        assert!(matches!(
            cmd("sim --backend coarse --schedule interleaved"),
            Command::Sim(spec) if spec.schedule == Some(ScheduleKind::Interleaved { chunks: 2 })
        ));
        assert!(matches!(
            cmd("sim --backend fault --schedule interleaved:4"),
            Command::Sim(spec) if spec.schedule == Some(ScheduleKind::Interleaved { chunks: 4 })
        ));
        assert!(matches!(
            cmd("fleet --schedule zb-h1"),
            Command::Fleet(spec) if spec.schedule == Some(ScheduleKind::ZbH1)
        ));
        assert!(matches!(
            cmd("timeline --schedule interleaved:3"),
            Command::Timeline {
                schedule: ScheduleKind::Interleaved { chunks: 3 },
                ..
            }
        ));
        let err = parse(&argv("sim --schedule bidirectional")).unwrap_err();
        assert!(err.contains("unknown schedule"), "{err}");
        let err = parse(&argv("fleet --schedule interleaved:0")).unwrap_err();
        assert!(err.contains("at least 1 chunk"), "{err}");
        let err = parse(&argv("timeline --schedule 2f2b")).unwrap_err();
        assert!(err.contains("unknown schedule"), "{err}");
    }

    /// Every surface that accepts a schedule spelling — `sim`, `fleet`,
    /// `timeline` via `--schedule`, and `verify-schedule`'s positional —
    /// rejects malformed spellings with the grammar's exact messages,
    /// not a downstream panic or a silent default.
    #[test]
    fn malformed_schedules_are_rejected_on_every_surface() {
        let surfaces = [
            "sim --schedule {}",
            "sim --backend physical --schedule {}",
            "fleet --schedule {}",
            "timeline --schedule {}",
            "verify-schedule {}",
        ];
        let cases = [
            (
                "interleaved:0",
                "interleaved needs at least 1 chunk per device, got 'interleaved:0'",
            ),
            (
                "interleaved:02",
                "interleaved chunk count must be a canonical decimal \
                 (write 'interleaved:2'), got '02'",
            ),
            (
                "interleaved:+2",
                "interleaved chunk count must be a canonical decimal \
                 (write 'interleaved:2'), got '+2'",
            ),
            (
                "interleaved:two",
                "interleaved chunk count must be an integer, got 'two'",
            ),
            (
                "2f2b",
                "unknown schedule '2f2b' (gpipe|1f1b|interleaved[:v]|zb-h1)",
            ),
        ];
        for surface in surfaces {
            for (spelling, message) in cases {
                let err = parse(&argv(&surface.replace("{}", spelling))).unwrap_err();
                assert_eq!(err, message, "{surface} / {spelling}");
            }
        }
    }

    #[test]
    fn parses_verify_schedule_command() {
        assert_eq!(
            cmd("verify-schedule zb-h1"),
            Command::VerifySchedule {
                target: VerifyTarget::Kind(ScheduleKind::ZbH1),
                stages: 8,
                microbatches: 8,
                memory_limit: None,
                json: false,
            }
        );
        assert_eq!(
            cmd("verify-schedule 1f1b --stages 4 --microbatches 16 \
                 --memory-limit 4 --format json"),
            Command::VerifySchedule {
                target: VerifyTarget::Kind(ScheduleKind::OneFOneB),
                stages: 4,
                microbatches: 16,
                memory_limit: Some(4),
                json: true,
            }
        );
        // Anything path-shaped is a stream file, resolved at run time.
        assert_eq!(
            cmd("verify-schedule examples/streams/deadlock.toml"),
            Command::VerifySchedule {
                target: VerifyTarget::File("examples/streams/deadlock.toml".into()),
                stages: 8,
                microbatches: 8,
                memory_limit: None,
                json: false,
            }
        );
        let err = parse(&argv("verify-schedule")).unwrap_err();
        assert!(err.contains("schedule name or a stream file"), "{err}");
        // Shape flags contradict a file target's own header.
        let err = parse(&argv("verify-schedule s.toml --stages 4")).unwrap_err();
        assert!(err.contains("does not apply to stream-file"), "{err}");
        let err = parse(&argv("verify-schedule gpipe --stages 0")).unwrap_err();
        assert!(err.contains("at least 1"), "{err}");
        let err = parse(&argv("verify-schedule gpipe --format yaml")).unwrap_err();
        assert!(err.contains("expects human|json"), "{err}");
        let err = parse(&argv("verify-schedule gpipe --width 80")).unwrap_err();
        assert!(err.contains("unknown flag --width"), "{err}");
    }

    #[test]
    fn parses_certify_schedules_command() {
        assert_eq!(
            cmd("certify-schedules"),
            Command::CertifySchedules {
                write: false,
                out: "schedcert-report.json".into(),
            }
        );
        assert_eq!(
            cmd("certify-schedules --mode write --out /tmp/r.json"),
            Command::CertifySchedules {
                write: true,
                out: "/tmp/r.json".into(),
            }
        );
        let err = parse(&argv("certify-schedules --mode verify")).unwrap_err();
        assert!(err.contains("expects check|write"), "{err}");
    }

    #[test]
    fn parses_agree_command() {
        assert_eq!(
            cmd("agree --seeds 5 --iterations 100"),
            exp(ScenarioSpec::experiment("agree")
                .with_seeds(5)
                .with_iterations(100))
        );
        assert_eq!(runs("agree"), ["fig6_agreement"]);
    }

    #[test]
    fn agree_rejects_unknown_flags_and_degenerate_values() {
        // The same unknown-flag error path as every other command.
        let err = parse(&argv("agree --bogus 3")).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        let err = parse(&argv("agree --seed 5")).unwrap_err();
        assert!(
            err.starts_with("--seed does not apply to experiment 'fig6_agreement'"),
            "{err}"
        );
        // Degenerate grids error out instead of silently doing nothing.
        let err = parse(&argv("agree --seeds 0")).unwrap_err();
        assert!(err.contains("--seeds must be at least 1"), "{err}");
        let err = parse(&argv("agree --iterations 0")).unwrap_err();
        assert!(err.contains("--iterations must be at least 1"), "{err}");
    }

    #[test]
    fn parses_faults_command_and_rejects_bad_flags() {
        assert_eq!(runs("faults"), ["whatif_faults"]);
        assert_eq!(
            cmd("faults --iterations 50 --seed 9"),
            exp(ScenarioSpec::experiment("faults")
                .with_iterations(50)
                .with_seed(9))
        );
        let err = parse(&argv("faults --bogus 3")).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        let err = parse(&argv("faults --mtbf-secs 600")).unwrap_err();
        assert!(err.contains("unknown flag --mtbf-secs"), "{err}");
        let err = parse(&argv("faults --iterations 0")).unwrap_err();
        assert!(err.contains("--iterations must be at least 1"), "{err}");
    }

    #[test]
    fn parses_fleet_command_with_defaults() {
        assert_eq!(
            cmd("fleet"),
            Command::Fleet(ScenarioSpec::run(BackendKind::Fleet))
        );
        // Unset flags take the fleet scenario's defaults at lowering.
        match lowered("fleet") {
            BackendConfig::Fleet(cfg) => {
                assert_eq!(cfg.jobs.len(), 8);
                assert!(cfg.jobs.iter().all(|job| job.iterations == 150));
                assert_eq!(cfg.seed, 7);
                assert_eq!(cfg.mtbf, SimDuration::from_secs(1800));
                assert_eq!(cfg.policy, PolicyKind::Fifo);
                assert!(cfg.fast_forward);
            }
            other => panic!("wrong backend: {other:?}"),
        }
        // The GPU budget defaults to 128 per job.
        match lowered("fleet --jobs 4") {
            BackendConfig::Fleet(cfg) => {
                let gpus: usize = cfg
                    .jobs
                    .iter()
                    .map(|job| job.main_job.parallelism.total_gpus())
                    .sum();
                assert_eq!((cfg.jobs.len(), gpus), (4, 512));
            }
            other => panic!("wrong backend: {other:?}"),
        }
        // 'none' disables fault injection.
        match lowered("fleet --mtbf-secs none") {
            BackendConfig::Fleet(cfg) => assert_eq!(cfg.mtbf, SimDuration::MAX),
            other => panic!("wrong backend: {other:?}"),
        }
        assert_eq!(
            cmd("fleet --jobs 64 --gpus 8192 --iterations 200 --seed 3 \
                 --mtbf-secs 600 --policy sjf --schedule 1f1b"),
            Command::Fleet(
                ScenarioSpec::run(BackendKind::Fleet)
                    .with_jobs(64)
                    .with_gpus(8192)
                    .with_iterations(200)
                    .with_seed(3)
                    .with_mtbf_secs(600.0)
                    .with_policy(PolicyKind::Sjf)
                    .with_schedule(ScheduleKind::OneFOneB)
            )
        );
    }

    #[test]
    fn fleet_rejects_unknown_flags_and_degenerate_values() {
        // Unknown and other-command flags are rejected, not dropped.
        let err = parse(&argv("fleet --bogus 3")).unwrap_err();
        assert!(err.contains("unknown flag --bogus"), "{err}");
        let err = parse(&argv("fleet --load 2.0")).unwrap_err();
        assert!(err.contains("unknown flag --load"), "{err}");
        let err = parse(&argv("fleet --fill-fraction 0.9")).unwrap_err();
        assert!(err.contains("unknown flag --fill-fraction"), "{err}");
        let err = parse(&argv("fleet --checkpoint-secs 2")).unwrap_err();
        assert!(err.contains("unknown flag --checkpoint-secs"), "{err}");
        // Degenerate grids error out instead of silently doing nothing.
        let err = parse(&argv("fleet --jobs 0")).unwrap_err();
        assert!(err.contains("--jobs must be at least 1"), "{err}");
        let err = parse(&argv("fleet --iterations 0")).unwrap_err();
        assert!(err.contains("--iterations must be at least 1"), "{err}");
        let err = parse(&argv("fleet --jobs 4 --gpus 16")).unwrap_err();
        assert!(err.contains("under 8 GPUs per job"), "{err}");
        // The default budget of 128 GPUs per job must not wrap.
        let err = parse(&argv("fleet --jobs 288230376151711744")).unwrap_err();
        assert!(err.starts_with("--jobs must be at most"), "{err}");
        let err = parse(&argv("fleet --mtbf-secs 0")).unwrap_err();
        assert!(err.contains("finite positive"), "{err}");
        let err = parse(&argv("fleet --mtbf-secs soon")).unwrap_err();
        assert!(
            err.contains("expects a number of seconds or 'none'"),
            "{err}"
        );
        let err = parse(&argv("fleet --policy quantum")).unwrap_err();
        assert!(err.contains("unknown policy 'quantum'"), "{err}");
        // The fleet backend has its own subcommand; `sim` points there.
        let err = parse(&argv("sim --backend fleet")).unwrap_err();
        assert!(err.contains("use the 'fleet' subcommand"), "{err}");
    }

    #[test]
    fn parses_fast_forward_flag() {
        // Applies to the iteration-loop backends and the fleet; default on.
        assert!(matches!(
            cmd("sim --backend physical --fast-forward off"),
            Command::Sim(spec) if spec.fast_forward == Some(false)
        ));
        assert!(matches!(
            cmd("sim --backend fault --fast-forward on"),
            Command::Sim(spec) if spec.fast_forward == Some(true)
        ));
        assert!(matches!(
            cmd("fleet --fast-forward off"),
            Command::Fleet(spec) if spec.fast_forward == Some(false)
        ));
        // The coarse backend has no iteration loop to skip.
        let err = parse(&argv("sim --backend coarse --fast-forward off")).unwrap_err();
        assert!(
            err.contains("does not apply to the coarse backend"),
            "{err}"
        );
        let err = parse(&argv("sim --backend fault --fast-forward maybe")).unwrap_err();
        assert!(err.contains("expects on|off"), "{err}");
        let err = parse(&argv("timeline --fast-forward off")).unwrap_err();
        assert!(err.contains("unknown flag --fast-forward"), "{err}");
    }

    #[test]
    fn parses_timeline_options() {
        let c = cmd("timeline --schedule 1f1b --stages 4 --microbatches 6 --width 80");
        assert_eq!(
            c,
            Command::Timeline {
                schedule: ScheduleKind::OneFOneB,
                stages: 4,
                microbatches: 6,
                width: 80
            }
        );
        for zero in ["--stages 0", "--microbatches 0", "--width 0"] {
            let err = parse(&argv(&format!("timeline {zero}"))).unwrap_err();
            assert!(err.contains("must be at least 1"), "{zero}: {err}");
        }
    }

    #[test]
    fn parses_plan_models_case_insensitively() {
        let c = cmd("plan --model Bert-Large --kind training --stage 3");
        assert_eq!(
            c,
            Command::Plan {
                model: ModelId::BertLarge,
                kind: JobKind::Training,
                stage: 3
            }
        );
        let c = cmd("plan --model resnet-50 --kind inf --stage 0");
        assert!(matches!(
            c,
            Command::Plan {
                model: ModelId::ResNet50,
                ..
            }
        ));
    }

    #[test]
    fn rejects_unknowns() {
        assert!(parse(&argv("frobnicate")).is_err());
        assert!(parse(&argv("fig5 --bogus 3")).is_err());
        assert!(parse(&argv("fig5 --iterations abc")).is_err());
        assert!(parse(&argv("fig5 --iterations")).is_err());
        assert!(parse(&argv("fig4 --iterations 3")).is_err());
        assert!(parse(&argv("plan --model nonesuch")).is_err());
        assert!(parse(&[]).is_err());
    }
}
