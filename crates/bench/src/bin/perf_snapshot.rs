//! Perf-snapshot harness: measures steady-state fast-forward wall-clock
//! wins and pins them in checked-in JSON snapshots.
//!
//! Two documents live at the repository root:
//!
//! * `BENCH_fleet.json` — the fleet backend. The `full`-profile headline
//!   simulates a week of a 1000-job / 112,000-GPU fleet both with the
//!   skip on and at event fidelity; the `ci`-profile entry is a day-long
//!   32-job fleet small enough for the CI gate to re-measure.
//! * `BENCH_engine.json` — the single-job physical backend at two
//!   iteration horizons.
//!
//! Modes:
//!
//! * `perf_snapshot` (no flags) regenerates both files, measuring every
//!   entry including the headline's event-fidelity baseline — expect
//!   several minutes.
//! * `perf_snapshot --check [--profile ci|full|all]` parses and
//!   validates the checked-in files, enforces the recorded speedup
//!   floor, then re-measures the selected profile (default `ci`) and
//!   fails on a skip count that differs from the recorded one, on a
//!   fresh speedup below the floor or — when the recorded
//!   `runner_class` matches `PERF_RUNNER_CLASS` (default `local-dev`) —
//!   on a wall-clock regression beyond the tolerance. The skip count is
//!   deterministic, so it is compared on every machine class; wall
//!   numbers from a different machine class are reported but not
//!   compared.
#![forbid(unsafe_code)]

use std::time::Instant;

use pipefill_bench::snapshot::{
    Entry, Snapshot, NOISE_FLOOR_SECS, REGRESSION_TOLERANCE, SCHEMA, SPEEDUP_FLOOR,
};
use pipefill_core::{BackendConfig, FleetJobConfig, FleetSimConfig, PhysicalSimConfig};
use pipefill_model_zoo::ModelId;
use pipefill_pipeline::{MainJobSpec, ParallelismConfig, ScheduleKind};
use pipefill_trace::ModelMix;

/// Fleet fill-job size (job-GPU-hours). Large enough to keep the
/// completed-id volume tractable at week scale, small enough that the
/// steady-state detector still proves a cycle under GPipe.
const FLEET_BACKLOG: f64 = 0.002;

/// Physical-backend fill-job size: the regime every schedule detects in.
const ENGINE_BACKLOG: f64 = 0.0005;

/// One measurement the harness knows how to (re)run.
struct Spec {
    name: &'static str,
    profile: &'static str,
    /// Fleet entries run this many concurrent jobs; `None` selects the
    /// single-job physical backend.
    fleet_jobs: Option<usize>,
    /// Simulated horizon: wall of the main job, in simulated seconds
    /// (fleet) or iterations (engine).
    horizon_secs: f64,
    iterations: usize,
}

fn fleet_specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "fleet_week_headline",
            profile: "full",
            fleet_jobs: Some(1000),
            horizon_secs: 604_800.0,
            iterations: 0,
        },
        Spec {
            name: "fleet_day_gate",
            profile: "ci",
            fleet_jobs: Some(32),
            horizon_secs: 86_400.0,
            iterations: 0,
        },
    ]
}

fn engine_specs() -> Vec<Spec> {
    vec![
        Spec {
            name: "engine_1m_iters",
            profile: "full",
            fleet_jobs: None,
            horizon_secs: 0.0,
            iterations: 1_000_000,
        },
        Spec {
            name: "engine_100k_iters",
            profile: "ci",
            fleet_jobs: None,
            horizon_secs: 0.0,
            iterations: 100_000,
        },
    ]
}

/// The headline fleet job: tp=2 / pp=8 / dp=7 — 112 GPUs per job, so a
/// thousand of them model a >100K-GPU fleet.
fn fleet_main_job() -> MainJobSpec {
    let mut main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    main.parallelism = ParallelismConfig::new(2, 8, 7, 2, 112);
    main
}

/// A quiescent fleet config — no jitter draws, deterministic single-model
/// mix, no failure injection — the regime the detector arms in.
fn fleet_config(jobs: usize, iterations: usize, fast_forward: bool) -> BackendConfig {
    let main = fleet_main_job();
    let jobs = (0..jobs)
        .map(|j| {
            let mut job = FleetJobConfig::new(main.clone());
            job.iterations = iterations;
            job.seed = 7 + j as u64;
            job
        })
        .collect();
    let mut cfg = FleetSimConfig::new(jobs);
    cfg.jitter_cv = 0.0;
    cfg.deterministic_mix = true;
    cfg.mix = ModelMix::single(ModelId::EfficientNet);
    cfg.backlog_job_gpu_hours = FLEET_BACKLOG;
    cfg.fast_forward = fast_forward;
    BackendConfig::Fleet(cfg)
}

/// The quiescent single-job physical config at a given horizon.
fn engine_config(iterations: usize, fast_forward: bool) -> BackendConfig {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let mut cfg = PhysicalSimConfig::new(main).with_fill_fraction(0.68);
    cfg.iterations = iterations;
    cfg.seed = 7;
    cfg.jitter_cv = 0.0;
    cfg.deterministic_mix = true;
    cfg.mix = ModelMix::single(ModelId::EfficientNet);
    cfg.backlog_job_gpu_hours = ENGINE_BACKLOG;
    cfg.fast_forward = fast_forward;
    BackendConfig::Physical(cfg)
}

/// Runs one spec in both modes and returns the measured entry.
///
/// Besides timing, this cross-checks the invariant the snapshot's value
/// rests on: the skipped and event-fidelity runs must agree bit-for-bit
/// on the accumulated fill flops.
fn measure(spec: &Spec) -> Result<Entry, String> {
    let (cfg_on, cfg_off, jobs, gpus) = match spec.fleet_jobs {
        Some(jobs) => {
            let main = fleet_main_job();
            let period = main.engine_timeline().period.as_secs_f64();
            let iters = (spec.horizon_secs / period).ceil() as usize;
            (
                fleet_config(jobs, iters, true),
                fleet_config(jobs, iters, false),
                jobs as u64,
                (jobs * main.parallelism.total_gpus()) as u64,
            )
        }
        None => {
            let gpus = MainJobSpec::physical_5b(8, ScheduleKind::GPipe)
                .parallelism
                .total_gpus() as u64;
            (
                engine_config(spec.iterations, true),
                engine_config(spec.iterations, false),
                1,
                gpus,
            )
        }
    };

    let t = Instant::now();
    let run_on = cfg_on.run();
    let wall_on = t.elapsed().as_secs_f64().max(1e-6);

    let t = Instant::now();
    let run_off = cfg_off.run();
    let wall_off = t.elapsed().as_secs_f64().max(1e-6);

    let skipped = run_on
        .as_physical()
        .map(|r| r.iterations_fast_forwarded)
        .or_else(|| run_on.as_fleet().map(|r| r.iterations_fast_forwarded))
        .expect("simulation backends report the skip counter");
    if skipped == 0 {
        return Err(format!(
            "{}: fast-forward never fired; the measurement is meaningless",
            spec.name
        ));
    }
    let (flops_on, flops_off) = (
        run_on.metrics().fill_flops.to_bits(),
        run_off.metrics().fill_flops.to_bits(),
    );
    if flops_on != flops_off {
        return Err(format!(
            "{}: fast-forward changed fill_flops ({flops_on:#x} vs {flops_off:#x})",
            spec.name
        ));
    }

    Ok(Entry {
        name: spec.name.to_string(),
        profile: spec.profile.to_string(),
        jobs,
        gpus,
        simulated_secs: run_on.metrics().elapsed.as_secs_f64(),
        iterations_fast_forwarded: skipped,
        wall_secs_ff_on: wall_on,
        wall_secs_ff_off: wall_off,
        speedup: wall_off / wall_on,
    })
}

fn runner_class() -> String {
    std::env::var("PERF_RUNNER_CLASS").unwrap_or_else(|_| "local-dev".to_string())
}

/// `<repo root>/<file>` — the snapshots live next to the README.
fn snapshot_path(file: &str) -> std::path::PathBuf {
    let mut p = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("../..");
    p.push(file);
    p
}

fn write_snapshots() -> Result<(), String> {
    for (file, specs) in [
        ("BENCH_fleet.json", fleet_specs()),
        ("BENCH_engine.json", engine_specs()),
    ] {
        let mut entries = Vec::new();
        for spec in &specs {
            eprintln!("measuring {} ({})...", spec.name, spec.profile);
            let entry = measure(spec)?;
            eprintln!(
                "  on={:.2}s off={:.2}s speedup={:.1}x",
                entry.wall_secs_ff_on, entry.wall_secs_ff_off, entry.speedup
            );
            entries.push(entry);
        }
        let snapshot = Snapshot {
            schema: SCHEMA.to_string(),
            runner_class: runner_class(),
            entries,
        };
        snapshot.validate()?;
        let path = snapshot_path(file);
        std::fs::write(&path, snapshot.to_json())
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn check_snapshots(profile: &str) -> Result<(), String> {
    let current_class = runner_class();
    for (file, specs) in [
        ("BENCH_fleet.json", fleet_specs()),
        ("BENCH_engine.json", engine_specs()),
    ] {
        let path = snapshot_path(file);
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading {}: {e}", path.display()))?;
        let snapshot = Snapshot::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        snapshot.validate().map_err(|e| format!("{file}: {e}"))?;
        for e in &snapshot.entries {
            if e.speedup > 0.0 && e.speedup < SPEEDUP_FLOOR {
                return Err(format!(
                    "{file}: recorded speedup for '{}' is {:.1}x, below the {SPEEDUP_FLOOR}x floor",
                    e.name, e.speedup
                ));
            }
        }
        println!("{file}: schema + recorded-speedup checks passed");

        for spec in specs
            .iter()
            .filter(|s| profile == "all" || s.profile == profile)
        {
            let recorded = snapshot
                .entries
                .iter()
                .find(|e| e.name == spec.name)
                .ok_or_else(|| format!("{file}: missing entry '{}'", spec.name))?;
            eprintln!("re-measuring {}...", spec.name);
            let fresh = measure(spec)?;
            println!(
                "{}: fresh on={:.2}s off={:.2}s speedup={:.1}x (recorded {:.2}s/{:.2}s)",
                spec.name,
                fresh.wall_secs_ff_on,
                fresh.wall_secs_ff_off,
                fresh.speedup,
                recorded.wall_secs_ff_on,
                recorded.wall_secs_ff_off,
            );
            recorded
                .check_skip_count(&fresh)
                .map_err(|e| format!("{file}: {e}"))?;
            if fresh.speedup < SPEEDUP_FLOOR {
                return Err(format!(
                    "{file}: fresh speedup for '{}' is {:.1}x, below the {SPEEDUP_FLOOR}x floor",
                    spec.name, fresh.speedup
                ));
            }
            if snapshot.runner_class != current_class {
                println!(
                    "  wall-clock gate skipped: snapshot is from runner class '{}', this is '{}'",
                    snapshot.runner_class, current_class
                );
                continue;
            }
            let limit = 1.0 + REGRESSION_TOLERANCE;
            if fresh.wall_secs_ff_on > recorded.wall_secs_ff_on * limit + NOISE_FLOOR_SECS {
                return Err(format!(
                    "{file}: '{}' fast-forward wall regressed {:.2}s -> {:.2}s (>{:.0}%)",
                    spec.name,
                    recorded.wall_secs_ff_on,
                    fresh.wall_secs_ff_on,
                    REGRESSION_TOLERANCE * 100.0
                ));
            }
            if fresh.wall_secs_ff_off > recorded.wall_secs_ff_off * limit + NOISE_FLOOR_SECS {
                return Err(format!(
                    "{file}: '{}' event-fidelity wall regressed {:.2}s -> {:.2}s (>{:.0}%)",
                    spec.name,
                    recorded.wall_secs_ff_off,
                    fresh.wall_secs_ff_off,
                    REGRESSION_TOLERANCE * 100.0
                ));
            }
        }
    }
    Ok(())
}

fn run() -> Result<(), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut check = false;
    let mut profile = String::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--check" => check = true,
            "--profile" => {
                profile = it
                    .next()
                    .ok_or_else(|| "--profile needs a value".to_string())?
                    .clone();
                if !matches!(profile.as_str(), "ci" | "full" | "all") {
                    return Err(format!("--profile expects ci|full|all, got '{profile}'"));
                }
            }
            other => {
                return Err(format!(
                    "unknown flag '{other}' (usage: perf_snapshot [--check] [--profile ci|full|all])"
                ));
            }
        }
    }
    if check {
        check_snapshots(if profile.is_empty() { "ci" } else { &profile })
    } else {
        if !profile.is_empty() {
            return Err("--profile only applies to --check; writing measures everything".into());
        }
        write_snapshots()
    }
}

fn main() {
    if let Err(message) = run() {
        eprintln!("perf_snapshot: {message}");
        std::process::exit(1);
    }
}
