//! Command implementations: thin glue over the scenario API and the
//! experiment registry.
//!
//! Every command that runs something holds a
//! [`ScenarioSpec`](pipefill_scenario::ScenarioSpec) (`exp`, the legacy
//! per-figure aliases, `run <file>`, `sim`, `fleet`). An experiment
//! scenario resolves to registry experiments that run through the
//! generic table/CSV path, as `all` runs the whole registry; a run
//! scenario lowers to a backend run. No command owns bespoke persistence
//! or per-driver printing anymore.

use std::process::ExitCode;

use pipefill_core::experiments::sweep;
use pipefill_core::{
    BackendConfig, BackendDetail, BackendKind, BackendMetrics, BackendRun, FleetSimResult,
    StagePlans, EXPERIMENTS_DIR,
};
use pipefill_executor::{ExecutorConfig, PlanError};
use pipefill_pipeline::{render_timeline, EngineConfig, MainJobSpec, ScheduleKind};
use pipefill_scenario::{toml as scenario_toml, Experiment, Grid, Scale};
use pipefill_schedverify::{certificate, verify, StreamSet, Verdict, VerifyConfig};
use pipefill_sim_core::SimDuration;

use crate::args::{Command, Invocation, VerifyTarget, USAGE};

/// Runs one experiment: print the table, any experiment-declared
/// summary line, and persist the CSV.
fn run_experiment(exp: &dyn Experiment, grid: &Grid, out: &str) -> Result<(), String> {
    println!("== {} — {} ==", exp.name(), exp.description());
    let table = exp.run(grid);
    table.print();
    if let Some(summary) = exp.summary(&table) {
        println!("{summary}");
    }
    let path = format!("{out}/{}.csv", exp.name());
    table
        .save(&path)
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("CSV written to {path}\n");
    Ok(())
}

/// Executes a parsed invocation and reports the process exit code:
/// success for every command that ran, and the dedicated rejection code
/// for `verify-schedule` / `certify-schedules` when the verdict (or the
/// byte comparison) fails.
///
/// # Errors
///
/// Returns a message for I/O failures, unknown experiments, invalid
/// scenarios, or infeasible plan requests (mapped to usage-error exit
/// status by `main`).
pub fn run(invocation: Invocation) -> Result<ExitCode, String> {
    let threads = sweep::set_threads(invocation.threads);
    match invocation.command {
        Command::Help => println!("{USAGE}"),
        Command::ExpList => {
            println!(
                "{} registered experiments (run with `exp <name>`, `all`, or a \
                 scenario file with `experiment = \"<name>\"`):\n",
                pipefill_scenario::REGISTRY.len()
            );
            for exp in pipefill_scenario::REGISTRY {
                let tag = if exp.simulation_backed() {
                    "sim"
                } else {
                    "analysis"
                };
                let aliases = if exp.aliases().is_empty() {
                    String::new()
                } else {
                    format!(" (alias: {})", exp.aliases().join(", "))
                };
                println!(
                    "  {:<26} [{tag:>8}] {}{aliases}",
                    exp.name(),
                    exp.description()
                );
            }
        }
        Command::Exp { spec, out } => {
            let out = out.as_deref().unwrap_or(EXPERIMENTS_DIR);
            for (exp, grid) in spec.experiments()? {
                run_experiment(exp, &grid, out)?;
            }
        }
        Command::All { out } => {
            for &exp in pipefill_scenario::REGISTRY {
                run_experiment(exp, &exp.grid(Scale::Full), &out)?;
            }
            println!("CSV written under {out}/ ({threads} threads)");
        }
        Command::RunScenario { path, sets } => {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("reading scenario {path}: {e}"))?;
            let mut spec =
                scenario_toml::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
            for (key, value) in &sets {
                spec.set(key, value)
                    .map_err(|e| format!("--set {key}={value}: {e}"))?;
            }
            spec.validate()?;
            if let Some(name) = spec.name.as_deref() {
                println!("scenario: {name} ({path})");
            }
            if spec.experiment.is_some() {
                for (exp, grid) in spec.experiments()? {
                    run_experiment(exp, &grid, EXPERIMENTS_DIR)?;
                }
            } else {
                let run = spec.lower()?.run();
                print_metrics(run.metrics());
                print_fast_forward(&run);
                // Fault runs carry a one-job fleet detail too; only a
                // fleet run prints the per-job table.
                if let (BackendKind::Fleet, Some(detail)) = (run.metrics().kind, run.as_fleet()) {
                    println!();
                    print_fleet_jobs(detail);
                    println!("failures:           {}", detail.failures);
                    println!(
                        "cross-job resumes:  {} (peak queue depth {})",
                        detail.cross_job_dispatches, detail.peak_queue_depth
                    );
                }
            }
        }
        Command::Fleet(spec) => {
            let BackendConfig::Fleet(cfg) = spec.lower()? else {
                unreachable!("fleet scenarios lower to the fleet backend");
            };
            let (jobs, iterations) = (cfg.jobs.len(), cfg.jobs[0].iterations);
            let (schedule, policy) = (cfg.jobs[0].main_job.schedule, cfg.policy);
            let run = BackendConfig::Fleet(cfg).run();
            let detail = run.as_fleet().expect("fleet scenario yields fleet detail");
            println!(
                "fleet of {jobs} jobs over {} GPUs ({} simulated devices, \
                 {iterations} iterations each, {schedule} main jobs, \
                 {policy} global queue, {threads} threads):\n",
                detail.total_gpus, detail.num_devices
            );
            print_fleet_jobs(detail);
            println!();
            print_metrics(run.metrics());
            print_fast_forward(&run);
            println!("failures:           {}", detail.failures);
            println!(
                "cross-job resumes:  {} (peak queue depth {})",
                detail.cross_job_dispatches, detail.peak_queue_depth
            );
        }
        Command::Sim(spec) => {
            let run = spec.lower()?.run();
            print_metrics(run.metrics());
            print_fast_forward(&run);
        }
        Command::Timeline {
            schedule,
            stages,
            microbatches,
            width,
        } => {
            // Representative per-microbatch stage times (the 40B job's
            // calibration: backward = 2× forward).
            let tl = EngineConfig::uniform(
                schedule,
                stages,
                microbatches,
                SimDuration::from_millis(43),
                SimDuration::from_millis(86),
            )
            .run();
            println!(
                "{schedule} with {stages} stages × {microbatches} microbatches \
                 (bubble ratio {:.1}%, fillable {:.1}%):\n",
                100.0 * tl.bubble_ratio(),
                100.0 * tl.fillable_ratio()
            );
            println!("{}", render_timeline(&tl, width));
        }
        Command::VerifySchedule {
            target,
            stages,
            microbatches,
            memory_limit,
            json,
        } => {
            let (label, set) = match &target {
                VerifyTarget::Kind(kind) => (
                    kind.to_string(),
                    StreamSet::from_schedule(*kind, stages, microbatches),
                ),
                VerifyTarget::File(path) => {
                    let text = std::fs::read_to_string(path)
                        .map_err(|e| format!("reading stream file {path}: {e}"))?;
                    let set =
                        StreamSet::parse(&text).map_err(|e| format!("parsing {path}: {e}"))?;
                    (path.clone(), set)
                }
            };
            // The 40B calibration the timeline command renders with:
            // backward = 2× forward.
            let mut cfg =
                VerifyConfig::new(SimDuration::from_millis(43), SimDuration::from_millis(86));
            if let VerifyTarget::Kind(kind) = target {
                cfg = cfg.with_schedule(kind);
            }
            if let Some(limit) = memory_limit {
                cfg = cfg.with_memory_limit(limit);
            }
            let verdict = verify(&set, &cfg);
            if json {
                print!("{}", certificate::verdict_json(&label, &set, &verdict));
            } else {
                print_verdict(&label, &set, &verdict);
            }
            return Ok(if verdict.certified() {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            });
        }
        Command::CertifySchedules { write, out } => {
            let report = certificate::certify_grid();
            if write {
                std::fs::write(&out, &report.json).map_err(|e| format!("writing {out}: {e}"))?;
                println!("certificate grid written to {out}");
            } else {
                let pinned = std::fs::read_to_string(&out).map_err(|e| {
                    format!("reading pinned report {out}: {e} (run --mode write to create it)")
                })?;
                if pinned != report.json {
                    eprintln!(
                        "certificate drift: {out} does not match the regenerated grid \
                         (run `certify-schedules --mode write` and review the diff)"
                    );
                    return Ok(ExitCode::from(1));
                }
                println!("certificate grid matches {out} byte-for-byte");
            }
            if !report.all_certified {
                eprintln!("certificate grid contains uncertified entries");
                return Ok(ExitCode::from(1));
            }
            return Ok(ExitCode::SUCCESS);
        }
        Command::Plan { model, kind, stage } => {
            let main = MainJobSpec::simulator_40b(8, ScheduleKind::GPipe);
            let plans = StagePlans::homogeneous(
                &main.engine_timeline(),
                &main.device,
                ExecutorConfig::default(),
            );
            if stage >= plans.stages() {
                return Err(format!(
                    "stage {stage} out of range (0..{})",
                    plans.stages()
                ));
            }
            println!("bubbles on stage {stage} (one per main-job iteration):");
            for (i, w) in plans.windows(stage).iter().enumerate() {
                println!(
                    "  slot {i}: {} ({}), free {}",
                    w.duration, w.kind, w.free_memory
                );
            }
            let plan = plans.plan(model, kind, stage).ok_or_else(|| {
                format!(
                    "no feasible plan for {model} {kind} on stage {stage}: {}",
                    PlanError::NoFeasibleConfig
                )
            })?;
            println!("\nchosen configuration: {}", plan.config);
            println!(
                "pass: {} partitions, {} fill iterations, {} samples, spans {} main iterations",
                plan.partitions.len(),
                plan.iterations_per_pass,
                plan.samples_per_pass,
                plan.main_iterations_per_pass
            );
            for (i, p) in plan.partitions.iter().enumerate() {
                println!(
                    "  partition {i:>2} → slot {} | {:>3} nodes | {:>10} | peak {}",
                    p.bubble_index,
                    p.node_count,
                    p.duration.to_string(),
                    p.memory
                );
            }
        }
    }
    Ok(ExitCode::SUCCESS)
}

/// The human-readable verdict report for `verify-schedule`.
fn print_verdict(label: &str, set: &StreamSet, verdict: &Verdict) {
    println!(
        "schedcheck: {label} — {} stages × {} microbatches{}",
        set.stages(),
        set.microbatches,
        if set.chunks > 1 {
            format!(" × {} chunks", set.chunks)
        } else {
            String::new()
        }
    );
    if let Some(stats) = &verdict.stats {
        println!("  instructions:      {}", stats.instructions);
        println!("  dependency edges:  {}", stats.dependency_edges);
        let peaks: Vec<String> = stats.memory_peaks.iter().map(u64::to_string).collect();
        println!("  memory peaks:      [{}] microbatches", peaks.join(", "));
        println!("  steady period:     {}", stats.period);
        println!(
            "  bubble fraction:   {:.4} (static longest path)",
            stats.bubble_fraction_static
        );
        if let Some(cf) = stats.closed_form {
            println!(
                "  closed form:       {:.4} ({}, {})",
                cf.expected,
                cf.relation.as_str(),
                if cf.holds { "holds" } else { "VIOLATED" }
            );
        }
    }
    if verdict.certified() {
        println!("  verdict:           CERTIFIED");
    } else {
        println!("  verdict:           REJECTED");
        for finding in &verdict.findings {
            println!("    {finding}");
        }
    }
}

fn print_fleet_jobs(detail: &FleetSimResult) {
    println!(
        "{:>4} {:>6} {:>7} {:>9} {:>6} {:>11} {:>11} {:>9} {:>6} {:>6}",
        "job",
        "GPUs",
        "stages",
        "device",
        "fill%",
        "fill TFLOPS",
        "main TFLOPS",
        "slowdown",
        "fills",
        "evict"
    );
    for j in &detail.jobs {
        println!(
            "{:>4} {:>6} {:>7} {:>9} {:>5.0}% {:>11.2} {:>11.2} {:>8.2}% {:>6} {:>6}",
            j.job,
            j.gpus,
            j.stages,
            j.device,
            100.0 * j.fill_fraction,
            j.recovered_tflops_per_gpu,
            j.main_tflops_per_gpu,
            100.0 * j.main_slowdown,
            j.fill_jobs_completed,
            j.evictions,
        );
    }
}

fn print_metrics(m: &BackendMetrics) {
    println!("backend:            {}", m.kind);
    println!("devices:            {}", m.num_devices);
    println!("elapsed:            {}", m.elapsed);
    println!("events dispatched:  {}", m.events_dispatched);
    println!("bubble ratio:       {:.1}%", 100.0 * m.bubble_ratio);
    println!("jobs completed:     {}", m.jobs_completed);
    println!("fill FLOPs:         {:.3e}", m.fill_flops);
    println!(
        "recovered TFLOPS:   {:.2} per GPU",
        m.recovered_tflops_per_gpu
    );
    println!("main-job TFLOPS:    {:.2} per GPU", m.main_tflops_per_gpu);
    println!("main-job slowdown:  {:.2}%", 100.0 * m.main_slowdown);
    println!(
        "total TFLOPS:       {:.2} per GPU",
        m.total_tflops_per_gpu()
    );
    if matches!(m.kind, BackendKind::Fault | BackendKind::Fleet) {
        println!("evictions:          {}", m.evictions);
        println!("lost fill FLOPs:    {:.3e}", m.lost_fill_flops);
        println!("goodput fraction:   {:.1}%", 100.0 * m.goodput_fraction);
    }
}

/// Prints how many iterations steady-state fast-forward skipped. The
/// coarse backend has no iteration loop, so it prints nothing.
fn print_fast_forward(run: &BackendRun) {
    let skipped = match run.detail() {
        BackendDetail::Coarse(_) => return,
        BackendDetail::Physical(r) => r.iterations_fast_forwarded,
        BackendDetail::Fleet(r) => r.iterations_fast_forwarded,
    };
    println!("iterations fast-forwarded: {skipped}");
}
