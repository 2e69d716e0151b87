//! `perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints a table, then one JSON result line. With
//! `--workload all` each workload runs in a fresh child process, so one
//! workload's peak memory never shows in another's. `--manifest` and
//! `--layer-map` print the documents `BENCHMARK.json` and
//! `perfbench/layer_map.json` are generated from.
#![forbid(unsafe_code)]

use std::process::{Command, ExitCode};

use pipefill_perfbench::{pin_threads, run, spec, Scale, Workload};

const USAGE: &str = "usage: perfbench --workload <name|all> [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --manifest | --layer-map";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: String::new(),
        seed: 1,
        seconds: spec::RUN_SECONDS as f64,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--workload" => parsed.workload = value()?,
            "--seed" => {
                let v = value()?;
                parsed.seed = v
                    .parse()
                    .map_err(|_| format!("--seed expects an integer, got '{v}'"))?;
            }
            "--seconds" => {
                let v = value()?;
                parsed.seconds = v
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds expects a non-negative number, got '{v}'"))?;
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace expects 0 or 1, got '{other}'")),
                }
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    if parsed.workload.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// Runs every workload in its own child process, forwarding each one's
/// output; fails if any child fails.
fn run_all(args: &[String]) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the harness: {e}"))?;
    let mut failed = Vec::new();
    for workload in Workload::ALL {
        let mut child_args = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            if arg == "--workload" {
                it.next();
                child_args.extend(["--workload".to_string(), workload.name().to_string()]);
            } else {
                child_args.push(arg.clone());
            }
        }
        let status = Command::new(&exe)
            .args(&child_args)
            .status()
            .map_err(|e| format!("running {}: {e}", workload.name()))?;
        if !status.success() {
            failed.push(workload.name());
        }
    }
    if failed.is_empty() {
        Ok(())
    } else {
        Err(format!("failed: {}", failed.join(", ")))
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.as_slice() {
        [flag] if flag == "--manifest" => {
            print!("{}", spec::manifest());
            return ExitCode::SUCCESS;
        }
        [flag] if flag == "--layer-map" => {
            print!("{}", spec::layer_map());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    let parsed = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if parsed.workload == "all" {
        return match run_all(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let Some(workload) = Workload::from_name(&parsed.workload) else {
        eprintln!("perfbench: unknown workload '{}'\n{USAGE}", parsed.workload);
        return ExitCode::from(2);
    };
    let threads = pin_threads();
    eprintln!(
        "perfbench: {} seed {} for {} s, trace {}, {threads} threads",
        workload.name(),
        parsed.seed,
        parsed.seconds,
        u8::from(parsed.trace)
    );
    let report = run(
        workload,
        parsed.seed,
        parsed.seconds,
        parsed.trace,
        &Scale::FULL,
    );
    print!("{}", report.table());
    println!("{}", report.json_line());
    ExitCode::SUCCESS
}
