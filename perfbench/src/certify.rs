//! The `schedule_certify` workload: static verification, stream
//! execution and the engine timeline over every built-in schedule at
//! deep pipeline shapes. No backend runs.

use std::hint::black_box;
use std::time::{Duration, Instant};

use pipefill_pipeline::{EngineConfig, EngineTimeline, ScheduleKind};
use pipefill_schedverify::{verify, Property, StreamSet, Verdict, VerifyConfig};
use pipefill_sim_core::SimDuration;

use crate::{host_slowdown, median, mix_seed, peak_rss_mb, repeat, Report, Scale};

/// The two-stage wedge the schedule-certify CI job pins as rejected.
const DEADLOCK_STREAMS: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/../examples/streams/deadlock.toml"
);

/// One schedule at one shape, ready to verify and execute.
struct Case {
    kind: ScheduleKind,
    set: StreamSet,
    cfg: VerifyConfig,
    engine: EngineConfig,
}

/// Generates the input: every schedule at every shape, weighted with a
/// per-stage forward time drawn from the seed (5 to 15 ms) and backward
/// twice that (the r = 2 calibration, exact for ZB-H1's split).
fn set_up(seed: u64, scale: &Scale) -> Vec<Case> {
    let t_fwd = SimDuration::from_micros(5_000 + mix_seed(seed, 0xc3) % 10_000);
    let t_bwd = SimDuration::from_nanos(2 * t_fwd.as_nanos());
    let mut cases = Vec::new();
    for kind in ScheduleKind::ALL {
        for &(p, m) in scale.certify_shapes {
            let set = StreamSet::from_schedule(kind, p, m);
            let cfg = VerifyConfig::new(t_fwd, t_bwd).with_schedule(kind);
            let engine = cfg.engine_config(&set);
            cases.push(Case {
                kind,
                set,
                cfg,
                engine,
            });
        }
    }
    cases
}

/// What one pass over the cases produced.
struct Pass {
    verdicts: Vec<Verdict>,
    executed: Vec<bool>,
    timelines: Vec<EngineTimeline>,
    /// Host time per phase: verify, execute_streams, engine run.
    phase: [Duration; 3],
}

/// Adds the time since `since` to `total` and restarts the lap; a no-op
/// when untimed.
fn lap(total: &mut Duration, since: Option<Instant>) -> Option<Instant> {
    since.map(|t| {
        let now = Instant::now();
        *total += now - t;
        now
    })
}

/// Runs verify, execute_streams and the engine over every case. With
/// `timed`, each call is timed on its own.
fn pass(cases: &[Case], timed: bool) -> Pass {
    let mut phase = [Duration::ZERO; 3];
    let mut verdicts = Vec::with_capacity(cases.len());
    let mut executed = Vec::with_capacity(cases.len());
    let mut timelines = Vec::with_capacity(cases.len());
    for case in cases {
        let t = timed.then(Instant::now);
        verdicts.push(verify(&case.set, &case.cfg));
        let t = lap(&mut phase[0], t);
        executed.push(case.engine.execute_streams(&case.set.streams).is_ok());
        let t = lap(&mut phase[1], t);
        timelines.push(case.engine.run());
        lap(&mut phase[2], t);
    }
    Pass {
        verdicts,
        executed,
        timelines,
        phase,
    }
}

/// Correctness of one pass: every certified stream set executes, and
/// the static bubble fraction equals the engine's bit for bit.
fn check_pass(report: &mut Report, cases: &[Case], pass: &Pass) {
    for (i, case) in cases.iter().enumerate() {
        let label = format!(
            "{} p={} m={}",
            case.kind,
            case.set.stages(),
            case.set.microbatches
        );
        let verdict = &pass.verdicts[i];
        report.checks.check(verdict.certified(), || {
            format!("{label}: not certified: {:?}", verdict.findings)
        });
        report
            .checks
            .check(!verdict.certified() || pass.executed[i], || {
                format!("{label}: certified but execute_streams deadlocked")
            });
        let engine = pass.timelines[i].bubble_ratio();
        let fraction = verdict.stats.as_ref().map(|s| s.bubble_fraction_static);
        report
            .checks
            .check(fraction.map(f64::to_bits) == Some(engine.to_bits()), || {
                format!("{label}: static bubble fraction {fraction:?} vs engine {engine}")
            });
    }
}

/// The checked-in deadlocking stream file must be rejected by the
/// deadlock analysis.
fn check_deadlock_rejected(report: &mut Report) {
    let verdict = std::fs::read_to_string(DEADLOCK_STREAMS)
        .map_err(|e| e.to_string())
        .and_then(|text| StreamSet::parse(&text))
        .map(|set| {
            let cfg = VerifyConfig::new(SimDuration::from_millis(10), SimDuration::from_millis(20));
            verify(&set, &cfg)
        });
    report.checks.check(
        verdict.as_ref().is_ok_and(|v| {
            !v.certified() && v.findings.iter().any(|f| f.property == Property::Deadlock)
        }),
        || format!("{DEADLOCK_STREAMS}: not rejected as a deadlock: {verdict:?}"),
    );
}

fn instructions(cases: &[Case]) -> u64 {
    cases.iter().map(|c| c.set.instruction_count() as u64).sum()
}

/// Tracing off: one untimed warm-up pass (checked), then set-up + pass
/// repeated for `budget` (see [`repeat`]).
pub fn measure(seed: u64, budget: Duration, scale: &Scale, report: &mut Report) {
    check_deadlock_rejected(report);
    let cases = set_up(seed, scale);
    check_pass(report, &cases, &pass(&cases, false));
    let instrs = instructions(&cases) as f64;
    drop(cases);
    // Read before the reference workload first runs: the repetitions
    // below repeat this pass exactly.
    report.set("peak_rss_mb", peak_rss_mb());
    let timings = repeat(
        budget,
        scale.min_reps,
        || {
            let t0 = Instant::now();
            let cases = set_up(seed, scale);
            let t1 = Instant::now();
            black_box(pass(&cases, false));
            ((t1 - t0).as_secs_f64(), t1.elapsed().as_secs_f64())
        },
        || drop(set_up(seed, scale)),
    );
    report.set_timings(&timings);
    // The engine's list scheduler dispatches each streamed instruction
    // once; verification reads each once more.
    report.set("events_per_s", instrs / timings.wall_s);
    report.set("instructions_per_s", 2.0 * instrs / timings.wall_s);
    report.notes.extend([
        ("recovered_tflops_per_gpu", "TFLOPS", None),
        ("main_slowdown_pct", "%", None),
        ("goodput_fraction", "ratio", None),
    ]);
}

/// Untraced and traced passes, alternated.
const TRACE_PAIRS: usize = 3;

/// Tracing on: untraced passes alternated with passes that time every
/// call; per-call figures come from the traced passes.
pub fn trace(seed: u64, scale: &Scale, report: &mut Report) {
    check_deadlock_rejected(report);
    let cases = set_up(seed, scale);
    drop(pass(&cases, false));
    let (mut untraced_walls, mut traced_walls) = (Vec::new(), Vec::new());
    let mut phase = [Duration::ZERO; 3];
    for _ in 0..TRACE_PAIRS {
        let t = Instant::now();
        let untraced = pass(&cases, false);
        untraced_walls.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let traced = pass(&cases, true);
        traced_walls.push(t.elapsed().as_secs_f64());
        check_pass(report, &cases, &traced);
        report.checks.check(
            untraced.verdicts == traced.verdicts && untraced.executed == traced.executed,
            || "traced vs untraced pass: verdicts differ".into(),
        );
        for (total, add) in phase.iter_mut().zip(traced.phase) {
            *total += add;
        }
    }
    let (traced_wall, untraced_wall) = (median(&traced_walls), median(&untraced_walls));

    let n = (cases.len() * TRACE_PAIRS) as f64;
    let [verify_t, execute_t, engine_t] = phase;
    for (name, value) in [
        ("sim_core.queue.push_pop_ns", 0.0),
        ("sim_core.queue.depth", 0.0),
        ("core.step_ns_p50", 0.0),
        ("core.step_ns_p99", 0.0),
        ("core.events_dispatched", 0.0),
        ("core.ff_iterations_skipped", 0.0),
        ("core.ff_skip_frac", 0.0),
        ("core.backend_new_ms", 0.0),
        ("trace.fleet_workload_ms", 0.0),
        ("scenario.lower_us", 0.0),
        (
            "pipeline.engine_timeline_us",
            engine_t.as_secs_f64() * 1e6 / n,
        ),
        ("pipeline.shape_classes", cases.len() as f64),
        ("executor.plan_best_us", 0.0),
        ("executor.on_bubble_ns", 0.0),
        ("executor.checkpoint_restore_ns", 0.0),
        ("scheduler.global.requeue_ns", 0.0),
        ("scheduler.global.pick_ns", 0.0),
        ("scheduler.evictions", 0.0),
        ("scheduler.cross_job_dispatches", 0.0),
        ("scheduler.peak_queue_depth", 0.0),
        ("scheduler.resume_frac", 0.0),
        (
            "pipeline.execute_streams_us",
            execute_t.as_secs_f64() * 1e6 / n,
        ),
        (
            "schedverify.verify_ns_per_instr",
            verify_t.as_nanos() as f64 / (instructions(&cases) * TRACE_PAIRS as u64) as f64,
        ),
        ("sim.recovered_tflops_per_gpu", 0.0),
        ("sim.main_slowdown_pct", 0.0),
        ("sim.goodput_fraction", 0.0),
        ("harness.host_slowdown", host_slowdown(5)),
        ("harness.traced_wall_s", traced_wall),
        ("harness.trace_overhead_s", traced_wall - untraced_wall),
    ] {
        report.set(name, value);
    }
}
