//! What the benchmark measures: its workloads, its end-to-end and
//! per-layer metrics, and the map from each layer metric to the
//! end-to-end metric it should move. `BENCHMARK.json` and
//! `perfbench/layer_map.json` are renderings of these tables
//! (`perfbench --manifest`, `perfbench --layer-map`); the contract tests
//! fail when either file drifts from them.

use crate::json::{render, Value};

/// Seconds one run measures when `--seconds` is not given.
pub const RUN_SECONDS: u64 = 20;

/// Which direction of a metric is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller values are better.
    Lower,
    /// Larger values are better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One workload: a regime of the simulator with a one-line rationale.
pub struct WorkloadDef {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why the workload exists.
    pub why: &'static str,
}

/// The four regimes, in the order `--workload all` runs them.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "quiescent_fleet",
        why: "1000 jobs / 112K GPUs, jitter 0, one model, no faults, two days: the only regime where fast-forward fires",
    },
    WorkloadDef {
        name: "jittered_physical",
        why: "one 16-GPU job at default jitter, 250K iterations a repetition: fast-forward never fires; queue, on_bubble and plan cache carry every event",
    },
    WorkloadDef {
        name: "fault_fleet",
        why: "2048-job / 262K-GPU generated fleet at MTBF 300 s for 12 iterations: evictions, checkpoint restore and global-queue requeue/pick on a deep event queue",
    },
    WorkloadDef {
        name: "schedule_certify",
        why: "verify, execute_streams and the engine over all four schedules at p up to 64, m up to 512: no backend runs",
    },
];

/// An end-to-end metric, reported with tracing off on every workload.
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// Share of the parent's median by which the metric may worsen.
    pub bound: f64,
    /// How it is measured.
    pub how: &'static str,
}

/// End-to-end metrics, all host-side and defined on every workload.
pub const END_TO_END: [EndToEnd; 5] = [
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        how: "median run seconds, set-up excluded, scaled to the reference host (host seconds x REFERENCE_SECS / reference-workload seconds around the run)",
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        how: "median seconds to generate the input, lower it, construct the backend and prime the driver, scaled like wall_s",
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        how: "kernel events dispatched (fast-forward credits included) per wall_s; on schedule_certify, instructions the engine dispatches per wall_s",
    },
    EndToEnd {
        name: "instructions_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        how: "main-job pipeline instructions simulated per wall_s (iterations x per-iteration stream length, summed over jobs); on schedule_certify, instructions verified plus executed",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
        how: "VmHWM of the workload's own process after set-up and one full run, read before the reference workload first runs",
    },
];

/// Where a layer metric should show up end to end.
pub struct Move {
    /// The end-to-end metric it should move.
    pub end_to_end: &'static str,
    /// The workloads on which it should move it.
    pub workloads: &'static [&'static str],
}

/// A per-layer metric, reported by the traced run on every workload.
pub struct Layer {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Improvement direction.
    pub better: Better,
    /// End-to-end metrics it should move; empty for bases and outcomes
    /// that explain other numbers rather than move one.
    pub moves: &'static [Move],
    /// How it is measured.
    pub how: &'static str,
}

const QF: &str = "quiescent_fleet";
const JP: &str = "jittered_physical";
const FF: &str = "fault_fleet";
const SC: &str = "schedule_certify";

/// Per-layer metrics. Layers a workload never calls read 0.
pub const LAYERS: [Layer; 29] = [
    Layer {
        name: "sim_core.queue.push_pop_ns",
        unit: "ns",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "events_per_s",
            workloads: &[FF, JP],
        }],
        how: "EventQueue push+pop pair at the workload's mean pending-event depth",
    },
    Layer {
        name: "sim_core.queue.depth",
        unit: "count",
        better: Better::Lower,
        moves: &[],
        how: "mean pending events per dispatched step: the operating point of push_pop_ns",
    },
    Layer {
        name: "core.step_ns_p50",
        unit: "ns",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "events_per_s",
            workloads: &[JP, FF],
        }],
        how: "median host time of one BackendDriver::step in the traced run",
    },
    Layer {
        name: "core.step_ns_p99",
        unit: "ns",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "events_per_s",
            workloads: &[JP, FF],
        }],
        how: "99th-percentile host time of one BackendDriver::step in the traced run",
    },
    Layer {
        name: "core.events_dispatched",
        unit: "count",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "events_per_s",
            workloads: &[JP, FF],
        }],
        how: "events the kernel dispatched, fast-forward credits included",
    },
    Layer {
        name: "core.ff_iterations_skipped",
        unit: "count",
        better: Better::Higher,
        moves: &[Move {
            end_to_end: "wall_s",
            workloads: &[QF],
        }],
        how: "main-job iterations replayed in closed form by fast-forward",
    },
    Layer {
        name: "core.ff_skip_frac",
        unit: "ratio",
        better: Better::Higher,
        moves: &[Move {
            end_to_end: "wall_s",
            workloads: &[QF],
        }],
        how: "skipped over total main-job iterations",
    },
    Layer {
        name: "core.backend_new_ms",
        unit: "ms",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "setup_s",
            workloads: &[FF, QF, JP],
        }],
        how: "PhysicalBackend::new / FleetBackend::new on the workload's config",
    },
    Layer {
        name: "trace.fleet_workload_ms",
        unit: "ms",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "setup_s",
            workloads: &[FF],
        }],
        how: "FleetWorkloadConfig::generate for the generated fleet",
    },
    Layer {
        name: "scenario.lower_us",
        unit: "us",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "setup_s",
            workloads: &[FF, JP],
        }],
        how: "ScenarioSpec::lower for workloads described as scenarios",
    },
    Layer {
        name: "pipeline.engine_timeline_us",
        unit: "us",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "setup_s",
            workloads: &[FF, QF, JP],
        }],
        how: "MainJobSpec::engine_timeline per distinct main-job shape class (EngineConfig::run per shape on schedule_certify)",
    },
    Layer {
        name: "pipeline.shape_classes",
        unit: "count",
        better: Better::Lower,
        moves: &[],
        how: "distinct main-job shapes the set-up profiles: the base of engine_timeline_us",
    },
    Layer {
        name: "executor.plan_best_us",
        unit: "us",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "setup_s",
            workloads: &[FF],
        }],
        how: "plan_best per (model, kind) of the fill mix on stage 0 of the first main job",
    },
    Layer {
        name: "executor.on_bubble_ns",
        unit: "ns",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "events_per_s",
            workloads: &[JP],
        }],
        how: "FillJobExecutor::on_bubble cycling stage 0's bubble slots",
    },
    Layer {
        name: "executor.checkpoint_restore_ns",
        unit: "ns",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "wall_s",
            workloads: &[FF],
        }],
        how: "FillJobExecutor checkpoint + restore pair, on the fleet workloads",
    },
    Layer {
        name: "scheduler.global.requeue_ns",
        unit: "ns",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "wall_s",
            workloads: &[FF],
        }],
        how: "GlobalFillQueue::requeue_from at the run's peak queue depth and device count",
    },
    Layer {
        name: "scheduler.global.pick_ns",
        unit: "ns",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "wall_s",
            workloads: &[FF],
        }],
        how: "GlobalFillQueue::pick_for at the run's peak queue depth and device count",
    },
    Layer {
        name: "scheduler.evictions",
        unit: "count",
        better: Better::Lower,
        moves: &[],
        how: "fill jobs evicted by injected device failures; explains goodput and wall_s on fault_fleet",
    },
    Layer {
        name: "scheduler.cross_job_dispatches",
        unit: "count",
        better: Better::Higher,
        moves: &[],
        how: "evicted fill jobs resumed on another main job",
    },
    Layer {
        name: "scheduler.peak_queue_depth",
        unit: "count",
        better: Better::Lower,
        moves: &[],
        how: "deepest the global fill queue got: the operating point of requeue_ns and pick_ns",
    },
    Layer {
        name: "scheduler.resume_frac",
        unit: "ratio",
        better: Better::Higher,
        moves: &[],
        how: "cross-job resumes over evictions",
    },
    Layer {
        name: "pipeline.execute_streams_us",
        unit: "us",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "instructions_per_s",
            workloads: &[SC],
        }],
        how: "EngineConfig::execute_streams per certified stream set",
    },
    Layer {
        name: "schedverify.verify_ns_per_instr",
        unit: "ns",
        better: Better::Lower,
        moves: &[Move {
            end_to_end: "instructions_per_s",
            workloads: &[SC],
        }],
        how: "schedverify::verify time over instructions verified",
    },
    Layer {
        name: "sim.recovered_tflops_per_gpu",
        unit: "TFLOPS",
        better: Better::Higher,
        moves: &[],
        how: "simulated fill TFLOPS per GPU recovered from bubbles",
    },
    Layer {
        name: "sim.main_slowdown_pct",
        unit: "%",
        better: Better::Lower,
        moves: &[],
        how: "simulated main-job slowdown caused by filling",
    },
    Layer {
        name: "sim.goodput_fraction",
        unit: "ratio",
        better: Better::Higher,
        moves: &[],
        how: "simulated surviving over executed fill FLOPs",
    },
    Layer {
        name: "harness.host_slowdown",
        unit: "ratio",
        better: Better::Lower,
        moves: &[],
        how: "reference-workload time over its time on the baseline host: divide this run's host timings by it to compare across runs",
    },
    Layer {
        name: "harness.traced_wall_s",
        unit: "s",
        better: Better::Lower,
        moves: &[],
        how: "host seconds of the traced run, set-up excluded",
    },
    Layer {
        name: "harness.trace_overhead_s",
        unit: "s",
        better: Better::Lower,
        moves: &[],
        how: "traced wall minus untraced wall of the same input",
    },
];

/// The command the benchmark runs under, as `BENCHMARK.json` records it.
pub const COMMAND: [&str; 8] = [
    "cargo",
    "run",
    "--offline",
    "--release",
    "--quiet",
    "--manifest-path",
    "perfbench/Cargo.toml",
    "--",
];

fn string(s: &str) -> Value {
    Value::Str(s.to_string())
}

fn object(fields: Vec<(&str, Value)>) -> Value {
    Value::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// The `BENCHMARK.json` document.
pub fn manifest() -> String {
    let doc = object(vec![
        (
            "command",
            Value::Arr(COMMAND.iter().map(|s| string(s)).collect()),
        ),
        ("paths", Value::Arr(vec![string("perfbench")])),
        ("run_seconds", Value::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Value::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| object(vec![("name", string(w.name)), ("why", string(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Value::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", string(m.name)),
                            ("unit", string(m.unit)),
                            ("better", string(m.better.as_str())),
                            ("bound", Value::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Value::Arr(
                LAYERS
                    .iter()
                    .map(|m| {
                        object(vec![
                            ("name", string(m.name)),
                            ("unit", string(m.unit)),
                            ("better", string(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    render(&doc, true)
}

/// The `perfbench/layer_map.json` document: how each metric is measured
/// and, for each layer metric, which end-to-end metric it should move
/// on which workloads.
pub fn layer_map() -> String {
    let layers = LAYERS
        .iter()
        .map(|l| {
            let moves = l
                .moves
                .iter()
                .map(|m| {
                    object(vec![
                        ("end_to_end", string(m.end_to_end)),
                        (
                            "workloads",
                            Value::Arr(m.workloads.iter().map(|w| string(w)).collect()),
                        ),
                    ])
                })
                .collect();
            object(vec![
                ("name", string(l.name)),
                ("how", string(l.how)),
                ("moves", Value::Arr(moves)),
            ])
        })
        .collect();
    let end_to_end = END_TO_END
        .iter()
        .map(|m| object(vec![("name", string(m.name)), ("how", string(m.how))]))
        .collect();
    render(
        &object(vec![
            ("end_to_end", Value::Arr(end_to_end)),
            ("layers", Value::Arr(layers)),
        ]),
        true,
    )
}
