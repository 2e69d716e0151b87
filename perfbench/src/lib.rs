//! The PipeFill simulator's benchmark harness.
//!
//! One process runs one workload (see [`spec::WORKLOADS`]) through the
//! public library API. With tracing off it repeats set-up plus run for
//! the requested seconds and reports the end-to-end metrics as medians,
//! with times scaled to a reference host by a fixed workload timed
//! between repetitions (see [`repeat`]).
//! With tracing on it runs the same input once untraced and once with a
//! timer around every call into a layer, then times each layer's public
//! functions at the operating point that run recorded, and reports the
//! per-layer metrics. Both modes run the correctness checks and count
//! them in the result line.
#![forbid(unsafe_code)]

pub mod certify;
pub mod json;
pub mod layers;
pub mod report;
pub mod sim;
pub mod spec;

use std::collections::{BinaryHeap, HashMap};
use std::hint::black_box;
use std::time::{Duration, Instant};

use pipefill_core::experiments::sweep;

pub use report::{Checks, Report};

/// Worker threads the harness pins the library to (fewer when the
/// machine has fewer cores), so that runs compare across machines.
pub const MAX_THREADS: usize = 2;

/// Pins the library's worker pool and returns the thread count in effect.
pub fn pin_threads() -> usize {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    sweep::set_threads(cores.min(MAX_THREADS))
}

/// A regime the benchmark runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fast-forward fires; skip/replay does the work.
    QuiescentFleet,
    /// Default fidelity; every event is dispatched.
    JitteredPhysical,
    /// Failure injection; the global fill queue is busy.
    FaultFleet,
    /// Static schedule verification; no backend runs.
    ScheduleCertify,
}

impl Workload {
    /// Every workload, in [`spec::WORKLOADS`] order.
    pub const ALL: [Workload; 4] = [
        Workload::QuiescentFleet,
        Workload::JitteredPhysical,
        Workload::FaultFleet,
        Workload::ScheduleCertify,
    ];

    /// The `--workload` spelling.
    pub fn name(self) -> &'static str {
        spec::WORKLOADS[self as usize].name
    }

    /// Parses a `--workload` spelling.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::SMOKE`] runs
/// the same code paths on tiny inputs for the contract tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Main jobs of the quiescent fleet.
    pub quiescent_jobs: usize,
    /// Simulated horizon of the quiescent fleet.
    pub quiescent_horizon_secs: f64,
    /// Main jobs of the fast-forward on/off twin.
    pub twin_jobs: usize,
    /// Simulated horizon of the twin.
    pub twin_horizon_secs: f64,
    /// Iterations of the jittered physical job.
    pub physical_iterations: usize,
    /// Main jobs of the fault-heavy fleet.
    pub fault_jobs: usize,
    /// GPU budget of the fault-heavy fleet.
    pub fault_gpus: usize,
    /// Iterations each job of the fault-heavy fleet runs.
    pub fault_iterations: usize,
    /// `(p, m)` shapes certified per schedule.
    pub certify_shapes: &'static [(usize, usize)],
    /// Fewest timed repetitions of a run, whatever `--seconds` says.
    pub min_reps: usize,
    /// Host time each per-layer timing loop runs for.
    pub layer_budget: Duration,
}

impl Scale {
    /// The benchmark's sizes.
    pub const FULL: Scale = Scale {
        quiescent_jobs: 1000,
        quiescent_horizon_secs: 2.0 * 86_400.0,
        twin_jobs: 16,
        twin_horizon_secs: 6.0 * 3600.0,
        physical_iterations: 250_000,
        fault_jobs: 2048,
        fault_gpus: 262_144,
        fault_iterations: 12,
        certify_shapes: &[(16, 128), (32, 256), (64, 512)],
        min_reps: 3,
        layer_budget: Duration::from_millis(300),
    };

    /// Tiny inputs over the same code paths.
    pub const SMOKE: Scale = Scale {
        quiescent_jobs: 4,
        quiescent_horizon_secs: 3600.0,
        twin_jobs: 2,
        twin_horizon_secs: 1800.0,
        physical_iterations: 2_000,
        fault_jobs: 16,
        fault_gpus: 2048,
        fault_iterations: 30,
        certify_shapes: &[(4, 8), (8, 16)],
        min_reps: 2,
        layer_budget: Duration::from_millis(5),
    };
}

/// Runs one workload and returns its report: end-to-end metrics when
/// `trace` is false, per-layer metrics when it is true.
pub fn run(workload: Workload, seed: u64, seconds: f64, trace: bool, scale: &Scale) -> Report {
    let mut report = Report::new(workload, trace);
    let budget = Duration::from_secs_f64(seconds.max(0.0));
    match (workload, trace) {
        (Workload::ScheduleCertify, false) => certify::measure(seed, budget, scale, &mut report),
        (Workload::ScheduleCertify, true) => certify::trace(seed, scale, &mut report),
        (w, false) => sim::measure(w, seed, budget, scale, &mut report),
        (w, true) => sim::trace(w, seed, scale, &mut report),
    }
    report.finish();
    report
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Host seconds [`reference_secs`] takes on the host the baseline was
/// recorded on (a 2-vCPU Xeon VM at 2.1 GHz): the yardstick that
/// end-to-end times are scaled to.
pub const REFERENCE_SECS: f64 = 0.030;

/// Runs a fixed workload that calls no repository code (heap churn,
/// hashing and a dependent random walk over 16 MB, the simulator's mix
/// of work) and returns its host seconds. Timed between repetitions, it
/// measures how fast a shared host is running at that moment.
pub fn reference_secs() -> f64 {
    let start = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut heap: BinaryHeap<u64> = (0..4096).map(|_| next()).collect();
    for _ in 0..200_000 {
        let top = heap.pop().unwrap_or_default();
        heap.push(top ^ next());
    }
    let mut map: HashMap<u64, u64> = HashMap::new();
    for i in 0..100_000 {
        map.insert(next() & 0xffff, i);
    }
    let mut sum = 0u64;
    for _ in 0..100_000 {
        sum = sum.wrapping_add(map.get(&(next() & 0xffff)).copied().unwrap_or_default());
    }
    let len = 1u64 << 22;
    let chain: Vec<u32> = (0..len).map(|_| (next() % len) as u32).collect();
    let mut at = 0u32;
    for _ in 0..300_000 {
        at = chain[at as usize];
    }
    black_box((sum, at, heap.len()));
    start.elapsed().as_secs_f64()
}

/// Median host slowdown against the reference host over `samples` runs
/// of the reference workload: 1 at the baseline host's speed, above 1
/// when the host is slower.
pub fn host_slowdown(samples: usize) -> f64 {
    let refs: Vec<f64> = (0..samples.max(1)).map(|_| reference_secs()).collect();
    median(&refs) / REFERENCE_SECS
}

/// End-to-end timings of a run, as medians over its repetitions.
#[derive(Debug, Clone, Copy)]
pub struct Timings {
    /// Run seconds, scaled to the reference host.
    pub wall_s: f64,
    /// Set-up seconds, scaled to the reference host.
    pub setup_s: f64,
    /// Run seconds as the host measured them.
    pub host_wall_s: f64,
    /// How much slower than the reference host this host ran.
    pub host_slowdown: f64,
}

/// Set-up samples a run aims for before reporting the median.
const SETUP_SAMPLES: usize = 21;

/// Repeats `rep` until `budget` has passed and at least `min_reps` ran;
/// `rep` returns its set-up and run host seconds. The reference workload
/// runs between repetitions, and each repetition is scaled by the mean
/// of the two reference times around it, so a shared host's slow spells
/// cancel out. Set-up samples are then topped up with `set_up` alone
/// until there are [`SETUP_SAMPLES`] or a tenth of `budget` is spent.
pub fn repeat(
    budget: Duration,
    min_reps: usize,
    mut rep: impl FnMut() -> (f64, f64),
    mut set_up: impl FnMut(),
) -> Timings {
    let mut refs = vec![reference_secs()];
    let (mut setup, mut wall, mut host_wall) = (Vec::new(), Vec::new(), Vec::new());
    let start = Instant::now();
    while wall.len() < min_reps || start.elapsed() < budget {
        let (setup_secs, run_secs) = rep();
        refs.push(reference_secs());
        let scale = 2.0 * REFERENCE_SECS / (refs[refs.len() - 2] + refs[refs.len() - 1]);
        setup.push(setup_secs * scale);
        wall.push(run_secs * scale);
        host_wall.push(run_secs);
    }
    let host_slowdown = median(&refs) / REFERENCE_SECS;
    let start = Instant::now();
    while setup.len() < SETUP_SAMPLES && start.elapsed() < budget / 10 {
        let t = Instant::now();
        set_up();
        setup.push(t.elapsed().as_secs_f64() / host_slowdown);
    }
    Timings {
        wall_s: median(&wall),
        setup_s: median(&setup),
        host_wall_s: median(&host_wall),
        host_slowdown,
    }
}

/// Peak resident memory of this process in MB (`VmHWM`), or 0 where the
/// kernel does not report it.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: derives independent, reproducible sub-seeds from the
/// benchmark seed.
pub fn mix_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
