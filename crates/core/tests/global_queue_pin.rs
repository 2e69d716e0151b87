//! Pins the global fill queue's observable behaviour on a small
//! multi-shape fault fleet: every queue policy × three per-job admission
//! patterns, at an MTBF short enough that evicted fill jobs requeue,
//! resume across jobs and are still queued when the run ends.
//!
//! The expected values are exact and must survive any change to the
//! queue's representation: a candidate scan that picks a different job
//! moves the completion-order digest, the cross-job count or the metric
//! bits. That digest is over the ids in the kernel's completion order,
//! which a run stepped on the kernel recovers
//! (`support/kernel_order.rs`); the run's own ids are job-major and have
//! a digest of their own. The fleet profiles its shape classes in
//! parallel, so each pin also holds `run()` to the stepped result at one
//! worker and at two.

use pipefill_core::{BackendConfig, BackendMetrics, FleetBackend, FleetSimConfig, PolicyKind};
use pipefill_sim_core::SimDuration;
use pipefill_trace::FleetWorkloadConfig;

use pipefill_core::experiments::sweep::set_threads;

#[path = "support/kernel_order.rs"]
mod kernel_order;
#[path = "support/widths.rs"]
mod widths;

use kernel_order::stepped;
use widths::one_and_two_workers;

/// Which main jobs admit fill work evicted from other jobs.
#[derive(Debug, Clone, Copy)]
enum Admission {
    All,
    Alternating,
    None,
}

impl Admission {
    fn admits(self, job: usize) -> bool {
        match self {
            Admission::All => true,
            Admission::Alternating => job.is_multiple_of(2),
            Admission::None => false,
        }
    }
}

/// What one run is pinned by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    metrics: u64,
    evictions: u64,
    cross_job_dispatches: u64,
    peak_queue_depth: usize,
    left_in_queue: usize,
    /// Digest of the completed ids in the kernel's completion order.
    completed_ids: u64,
    /// Digest of the completed ids as the run reports them, job-major.
    job_major_ids: u64,
}

/// FNV-1a over a word stream: order-sensitive and stable across hosts.
fn fnv(words: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for b in w.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Every field of the metrics, floats by their exact bit patterns.
fn metrics_digest(m: &BackendMetrics) -> u64 {
    fnv([
        m.num_devices as u64,
        m.elapsed.as_nanos(),
        m.events_dispatched,
        m.fill_flops.to_bits(),
        m.recovered_tflops_per_gpu.to_bits(),
        m.main_tflops_per_gpu.to_bits(),
        m.main_slowdown.to_bits(),
        m.bubble_ratio.to_bits(),
        m.jobs_completed as u64,
        m.evictions,
        m.lost_fill_flops.to_bits(),
        m.goodput_fraction.to_bits(),
    ])
}

fn run(policy: PolicyKind, admission: Admission) -> Pin {
    // Eight GPUs a job leaves one pipeline depth, so the 24 jobs fall into
    // a handful of shape classes (microbatches × GPU × fill fraction) and
    // evicted work has several compatible stages to resume on.
    let mut workload = FleetWorkloadConfig::new(24, 24 * 8, 11);
    workload.iterations = 120;
    let mut cfg = FleetSimConfig::from_workload(&workload)
        .with_mtbf(SimDuration::from_secs(60))
        .with_policy(policy);
    // Short backlog jobs, so fill jobs complete between failures.
    cfg.backlog_job_gpu_hours = 0.002;
    for (j, job) in cfg.jobs.iter_mut().enumerate() {
        job.admits_foreign = admission.admits(j);
    }
    let kernel = stepped(FleetBackend::new(cfg.clone()));
    let metrics = metrics_digest(&kernel.metrics);
    for _width in one_and_two_workers() {
        let run = BackendConfig::Fleet(cfg.clone()).run();
        assert_eq!(metrics_digest(&run.metrics), metrics);
        assert_eq!(run.fleet().as_ref(), Some(&kernel.result));
    }
    let fleet = &kernel.result;
    Pin {
        metrics,
        evictions: fleet.evictions,
        cross_job_dispatches: fleet.cross_job_dispatches,
        peak_queue_depth: fleet.peak_queue_depth,
        left_in_queue: fleet.left_in_queue,
        completed_ids: fnv(kernel.kernel_order.iter().map(|id| id.0)),
        job_major_ids: fnv(fleet.completed_fill_ids.iter().map(|id| id.0)),
    }
}

const POLICIES: [PolicyKind; 4] = [
    PolicyKind::Fifo,
    PolicyKind::Sjf,
    PolicyKind::MakespanMin,
    PolicyKind::DeadlineThenSjf,
];

const ADMISSIONS: [Admission; 3] = [Admission::All, Admission::Alternating, Admission::None];

/// Recorded pins, in `POLICIES` × `ADMISSIONS` order.
#[rustfmt::skip]
const EXPECTED: [Pin; 12] = [
    // Fifo/All
    Pin { metrics: 12692982864696954669, evictions: 432, cross_job_dispatches: 267, peak_queue_depth: 71, left_in_queue: 59, completed_ids: 10899765398607613502, job_major_ids: 7296307821556596574 },
    // Fifo/Alternating
    Pin { metrics: 3225581095974633619, evictions: 430, cross_job_dispatches: 167, peak_queue_depth: 88, left_in_queue: 80, completed_ids: 930835306468768060, job_major_ids: 3395252273718677276 },
    // Fifo/None
    Pin { metrics: 12996159999055871722, evictions: 428, cross_job_dispatches: 0, peak_queue_depth: 123, left_in_queue: 116, completed_ids: 6980390074098795647, job_major_ids: 5174683229497940415 },
    // Sjf/All
    Pin { metrics: 6946140515153837157, evictions: 431, cross_job_dispatches: 264, peak_queue_depth: 69, left_in_queue: 56, completed_ids: 10361556547736863467, job_major_ids: 9570950584304936075 },
    // Sjf/Alternating
    Pin { metrics: 3912668046600635582, evictions: 435, cross_job_dispatches: 177, peak_queue_depth: 90, left_in_queue: 84, completed_ids: 4224446234720502578, job_major_ids: 16597157530090171954 },
    // Sjf/None
    Pin { metrics: 12996159999055871722, evictions: 428, cross_job_dispatches: 0, peak_queue_depth: 123, left_in_queue: 116, completed_ids: 6980390074098795647, job_major_ids: 5174683229497940415 },
    // MakespanMin/All
    Pin { metrics: 6946140515153837157, evictions: 431, cross_job_dispatches: 264, peak_queue_depth: 69, left_in_queue: 56, completed_ids: 10361556547736863467, job_major_ids: 9570950584304936075 },
    // MakespanMin/Alternating
    Pin { metrics: 3912668046600635582, evictions: 435, cross_job_dispatches: 177, peak_queue_depth: 90, left_in_queue: 84, completed_ids: 4224446234720502578, job_major_ids: 16597157530090171954 },
    // MakespanMin/None
    Pin { metrics: 12996159999055871722, evictions: 428, cross_job_dispatches: 0, peak_queue_depth: 123, left_in_queue: 116, completed_ids: 6980390074098795647, job_major_ids: 5174683229497940415 },
    // DeadlineThenSjf/All
    Pin { metrics: 6946140515153837157, evictions: 431, cross_job_dispatches: 264, peak_queue_depth: 69, left_in_queue: 56, completed_ids: 10361556547736863467, job_major_ids: 9570950584304936075 },
    // DeadlineThenSjf/Alternating
    Pin { metrics: 3912668046600635582, evictions: 435, cross_job_dispatches: 177, peak_queue_depth: 90, left_in_queue: 84, completed_ids: 4224446234720502578, job_major_ids: 16597157530090171954 },
    // DeadlineThenSjf/None
    Pin { metrics: 12996159999055871722, evictions: 428, cross_job_dispatches: 0, peak_queue_depth: 123, left_in_queue: 116, completed_ids: 6980390074098795647, job_major_ids: 5174683229497940415 },
];

#[test]
fn global_queue_behaviour_is_pinned() {
    let mut actual = Vec::new();
    for policy in POLICIES {
        for admission in ADMISSIONS {
            actual.push((policy, admission, run(policy, admission)));
        }
    }
    let table: Vec<String> = actual
        .iter()
        .map(|(p, a, pin)| format!("{p:?}/{a:?}: {pin:?}"))
        .collect();
    let got: Vec<Pin> = actual.iter().map(|&(_, _, pin)| pin).collect();
    assert_eq!(
        got,
        EXPECTED,
        "global queue behaviour moved:\n{}",
        table.join("\n")
    );
}

#[test]
fn the_pinned_fleet_exercises_the_queue() {
    // The pin is only meaningful if the fleet really requeues, resumes
    // across jobs and ends with work still queued.
    let all = run(PolicyKind::Fifo, Admission::All);
    assert!(all.evictions > 0);
    assert!(all.cross_job_dispatches > 0);
    assert!(all.left_in_queue > 0);
    let none = run(PolicyKind::Fifo, Admission::None);
    assert_eq!(none.cross_job_dispatches, 0, "no job admits foreign work");
}
