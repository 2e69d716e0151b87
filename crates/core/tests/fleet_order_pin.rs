//! Pins the cross-job event order of no-fault fleets. Eight jobs share
//! one shape, so every job's stage fan-out lands at the same instants and
//! the kernel's FIFO tie-break alone decides which job's fill work
//! completes first.
//!
//! The expected values are exact and must survive any change to the
//! event queue's representation: an event that pops out of `(time,
//! push)` order moves the completion-order digest or the metric bits.
//! That digest is over the ids in the kernel's completion order, which a
//! run stepped on the kernel recovers (`support/kernel_order.rs`); the
//! run's own ids are job-major and have a digest of their own. A no-fault
//! fleet's `run()` takes it off the kernel and runs its pipelines in
//! parallel, so each pin also holds `run()` to the stepped result at one
//! worker and at two.

use pipefill_core::{BackendConfig, BackendMetrics, FleetBackend, FleetJobConfig, FleetSimConfig};
use pipefill_model_zoo::ModelId;
use pipefill_pipeline::{MainJobSpec, ScheduleKind};
use pipefill_trace::ModelMix;

use pipefill_core::experiments::sweep::set_threads;

#[path = "support/kernel_order.rs"]
mod kernel_order;
#[path = "support/widths.rs"]
mod widths;

use kernel_order::stepped;
use widths::one_and_two_workers;

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

/// What one run is pinned by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Pin {
    metrics: u64,
    events: u64,
    completed: usize,
    /// Digest of the completed ids in the kernel's completion order.
    completed_ids: u64,
    /// Digest of the completed ids as the run reports them, job-major.
    job_major_ids: u64,
    fast_forwarded: u64,
}

/// Eight identical 5B jobs with short backlog jobs, so fill jobs
/// complete every few iterations on every stage.
fn fleet(iterations: usize) -> FleetSimConfig {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let jobs = (0..8)
        .map(|j| {
            let mut job = FleetJobConfig::new(main.clone());
            job.iterations = iterations;
            job.seed = 31 + j;
            job
        })
        .collect();
    let mut cfg = FleetSimConfig::new(jobs);
    cfg.backlog_job_gpu_hours = 0.002;
    cfg
}

/// The pin of a run stepped on the kernel, after checking that `run()`
/// gives the same metrics and result at one worker and at two.
fn pin(cfg: FleetSimConfig) -> Pin {
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
        events: kernel.metrics.events_dispatched,
        completed: fleet.completed_fill_ids.len(),
        completed_ids: fnv(kernel.kernel_order.iter().map(|id| id.0)),
        job_major_ids: fnv(fleet.completed_fill_ids.iter().map(|id| id.0)),
        fast_forwarded: fleet.iterations_fast_forwarded,
    }
}

/// Default jitter: every bubble draws, fast-forward never fires.
#[test]
fn jittered_fleet_order_is_pinned() {
    assert_eq!(
        pin(fleet(60)),
        Pin {
            metrics: 7046329053590503930,
            events: 8160,
            completed: 829,
            completed_ids: 12692697037660692998,
            job_major_ids: 3050522798787795462,
            fast_forwarded: 0,
        }
    );
}

/// Jitter off and one model: every job runs the same iteration stream,
/// so all eight fan-outs share every instant, and fast-forward skips.
#[test]
fn quiescent_fleet_order_is_pinned() {
    let mut cfg = fleet(400);
    cfg.jitter_cv = 0.0;
    cfg.deterministic_mix = true;
    cfg.mix = ModelMix::single(ModelId::EfficientNet);
    cfg.backlog_job_gpu_hours = 0.0005;
    assert!(cfg.fast_forward);
    assert_eq!(
        pin(cfg),
        Pin {
            metrics: 9907902054312026338,
            events: 54400,
            completed: 17048,
            completed_ids: 9058681337721705125,
            job_major_ids: 1821852363482543797,
            fast_forwarded: 2736,
        }
    );
}
