//! The completed fill ids in the event kernel's order, for the pins that
//! digest that order. A run reports its ids job-major; the kernel
//! completes them across jobs in its pop order, and one step completes
//! fill jobs on one main job at most. Stepping the driver and reading
//! every job's completion count after each step says which of the
//! job-major ids each step completed.

use pipefill_core::{BackendDriver, BackendMetrics, FleetBackend, FleetSimResult};
use pipefill_executor::JobId;
use pipefill_sim_core::StepOutcome;

/// A run stepped on the kernel to its end.
pub struct Stepped {
    pub metrics: BackendMetrics,
    pub result: FleetSimResult,
    /// `result.completed_fill_ids` in the order the kernel completed them.
    pub kernel_order: Vec<JobId>,
}

/// Steps `backend` to its end on the kernel, recording after each step
/// which job's completion count grew.
pub fn stepped(backend: FleetBackend) -> Stepped {
    let mut driver = BackendDriver::new(backend);
    let mut counts: Vec<usize> = driver.backend().completed_per_job().collect();
    // (job, completions before the step, after it), one per step that
    // completed any.
    let mut grew = Vec::new();
    while driver.step() == StepOutcome::Dispatched {
        let before = grew.len();
        let now = driver.backend().completed_per_job();
        for (j, (count, now)) in counts.iter_mut().zip(now).enumerate() {
            if now != *count {
                grew.push((j, *count, now));
                *count = now;
            }
        }
        assert!(grew.len() <= before + 1, "one step completed on two jobs");
    }
    let (metrics, backend) = driver.run();
    let result = backend.into_result();
    let starts: Vec<usize> = counts
        .iter()
        .scan(0, |at, &n| {
            let start = *at;
            *at += n;
            Some(start)
        })
        .collect();
    let ids = &result.completed_fill_ids;
    let kernel_order: Vec<JobId> = grew
        .iter()
        .flat_map(|&(j, from, to)| &ids[starts[j] + from..starts[j] + to])
        .copied()
        .collect();
    assert_eq!(kernel_order.len(), ids.len(), "a completion no step made");
    Stepped {
        metrics,
        result,
        kernel_order,
    }
}
