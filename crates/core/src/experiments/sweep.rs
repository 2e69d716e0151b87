//! The parallel sweep driver.
//!
//! Every figure of the evaluation is a *sweep*: the same simulation or
//! analysis repeated over a grid of configurations (fill fractions, loads,
//! seeds, mixes, GPU counts). The points are independent, so this module
//! fans them out across cores while keeping results in input order — a
//! sweep returns exactly what the serial loop would, just faster. Fleet
//! set-up and a no-fault fleet's pipelines fan out the same way.
//!
//! Determinism is unaffected: each point owns its seeded RNG, and
//! [`par_map`] preserves index order, so experiment output is byte-stable
//! regardless of the worker count (including `--threads 1`).

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The worker count set by [`set_threads`]; 0 = the machine's.
static WIDTH: AtomicUsize = AtomicUsize::new(0);

/// Workers held by in-flight [`par_map`] calls. A nested call gets the
/// width minus what its enclosing calls hold, so nesting never runs more
/// workers than the width, and runs serially once the width is spent.
static HELD: AtomicUsize = AtomicUsize::new(0);

/// Sets the worker count of every sweep (0 = machine-sized) and returns
/// the count now in effect. Wired to the CLI's `--threads` flag.
pub fn set_threads(threads: usize) -> usize {
    WIDTH.store(threads, Ordering::Relaxed);
    width()
}

/// The worker count in effect.
fn width() -> usize {
    match WIDTH.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map_or(1, NonZeroUsize::get),
        n => n,
    }
}

/// Applies `f` to every item across cores, preserving input order.
///
/// Worker `w` of `t` takes items `w, w + t, …`, so a sweep whose cost
/// varies smoothly with index balances statically. A panic in `f`
/// propagates out of the call.
pub fn par_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    striped(&HELD, width(), items, &f)
}

/// [`par_map`] over the worker budget `held` at `width` workers. Tests
/// pass a budget of their own, which no concurrent test can draw on.
fn striped<T: Send, R: Send>(
    held: &AtomicUsize,
    width: usize,
    items: Vec<T>,
    f: &(impl Fn(T) -> R + Sync),
) -> Vec<R> {
    let n = items.len();
    let t = width.saturating_sub(held.load(Ordering::Relaxed)).min(n);
    if t <= 1 {
        return items.into_iter().map(f).collect();
    }
    let _hold = Hold::take(held, t);
    let mut stripes: Vec<Vec<T>> = (0..t).map(|_| Vec::with_capacity(n.div_ceil(t))).collect();
    for (i, item) in items.into_iter().enumerate() {
        stripes[i % t].push(item);
    }
    let done: Vec<Vec<R>> = std::thread::scope(|scope| {
        let workers: Vec<_> = stripes
            .into_iter()
            .map(|stripe| scope.spawn(move || stripe.into_iter().map(f).collect()))
            .collect();
        workers
            .into_iter()
            .map(|w| {
                w.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });
    let mut done: Vec<_> = done.into_iter().map(Vec::into_iter).collect();
    (0..n)
        .map(|i| done[i % t].next().expect("stripe i % t holds item i"))
        .collect()
}

/// Workers taken from a budget, returned on drop (also when a panic
/// unwinds out of [`par_map`]).
struct Hold<'a> {
    held: &'a AtomicUsize,
    workers: usize,
}

impl<'a> Hold<'a> {
    fn take(held: &'a AtomicUsize, workers: usize) -> Self {
        held.fetch_add(workers, Ordering::Relaxed);
        Self { held, workers }
    }
}

impl Drop for Hold<'_> {
    fn drop(&mut self) {
        self.held.fetch_sub(self.workers, Ordering::Relaxed);
    }
}

/// Runs a test's checks at one worker and at two, holding the width.
#[cfg(test)]
#[path = "../../tests/support/widths.rs"]
pub(crate) mod widths;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{BackendConfig, BackendKind};
    use crate::{ClusterSimConfig, PhysicalSimConfig};
    use pipefill_pipeline::{MainJobSpec, ScheduleKind};
    use pipefill_sim_core::SimDuration;
    use pipefill_trace::TraceConfig;

    #[test]
    fn par_map_preserves_order() {
        let out = par_map((0u64..100).collect(), |x| x * x);
        assert_eq!(out, (0u64..100).map(|x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn sweep_matches_serial_execution() {
        let mk = |seed: u64| {
            let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
            let mut trace = TraceConfig::physical(seed);
            trace.horizon = SimDuration::from_secs(600);
            BackendConfig::Coarse(ClusterSimConfig::new(main, trace))
        };
        let parallel = par_map(vec![mk(1), mk(2), mk(3)], BackendConfig::run);
        for (i, seed) in [1u64, 2, 3].iter().enumerate() {
            let serial = mk(*seed).run();
            assert_eq!(
                parallel[i].metrics.recovered_tflops_per_gpu,
                serial.metrics.recovered_tflops_per_gpu,
                "parallel order or determinism broken at seed {seed}"
            );
        }
    }

    #[test]
    fn mixed_fidelity_sweep() {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut trace = TraceConfig::physical(9);
        trace.horizon = SimDuration::from_secs(600);
        let mut phys = PhysicalSimConfig::new(main.clone());
        phys.iterations = 40;
        let runs = par_map(
            vec![
                BackendConfig::Coarse(ClusterSimConfig::new(main, trace)),
                BackendConfig::Physical(phys),
            ],
            BackendConfig::run,
        );
        assert_eq!(runs[0].metrics.kind, BackendKind::Coarse);
        assert_eq!(runs[1].metrics.kind, BackendKind::Physical);
    }

    #[test]
    fn replicate_is_seed_ordered() {
        let out = par_map(vec![5, 6, 7], |s| s * 10);
        assert_eq!(out, vec![50, 60, 70]);
    }

    // The budget tests run on a budget of their own: other tests of this
    // crate run sweeps on the shared one concurrently.

    /// Worker `w` of `t` runs items `w, w + t, …` in turn, and nothing
    /// else: each item reads how many items its thread ran before it.
    #[test]
    fn items_are_striped_over_workers() {
        thread_local! {
            static RAN: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
        }
        let held = AtomicUsize::new(0);
        let before = striped(&held, 3, (0..10).collect(), &|_: usize| {
            RAN.with(|n| n.replace(n.get() + 1))
        });
        assert_eq!(before, (0..10).map(|i| i / 3).collect::<Vec<_>>());
    }

    #[test]
    fn nested_parallelism_stays_within_budget() {
        let held = AtomicUsize::new(0);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        // The outer call takes both workers, so the inner calls run
        // serially on them (not on two more workers each) and still
        // return ordered results.
        let outer: Vec<Vec<u64>> = striped(&held, 2, (0u64..4).collect(), &|i| {
            assert_eq!(held.load(Ordering::Relaxed), 2);
            striped(&held, 2, (0u64..8).collect(), &|j| {
                let now = running.fetch_add(1, Ordering::Relaxed) + 1;
                peak.fetch_max(now, Ordering::Relaxed);
                running.fetch_sub(1, Ordering::Relaxed);
                i * 100 + j
            })
        });
        assert_eq!(outer.len(), 4);
        assert_eq!(outer[3][7], 307);
        assert!(peak.into_inner() <= 2);
        assert_eq!(held.into_inner(), 0, "workers leaked");
    }

    #[test]
    fn a_panicking_item_propagates_and_returns_the_workers() {
        let held = AtomicUsize::new(0);
        let caught = std::panic::catch_unwind(|| {
            striped(&held, 2, (0..6).collect(), &|i: i32| {
                assert!(i != 3, "item {i}");
                i
            })
        });
        let panic = caught.expect_err("the item's panic propagates");
        let message = panic.downcast_ref::<String>().map(String::as_str);
        assert_eq!(message, Some("item 3"));
        assert_eq!(held.into_inner(), 0, "workers leaked");
    }

    #[test]
    fn set_threads_configures_the_width() {
        let machine = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
        for _width in widths::one_and_two_workers() {
            assert_eq!(set_threads(3), 3);
            assert_eq!(width(), 3);
            assert_eq!(set_threads(0), machine);
        }
    }
}
