//! Offline shim for `rayon`.
//!
//! The build environment has no access to a crates.io mirror, so this crate
//! implements the rayon surface the workspace's parallel sweep driver uses:
//! `prelude::*` with `into_par_iter()` / `par_iter()` and
//! `.map(..).collect()`, plus [`ThreadPoolBuilder`] /
//! [`current_num_threads`] for configuring the worker count (also
//! overridable via `RAYON_NUM_THREADS`, like real rayon).
//!
//! Execution model: each `map` stage materializes its input and applies the
//! closure across `current_num_threads()` scoped threads in striped order,
//! then reassembles results in input order. There is no work stealing; for
//! the coarse-grained simulation sweeps this drives (tens of runs, each
//! milliseconds to seconds), static striping is within noise of a real
//! scheduler.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// 0 = "not configured": fall back to `RAYON_NUM_THREADS` or the machine.
static CONFIGURED_THREADS: AtomicUsize = AtomicUsize::new(0);

/// Workers currently spawned by in-flight `parallel_apply` calls. Real
/// rayon shares one global pool, so nested parallelism never exceeds the
/// configured width; this shim spawns per call, so nested calls instead
/// draw from this budget (inner calls see what the outer ones left and
/// degrade to serial when the budget is spent).
static ACTIVE_WORKERS: AtomicUsize = AtomicUsize::new(0);

/// The worker count parallel iterators will use.
pub fn current_num_threads() -> usize {
    let configured = CONFIGURED_THREADS.load(Ordering::Relaxed);
    if configured > 0 {
        return configured;
    }
    if let Ok(v) = std::env::var("RAYON_NUM_THREADS") {
        if let Ok(n) = v.parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Error type matching `rayon::ThreadPoolBuildError`'s role.
#[derive(Debug)]
pub struct ThreadPoolBuildError;

impl std::fmt::Display for ThreadPoolBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "global thread pool already configured")
    }
}

impl std::error::Error for ThreadPoolBuildError {}

/// Builder for the global worker configuration.
#[derive(Debug, Default)]
pub struct ThreadPoolBuilder {
    num_threads: usize,
}

impl ThreadPoolBuilder {
    /// Creates a builder with the default (machine-sized) worker count.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker count (0 = machine-sized).
    pub fn num_threads(mut self, n: usize) -> Self {
        self.num_threads = n;
        self
    }

    /// Installs the configuration globally. Unlike real rayon this may be
    /// called repeatedly; the latest call wins (there is no pool to
    /// rebuild, only a worker count).
    pub fn build_global(self) -> Result<(), ThreadPoolBuildError> {
        CONFIGURED_THREADS.store(self.num_threads, Ordering::Relaxed);
        Ok(())
    }
}

/// The traits user code imports.
pub mod prelude {
    pub use crate::{IntoParallelIterator, IntoParallelRefIterator, ParallelIterator};
}

/// Conversion into a parallel iterator (by value).
pub trait IntoParallelIterator {
    /// Item type of the iterator.
    type Item: Send;
    /// The concrete iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Converts `self`.
    fn into_par_iter(self) -> Self::Iter;
}

/// Conversion into a parallel iterator over references.
pub trait IntoParallelRefIterator<'a> {
    /// Item type (a reference).
    type Item: Send + 'a;
    /// The concrete iterator.
    type Iter: ParallelIterator<Item = Self::Item>;
    /// Borrowing conversion.
    fn par_iter(&'a self) -> Self::Iter;
}

impl<T: Send> IntoParallelIterator for Vec<T> {
    type Item = T;
    type Iter = VecParIter<T>;
    fn into_par_iter(self) -> VecParIter<T> {
        VecParIter { items: self }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for [T] {
    type Item = &'a T;
    type Iter = VecParIter<&'a T>;
    fn par_iter(&'a self) -> VecParIter<&'a T> {
        VecParIter {
            items: self.iter().collect(),
        }
    }
}

impl<'a, T: Sync + 'a> IntoParallelRefIterator<'a> for Vec<T> {
    type Item = &'a T;
    type Iter = VecParIter<&'a T>;
    fn par_iter(&'a self) -> VecParIter<&'a T> {
        self.as_slice().par_iter()
    }
}

/// A parallel iterator: a finite item sequence whose per-item work runs
/// across threads while preserving input order in the output.
pub trait ParallelIterator: Sized {
    /// Item type.
    type Item: Send;

    /// Materializes all items (driving any pending parallel stages).
    fn drive(self) -> Vec<Self::Item>;

    /// Maps items through `f` in parallel.
    fn map<R, F>(self, f: F) -> Map<Self, F>
    where
        R: Send,
        F: Fn(Self::Item) -> R + Sync,
    {
        Map { base: self, f }
    }

    /// Collects the results, preserving input order.
    fn collect<C: FromIterator<Self::Item>>(self) -> C {
        self.drive().into_iter().collect()
    }

    /// Runs `f` on every item in parallel.
    fn for_each<F>(self, f: F)
    where
        F: Fn(Self::Item) + Sync,
    {
        let _: Vec<()> = Map {
            base: self,
            f: |item| f(item),
        }
        .drive();
    }

    /// Number of items.
    fn count(self) -> usize {
        self.drive().len()
    }
}

/// Leaf iterator over a materialized `Vec`.
pub struct VecParIter<T> {
    items: Vec<T>,
}

impl<T: Send> ParallelIterator for VecParIter<T> {
    type Item = T;
    fn drive(self) -> Vec<T> {
        self.items
    }
}

/// Parallel `map` adapter.
pub struct Map<B, F> {
    base: B,
    f: F,
}

impl<B, R, F> ParallelIterator for Map<B, F>
where
    B: ParallelIterator,
    R: Send,
    F: Fn(B::Item) -> R + Sync,
{
    type Item = R;
    fn drive(self) -> Vec<R> {
        parallel_apply(self.base.drive(), &self.f)
    }
}

/// Applies `f` to every item across scoped threads; output preserves input
/// order. The worker count is the configured width minus workers already
/// spawned by enclosing calls, so nesting cannot oversubscribe.
fn parallel_apply<T: Send, R: Send>(items: Vec<T>, f: &(impl Fn(T) -> R + Sync)) -> Vec<R> {
    let n = items.len();
    let budget = current_num_threads().saturating_sub(ACTIVE_WORKERS.load(Ordering::Relaxed));
    let threads = budget.clamp(1, n.max(1));
    if threads <= 1 || n <= 1 {
        return items.into_iter().map(f).collect();
    }
    ACTIVE_WORKERS.fetch_add(threads, Ordering::Relaxed);
    let _release = ReleaseWorkers(threads);

    // Striped assignment: worker w takes items w, w+threads, ... — cheap
    // static balancing for sweeps whose cost varies smoothly with index.
    let indexed: Vec<Mutex<Option<(usize, T)>>> = items
        .into_iter()
        .enumerate()
        .map(|p| Mutex::new(Some(p)))
        .collect();
    let mut results: Vec<(usize, R)> = std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for w in 0..threads {
            let indexed = &indexed;
            handles.push(scope.spawn(move || {
                let mut out = Vec::with_capacity(n / threads + 1);
                let mut i = w;
                while i < n {
                    let (idx, item) = indexed[i]
                        .lock()
                        .expect("worker panicked")
                        .take()
                        .expect("each slot is taken exactly once");
                    out.push((idx, f(item)));
                    i += threads;
                }
                out
            }));
        }
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("parallel map worker panicked"))
            .collect()
    });
    results.sort_by_key(|&(idx, _)| idx);
    results.into_iter().map(|(_, r)| r).collect()
}

/// Returns a worker allotment to [`ACTIVE_WORKERS`] on drop (also on
/// panic-unwind out of `parallel_apply`).
struct ReleaseWorkers(usize);

impl Drop for ReleaseWorkers {
    fn drop(&mut self) {
        ACTIVE_WORKERS.fetch_sub(self.0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;
    use super::*;

    /// Serializes every test in this module. The worker configuration
    /// and the `ACTIVE_WORKERS` budget are process-wide, so a test that
    /// spawns workers while another reconfigures the width, or asserts
    /// the budget is back to zero, would observe its sibling mid-run.
    static CONFIG_LOCK: Mutex<()> = Mutex::new(());

    /// Takes [`CONFIG_LOCK`], recovering it if an earlier test panicked
    /// while holding it (that test already failed on its own).
    fn serial() -> std::sync::MutexGuard<'static, ()> {
        CONFIG_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    #[test]
    fn map_collect_preserves_order() {
        let _guard = serial();
        let v: Vec<u64> = (0..1000).collect();
        let doubled: Vec<u64> = v.into_par_iter().map(|x| x * 2).collect();
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn par_iter_borrows() {
        let _guard = serial();
        let v: Vec<String> = (0..64).map(|i| i.to_string()).collect();
        let lens: Vec<usize> = v.par_iter().map(|s| s.len()).collect();
        assert_eq!(lens.len(), 64);
        assert_eq!(lens[10], 2);
    }

    #[test]
    fn chained_maps_compose() {
        let _guard = serial();
        let v: Vec<i64> = (0..100).collect();
        let out: Vec<i64> = v.into_par_iter().map(|x| x + 1).map(|x| x * 3).collect();
        assert_eq!(out[0], 3);
        assert_eq!(out[99], 300);
    }

    #[test]
    fn nested_parallelism_stays_within_budget() {
        let _guard = serial();
        ThreadPoolBuilder::new()
            .num_threads(2)
            .build_global()
            .unwrap();
        // Outer takes the full budget; inner calls must degrade to serial
        // (not spawn 2 more workers each) and still produce correct,
        // ordered results.
        let outer: Vec<Vec<u64>> = (0u64..4)
            .collect::<Vec<_>>()
            .into_par_iter()
            .map(|i| {
                (0u64..8)
                    .collect::<Vec<_>>()
                    .into_par_iter()
                    .map(move |j| i * 100 + j)
                    .collect()
            })
            .collect();
        assert_eq!(outer.len(), 4);
        assert_eq!(outer[3][7], 307);
        assert_eq!(ACTIVE_WORKERS.load(Ordering::Relaxed), 0, "workers leaked");
        ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
    }

    #[test]
    fn thread_pool_builder_configures_count() {
        let _guard = serial();
        ThreadPoolBuilder::new()
            .num_threads(3)
            .build_global()
            .unwrap();
        assert_eq!(current_num_threads(), 3);
        ThreadPoolBuilder::new()
            .num_threads(0)
            .build_global()
            .unwrap();
        assert!(current_num_threads() >= 1);
    }
}
