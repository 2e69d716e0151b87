//! Runs a test's checks at one sweep worker and at two. The pins of a
//! parallel path must hold at every worker count, and the count is
//! process-wide, so each test that sets it holds one lock per test
//! binary while it does. The pin tests include this file as a module
//! with `set_threads` (`sweep::set_threads`) in scope, and so does
//! `sweep.rs` for the library's own tests.

use std::sync::{Mutex, MutexGuard, PoisonError};

use super::set_threads;

/// Holds the sweep width at a worker count until dropped, then restores
/// the machine-sized default.
pub struct Width {
    _lock: MutexGuard<'static, ()>,
}

impl Width {
    fn hold(threads: usize) -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
        set_threads(threads);
        Self { _lock: lock }
    }
}

impl Drop for Width {
    fn drop(&mut self) {
        set_threads(0);
    }
}

/// One worker, then two: `for _width in one_and_two_workers() { … }`
/// runs the loop body once under each.
pub fn one_and_two_workers() -> impl Iterator<Item = Width> {
    [1, 2].into_iter().map(Width::hold)
}
