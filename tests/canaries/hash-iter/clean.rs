//! Canary: an ordered map gives every visit a deterministic order, and
//! point lookups go through `LookupMap`, which cannot be iterated.
use std::collections::BTreeMap;

use pipefill_sim_core::LookupMap;

/// Plan weights keyed by id.
pub struct Cache {
    plans: BTreeMap<u64, f64>,
    lookup: LookupMap<u64, f64>,
}

impl Cache {
    /// Sums in key order.
    pub fn total(&self) -> f64 {
        self.plans.values().sum()
    }

    /// A point lookup.
    pub fn get(&self, k: u64) -> Option<f64> {
        self.lookup.get(&k).copied()
    }
}
