//! Canary: iterating a hash collection observes the hasher's per-process
//! visit order. The types are banned, so every form of iteration is
//! reported where the type is named: each line marked `//~` must be.
use std::collections::{HashMap, HashSet}; //~

/// Plan weights keyed by id.
pub struct Cache {
    plans: HashMap<u64, f64>, //~
}

impl Cache {
    /// `values()`: float addition is not associative, so two runs can
    /// disagree in the last bits.
    pub fn total(&self) -> f64 {
        self.plans.values().sum()
    }

    /// `retain`: visits every entry in hash order.
    pub fn drop_stale(&mut self) {
        self.plans.retain(|_, v| *v > 0.0);
    }
}

/// A map alias hides the type from a name-based lint, not from this one.
pub type Weights = HashMap<u64, f64>; //~

/// `for … in &set`.
pub fn listed(ids: &HashSet<u64>) -> Vec<u64> { //~
    let mut out = Vec::new();
    for &id in ids {
        out.push(id);
    }
    out
}

/// `into_iter` by method, and `for … in m.into_iter()`.
pub fn pairs(m: HashMap<u64, u64>, n: Weights) -> Vec<(u64, u64)> { //~
    let mut out: Vec<(u64, u64)> = m.into_iter().collect();
    for (k, v) in n.into_iter() {
        out.push((k, v.to_bits()));
    }
    out
}

/// `extend` from a set, built by `collect`.
pub fn deduped(ids: Vec<u64>) -> Vec<u64> {
    let set: HashSet<u64> = ids.into_iter().collect(); //~
    let mut out = Vec::new();
    out.extend(set);
    out
}

/// `FromIterator`, through a fully qualified path.
pub fn rebuilt(pairs: Vec<(u64, u64)>) -> usize {
    let m = std::collections::HashMap::<u64, u64>::from_iter(pairs); //~
    m.into_keys().count()
}
