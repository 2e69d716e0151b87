//! A hash map that can be looked up but never iterated.
//!
//! Iterating a `HashMap` visits keys in the hasher's per-process order,
//! so any result that observes the visit order breaks byte-identical
//! replay. The workspace therefore bans `std::collections::{HashMap,
//! HashSet}` by type (`clippy.toml`), and every point-lookup table goes
//! through [`LookupMap`] instead: it has `get`, `insert`, `entry`,
//! `remove`, `len` and `is_empty`, and no way to visit its entries.

use std::collections::hash_map::Entry;
use std::fmt;
use std::hash::Hash;

/// A point-lookup hash map with no iteration API. A set is the map to
/// `()`.
///
/// # Example
///
/// ```
/// use pipefill_sim_core::LookupMap;
///
/// let mut m: LookupMap<u64, &str> = LookupMap::new();
/// assert_eq!(m.insert(7, "seven"), None);
/// assert_eq!(m.get(&7), Some(&"seven"));
/// *m.entry(8).or_insert("eight") = "EIGHT";
/// assert_eq!(m.remove(&8), Some("EIGHT"));
/// assert_eq!(m.len(), 1);
/// ```
pub struct LookupMap<K, V>(
    #[expect(
        clippy::disallowed_types,
        reason = "the one sanctioned HashMap: this wrapper exposes no iteration"
    )]
    std::collections::HashMap<K, V>,
);

impl<K: Hash + Eq, V> LookupMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        LookupMap(Default::default())
    }

    /// The value under `key`, if any.
    pub fn get(&self, key: &K) -> Option<&V> {
        self.0.get(key)
    }

    /// Inserts `value` under `key`, returning the value it replaced.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        self.0.insert(key, value)
    }

    /// The entry for `key`, for in-place insert-or-update.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        self.0.entry(key)
    }

    /// Removes and returns the value under `key`.
    pub fn remove(&mut self, key: &K) -> Option<V> {
        self.0.remove(key)
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the map holds no entries.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

impl<K: Hash + Eq, V> Default for LookupMap<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

/// Shows the entry count only: listing entries would expose the
/// hasher's order.
impl<K, V> fmt::Debug for LookupMap<K, V> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LookupMap")
            .field("len", &self.0.len())
            .finish()
    }
}
