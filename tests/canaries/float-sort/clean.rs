//! Canary: `total_cmp` is a total order over all bit patterns. A
//! `partial_cmp` in a comment or a `PartialOrd` impl is not a call.
use std::cmp::Ordering;

/// Sorts totally.
pub fn order(xs: &mut [f64]) {
    xs.sort_by(f64::total_cmp);
}

/// Picks the maximum: not `a.partial_cmp(b).unwrap()`.
pub fn pick(xs: &[f64]) -> Option<&f64> {
    xs.iter().max_by(|a, b| a.total_cmp(b))
}

/* A block comment naming partial_cmp is not a call either. */

/// A finite weight.
#[derive(PartialEq)]
pub struct Weight(f64);

impl PartialOrd for Weight {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.0.total_cmp(&other.0))
    }
}
