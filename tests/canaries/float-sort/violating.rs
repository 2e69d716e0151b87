//! Canary: `partial_cmp` is a partial order. Unwrapped it panics on NaN,
//! and even handled it leaves NaN's place in a sort to the input order.
//! Every call is reported; each line marked `//~` must be.

/// Sorts with a comparator that panics on NaN.
pub fn order(xs: &mut [f64]) {
    xs.sort_by(|a, b| a.partial_cmp(b).unwrap()); //~
}

/// Picks the maximum, across a line break.
pub fn pick(xs: &[f64]) -> Option<&f64> {
    xs.iter()
        .max_by(|a, b| a.partial_cmp(b).expect("finite")) //~
}

/// A NaN compares equal to everything here, so its place is arbitrary.
pub fn order_lenient(xs: &mut [f64]) {
    xs.sort_by(|a, b| {
        PartialOrd::partial_cmp(a, b).unwrap_or(std::cmp::Ordering::Equal) //~
    });
}
