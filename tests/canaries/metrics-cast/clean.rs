
// Canary, inserted into `metrics.rs`: widen losslessly with `from`, or
// convert with a checked `try_from`.

/// A lossless widening.
pub fn canary_lost_flops(count: u32) -> u64 {
    u64::from(count)
}

/// A checked conversion.
pub fn canary_completed(count: usize) -> Option<u64> {
    u64::try_from(count).ok()
}

/// A lossless integer-to-float conversion.
pub fn canary_share(done: u32, total: u32) -> f64 {
    f64::from(done) / f64::from(total)
}
