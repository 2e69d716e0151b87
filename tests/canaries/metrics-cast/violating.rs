
// Canary, inserted into `metrics.rs` (so `//` comments, not `//!`): every
// `as` cast in the accounting module is reported, lossless-looking
// widenings included. Each line marked `//~` must be reported.

/// Float to integer truncates.
pub fn canary_lost_flops(total: f64) -> u64 {
    total as u64 //~
}

/// `usize as u64`, which the `cast_*` lints let through.
pub fn canary_completed(count: usize) -> u64 {
    count as u64 //~
}

/// Integer to float rounds above 2^53.
pub fn canary_share(done: u64, total: u64) -> f64 {
    done as f64 / total as f64 //~
}
