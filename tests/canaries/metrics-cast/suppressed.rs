
// Canary, inserted into `metrics.rs`: an audited exception.

/// The hour bucket of a time of day.
#[expect(
    clippy::as_conversions,
    reason = "secs is clamped to [0, 86400] first, so the cast cannot truncate"
)]
pub fn canary_bucket(secs: f64) -> usize {
    (secs.clamp(0.0, 86_400.0) / 3600.0) as usize
}
