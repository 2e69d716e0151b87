//! Canary: time only advances on the simulated clock; `Duration` is a
//! pure value type and carries no ambient reads.
use std::time::Duration;

/// The run's horizon.
pub fn horizon() -> Duration {
    Duration::from_secs(3600)
}
