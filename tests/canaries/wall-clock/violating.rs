//! Canary: host time and thread identity read inside simulation state.
//! Each line marked `//~` must be reported.
use std::time::{Instant, SystemTime};

/// The monotonic clock.
pub fn stamp() -> Instant {
    Instant::now() //~
}

/// The system clock.
pub fn wall() -> SystemTime {
    SystemTime::now() //~
}

/// The running thread's name.
pub fn worker() -> Option<String> {
    std::thread::current().name().map(str::to_string) //~
}
