//! Canary: every way an exception can rot. A stale `expect` fails once
//! its lint stops firing, an exception needs a reason, and `allow` is
//! banned in favour of `expect`. Each line marked `//~` must be reported.

/// Nothing here reads the environment any more.
#[expect(clippy::disallowed_methods, reason = "was a PERF_RUNNER_CLASS read")] //~
pub fn fixed_long_ago() {}

/// An exception without a reason.
#[expect(clippy::disallowed_methods)] //~
pub fn reasonless() -> usize {
    std::env::args().count()
}

/// `allow` never fails when it goes stale, so it is banned.
#[allow(clippy::disallowed_methods, reason = "an allow with a reason is still an allow")] //~
pub fn allowed() -> usize {
    std::env::args().count()
}

/// A bare `allow`.
#[allow(dead_code)] //~
fn bare() {}
