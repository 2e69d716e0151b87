//! Canary: a well-formed, in-use exception produces no audit noise.

/// The command line's length.
#[expect(
    clippy::disallowed_methods,
    reason = "a well-formed exception that still matches its lint"
)]
pub fn argc() -> usize {
    std::env::args().count()
}
