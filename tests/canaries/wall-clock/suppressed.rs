//! Canary: an audited exception. A progress heartbeat that never
//! reaches simulation state.

/// Nanoseconds spent inside this call.
pub fn heartbeat_nanos() -> u128 {
    #[expect(
        clippy::disallowed_methods,
        reason = "operator progress display only; the value never enters sim state"
    )]
    let start = std::time::Instant::now();
    start.elapsed().as_nanos()
}
