//! Canary: an audited exception.

/// A scratch directory for a debug dump.
#[expect(
    clippy::disallowed_methods,
    reason = "scratch path for a debug dump, never read back into the sim"
)]
pub fn scratch_dir() -> std::path::PathBuf {
    std::env::temp_dir()
}
