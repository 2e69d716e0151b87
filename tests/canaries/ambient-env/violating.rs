//! Canary: every read or write of the host environment makes a run
//! depend on the host. Each line marked `//~` must be reported.
use std::env;
use std::path::PathBuf;

/// Environment variables.
pub fn variables() -> usize {
    let one = env::var("PERF_RUNNER_CLASS").map_or(0, |v| v.len()); //~
    let os = env::var_os("PERF_RUNNER_CLASS").map_or(0, |v| v.len()); //~
    one + os + env::vars().count() + env::vars_os().count() //~
}

/// The command line.
pub fn command_line() -> usize {
    env::args().count() + env::args_os().count() //~
}

/// Host paths.
pub fn paths() -> Vec<PathBuf> {
    let mut out = vec![env::temp_dir()]; //~
    out.extend(env::current_dir()); //~
    out.extend(env::current_exe()); //~
    #[expect(deprecated, reason = "the deprecated spelling must be banned too")]
    out.extend(env::home_dir()); //~
    out
}

/// Process-global state.
pub fn set_up() -> std::io::Result<()> {
    env::set_var("TZ", "UTC"); //~
    env::remove_var("TZ"); //~
    env::set_current_dir("/") //~
}

/// The process id.
pub fn pid() -> u32 {
    std::process::id() //~
}
