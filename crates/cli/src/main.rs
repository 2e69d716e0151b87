//! `pipefill-cli` — run the PipeFill reproduction from the command line;
//! `pipefill-cli help` prints every command and option.
#![forbid(unsafe_code)]

mod args;
mod commands;

use std::process::ExitCode;

/// Usage and I/O errors exit with their own status so scripts (and the
/// CI certificate job) can tell "the verdict was a rejection" (1,
/// reported by `commands::run` itself) from "the invocation never ran"
/// (2).
const USAGE_ERROR: u8 = 2;

fn main() -> ExitCode {
    #[expect(
        clippy::disallowed_methods,
        reason = "the command line is this binary's input"
    )]
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match args::parse(&argv) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("{}", args::usage());
            return ExitCode::from(USAGE_ERROR);
        }
    };
    match commands::run(parsed) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(USAGE_ERROR)
        }
    }
}
