//! Regenerates every table and figure of the paper's evaluation and
//! writes CSVs under `target/experiments/` — by iterating the experiment
//! registry rather than naming drivers one by one, so a newly registered
//! experiment is reproduced automatically. This is the full artifact
//! run; expect a few minutes in release mode.
//!
//! ```sh
//! cargo run --release --example reproduce_all
//! ```

use pipefill::core::EXPERIMENTS_DIR;
use pipefill::scenario::{Scale, REGISTRY};

fn main() -> std::io::Result<()> {
    let dir = EXPERIMENTS_DIR;
    std::fs::create_dir_all(dir)?;

    for &exp in REGISTRY {
        println!("== {} — {} ==", exp.name(), exp.description());
        let table = exp.run(&exp.grid(Scale::Full));
        table.print();
        let path = format!("{dir}/{}.csv", exp.name());
        table.save(&path)?;
        println!("CSV written to {path}\n");
    }

    println!("CSV written under {dir}/ ({} experiments)", REGISTRY.len());
    Ok(())
}
