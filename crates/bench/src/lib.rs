//! # pipefill-bench
//!
//! The perf-snapshot harness: the `perf_snapshot` binary measures the
//! steady-state fast-forward's wall-clock win and pins it in the
//! checked-in `BENCH_fleet.json` / `BENCH_engine.json`, whose document
//! model is [`snapshot`]. Run it with:
//!
//! ```sh
//! cargo run --release -p pipefill-bench --bin perf_snapshot -- --check
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod snapshot;
