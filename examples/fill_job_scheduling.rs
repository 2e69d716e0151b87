//! Cluster-level fill-job scheduling: replay a synthetic Alibaba-style
//! trace against the 5B main job's bubbles under two policies and compare
//! completion times and makespan (the Fig. 9 experiment at one load).
//!
//! ```sh
//! cargo run --release --example fill_job_scheduling
//! ```

use pipefill::core::{ClusterSimConfig, CoarseBackend, PolicyKind};
use pipefill::pipeline::{MainJobSpec, ScheduleKind};
use pipefill::sim::SimDuration;
use pipefill::trace::TraceConfig;

fn main() {
    let mut first = true;
    for policy in [PolicyKind::Fifo, PolicyKind::Sjf, PolicyKind::MakespanMin] {
        let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
        let mut trace = TraceConfig::physical(42).with_load(2.5);
        trace.horizon = SimDuration::from_secs(3600);
        let mut cfg = ClusterSimConfig::new(main, trace);
        cfg.policy = policy;
        let result = CoarseBackend::simulate(cfg);

        if first {
            println!(
                "trace: {} jobs over {}, {} devices, bubble ratio {:.1}%\n",
                result.completed.len(),
                result.horizon,
                result.num_devices,
                100.0 * result.bubble_ratio
            );
            println!(
                "{:>14} {:>10} {:>10} {:>10} {:>12} {:>12}",
                "policy", "mean JCT", "median", "p95", "makespan", "fill TFLOPS"
            );
            first = false;
        }
        println!(
            "{:>14} {:>9.0}s {:>9.0}s {:>9.0}s {:>11.0}s {:>12.2}",
            policy.to_string(),
            result.jct.mean_secs,
            result.jct.median_secs,
            result.jct.p95_secs,
            result.makespan.as_secs_f64(),
            result.recovered_tflops_per_gpu,
        );
    }
    println!(
        "\nSJF minimizes completion times; Makespan-Min trades JCT for an earlier \
         finish of the whole batch — exactly the Fig. 9 trade-off."
    );
}
