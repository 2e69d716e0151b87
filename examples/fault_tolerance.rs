//! Fault tolerance and heterogeneity: the third simulation fidelity.
//!
//! Part 1 injects GPU failures at a sweep of MTBFs and shows the
//! FreeRide-style accounting: every failure evicts the stage's fill job,
//! burns the work since its last checkpoint (lost FLOPs), and charges a
//! checkpoint-reload tax once the device returns — so goodput degrades
//! smoothly with the failure rate while the main job pays only the
//! outage itself.
//!
//! Part 2 mixes GPU generations across the pipeline: a slow stage paces
//! the whole pipeline (stretching the period), while upgraded stages
//! convert the extra slack into more recovered fill throughput.
//!
//! ```sh
//! cargo run --release --example fault_tolerance
//! ```

use pipefill::core::{
    BackendDriver, FleetBackend, FleetSimConfig, FleetSimResult, PhysicalSimConfig,
};
use pipefill::device::DeviceSpec;
use pipefill::pipeline::{MainJobSpec, ScheduleKind};
use pipefill::sim::SimDuration;

/// A fault run is a one-job fleet: the physical 300-iteration job plus a
/// failure model and per-stage devices.
fn simulate(main: &MainJobSpec, mtbf: SimDuration, devices: Vec<DeviceSpec>) -> FleetSimResult {
    let mut phys = PhysicalSimConfig::new(main.clone());
    phys.iterations = 300;
    let mut cfg = FleetSimConfig::from_physical(&phys).with_mtbf(mtbf);
    cfg.jobs[0].stage_devices = devices;
    BackendDriver::new(FleetBackend::fault(cfg))
        .run()
        .1
        .into_result()
}

fn main() {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);

    println!("Part 1 — failure injection on the homogeneous 5B cluster:\n");
    println!(
        "{:>10} {:>9} {:>10} {:>13} {:>9} {:>10}",
        "MTBF", "failures", "evictions", "fill TFLOPS", "goodput", "slowdown"
    );
    for mtbf_secs in [f64::INFINITY, 28800.0, 7200.0, 1800.0, 600.0] {
        let mtbf = if mtbf_secs.is_finite() {
            SimDuration::from_secs_f64(mtbf_secs)
        } else {
            SimDuration::MAX
        };
        let r = simulate(&main, mtbf, Vec::new());
        let job = &r.jobs[0];
        let label = if mtbf_secs.is_finite() {
            format!("{:.0}s", mtbf_secs)
        } else {
            "never".to_string()
        };
        println!(
            "{label:>10} {:>9} {:>10} {:>13.2} {:>8.1}% {:>9.2}%",
            r.failures,
            r.evictions,
            job.recovered_tflops_per_gpu,
            100.0 * r.goodput_fraction,
            100.0 * job.main_slowdown,
        );
    }

    println!("\nPart 2 — heterogeneous pipelines (per-stage GPU specs):\n");
    let p = main.engine_timeline().stages.len();
    let scenarios: Vec<(&str, Vec<DeviceSpec>)> = vec![
        ("all V100 (baseline)", vec![DeviceSpec::v100(); p]),
        ("half A100", {
            let mut d = vec![DeviceSpec::v100(); p];
            for dev in d.iter_mut().take(p / 2) {
                *dev = DeviceSpec::a100_40g();
            }
            d
        }),
        ("all A100", vec![DeviceSpec::a100_40g(); p]),
        ("one straggler (half-speed V100)", {
            let mut slow = DeviceSpec::v100();
            slow.peak_tflops /= 2.0;
            let mut d = vec![DeviceSpec::v100(); p];
            d[p / 2] = slow;
            d
        }),
    ];
    println!(
        "{:>34} {:>12} {:>13} {:>12}",
        "cluster", "period", "fill TFLOPS", "main TFLOPS"
    );
    for (name, devices) in scenarios {
        let r = simulate(&main, SimDuration::MAX, devices).jobs.remove(0);
        println!(
            "{name:>34} {:>12} {:>13.2} {:>12.2}",
            r.nominal_period, r.recovered_tflops_per_gpu, r.main_tflops_per_gpu,
        );
    }
    println!(
        "\nThe straggler stretches every stage's idle time, so PipeFill recovers \
         *more* fill throughput exactly when the main job suffers most — and \
         upgraded stages convert their speed into fill goodput without touching \
         the pipeline's pace."
    );
}
