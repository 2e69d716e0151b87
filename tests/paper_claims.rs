//! The paper's headline claims, verified end-to-end at test scale. The
//! bands are loose because these grids are smaller than the full-scale
//! ones `pipefill-cli all` regenerates.

use std::sync::OnceLock;

use pipefill::core::experiments::{find, Scale, Table};
use pipefill::core::{gpus_saved, PhysicalBackend, PhysicalSimConfig};
use pipefill::pipeline::{bubble_fraction, MainJobSpec, ScheduleKind};

/// Runs a registered experiment on its full grid.
fn run(name: &str) -> Table {
    let exp = find(name).expect("registered experiment");
    exp.run(&exp.grid(Scale::Full))
}

/// The `column` cell of the Fig. 4 point at `gpus`, from one run of the
/// experiment shared by every Fig. 4 claim.
fn fig4(gpus: usize, column: &str) -> f64 {
    static FIG4: OnceLock<Table> = OnceLock::new();
    FIG4.get_or_init(|| run("fig4_scaling"))
        .filter("gpus", gpus)
        .f64_column(column)[0]
}

/// §1/§6.1: "<2% slowdown of the training job" at the default 68% fill.
#[test]
fn claim_sub_two_percent_overhead() {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let mut cfg = PhysicalSimConfig::new(main);
    cfg.iterations = 150;
    let result = PhysicalBackend::simulate(cfg);
    assert!(
        result.main_slowdown < 0.02,
        "main-job slowdown {} ≥ 2%",
        result.main_slowdown
    );
    assert!(result.recovered_tflops_per_gpu > 3.0);
}

/// §1: "increase overall utilization by up to 63% for GPUs used in
/// large-scale LLM training … and 5–15% even for low-scale LLM training."
#[test]
fn claim_utilization_gains_by_scale() {
    let gain =
        |gpus| fig4(gpus, "pipefill_bert_inf_tflops") / fig4(gpus, "traditional_tflops") - 1.0;
    let low_gain = gain(1024);
    let high_gain = gain(8192);
    assert!(
        (0.04..0.20).contains(&low_gain),
        "low-scale gain {low_gain} outside the 5-15% band"
    );
    assert!(
        (0.40..0.90).contains(&high_gain),
        "large-scale best-case gain {high_gain} not in the up-to-63% regime"
    );
}

/// §6.1: strong-scaling with PipeFill — "at 8K GPUs PIPEFILL exceeds the
/// GPU utilization of traditional pipeline parallelism at 4K GPUs" with
/// the BERT-inference workload.
#[test]
fn claim_strong_scaling_another_octave() {
    let pipefill_8k = fig4(8192, "pipefill_bert_inf_tflops");
    let traditional_4k = fig4(4096, "traditional_tflops");
    assert!(
        pipefill_8k > traditional_4k,
        "PipeFill@8K {pipefill_8k} vs traditional@4K {traditional_4k}"
    );
}

/// §6.2: GPUs saved = C·B·P — "over 1500 GPUs for the trace mix and over
/// 2600 GPUs in the best case" at 8K (we verify the formula and that our
/// measured P lands in a compatible order of magnitude).
#[test]
fn claim_gpus_saved() {
    assert!(gpus_saved(8192, 0.652, 0.3) > 1500.0);
    assert!(gpus_saved(8192, 0.652, 0.5) > 2600.0);
    let saved = fig4(8192, "gpus_saved_trace_mix");
    assert!(saved > 700.0, "measured GPUs saved {saved}");
}

/// §2.1: the bubble-fraction formula and the paper's quoted series.
#[test]
fn claim_bubble_fraction_series() {
    assert!((bubble_fraction(16, 8) - 0.652).abs() < 0.001); // the 65% physical setup
    for (m, expect) in [(64, 0.190), (32, 0.319), (16, 0.484), (4, 0.789)] {
        assert!((bubble_fraction(16, m) - expect).abs() < 0.001);
    }
}

/// §6.3: both schedules benefit; GPipe recovers more at low scale, the
/// difference shrinks at high scale.
#[test]
fn claim_schedule_sensitivity() {
    let t = run("fig8_schedules");
    for (row, recovered) in t.rows().iter().zip(t.f64_column("recovered_tflops")) {
        assert!(recovered > 0.0, "{row:?} recovered nothing");
    }
    let recovered = |gpus: usize, schedule: ScheduleKind| {
        t.filter("gpus", gpus)
            .filter("schedule", schedule.to_string())
            .f64_column("recovered_tflops")[0]
    };
    let gap = |gpus: usize| {
        let g = recovered(gpus, ScheduleKind::GPipe);
        let o = recovered(gpus, ScheduleKind::OneFOneB);
        (g - o) / g
    };
    assert!(gap(2048) > gap(16384));
}

/// §6.3: free memory matters with diminishing returns (Fig. 10b), bubble
/// size barely matters (Fig. 10a).
#[test]
fn claim_sensitivity_shapes() {
    let mem = run("fig10b_free_memory");
    let at = |g: f64| mem.filter("free_gib", g).f64_column("recovered_tflops")[0];
    assert!(at(4.0) > at(2.0));
    assert!(at(8.0) / at(4.0) - 1.0 < at(4.0) / at(2.0) - 1.0);

    let size = run("fig10a_bubble_size").f64_column("recovered_tflops");
    let spread = size.iter().cloned().fold(f64::MIN, f64::max)
        / size.iter().cloned().fold(f64::MAX, f64::min);
    assert!(spread < 1.4, "bubble-size sweep spread {spread}");
}

/// §4.3: a fill job exceeding its memory cap dies in isolation — the
/// main job is unaffected (verified under injected memory noise).
#[test]
fn claim_oom_isolation() {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let mut cfg = PhysicalSimConfig::new(main);
    cfg.iterations = 120;
    cfg.memory_jitter_cv = 0.35;
    let result = PhysicalBackend::simulate(cfg);
    assert!(result.isolated_ooms > 0, "injection produced no OOMs");
    assert!(
        result.main_slowdown < 0.02,
        "OOM isolation violated: slowdown {}",
        result.main_slowdown
    );
}

/// §6.2's newer-hardware hypothesis: higher CPU↔GPU bandwidth shrinks
/// the offloading tax on offload-bound fill jobs.
#[test]
fn claim_offload_bandwidth_hypothesis() {
    let tax = run("whatif_offload_bandwidth").f64_column("offload_tax");
    let (first, last) = (tax[0], tax[tax.len() - 1]);
    assert!(first > last);
    assert!(last < 1.05);
}

/// Table 1 reproduces within tolerance.
#[test]
fn claim_table1() {
    let t = run("table1");
    let built = t.f64_column("params_millions");
    for (row, (built, paper)) in t
        .rows()
        .iter()
        .zip(built.into_iter().zip(t.f64_column("paper_params_millions")))
    {
        let err = (built - paper).abs() / paper;
        assert!(err < 0.08, "{row:?}: {err}");
    }
}

/// §6.2's qualitative characterization claims, end to end.
#[test]
fn claim_fill_job_characterization() {
    let t = run("fig7_characterization");
    use pipefill::models::{JobKind, ModelId};
    let get = |m: ModelId, k: JobKind| t.filter("model", m.name()).filter("kind", k.to_string());
    let cell = |job: &Table, column: &str| job.f64_column(column)[0];
    let bert_inf = get(ModelId::BertBase, JobKind::BatchInference);
    let bert_train = get(ModelId::BertBase, JobKind::Training);
    let xlm = get(ModelId::XlmRobertaXl, JobKind::BatchInference);
    let swin = get(ModelId::SwinLarge, JobKind::BatchInference);
    let tflops = "tflops_during_execution";
    let relative = "relative_performance";
    // Inference beats training; Swin performs poorly; XLM slows more
    // than BERT despite similar TFLOPS.
    assert!(cell(&bert_inf, tflops) >= cell(&bert_train, tflops));
    assert!(cell(&swin, tflops) < 0.6 * cell(&bert_inf, tflops));
    assert!(cell(&xlm, relative) < cell(&bert_inf, relative));
    // All fill jobs suffer substantial slowdown (≈30% of exclusive).
    for (row, rel) in t.rows().iter().zip(t.f64_column(relative)) {
        assert!((0.02..0.7).contains(&rel), "{row:?}");
    }
}
