//! The paper's headline claims, verified end-to-end at test scale. The
//! bands are loose because these grids are smaller than the full-scale
//! ones `pipefill-cli all` regenerates.

use pipefill::core::experiments::*;
use pipefill::core::{gpus_saved, PhysicalBackend, PhysicalSimConfig};
use pipefill::executor::ExecutorConfig;
use pipefill::pipeline::{bubble_fraction, MainJobSpec, ScheduleKind};

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
    let rows = fig4_scaling_with(&[64, 8], &ExecutorConfig::default());
    let low = &rows[0]; // 1K GPUs
    let high = &rows[1]; // 8K GPUs
    let low_gain = low.pipefill_bert_inf_tflops / low.traditional_tflops - 1.0;
    let high_gain = high.pipefill_bert_inf_tflops / high.traditional_tflops - 1.0;
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
    let rows = fig4_scaling_with(&[16, 8], &ExecutorConfig::default());
    let at_4k = &rows[0];
    let at_8k = &rows[1];
    assert!(
        at_8k.pipefill_bert_inf_tflops > at_4k.traditional_tflops,
        "PipeFill@8K {} vs traditional@4K {}",
        at_8k.pipefill_bert_inf_tflops,
        at_4k.traditional_tflops
    );
}

/// §6.2: GPUs saved = C·B·P — "over 1500 GPUs for the trace mix and over
/// 2600 GPUs in the best case" at 8K (we verify the formula and that our
/// measured P lands in a compatible order of magnitude).
#[test]
fn claim_gpus_saved() {
    assert!(gpus_saved(8192, 0.652, 0.3) > 1500.0);
    assert!(gpus_saved(8192, 0.652, 0.5) > 2600.0);
    let rows = fig4_scaling_with(&[8], &ExecutorConfig::default());
    assert!(
        rows[0].gpus_saved_trace_mix > 700.0,
        "measured GPUs saved {}",
        rows[0].gpus_saved_trace_mix
    );
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
    let rows = fig8_schedules(&ExecutorConfig::default());
    for r in &rows {
        assert!(r.recovered_tflops > 0.0, "{:?} recovered nothing", r);
    }
    let gap = |gpus: usize| {
        let g = rows
            .iter()
            .find(|r| r.gpus == gpus && r.schedule == ScheduleKind::GPipe)
            .unwrap()
            .recovered_tflops;
        let o = rows
            .iter()
            .find(|r| r.gpus == gpus && r.schedule == ScheduleKind::OneFOneB)
            .unwrap()
            .recovered_tflops;
        (g - o) / g
    };
    assert!(gap(2048) > gap(16384));
}

/// §6.3: free memory matters with diminishing returns (Fig. 10b), bubble
/// size barely matters (Fig. 10a).
#[test]
fn claim_sensitivity_shapes() {
    let exec = ExecutorConfig::default();
    let mem = fig10b_free_memory(&exec);
    let at = |g: f64| {
        mem.iter()
            .find(|r| r.free_gib == g)
            .unwrap()
            .recovered_tflops
    };
    assert!(at(4.0) > at(2.0));
    assert!(at(8.0) / at(4.0) - 1.0 < at(4.0) / at(2.0) - 1.0);

    let size = fig10a_bubble_size(&exec);
    let spread = size
        .iter()
        .map(|r| r.recovered_tflops)
        .fold(f64::MIN, f64::max)
        / size
            .iter()
            .map(|r| r.recovered_tflops)
            .fold(f64::MAX, f64::min);
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
    let rows = whatif_offload_bandwidth();
    assert!(rows.first().unwrap().offload_tax > rows.last().unwrap().offload_tax);
    assert!(rows.last().unwrap().offload_tax < 1.05);
}

/// Table 1 reproduces within tolerance.
#[test]
fn claim_table1() {
    for row in table1() {
        let err =
            (row.params_millions - row.paper_params_millions).abs() / row.paper_params_millions;
        assert!(err < 0.08, "{}: {err}", row.model);
    }
}

/// §6.2's qualitative characterization claims, end to end.
#[test]
fn claim_fill_job_characterization() {
    let rows = fig7_characterization(
        &characterization::fig7_default_main(),
        &ExecutorConfig::default(),
    );
    use pipefill::models::{JobKind, ModelId};
    let get = |m: ModelId, k: JobKind| rows.iter().find(|r| r.model == m && r.kind == k).unwrap();
    let bert_inf = get(ModelId::BertBase, JobKind::BatchInference);
    let bert_train = get(ModelId::BertBase, JobKind::Training);
    let xlm = get(ModelId::XlmRobertaXl, JobKind::BatchInference);
    let swin = get(ModelId::SwinLarge, JobKind::BatchInference);
    // Inference beats training; Swin performs poorly; XLM slows more
    // than BERT despite similar TFLOPS.
    assert!(bert_inf.tflops_during_execution >= bert_train.tflops_during_execution);
    assert!(swin.tflops_during_execution < 0.6 * bert_inf.tflops_during_execution);
    assert!(xlm.relative_performance < bert_inf.relative_performance);
    // All fill jobs suffer substantial slowdown (≈30% of exclusive).
    for r in &rows {
        assert!((0.02..0.7).contains(&r.relative_performance), "{r:?}");
    }
}
