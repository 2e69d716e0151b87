//! A guided tour of the PipeFill machinery on the physical-cluster setup
//! (5B LLM, 16 GPUs): schedule instructions with bubble markers,
//! free-memory accounting, and Algorithm 1's partitioning of an XLM
//! inference job that does not fit in memory.
//!
//! ```sh
//! cargo run --example bubble_walkthrough
//! ```

use pipefill::device::Bytes;
use pipefill::executor::{
    build_profile, plan_best, ExecConfig, ExecTechnique, ExecutorConfig, FillJobSpec,
};
use pipefill::models::{JobKind, ModelId};
use pipefill::pipeline::{MainJobSpec, PipelineInstruction, ScheduleKind};

fn main() {
    let main = MainJobSpec::physical_5b(8, ScheduleKind::GPipe);
    let timeline = main.engine_timeline();

    // --- 1. The instrumented schedule -----------------------------------
    println!("== stage 12's GPipe instruction stream (m=8) ==");
    let instrs = ScheduleKind::GPipe.stage_instructions(12, 16, 8);
    for (i, instr) in instrs.iter().enumerate() {
        let tag = match instr {
            PipelineInstruction::Bubble { kind } => format!("<bubble marker: {kind}>"),
            other => format!("{other:?}"),
        };
        println!("  [{i:>2}] {tag}");
    }

    // --- 2. Why XLM needs ZeRO-Infinity-style streaming (§6.2) -----------
    let xlm = ModelId::XlmRobertaXl.build();
    let bubble_mem = Bytes::from_gib_f64(4.5);
    let plain = build_profile(
        &xlm,
        JobKind::BatchInference,
        ExecConfig {
            batch_size: 4,
            technique: ExecTechnique::Plain,
        },
        &main.device,
    );
    let streamed = build_profile(
        &xlm,
        JobKind::BatchInference,
        ExecConfig {
            batch_size: 4,
            technique: ExecTechnique::OffloadParams,
        },
        &main.device,
    );
    println!("\n== XLM-Roberta-XL (2.8B) in a {bubble_mem} bubble ==");
    println!(
        "  plain    : peak {} {}",
        plain.peak_memory(),
        if plain.peak_memory() > bubble_mem {
            "→ does NOT fit"
        } else {
            "→ fits"
        }
    );
    println!(
        "  streaming: peak {} → fits; iteration {} vs {} plain",
        streamed.peak_memory(),
        streamed.iteration_time(),
        plain.iteration_time()
    );

    // --- 3. Algorithm 1 on the real bubble cycle -------------------------
    let windows = timeline.stages[12].fillable_windows();
    let slots: Vec<_> = windows
        .iter()
        .map(|w| (w.duration, w.free_memory))
        .collect();
    let job = FillJobSpec::new(7, ModelId::XlmRobertaXl, JobKind::BatchInference, 5_000);
    let plan = plan_best(&job, &slots, &main.device, &ExecutorConfig::default())
        .expect("streaming configs fit");
    println!("\n== Algorithm 1 plan for the XLM job on stage 12 ==");
    println!("  config: {}", plan.config);
    for (i, p) in plan.partitions.iter().enumerate().take(6) {
        println!(
            "  partition {i}: bubble slot {} | {} nodes | {} | peak {}",
            p.bubble_index, p.node_count, p.duration, p.memory
        );
    }
    if plan.partitions.len() > 6 {
        println!("  … {} more partitions", plan.partitions.len() - 6);
    }
    println!(
        "  {} fill-iterations per pass spanning {} main-job iterations",
        plan.iterations_per_pass, plan.main_iterations_per_pass
    );
}
