//! The paper's headline story (Figs. 1 and 4): scaling a 40B LLM from 1K
//! to 8K GPUs cuts training time ~3× but wastes ever more GPU time in
//! pipeline bubbles — and PipeFill recovers most of it.
//!
//! ```sh
//! cargo run --release --example scale_out_llm
//! ```

use pipefill::core::experiments::{find, Scale};

fn main() {
    println!("Scaling the 40B LLM (GPipe, minibatch fixed at 1024 sequences):\n");
    let exp = find("fig4_scaling").expect("registered experiment");
    let table = exp.run(&exp.grid(Scale::Full));
    table.print();

    let first = |col: &str| table.f64_column(col)[0];
    let last = |col: &str| *table.f64_column(col).last().expect("non-empty sweep");
    println!(
        "\nScaling {}→{} GPUs cuts training {:.0}→{:.0} days but drops \
         traditional utilization {:.1}→{:.1} TFLOPS/GPU.",
        first("gpus"),
        last("gpus"),
        first("days_to_train"),
        last("days_to_train"),
        first("traditional_tflops"),
        last("traditional_tflops")
    );
    println!(
        "PipeFill lifts the {}-GPU point back to {:.1} TFLOPS/GPU (+{:.0}%) with the trace mix,",
        last("gpus"),
        last("pipefill_trace_mix_tflops"),
        100.0 * (last("pipefill_trace_mix_tflops") / last("traditional_tflops") - 1.0)
    );
    println!(
        "and {:.1} TFLOPS/GPU (+{:.0}%) with bubble-friendly BERT inference — \
         ≈{:.0} GPUs' worth of extra work.",
        last("pipefill_bert_inf_tflops"),
        100.0 * (last("pipefill_bert_inf_tflops") / last("traditional_tflops") - 1.0),
        last("gpus_saved_best")
    );
}
