//! Extension experiment: the §6.2 "newer hardware" hypothesis.
//!
//! "We hypothesize that on newer hardware-systems that have higher
//! bandwidth between CPU and GPU memory (e.g., newer PCIe generations,
//! NVLink-C2C), the fill-job slowdown from offloading could be
//! substantially lower." This driver pins one offload-bound configuration
//! — XLM batch inference with ZeRO-Infinity-style parameter streaming at
//! batch 8, the config the Executor chooses under the paper's 4.5 GB
//! bubbles — and sweeps only the host-link bandwidth, reporting the
//! iteration time and the offloading tax relative to fully on-device
//! execution. Holding the configuration fixed isolates the bandwidth
//! effect from Algorithm 1's integer replication and config switching.

use pipefill_device::DeviceSpec;
use pipefill_executor::{build_profile, ExecConfig, ExecTechnique};
use pipefill_model_zoo::{JobKind, ModelId};

use crate::experiments::{row, sweep, Experiment, Grid, Scale, Table};

/// The bandwidth axis: PCIe 3.0 (the paper's V100s), PCIe 4.0, PCIe
/// 5.0-class, and NVLink-C2C-class.
pub const WHATIF_BANDWIDTHS_GBPS: [f64; 4] = [12.0, 24.0, 50.0, 100.0];

/// The §6.2 newer-hardware what-if, one row per host↔device bandwidth
/// (GB/s): one streamed XLM inference iteration (batch 8) in ms; the
/// offloading tax, streamed over fully on-device iteration time at the
/// same batch (1.0 = free); and a bandwidth-independent control, one
/// BERT-base plain-inference iteration (batch 256) in ms.
pub struct WhatifOffloadBandwidth;

impl Experiment for WhatifOffloadBandwidth {
    fn name(&self) -> &'static str {
        "whatif_offload_bandwidth"
    }
    fn aliases(&self) -> &'static [&'static str] {
        &["whatif"]
    }
    fn description(&self) -> &'static str {
        "Extension: host-link bandwidth what-if (the offload tax on newer hardware)"
    }
    fn columns(&self) -> &'static [&'static str] {
        &[
            "host_gbps",
            "xlm_streamed_iter_ms",
            "offload_tax",
            "bert_plain_iter_ms",
        ]
    }
    fn grid(&self, _scale: Scale) -> Grid {
        Grid::default()
    }
    fn run(&self, _grid: &Grid) -> Table {
        let xlm = ModelId::XlmRobertaXl.build();
        let bert = ModelId::BertBase.build();
        let rows = sweep::par_map(WHATIF_BANDWIDTHS_GBPS.to_vec(), |gbps| {
            let device = DeviceSpec::v100().with_host_link_bandwidth(gbps * 1e9);
            let profile = |graph, batch_size, technique| {
                build_profile(
                    graph,
                    JobKind::BatchInference,
                    ExecConfig {
                        batch_size,
                        technique,
                    },
                    &device,
                )
                .iteration_time()
            };
            let streamed = profile(&xlm, 8, ExecTechnique::OffloadParams);
            let on_device = profile(&xlm, 8, ExecTechnique::Plain);
            let control = profile(&bert, 256, ExecTechnique::Plain);
            row![
                gbps,
                streamed.as_millis_f64(),
                streamed.as_secs_f64() / on_device.as_secs_f64(),
                control.as_millis_f64(),
            ]
        });
        Table::with_rows(self.columns(), rows)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn higher_host_bandwidth_shrinks_the_offload_tax() {
        let t = WhatifOffloadBandwidth.run(&Grid::default());
        let tax = t.f64_column("offload_tax");
        let (first, last) = (tax[0], tax[tax.len() - 1]);
        // §6.2's hypothesis: the offloading tax shrinks substantially.
        assert!(first > 1.10, "PCIe 3.0 tax should be visible, got {first}");
        assert!(last < first * 0.95, "tax {first} -> {last}");
        // At NVLink-C2C bandwidth the stream hides almost entirely.
        assert!(last < 1.05, "residual tax {last}");
        // Iteration times are monotone non-increasing in bandwidth.
        for pair in t.f64_column("xlm_streamed_iter_ms").windows(2) {
            assert!(pair[1] <= pair[0] * 1.001);
        }
        // Control is bandwidth-independent.
        let control = t.f64_column("bert_plain_iter_ms");
        assert!((control[0] - control[control.len() - 1]).abs() < 1e-9);
    }
}
