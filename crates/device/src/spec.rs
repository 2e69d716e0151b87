//! Device, link, node and cluster specifications plus analytical
//! transfer-time models.

use pipefill_sim_core::SimDuration;
use serde::{Deserialize, Serialize};

use crate::bytes::Bytes;

/// An accelerator ("GPU" in the paper's terminology, which it uses for
/// GPUs, TPUs and Trainium alike).
///
/// # Example
///
/// ```
/// use pipefill_device::DeviceSpec;
///
/// let v100 = DeviceSpec::v100();
/// assert_eq!(v100.peak_tflops, 125.0);
/// assert_eq!(v100.hbm.as_gib(), 16.0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSpec {
    /// Marketing name, e.g. `"V100"`.
    pub name: String,
    /// Peak dense half-precision throughput in TFLOPS.
    pub peak_tflops: f64,
    /// On-device high-bandwidth memory capacity.
    pub hbm: Bytes,
    /// HBM bandwidth in bytes/second (bounds memory-bound layers).
    pub hbm_bandwidth: f64,
    /// Host↔device link bandwidth in bytes/second (PCIe for V100); bounds
    /// CPU-offloading techniques.
    pub host_link_bandwidth: f64,
    /// NVMe read bandwidth in bytes/second; bounds NVMe-offloading
    /// techniques (ZeRO-Infinity's second tier).
    pub nvme_bandwidth: f64,
}

impl DeviceSpec {
    /// NVIDIA Tesla V100 SXM2 16 GB — the paper's physical device: 125
    /// TFLOPS peak, 16 GB HBM2 at 900 GB/s, PCIe 3.0 x16 host link (~12
    /// GB/s effective).
    pub fn v100() -> Self {
        DeviceSpec {
            name: "V100".to_owned(),
            peak_tflops: 125.0,
            hbm: Bytes::from_gib(16),
            hbm_bandwidth: 900.0e9,
            host_link_bandwidth: 12.0e9,
            nvme_bandwidth: 3.2e9,
        }
    }

    /// NVIDIA A100 SXM 40 GB (312 TFLOPS bf16, 1.55 TB/s HBM, PCIe 4.0
    /// host link) — used in "newer hardware" what-if runs for the fill-job
    /// offloading-slowdown hypothesis in §6.2.
    pub fn a100_40g() -> Self {
        DeviceSpec {
            name: "A100-40G".to_owned(),
            peak_tflops: 312.0,
            hbm: Bytes::from_gib(40),
            hbm_bandwidth: 1555.0e9,
            host_link_bandwidth: 24.0e9,
            nvme_bandwidth: 6.5e9,
        }
    }

    /// NVIDIA H100 SXM 80 GB (989 TFLOPS bf16, 3.35 TB/s HBM3, PCIe 5.0
    /// host link) — the fast end of heterogeneous-cluster studies.
    pub fn h100() -> Self {
        DeviceSpec {
            name: "H100".to_owned(),
            peak_tflops: 989.0,
            hbm: Bytes::from_gib(80),
            hbm_bandwidth: 3350.0e9,
            host_link_bandwidth: 50.0e9,
            nvme_bandwidth: 12.0e9,
        }
    }

    /// Peak throughput in FLOP/s.
    pub fn peak_flops(&self) -> f64 {
        self.peak_tflops * 1e12
    }

    /// Time to execute `flops` floating-point operations at `efficiency`
    /// (fraction of peak actually achieved, in `(0, 1]`).
    ///
    /// # Panics
    ///
    /// Panics if `efficiency` is not in `(0, 1]` or `flops` is negative.
    pub fn compute_time(&self, flops: f64, efficiency: f64) -> SimDuration {
        assert!(
            efficiency > 0.0 && efficiency <= 1.0,
            "efficiency must be in (0, 1], got {efficiency}"
        );
        assert!(flops >= 0.0, "flops must be non-negative, got {flops}");
        SimDuration::from_secs_f64(flops / (self.peak_flops() * efficiency))
    }

    /// Compute-speed ratio against a baseline device: values above 1 mean
    /// this device is faster. Heterogeneous-cluster backends use it to
    /// stretch per-stage compute times and re-derive bubble geometry when
    /// the pipeline mixes GPU generations.
    ///
    /// # Panics
    ///
    /// Panics if either device has a non-positive peak throughput.
    pub fn relative_speed(&self, baseline: &DeviceSpec) -> f64 {
        assert!(
            self.peak_tflops > 0.0 && baseline.peak_tflops > 0.0,
            "relative_speed needs positive peak throughputs"
        );
        self.peak_tflops / baseline.peak_tflops
    }

    /// Returns a copy with the host link bandwidth replaced — the axis of
    /// the "newer hardware" what-if study (§6.2 hypothesizes that higher
    /// CPU↔GPU bandwidth shrinks the offloading slowdown).
    pub fn with_host_link_bandwidth(mut self, bandwidth: f64) -> Self {
        assert!(
            bandwidth > 0.0 && bandwidth.is_finite(),
            "bandwidth must be positive, got {bandwidth}"
        );
        self.host_link_bandwidth = bandwidth;
        self
    }
}

/// A point-to-point interconnect: fixed latency plus bandwidth.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One-way latency.
    pub latency_us: f64,
    /// Bandwidth in bytes/second.
    pub bandwidth: f64,
}

impl LinkSpec {
    /// NVLink 2.0 hybrid cube-mesh as in `p3.16xlarge`: 300 GB/s
    /// aggregate, ~2 µs latency.
    pub fn nvlink2() -> Self {
        LinkSpec {
            latency_us: 2.0,
            bandwidth: 300.0e9,
        }
    }

    /// 25 Gbps Ethernet between `p3.16xlarge` nodes (~3.125 GB/s), ~20 µs
    /// latency.
    pub fn ethernet_25g() -> Self {
        LinkSpec {
            latency_us: 20.0,
            bandwidth: 3.125e9,
        }
    }

    /// Time to move `bytes` across this link.
    ///
    /// # Example
    ///
    /// ```
    /// use pipefill_device::{Bytes, LinkSpec};
    ///
    /// let t = LinkSpec::ethernet_25g().transfer_time(Bytes::from_mib(32));
    /// assert!(t.as_millis_f64() > 10.0); // 32 MiB over 3.125 GB/s ≈ 10.7 ms
    /// ```
    pub fn transfer_time(&self, bytes: Bytes) -> SimDuration {
        SimDuration::from_secs_f64(self.latency_us * 1e-6 + bytes.as_f64() / self.bandwidth)
    }
}

/// A compute node: identical accelerators joined by an intra-node link,
/// plus host (CPU) memory that offloading targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Accelerator model installed in this node.
    pub device: DeviceSpec,
    /// Accelerators per node.
    pub devices_per_node: usize,
    /// Intra-node accelerator interconnect.
    pub intra_link: LinkSpec,
    /// Host DRAM available as an offload target.
    pub host_memory: Bytes,
}

impl NodeSpec {
    /// AWS `p3.16xlarge`: 8× V100, NVLink 2.0, 488 GiB host DRAM.
    pub fn p3_16xlarge() -> Self {
        NodeSpec {
            device: DeviceSpec::v100(),
            devices_per_node: 8,
            intra_link: LinkSpec::nvlink2(),
            host_memory: Bytes::from_gib(488),
        }
    }
}

/// A homogeneous cluster: `num_nodes` copies of a node joined by an
/// inter-node link.
///
/// # Example
///
/// ```
/// use pipefill_device::ClusterSpec;
///
/// let cluster = ClusterSpec::p3_cluster(16);
/// assert_eq!(cluster.total_devices(), 128);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ClusterSpec {
    /// Per-node hardware.
    pub node: NodeSpec,
    /// Number of nodes.
    pub num_nodes: usize,
    /// Node-to-node interconnect.
    pub inter_link: LinkSpec,
}

impl ClusterSpec {
    /// The paper's physical testbed shape: `num_nodes` × `p3.16xlarge`
    /// with 25 Gbps networking.
    pub fn p3_cluster(num_nodes: usize) -> Self {
        ClusterSpec {
            node: NodeSpec::p3_16xlarge(),
            num_nodes,
            inter_link: LinkSpec::ethernet_25g(),
        }
    }

    /// Total accelerators in the cluster.
    pub fn total_devices(&self) -> usize {
        self.num_nodes * self.node.devices_per_node
    }

    /// The device spec (all nodes are identical).
    pub fn device(&self) -> &DeviceSpec {
        &self.node.device
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn v100_matches_paper_numbers() {
        let d = DeviceSpec::v100();
        assert_eq!(d.peak_tflops, 125.0);
        assert_eq!(d.hbm, Bytes::from_gib(16));
    }

    #[test]
    fn compute_time_scales_linearly() {
        let d = DeviceSpec::v100();
        // 60 TFLOPS effective = 0.48 of peak; 6e13 FLOPs should take 1 s.
        let t = d.compute_time(60.0e12, 0.48);
        assert!((t.as_secs_f64() - 1.0).abs() < 1e-9);
        let t2 = d.compute_time(120.0e12, 0.48);
        assert!((t2.as_secs_f64() - 2.0).abs() < 1e-9);
        assert_eq!(d.compute_time(0.0, 0.5), SimDuration::ZERO);
    }

    #[test]
    #[should_panic(expected = "efficiency must be in (0, 1]")]
    fn compute_time_rejects_bad_efficiency() {
        let _ = DeviceSpec::v100().compute_time(1.0e12, 0.0);
    }

    #[test]
    fn link_transfer_includes_latency() {
        let link = LinkSpec {
            latency_us: 100.0,
            bandwidth: 1.0e9,
        };
        let t = link.transfer_time(Bytes::from_mib(1));
        // 100 µs latency + ~1.05 ms wire time.
        assert!((t.as_millis_f64() - (0.1 + 1048576.0 / 1.0e9 * 1e3)).abs() < 1e-6);
        // Zero bytes still pay latency.
        let t0 = link.transfer_time(Bytes::ZERO);
        assert!((t0.as_millis_f64() - 0.1).abs() < 1e-9);
    }

    #[test]
    fn nvlink_much_faster_than_ethernet() {
        let payload = Bytes::from_mib(64);
        let nv = LinkSpec::nvlink2().transfer_time(payload);
        let eth = LinkSpec::ethernet_25g().transfer_time(payload);
        assert!(eth.as_secs_f64() / nv.as_secs_f64() > 50.0);
    }

    #[test]
    fn cluster_counts_devices() {
        let c = ClusterSpec::p3_cluster(16);
        assert_eq!(c.total_devices(), 128);
        assert_eq!(c.device().name, "V100");
        let big = ClusterSpec::p3_cluster(1024);
        assert_eq!(big.total_devices(), 8192); // the paper's 8K-GPU point
    }

    #[test]
    fn relative_speed_is_a_peak_ratio() {
        let v100 = DeviceSpec::v100();
        let a100 = DeviceSpec::a100_40g();
        assert!((a100.relative_speed(&v100) - 312.0 / 125.0).abs() < 1e-12);
        assert!((v100.relative_speed(&a100) - 125.0 / 312.0).abs() < 1e-12);
        assert_eq!(v100.relative_speed(&v100), 1.0);
        // H100 is the fast end of the ladder.
        assert!(DeviceSpec::h100().relative_speed(&v100) > 7.0);
    }
}
