//! # pipefill-device
//!
//! Hardware substrate for the PipeFill reproduction: accelerator, node and
//! cluster specifications, byte quantities, and analytical transfer-time
//! models for the interconnects.
//!
//! The paper's testbed is 16 AWS `p3.16xlarge` instances — 8× NVIDIA V100
//! (125 TFLOPS peak, 16 GB HBM) per node, NVLink 2.0 (300 GB/s) within a
//! node, 25 Gbps Ethernet between nodes (§5.1). Those numbers are the
//! defaults here ([`DeviceSpec::v100`], [`NodeSpec::p3_16xlarge`],
//! [`ClusterSpec::p3_cluster`]), but everything is parametric so the
//! sensitivity studies can scale devices, memory and links independently.
//!
//! There is no allocator model here. The paper's OOM isolation (§4.3) caps
//! a fill job at the free memory the engine profiled for a bubble; the
//! fill engine (`pipefill-core`'s `filling.rs`) models it directly, as a
//! fill job whose memory need exceeds the bubble's actual free memory
//! failing alone while the main job runs on.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod bytes;
mod spec;

pub use bytes::Bytes;
pub use spec::{ClusterSpec, DeviceSpec, LinkSpec, NodeSpec};
