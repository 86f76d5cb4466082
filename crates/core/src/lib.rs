//! # omx-core — the Open-MX message-passing stack over simulated Ethernet
//!
//! This crate implements the paper's software system: an MX-compatible
//! message-passing stack layered on generic Ethernet, with the sender-side
//! *latency-sensitive packet marking* that the modified NIC firmware
//! (in `omx-nic`) exploits.
//!
//! Layer map (bottom-up):
//!
//! * [`wire`] — the MXoE-style wire protocol: small (≤128 B eager), medium
//!   (≤32 KiB fragmented eager) and large messages (rendezvous → pull →
//!   notify, 32-frame blocks, 4 pipelined requests), plus acks,
//! * [`marking`] — which packets the sender driver marks latency-sensitive
//!   (§III-B), with per-class toggles for the marker-ablation experiment and
//!   the mark-displacement knob used by the mis-ordering experiment,
//! * [`matching`] — MX 64-bit match-info tag matching with masks,
//! * [`proto`] — the per-node driver: fragmentation, reassembly, the pull
//!   engine, ack generation and retransmission,
//! * [`system`] — the cluster orchestrator: N nodes (host + NIC + driver)
//!   on a switched fabric, driven as one `omx_sim::Model`,
//! * [`workloads`] — built-in microbenchmark actors (ping-pong, streams,
//!   the interrupt-overhead test) mirroring the paper's §IV benchmarks,
//! * [`metrics`] — per-run measurement harvest,
//! * [`telemetry`] — windowed time-series samplers (engine-tick driven)
//!   and p50/p99/p999 SLO summaries over the counters the layers above
//!   expose.
//!
//! The quickest entry point is [`ClusterBuilder`]:
//!
//! ```
//! use omx_core::prelude::*;
//!
//! let mut cluster = ClusterBuilder::new()
//!     .nodes(2)
//!     .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
//!     .build();
//! let report = cluster.run_pingpong(PingPongSpec {
//!     msg_len: 128,
//!     iterations: 100,
//!     warmup: 10,
//! });
//! assert!(report.half_rtt_ns > 0);
//! ```

#![warn(missing_docs)]

pub mod bytebuf;
pub mod config;
pub mod latency;
pub mod marking;
pub mod matching;
pub mod metrics;
pub mod proto;
pub mod sanitizer;
pub mod system;
pub mod telemetry;
pub mod trace;
pub mod wire;
pub mod workloads;

pub use config::ClusterConfig;
pub use omx_nic::offload;
pub use system::{Cluster, ClusterBuilder};

/// Convenience re-exports for examples and downstream users.
pub mod prelude {
    pub use crate::config::ClusterConfig;
    pub use crate::latency::{LatencyBreakdown, PhaseSummary};
    pub use crate::marking::MarkingPolicy;
    pub use crate::metrics::ClusterMetrics;
    pub use crate::sanitizer::SanitizerReport;
    pub use crate::system::{Cluster, ClusterBuilder};
    pub use crate::telemetry::{SloSummary, Telemetry, TelemetryConfig};
    pub use crate::trace::{TraceEvent, TraceKind, Tracer};
    pub use crate::wire::{EndpointAddr, NodeId};
    pub use crate::workloads::pingpong::{PingPongReport, PingPongSpec};
    pub use crate::workloads::stream::{StreamReport, StreamSpec};
    pub use omx_host::{CostModel, HostConfig, IrqRouting};
    pub use omx_nic::offload::{CollOp, OffloadCollDesc, OffloadConfig, OffloadCounters};
    pub use omx_nic::{CoalescingStrategy, NicConfig};
    pub use omx_sim::{Time, TimeDelta};
}
