//! # omx-nic — simulated Ethernet NIC with message-aware interrupt coalescing
//!
//! This crate is the reproduction's analogue of the myri10ge firmware the
//! paper modifies. It models the receive data path of a commodity Ethernet
//! NIC:
//!
//! ```text
//!  wire ──► RX ring ──► DMA engine ──► host memory
//!                │            │
//!                ▼            ▼
//!          coalescing heuristics ──► interrupt (MSI) to a host core
//! ```
//!
//! The scientific payload lives in [`coalesce`]: one concrete [`Coalescer`]
//! type exposes exactly the firmware hook points the paper patches (packet
//! arrival, write-DMA completion, coalescing timer), and a
//! [`CoalescingStrategy`] tag selects which of the five strategies its
//! hooks run:
//!
//! * `Disabled` — an interrupt per received packet,
//! * `Timeout` — classic delay coalescing (the Myri-10G default is 75 µs),
//! * `OpenMx` — the paper's Algorithm 1: raise as soon as the DMA of a
//!   *latency-sensitive-marked* packet completes,
//! * `Stream` — the paper's Algorithm 2: additionally defer the interrupt
//!   while other DMAs are pending, so a stream of small messages costs a
//!   single interrupt,
//! * `Adaptive` — the future-work strategy: adjust the delay from the
//!   recent packet rate (Linux-DIM-style).
//!
//! [`Nic`] composes ring, DMA engine and strategy into one passive state
//! machine driven by the cluster orchestrator.
//!
//! [`offload`] adds the counterpoint to coalescing: NIC-resident
//! barrier/bcast/small-allreduce ([`OffloadEngine`]) that run the whole
//! collective schedule in firmware and raise exactly one completion
//! interrupt per operation per rank — bypassing the RX ring, the DMA
//! engine and the coalescer entirely.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod coalesce;
pub mod dma;
pub mod nic;
pub mod offload;
pub mod packet;

pub use coalesce::{Coalescer, CoalescingStrategy, Decision, TimerAction};
pub use dma::DmaConfig;
pub use nic::{DmaCompletion, Nic, NicConfig, NicCounters, NicOutcome};
pub use offload::{
    CollFrame, CollFrameKind, CollOp, OffloadCollDesc, OffloadConfig, OffloadCounters, OffloadEmit,
    OffloadEngine,
};
pub use packet::{DescId, PacketClass, PacketMeta};
