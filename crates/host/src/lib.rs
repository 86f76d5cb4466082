//! # omx-host — simulated host receive side
//!
//! Models everything that happens *after* the NIC raises an interrupt:
//!
//! * [`HostConfig`] / [`Host`] — a multi-core node. Interrupts are routed
//!   round-robin across cores (the chipset default the paper describes) or
//!   bound to a single core; idle cores drop into a C1E-like sleep state and
//!   pay a wakeup latency when an interrupt lands on them (§IV-B1).
//! * [`cache`] — a directory-style tracker for the shared Open-MX driver
//!   structures: processing related packets on different cores causes
//!   cache-line bounces with a per-access penalty (§III-B, §IV-B2).
//! * [`costs`] — the [`costs::CostModel`]: every nanosecond constant of the
//!   receive path in one plain-data struct, calibrated against the
//!   paper's measured anchors (965 → 774 ns per-packet overhead, ~10 µs
//!   small-message latency, 490k msg/s peak rate).
//!
//! Like the NIC, the host is a passive state machine: the cluster
//! orchestrator (in `omx-core`) asks it to account interrupt deliveries and
//! busy windows and reads the counters back at the end of a run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod core;
pub mod costs;
pub mod routing;

pub use cache::CacheTracker;
pub use core::{CoreId, Host, HostConfig, HostCounters, IrqService};
pub use costs::CostModel;
pub use routing::IrqRouting;
