//! # openmx-repro — facade crate
//!
//! Reproduction of Goglin & Furmento, *Finding a Tradeoff between Host
//! Interrupt Load and MPI Latency over Ethernet* (IEEE Cluster 2009).
//!
//! This crate re-exports the workspace's public API under a single name so
//! examples and downstream users can depend on one crate:
//!
//! * [`sim`] — discrete-event simulation engine,
//! * [`fabric`] — Ethernet wire model (links, switch, disturbance injectors),
//! * [`nic`] — NIC model and the interrupt-coalescing strategies,
//! * [`host`] — host model (cores, sleep states, IRQ routing, cache bounces),
//! * [`core`] — the Open-MX stack (wire protocol, marking, endpoints,
//!   cluster orchestrator, built-in microbenchmark workloads),
//! * [`mpi`] — mini-MPI layer (point-to-point + collectives),
//! * [`nas`] — NAS Parallel Benchmark communication skeletons.
//!
//! See `README.md` for a quickstart and `DESIGN.md` for the experiment map.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use omx_core as core;
pub use omx_fabric as fabric;
pub use omx_host as host;
pub use omx_mpi as mpi;
pub use omx_nas as nas;
pub use omx_nic as nic;
pub use omx_sim as sim;

/// Convenience prelude pulling in the types most programs need.
pub mod prelude {
    pub use omx_core::prelude::*;
    pub use omx_sim::{Time, TimeDelta};
}
