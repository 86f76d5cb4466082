//! # omx-mpi — a mini-MPI over Open-MX endpoints
//!
//! The NAS Parallel Benchmarks of the paper run over Open MPI on top of
//! Open-MX. This crate provides the subset of MPI they exercise:
//!
//! * a **world** of ranks mapped block-wise onto nodes ([`WorldSpec`]:
//!   ranks 0..R/2 on node 0, the rest on node 1 for the paper's
//!   16-rank / 2-node runs),
//! * **point-to-point** send/recv with tag matching,
//! * **collectives** — barrier (dissemination), broadcast and reduce
//!   (binomial), allreduce (recursive doubling), allgather, alltoall and
//!   alltoallv (pairwise XOR exchange) — decomposed into the same wire
//!   messages a real MPI would produce,
//! * a per-rank **program executor** ([`ops::Op`], [`executor::RankActor`]):
//!   each rank runs a sequential op list; compute phases account for CPU
//!   time stolen by interrupt handlers on their core, which is exactly the
//!   coupling the paper's Table IV measures.
//!
//! [`world::MpiWorld`] wires programs into an
//! [`omx_core::Cluster`] and reports completion times and metrics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod collectives;
pub mod executor;
pub mod ops;
pub mod world;

pub use executor::RankActor;
pub use ops::Op;
pub use world::{CollectiveExec, MpiRunReport, MpiWorld, WorldSpec};
