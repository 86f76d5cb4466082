//! # omx-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the Open-MX interrupt-coalescing
//! reproduction. It provides:
//!
//! * [`Time`] — a nanosecond-resolution simulated clock value,
//! * [`EventQueue`] — a slab-backed, index-tracked 4-ary heap hybridised
//!   with a hierarchical timer wheel: stable FIFO ordering among
//!   simultaneous events, true O(log n) cancellation (O(1) for
//!   short-horizon timers, the coalescing re-arm pattern), and no hashing
//!   or per-event allocation on the hot path,
//! * [`Engine`] / [`Model`] — the simulation driver: a model consumes one
//!   event at a time and schedules follow-up events through a [`Scheduler`],
//! * [`Slab`] — the event queue's generation-stamped token idiom made
//!   generic: dense O(1) state storage with use-after-free panics, used by
//!   the protocol layer to avoid per-packet map lookups,
//! * [`rng`] — seeded deterministic random-number helpers so that every
//!   experiment is exactly reproducible,
//! * [`stats`] — counters, histograms and online summary statistics used by
//!   the measurement harness,
//! * [`json`] — the self-contained JSON value model used by the result
//!   writers and the trace exporters (no external serialisation crates),
//! * [`pool`] — a dependency-free work-stealing thread pool ([`Pool`])
//!   with ordered fork-join commit, plus the process-wide `--jobs` /
//!   `OMX_JOBS` worker-count policy.
//!
//! Determinism is a hard requirement for the paper reproduction
//! (identical seeds must produce identical interrupt counts). The
//! [`engine`] event loop is single-threaded (DESIGN §12 records why); the
//! experiment harness runs many *independent* simulations at once on the
//! [`pool`], committing their results in input order (see the `pool`
//! module docs for the determinism contract), so every report is
//! byte-identical to a serial run.

#![warn(missing_docs)]

pub mod engine;
pub mod json;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod slab;
pub mod stats;
pub mod time;

pub use engine::{Engine, Model, Scheduler, StopCondition};
pub use pool::Pool;
pub use queue::{EventQueue, EventToken};
pub use slab::{Slab, SlabToken};
pub use time::{Time, TimeDelta};
