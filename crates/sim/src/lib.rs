//! # omx-sim — deterministic discrete-event simulation engine
//!
//! This crate is the foundation of the Open-MX interrupt-coalescing
//! reproduction. It provides:
//!
//! * [`Time`] — a nanosecond-resolution simulated clock value,
//! * [`EventQueue`] — a 4-ary heap of `(time, seq, slot)` keys hybridised
//!   with a hierarchical timer wheel: stable FIFO ordering among
//!   simultaneous events, O(1) pushes for short-horizon timers, and no
//!   hashing or per-event allocation on the hot path. Events leave only by
//!   being popped: a superseded timer fires as a no-op,
//! * [`Engine`] / [`Model`] — the simulation driver: a model consumes one
//!   event at a time and schedules follow-up events through a [`Scheduler`],
//! * [`rng`] — seeded deterministic random-number helpers so that every
//!   experiment is exactly reproducible,
//! * [`stats`] — counters, histograms and online summary statistics used by
//!   the measurement harness,
//! * [`json`] — the self-contained JSON value model used by the result
//!   writers and the trace exporters (no external serialisation crates);
//!   values only serialise, and the parser serves the golden tests,
//! * [`pool`] — an ordered parallel map over scoped threads
//!   ([`pool::map`]), plus the process-wide `--jobs` worker-count policy.
//!
//! Determinism is a hard requirement for the paper reproduction
//! (identical seeds must produce identical interrupt counts). The
//! [`engine`] event loop is single-threaded (DESIGN §12 records why); the
//! experiment harness runs many *independent* simulations at once with
//! [`pool::map`], committing their results in input order (see the `pool`
//! module docs for the determinism contract), so every report is
//! byte-identical to a serial run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod json;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use engine::{Engine, Model, Scheduler, StopCondition};
pub use queue::EventQueue;
pub use time::{Time, TimeDelta};
