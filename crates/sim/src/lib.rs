//! # omx-sim — deterministic discrete-event simulation primitives
//!
//! This crate is the foundation of the Open-MX interrupt-coalescing
//! reproduction. It provides:
//!
//! * [`Time`] — a nanosecond-resolution simulated clock value,
//! * [`EventQueue`] — a 4-ary heap of `(time, seq, slot)` keys hybridised
//!   with a three-level hierarchical timer wheel (~268 ms of span) that
//!   cascades due buckets down a level, so the heap holds only imminent
//!   events: stable FIFO ordering among simultaneous events, O(1) pushes
//!   for timers up to the retransmit timeout, and no hashing or per-event
//!   allocation on the hot path. Events leave only by being popped: a
//!   superseded timer fires as a no-op. [`QueueStats`] counts where the
//!   queue placed its entries,
//! * [`InboundQueues`] — frames in flight, one key-ordered queue per
//!   destination node under a 4-ary heap of packed head keys, keyed from
//!   the event queue's sequence numbers so the event loop can merge the
//!   two in exact `(time, seq)` order ([`InboundQueues::earliest`]),
//! * [`StopCondition`] — why a run returned; the event loop itself lives in
//!   `omx_core`'s `Cluster`, the one world this workspace simulates,
//! * [`rng`] — seeded deterministic random-number helpers so that every
//!   experiment is exactly reproducible,
//! * [`hash`] — an unseeded multiply-rotate hasher ([`hash::FastMap`],
//!   [`hash::FastSet`]) for hot-path maps with small keys,
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
//! event loop is single-threaded (DESIGN §12 records why); the
//! experiment harness runs many *independent* simulations at once with
//! [`pool::map`], committing their results in input order (see the `pool`
//! module docs for the determinism contract), so every report is
//! byte-identical to a serial run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod hash;
pub mod inbound;
pub mod json;
pub mod pool;
pub mod queue;
pub mod rng;
pub mod stats;
pub mod time;

pub use inbound::{InboundQueues, Source};
pub use queue::{EventQueue, QueueStats};
pub use time::{Time, TimeDelta};

/// Why a simulation run returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// The event queue drained completely.
    QueueEmpty,
    /// The next event lies past the run's time horizon; it stays queued.
    HorizonReached,
    /// The simulated world asked to stop early.
    PredicateSatisfied,
}
