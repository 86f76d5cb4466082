//! # omx-bench — experiment harness
//!
//! One module per paper artifact. Each experiment returns a serialisable
//! result struct, prints a formatted table to stdout, and is persisted as
//! JSON under `results/` by the CLI (`src/main.rs`).
//!
//! | module | paper artifact |
//! |---|---|
//! | [`experiments::fig4`] | Fig. 4 — message rate vs coalescing delay × host config |
//! | [`experiments::overhead`] | §IV-B2 — per-packet interrupt overhead |
//! | [`experiments::pingpong`] | Figs. 5 & 6 — ping-pong transfer time vs size |
//! | [`experiments::table1`] | Table I — message rate by size × strategy |
//! | [`experiments::table2`] | Table II — 234 KiB anatomy (+ §IV-C3 marker ablation) |
//! | [`experiments::table3`] | Table III — packet mis-ordering vs Stream coalescing |
//! | [`experiments::nas`] | Tables IV & V — NAS times and interrupt counts |
//! | [`experiments::adaptive`] | §VI — adaptive coalescing comparison |
//! | [`timeline`] | windowed telemetry timelines (beyond paper; DESIGN §10) |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod perf;
pub mod report;
pub mod timeline;
pub mod traced;

pub use report::{write_json, Table};
