//! `omx-bench timeline <experiment>` — windowed telemetry timelines.
//!
//! Re-runs a campaign's headline cell with the windowed telemetry
//! subsystem enabled (`omx_core::telemetry`, 100 µs windows) and writes
//! the counter timeline under `results/`:
//!
//! * `timeline_<exp>_<N>n.jsonl` — one JSON object per (window, series),
//!   time-major; the schema is documented in DESIGN §10,
//! * `timeline_<exp>_<N>n.chrome.json` — Perfetto counter tracks (load in
//!   <https://ui.perfetto.dev>): per-node interrupt/hold/ring/retransmit/
//!   goodput series plus per-switch-port queue depth and drops.
//!
//! The `scale` scenario is the scale campaign's headline cell: a 64-node
//! (128-rank) 16 KiB alltoall through 32-frame switch egress buffers,
//! under the default 75 µs timeout strategy, with the exact per-cell seed
//! the campaign assigns — so the timeline lines up with the matching row
//! of `results/scale.json`. Incast overflows the bounded buffers and the
//! drops phase-lock into the 20 ms retransmission timeout; the timeline
//! makes that stall visible as saturated `switch_queue_len`, goodput
//! collapsing to zero for ~20 ms, then a retransmit burst draining the
//! stragglers (see EXPERIMENTS.md for a worked reading).
//!
//! `--quick` shrinks the world to 8 nodes (CI smoke mode). Every artifact
//! is byte-identical across runs and machines for a given node count —
//! `crates/bench/tests/timeline_golden.rs` pins a small cell.

use crate::experiments::scale::{RANKS_PER_NODE, SWITCH_BUFFER_FRAMES};
use crate::report::write_artifact;
use omx_core::prelude::*;
use omx_mpi::{MpiWorld, Op, WorldSpec};
use std::path::Path;

/// Experiments the timeline subcommand understands.
pub fn supported() -> &'static [&'static str] {
    &["scale", "alltoall"]
}

/// One captured timeline: rendered artifacts plus headline numbers.
pub struct TimelineData {
    /// Simulated nodes ([`RANKS_PER_NODE`] ranks each).
    pub nodes: usize,
    /// Job completion time, ns.
    pub elapsed_ns: u64,
    /// Telemetry windows sampled (cluster-wide snapshots).
    pub windows: u64,
    /// JSONL timeline, time-major, one object per (window, series).
    pub jsonl: String,
    /// Perfetto counter-track export (compact trace-event JSON).
    pub chrome: String,
    /// p50/p99/p999 of per-rank collective completion latency.
    pub slo: Option<SloSummary>,
    /// Frames tail-dropped at the bounded switch egress buffers.
    pub switch_drops: u64,
    /// Eager retransmits over the whole run.
    pub retransmits: u64,
    /// Deepest windowed switch egress queue sample, frames.
    pub peak_queue: u64,
    /// Largest single-window per-node retransmit burst.
    pub peak_window_retx: u64,
}

/// Capture the 16 KiB-alltoall timeline on `nodes` two-rank nodes,
/// `iterations` back-to-back collectives per rank (the full campaign runs
/// 2 — the incast stall needs the per-rank skew iteration 1 leaves
/// behind, so iteration 2 is where the buffers overflow).
///
/// Pure observation of the scale campaign's cell: telemetry ticks sample
/// counters the run already maintains and cannot schedule events, so the
/// simulated outcome is identical with or without the capture.
pub fn capture(nodes: usize, iterations: u32) -> TimelineData {
    let mut cfg = ClusterConfig::default();
    cfg.nic.strategy = CoalescingStrategy::Timeout { delay_us: 75 };
    cfg.fabric.switch_buffer_frames = SWITCH_BUFFER_FRAMES;
    // The scale campaign's per-cell seed for (alltoall = collective index
    // 3, default strategy = index 0) on this node count.
    cfg.seed = 0x5CA1E + 3 * 10_000 + (nodes as u64) * 10;
    let mut world = MpiWorld::new(
        WorldSpec {
            ranks: nodes * RANKS_PER_NODE,
            ranks_per_node: RANKS_PER_NODE,
        },
        cfg,
    );
    world.enable_telemetry(TelemetryConfig::default());
    let (report, _sanitizer) = world.run_drained(|_| {
        std::iter::repeat_with(|| Op::Alltoall { bytes: 16 << 10 })
            .take(iterations as usize)
            .collect()
    });
    let tel = report.telemetry.expect("telemetry enabled");
    let peak_queue = (0..tel.port_count())
        .flat_map(|p| tel.port_windows(p))
        .map(|w| w.queue_len)
        .max()
        .unwrap_or(0);
    let peak_window_retx = (0..tel.node_count())
        .flat_map(|n| tel.node_windows(n))
        .map(|w| w.retransmits)
        .max()
        .unwrap_or(0);
    TimelineData {
        nodes,
        elapsed_ns: report.elapsed_ns,
        windows: tel.windows_recorded(),
        jsonl: tel.to_jsonl(),
        chrome: tel.to_chrome_json().render(),
        slo: SloSummary::from_histogram(&report.op_latency),
        switch_drops: report.metrics.switch_drops,
        retransmits: report.metrics.total_retransmits(),
        peak_queue,
        peak_window_retx,
    }
}

/// Run the timeline subcommand: capture, persist, summarize. An
/// unsupported experiment is an `Err`; a failed write exits with status 1
/// (see [`write_artifact`]).
pub fn run(experiment: &str, quick: bool) -> Result<(), String> {
    if !supported().contains(&experiment) {
        return Err(format!(
            "experiment '{experiment}' has no timeline scenario (supported: {})",
            supported().join(", ")
        ));
    }
    // The full run is the scale campaign's 64-node cell verbatim (2
    // iterations — see `capture`); smoke mode shrinks the world.
    let (nodes, iterations) = if quick { (8, 1) } else { (64, 2) };
    println!(
        "== timeline: {nodes}-node ({}-rank) 16 KiB alltoall x{iterations}, 100 us windows ==",
        nodes * RANKS_PER_NODE
    );
    let data = capture(nodes, iterations);
    let path = |ext: &str| Path::new("results").join(format!("timeline_alltoall_{nodes}n.{ext}"));
    write_artifact(&path("jsonl"), &data.jsonl);
    write_artifact(&path("chrome.json"), &data.chrome);
    println!(
        "elapsed {:.2} ms, {} windows; switch drops {}, peak egress queue {} frames, \
         retransmits {} (peak {} in one 100 us window)",
        data.elapsed_ns as f64 / 1e6,
        data.windows,
        data.switch_drops,
        data.peak_queue,
        data.retransmits,
        data.peak_window_retx,
    );
    if let Some(slo) = &data.slo {
        println!(
            "per-rank collective latency: p50 {:.1} us, p99 {:.1} us, p999 {:.1} us \
             ({} samples)",
            slo.p50_ns as f64 / 1e3,
            slo.p99_ns as f64 / 1e3,
            slo.p999_ns as f64 / 1e3,
            slo.count,
        );
    }
    if data.switch_drops > 0 && data.elapsed_ns > 20_000_000 {
        println!(
            "incast stall: bounded switch buffers dropped frames and the job ran past \
             the 20 ms retransmission timeout — look for the goodput gap in the timeline."
        );
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small capture produces a non-trivial, internally consistent
    /// timeline (the golden byte-identity test lives in
    /// `tests/timeline_golden.rs`).
    #[test]
    fn small_capture_has_windows_and_slo() {
        let data = capture(4, 1);
        assert!(data.windows > 0, "at least one window sampled");
        assert!(!data.jsonl.is_empty());
        assert!(
            data.chrome.contains("\"ph\":\"C\""),
            "counter events present"
        );
        let slo = data.slo.expect("8 ranks completed an alltoall");
        assert_eq!(slo.count, (4 * RANKS_PER_NODE) as u64);
        assert!(slo.p50_ns > 0 && slo.p50_ns <= slo.p999_ns);
        // Every JSONL line parses and carries the window-end timestamp.
        for line in data.jsonl.lines() {
            assert!(line.starts_with("{\"t_ns\":"), "schema drift: {line}");
        }
    }

    #[test]
    fn unsupported_experiment_is_an_error() {
        assert!(run("fig4", true).is_err());
    }
}
