//! Scale-out collective campaign (beyond the paper).
//!
//! The paper measures interrupt-coalescing strategies on a two-node
//! testbed; this campaign asks how the same tradeoff behaves when a
//! collective spans a switched cluster. Each cell runs one MPI collective
//! — barrier, allreduce (8 B and 64 KiB), or alltoall (16 KiB) — on
//! {4, 8, 16, 32, 64} two-rank nodes (quick mode: {4, 8, 16}) under
//! every coalescing strategy, through a switch whose egress buffers are
//! bounded to [`SWITCH_BUFFER_FRAMES`] frames so incast is a real hazard
//! rather than an abstraction (see DESIGN §8).
//!
//! Every cell drains to quiescence via `MpiWorld::run_drained`, which
//! asserts the sim-sanitizer invariants (exact byte conservation,
//! duplicate detection, no stranded protocol state) — so a green
//! `omx-bench scale` certifies the collectives and the bounded-buffer
//! recovery path together. Per-cell seeds are fixed: the report is
//! byte-identical across runs and machines — including across `--jobs`
//! values, since cells are independent simulations fanned out through
//! [`omx_sim::pool::map`] and committed in cell-index order (DESIGN §11;
//! enforced by `tests/parallel_determinism.rs`).

use super::all_strategies;
use crate::report::Table;
use omx_core::prelude::*;
use omx_mpi::{MpiWorld, Op, WorldSpec};

/// Node counts swept (quick mode stops at 16).
pub const NODE_COUNTS: [usize; 5] = [4, 8, 16, 32, 64];

/// Ranks per node. Two co-located ranks (the paper's NAS runs co-locate
/// ranks the same way) make convergent traffic possible: two flows aimed
/// at the same node share one switch egress port, so collective skew can
/// pile frames onto a bounded buffer — with one rank per node every swept
/// collective is a per-round permutation and incast never materialises.
pub const RANKS_PER_NODE: usize = 2;

/// Switch egress buffer bound used by every cell, in frames. Small enough
/// that convergent bursts can overflow it at the larger node counts, large
/// enough (≈40 µs of 10 GbE serialization) that queueing never outlives
/// the 20 ms retransmission timeout.
pub const SWITCH_BUFFER_FRAMES: u32 = 32;

/// One cell of the campaign.
#[derive(Debug, Clone)]
pub struct ScaleCell {
    /// Collective name: `barrier`, `allreduce`, or `alltoall`.
    pub collective: String,
    /// Per-rank payload bytes (0 for barrier).
    pub bytes: u32,
    /// Simulated nodes ([`RANKS_PER_NODE`] ranks each).
    pub nodes: u32,
    /// Total MPI ranks (`nodes × RANKS_PER_NODE`).
    pub ranks: u32,
    /// Strategy label.
    pub strategy: String,
    /// Back-to-back iterations of the collective in this cell.
    pub iterations: u32,
    /// Mean completion time of one collective, ns (job elapsed /
    /// iterations).
    pub completion_ns: u64,
    /// Interrupts across all nodes for the whole job.
    pub total_interrupts: u64,
    /// Mean interrupts per node — the paper's host-load axis at scale.
    pub interrupts_per_node: f64,
    /// Frames tail-dropped at full switch egress buffers.
    pub switch_drops: u64,
    /// Deepest any switch egress buffer got, in frames.
    pub switch_occupancy_peak: u64,
    /// Eager data packets retransmitted (switch drops surface here).
    pub retransmits: u64,
    /// Sanitizer violations (always 0 in a successful run; the cell
    /// panics before rendering otherwise).
    pub sanitizer_violations: u64,
    /// Per-rank collective completion-latency percentiles (one sample per
    /// rank per iteration), present only when the campaign ran with
    /// `--slo`; the field is omitted from the JSON otherwise so default
    /// reports — and the pinned golden cell — stay byte-identical.
    pub slo: Option<SloSummary>,
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct ScaleResult {
    /// All cells: collective-major, then node count, then strategy.
    pub cells: Vec<ScaleCell>,
}

/// The swept collectives as `(name, op, iterations, quick_iterations)`.
fn collectives(quick: bool) -> Vec<(&'static str, u32, Op, u32)> {
    let it = |full: u32, q: u32| if quick { q } else { full };
    vec![
        ("barrier", 0, Op::Barrier, it(10, 4)),
        ("allreduce", 8, Op::Allreduce { bytes: 8 }, it(10, 4)),
        (
            "allreduce",
            64 << 10,
            Op::Allreduce { bytes: 64 << 10 },
            it(4, 2),
        ),
        (
            "alltoall",
            16 << 10,
            Op::Alltoall { bytes: 16 << 10 },
            it(2, 1),
        ),
    ]
}

struct Job {
    collective: &'static str,
    bytes: u32,
    op: Op,
    nodes: usize,
    strategy: CoalescingStrategy,
    label: &'static str,
    iterations: u32,
    seed: u64,
    /// Summarize per-rank collective latency into [`ScaleCell::slo`].
    slo: bool,
}

fn run_cell(job: &Job) -> ScaleCell {
    let mut cfg = ClusterConfig::default();
    cfg.nic.strategy = job.strategy;
    cfg.fabric.switch_buffer_frames = SWITCH_BUFFER_FRAMES;
    cfg.seed = job.seed;
    let spec = WorldSpec {
        ranks: job.nodes * RANKS_PER_NODE,
        ranks_per_node: RANKS_PER_NODE,
    };
    let op = job.op.clone();
    let iters = job.iterations as usize;
    // run_drained panics unless the run reaches QueueEmpty with every
    // sanitizer invariant intact — byte conservation holds even when the
    // bounded switch buffers dropped frames (retransmission recovers).
    let (report, sanitizer) = MpiWorld::new(spec, cfg)
        .run_drained(|_| std::iter::repeat_with(|| op.clone()).take(iters).collect());
    let violations = sanitizer.all_violations();
    let m = &report.metrics;
    ScaleCell {
        collective: job.collective.to_string(),
        bytes: job.bytes,
        nodes: job.nodes as u32,
        ranks: (job.nodes * RANKS_PER_NODE) as u32,
        strategy: job.label.to_string(),
        iterations: job.iterations,
        completion_ns: report.elapsed_ns / u64::from(job.iterations.max(1)),
        total_interrupts: m.total_interrupts(),
        interrupts_per_node: m.total_interrupts() as f64 / job.nodes as f64,
        switch_drops: m.switch_drops,
        switch_occupancy_peak: m.switch_occupancy_peak,
        retransmits: m.total_retransmits(),
        sanitizer_violations: violations.len() as u64,
        // Scale programs are pure collective sequences, so each rank's
        // per-step latency IS one collective's completion time.
        slo: if job.slo {
            SloSummary::from_histogram(&report.op_latency)
        } else {
            None
        },
    }
}

/// The representative cell pinned by the golden file
/// (`crates/bench/tests/golden/scale_cell.json`): 16-node (32-rank)
/// 64 KiB allreduce under the default strategy, with the same seed the
/// campaign assigns that cell and the quick-mode iteration count.
pub fn golden_cell() -> ScaleCell {
    run_cell(&Job {
        collective: "allreduce",
        bytes: 64 << 10,
        op: Op::Allreduce { bytes: 64 << 10 },
        nodes: 16,
        strategy: CoalescingStrategy::Timeout { delay_us: 75 },
        label: "default",
        iterations: 2,
        seed: 0x5CA1E + 2 * 10_000 + 16 * 10,
        slo: false,
    })
}

/// Run the campaign. `quick` caps the sweep at 16 nodes and shrinks
/// iteration counts for CI smoke runs; cell structure and seeds for the
/// shared cells are identical in both modes. `slo` additionally summarizes
/// per-rank collective-completion latency into each cell (harvested from
/// actor timestamps the run already tracks — the simulation itself is
/// unchanged).
pub fn run(quick: bool, slo: bool) -> ScaleResult {
    let node_counts: &[usize] = if quick {
        &NODE_COUNTS[..3]
    } else {
        &NODE_COUNTS
    };
    let mut jobs = Vec::new();
    for (ci, (collective, bytes, op, iterations)) in collectives(quick).into_iter().enumerate() {
        for &nodes in node_counts {
            for (si, (label, strategy)) in all_strategies().into_iter().enumerate() {
                jobs.push(Job {
                    collective,
                    bytes,
                    op: op.clone(),
                    nodes,
                    strategy,
                    label,
                    iterations,
                    // Deterministic per-cell seed ⇒ byte-identical report
                    // across processes and machines.
                    seed: 0x5CA1E + (ci as u64) * 10_000 + (nodes as u64) * 10 + si as u64,
                    slo,
                });
            }
        }
    }
    let cells = omx_sim::pool::map(jobs, |job| run_cell(&job));
    ScaleResult { cells }
}

/// Render completion time, per-node interrupt load, and the switch-egress
/// pressure counters, one row per cell. Cells carrying an [`SloSummary`]
/// (`--slo` runs) gain p50/p99/p999 collective-latency columns.
pub fn table(result: &ScaleResult) -> Table {
    let slo = result.cells.iter().any(|c| c.slo.is_some());
    let mut headers = vec![
        "collective",
        "size",
        "nodes",
        "ranks",
        "strategy",
        "time/op",
        "irq/node",
        "swdrop",
        "peak",
        "retx",
    ];
    if slo {
        headers.extend(["p50_us", "p99_us", "p999_us"]);
    }
    let mut t = Table::new(headers);
    for c in &result.cells {
        let size = match c.bytes {
            0 => "-".to_string(),
            b if b >= 1 << 10 => format!("{} KiB", b >> 10),
            b => format!("{b} B"),
        };
        let mut row = vec![
            c.collective.clone(),
            size,
            c.nodes.to_string(),
            c.ranks.to_string(),
            c.strategy.clone(),
            format!("{:.1} us", c.completion_ns as f64 / 1_000.0),
            format!("{:.1}", c.interrupts_per_node),
            c.switch_drops.to_string(),
            c.switch_occupancy_peak.to_string(),
            c.retransmits.to_string(),
        ];
        if slo {
            match &c.slo {
                Some(s) => row.extend([
                    format!("{:.1}", s.p50_ns as f64 / 1e3),
                    format!("{:.1}", s.p99_ns as f64 / 1e3),
                    format!("{:.1}", s.p999_ns as f64 / 1e3),
                ]),
                None => row.extend(["-".into(), "-".into(), "-".into()]),
            }
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One representative cell end to end: quiesces, sanitizes clean, and
    /// actually works the switch (nonzero occupancy).
    #[test]
    fn sixteen_node_allreduce_cell_is_clean() {
        let cell = run_cell(&Job {
            collective: "allreduce",
            bytes: 64 << 10,
            op: Op::Allreduce { bytes: 64 << 10 },
            nodes: 16,
            strategy: CoalescingStrategy::Timeout { delay_us: 75 },
            label: "default",
            iterations: 2,
            seed: 0x5CA1E,
            slo: true,
        });
        assert_eq!(cell.sanitizer_violations, 0);
        assert!(cell.completion_ns > 0);
        assert!(
            cell.switch_occupancy_peak >= 1,
            "a 16-node 64 KiB allreduce must queue at the switch"
        );
        // 32 ranks × 2 iterations = 64 per-rank collective samples.
        let slo = cell.slo.expect("slo requested");
        assert_eq!(slo.count, 64);
        assert!(slo.p50_ns > 0 && slo.p50_ns <= slo.p999_ns);
    }

    /// A non-power-of-two world drains clean through the campaign path.
    #[test]
    fn odd_world_cell_is_clean() {
        let cell = run_cell(&Job {
            collective: "alltoall",
            bytes: 4 << 10,
            op: Op::Alltoall { bytes: 4 << 10 },
            nodes: 6,
            strategy: CoalescingStrategy::Disabled,
            label: "disabled",
            iterations: 1,
            seed: 0x0DD,
            slo: false,
        });
        assert_eq!(cell.sanitizer_violations, 0);
        assert_eq!(cell.nodes, 6);
        assert!(cell.slo.is_none(), "slo not requested");
    }
}

omx_sim::impl_to_json!(ScaleCell {
    collective,
    bytes,
    nodes,
    ranks,
    strategy,
    iterations,
    completion_ns,
    total_interrupts,
    interrupts_per_node,
    switch_drops,
    switch_occupancy_peak,
    retransmits,
    sanitizer_violations,
    slo?,
});
omx_sim::impl_to_json!(ScaleResult { cells });
