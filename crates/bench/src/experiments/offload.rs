//! NIC-offloaded collectives vs. host-driven coalescing (beyond the paper).
//!
//! Every other campaign in this repo explores one side of the paper's
//! tradeoff: how should the host absorb the interrupts that collective
//! traffic generates? This campaign asks the follow-up question raised in
//! the related offload literature: what if the collective never generates
//! per-hop interrupts at all? Each cell runs one small-message collective
//! — barrier, 256 B broadcast, or 8 B allreduce — on {4, 8, 16, 32, 64}
//! two-rank nodes (quick mode: {4, 8, 16}) in six execution modes: the
//! five host coalescing strategies (collectives decomposed into Open-MX
//! point-to-point rounds, every hop paying the RX/IRQ path) head-to-head
//! against `nic-offload`, where the NIC firmware runs the dissemination /
//! binomial schedule itself ([`omx_core::offload`]) and the host takes
//! exactly **one** completion interrupt per operation per resident rank.
//!
//! Every cell drains to quiescence via `MpiWorld::run_drained`, asserting
//! the sim-sanitizer invariants (offload frames included: posted =
//! delivered = completed byte conservation, no stranded schedule state).
//! The worlds are the scale campaign's (`scale::Cell`: same ranks per
//! node, switch buffers and node counts), so the host-mode cells equal the
//! matching `results/scale.json` cells where the two sweeps overlap. No
//! cell draws a random number on the quiet fabric, and cells fan out
//! through `scale::sweep` and commit in cell-index order, so
//! `results/offload.json` is byte-identical across processes and `--jobs`
//! values.
//! Completion-latency SLOs (p50/p99/p999 over per-rank per-iteration
//! samples) are always collected: latency is the axis the offload trades
//! against, not an optional extra.

use super::scale::{self, Cell, Mode};
use crate::report::Table;
use omx_core::offload::OffloadCounters;
use omx_core::prelude::*;
use omx_mpi::{MpiRunReport, Op};

/// The label the report uses for the NIC-resident execution mode.
pub const OFFLOAD_MODE: &str = "nic-offload";

/// One cell of the campaign.
#[derive(Debug, Clone)]
pub struct OffloadCell {
    /// Collective name: `barrier`, `bcast`, or `allreduce`.
    pub collective: String,
    /// Per-rank payload bytes (0 for barrier).
    pub bytes: u32,
    /// Simulated nodes ([`scale::RANKS_PER_NODE`] ranks each).
    pub nodes: u32,
    /// Total MPI ranks (`nodes × RANKS_PER_NODE`).
    pub ranks: u32,
    /// Execution mode: a host coalescing strategy label, or
    /// [`OFFLOAD_MODE`] for NIC-resident execution.
    pub mode: String,
    /// Back-to-back iterations of the collective in this cell.
    pub iterations: u32,
    /// Mean completion time of one collective, ns (job elapsed /
    /// iterations).
    pub completion_ns: u64,
    /// Interrupts across all nodes for the whole job. In offload mode this
    /// is exactly `ranks × iterations` — one completion IRQ per op per
    /// rank, independent of the schedule's hop count.
    pub total_interrupts: u64,
    /// Mean interrupts per node — the paper's host-load axis.
    pub interrupts_per_node: f64,
    /// Host-path eager-data retransmits (0 in offload mode: offloaded
    /// collectives never touch the Open-MX protocol engine).
    pub retransmits: u64,
    /// NIC offload-engine counters summed over all nodes (all zero in the
    /// host modes).
    pub offload: OffloadCounters,
    /// Sanitizer violations (always 0 in a successful run; the cell
    /// panics before rendering otherwise).
    pub sanitizer_violations: u64,
    /// Per-rank collective completion-latency percentiles, one sample per
    /// rank per iteration. Always collected: completion latency is the
    /// axis NIC offload trades against host interrupt load.
    pub slo: SloSummary,
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct OffloadResult {
    /// All cells: collective-major, then node count, then mode.
    pub cells: Vec<OffloadCell>,
}

/// The swept collectives as `(op, iterations, quick iterations)`. All
/// three fit the firmware payload cap, so in offload mode nothing falls
/// back to the host path.
const COLLECTIVES: &[(Op, u32, u32)] = &[
    (Op::Barrier, 10, 4),
    (
        Op::Bcast {
            root: 0,
            bytes: 256,
        },
        10,
        4,
    ),
    (Op::Allreduce { bytes: 8 }, 10, 4),
];

/// The six modes in column order: the five host strategies, then
/// [`OFFLOAD_MODE`].
fn modes() -> Vec<(&'static str, Mode)> {
    let mut m = scale::host_modes();
    m.push((OFFLOAD_MODE, Mode::NicOffload));
    m
}

/// The campaign's report cell for `cell`.
fn offload_cell(cell: &Cell, report: &MpiRunReport, sanitizer: &SanitizerReport) -> OffloadCell {
    let (collective, bytes) = cell.collective();
    let m = &report.metrics;
    let mut offload = OffloadCounters::default();
    for c in &report.offload {
        offload.merge(c);
    }
    OffloadCell {
        collective: collective.to_string(),
        bytes,
        nodes: cell.nodes as u32,
        ranks: cell.ranks() as u32,
        mode: cell.label.to_string(),
        iterations: cell.iterations,
        completion_ns: cell.completion_ns(report),
        total_interrupts: m.total_interrupts(),
        interrupts_per_node: m.total_interrupts() as f64 / cell.nodes as f64,
        retransmits: m.total_retransmits(),
        offload,
        sanitizer_violations: sanitizer.all_violations().len() as u64,
        // Offload programs are pure collective sequences, so each rank's
        // per-step latency IS one collective's completion time.
        slo: SloSummary::from_histogram(&report.op_latency)
            .expect("every cell records at least one per-rank sample"),
    }
}

/// An 8 B allreduce on `nodes` nodes in `nic-offload` mode.
fn offload_allreduce(nodes: usize, iterations: u32) -> Cell {
    Cell {
        op: Op::Allreduce { bytes: 8 },
        nodes,
        label: OFFLOAD_MODE,
        mode: Mode::NicOffload,
        iterations,
    }
}

/// The representative cell pinned by the golden file
/// (`crates/bench/tests/golden/offload_cell.json`): 16-node (32-rank)
/// 8 B allreduce in `nic-offload` mode, at the quick-mode iteration count.
pub fn golden_cell() -> OffloadCell {
    let cell = offload_allreduce(16, 4);
    let (report, sanitizer) = cell.run();
    offload_cell(&cell, &report, &sanitizer)
}

/// Run the campaign. `quick` caps the sweep at 16 nodes and shrinks
/// iteration counts for CI smoke runs.
pub fn run(quick: bool) -> OffloadResult {
    OffloadResult {
        cells: scale::sweep(COLLECTIVES, &modes(), quick, offload_cell),
    }
}

/// Render the head-to-head: completion time and per-node interrupt load
/// per cell, with p50/p99/p999 completion-latency columns. In offload
/// rows `irq/node` is constant across node counts (one IRQ per op per
/// resident rank); in host rows it grows with the schedule depth.
pub fn table(result: &OffloadResult) -> Table {
    let mut t = Table::new(vec![
        "collective",
        "size",
        "nodes",
        "ranks",
        "mode",
        "time/op",
        "irq/node",
        "retx",
        "off-retx",
        "p50_us",
        "p99_us",
        "p999_us",
    ]);
    for c in &result.cells {
        let size = match c.bytes {
            0 => "-".to_string(),
            b => format!("{b} B"),
        };
        t.row(vec![
            c.collective.clone(),
            size,
            c.nodes.to_string(),
            c.ranks.to_string(),
            c.mode.clone(),
            format!("{:.1} us", c.completion_ns as f64 / 1_000.0),
            format!("{:.1}", c.interrupts_per_node),
            c.retransmits.to_string(),
            c.offload.retransmits.to_string(),
            format!("{:.1}", c.slo.p50_ns as f64 / 1e3),
            format!("{:.1}", c.slo.p99_ns as f64 / 1e3),
            format!("{:.1}", c.slo.p999_ns as f64 / 1e3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One offload cell end to end: quiesces, sanitizes clean, completes
    /// every posted op, and pays exactly one IRQ per op per rank.
    #[test]
    fn offload_cell_pays_one_irq_per_op_per_rank() {
        let cell = offload_allreduce(8, 4);
        let (report, sanitizer) = cell.run();
        let cell = offload_cell(&cell, &report, &sanitizer);
        assert_eq!(cell.sanitizer_violations, 0);
        assert_eq!(cell.offload.ops_posted, 16 * 4);
        assert_eq!(cell.offload.ops_completed, cell.offload.ops_posted);
        assert_eq!(cell.total_interrupts, 16 * 4);
        assert_eq!(cell.slo.count, 16 * 4);
    }

    /// The same cell in a host mode leaves the offload counters at zero
    /// and costs strictly more interrupts per node.
    #[test]
    fn host_cell_keeps_offload_engine_idle() {
        let cell = Cell::default_strategy(Op::Allreduce { bytes: 8 }, 8, 4);
        let (report, sanitizer) = cell.run();
        let host = offload_cell(&cell, &report, &sanitizer);
        assert_eq!(host.sanitizer_violations, 0);
        assert_eq!(host.offload.ops_posted, 0);
        assert_eq!(host.offload.data_tx, 0);
        assert!(
            host.total_interrupts > 16 * 4,
            "host path must pay per-hop interrupts, got {}",
            host.total_interrupts
        );
    }
}

omx_sim::impl_to_json!(OffloadCell {
    collective,
    bytes,
    nodes,
    ranks,
    mode,
    iterations,
    completion_ns,
    total_interrupts,
    interrupts_per_node,
    retransmits,
    offload,
    sanitizer_violations,
    slo,
});
omx_sim::impl_to_json!(OffloadResult { cells });
