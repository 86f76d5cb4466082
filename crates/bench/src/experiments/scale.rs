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
//! recovery path together. No cell draws a random number: the only
//! consumer of the cluster's random stream is the fabric's loss and jitter
//! injector, and these fabrics are quiet. So the report is byte-identical across runs and
//! machines, and across `--jobs` values too, since cells are independent
//! simulations fanned out through [`omx_sim::pool::map`] and committed in
//! cell-index order (DESIGN §11; enforced by
//! `tests/parallel_determinism.rs`).
//!
//! This module owns the collective world: `Cell` builds it and runs it,
//! and `sweep` runs collectives × node counts × modes. The offload
//! campaign, `omx-bench timeline` and perf's `e2e/scale_alltoall_16n`
//! shape run their worlds through it too.

use super::all_strategies;
use crate::report::Table;
use omx_core::prelude::*;
use omx_mpi::{CollectiveExec, MpiRunReport, MpiWorld, Op, WorldSpec};

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

/// The swept collectives as `(op, iterations, quick iterations)`.
const COLLECTIVES: &[(Op, u32, u32)] = &[
    (Op::Barrier, 10, 4),
    (Op::Allreduce { bytes: 8 }, 10, 4),
    (Op::Allreduce { bytes: 64 << 10 }, 4, 2),
    (Op::Alltoall { bytes: 16 << 10 }, 2, 1),
];

/// Where a cell's collectives run: on the hosts under one coalescing
/// strategy, or on the NICs (the offload campaign's extra mode).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Mode {
    /// Host collectives over Open-MX point-to-point rounds.
    Host(CoalescingStrategy),
    /// NIC-resident collectives ([`CollectiveExec::NicOffload`]).
    NicOffload,
}

/// The five host strategies as modes, labelled and ordered as
/// [`all_strategies`].
pub(crate) fn host_modes() -> Vec<(&'static str, Mode)> {
    all_strategies()
        .into_iter()
        .map(|(label, s)| (label, Mode::Host(s)))
        .collect()
}

/// One collective world: `op` run `iterations` times back to back by
/// [`RANKS_PER_NODE`] ranks on each of `nodes` nodes, behind switch
/// egress buffers of [`SWITCH_BUFFER_FRAMES`] frames.
#[derive(Debug)]
pub(crate) struct Cell {
    /// The collective every rank runs.
    pub op: Op,
    /// Simulated nodes.
    pub nodes: usize,
    /// The mode's label in reports.
    pub label: &'static str,
    /// Where the collectives run.
    pub mode: Mode,
    /// Back-to-back iterations of `op`.
    pub iterations: u32,
}

impl Cell {
    /// `op` on `nodes` nodes under the paper's default strategy, the
    /// 75 µs timeout.
    pub fn default_strategy(op: Op, nodes: usize, iterations: u32) -> Cell {
        Cell {
            op,
            nodes,
            label: "default",
            mode: Mode::Host(CoalescingStrategy::Timeout { delay_us: 75 }),
            iterations,
        }
    }

    /// The collective's report name and per-rank payload bytes (0 for
    /// barrier).
    ///
    /// # Panics
    /// Panics on an op no sweep runs.
    pub fn collective(&self) -> (&'static str, u32) {
        match self.op {
            Op::Barrier => ("barrier", 0),
            Op::Bcast { bytes, .. } => ("bcast", bytes),
            Op::Allreduce { bytes } => ("allreduce", bytes),
            Op::Alltoall { bytes } => ("alltoall", bytes),
            ref op => panic!("{op:?} is not a swept collective"),
        }
    }

    /// Total MPI ranks.
    pub fn ranks(&self) -> usize {
        self.nodes * RANKS_PER_NODE
    }

    /// Mean completion time of one collective in `report`, ns.
    pub fn completion_ns(&self, report: &MpiRunReport) -> u64 {
        report.elapsed_ns / u64::from(self.iterations.max(1))
    }

    /// The cell's world, before any rank runs.
    pub fn world(&self) -> MpiWorld {
        let mut cfg = ClusterConfig::default();
        cfg.fabric.switch_buffer_frames = SWITCH_BUFFER_FRAMES;
        let exec = match self.mode {
            Mode::Host(strategy) => {
                cfg.nic.strategy = strategy;
                CollectiveExec::Host
            }
            Mode::NicOffload => CollectiveExec::NicOffload,
        };
        let spec = WorldSpec {
            ranks: self.ranks(),
            ranks_per_node: RANKS_PER_NODE,
        };
        MpiWorld::new(spec, cfg).with_collective_exec(exec)
    }

    /// Run the cell in `world` (from [`Cell::world`]) to quiescence.
    /// `run_drained` panics unless every sanitizer invariant holds there:
    /// byte conservation survives switch drops, because retransmission
    /// recovers them.
    pub fn run_in(&self, world: MpiWorld) -> (MpiRunReport, SanitizerReport) {
        world.run_drained(|_| vec![self.op.clone(); self.iterations as usize])
    }

    /// Run the cell in its own world.
    pub fn run(&self) -> (MpiRunReport, SanitizerReport) {
        self.run_in(self.world())
    }
}

/// Run every cell of `collectives × node counts × modes`, collective-major,
/// and turn each into a report cell with `to_cell`. `collectives` holds
/// `(op, iterations, quick iterations)`; `quick` stops at 16 nodes and
/// takes the quick counts. Cells are independent simulations fanned out
/// through [`omx_sim::pool::map`] and returned in cell-index order, so
/// the result is the same at any `--jobs` (DESIGN §11).
pub(crate) fn sweep<T: Send>(
    collectives: &[(Op, u32, u32)],
    modes: &[(&'static str, Mode)],
    quick: bool,
    to_cell: impl Fn(&Cell, &MpiRunReport, &SanitizerReport) -> T + Sync,
) -> Vec<T> {
    let node_counts = if quick {
        &NODE_COUNTS[..3]
    } else {
        &NODE_COUNTS[..]
    };
    let mut cells = Vec::new();
    for (op, full, quick_iterations) in collectives {
        let iterations = if quick { *quick_iterations } else { *full };
        for &nodes in node_counts {
            for &(label, mode) in modes {
                cells.push(Cell {
                    op: op.clone(),
                    nodes,
                    label,
                    mode,
                    iterations,
                });
            }
        }
    }
    omx_sim::pool::map(cells, |cell| {
        let (report, sanitizer) = cell.run();
        to_cell(&cell, &report, &sanitizer)
    })
}

/// The campaign's report cell for `cell`. `slo` fills
/// [`ScaleCell::slo`]: scale programs are pure collective sequences, so
/// each rank's per-step latency is one collective's completion time.
fn scale_cell(
    cell: &Cell,
    report: &MpiRunReport,
    sanitizer: &SanitizerReport,
    slo: bool,
) -> ScaleCell {
    let (collective, bytes) = cell.collective();
    let m = &report.metrics;
    ScaleCell {
        collective: collective.to_string(),
        bytes,
        nodes: cell.nodes as u32,
        ranks: cell.ranks() as u32,
        strategy: cell.label.to_string(),
        iterations: cell.iterations,
        completion_ns: cell.completion_ns(report),
        total_interrupts: m.total_interrupts(),
        interrupts_per_node: m.total_interrupts() as f64 / cell.nodes as f64,
        switch_drops: m.switch_drops,
        switch_occupancy_peak: m.switch_occupancy_peak,
        retransmits: m.total_retransmits(),
        sanitizer_violations: sanitizer.all_violations().len() as u64,
        slo: if slo {
            SloSummary::from_histogram(&report.op_latency)
        } else {
            None
        },
    }
}

/// The representative cell pinned by the golden file
/// (`crates/bench/tests/golden/scale_cell.json`): 16-node (32-rank)
/// 64 KiB allreduce under the default strategy, at the quick-mode
/// iteration count.
pub fn golden_cell() -> ScaleCell {
    let cell = Cell::default_strategy(Op::Allreduce { bytes: 64 << 10 }, 16, 2);
    let (report, sanitizer) = cell.run();
    scale_cell(&cell, &report, &sanitizer, false)
}

/// Run the campaign. `quick` caps the sweep at 16 nodes and shrinks
/// iteration counts for CI smoke runs. `slo` additionally summarizes per-rank collective-completion
/// latency into each cell (harvested from actor timestamps the run
/// already tracks — the simulation itself is unchanged).
pub fn run(quick: bool, slo: bool) -> ScaleResult {
    let cells = sweep(
        COLLECTIVES,
        &host_modes(),
        quick,
        |cell, report, sanitizer| scale_cell(cell, report, sanitizer, slo),
    );
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
        let cell = Cell::default_strategy(Op::Allreduce { bytes: 64 << 10 }, 16, 2);
        let (report, sanitizer) = cell.run();
        let cell = scale_cell(&cell, &report, &sanitizer, true);
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
        let cell = Cell {
            op: Op::Alltoall { bytes: 4 << 10 },
            nodes: 6,
            label: "disabled",
            mode: Mode::Host(CoalescingStrategy::Disabled),
            iterations: 1,
        };
        let (report, sanitizer) = cell.run();
        let cell = scale_cell(&cell, &report, &sanitizer, false);
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
