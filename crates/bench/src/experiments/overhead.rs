//! §IV-B2 — per-packet interrupt processing overhead.
//!
//! Paper anchors: 965 ns per packet with an interrupt per packet, 774 ns
//! with coalescing (−20 %), and another ~40 ns saved by binding interrupts
//! to a single core.

use crate::report::Table;
use omx_core::prelude::*;
use omx_core::workloads::overhead::{OverheadReport, OverheadSpec};
use omx_host::IrqRouting;

/// One configuration's measurement.
#[derive(Debug, Clone)]
pub struct OverheadRow {
    /// Configuration label.
    pub config: String,
    /// Receiver CPU time per packet, nanoseconds.
    pub per_packet_ns: f64,
    /// Interrupts raised.
    pub interrupts: u64,
    /// Packets received.
    pub packets: u64,
}

/// Full experiment result.
#[derive(Debug, Clone)]
pub struct OverheadResult {
    /// All rows.
    pub rows: Vec<OverheadRow>,
    /// Paper anchors for side-by-side comparison.
    pub paper_disabled_ns: f64,
    /// Paper anchor with coalescing enabled.
    pub paper_coalesced_ns: f64,
}

/// Run the experiment.
pub fn run(packets: u32) -> OverheadResult {
    let jobs: Vec<(&'static str, CoalescingStrategy, IrqRouting)> = vec![
        (
            "interrupt per packet, scattered",
            CoalescingStrategy::Disabled,
            IrqRouting::RoundRobin,
        ),
        (
            "interrupt per packet, bound to one core",
            CoalescingStrategy::Disabled,
            IrqRouting::Fixed(0),
        ),
        (
            "coalesced (75 us), scattered",
            CoalescingStrategy::Timeout { delay_us: 75 },
            IrqRouting::RoundRobin,
        ),
        (
            "coalesced (75 us), bound to one core",
            CoalescingStrategy::Timeout { delay_us: 75 },
            IrqRouting::Fixed(0),
        ),
    ];
    let rows = omx_sim::pool::map(jobs, |(label, strategy, routing)| {
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .strategy(strategy)
            .routing(routing)
            .build();
        let r: OverheadReport = cluster.run_overhead(OverheadSpec {
            packets,
            len: 128,
            gap_ns: 5_000,
        });
        OverheadRow {
            config: label.to_string(),
            per_packet_ns: r.per_packet_ns,
            interrupts: r.interrupts,
            packets: r.packets,
        }
    });
    OverheadResult {
        rows,
        paper_disabled_ns: 965.0,
        paper_coalesced_ns: 774.0,
    }
}

/// Format as a table.
pub fn table(result: &OverheadResult) -> Table {
    let mut t = Table::new(vec!["config", "ns/packet", "interrupts", "packets"]);
    for row in &result.rows {
        t.row(vec![
            row.config.clone(),
            format!("{:.0}", row.per_packet_ns),
            row.interrupts.to_string(),
            row.packets.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn anchors_reproduced() {
        let r = run(6_000);
        let per = |label: &str| {
            r.rows
                .iter()
                .find(|row| row.config.starts_with(label))
                .unwrap()
                .per_packet_ns
        };
        let disabled = per("interrupt per packet, scattered");
        let coalesced = per("coalesced (75 us), scattered");
        assert!((disabled - 965.0).abs() < 80.0, "disabled {disabled}");
        assert!((coalesced - 774.0).abs() < 80.0, "coalesced {coalesced}");
        let bound = per("interrupt per packet, bound");
        assert!(
            (15.0..70.0).contains(&(disabled - bound)),
            "binding saved {}",
            disabled - bound
        );
    }
}

omx_sim::impl_to_json!(OverheadRow {
    config,
    per_packet_ns,
    interrupts,
    packets
});
omx_sim::impl_to_json!(OverheadResult {
    rows,
    paper_disabled_ns,
    paper_coalesced_ns
});
