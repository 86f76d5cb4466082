//! Per-run measurement harvest.
//!
//! [`ClusterMetrics`] collects every counter the paper reports on — NIC
//! interrupts (Tables II and V), host wakeups and cache bounces (§IV-B),
//! retransmissions and ack volume (§IV-C2) — in one serialisable struct the
//! experiment harness can diff across strategies.

use crate::proto::DriverCounters;
use omx_host::HostCounters;
use omx_nic::NicCounters;
use omx_sim::stats::TimeWeighted;

/// Counters of one node after a run.
#[derive(Debug, Clone)]
pub struct NodeMetrics {
    /// NIC counters (interrupts, packets, marks, batch sizes).
    pub nic: NicCounters,
    /// Host counters (irqs serviced, wakeups, busy time, bounces).
    pub host: HostCounters,
    /// Driver counters (retransmits, acks, completions).
    pub driver: DriverCounters,
    /// Time-weighted RX-ring occupancy: frames from arrival until an IRQ
    /// service claims them, DMA in flight or ready in host memory (how much
    /// receive work is outstanding at any instant). The name predates this
    /// meaning and is kept for the JSON shape.
    pub pending_dma: TimeWeighted,
}

omx_sim::impl_to_json!(NodeMetrics {
    nic,
    host,
    driver,
    pending_dma,
});

/// Whole-cluster metrics after a run.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    /// Simulated time at harvest, nanoseconds.
    pub sim_time_ns: u64,
    /// Frames the fabric carried successfully.
    pub frames_carried: u64,
    /// Frames the fabric dropped (injected loss).
    pub frames_dropped: u64,
    /// Frames tail-dropped at a full switch egress buffer (zero unless
    /// [`omx_fabric::FabricConfig::switch_buffer_frames`] is bounded).
    pub switch_drops: u64,
    /// Deepest any switch egress buffer ever got, in frames.
    pub switch_occupancy_peak: u64,
    /// Per-egress-port time-weighted queue-depth gauge (index = port/node id).
    pub switch_queue_depth: Vec<TimeWeighted>,
    /// Per-node counters.
    pub nodes: Vec<NodeMetrics>,
}

omx_sim::impl_to_json!(ClusterMetrics {
    sim_time_ns,
    frames_carried,
    frames_dropped,
    switch_drops,
    switch_occupancy_peak,
    switch_queue_depth,
    nodes,
});

impl ClusterMetrics {
    /// Total interrupts across all nodes ("on both sides", Table II).
    pub fn total_interrupts(&self) -> u64 {
        self.nodes.iter().map(|n| n.nic.interrupts.get()).sum()
    }

    /// Total packets accepted by all NICs.
    pub fn total_packets(&self) -> u64 {
        self.nodes.iter().map(|n| n.nic.packets.get()).sum()
    }

    /// Total C1E wakeups across all nodes.
    pub fn total_wakeups(&self) -> u64 {
        self.nodes.iter().map(|n| n.host.wakeups.get()).sum()
    }

    /// Total cache-line bounces across all nodes.
    pub fn total_cache_bounces(&self) -> u64 {
        self.nodes.iter().map(|n| n.host.cache_bounces.get()).sum()
    }

    /// Total host interrupt busy time (ns) across all nodes.
    pub fn total_irq_busy_ns(&self) -> u64 {
        self.nodes.iter().map(|n| n.host.irq_busy_ns.get()).sum()
    }

    /// Total eager retransmissions.
    pub fn total_retransmits(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.driver.eager_retransmits.get())
            .sum()
    }

    /// Total standalone acks sent.
    pub fn total_acks(&self) -> u64 {
        self.nodes.iter().map(|n| n.driver.acks_sent.get()).sum()
    }

    /// Total packets dropped to NIC ring overflow.
    pub fn total_ring_drops(&self) -> u64 {
        self.nodes.iter().map(|n| n.nic.ring_drops.get()).sum()
    }

    /// Total pull-block re-requests (receiver-side stall recovery).
    pub fn total_pull_rerequests(&self) -> u64 {
        self.nodes
            .iter()
            .map(|n| n.driver.pull_rerequests.get())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn node_with(irqs: u64, wakeups: u64, acks: u64) -> NodeMetrics {
        let mut nic = NicCounters::default();
        nic.interrupts.add(irqs);
        nic.packets.add(irqs * 3);
        let mut host = HostCounters::default();
        host.wakeups.add(wakeups);
        host.irq_busy_ns.add(irqs * 100);
        host.cache_bounces.add(wakeups * 2);
        let mut driver = DriverCounters::default();
        driver.acks_sent.add(acks);
        driver.eager_retransmits.add(1);
        NodeMetrics {
            nic,
            host,
            driver,
            pending_dma: TimeWeighted::default(),
        }
    }

    #[test]
    fn totals_sum_across_nodes() {
        let m = ClusterMetrics {
            sim_time_ns: 1_000,
            frames_carried: 10,
            frames_dropped: 1,
            switch_drops: 0,
            switch_occupancy_peak: 0,
            switch_queue_depth: vec![],
            nodes: vec![node_with(5, 2, 7), node_with(3, 4, 1)],
        };
        assert_eq!(m.total_interrupts(), 8);
        assert_eq!(m.total_packets(), 24);
        assert_eq!(m.total_wakeups(), 6);
        assert_eq!(m.total_cache_bounces(), 12);
        assert_eq!(m.total_irq_busy_ns(), 800);
        assert_eq!(m.total_retransmits(), 2);
        assert_eq!(m.total_acks(), 8);
    }

    #[test]
    fn empty_cluster_is_all_zero() {
        let m = ClusterMetrics {
            sim_time_ns: 0,
            frames_carried: 0,
            frames_dropped: 0,
            switch_drops: 0,
            switch_occupancy_peak: 0,
            switch_queue_depth: vec![],
            nodes: vec![],
        };
        assert_eq!(m.total_interrupts(), 0);
        assert_eq!(m.total_acks(), 0);
    }

    #[test]
    fn metrics_serialize_to_json() {
        let m = ClusterMetrics {
            sim_time_ns: 42,
            frames_carried: 1,
            frames_dropped: 0,
            switch_drops: 3,
            switch_occupancy_peak: 2,
            switch_queue_depth: vec![TimeWeighted::default()],
            nodes: vec![node_with(1, 1, 1)],
        };
        // The bench harness persists these; the shape must stay stable.
        use omx_sim::json::{Json, ToJson};
        let json = m.to_json().render();
        assert!(json.contains("\"sim_time_ns\":42"));
        assert_eq!(Json::parse(&json), Ok(m.to_json()));
    }
}
