//! Packet metadata as seen by the NIC firmware.
//!
//! The firmware never parses message semantics; the paper's whole point is
//! that it only needs to check a single header flag — the *latency-sensitive
//! marker* — that the Open-MX sender driver sets. Everything the coalescing
//! heuristics may legitimately look at is collected in [`PacketMeta`].

/// Identifier of an RX descriptor inside one NIC (monotonically increasing).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DescId(pub u64);

/// Coarse traffic class, used only for per-class counters (the paper checks
/// that non-Open-MX traffic is unaffected by the firmware change).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketClass {
    /// An Open-MX protocol packet.
    OpenMx,
    /// Plain IP / TCP traffic sharing the NIC.
    Ip,
}

/// What the firmware can see about one received frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketMeta {
    /// Frame length in bytes (drives the DMA transfer time).
    pub len_bytes: u32,
    /// The Open-MX latency-sensitive marker flag from the packet header.
    pub marked: bool,
    /// Traffic class for accounting.
    pub class: PacketClass,
    /// Flow identifier the NIC may hash for multiqueue steering (RSS-style;
    /// derived from the packet's communication channel).
    pub flow: u64,
}

impl PacketMeta {
    /// An Open-MX packet of `len_bytes`, optionally marked.
    pub fn omx(len_bytes: u32, marked: bool) -> Self {
        PacketMeta {
            len_bytes,
            marked,
            class: PacketClass::OpenMx,
            flow: 0,
        }
    }

    /// A plain IP packet (never marked).
    pub fn ip(len_bytes: u32) -> Self {
        PacketMeta {
            len_bytes,
            marked: false,
            class: PacketClass::Ip,
            flow: 0,
        }
    }

    /// Attach a flow identifier (multiqueue steering input).
    pub fn with_flow(mut self, flow: u64) -> Self {
        self.flow = flow;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_set_class_and_mark() {
        let p = PacketMeta::omx(128, true);
        assert_eq!(p.class, PacketClass::OpenMx);
        assert!(p.marked);
        let q = PacketMeta::ip(1500);
        assert_eq!(q.class, PacketClass::Ip);
        assert!(!q.marked);
    }

    #[test]
    fn desc_ids_order() {
        assert!(DescId(1) < DescId(2));
    }
}
