//! The MXoE-style wire protocol.
//!
//! Message formats follow §III-A of the paper:
//!
//! * **Small** (≤ 128 B): one eagerly-sent packet,
//! * **Medium** (≤ 32 KiB): a stream of eager fragments sized by the MTU,
//! * **Large** (> 32 KiB): rendezvous → receiver-driven *pull* (requests of
//!   up to 32 frames, up to 4 requests pipelined) → notify,
//!
//! plus acks and a TCP-stand-in class for background traffic. Every packet
//! carries the Open-MX header whose `latency_sensitive` flag is the entire
//! NIC-visible interface of the paper's firmware change.
//!
//! The simulator moves typed packets, never bytes: a frame's size on the
//! wire is [`Packet::wire_len`], which charges [`ETH_HEADER_BYTES`] plus
//! [`OMX_HEADER_BYTES`] per frame.

/// Maximum payload of a Small (single-packet eager) message.
pub const SMALL_MAX: u32 = 128;
/// Maximum total length of a Medium (fragmented eager) message.
pub const MEDIUM_MAX: u32 = 32 * 1024;
/// Frames per pull block (§III-A: "requesting up to 32 fragments at once").
pub const PULL_BLOCK_FRAMES: u32 = 32;
/// Pull requests kept in flight (§IV-C3: "the driver tries to pipeline 4
/// requests at the same time").
pub const PULL_PIPELINE: u32 = 4;
/// Open-MX header bytes on the wire (ethertype demux + header fields).
pub const OMX_HEADER_BYTES: u32 = 32;
/// Ethernet header bytes (dst/src MAC + ethertype).
pub const ETH_HEADER_BYTES: u32 = 14;

/// Identifies a node (host) in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u16);

/// Identifies an endpoint (application attach point) on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EndpointAddr {
    /// Owning node.
    pub node: NodeId,
    /// Endpoint index on that node.
    pub endpoint: u8,
}

impl EndpointAddr {
    /// Shorthand constructor.
    pub fn new(node: u16, endpoint: u8) -> Self {
        EndpointAddr {
            node: NodeId(node),
            endpoint,
        }
    }
}

/// Per-sender message identifier (unique within a source endpoint).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct MsgId(pub u64);

/// The Open-MX packet header (the part the NIC firmware may inspect).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OmxHeader {
    /// Source endpoint.
    pub src: EndpointAddr,
    /// Destination endpoint.
    pub dst: EndpointAddr,
    /// The latency-sensitive marker flag (§III-B) — set by the sender
    /// driver, read by the NIC firmware.
    pub latency_sensitive: bool,
    /// Eager sequence number on this connection (0 for non-eager packets;
    /// eager numbering starts at 1).
    pub seq: u64,
    /// Piggybacked cumulative ack of the reverse direction.
    pub ack: u64,
}

/// Packet body: one variant per wire format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Small eager message (full payload in one packet).
    Small {
        /// Message id.
        msg: MsgId,
        /// MX match info.
        match_info: u64,
        /// Payload length (≤ [`SMALL_MAX`]).
        len: u32,
    },
    /// One fragment of a medium eager message.
    MediumFrag {
        /// Message id.
        msg: MsgId,
        /// MX match info (repeated in every fragment; the first to arrive
        /// performs the match).
        match_info: u64,
        /// Fragment index (0-based).
        frag: u32,
        /// Total fragment count.
        frag_count: u32,
        /// Payload bytes in this fragment.
        frag_len: u32,
        /// Total message length.
        total_len: u32,
    },
    /// Large-message rendezvous (no payload).
    Rendezvous {
        /// Message id.
        msg: MsgId,
        /// MX match info.
        match_info: u64,
        /// Total message length.
        total_len: u32,
    },
    /// Receiver asks the sender for one block of fragments.
    PullRequest {
        /// Message id being pulled.
        msg: MsgId,
        /// Block index (0-based).
        block: u32,
        /// Frames requested in this block (≤ [`PULL_BLOCK_FRAMES`]).
        frame_count: u32,
    },
    /// One frame of data answering a pull request.
    PullReply {
        /// Message id.
        msg: MsgId,
        /// Block index.
        block: u32,
        /// Frame index within the block.
        frame: u32,
        /// Payload bytes in this frame.
        frame_len: u32,
        /// This is the last frame of its block.
        last_of_block: bool,
    },
    /// Transfer-complete notification, receiver → sender.
    Notify {
        /// Message id.
        msg: MsgId,
    },
    /// Acknowledgement of eager traffic (per-connection cumulative seqno).
    Ack {
        /// Highest eager sequence number received in order.
        cumulative_seq: u64,
    },
}

/// A full packet: header + body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Open-MX header.
    pub hdr: OmxHeader,
    /// Body.
    pub kind: PacketKind,
}

impl Packet {
    /// Payload bytes carried (0 for control packets).
    pub fn payload_len(&self) -> u32 {
        match self.kind {
            PacketKind::Small { len, .. } => len,
            PacketKind::MediumFrag { frag_len, .. } => frag_len,
            PacketKind::PullReply { frame_len, .. } => frame_len,
            PacketKind::Rendezvous { .. }
            | PacketKind::PullRequest { .. }
            | PacketKind::Notify { .. }
            | PacketKind::Ack { .. } => 0,
        }
    }

    /// Total frame length on the wire (Ethernet + Open-MX headers + payload).
    pub fn wire_len(&self) -> u32 {
        ETH_HEADER_BYTES + OMX_HEADER_BYTES + self.payload_len()
    }

    /// Message id, when the packet belongs to a message.
    pub fn msg_id(&self) -> Option<MsgId> {
        match self.kind {
            PacketKind::Small { msg, .. }
            | PacketKind::MediumFrag { msg, .. }
            | PacketKind::Rendezvous { msg, .. }
            | PacketKind::PullRequest { msg, .. }
            | PacketKind::PullReply { msg, .. }
            | PacketKind::Notify { msg } => Some(msg),
            PacketKind::Ack { .. } => None,
        }
    }
}

/// Usable payload bytes per *medium eager* fragment for a given MTU.
///
/// Medium fragments carry the full Open-MX eager header (match info, offsets)
/// inside the MTU, so a 32 KiB message at MTU 1500 takes 23 packets —
/// matching §IV-C4 of the paper.
pub fn medium_frag_payload(mtu: u32) -> u32 {
    mtu.checked_sub(OMX_HEADER_BYTES)
        .expect("MTU smaller than the Open-MX header")
}

/// Usable payload bytes per *pull reply* frame for a given MTU.
///
/// Pull replies use a minimal header that rides in the Ethernet framing, so
/// the payload equals the MTU: a 234 KiB message takes exactly 160 reply
/// frames = 5 blocks of 32, matching §IV-C3 of the paper (162 packets with
/// the rendezvous and notify).
pub fn pull_frame_payload(mtu: u32) -> u32 {
    mtu
}

/// Number of medium fragments a message of `len` bytes needs at a given MTU
/// (at least one, so zero-length messages still send a packet).
pub fn frag_count(len: u32, mtu: u32) -> u32 {
    len.div_ceil(medium_frag_payload(mtu)).max(1)
}

/// Number of pull reply frames a large message of `len` bytes needs.
pub fn pull_frame_count(len: u32, mtu: u32) -> u32 {
    len.div_ceil(pull_frame_payload(mtu)).max(1)
}

/// Number of pull blocks for a large message of `len` bytes.
pub fn pull_block_count(len: u32, mtu: u32) -> u32 {
    pull_frame_count(len, mtu).div_ceil(PULL_BLOCK_FRAMES)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hdr(marked: bool) -> OmxHeader {
        OmxHeader {
            src: EndpointAddr::new(0, 1),
            dst: EndpointAddr::new(1, 2),
            latency_sensitive: marked,
            seq: 12,
            ack: 34,
        }
    }

    #[test]
    fn wire_len_includes_headers() {
        let p = Packet {
            hdr: hdr(false),
            kind: PacketKind::Small {
                msg: MsgId(0),
                match_info: 0,
                len: 128,
            },
        };
        assert_eq!(p.wire_len(), ETH_HEADER_BYTES + OMX_HEADER_BYTES + 128);
        let c = Packet {
            hdr: hdr(false),
            kind: PacketKind::Notify { msg: MsgId(0) },
        };
        assert_eq!(c.wire_len(), ETH_HEADER_BYTES + OMX_HEADER_BYTES);
    }

    #[test]
    fn frag_math_matches_paper() {
        // §IV-C4: a 32 KiB medium message at MTU 1500 is 23 packets.
        assert_eq!(frag_count(32 * 1024, 1500), 23);
        // §IV-C3: 234 KiB needs exactly 5 pull blocks of 32 frames (160
        // reply packets; 162 total with rendezvous + notify).
        assert_eq!(pull_frame_count(234 * 1024, 1500), 160);
        assert_eq!(pull_block_count(234 * 1024, 1500), 5);
        // Zero-length messages still need one packet.
        assert_eq!(frag_count(0, 1500), 1);
        assert_eq!(pull_frame_count(0, 1500), 1);
    }

    #[test]
    fn msg_id_accessor() {
        let p = Packet {
            hdr: hdr(false),
            kind: PacketKind::Ack { cumulative_seq: 0 },
        };
        assert_eq!(p.msg_id(), None);
        let q = Packet {
            hdr: hdr(false),
            kind: PacketKind::Notify { msg: MsgId(5) },
        };
        assert_eq!(q.msg_id(), Some(MsgId(5)));
    }
}
