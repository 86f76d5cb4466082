//! Latency-sensitive packet marking (§III-B).
//!
//! The sender driver — where user messages are split into fragments — marks
//! the packets whose early processing shortens the critical path:
//!
//! * every **small** message packet,
//! * the **last fragment** of a medium message,
//! * **rendezvous** packets,
//! * **pull requests**,
//! * the **last frame of each pull-reply block**,
//! * **notify** packets.
//!
//! Acks and TCP traffic are never marked, which is why up to ~20 % of a
//! small-message stream remains coalescible even under the Open-MX strategy
//! (§IV-C2).
//!
//! [`MarkingPolicy`] exposes one toggle per packet class so the harness can
//! regenerate the paper's marker ablation (§IV-C3), plus the
//! `medium_mark_displacement` knob that re-creates the mis-ordering
//! experiment of Table III exactly the way the authors did: "We simulated
//! packet mis-ordering by moving the packet mark from the last fragment to
//! an earlier one."

use crate::wire::{Packet, PacketKind};

/// Which packet classes the sender driver marks latency-sensitive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MarkingPolicy {
    /// Mark small eager messages.
    pub small: bool,
    /// Mark the last fragment of medium messages.
    pub medium_last_frag: bool,
    /// Mark rendezvous packets.
    pub rendezvous: bool,
    /// Mark pull requests.
    pub pull_request: bool,
    /// Mark the last frame of each pull-reply block.
    pub pull_reply_last: bool,
    /// Mark notify packets.
    pub notify: bool,
    /// Mis-ordering emulation: mark medium fragment `count-1-displacement`
    /// instead of the last one (0 = correct order, the default).
    pub medium_mark_displacement: u32,
}

impl Default for MarkingPolicy {
    fn default() -> Self {
        Self::all()
    }
}

impl MarkingPolicy {
    /// The paper's full policy: every latency-sensitive class marked.
    pub fn all() -> Self {
        MarkingPolicy {
            small: true,
            medium_last_frag: true,
            rendezvous: true,
            pull_request: true,
            pull_reply_last: true,
            notify: true,
            medium_mark_displacement: 0,
        }
    }

    /// Nothing marked: the NIC behaves exactly like unmodified firmware.
    pub fn none() -> Self {
        MarkingPolicy {
            small: false,
            medium_last_frag: false,
            rendezvous: false,
            pull_request: false,
            pull_reply_last: false,
            notify: false,
            medium_mark_displacement: 0,
        }
    }

    /// Ablation helper: the full policy with one class disabled.
    pub fn all_except(class: MarkClass) -> Self {
        let mut p = Self::all();
        match class {
            MarkClass::Small => p.small = false,
            MarkClass::MediumLastFrag => p.medium_last_frag = false,
            MarkClass::Rendezvous => p.rendezvous = false,
            MarkClass::PullRequest => p.pull_request = false,
            MarkClass::PullReplyLast => p.pull_reply_last = false,
            MarkClass::Notify => p.notify = false,
        }
        p
    }

    /// Decide whether one outgoing packet is marked.
    ///
    /// For medium fragments, `frag`/`frag_count` come from the packet; the
    /// displacement knob moves the mark earlier in the stream.
    pub fn should_mark(&self, kind: &PacketKind) -> bool {
        match *kind {
            PacketKind::Small { .. } => self.small,
            PacketKind::MediumFrag {
                frag, frag_count, ..
            } => {
                if !self.medium_last_frag {
                    return false;
                }
                let target = frag_count
                    .saturating_sub(1)
                    .saturating_sub(self.medium_mark_displacement);
                frag == target
            }
            PacketKind::Rendezvous { .. } => self.rendezvous,
            PacketKind::PullRequest { .. } => self.pull_request,
            PacketKind::PullReply { last_of_block, .. } => self.pull_reply_last && last_of_block,
            PacketKind::Notify { .. } => self.notify,
            PacketKind::Ack { .. } => false,
        }
    }

    /// Apply the policy to a packet (sets the header flag).
    pub fn apply(&self, packet: &mut Packet) {
        packet.hdr.latency_sensitive = self.should_mark(&packet.kind);
    }
}

/// One markable packet class (for the ablation experiment).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkClass {
    /// Small eager messages.
    Small,
    /// Last fragment of a medium message.
    MediumLastFrag,
    /// Rendezvous packets.
    Rendezvous,
    /// Pull requests.
    PullRequest,
    /// Last frame of each pull-reply block.
    PullReplyLast,
    /// Notify packets.
    Notify,
}

impl MarkClass {
    /// All classes, in the order the paper discusses them.
    pub const ALL: [MarkClass; 6] = [
        MarkClass::Small,
        MarkClass::MediumLastFrag,
        MarkClass::Rendezvous,
        MarkClass::PullRequest,
        MarkClass::PullReplyLast,
        MarkClass::Notify,
    ];

    /// Stable label for tables.
    pub fn label(&self) -> &'static str {
        match self {
            MarkClass::Small => "small",
            MarkClass::MediumLastFrag => "medium-last-frag",
            MarkClass::Rendezvous => "rendezvous",
            MarkClass::PullRequest => "pull-request",
            MarkClass::PullReplyLast => "pull-reply-last",
            MarkClass::Notify => "notify",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::MsgId;

    fn medium(frag: u32, frag_count: u32) -> PacketKind {
        PacketKind::MediumFrag {
            msg: MsgId(1),
            match_info: 0,
            frag,
            frag_count,
            frag_len: 1468,
            total_len: 32 * 1024,
        }
    }

    #[test]
    fn full_policy_marks_the_paper_classes() {
        let p = MarkingPolicy::all();
        assert!(p.should_mark(&PacketKind::Small {
            msg: MsgId(0),
            match_info: 0,
            len: 1
        }));
        assert!(p.should_mark(&PacketKind::Rendezvous {
            msg: MsgId(0),
            match_info: 0,
            total_len: 1 << 20
        }));
        assert!(p.should_mark(&PacketKind::PullRequest {
            msg: MsgId(0),
            block: 0,
            frame_count: 32
        }));
        assert!(p.should_mark(&PacketKind::Notify { msg: MsgId(0) }));
    }

    #[test]
    fn acks_never_marked() {
        let p = MarkingPolicy::all();
        assert!(!p.should_mark(&PacketKind::Ack { cumulative_seq: 1 }));
    }

    #[test]
    fn medium_marks_only_last_fragment() {
        let p = MarkingPolicy::all();
        for frag in 0..22 {
            assert!(!p.should_mark(&medium(frag, 23)), "frag {frag}");
        }
        assert!(p.should_mark(&medium(22, 23)));
    }

    #[test]
    fn displacement_moves_the_mark_earlier() {
        // Table III: mis-ordering degree X marks packet N-X instead of N.
        for degree in [1u32, 3] {
            let p = MarkingPolicy {
                medium_mark_displacement: degree,
                ..MarkingPolicy::all()
            };
            assert!(
                !p.should_mark(&medium(22, 23)),
                "degree {degree}: last unmarked"
            );
            assert!(p.should_mark(&medium(22 - degree, 23)));
        }
    }

    #[test]
    fn pull_reply_marks_only_block_last() {
        let p = MarkingPolicy::all();
        let mk = |last| PacketKind::PullReply {
            msg: MsgId(0),
            block: 2,
            frame: 31,
            frame_len: 1500,
            last_of_block: last,
        };
        assert!(p.should_mark(&mk(true)));
        assert!(!p.should_mark(&mk(false)));
    }

    #[test]
    fn none_policy_marks_nothing() {
        let p = MarkingPolicy::none();
        assert!(!p.should_mark(&medium(22, 23)));
        assert!(!p.should_mark(&PacketKind::Small {
            msg: MsgId(0),
            match_info: 0,
            len: 0
        }));
    }

    #[test]
    fn ablation_disables_exactly_one_class() {
        for class in MarkClass::ALL {
            let p = MarkingPolicy::all_except(class);
            let rendezvous = PacketKind::Rendezvous {
                msg: MsgId(0),
                match_info: 0,
                total_len: 1 << 20,
            };
            if class == MarkClass::Rendezvous {
                assert!(!p.should_mark(&rendezvous));
            } else {
                assert!(p.should_mark(&rendezvous));
            }
        }
    }

    #[test]
    fn apply_sets_header_flag() {
        let p = MarkingPolicy::all();
        let mut pkt = Packet {
            hdr: crate::wire::OmxHeader {
                src: crate::wire::EndpointAddr::new(0, 0),
                dst: crate::wire::EndpointAddr::new(1, 0),
                latency_sensitive: false,
                seq: 0,
                ack: 0,
            },
            kind: PacketKind::Small {
                msg: MsgId(0),
                match_info: 0,
                len: 8,
            },
        };
        p.apply(&mut pkt);
        assert!(pkt.hdr.latency_sensitive);
    }
}
