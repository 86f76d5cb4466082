//! Property tests for the fragmentation arithmetic and packet marking.
//!
//! Randomised with the simulator's deterministic [`SimRng`] (fixed seeds, so
//! failures reproduce exactly) instead of an external property-test harness.

use omx_core::marking::MarkingPolicy;
use omx_core::wire::{
    frag_count, medium_frag_payload, pull_block_count, pull_frame_count, pull_frame_payload, MsgId,
    PacketKind, PULL_BLOCK_FRAMES,
};
use omx_sim::rng::SimRng;

fn arb_kind(rng: &mut SimRng) -> PacketKind {
    match rng.range_u64(0, 7) {
        0 => PacketKind::Small {
            msg: MsgId(rng.next_u64()),
            match_info: rng.next_u64(),
            len: rng.range_u64(0, 129) as u32,
        },
        1 => {
            let count = rng.range_u64(1, 64) as u32;
            PacketKind::MediumFrag {
                msg: MsgId(rng.next_u64()),
                match_info: rng.next_u64(),
                frag: rng.range_u64(0, 64) as u32 % count,
                frag_count: count,
                frag_len: rng.range_u64(0, 1500) as u32,
                total_len: rng.next_u64() as u32,
            }
        }
        2 => PacketKind::Rendezvous {
            msg: MsgId(rng.next_u64()),
            match_info: rng.next_u64(),
            total_len: rng.next_u64() as u32,
        },
        3 => PacketKind::PullRequest {
            msg: MsgId(rng.next_u64()),
            block: rng.next_u64() as u32,
            frame_count: rng.range_u64(1, 33) as u32,
        },
        4 => PacketKind::PullReply {
            msg: MsgId(rng.next_u64()),
            block: rng.next_u64() as u32,
            frame: rng.range_u64(0, 32) as u32,
            frame_len: rng.range_u64(0, 1500) as u32,
            last_of_block: rng.chance(0.5),
        },
        5 => PacketKind::Notify {
            msg: MsgId(rng.next_u64()),
        },
        _ => PacketKind::Ack {
            cumulative_seq: rng.next_u64(),
        },
    }
}

/// Fragment arithmetic: counts × payloads always cover the message with
/// the last fragment holding the (nonzero) remainder.
#[test]
fn fragmentation_covers_message() {
    let mut rng = SimRng::new(0x5EED_3003);
    for _case in 0..512 {
        let len = rng.range_u64(0, 32 * 1024) as u32;
        let mtu = rng.range_u64(576, 9000) as u32;
        let count = frag_count(len, mtu);
        let per = medium_frag_payload(mtu);
        assert!(count >= 1);
        assert!(per * (count - 1) < len.max(1));
        assert!(per * count >= len);
    }
}

/// Pull geometry: frames cover the message; blocks cover the frames.
#[test]
fn pull_geometry_consistent() {
    let mut rng = SimRng::new(0x5EED_3004);
    for _case in 0..512 {
        let len = rng.range_u64(1, 16 * 1024 * 1024) as u32;
        let mtu = rng.range_u64(576, 9000) as u32;
        let frames = pull_frame_count(len, mtu);
        let blocks = pull_block_count(len, mtu);
        assert!(pull_frame_payload(mtu) * frames >= len);
        assert!(pull_frame_payload(mtu) * (frames - 1) < len);
        assert_eq!(blocks, frames.div_ceil(PULL_BLOCK_FRAMES));
    }
}

/// Marking is deterministic and only ever sets the flag for the classes
/// the policy enables.
#[test]
fn marking_respects_policy() {
    let mut rng = SimRng::new(0x5EED_3005);
    for _case in 0..512 {
        let kind = arb_kind(&mut rng);
        let all = MarkingPolicy::all();
        let none = MarkingPolicy::none();
        assert!(!none.should_mark(&kind));
        // Acks are never marked even by the full policy.
        if matches!(kind, PacketKind::Ack { .. }) {
            assert!(!all.should_mark(&kind));
        }
        // Determinism.
        assert_eq!(all.should_mark(&kind), all.should_mark(&kind));
    }
}
