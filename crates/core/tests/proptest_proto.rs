//! Property tests for the driver protocol: delivery is exact under
//! arbitrary message sizes, packet reordering, and drop patterns.
//!
//! Randomised with the simulator's deterministic [`SimRng`] (fixed seeds, so
//! failures reproduce exactly) instead of an external property-test harness.

use omx_core::proto::{DriverAction, NodeDriver, ProtoConfig};
use omx_core::wire::{EndpointAddr, Packet};
use omx_sim::json::ToJson;
use omx_sim::rng::SimRng;
use omx_sim::{Time, TimeDelta};
use std::collections::VecDeque;

/// Drive two drivers to quiescence with an adversarial network: packets are
/// delivered in an arbitrary interleaving (`order_seed` permutes), and
/// `drop_mask` drops the i-th wire transmission (first pass only —
/// retransmissions always deliver, as the paper's fabric eventually does).
/// Timers fire whenever the network goes quiet. `next_deadline` runs after
/// every handled packet and every timer firing, so in debug builds its
/// cross-check of each connection's cached deadline runs at every step.
fn converge(
    a: &mut NodeDriver,
    b: &mut NodeDriver,
    initial: Vec<Packet>,
    order_seed: u64,
    drop_mask: &[bool],
) -> (Vec<DriverAction>, Vec<DriverAction>) {
    let mut wire: VecDeque<Packet> = VecDeque::new();
    let mut out_a = Vec::new();
    let mut out_b = Vec::new();
    let mut now = Time::from_micros(1);
    let mut tx_count = 0usize;
    let mut rng = order_seed;

    let submit = |wire: &mut VecDeque<Packet>, pkt: Packet, tx_count: &mut usize| {
        let dropped = *drop_mask.get(*tx_count).unwrap_or(&false);
        *tx_count += 1;
        if !dropped {
            wire.push_back(pkt);
        }
    };

    for pkt in initial {
        submit(&mut wire, pkt, &mut tx_count);
    }

    for _round in 0..100_000 {
        if wire.is_empty() {
            // Quiet network: advance time past every deadline and fire
            // timers. Keep firing across quiet rounds — a retransmission can
            // itself be dropped and need another timeout.
            now += TimeDelta::from_millis(25);
            let mut any_deadline = false;
            for (drv, _out) in [(&mut *a, &mut out_a), (&mut *b, &mut out_b)] {
                if drv.next_deadline().is_some() {
                    any_deadline = true;
                    for act in drv.on_timer(now) {
                        if let DriverAction::Transmit(p) = act {
                            submit(&mut wire, p, &mut tx_count);
                        }
                    }
                    let _ = drv.next_deadline();
                }
            }
            if wire.is_empty() && !any_deadline {
                break; // fully quiescent
            }
            continue;
        }
        // Pseudo-random pick from the wire (adversarial reordering).
        rng = rng
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let idx = (rng >> 33) as usize % wire.len();
        let pkt = wire.remove(idx).expect("index in range");
        now += TimeDelta::from_micros(1);
        let (target, sink) = if pkt.hdr.dst.node.0 == a.node() {
            (&mut *a, &mut out_a)
        } else {
            (&mut *b, &mut out_b)
        };
        for act in target.handle_packet(now, pkt) {
            match act {
                DriverAction::Transmit(p) => submit(&mut wire, p, &mut tx_count),
                other => sink.push(other),
            }
        }
        let _ = target.next_deadline();
    }
    (out_a, out_b)
}

fn recv_completions(actions: &[DriverAction]) -> Vec<(u64, u32)> {
    actions
        .iter()
        .filter_map(|a| match a {
            DriverAction::RecvComplete { handle, len, .. } => Some((*handle, *len)),
            _ => None,
        })
        .collect()
}

/// Any mix of message sizes delivers exactly once, regardless of wire
/// interleaving.
#[test]
fn exact_delivery_under_reordering() {
    let mut rng = SimRng::new(0x5EED_2001);
    for _case in 0..64 {
        let n = rng.range_u64(1, 6) as usize;
        let lens: Vec<u32> = (0..n).map(|_| rng.range_u64(0, 300_000) as u32).collect();
        let order_seed = rng.next_u64();
        let cfg = ProtoConfig::default();
        let mut a = NodeDriver::new(0, 1, cfg);
        let mut b = NodeDriver::new(1, 1, cfg);
        let mut initial = Vec::new();
        for (i, &len) in lens.iter().enumerate() {
            b.post_recv(Time::from_micros(1), 0, i as u64, !0, 1_000 + i as u64);
            for act in a.post_send(
                Time::from_micros(1),
                0,
                EndpointAddr::new(1, 0),
                len,
                i as u64,
                i as u64,
            ) {
                if let DriverAction::Transmit(p) = act {
                    initial.push(p);
                }
            }
        }
        let (_, out_b) = converge(&mut a, &mut b, initial, order_seed, &[]);
        let mut got = recv_completions(&out_b);
        got.sort_unstable();
        let mut expect: Vec<(u64, u32)> = lens
            .iter()
            .enumerate()
            .map(|(i, &l)| (1_000 + i as u64, l))
            .collect();
        expect.sort_unstable();
        assert_eq!(got, expect);
    }
}

/// Dropping arbitrary first-transmission packets still yields exact
/// delivery via retransmission (eager) or block re-request (pull).
#[test]
fn exact_delivery_under_drops() {
    let mut rng = SimRng::new(0x5EED_2002);
    for _case in 0..64 {
        let len = rng.range_u64(0, 200_000) as u32;
        let order_seed = rng.next_u64();
        let mask_len = rng.range_u64(0, 400) as usize;
        let drop_mask: Vec<bool> = (0..mask_len).map(|_| rng.chance(0.5)).collect();
        let cfg = ProtoConfig {
            rto_ns: 5_000_000,
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 1, cfg);
        let mut b = NodeDriver::new(1, 1, cfg);
        b.post_recv(Time::from_micros(1), 0, 7, !0, 99);
        let mut initial = Vec::new();
        for act in a.post_send(Time::from_micros(1), 0, EndpointAddr::new(1, 0), len, 7, 1) {
            if let DriverAction::Transmit(p) = act {
                initial.push(p);
            }
        }
        let (_, out_b) = converge(&mut a, &mut b, initial, order_seed, &drop_mask);
        let got = recv_completions(&out_b);
        assert_eq!(got, vec![(99u64, len)]);
    }
}

/// Large-message senders always learn about completion (notify arrives,
/// possibly retransmitted).
#[test]
fn sender_always_completes() {
    let mut rng = SimRng::new(0x5EED_2003);
    for _case in 0..64 {
        let len = rng.range_u64(32_769, 150_000) as u32;
        let order_seed = rng.next_u64();
        let mask_len = rng.range_u64(0, 200) as usize;
        let drop_mask: Vec<bool> = (0..mask_len).map(|_| rng.chance(0.5)).collect();
        let cfg = ProtoConfig {
            rto_ns: 5_000_000,
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 1, cfg);
        let mut b = NodeDriver::new(1, 1, cfg);
        b.post_recv(Time::from_micros(1), 0, 7, !0, 99);
        let mut initial = Vec::new();
        for act in a.post_send(Time::from_micros(1), 0, EndpointAddr::new(1, 0), len, 7, 42) {
            if let DriverAction::Transmit(p) = act {
                initial.push(p);
            }
        }
        let (out_a, _) = converge(&mut a, &mut b, initial, order_seed, &drop_mask);
        assert!(
            out_a
                .iter()
                .any(|x| matches!(x, DriverAction::SendComplete { handle: 42, .. })),
            "sender never completed"
        );
    }
}

/// One receive batch handed to two copies of a driver: `reference` gets
/// one [`NodeDriver::handle_packet_into`] per packet, `batched` one
/// [`NodeDriver::handle_batch_into`]. Both must emit the same actions in
/// the same order, end each packet's actions at the same index, and leave
/// the same counters and deadline. Returns the actions.
fn handle_both(
    reference: &mut NodeDriver,
    batched: &mut NodeDriver,
    now: Time,
    batch: &[Packet],
) -> Vec<DriverAction> {
    let (mut want, mut want_ends) = (Vec::new(), Vec::new());
    for &pkt in batch {
        reference.handle_packet_into(now, pkt, &mut want);
        want_ends.push(want.len());
    }
    let (mut got, mut got_ends) = (Vec::new(), Vec::new());
    batched.handle_batch_into(now, batch, &mut got, &mut got_ends);
    assert_eq!(got, want, "actions of batch {batch:?}");
    assert_eq!(got_ends, want_ends, "packet boundaries of batch {batch:?}");
    same_state(reference, batched);
    want
}

fn same_state(reference: &NodeDriver, batched: &NodeDriver) {
    assert_eq!(
        batched.counters().to_json().render(),
        reference.counters().to_json().render()
    );
    assert_eq!(batched.next_deadline(), reference.next_deadline());
}

/// A receive batch is one driver call: for any traffic, reordered,
/// duplicated and lossy, cut into batches of any size, handling a batch
/// in one call is handling its packets one call each. Node 1 runs in two
/// copies (per packet and per batch) that must agree after every batch
/// and timer; the per-packet copy's transmits drive node 0, whose
/// transmits reach node 1 in random order, some twice, some never.
#[test]
fn a_batch_call_is_one_call_per_packet() {
    let mut rng = SimRng::new(0x5EED_2004);
    for _case in 0..128 {
        let cfg = ProtoConfig {
            rto_ns: 5_000_000,
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 2, cfg);
        let mut reference = NodeDriver::new(1, 2, cfg);
        let mut batched = NodeDriver::new(1, 2, cfg);
        let mut now = Time::from_micros(1);
        // Node 0 → node 1 messages of every size class, and a few back.
        let mut to_b = Vec::new();
        let mut to_a = Vec::new();
        for i in 0..rng.range_u64(1, 6) {
            let ep = rng.range_u64(0, 2) as u8;
            let len = rng.range_u64(0, 100_000) as u32;
            for b in [&mut reference, &mut batched] {
                b.post_recv(now, ep, i, !0, 1_000 + i);
            }
            let acts = a.post_send(now, ep, EndpointAddr::new(1, ep), len, i, i);
            to_b.extend(acts.into_iter().filter_map(transmitted));
        }
        for i in 0..rng.range_u64(0, 3) {
            a.post_recv(now, 0, i, !0, 2_000 + i);
            let len = rng.range_u64(0, 50_000) as u32;
            let mut acts = Vec::new();
            for b in [&mut reference, &mut batched] {
                acts = b.post_send(now, 1, EndpointAddr::new(0, 0), len, i, i);
            }
            to_a.extend(acts.into_iter().filter_map(transmitted));
        }

        for _round in 0..20_000 {
            if to_b.is_empty() && to_a.is_empty() {
                // Quiet network: fire every due timer, node 1's copies alike.
                now += TimeDelta::from_millis(6);
                let deadlines = [a.next_deadline(), reference.next_deadline()];
                if deadlines.iter().all(Option::is_none) {
                    break;
                }
                to_b.extend(a.on_timer(now).into_iter().filter_map(transmitted));
                let want = reference.on_timer(now);
                assert_eq!(batched.on_timer(now), want);
                same_state(&reference, &batched);
                to_a.extend(want.into_iter().filter_map(transmitted));
                continue;
            }
            now += TimeDelta::from_micros(rng.range_u64(0, 20) as i64);
            // Node 0 takes what node 1 sent, in order.
            for pkt in to_a.drain(..) {
                to_b.extend(
                    a.handle_packet(now, pkt)
                        .into_iter()
                        .filter_map(transmitted),
                );
            }
            // Node 1 takes a random batch: random picks, some duplicated,
            // some lost.
            let mut batch = Vec::new();
            for _ in 0..rng.range_u64(1, 9).min(to_b.len() as u64) {
                let pkt = to_b.swap_remove(rng.range_u64(0, to_b.len() as u64) as usize);
                if rng.chance(0.1) {
                    to_b.push(pkt);
                }
                if !rng.chance(0.05) {
                    batch.push(pkt);
                }
            }
            let acts = handle_both(&mut reference, &mut batched, now, &batch);
            to_a.extend(acts.into_iter().filter_map(transmitted));
        }
        assert!(to_b.is_empty() && to_a.is_empty(), "traffic never settled");
    }
}

fn transmitted(action: DriverAction) -> Option<Packet> {
    match action {
        DriverAction::Transmit(p) => Some(p),
        _ => None,
    }
}
