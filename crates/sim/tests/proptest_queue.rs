//! Property tests for the event queue (ordering and FIFO ties) and for its
//! merge with the per-node inbound queues.
//!
//! Randomised with the crate's own deterministic [`SimRng`] (fixed seeds, so
//! failures reproduce exactly) instead of an external property-test harness.

use omx_sim::rng::SimRng;
use omx_sim::{EventQueue, InboundQueues, Source, Time};

/// Events always pop in nondecreasing time order, with FIFO order among
/// equal timestamps, regardless of push order.
#[test]
fn pop_order_is_time_then_fifo() {
    let mut rng = SimRng::new(0x5EED_0001);
    for _case in 0..128 {
        let n = rng.range_u64(1, 200) as usize;
        let times: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000)).collect();
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(Time::from_nanos(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        let mut popped = 0;
        while let Some((at, _, (t, i))) = q.pop() {
            popped += 1;
            assert_eq!(at.as_nanos(), t);
            if let Some((lt, li)) = last {
                assert!(
                    t > lt || (t == lt && i > li),
                    "order violated: ({lt},{li}) then ({t},{i})"
                );
            }
            last = Some((t, i));
        }
        assert_eq!(popped, times.len());
    }
}

/// Model-based check: drive the real queue and a naive sorted-`Vec`
/// reference model through arbitrary interleavings of push / pop / peek and
/// of pushes at reserved keys, and assert every observable result is
/// identical. The model is the executable spec of "ordered multiset keyed by
/// (time, seq)", where a push takes the next seq and a reserved push the
/// seq taken earlier: whatever layout the queue uses internally (register,
/// buckets, slab reuse), its behaviour must be indistinguishable from this.
#[test]
fn queue_matches_sorted_vec_model() {
    /// Push at `t` into the queue and the model, which keeps `(time, seq)`
    /// pairs sorted; the seq is also the event.
    fn push(q: &mut EventQueue<u64>, model: &mut Vec<(u64, u64)>, seq: &mut u64, t: u64) {
        q.push(Time::from_nanos(t), *seq);
        let pos = model.binary_search(&(t, *seq)).unwrap_err();
        model.insert(pos, (t, *seq));
        *seq += 1;
    }

    let mut rng = SimRng::new(0x5EED_0004);
    let (mut redistributed, mut register_pops, mut reserved_pushes) = (0, 0, 0);
    for case in 0..256 {
        let ops = rng.range_u64(1, 400) as usize;
        let mut q = EventQueue::new();
        // Reference: front pops first.
        let mut model: Vec<(u64, u64)> = Vec::new();
        let mut seq = 0u64;
        let mut floor = 0u64; // pops are monotone; pushes must respect it
        let mut last_popped = None; // the key pushes at reserved keys follow
        let mut reserved: Vec<(u64, u64)> = Vec::new(); // keys taken, not pushed

        for _ in 0..ops {
            match rng.range_u64(0, 100) {
                // Push (45%), at a distance drawn from one of several bands
                // from 1 µs to far beyond 268 ms, or tied with a queued
                // event.
                0..=44 => {
                    let span = match rng.range_u64(0, 8) {
                        0 => 1,       // the instant of the last pop
                        1 => 1 << 10, // ≤ 1 µs
                        2 => 1 << 16, // ≤ 65 µs
                        3 => 1 << 22, // ≤ 4.2 ms
                        4 => 1 << 28, // ≤ 268 ms
                        5 => 1 << 40, // ≤ 18 min
                        6 => u64::MAX,
                        _ => 0, // a tie with a queued event
                    };
                    let t = match span {
                        u64::MAX => u64::MAX,
                        0 if !model.is_empty() => {
                            model[rng.range_u64(0, model.len() as u64) as usize].0
                        }
                        0 => floor,
                        _ => floor.saturating_add(rng.range_u64(0, span)),
                    };
                    push(&mut q, &mut model, &mut seq, t);
                }
                // Reserve a key near the floor (4%), or push at one taken
                // earlier (4%) if it still follows the last pop.
                45..=48 => {
                    let t = floor.saturating_add(rng.range_u64(0, 1 << 17));
                    assert_eq!(q.reserve_seq(), seq);
                    reserved.push((t, seq));
                    seq += 1;
                }
                49..=52 if !reserved.is_empty() => {
                    let key =
                        reserved.swap_remove(rng.range_u64(0, reserved.len() as u64) as usize);
                    if last_popped.is_none_or(|last| key > last) {
                        q.push_at(Time::from_nanos(key.0), key.1, key.1);
                        let pos = model.binary_search(&key).unwrap_err();
                        model.insert(pos, key);
                        reserved_pushes += 1;
                    }
                }
                // A burst of near events (5%): when only far events are
                // queued, these go under a far filed minimum.
                53..=57 => {
                    for _ in 0..rng.range_u64(1, 16) {
                        let t = floor.saturating_add(rng.range_u64(0, 1 << 12));
                        push(&mut q, &mut model, &mut seq, t);
                    }
                }
                // Pop (30%).
                58..=87 => {
                    let got = q.pop();
                    if model.is_empty() {
                        assert!(got.is_none(), "case {case}: pop from empty");
                    } else {
                        let e = model.remove(0);
                        let (at, s, id) = got.expect("model non-empty but pop was None");
                        assert_eq!((at.as_nanos(), s), e, "case {case}: pop mismatch");
                        assert_eq!(id, s, "case {case}: event under the wrong key");
                        floor = e.0;
                        last_popped = Some(e);
                    }
                }
                // Peek (the rest).
                _ => {
                    let expect = model.first().map(|e| e.0);
                    assert_eq!(
                        q.peek_key().map(|(t, _)| t.as_nanos()),
                        expect,
                        "case {case}: peek mismatch"
                    );
                }
            }
            assert_eq!(q.len(), model.len(), "case {case}: len mismatch");
            assert_eq!(q.is_empty(), model.is_empty());
        }

        // Drain: the tail must come out exactly in model order.
        for e in model {
            let (at, s, _) = q.pop().expect("queue drained before model");
            assert_eq!((at.as_nanos(), s), e, "case {case}: drain");
        }
        assert!(q.pop().is_none());
        redistributed += q.stats().redistributed;
        register_pops += q.stats().register_pops;
    }
    assert!(redistributed > 0, "the cases redistribute filed entries");
    assert!(register_pops > 0, "the cases pop from the register");
    assert!(reserved_pushes > 0, "the cases push at reserved keys");
}

/// Interleaved push/pop keeps the min-heap property observable: any pop
/// returns a time ≥ the previous pop.
#[test]
fn interleaved_operations_stay_ordered() {
    let mut rng = SimRng::new(0x5EED_0003);
    for _case in 0..128 {
        let ops = rng.range_u64(1, 300) as usize;
        let mut q = EventQueue::new();
        let mut last_popped = 0u64;
        let mut clock = 0u64; // scheduling must be >= last pop for realism
        for _ in 0..ops {
            let t = rng.range_u64(0, 1000);
            if rng.chance(0.5) {
                if let Some((at, _, ())) = q.pop() {
                    assert!(at.as_nanos() >= last_popped);
                    last_popped = at.as_nanos();
                }
            } else {
                let at = clock + t; // non-decreasing baseline
                q.push(Time::from_nanos(at.max(last_popped)), ());
                clock = clock.max(at / 2);
            }
        }
    }
}

/// The event loop's merge: events and inbound frames, keyed from one
/// sequence counter, dispatch as one sorted `(time, seq)` model says.
/// Frames bound for one node are queued at random times, so a later-sent
/// frame often overtakes an earlier one, and times are drawn from a small
/// grid, so frames on different nodes and events tie on their instant.
#[test]
fn inbound_merge_matches_sorted_model() {
    /// Whether a model entry is an event or a frame, and for which node.
    #[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
    enum Item {
        Event,
        Frame(usize),
    }

    let mut rng = SimRng::new(0x5EED_0005);
    let (mut overtakes, mut cross_node_ties) = (0, 0);
    for case in 0..256 {
        let nodes = rng.range_u64(1, 6) as usize;
        let ops = rng.range_u64(1, 400) as usize;
        let mut q: EventQueue<u64> = EventQueue::new();
        let mut inbound: InboundQueues<u64> = InboundQueues::new();
        let mut model: Vec<(u64, u64, Item)> = Vec::new();
        let mut now = 0u64;
        for _ in 0..ops {
            // Times on a 100 ns grid near the clock: ties are common.
            let at = now + 100 * rng.range_u64(0, 20);
            match rng.range_u64(0, 10) {
                0..=2 => {
                    let seq = q.reserve_seq();
                    q.push_at(Time::from_nanos(at), seq, seq);
                    model.push((at, seq, Item::Event));
                }
                3..=5 => {
                    let node = rng.range_u64(0, nodes as u64) as usize;
                    let seq = q.reserve_seq();
                    inbound.push(Time::from_nanos(now), Time::from_nanos(at), seq, node, seq);
                    let queued_later = |&(t, s, item): &(u64, u64, Item)| {
                        item == Item::Frame(node) && (t, s) > (at, seq)
                    };
                    overtakes += usize::from(model.iter().any(queued_later));
                    model.push((at, seq, Item::Frame(node)));
                }
                _ => {
                    model.sort_unstable();
                    let got = match inbound.earliest(q.peek_key()) {
                        None => None,
                        Some((t, Source::Events)) => {
                            let (at, seq, id) = q.pop().expect("peeked");
                            assert_eq!((at, id), (t, seq));
                            Some((at.as_nanos(), seq, Item::Event))
                        }
                        Some((t, Source::Inbound)) => {
                            let (at, seq, node, id) = inbound.pop().expect("peeked");
                            assert_eq!((at, id), (t, seq));
                            Some((at.as_nanos(), seq, Item::Frame(node)))
                        }
                    };
                    let want = (!model.is_empty()).then(|| model.remove(0));
                    assert_eq!(got, want, "case {case}: merge order");
                    if let (Some((t, _, Item::Frame(a))), Some(&(next, _, Item::Frame(b)))) =
                        (got, model.first())
                    {
                        cross_node_ties += usize::from(t == next && a != b);
                    }
                    if let Some((t, ..)) = got {
                        now = t;
                    }
                }
            }
            let frames = model.iter().filter(|e| e.2 != Item::Event).count();
            assert_eq!(inbound.len(), frames, "case {case}: frames queued");
            assert_eq!(q.len(), model.len() - frames, "case {case}: events queued");
        }
        model.sort_unstable();
        for want in model {
            let got = match inbound.earliest(q.peek_key()).expect("model non-empty") {
                (_, Source::Events) => q.pop().map(|(t, s, _)| (t.as_nanos(), s, Item::Event)),
                (_, Source::Inbound) => inbound
                    .pop()
                    .map(|(t, s, node, _)| (t.as_nanos(), s, Item::Frame(node))),
            };
            assert_eq!(got, Some(want), "case {case}: drain");
        }
        assert_eq!(inbound.earliest(q.peek_key()), None);
        inbound.assert_drained();
    }
    assert!(overtakes > 0, "the cases exercise overtaking frames");
    assert!(cross_node_ties > 0, "the cases exercise ties across nodes");
}
