//! Timestamped event queue with stable ordering.
//!
//! The queue orders events by `(time, sequence)`: events scheduled for the
//! same instant pop in the order they were pushed, which keeps the whole
//! simulation deterministic regardless of the internal layout.
//!
//! A sequence number can also be taken without pushing anything
//! ([`EventQueue::reserve_seq`]) and an event pushed at that key later
//! ([`EventQueue::push_at`]). The event then pops exactly where it would
//! have popped had it been pushed when the number was taken. The NIC uses
//! this to settle most DMA completions without an event, and to schedule
//! one, at its original place, only for a completion that can act (DESIGN
//! §5). [`EventQueue::pop`] returns each event's sequence number, so a
//! handler knows which reserved keys precede it.
//!
//! # Design
//!
//! The hot operations of the simulation are *push* and *pop*; an event
//! leaves the queue only by being popped. A superseded timer stays queued
//! and fires as a no-op (see the node-timer rule in DESIGN §5), so the queue
//! needs no handles into its own layout.
//!
//! * **Event store.** Events live in a `Vec<Option<E>>` with a free list of
//!   slot indices; heap and wheel entries are `(time, seq, slot)`, so sifts
//!   move 24-byte keys and never the (much larger) events themselves.
//! * **4-ary heap.** The primary structure is a 4-ary min-heap of
//!   `(time, seq, slot)` entries. The 4-ary layout halves the tree depth
//!   versus a binary heap and keeps sift-down comparisons within one cache
//!   line.
//! * **Timer-wheel fast path.** Events further out than the heap root are
//!   filed in a three-level hierarchical timer wheel (64 buckets per level;
//!   2^10, 2^16 and 2^22 ns ticks ≈ 65 µs, 4.2 ms and 268 ms of span). A
//!   push files the event in the lowest level whose window holds its tick,
//!   an O(1) bucket push; anything beyond level 2 goes to the heap. Buckets
//!   are unordered. When simulated time reaches a level-0 bucket it is
//!   *promoted* wholesale into the heap, where exact `(time, seq)` order is
//!   restored. When it reaches a higher level's bucket, the bucket
//!   *cascades*: each entry is re-filed, by the same placement rule as a
//!   push, into a lower level or, outside every lower window, into the
//!   heap. So the heap holds the imminent events, not the 20 ms retransmit
//!   arms every packet leaves queued.
//! * **Cursors move only on pop.** Each level's window starts at the tick
//!   of the last popped event. Promotion and cascade leave the cursors
//!   alone, so the near events pushed next still find a wheel window.
//!
//! The structures are hybridised by one invariant, re-established after
//! every mutation: **if the wheel holds any event, the heap is non-empty and
//! its root is `(time, seq)`-minimal among all queued events.** Pushes that
//! would precede the heap root go straight to the heap; pops promote and
//! cascade due wheel buckets until the root precedes the start of every
//! non-empty bucket again. `peek_time`/`pop` therefore read the global
//! minimum directly off the heap root, and dispatch order is byte-identical
//! to a single ordered queue whatever the layout. [`QueueStats`] counts
//! where entries went.
//!
//! Steady-state operation performs no heap allocation: event slots, heap
//! entries and bucket vectors are all recycled, and a new queue owns no
//! allocation at all.

use crate::time::Time;

/// A queued event's ordering key and the slot of its payload. Heap and
/// wheel entries carry the key inline so sifts never chase the event store.
#[derive(Debug, Clone, Copy)]
struct Entry {
    time: Time,
    seq: u64,
    slot: u32,
}

impl Entry {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

/// Wheel geometry: three levels of 64 buckets. Level 0 ticks are 2^10 ns
/// (~1 µs, spanning ~65 µs), level 1 ticks 2^16 ns (~65 µs, spanning
/// ~4.2 ms) and level 2 ticks 2^22 ns (~4.2 ms, spanning ~268 ms).
/// NAPI-scale re-polls land in level 0, the NIC coalescing timeout (75 µs
/// default) in level 1, and the driver's 20 ms retransmit timers in
/// level 2. Anything further out goes to the heap, which is exact at any
/// range.
const LEVELS: usize = 3;
const LEVEL_BITS: [u32; LEVELS] = [10, 16, 22];
const WHEEL_SLOTS: usize = 64;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;

struct Level {
    /// Unordered entries per bucket; bucket index = tick & SLOT_MASK.
    buckets: [Vec<Entry>; WHEEL_SLOTS],
    /// Bit b set ⇔ bucket b is non-empty.
    occupied: u64,
    /// First tick this level may still hold; all resident ticks lie in
    /// `[next_tick, next_tick + WHEEL_SLOTS)`. Only [`EventQueue::pop`]
    /// moves it.
    next_tick: u64,
}

impl Level {
    fn new() -> Self {
        Level {
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
            next_tick: 0,
        }
    }
}

/// Exact counts of where the queue placed its entries: a deterministic
/// function of the push and pop sequence, so they serve as a golden of the
/// queue's work (`BENCH_sim.json`). Every heap insert is a direct push or a
/// promotion; every entry that leaves the wheel is promoted or cascaded.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Pushes that went straight into the heap.
    pub heap_pushes: u64,
    /// Wheel entries moved into the heap.
    pub promoted: u64,
    /// Wheel entries moved down into a lower wheel level.
    pub cascaded: u64,
    /// Heap length (root included) summed over every pop; divided by the
    /// pops, the mean heap length at pop.
    pub heap_len_at_pop_sum: u64,
}

/// A deterministic priority queue of timestamped events.
pub struct EventQueue<E> {
    /// Payloads of queued events, indexed by [`Entry::slot`].
    events: Vec<Option<E>>,
    /// Slots of `events` not holding a queued event.
    free: Vec<u32>,
    heap: Vec<Entry>,
    /// The wheel's `LEVELS` levels, allocated when the wheel first takes
    /// an event: building a queue allocates nothing, and its owner moves
    /// no ~4.7 KB of inline buckets while a cluster is built.
    levels: Vec<Level>,
    next_seq: u64,
    len: usize,
    stats: QueueStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue.
    pub fn new() -> Self {
        EventQueue {
            events: Vec::new(),
            free: Vec::new(),
            heap: Vec::new(),
            levels: Vec::new(),
            next_seq: 0,
            len: 0,
            stats: QueueStats::default(),
        }
    }

    /// Where the queue has placed its entries so far.
    pub fn stats(&self) -> QueueStats {
        self.stats
    }

    /// Number of events still queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `event` at absolute time `time`, after every event already
    /// scheduled for that instant.
    ///
    /// `#[inline]`: push is called once per scheduled event from another
    /// crate (the cluster's event loop); without the hint the call stays an
    /// opaque cross-crate call and the wheel fast path cannot fold into the
    /// caller's loop.
    #[inline]
    pub fn push(&mut self, time: Time, event: E) {
        let seq = self.reserve_seq();
        self.push_at(time, seq, event);
    }

    /// Take the next sequence number without scheduling anything. An event
    /// pushed later at this number ([`Self::push_at`]) pops where an event
    /// pushed now would have popped.
    #[inline]
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` at the key `(time, seq)`, where `seq` came from
    /// [`Self::reserve_seq`]. The key must follow the last popped event's,
    /// and each reserved number is pushed at most once.
    #[inline]
    pub fn push_at(&mut self, time: Time, seq: u64, event: E) {
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        let slot = match self.free.pop() {
            Some(slot) => {
                self.events[slot as usize] = Some(event);
                slot
            }
            None => {
                self.events.push(Some(event));
                (self.events.len() - 1) as u32
            }
        };
        let entry = Entry { time, seq, slot };
        self.len += 1;

        // The wheel may take the event only while the heap root stays the
        // global minimum. A reserved seq can be smaller than the root's, so
        // a tie on time compares the whole key.
        let below = if self
            .heap
            .first()
            .is_some_and(|root| root.key() < entry.key())
        {
            if self.levels.is_empty() {
                self.levels = (0..LEVELS).map(|_| Level::new()).collect();
            }
            LEVELS
        } else {
            0
        };
        if !self.place(entry, below) {
            self.stats.heap_pushes += 1;
        }
    }

    /// Timestamp of the next event, if any.
    ///
    /// O(1) and `&self`: the hybrid invariant keeps the global minimum at
    /// the heap root whenever the queue is non-empty.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|e| e.time)
    }

    /// Pop the earliest event, with its sequence number.
    pub fn pop(&mut self) -> Option<(Time, u64, E)> {
        if self.len == 0 {
            return None;
        }
        debug_assert!(!self.heap.is_empty(), "hybrid invariant violated");
        self.stats.heap_len_at_pop_sum += self.heap.len() as u64;
        let root = self.heap_pop_root();
        let event = self.events[root.slot as usize]
            .take()
            .expect("heap entry has an event");
        self.free.push(root.slot);
        self.len -= 1;
        // Every remaining event is at `root.time` or later, so wheel ticks
        // strictly before it are empty forever: advance the level cursors so
        // the push windows track simulated time.
        let t = root.time.as_nanos();
        for (l, level) in self.levels.iter_mut().enumerate() {
            let tick = t >> LEVEL_BITS[l];
            if tick > level.next_tick {
                level.next_tick = tick;
            }
        }
        self.restore();
        Some((root.time, root.seq, event))
    }

    // -- wheel ---------------------------------------------------------------

    /// Earliest non-empty wheel bucket across levels, as `(level, tick,
    /// start_ns)`; O(1) via the occupancy bitmaps.
    fn earliest_bucket(&self) -> Option<(usize, u64, u64)> {
        let mut best: Option<(usize, u64, u64)> = None;
        for (l, level) in self.levels.iter().enumerate() {
            if level.occupied == 0 {
                continue;
            }
            let rot = level
                .occupied
                .rotate_right((level.next_tick & SLOT_MASK) as u32);
            let tick = level.next_tick + u64::from(rot.trailing_zeros());
            let start = tick.saturating_mul(1u64 << LEVEL_BITS[l]);
            match best {
                Some((_, _, s)) if start >= s => {}
                _ => best = Some((l, tick, start)),
            }
        }
        best
    }

    /// File `entry` in the lowest level below `below` whose window holds
    /// its tick, else in the heap. Returns `true` if the wheel took it.
    /// Push and cascade share this one placement rule.
    #[inline]
    fn place(&mut self, entry: Entry, below: usize) -> bool {
        let t = entry.time.as_nanos();
        for (l, level) in self.levels[..below].iter_mut().enumerate() {
            let tick = t >> LEVEL_BITS[l];
            if tick >= level.next_tick && tick - level.next_tick < WHEEL_SLOTS as u64 {
                let b = (tick & SLOT_MASK) as usize;
                level.buckets[b].push(entry);
                level.occupied |= 1 << b;
                return true;
            }
        }
        self.heap_insert(entry);
        false
    }

    /// Re-establish the hybrid invariant: empty due wheel buckets until the
    /// heap root precedes every wheel-resident event (or the wheel is
    /// empty). A due level-0 bucket is promoted into the heap; a due bucket
    /// of a higher level *cascades*: each entry is re-filed by [`Self::place`]
    /// into a lower level, or into the heap if no lower window holds it.
    /// Entries only move down, so each is handled at most once per level.
    /// The cursors stay put: raising a lower level's cursor here would push
    /// the near events that follow into the heap.
    fn restore(&mut self) {
        while let Some((l, tick, start)) = self.earliest_bucket() {
            if self
                .heap
                .first()
                .is_some_and(|root| root.time.as_nanos() < start)
            {
                break;
            }
            let b = (tick & SLOT_MASK) as usize;
            let mut bucket = std::mem::take(&mut self.levels[l].buckets[b]);
            self.levels[l].occupied &= !(1u64 << b);
            for entry in bucket.drain(..) {
                if self.place(entry, l) {
                    self.stats.cascaded += 1;
                } else {
                    self.stats.promoted += 1;
                }
            }
            self.levels[l].buckets[b] = bucket; // keep the capacity
        }
    }

    // -- 4-ary heap ----------------------------------------------------------

    fn heap_insert(&mut self, entry: Entry) {
        let pos = self.heap.len();
        self.heap.push(entry);
        self.sift_up(pos);
    }

    /// Remove and return the root, restoring the heap property.
    fn heap_pop_root(&mut self) -> Entry {
        let last = self.heap.pop().expect("heap_pop_root on non-empty heap");
        if self.heap.is_empty() {
            return last;
        }
        let root = std::mem::replace(&mut self.heap[0], last);
        self.sift_down(0);
        root
    }

    fn sift_up(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        let key = entry.key();
        while pos > 0 {
            let parent = (pos - 1) / 4;
            let p = self.heap[parent];
            if p.key() <= key {
                break;
            }
            self.heap[pos] = p;
            pos = parent;
        }
        self.heap[pos] = entry;
    }

    fn sift_down(&mut self, mut pos: usize) {
        let entry = self.heap[pos];
        let key = entry.key();
        let len = self.heap.len();
        loop {
            let first = pos * 4 + 1;
            if first >= len {
                break;
            }
            let last = (first + 4).min(len);
            let mut best = first;
            let mut best_key = self.heap[first].key();
            for c in first + 1..last {
                let k = self.heap[c].key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if key <= best_key {
                break;
            }
            self.heap[pos] = self.heap[best];
            pos = best;
        }
        self.heap[pos] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    impl<E> EventQueue<E> {
        /// [`EventQueue::pop`] without the sequence number.
        fn pop_event(&mut self) -> Option<(Time, E)> {
            self.pop().map(|(time, _, event)| (time, event))
        }

        /// Events currently resident in the wheel (tests only).
        fn wheel_len(&self) -> usize {
            self.levels
                .iter()
                .flat_map(|l| l.buckets.iter())
                .map(Vec::len)
                .sum()
        }

        /// Walk every internal structure and check consistency (tests only).
        fn check_invariants(&self) {
            let heap_live = self.heap.len();
            let wheel_live = self.wheel_len();
            assert_eq!(self.len, heap_live + wheel_live, "len mismatch");
            assert_eq!(
                self.len + self.free.len(),
                self.events.len(),
                "every slot is queued or free"
            );
            for (l, level) in self.levels.iter().enumerate() {
                for (b, bucket) in level.buckets.iter().enumerate() {
                    assert_eq!(
                        level.occupied >> b & 1 == 1,
                        !bucket.is_empty(),
                        "level {l} occupancy bit {b}"
                    );
                    for e in bucket {
                        let tick = e.time.as_nanos() >> LEVEL_BITS[l];
                        assert_eq!((tick & SLOT_MASK) as usize, b, "entry in wrong bucket");
                        assert!(
                            tick >= level.next_tick && tick - level.next_tick < WHEEL_SLOTS as u64,
                            "level {l} entry outside its window"
                        );
                        let root = self.heap.first().expect("wheel non-empty needs heap root");
                        assert!(root.key() <= e.key(), "wheel event precedes heap root");
                    }
                }
            }
            for (i, e) in self.heap.iter().enumerate() {
                if i > 0 {
                    let p = self.heap[(i - 1) / 4];
                    assert!(p.key() <= e.key(), "heap property violated at {i}");
                }
                assert!(
                    self.events[e.slot as usize].is_some(),
                    "heap entry has no event"
                );
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop_event(), Some((t(10), "a")));
        assert_eq!(q.pop_event(), Some((t(20), "b")));
        assert_eq!(q.pop_event(), Some((t(30), "c")));
        assert_eq!(q.pop_event(), None);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop_event(), Some((t(5), i)));
        }
    }

    #[test]
    fn reserved_key_pops_in_its_original_place() {
        // A number reserved between two pushes at the same instant, pushed
        // after a later pop, pops between them: the key, not the push
        // order, decides. With the root on that instant it must go to the
        // heap, ahead of the root.
        let mut q = EventQueue::new();
        q.push(t(0), "first");
        q.push(t(5_000), "a");
        let reserved = q.reserve_seq();
        q.push(t(5_000), "b");
        assert_eq!(q.pop(), Some((t(0), 0, "first")));
        q.push_at(t(5_000), reserved, "reserved");
        q.check_invariants();
        assert_eq!(q.pop_event(), Some((t(5_000), "a")));
        let later = q.reserve_seq();
        q.push_at(t(6_000), later, "later");
        assert_eq!(q.pop(), Some((t(5_000), reserved, "reserved")));
        assert_eq!(q.pop_event(), Some((t(5_000), "b")));
        assert_eq!(q.pop_event(), Some((t(6_000), "later")));
        assert!(q.is_empty());
    }

    #[test]
    fn short_horizon_timers_use_the_wheel() {
        let mut q = EventQueue::new();
        // An imminent event pins the heap root …
        q.push(t(100), 0u64);
        // … so a coalescing-style timer 75 µs out lands in the wheel.
        q.push(t(75_000), 1u64);
        assert_eq!(q.wheel_len(), 1, "75us timer should be wheel-resident");
        q.check_invariants();
        assert_eq!(q.pop_event(), Some((t(100), 0)));
        assert_eq!(q.pop_event(), Some((t(75_000), 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn wheel_events_promote_in_exact_order() {
        let mut q = EventQueue::new();
        q.push(t(0), 0u64);
        // A mix of same-tick events pushed out of time order.
        q.push(t(2_000), 3u64);
        q.push(t(1_500), 2u64);
        q.push(t(1_500), 4u64); // same time as previous, later seq
        q.push(t(900), 1u64);
        assert!(q.wheel_len() > 0, "short-horizon events use the wheel");
        q.check_invariants();
        let order: Vec<u64> = std::iter::from_fn(|| q.pop_event().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![0, 1, 2, 4, 3]);
    }

    #[test]
    fn repeated_rearm_pattern_is_exact() {
        // The node-timer pattern: a 75 µs timer pushed again on every
        // packet, each superseded arming left queued. Every arming pops
        // exactly once, in time order, and event slots are recycled.
        let mut q = EventQueue::new();
        let mut fired = Vec::new();
        for i in 0..1_000u64 {
            let now = i * 1_200; // one packet every 1.2 µs
            q.push(t(now), ("pkt", i));
            q.push(t(now + 75_000), ("timer", i));
            // Drain events up to now (the engine keeps popping).
            while q.peek_time().is_some_and(|pt| pt.as_nanos() <= now) {
                let (at, (kind, j)) = q.pop_event().expect("peeked");
                if kind == "timer" {
                    assert_eq!(at, t(j * 1_200 + 75_000));
                    fired.push(j);
                }
            }
        }
        q.check_invariants();
        assert!(q.events.len() < 200, "slots are recycled");
        while let Some((_, (kind, j))) = q.pop_event() {
            assert_eq!(kind, "timer");
            fired.push(j);
        }
        assert_eq!(fired, (0..1_000).collect::<Vec<_>>());
    }

    #[test]
    fn retransmit_arms_stay_out_of_the_heap() {
        // The driver-timer pattern: a 20 ms retransmit arm every 100 µs,
        // each superseded arm left queued, under a packet every 1.2 µs
        // with the next packet already in flight. The arms wait in level
        // 2 and cascade down as time reaches them, so the heap holds only
        // the imminent events; pop order is exactly `(time, seq)`.
        const PKT_NS: u64 = 1_200;
        const ARM_EVERY_NS: u64 = 100_000;
        const RTO_NS: u64 = 20_000_000;
        let mut q = EventQueue::new();
        let mut pushed = Vec::new(); // (time, seq) of every push
        let mut push = |q: &mut EventQueue<(u64, bool)>, at: u64, packet: bool| {
            let seq = pushed.len() as u64;
            q.push(t(at), (seq, packet));
            pushed.push((at, seq));
        };
        push(&mut q, 0, true);
        push(&mut q, PKT_NS, true);
        let (mut next_arm, mut max_heap) = (0, 0);
        let mut popped = Vec::new();
        while let Some((at, (seq, packet))) = q.pop_event() {
            let now = at.as_nanos();
            popped.push((now, seq));
            max_heap = max_heap.max(q.heap.len());
            // Packets run for 60 ms; the arms then drain on their own.
            if packet && now + 2 * PKT_NS < 60_000_000 {
                push(&mut q, now + 2 * PKT_NS, true);
                if now >= next_arm {
                    push(&mut q, now + RTO_NS, false);
                    next_arm += ARM_EVERY_NS;
                }
            }
            max_heap = max_heap.max(q.heap.len());
        }
        assert!(q.stats().cascaded > 0, "the arms cascade through the wheel");
        assert!(max_heap <= 8, "heap reached {max_heap} entries");
        pushed.sort_unstable();
        assert_eq!(popped, pushed, "pop order is (time, seq)");
    }

    #[test]
    fn recycled_slots_hold_their_new_event() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        q.push(t(20), 2);
        assert_eq!(q.pop_event(), Some((t(10), 1)));
        // The popped event's slot carries the next push.
        q.push(t(15), 3);
        assert_eq!(q.events.len(), 2, "the freed slot is reused");
        q.check_invariants();
        assert_eq!(q.pop_event(), Some((t(15), 3)));
        assert_eq!(q.pop_event(), Some((t(20), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn len_counts_heap_and_wheel_events() {
        let mut q = EventQueue::new();
        q.push(t(100), 0u64); // heap root
        q.push(t(5_000), 1u64); // wheel
        q.push(Time::from_secs(1), 2u64); // beyond the wheel: heap
        assert_eq!((q.heap.len(), q.wheel_len()), (2, 1));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_event(), Some((t(100), 0)));
        assert_eq!(q.len(), 2);
        q.check_invariants();
    }

    #[test]
    fn far_future_events_overflow_to_heap() {
        let mut q = EventQueue::new();
        q.push(t(0), 0u64);
        q.push(Time::from_secs(10), 1u64); // far beyond the wheel span
        q.push(Time::MAX, 2u64);
        assert_eq!(q.wheel_len(), 0);
        assert_eq!(q.pop_event(), Some((t(0), 0)));
        assert_eq!(q.pop_event(), Some((Time::from_secs(10), 1)));
        assert_eq!(q.pop_event(), Some((Time::MAX, 2)));
    }
}
