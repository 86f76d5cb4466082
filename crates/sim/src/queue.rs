//! Timestamped event queue with stable ordering and true cancellation.
//!
//! The queue orders events by `(time, sequence)`: events scheduled for the
//! same instant pop in the order they were pushed, which keeps the whole
//! simulation deterministic regardless of the internal layout.
//!
//! # Design
//!
//! The hot operations of the simulation are *push*, *pop* and — because
//! coalescing timers are re-armed (cancel + push) on almost every received
//! packet — *cancel*. The original implementation paired a `BinaryHeap` with
//! a `HashSet` of live sequence numbers (lazy deletion): every operation paid
//! a SipHash lookup and cancelled entries lingered in the heap until they
//! surfaced. This version removes the hashing and the dead entries entirely:
//!
//! * **Slab + generation tokens.** Every scheduled event owns a slot in a
//!   slab (`Vec<Slot>` + intrusive free list). An [`EventToken`] is a
//!   `(slot, generation)` pair: resolving a token is one bounds check and one
//!   generation compare, O(1), no hashing. Freed slots bump their generation
//!   so stale tokens (fired or already-cancelled events) are rejected.
//! * **Index-tracked 4-ary heap.** The primary structure is a 4-ary min-heap
//!   of `(time, seq, slot)` entries. Each slot records its current heap
//!   position, so cancellation is a true O(log n) removal (swap with the
//!   last entry, sift) — no tombstones, `len` is exact, and `peek_time` is
//!   `&self`. The 4-ary layout halves the tree depth versus a binary heap
//!   and keeps sift-down comparisons within one cache line.
//! * **Timer-wheel fast path.** Short-horizon events are routed into a
//!   two-level hierarchical timer wheel (64 buckets per level, 2^10 ns and
//!   2^16 ns ticks ≈ 65 µs and 4.2 ms of span). Wheel insert and cancel are
//!   O(1) (bucket push / swap-remove), which makes the per-packet
//!   re-arm pattern of the coalescing strategies constant-time: a timer that
//!   is cancelled before its bucket is reached never touches the heap at
//!   all. Buckets are unordered; when simulated time approaches a bucket it
//!   is *promoted* wholesale into the heap, where exact `(time, seq)` order
//!   is restored — each event is promoted at most once, so the amortised
//!   cost matches a plain heap while cancellation stays O(1).
//!
//! The structures are hybridised by one invariant, re-established after
//! every mutation: **if the wheel holds any event, the heap is non-empty and
//! its root is `(time, seq)`-minimal among all queued events.** Pushes that
//! would precede the heap root go straight to the heap; pops and heap
//! cancellations promote wheel buckets until the invariant holds again.
//! `peek_time`/`pop` therefore read the global minimum directly off the heap
//! root and dispatch order is byte-identical to a single ordered queue.
//!
//! Steady-state operation performs no heap allocation: slots, heap entries
//! and bucket vectors are all recycled.

use crate::time::Time;

/// Handle to a scheduled event, usable to cancel it before it fires.
///
/// Tokens are generation-stamped: a token for an event that has already
/// fired or been cancelled is rejected by [`EventQueue::cancel`], even if
/// its slab slot has been reused by a later event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EventToken {
    slot: u32,
    gen: u32,
}

/// Where a live event currently resides.
#[derive(Debug, Clone, Copy)]
enum Loc {
    /// Slot is on the free list; `next` is the next free slot (NIL-terminated).
    Free { next: u32 },
    /// Event is in the heap at this position.
    Heap { pos: u32 },
    /// Event is in wheel `level`, bucket `bucket`, at `pos` in the bucket.
    Wheel { level: u8, bucket: u8, pos: u32 },
}

const NIL: u32 = u32::MAX;

struct Slot<E> {
    gen: u32,
    loc: Loc,
    time: Time,
    seq: u64,
    event: Option<E>,
}

/// Heap entries carry the ordering key inline so sifts never chase the slab.
#[derive(Debug, Clone, Copy)]
struct HeapEntry {
    time: Time,
    seq: u64,
    slot: u32,
}

impl HeapEntry {
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.time, self.seq)
    }
}

/// Wheel geometry: two levels of 64 buckets. Level 0 ticks are 2^10 ns
/// (~1 µs, spanning ~65 µs); level 1 ticks are 2^16 ns (~65 µs, spanning
/// ~4.2 ms). The NIC coalescing timeout (75 µs default) and the driver
/// retransmit timers land in level 1; NAPI-scale re-polls land in level 0.
/// Anything further out overflows to the heap, which is exact at any range.
const LEVELS: usize = 2;
const LEVEL_BITS: [u32; LEVELS] = [10, 16];
const WHEEL_SLOTS: usize = 64;
const SLOT_MASK: u64 = WHEEL_SLOTS as u64 - 1;

struct Level {
    /// Unordered slot indices per bucket; bucket index = tick & SLOT_MASK.
    buckets: Vec<Vec<u32>>,
    /// Bit b set ⇔ bucket b is non-empty.
    occupied: u64,
    /// First tick this level may still hold; all resident ticks lie in
    /// `[next_tick, next_tick + WHEEL_SLOTS)`.
    next_tick: u64,
}

impl Level {
    fn new() -> Self {
        Level {
            buckets: (0..WHEEL_SLOTS).map(|_| Vec::new()).collect(),
            occupied: 0,
            next_tick: 0,
        }
    }
}

/// A deterministic priority queue of timestamped events.
pub struct EventQueue<E> {
    slots: Vec<Slot<E>>,
    free_head: u32,
    heap: Vec<HeapEntry>,
    levels: [Level; LEVELS],
    next_seq: u64,
    len: usize,
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
            slots: Vec::new(),
            free_head: NIL,
            heap: Vec::new(),
            levels: [Level::new(), Level::new()],
            next_seq: 0,
            len: 0,
        }
    }

    /// Create an empty queue with pre-allocated capacity.
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.slots.reserve(cap);
        q.heap.reserve(cap);
        q
    }

    /// Number of live (non-cancelled) events still queued.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no live events remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedule `event` at absolute time `time`; returns a cancellation token.
    ///
    /// `#[inline]`: push/cancel are the two halves of the coalescing-timer
    /// re-arm pattern and are called from another crate (the engine);
    /// without the hint the call stays an opaque
    /// cross-crate call and the wheel fast path cannot fold into the
    /// caller's loop.
    #[inline]
    pub fn push(&mut self, time: Time, event: E) -> EventToken {
        let seq = self.next_seq;
        self.next_seq += 1;
        let slot = self.alloc_slot(time, seq, event);
        let gen = self.slots[slot as usize].gen;
        self.len += 1;

        // Wheel fast path — only when the heap root stays the global
        // minimum (the new event's seq is the largest, so ties on time keep
        // the root minimal) and the event's tick is within a level's window.
        if self.heap.first().is_some_and(|root| root.time <= time) {
            let t = time.as_nanos();
            for (l, level) in self.levels.iter_mut().enumerate() {
                let tick = t >> LEVEL_BITS[l];
                if tick >= level.next_tick && tick - level.next_tick < WHEEL_SLOTS as u64 {
                    let b = (tick & SLOT_MASK) as usize;
                    let pos = level.buckets[b].len() as u32;
                    level.buckets[b].push(slot);
                    level.occupied |= 1 << b;
                    self.slots[slot as usize].loc = Loc::Wheel {
                        level: l as u8,
                        bucket: b as u8,
                        pos,
                    };
                    return EventToken { slot, gen };
                }
            }
        }
        self.heap_insert(slot);
        EventToken { slot, gen }
    }

    /// Cancel a previously scheduled event.
    ///
    /// Returns `true` if the event was still pending (and is now removed),
    /// `false` if it had already fired or been cancelled. Wheel-resident
    /// events (short-horizon timers) cancel in O(1); heap-resident events
    /// are removed in O(log n) — no tombstones remain either way.
    #[inline]
    pub fn cancel(&mut self, token: EventToken) -> bool {
        let Some(slot) = self.slots.get(token.slot as usize) else {
            return false;
        };
        if slot.gen != token.gen {
            return false;
        }
        match slot.loc {
            Loc::Free { .. } => false,
            Loc::Heap { pos } => {
                self.heap_remove(pos as usize);
                self.free_slot(token.slot);
                self.len -= 1;
                // Removing the root can expose wheel events as the new
                // minimum; restore the hybrid invariant.
                self.restore();
                true
            }
            Loc::Wheel { level, bucket, pos } => {
                self.wheel_remove(level as usize, bucket as usize, pos as usize);
                self.free_slot(token.slot);
                self.len -= 1;
                true
            }
        }
    }

    /// Timestamp of the next live event, if any.
    ///
    /// O(1) and `&self`: the hybrid invariant keeps the global minimum at
    /// the heap root whenever the queue is non-empty.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|e| e.time)
    }

    /// Pop the earliest live event.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.len == 0 {
            return None;
        }
        debug_assert!(!self.heap.is_empty(), "hybrid invariant violated");
        let root = self.heap_remove(0);
        let event = self.slots[root.slot as usize]
            .event
            .take()
            .expect("live heap entry has an event");
        self.free_slot(root.slot);
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
        Some((root.time, event))
    }

    /// Remove all events. Tokens issued before the clear are invalidated.
    pub fn clear(&mut self) {
        for i in 0..self.slots.len() {
            if !matches!(self.slots[i].loc, Loc::Free { .. }) {
                self.slots[i].event = None;
                self.free_slot(i as u32);
            }
        }
        self.heap.clear();
        for level in &mut self.levels {
            for b in &mut level.buckets {
                b.clear();
            }
            level.occupied = 0;
            level.next_tick = 0;
        }
        self.len = 0;
    }

    // -- slab ----------------------------------------------------------------

    fn alloc_slot(&mut self, time: Time, seq: u64, event: E) -> u32 {
        if self.free_head != NIL {
            let idx = self.free_head;
            let slot = &mut self.slots[idx as usize];
            let Loc::Free { next } = slot.loc else {
                unreachable!("free list head is free");
            };
            self.free_head = next;
            slot.time = time;
            slot.seq = seq;
            slot.event = Some(event);
            idx
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(Slot {
                gen: 0,
                loc: Loc::Free { next: NIL },
                time,
                seq,
                event: Some(event),
            });
            idx
        }
    }

    fn free_slot(&mut self, idx: u32) {
        let slot = &mut self.slots[idx as usize];
        debug_assert!(slot.event.is_none() || slot.event.is_some()); // slot valid
        slot.event = None;
        slot.gen = slot.gen.wrapping_add(1);
        slot.loc = Loc::Free {
            next: self.free_head,
        };
        self.free_head = idx;
    }

    // -- wheel ---------------------------------------------------------------

    fn wheel_remove(&mut self, level: usize, bucket: usize, pos: usize) {
        let b = &mut self.levels[level].buckets[bucket];
        b.swap_remove(pos);
        let moved = b.get(pos).copied();
        if b.is_empty() {
            self.levels[level].occupied &= !(1u64 << bucket);
        }
        if let Some(moved) = moved {
            self.slots[moved as usize].loc = Loc::Wheel {
                level: level as u8,
                bucket: bucket as u8,
                pos: pos as u32,
            };
        }
    }

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

    /// Re-establish the hybrid invariant: promote wheel buckets into the
    /// heap until the heap root precedes every wheel-resident event (or the
    /// wheel is empty). Each event is promoted at most once over its
    /// lifetime, so the cost amortises to one heap insert per event.
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
            for slot in bucket.drain(..) {
                self.heap_insert(slot);
            }
            self.levels[l].buckets[b] = bucket; // keep the capacity
            self.levels[l].occupied &= !(1u64 << b);
            self.levels[l].next_tick = tick + 1;
        }
    }

    // -- 4-ary heap ----------------------------------------------------------

    fn heap_insert(&mut self, slot: u32) {
        let s = &self.slots[slot as usize];
        let entry = HeapEntry {
            time: s.time,
            seq: s.seq,
            slot,
        };
        let pos = self.heap.len();
        self.heap.push(entry);
        self.sift_up(pos);
    }

    /// Remove and return the entry at `pos`, restoring the heap property.
    fn heap_remove(&mut self, pos: usize) -> HeapEntry {
        let entry = self.heap[pos];
        let last = self.heap.pop().expect("heap_remove on non-empty heap");
        if pos < self.heap.len() {
            self.heap[pos] = last;
            if pos > 0 && last.key() < self.heap[(pos - 1) / 4].key() {
                self.sift_up(pos);
            } else {
                self.sift_down(pos);
            }
        }
        entry
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
            self.slots[p.slot as usize].loc = Loc::Heap { pos: pos as u32 };
            pos = parent;
        }
        self.heap[pos] = entry;
        self.slots[entry.slot as usize].loc = Loc::Heap { pos: pos as u32 };
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
            let b = self.heap[best];
            self.heap[pos] = b;
            self.slots[b.slot as usize].loc = Loc::Heap { pos: pos as u32 };
            pos = best;
        }
        self.heap[pos] = entry;
        self.slots[entry.slot as usize].loc = Loc::Heap { pos: pos as u32 };
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    impl<E> EventQueue<E> {
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
            if wheel_live > 0 {
                let root = self.heap.first().expect("wheel non-empty needs heap root");
                for level in &self.levels {
                    for bucket in &level.buckets {
                        for &s in bucket {
                            let slot = &self.slots[s as usize];
                            assert!(
                                root.key() <= (slot.time, slot.seq),
                                "wheel event precedes heap root"
                            );
                        }
                    }
                }
            }
            // Heap property + back-pointers.
            for (i, e) in self.heap.iter().enumerate() {
                if i > 0 {
                    let p = self.heap[(i - 1) / 4];
                    assert!(p.key() <= e.key(), "heap property violated at {i}");
                }
                match self.slots[e.slot as usize].loc {
                    Loc::Heap { pos } => assert_eq!(pos as usize, i, "stale heap pos"),
                    other => panic!("heap entry slot has loc {other:?}"),
                }
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        assert_eq!(q.pop(), Some((t(10), "a")));
        assert_eq!(q.pop(), Some((t(20), "b")));
        assert_eq!(q.pop(), Some((t(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn cancel_removes_event() {
        let mut q = EventQueue::new();
        let tok = q.push(t(10), "dead");
        q.push(t(20), "live");
        assert!(q.cancel(tok));
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(20), "live")));
        assert!(q.is_empty());
    }

    #[test]
    fn cancel_twice_is_false() {
        let mut q = EventQueue::new();
        let tok = q.push(t(10), ());
        assert!(q.cancel(tok));
        assert!(!q.cancel(tok));
    }

    #[test]
    fn cancel_after_fire_is_false() {
        let mut q = EventQueue::new();
        let tok = q.push(t(10), ());
        assert!(q.pop().is_some());
        assert!(!q.cancel(tok));
    }

    #[test]
    fn stale_token_rejected_after_slot_reuse() {
        let mut q = EventQueue::new();
        let tok = q.push(t(10), 1);
        assert!(q.pop().is_some());
        // The slot is recycled for a new event; the old token must not
        // cancel it.
        let tok2 = q.push(t(20), 2);
        assert!(!q.cancel(tok));
        assert_eq!(q.len(), 1);
        assert!(q.cancel(tok2));
    }

    #[test]
    fn peek_time_skips_cancelled() {
        let mut q = EventQueue::new();
        let tok = q.push(t(10), "dead");
        q.push(t(25), "live");
        q.cancel(tok);
        assert_eq!(q.peek_time(), Some(t(25)));
    }

    #[test]
    fn len_accounts_for_cancellation() {
        let mut q = EventQueue::new();
        let a = q.push(t(1), 1);
        q.push(t(2), 2);
        assert_eq!(q.len(), 2);
        q.cancel(a);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clear_empties_everything() {
        let mut q = EventQueue::new();
        q.push(t(1), 1);
        let tok = q.push(t(2), 2);
        q.cancel(tok);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn tokens_from_before_clear_are_invalid() {
        let mut q = EventQueue::new();
        let tok = q.push(t(1), 1);
        q.clear();
        let tok2 = q.push(t(2), 2);
        assert!(!q.cancel(tok));
        assert!(q.cancel(tok2));
    }

    #[test]
    fn interleaved_push_pop_cancel_is_consistent() {
        let mut q = EventQueue::new();
        let mut toks = Vec::new();
        for i in 0..50u64 {
            toks.push(q.push(t(i * 10), i));
        }
        // Cancel every third event.
        for (i, tok) in toks.iter().enumerate() {
            if i % 3 == 0 {
                assert!(q.cancel(*tok));
            }
        }
        q.check_invariants();
        let mut seen = Vec::new();
        while let Some((_, v)) = q.pop() {
            seen.push(v);
        }
        let expect: Vec<u64> = (0..50).filter(|i| i % 3 != 0).collect();
        assert_eq!(seen, expect);
    }

    #[test]
    fn short_horizon_timers_use_the_wheel() {
        let mut q = EventQueue::new();
        // An imminent event pins the heap root …
        q.push(t(100), 0u64);
        // … so a coalescing-style timer 75 µs out lands in the wheel.
        let tok = q.push(t(75_000), 1u64);
        assert_eq!(q.wheel_len(), 1, "75us timer should be wheel-resident");
        // O(1) cancel straight out of the bucket.
        assert!(q.cancel(tok));
        assert_eq!(q.wheel_len(), 0);
        assert_eq!(q.pop(), Some((t(100), 0)));
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
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|(_, v)| v)).collect();
        assert_eq!(order, vec![0, 1, 2, 4, 3]);
    }

    #[test]
    fn cancelling_heap_root_promotes_wheel() {
        let mut q = EventQueue::new();
        let root = q.push(t(10), 0u64);
        q.push(t(5_000), 1u64);
        q.push(t(70_000), 2u64);
        assert_eq!(q.wheel_len(), 2);
        // Cancelling the only heap entry must surface the wheel events.
        assert!(q.cancel(root));
        q.check_invariants();
        assert_eq!(q.peek_time(), Some(t(5_000)));
        assert_eq!(q.pop(), Some((t(5_000), 1)));
        assert_eq!(q.pop(), Some((t(70_000), 2)));
    }

    #[test]
    fn repeated_rearm_pattern_is_exact() {
        // The coalescer pattern: cancel + re-push a 75 µs timer on every
        // packet; only the final arming may fire.
        let mut q = EventQueue::new();
        let mut timer = None;
        let mut now = 0u64;
        for i in 0..1_000u64 {
            now = i * 1_200; // one packet every 1.2 µs
            q.push(t(now), ("pkt", i));
            if let Some(tok) = timer.take() {
                assert!(q.cancel(tok), "re-arm must find the previous timer");
            }
            timer = Some(q.push(t(now + 75_000), ("timer", i)));
            // Drain packets up to now (the engine keeps popping).
            while q.peek_time().is_some_and(|pt| pt.as_nanos() <= now) {
                q.pop();
            }
        }
        q.check_invariants();
        // Exactly the last timer remains.
        assert_eq!(q.len(), 1);
        assert_eq!(q.pop(), Some((t(now + 75_000), ("timer", 999))));
    }

    #[test]
    fn far_future_events_overflow_to_heap() {
        let mut q = EventQueue::new();
        q.push(t(0), 0u64);
        q.push(Time::from_secs(10), 1u64); // far beyond the wheel span
        q.push(Time::MAX, 2u64);
        assert_eq!(q.wheel_len(), 0);
        assert_eq!(q.pop(), Some((t(0), 0)));
        assert_eq!(q.pop(), Some((Time::from_secs(10), 1)));
        assert_eq!(q.pop(), Some((Time::MAX, 2)));
    }
}
