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
//! §5). Wire frames in flight never enter the queue: each takes a reserved
//! number and waits in its node's [`InboundQueues`](crate::InboundQueues),
//! and the event loop dispatches whichever key is smaller, this queue's
//! ([`EventQueue::peek_key`]) or the earliest frame's. So [`QueueStats`]
//! counts no wire frame. [`EventQueue::pop`] returns each event's sequence
//! number, so a handler knows which reserved keys precede it.
//!
//! # Design
//!
//! A simulation only schedules forward: every key pushed follows the key
//! last popped. That makes the queue *monotone*, and a monotone queue can be
//! a radix heap (Ahuja, Mehlhorn, Orlin and Tarjan, 1990) instead of a
//! comparison heap. An event leaves the queue only by being popped: a
//! superseded timer stays queued and fires as a no-op (see the node-timer
//! rule in DESIGN §5), so the queue needs no handles into its own layout.
//!
//! * **Keys.** `(time, seq)` is packed into one `u128`, time in the high
//!   half, so one integer comparison orders two keys.
//! * **Register.** A push that makes its event the queue minimum keeps the
//!   event inline in a one-entry register; the minimum it displaces, if
//!   any, is filed. A chain of events that each schedule the next, the
//!   ping-pong's critical path, goes through the register alone.
//! * **Buckets.** Every other event is *filed*: its payload goes to a slot
//!   of the event store (a `Vec<Option<E>>` with a free list) and its key
//!   and slot to bucket `b`, where `b` is the highest bit in which the key
//!   differs from the last popped key. Every key in a lower bucket is
//!   smaller than every key in a higher one, so the filed minimum is in the
//!   lowest non-empty bucket, found from an occupancy bitmap. (A key equal
//!   to the last popped one is always the minimum and never filed, so the
//!   128 differing bits need no 129th bucket.) Buckets are unordered.
//! * **Redistribution.** When a pop moves the last key forward, the entries
//!   of the bucket the new key fell in are re-filed against it, each into a
//!   strictly lower bucket; no other bucket's index changes. So an entry
//!   moves at most 128 times however long it waits, and a far timer waits
//!   in a high bucket, moving down only as the last key nears it.
//! * **Filed minimum.** The queue keeps the smallest filed key. A filing
//!   lowers it in O(1); a pop from the buckets finds the next one among the
//!   entries it redistributes, or, if the popped entry was alone in its
//!   bucket, by scanning the lowest bucket. [`EventQueue::peek_key`] reads
//!   it, or the register, in O(1), and a push compares against it to decide
//!   whether it takes the register.
//!
//! A key before the last popped one would break the bucket order, so
//! pushing one panics, in release builds too. [`QueueStats`] counts where
//! entries went. Steady-state operation performs no heap allocation: event
//! slots and bucket vectors are recycled, and a new queue owns no
//! allocation at all.

use crate::time::Time;

/// Pack `(time, seq)` into one key that orders by time, then sequence.
#[inline]
fn pack(time: Time, seq: u64) -> u128 {
    (u128::from(time.as_nanos()) << 64) | u128::from(seq)
}

/// The `(time, seq)` of a packed key.
#[inline]
fn unpack(key: u128) -> (Time, u64) {
    (Time::from_nanos((key >> 64) as u64), key as u64)
}

/// Number of buckets: one per bit in which a filed key can differ from the
/// last popped key.
const BUCKETS: usize = 128;

/// A filed event's packed key and the slot of its payload.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: u128,
    slot: u32,
}

/// Exact counts of how the queue handled its entries: a deterministic
/// function of the push and pop sequence, so they serve as a golden of the
/// queue's work (`BENCH_sim.json`). Every pop is a register pop or takes
/// the filed minimum.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueStats {
    /// Entries filed into a bucket: pushes that did not become the queue
    /// minimum, and minima displaced from the register by a smaller push.
    pub filed: u64,
    /// Pops served by the register, without touching a bucket.
    pub register_pops: u64,
    /// Filed entries moved to a lower bucket as the last popped key
    /// advanced.
    pub redistributed: u64,
    /// Events popped.
    pub pops: u64,
}

/// A deterministic priority queue of timestamped events.
pub struct EventQueue<E> {
    /// The queue minimum with its packed key, when a push made it the
    /// minimum; every filed key is larger.
    register: Option<(u128, E)>,
    /// Payloads of filed events, indexed by [`Entry::slot`].
    events: Vec<Option<E>>,
    /// Slots of `events` not holding a filed event.
    free: Vec<u32>,
    /// Bucket `b` holds the filed entries whose key differs from `last`
    /// first in bit `b`. Allocated at the first filing: building a queue
    /// allocates nothing.
    buckets: Vec<Vec<Entry>>,
    /// Bit `b` set ⇔ bucket `b` is non-empty.
    occupied: u128,
    /// The smallest filed key; meaningful while `occupied != 0`.
    filed_min: u128,
    /// Key of the last popped event: no queued or pushed key precedes it.
    last: u128,
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
            register: None,
            events: Vec::new(),
            free: Vec::new(),
            buckets: Vec::new(),
            occupied: 0,
            filed_min: 0,
            last: 0,
            next_seq: 0,
            len: 0,
            stats: QueueStats::default(),
        }
    }

    /// How the queue has handled its entries so far.
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
    /// opaque cross-crate call and the register fast path cannot fold into
    /// the caller's loop.
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
    /// [`Self::reserve_seq`]. Each reserved number is pushed at most once.
    ///
    /// # Panics
    /// Panics if the key precedes the last popped event's.
    #[inline]
    pub fn push_at(&mut self, time: Time, seq: u64, event: E) {
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        let key = pack(time, seq);
        assert!(
            key >= self.last,
            "event key {:?} precedes the last popped key {:?}",
            (time, seq),
            unpack(self.last)
        );
        self.len += 1;
        match &mut self.register {
            Some((min, held)) if key < *min => {
                let displaced = std::mem::replace(held, event);
                let displaced_key = std::mem::replace(min, key);
                self.file(displaced_key, displaced);
            }
            Some(_) => self.file(key, event),
            None if self.occupied == 0 || key < self.filed_min => {
                self.register = Some((key, event));
            }
            None => self.file(key, event),
        }
    }

    /// Key `(time, seq)` of the next event, if any. O(1) and `&self`.
    #[inline]
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        match &self.register {
            Some((key, _)) => Some(unpack(*key)),
            None if self.occupied != 0 => Some(unpack(self.filed_min)),
            None => None,
        }
    }

    /// Pop the earliest event, with its sequence number.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u64, E)> {
        let (key, event) = match self.register.take() {
            Some((key, event)) => {
                self.stats.register_pops += 1;
                if self.occupied != 0 && key != self.last {
                    // The register's key is below every filed key, so it
                    // differs from `last` first in no higher bit than the
                    // lowest bucket's keys do; if in the same bit, that
                    // bucket's index moves with `last`.
                    let lowest = self.occupied.trailing_zeros();
                    let bit = bucket_of(key, self.last);
                    debug_assert!(bit <= lowest, "the register precedes the buckets");
                    if bit == lowest {
                        self.last = key;
                        self.redistribute(lowest as usize);
                    }
                }
                (key, event)
            }
            None if self.occupied != 0 => self.pop_filed(),
            None => return None,
        };
        self.last = key;
        self.len -= 1;
        self.stats.pops += 1;
        let (time, seq) = unpack(key);
        Some((time, seq, event))
    }

    /// File `event` at `key` in its bucket, relative to `last`.
    fn file(&mut self, key: u128, event: E) {
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
        if self.buckets.is_empty() {
            self.buckets = (0..BUCKETS).map(|_| Vec::new()).collect();
        }
        if self.occupied == 0 || key < self.filed_min {
            self.filed_min = key;
        }
        self.stats.filed += 1;
        let b = bucket_of(key, self.last);
        self.buckets[b as usize].push(Entry { key, slot });
        self.occupied |= 1 << b;
    }

    /// Re-file bucket `b`'s entries against the current `last`, which is
    /// the key of one of them or below them all: each other entry lands in
    /// a lower bucket. Returns the slot of the entry at `last`, if any, and
    /// the smallest key re-filed (`u128::MAX` if none).
    fn redistribute(&mut self, b: usize) -> (Option<u32>, u128) {
        self.occupied &= !(1 << b);
        let (lower, rest) = self.buckets.split_at_mut(b);
        let (mut at_last, mut min, mut moved) = (None, u128::MAX, 0);
        let last = self.last;
        for entry in rest[0].drain(..) {
            let key = entry.key;
            if key == last {
                at_last = Some(entry.slot);
            } else {
                moved += 1;
                min = min.min(key);
                let to = bucket_of(key, last);
                lower[to as usize].push(entry);
                self.occupied |= 1 << to;
            }
        }
        self.stats.redistributed += moved;
        (at_last, min)
    }

    /// Remove the filed minimum, with its payload; the register is empty.
    /// `last` moves to it, and the rest of its bucket is redistributed:
    /// they are below every other bucket, so the smallest of them is the
    /// next filed minimum.
    fn pop_filed(&mut self) -> (u128, E) {
        let key = self.filed_min;
        self.last = key;
        let (slot, min) = self.redistribute(self.occupied.trailing_zeros() as usize);
        let slot = slot.expect("the filed minimum is in the lowest bucket");
        let event = self.events[slot as usize]
            .take()
            .expect("a filed entry has an event");
        self.free.push(slot);
        if min != u128::MAX {
            self.filed_min = min;
        } else if self.occupied != 0 {
            let lowest = self.occupied.trailing_zeros() as usize;
            self.filed_min = self.buckets[lowest]
                .iter()
                .map(|e| e.key)
                .min()
                .expect("an occupied bucket has an entry");
        }
        (key, event)
    }
}

/// The bucket of `key`, filed relative to the last popped key `last`: the
/// highest bit in which they differ. `key` must be larger than `last`.
#[inline]
fn bucket_of(key: u128, last: u128) -> u32 {
    debug_assert!(key > last, "a filed key follows the last popped key");
    127 - (key ^ last).leading_zeros()
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

        /// Events currently filed in the buckets (tests only).
        fn filed_len(&self) -> usize {
            self.buckets.iter().map(Vec::len).sum()
        }

        /// The register's key, if it holds an event (tests only).
        fn register_key(&self) -> Option<(Time, u64)> {
            self.register.as_ref().map(|(k, _)| unpack(*k))
        }

        /// Walk every internal structure and check consistency (tests only).
        fn check_invariants(&self) {
            let filed = self.filed_len();
            assert_eq!(
                self.len,
                filed + usize::from(self.register.is_some()),
                "len mismatch"
            );
            assert_eq!(
                filed + self.free.len(),
                self.events.len(),
                "every slot is filed or free"
            );
            let mut min = None::<u128>;
            for (b, bucket) in self.buckets.iter().enumerate() {
                assert_eq!(
                    self.occupied >> b & 1 == 1,
                    !bucket.is_empty(),
                    "occupancy bit {b}"
                );
                for e in bucket {
                    let key = e.key;
                    assert_eq!(
                        bucket_of(key, self.last) as usize,
                        b,
                        "entry in wrong bucket"
                    );
                    assert!(self.events[e.slot as usize].is_some(), "entry has no event");
                    min = Some(min.map_or(key, |m| m.min(key)));
                }
            }
            if let Some(min) = min {
                assert_eq!(self.filed_min, min, "filed minimum is stale");
            }
            if let (Some((reg, _)), Some(min)) = (&self.register, min) {
                assert!(*reg < min, "the register is not the minimum");
            }
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), "c");
        q.push(t(10), "a");
        q.push(t(20), "b");
        q.check_invariants();
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
            q.check_invariants();
        }
    }

    #[test]
    fn reserved_key_pops_in_its_original_place() {
        // A number reserved between two pushes at the same instant, pushed
        // after a later pop, pops between them: the key, not the push
        // order, decides.
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
    fn short_horizon_timers_are_filed() {
        let mut q = EventQueue::new();
        // An imminent event holds the register …
        q.push(t(100), 0u64);
        // … so a coalescing-style timer 75 µs out is filed.
        q.push(t(75_000), 1u64);
        assert_eq!(q.filed_len(), 1, "75us timer should be filed");
        q.check_invariants();
        assert_eq!(q.pop_event(), Some((t(100), 0)));
        assert_eq!(q.pop_event(), Some((t(75_000), 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn filed_events_pop_in_exact_order() {
        let mut q = EventQueue::new();
        q.push(t(0), 0u64);
        // A mix of same-time events pushed out of time order.
        q.push(t(2_000), 3u64);
        q.push(t(1_500), 2u64);
        q.push(t(1_500), 4u64); // same time as previous, later seq
        q.push(t(900), 1u64);
        assert!(q.filed_len() > 0, "events after the minimum are filed");
        q.check_invariants();
        let order: Vec<u64> = std::iter::from_fn(|| {
            let popped = q.pop_event().map(|(_, v)| v);
            q.check_invariants();
            popped
        })
        .collect();
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
            while q.peek_key().is_some_and(|(pt, _)| pt.as_nanos() <= now) {
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
    fn a_push_below_the_register_files_the_old_minimum() {
        let mut q = EventQueue::new();
        q.push(t(500), "old minimum");
        assert_eq!(q.register_key(), Some((t(500), 0)));
        q.push(t(100), "new minimum");
        assert_eq!(q.register_key(), Some((t(100), 1)));
        assert_eq!(q.filed_len(), 1, "the old minimum is filed");
        assert_eq!(q.stats().filed, 1);
        q.check_invariants();
        assert_eq!(q.peek_key(), Some((t(100), 1)));
        assert_eq!(q.pop_event(), Some((t(100), "new minimum")));
        assert_eq!(q.peek_key(), Some((t(500), 0)));
        assert_eq!(q.pop_event(), Some((t(500), "old minimum")));
        assert_eq!(
            q.stats(),
            QueueStats {
                filed: 1,
                register_pops: 1,
                redistributed: 0,
                pops: 2,
            }
        );
    }

    #[test]
    fn a_reserved_key_at_the_current_instant_lands_before_the_register() {
        // The DMA-completion pattern: a number reserved when a frame
        // arrived, pushed at the current instant once an event with a
        // later number holds the register. The reserved key is the new
        // minimum, so it takes the register.
        let mut q = EventQueue::new();
        q.push(t(0), "start");
        let reserved = q.reserve_seq();
        assert_eq!(q.pop_event(), Some((t(0), "start")));
        q.push(t(1_000), "held");
        q.push_at(t(1_000), reserved, "reserved");
        assert_eq!(q.register_key(), Some((t(1_000), reserved)));
        q.check_invariants();
        assert_eq!(q.pop(), Some((t(1_000), reserved, "reserved")));
        assert_eq!(q.pop_event(), Some((t(1_000), "held")));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "precedes the last popped key")]
    fn a_key_before_the_last_pop_panics() {
        // An `assert!`, so release builds panic too.
        let mut q = EventQueue::new();
        let early = q.reserve_seq();
        q.push(t(1_000), ());
        assert_eq!(q.pop_event(), Some((t(1_000), ())));
        q.push_at(t(999), early, ());
    }

    #[test]
    fn retransmit_arms_wait_in_high_buckets() {
        // The driver-timer pattern: a 20 ms retransmit arm every 100 µs,
        // each superseded arm left queued, under a packet every 1.2 µs
        // that schedules the next. The packets go through the register;
        // the arms are filed and move down only as time reaches them. Pop
        // order is exactly `(time, seq)`.
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
        let (mut next_arm, mut arms) = (0, 0);
        let mut popped = Vec::new();
        while let Some((at, (seq, packet))) = q.pop_event() {
            let now = at.as_nanos();
            popped.push((now, seq));
            // Packets run for 60 ms; the arms then drain on their own.
            if packet && now + PKT_NS < 60_000_000 {
                if now >= next_arm {
                    push(&mut q, now + RTO_NS, false);
                    next_arm += ARM_EVERY_NS;
                    arms += 1;
                }
                push(&mut q, now + PKT_NS, true);
            }
        }
        let stats = q.stats();
        let packets = pushed.len() as u64 - arms;
        assert_eq!(stats.pops, pushed.len() as u64);
        assert!(
            stats.register_pops * 10 > packets * 9,
            "most packets go through the register: {stats:?}"
        );
        assert!(stats.filed >= arms, "the arms are filed: {stats:?}");
        assert!(stats.redistributed > 0, "the arms move down: {stats:?}");
        assert!(
            stats.redistributed <= 128 * stats.filed,
            "an entry moves at most once per bucket: {stats:?}"
        );
        pushed.sort_unstable();
        assert_eq!(popped, pushed, "pop order is (time, seq)");
    }

    #[test]
    fn recycled_slots_hold_their_new_event() {
        let mut q = EventQueue::new();
        q.push(t(10), 1);
        q.push(t(20), 2); // filed
        q.push(t(30), 3); // filed
        assert_eq!(q.pop_event(), Some((t(10), 1)));
        assert_eq!(q.pop_event(), Some((t(20), 2)));
        // The popped event's slot carries the next filed push.
        q.push(t(25), 4); // the minimum: the register
        q.push(t(40), 5); // filed into the freed slot
        assert_eq!(q.events.len(), 2, "the freed slot is reused");
        q.check_invariants();
        assert_eq!(q.pop_event(), Some((t(25), 4)));
        assert_eq!(q.pop_event(), Some((t(30), 3)));
        assert_eq!(q.pop_event(), Some((t(40), 5)));
        assert!(q.is_empty());
    }

    #[test]
    fn len_counts_the_register_and_filed_events() {
        let mut q = EventQueue::new();
        q.push(t(100), 0u64); // register
        q.push(t(5_000), 1u64); // filed
        q.push(Time::from_secs(1), 2u64); // filed
        assert_eq!((q.register_key(), q.filed_len()), (Some((t(100), 0)), 2));
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop_event(), Some((t(100), 0)));
        assert_eq!(q.len(), 2);
        q.check_invariants();
    }

    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(t(0), 0u64);
        q.push(Time::MAX, 1u64);
        q.push(Time::from_secs(10), 2u64);
        q.check_invariants();
        assert_eq!(q.pop_event(), Some((t(0), 0)));
        assert_eq!(q.pop_event(), Some((Time::from_secs(10), 2)));
        q.check_invariants();
        assert_eq!(q.pop_event(), Some((Time::MAX, 1)));
        assert!(q.is_empty());
    }

    #[test]
    fn a_new_queue_allocates_nothing() {
        let q = EventQueue::<u64>::new();
        assert_eq!(
            (q.events.capacity(), q.free.capacity(), q.buckets.capacity()),
            (0, 0, 0)
        );
    }
}
