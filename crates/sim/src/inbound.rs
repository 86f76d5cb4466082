//! Per-node inbound queues: wire frames in flight wait here, not in the
//! [`EventQueue`](crate::EventQueue).
//!
//! A node receives its frames through one switch egress port, in FIFO
//! order, so the frames bound for one node arrive almost always in the
//! order they were sent. Filing each as an event of its own would file a
//! burst of them in the event queue's buckets; here each node keeps its
//! frames in a `VecDeque` in key order, and a small 4-ary min-heap holds
//! the key of every non-empty queue's head. Intra-node shared-memory
//! deliveries do not keep send order, so they are events, not frames here.
//!
//! A frame is keyed exactly as an event pushed when it was sent: the
//! sender reserves its sequence number with
//! [`EventQueue::reserve_seq`](crate::EventQueue::reserve_seq) and queues
//! the frame at `(time, seq)`. The event loop dispatches whichever comes
//! first, the event queue's root or the earliest head
//! ([`InboundQueues::earliest`]), so dispatch order is the one a single
//! queue of events would give.
//!
//! A frame usually joins the back of its node's queue. When a disturbance
//! delay lets a later-sent frame overtake an earlier one, it is inserted
//! from the back at its key's place, and if it becomes the head the heap
//! entry of its node is lowered. [`InboundStats`] counts both kinds of
//! push, so a traffic class that overtakes often shows as a golden diff.
//!
//! Keys are packed into one `u128`: the time in the high 64 bits, then
//! 48 bits of sequence number and 16 bits of node, so a single integer
//! comparison orders them by `(time, seq)` (sequence numbers are unique).
//! Queueing a frame panics, in release builds too, on an arrival in the
//! past and on a key that does not fit its packing.
//!
//! Building the queues allocates nothing; a node's queue is created on its
//! first frame and keeps its capacity, so steady-state queueing and
//! dispatch allocate nothing.

use crate::time::Time;
use std::collections::VecDeque;

/// Bits of a packed key that hold the node.
const NODE_BITS: u32 = 16;
/// Bits of a packed key that hold the sequence number.
const SEQ_BITS: u32 = 64 - NODE_BITS;
const NODE_MASK: u64 = (1 << NODE_BITS) - 1;

/// Pack `(time, seq, node)` into one key that orders by `(time, seq)`.
///
/// # Panics
/// Panics if `seq` needs more than 48 bits or `node` more than 16.
#[inline]
fn pack(time: Time, seq: u64, node: usize) -> u128 {
    assert!(
        seq >> SEQ_BITS == 0,
        "inbound key: sequence number {seq} exceeds the {SEQ_BITS}-bit packing"
    );
    assert!(
        node >> NODE_BITS == 0,
        "inbound key: node {node} exceeds the {NODE_BITS}-bit packing"
    );
    (u128::from(time.as_nanos()) << 64) | u128::from(seq << NODE_BITS | node as u64)
}

/// The `(time, seq)` of a packed key.
#[inline]
fn key_of(packed: u128) -> (Time, u64) {
    (
        Time::from_nanos((packed >> 64) as u64),
        (packed as u64) >> NODE_BITS,
    )
}

/// The node of a packed key.
#[inline]
fn node_of(packed: u128) -> usize {
    (packed as u64 & NODE_MASK) as usize
}

/// Which queue holds the next key to dispatch (see
/// [`InboundQueues::earliest`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// The event queue's root.
    Events,
    /// The head of an inbound queue.
    Inbound,
}

/// Exact counts of the inbound queues' pushes: a deterministic function of
/// the push and pop sequence, reported beside
/// [`QueueStats`](crate::QueueStats).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct InboundStats {
    /// Frames queued.
    pub pushes: u64,
    /// Frames that overtook a frame already queued for their node, and so
    /// were inserted before the back.
    pub overtakes: u64,
    /// Queued frames an overtaking insert moved back one place, summed.
    pub shifted: u64,
}

/// Frames in flight, one key-ordered queue per destination node.
#[derive(Debug)]
pub struct InboundQueues<T> {
    /// Per node, its frames in key order with their packed keys.
    queues: Vec<VecDeque<(u128, T)>>,
    /// 4-ary min-heap of the head key of every non-empty queue: each node
    /// appears at most once.
    heads: Vec<u128>,
    /// Frames queued across all nodes.
    len: usize,
    stats: InboundStats,
}

impl<T> Default for InboundQueues<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> InboundQueues<T> {
    /// No frames; allocates nothing.
    pub fn new() -> Self {
        InboundQueues {
            queues: Vec::new(),
            heads: Vec::new(),
            len: 0,
            stats: InboundStats::default(),
        }
    }

    /// How many frames were queued, and how many overtook.
    pub fn stats(&self) -> InboundStats {
        self.stats
    }

    /// Frames queued across all nodes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no frame is queued.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Key of the earliest queued frame.
    #[inline]
    pub fn peek_key(&self) -> Option<(Time, u64)> {
        self.heads.first().map(|&k| key_of(k))
    }

    /// The earlier of the event queue's next key `queued` and the earliest
    /// queued frame, with where it is. `None` when both are empty.
    #[inline]
    pub fn earliest(&self, queued: Option<(Time, u64)>) -> Option<(Time, Source)> {
        match (self.peek_key(), queued) {
            (Some(head), Some(root)) if root < head => Some((root.0, Source::Events)),
            (Some(head), _) => Some((head.0, Source::Inbound)),
            (None, root) => root.map(|(t, _)| (t, Source::Events)),
        }
    }

    /// Queue `item` for `node` at the key `(at, seq)`; `seq` is a sequence
    /// number reserved from the event queue now, at `now`.
    ///
    /// # Panics
    /// Panics if `at` is before `now`, or if the key does not fit its
    /// packing (a sequence number of 2^48 or more, a node of 2^16 or more).
    #[inline]
    pub fn push(&mut self, now: Time, at: Time, seq: u64, node: usize, item: T) {
        assert!(
            at >= now,
            "frame queued inbound in the past: now={now}, at={at}"
        );
        let key = pack(at, seq, node);
        if node >= self.queues.len() {
            self.queues.resize_with(node + 1, VecDeque::new);
        }
        let queue = &mut self.queues[node];
        match queue.back() {
            None => {
                queue.push_back((key, item));
                let pos = self.heads.len();
                self.heads.push(key);
                self.sift_up(pos);
            }
            Some(&(back, _)) if back < key => queue.push_back((key, item)),
            Some(_) => {
                // Overtaking: insert from the back at the key's place.
                let pos = queue
                    .iter()
                    .rposition(|&(k, _)| k < key)
                    .map_or(0, |p| p + 1);
                self.stats.overtakes += 1;
                self.stats.shifted += (queue.len() - pos) as u64;
                queue.insert(pos, (key, item));
                if pos == 0 {
                    // The new head: lower the heap entry of the old one.
                    let old = queue[1].0;
                    let at = self
                        .heads
                        .iter()
                        .position(|&k| k == old)
                        .expect("a non-empty queue has its head in the heap");
                    self.heads[at] = key;
                    self.sift_up(at);
                }
            }
        }
        self.len += 1;
        self.stats.pushes += 1;
    }

    /// Remove the earliest queued frame: its key, node and item.
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, u64, usize, T)> {
        let &root = self.heads.first()?;
        let node = node_of(root);
        let queue = &mut self.queues[node];
        let (key, item) = queue.pop_front().expect("a head key names a frame");
        debug_assert_eq!(key, root, "the heap holds the queue's head");
        match queue.front() {
            Some(&(next, _)) => {
                self.heads[0] = next;
                self.sift_down(0);
            }
            None => {
                let last = self.heads.pop().expect("non-empty");
                if !self.heads.is_empty() {
                    self.heads[0] = last;
                    self.sift_down(0);
                }
            }
        }
        self.len -= 1;
        let (time, seq) = key_of(key);
        Some((time, seq, node, item))
    }

    /// Panic, naming the node, if any queue still holds a frame: at
    /// quiescence every frame sent must have been dispatched.
    pub fn assert_drained(&self) {
        for (node, queue) in self.queues.iter().enumerate() {
            assert!(
                queue.is_empty(),
                "node {node}: {} frame(s) still queued inbound at quiescence",
                queue.len()
            );
        }
    }

    // -- 4-ary heap of head keys ---------------------------------------------

    fn sift_up(&mut self, mut pos: usize) {
        let key = self.heads[pos];
        while pos > 0 {
            let parent = (pos - 1) / 4;
            if self.heads[parent] <= key {
                break;
            }
            self.heads[pos] = self.heads[parent];
            pos = parent;
        }
        self.heads[pos] = key;
    }

    fn sift_down(&mut self, mut pos: usize) {
        let key = self.heads[pos];
        let len = self.heads.len();
        loop {
            let first = pos * 4 + 1;
            if first >= len {
                break;
            }
            let last = (first + 4).min(len);
            let mut best = first;
            for c in first + 1..last {
                if self.heads[c] < self.heads[best] {
                    best = c;
                }
            }
            if key <= self.heads[best] {
                break;
            }
            self.heads[pos] = self.heads[best];
            pos = best;
        }
        self.heads[pos] = key;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    #[test]
    fn packing_orders_by_time_then_seq() {
        let max_seq = (1 << SEQ_BITS) - 1;
        let max_node = NODE_MASK as usize;
        assert!(pack(t(1), 0, max_node) > pack(t(0), max_seq, 0));
        assert!(pack(t(5), 2, 0) > pack(t(5), 1, max_node));
        assert_eq!(key_of(pack(Time::MAX, max_seq, 7)), (Time::MAX, max_seq));
        assert_eq!(node_of(pack(t(3), 9, max_node)), max_node);
    }

    #[test]
    fn overtaking_frames_pop_in_key_order() {
        let mut q = InboundQueues::new();
        q.push(t(0), t(500), 0, 1, "a");
        q.push(t(0), t(300), 1, 1, "overtakes a");
        q.push(t(0), t(400), 2, 1, "between");
        q.push(t(0), t(400), 3, 0, "tie on node 0");
        q.push(t(0), t(600), 4, 1, "last");
        assert_eq!(q.len(), 5);
        let stats = InboundStats {
            pushes: 5,
            overtakes: 2,
            shifted: 2,
        };
        assert_eq!(q.stats(), stats);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(
            order,
            [
                (t(300), 1, 1, "overtakes a"),
                (t(400), 2, 1, "between"),
                (t(400), 3, 0, "tie on node 0"),
                (t(500), 0, 1, "a"),
                (t(600), 4, 1, "last"),
            ]
        );
        assert!(q.is_empty());
        q.assert_drained();
    }

    #[test]
    fn earliest_compares_whole_keys() {
        let mut q = InboundQueues::new();
        assert_eq!(q.earliest(None), None);
        assert_eq!(q.earliest(Some((t(9), 4))), Some((t(9), Source::Events)));
        q.push(t(0), t(9), 5, 0, ());
        assert_eq!(q.earliest(None), Some((t(9), Source::Inbound)));
        assert_eq!(q.earliest(Some((t(9), 4))), Some((t(9), Source::Events)));
        assert_eq!(q.earliest(Some((t(9), 6))), Some((t(9), Source::Inbound)));
        assert_eq!(q.earliest(Some((t(8), 6))), Some((t(8), Source::Events)));
    }

    #[test]
    #[should_panic(expected = "frame queued inbound in the past: now=")]
    fn an_arrival_in_the_past_panics() {
        let mut q = InboundQueues::new();
        q.push(t(1_000), t(999), 0, 0, ());
    }

    #[test]
    #[should_panic(expected = "exceeds the 48-bit packing")]
    fn a_sequence_number_beyond_48_bits_panics() {
        let mut q = InboundQueues::new();
        q.push(t(0), t(0), 1 << 48, 0, ());
    }

    #[test]
    #[should_panic(expected = "node 65536 exceeds the 16-bit packing")]
    fn a_node_beyond_16_bits_panics() {
        let mut q = InboundQueues::new();
        q.push(t(0), t(0), 0, 1 << 16, ());
    }

    #[test]
    #[should_panic(expected = "node 2: 1 frame(s) still queued inbound at quiescence")]
    fn a_frame_left_queued_fails_the_drain_check() {
        let mut q = InboundQueues::new();
        q.push(t(0), t(10), 0, 2, ());
        // A head lost from the heap would leave its frame stranded.
        q.heads.clear();
        assert_eq!(q.pop(), None);
        q.assert_drained();
    }
}
