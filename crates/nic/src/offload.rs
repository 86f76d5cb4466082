//! NIC-resident collectives: barrier, broadcast and small-message
//! allreduce executed in (simulated) NIC firmware.
//!
//! The source paper's core tension — host interrupt load vs. MPI latency —
//! presumes collectives are *host-driven*: every hop of a software
//! dissemination barrier lands a frame in the RX ring, DMAs it, and raises
//! (or coalesces) an interrupt so the host can forward the next hop. Yu et
//! al. ("NIC-based barrier over Quadrics/Myrinet", PAPERS.md) showed the
//! tension dissolves when the *NIC* walks the collective schedule itself:
//! forwarding and combining decisions happen in firmware, intermediate hops
//! never cross the PCI bus, and the host hears exactly **one completion
//! interrupt per operation per rank** — independent of the ⌈log₂ P⌉ hop
//! count.
//!
//! [`OffloadEngine`] is that firmware, one instance per simulated NIC. The
//! host posts an [`OffloadCollDesc`] (a command-queue write plus doorbell);
//! from then on the engine exchanges [`CollFrame`]s peer-to-peer with other
//! NICs, holding all schedule state — current round, outstanding receive
//! obligations, un-acked transmissions, early-arrival buffers — in NIC
//! memory. Offloaded frames bypass the RX ring, the DMA engine and the
//! coalescer entirely; the completion interrupt is modeled as a separate
//! MSI-X vector that is **not** subject to the coalescing strategy.
//!
//! # Schedules
//!
//! * **Barrier** — dissemination: in round *r*, rank *i*'s NIC sends a
//!   zero-payload token to rank *(i + 2^r) mod P* and waits for the token
//!   from *(i − 2^r) mod P*; ⌈log₂ P⌉ rounds complete the barrier for any
//!   world size (non-powers-of-two included).
//! * **Broadcast** — binomial tree rooted at the caller-specified root
//!   (ranks are rotated so the root is virtual rank 0): each NIC receives
//!   the payload once from its tree parent and forwards it to its children
//!   without host involvement.
//! * **Allreduce** — binomial reduce toward rank 0 with in-NIC combining
//!   (each contribution arriving from a tree child is folded into the
//!   slot's accumulator — counted in [`OffloadCounters::combines`]),
//!   followed by a binomial broadcast of the result back down the same
//!   tree.
//!
//! # Ordering contract
//!
//! Sequence numbers provide exactly-once identity: every rank's slot
//! assigns `seq` 0, 1, 2, … to the offloaded collectives it posts, and —
//! as in real NIC-collective hardware — all ranks must post the *same*
//! sequence of offloaded collectives, so `seq` k on one rank matches
//! `seq` k everywhere. Frames for a future `seq` (a peer running ahead)
//! are buffered in NIC memory; frames for a completed `seq` are
//! re-acknowledged and dropped as duplicates.
//!
//! # Reliability
//!
//! Every data frame is acknowledged NIC-to-NIC ([`CollFrameKind::Ack`]).
//! The sender keeps an un-acked frame in a retransmission table and
//! re-sends it each [`OffloadConfig::rto_ns`] until the ack arrives;
//! receivers accept a frame at most once (duplicates are re-acked but not
//! re-delivered), so lossy fabrics cannot strand an operation or violate
//! byte conservation. An operation completes — and raises its single
//! completion IRQ — only when all receive obligations are met **and** all
//! of its transmissions are acked.
//!
//! # Determinism
//!
//! The engine is a passive, allocation-light state machine: entry points
//! ([`OffloadEngine::post`], [`OffloadEngine::on_frame`],
//! [`OffloadEngine::on_timer`]) mutate node-local state and push
//! [`OffloadEmit`]s into an internal queue; the cluster orchestrator drains
//! and applies them in order, at the one place where offload decisions
//! reach the event queue and the wire. All internal maps are
//! `BTreeMap`/`BTreeSet` (deterministic iteration), so a fixed seed
//! replays the same emit order byte-for-byte.

use std::collections::{BTreeMap, BTreeSet};

use omx_sim::{Time, TimeDelta};

/// Wire overhead of one collective frame: Ethernet framing (14 B) plus the
/// Open-MX-style header (32 B) — identical to the host path's
/// `ETH_HEADER_BYTES + OMX_HEADER_BYTES`, so offloaded hops occupy the
/// fabric exactly like host-driven ones.
pub const COLL_HEADER_BYTES: u32 = 46;

/// Which collective the NIC should run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollOp {
    /// Dissemination barrier: ⌈log₂ P⌉ rounds, one zero-payload token per
    /// rank per round.
    Barrier,
    /// Binomial-tree broadcast from `root`.
    Bcast {
        /// Rank the payload originates from.
        root: u32,
    },
    /// Small-message allreduce: binomial reduce to rank 0 with in-NIC
    /// combining, then binomial broadcast of the result.
    Allreduce,
}

/// One collective operation handed to the NIC by the host (the contents of
/// the command-queue entry the doorbell write publishes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadCollDesc {
    /// Collective to run.
    pub op: CollOp,
    /// Global rank of the posting endpoint.
    pub rank: u32,
    /// World size.
    pub ranks: u32,
    /// Ranks packed per node; rank *r* lives on node *r / ranks_per_node*.
    pub ranks_per_node: u32,
    /// Payload bytes carried by each data frame (0 for barrier tokens).
    pub payload: u32,
}

/// NIC collective-offload engine configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OffloadConfig {
    /// Firmware processing time per hop, ns: schedule lookup, header build
    /// and TX-queue insertion between deciding to forward and the frame
    /// leaving the NIC.
    pub hop_ns: u64,
    /// Retransmission timeout for un-acked collective frames, ns.
    pub rto_ns: u64,
    /// Largest payload (bytes) the NIC accepts for offloaded
    /// bcast/allreduce; larger collectives stay on the host path.
    pub max_payload: u32,
}

impl Default for OffloadConfig {
    fn default() -> Self {
        OffloadConfig {
            hop_ns: 500,
            rto_ns: 200_000,
            max_payload: 1024,
        }
    }
}

/// A collective frame on the wire. `Copy` and all-scalar: it rides inside
/// the cluster's wire-frame enum by value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CollFrame {
    /// Source node (fabric ingress port).
    pub src_node: u16,
    /// Destination node (fabric egress port).
    pub dst_node: u16,
    /// What the frame carries.
    pub kind: CollFrameKind,
}

/// Payload of a [`CollFrame`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CollFrameKind {
    /// A schedule hop: a payload (or zero-byte barrier token) from one
    /// rank's NIC to another's.
    Data {
        /// Sending rank.
        src_rank: u32,
        /// Receiving rank.
        dst_rank: u32,
        /// Operation sequence number (exactly-once identity).
        seq: u32,
        /// Schedule round within the operation.
        round: u16,
        /// Payload bytes.
        payload: u32,
    },
    /// NIC-to-NIC acknowledgment of a data frame.
    Ack {
        /// Rank that sent the acknowledged data frame.
        data_src: u32,
        /// Rank that received (and now acknowledges) it.
        data_dst: u32,
        /// Sequence of the acknowledged frame.
        seq: u32,
        /// Round of the acknowledged frame.
        round: u16,
    },
}

impl CollFrame {
    /// Total bytes this frame occupies on the wire.
    pub fn wire_len(&self) -> u32 {
        match self.kind {
            CollFrameKind::Data { payload, .. } => COLL_HEADER_BYTES + payload,
            CollFrameKind::Ack { .. } => COLL_HEADER_BYTES,
        }
    }
}

/// Synthetic message id for one collective data frame, used for sanitizer
/// delivery accounting and duplicate detection.
///
/// Collective ids live in a namespace disjoint from protocol message ids:
/// bit 63 is always set. The id is unique per *fresh* frame because
/// `(seq, round, src_rank, dst_rank)` is: a schedule never sends two frames
/// with the same round between the same rank pair within one operation.
pub fn coll_msg_id(seq: u32, round: u16, src_rank: u32, dst_rank: u32) -> u64 {
    (1u64 << 63)
        | (u64::from(seq & 0x00ff_ffff) << 39)
        | (u64::from(round & 0xff) << 31)
        | (u64::from(src_rank & 0x7fff) << 16)
        | u64::from(dst_rank & 0xffff)
}

/// Aggregate firmware counters, one instance per NIC.
///
/// These are deliberately kept in a struct separate from the NIC's RX-path
/// counters: the offload path never touches the ring/DMA/coalescer, and the
/// existing per-NIC counter JSON shape is golden-pinned. Only the
/// completion IRQ is accounted into the shared interrupt counter (by the
/// orchestrator), so interrupt-rate telemetry sees offloaded traffic.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct OffloadCounters {
    /// Collective operations posted by the host to this NIC.
    pub ops_posted: u64,
    /// Operations completed; exactly one completion IRQ each.
    pub ops_completed: u64,
    /// Data frames transmitted (first attempts only).
    pub data_tx: u64,
    /// Data frames received and accepted (first copies only).
    pub data_rx: u64,
    /// Acks transmitted (every data arrival is acked, duplicates included).
    pub acks_tx: u64,
    /// Acks received that matched a pending transmission.
    pub acks_rx: u64,
    /// Data frames retransmitted after an RTO expiry.
    pub retransmits: u64,
    /// Duplicate data frames or acks discarded (data dups are re-acked).
    pub duplicates: u64,
    /// In-NIC combine steps performed for allreduce.
    pub combines: u64,
}

omx_sim::impl_to_json!(OffloadCounters {
    ops_posted,
    ops_completed,
    data_tx,
    data_rx,
    acks_tx,
    acks_rx,
    retransmits,
    duplicates,
    combines
});

impl OffloadCounters {
    /// Fold another NIC's counters into this one (campaign aggregation).
    pub fn merge(&mut self, other: &OffloadCounters) {
        self.ops_posted += other.ops_posted;
        self.ops_completed += other.ops_completed;
        self.data_tx += other.data_tx;
        self.data_rx += other.data_rx;
        self.acks_tx += other.acks_tx;
        self.acks_rx += other.acks_rx;
        self.retransmits += other.retransmits;
        self.duplicates += other.duplicates;
        self.combines += other.combines;
    }
}

/// An effect the engine asks the orchestrator to perform.
///
/// The engine never touches the event queue, fabric, sanitizer or host
/// directly: every entry point pushes emits into an internal queue that the
/// orchestrator drains ([`OffloadEngine::drain_emits`]) and applies in
/// order, so the NIC model stays independent of the cluster's event type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OffloadEmit {
    /// Put `frame` on the wire at time `at`.
    Wire {
        /// Departure time: the triggering event plus the firmware hop cost.
        at: Time,
        /// The frame to transmit.
        frame: CollFrame,
        /// True only for the first transmission of a data frame — the
        /// sanitizer's "posted" edge. Acks and retransmissions are `false`.
        fresh: bool,
    },
    /// A data frame was accepted for the first time: the sanitizer's
    /// "delivered" edge on the receiving node.
    Delivered {
        /// Node the frame came from.
        src_node: u16,
        /// Synthetic message id (see [`coll_msg_id`]).
        msg_id: u64,
        /// Payload bytes delivered.
        len: u32,
    },
    /// An ack matched a pending transmission: the sanitizer's "completed"
    /// edge on the sending node.
    AckCompleted,
    /// An operation finished on this NIC: raise exactly one completion IRQ
    /// and notify endpoint `ep`.
    Complete {
        /// Host endpoint that posted the operation.
        ep: u8,
        /// Sequence number of the completed operation.
        seq: u32,
        /// Rank the operation completed for.
        rank: u32,
    },
    /// (Re-)arm the per-node retransmission timer. The orchestrator keeps
    /// one timer per node and only re-schedules when `at` is earlier than
    /// the currently armed deadline.
    ArmTimer {
        /// Earliest pending retransmission deadline.
        at: Time,
    },
}

/// Key into the retransmission table: `(src_rank, seq, round, dst_rank)` —
/// exactly the tuple an [`CollFrameKind::Ack`] carries back.
type PendingKey = (u32, u32, u16, u32);

#[derive(Debug)]
struct Retx {
    frame: CollFrame,
    next_at: Time,
}

/// Per-rank schedule state held in NIC memory.
#[derive(Debug)]
struct Slot {
    ep: u8,
    next_seq: u32,
    active: Option<ActiveOp>,
    /// Early arrivals: frames for a future `seq`, or rounds the active
    /// operation cannot consume yet. Keyed `(seq, round, src_rank)`.
    buf: BTreeMap<(u32, u16, u32), u32>,
}

impl Slot {
    fn new() -> Self {
        Slot {
            ep: 0,
            next_seq: 0,
            active: None,
            buf: BTreeMap::new(),
        }
    }
}

#[derive(Debug)]
struct ActiveOp {
    seq: u32,
    op: CollOp,
    rank: u32,
    ranks: u32,
    rpn: u32,
    payload: u32,
    /// Barrier: next round whose token we await. Allreduce: 0 = reduce
    /// phase, 1 = broadcast phase.
    round: u16,
    /// Outstanding receive obligations in the current phase (allreduce).
    recv_left: u32,
    /// Data frames sent for this op and not yet acked.
    acks_left: u32,
    /// All receive obligations met (sends may still await acks).
    recvs_done: bool,
    /// `(round, src_rank)` pairs already applied — duplicate detection for
    /// the active sequence.
    consumed: BTreeSet<(u16, u32)>,
}

impl ActiveOp {
    fn new(seq: u32, desc: &OffloadCollDesc) -> Self {
        ActiveOp {
            seq,
            op: desc.op,
            rank: desc.rank,
            ranks: desc.ranks,
            rpn: desc.ranks_per_node,
            payload: desc.payload,
            round: 0,
            recv_left: 0,
            acks_left: 0,
            recvs_done: false,
            consumed: BTreeSet::new(),
        }
    }
}

/// ⌈log₂ p⌉ (0 for p = 1).
fn ceil_log2(p: u32) -> u32 {
    debug_assert!(p >= 1);
    32 - (p - 1).leading_zeros()
}

/// Binomial-tree parent of `vrank` (tree rooted at virtual rank 0): clear
/// the lowest set bit. `None` for the root.
fn tree_parent(vrank: u32) -> Option<u32> {
    if vrank == 0 {
        None
    } else {
        Some(vrank & (vrank - 1))
    }
}

/// Binomial-tree children of `vrank` in a `p`-rank tree rooted at virtual
/// rank 0: `vrank + m` for every power of two `m` below `vrank`'s lowest
/// set bit (all powers below `p` for the root), clipped to the world.
fn tree_children(vrank: u32, p: u32) -> Vec<u32> {
    let limit = if vrank == 0 {
        p.next_power_of_two()
    } else {
        vrank & vrank.wrapping_neg()
    };
    let mut out = Vec::new();
    let mut m = 1u32;
    while m < limit {
        if vrank + m < p {
            out.push(vrank + m);
        }
        m <<= 1;
    }
    out
}

fn to_vrank(rank: u32, root: u32, p: u32) -> u32 {
    (rank + p - root % p) % p
}

fn from_vrank(vrank: u32, root: u32, p: u32) -> u32 {
    (vrank + root) % p
}

/// Per-node NIC collective engine. See the [module docs](self) for the
/// architecture; one instance lives inside each simulated node's NIC.
#[derive(Debug)]
pub struct OffloadEngine {
    node: u16,
    cfg: OffloadConfig,
    slots: BTreeMap<u32, Slot>,
    pending: BTreeMap<PendingKey, Retx>,
    emits: Vec<OffloadEmit>,
    counters: OffloadCounters,
}

impl OffloadEngine {
    /// New engine for `node` (its fabric port) with the given firmware
    /// parameters.
    pub fn new(node: u16, cfg: OffloadConfig) -> Self {
        OffloadEngine {
            node,
            cfg,
            slots: BTreeMap::new(),
            pending: BTreeMap::new(),
            emits: Vec::new(),
            counters: OffloadCounters::default(),
        }
    }

    /// Firmware counters.
    pub fn counters(&self) -> &OffloadCounters {
        &self.counters
    }

    /// Host posts a collective (command-queue write + doorbell). `ep` is
    /// the local endpoint to notify on completion. Panics if the rank
    /// already has an offloaded collective in flight — the host-side
    /// executor blocks on completion, so overlap is a wiring bug.
    pub fn post(&mut self, now: Time, ep: u8, desc: &OffloadCollDesc) {
        assert!(
            desc.ranks >= 1 && desc.rank < desc.ranks && desc.ranks_per_node >= 1,
            "offload: malformed descriptor {desc:?}"
        );
        let mut slot = self.slots.remove(&desc.rank).unwrap_or_else(Slot::new);
        slot.ep = ep;
        assert!(
            slot.active.is_none(),
            "offload: rank {} posted a collective with seq {} still in flight",
            desc.rank,
            slot.next_seq - 1
        );
        let seq = slot.next_seq;
        slot.next_seq += 1;
        self.counters.ops_posted += 1;
        let mut op = ActiveOp::new(seq, desc);
        match desc.op {
            CollOp::Barrier => {
                let rounds = ceil_log2(desc.ranks);
                if rounds > 0 {
                    let to = (desc.rank + 1) % desc.ranks;
                    self.send_data(now, desc.rank, to, seq, 0, 0, desc.ranks_per_node);
                    op.acks_left += 1;
                }
                op.recvs_done = rounds == 0;
            }
            CollOp::Bcast { root } => {
                let v = to_vrank(desc.rank, root, desc.ranks);
                if v == 0 {
                    for c in tree_children(v, desc.ranks) {
                        let to = from_vrank(c, root, desc.ranks);
                        self.send_data(
                            now,
                            desc.rank,
                            to,
                            seq,
                            0,
                            desc.payload,
                            desc.ranks_per_node,
                        );
                        op.acks_left += 1;
                    }
                    op.recvs_done = true;
                }
            }
            CollOp::Allreduce => {
                op.recv_left = tree_children(desc.rank, desc.ranks).len() as u32;
            }
        }
        slot.active = Some(op);
        self.slots.insert(desc.rank, slot);
        self.pump(now, desc.rank);
        self.arm_emit();
    }

    /// A collective frame arrived from the wire for a rank on this node.
    pub fn on_frame(&mut self, now: Time, frame: CollFrame) {
        debug_assert_eq!(frame.dst_node, self.node, "offload frame misrouted");
        match frame.kind {
            CollFrameKind::Data {
                src_rank,
                dst_rank,
                seq,
                round,
                payload,
            } => {
                // Hardware ack, unconditionally: the receive contract is
                // idempotent, so even duplicates are (re-)acked.
                let ack = CollFrame {
                    src_node: frame.dst_node,
                    dst_node: frame.src_node,
                    kind: CollFrameKind::Ack {
                        data_src: src_rank,
                        data_dst: dst_rank,
                        seq,
                        round,
                    },
                };
                self.counters.acks_tx += 1;
                self.emits.push(OffloadEmit::Wire {
                    at: now + TimeDelta::from_nanos(self.cfg.hop_ns as i64),
                    frame: ack,
                    fresh: false,
                });
                let slot = self.slots.entry(dst_rank).or_insert_with(Slot::new);
                let stale = seq < slot.next_seq && slot.active.as_ref().map(|a| a.seq) != Some(seq);
                let dup = stale
                    || slot.buf.contains_key(&(seq, round, src_rank))
                    || slot
                        .active
                        .as_ref()
                        .is_some_and(|a| a.seq == seq && a.consumed.contains(&(round, src_rank)));
                if dup {
                    self.counters.duplicates += 1;
                } else {
                    self.counters.data_rx += 1;
                    self.emits.push(OffloadEmit::Delivered {
                        src_node: frame.src_node,
                        msg_id: coll_msg_id(seq, round, src_rank, dst_rank),
                        len: payload,
                    });
                    slot.buf.insert((seq, round, src_rank), payload);
                    self.pump(now, dst_rank);
                }
            }
            CollFrameKind::Ack {
                data_src,
                data_dst,
                seq,
                round,
            } => {
                if self
                    .pending
                    .remove(&(data_src, seq, round, data_dst))
                    .is_some()
                {
                    self.counters.acks_rx += 1;
                    self.emits.push(OffloadEmit::AckCompleted);
                    if let Some(slot) = self.slots.get_mut(&data_src) {
                        if let Some(op) = slot.active.as_mut() {
                            if op.seq == seq {
                                op.acks_left -= 1;
                            }
                        }
                    }
                    self.pump(now, data_src);
                } else {
                    self.counters.duplicates += 1;
                }
            }
        }
        self.arm_emit();
    }

    /// The per-node retransmission timer fired: re-send every frame whose
    /// RTO deadline has passed.
    pub fn on_timer(&mut self, now: Time) {
        let hop = TimeDelta::from_nanos(self.cfg.hop_ns as i64);
        let rto = TimeDelta::from_nanos(self.cfg.rto_ns as i64);
        let due: Vec<PendingKey> = self
            .pending
            .iter()
            .filter(|(_, r)| r.next_at <= now)
            .map(|(k, _)| *k)
            .collect();
        for key in due {
            let r = self.pending.get_mut(&key).expect("due key vanished");
            let at = now + hop;
            r.next_at = at + rto;
            self.counters.retransmits += 1;
            let frame = r.frame;
            self.emits.push(OffloadEmit::Wire {
                at,
                frame,
                fresh: false,
            });
        }
        self.arm_emit();
    }

    /// Earliest pending retransmission deadline, if any frame is un-acked.
    pub fn next_deadline(&self) -> Option<Time> {
        self.pending.values().map(|r| r.next_at).min()
    }

    /// Move the queued emits into `out` (the orchestrator's scratch
    /// buffer), leaving the internal queue empty.
    pub fn drain_emits(&mut self, out: &mut Vec<OffloadEmit>) {
        out.append(&mut self.emits);
    }

    /// Append one violation line per piece of live state — incomplete
    /// operations, un-acked frames, stranded early-arrival buffers. At
    /// quiescence all of these are liveness bugs; mid-run they are normal.
    pub fn pending_report(&self, out: &mut Vec<String>) {
        let node = self.node;
        for (rank, slot) in &self.slots {
            if let Some(op) = &slot.active {
                out.push(format!(
                    "offload: node {node} rank {rank} {:?} seq {} incomplete \
                     (round {}, {} recvs left, {} acks left)",
                    op.op, op.seq, op.round, op.recv_left, op.acks_left
                ));
            }
            for (seq, round, from) in slot.buf.keys() {
                out.push(format!(
                    "offload: node {node} rank {rank} stranded buffered frame \
                     seq {seq} round {round} from rank {from}"
                ));
            }
        }
        for (src, seq, round, dst) in self.pending.keys() {
            out.push(format!(
                "offload: node {node} rank {src} un-acked frame seq {seq} \
                 round {round} -> rank {dst}"
            ));
        }
    }

    /// First transmission of a data frame: queue the wire emit, register
    /// the retransmission entry.
    #[allow(clippy::too_many_arguments)]
    fn send_data(
        &mut self,
        now: Time,
        src_rank: u32,
        dst_rank: u32,
        seq: u32,
        round: u16,
        payload: u32,
        rpn: u32,
    ) {
        let frame = CollFrame {
            src_node: (src_rank / rpn) as u16,
            dst_node: (dst_rank / rpn) as u16,
            kind: CollFrameKind::Data {
                src_rank,
                dst_rank,
                seq,
                round,
                payload,
            },
        };
        let at = now + TimeDelta::from_nanos(self.cfg.hop_ns as i64);
        self.counters.data_tx += 1;
        self.emits.push(OffloadEmit::Wire {
            at,
            frame,
            fresh: true,
        });
        let next_at = at + TimeDelta::from_nanos(self.cfg.rto_ns as i64);
        let prev = self
            .pending
            .insert((src_rank, seq, round, dst_rank), Retx { frame, next_at });
        debug_assert!(prev.is_none(), "offload: duplicate schedule send");
    }

    /// Consume whatever the rank's active operation can from its
    /// early-arrival buffer, advance the schedule, and complete the
    /// operation once every obligation is met.
    fn pump(&mut self, now: Time, rank: u32) {
        let mut slot = match self.slots.remove(&rank) {
            Some(s) => s,
            None => return,
        };
        if let Some(op) = slot.active.as_mut() {
            let seq = op.seq;
            match op.op {
                CollOp::Barrier => {
                    let rounds = ceil_log2(op.ranks) as u16;
                    while op.round < rounds {
                        let dist = 1u32 << op.round;
                        let from = (op.rank + op.ranks - dist) % op.ranks;
                        if slot.buf.remove(&(seq, op.round, from)).is_none() {
                            break;
                        }
                        op.consumed.insert((op.round, from));
                        op.round += 1;
                        if op.round < rounds {
                            let to = (op.rank + (1u32 << op.round)) % op.ranks;
                            self.send_data(now, op.rank, to, seq, op.round, 0, op.rpn);
                            op.acks_left += 1;
                        }
                    }
                    op.recvs_done = op.round >= rounds;
                }
                CollOp::Bcast { root } => {
                    if !op.recvs_done {
                        let v = to_vrank(op.rank, root, op.ranks);
                        let parent = tree_parent(v).expect("non-root bcast rank has a parent");
                        let from = from_vrank(parent, root, op.ranks);
                        if slot.buf.remove(&(seq, 0, from)).is_some() {
                            op.consumed.insert((0, from));
                            for c in tree_children(v, op.ranks) {
                                let to = from_vrank(c, root, op.ranks);
                                self.send_data(now, op.rank, to, seq, 0, op.payload, op.rpn);
                                op.acks_left += 1;
                            }
                            op.recvs_done = true;
                        }
                    }
                }
                CollOp::Allreduce => {
                    if op.round == 0 {
                        for c in tree_children(op.rank, op.ranks) {
                            if !op.consumed.contains(&(0, c))
                                && slot.buf.remove(&(seq, 0, c)).is_some()
                            {
                                op.consumed.insert((0, c));
                                op.recv_left -= 1;
                                self.counters.combines += 1;
                            }
                        }
                        if op.recv_left == 0 {
                            op.round = 1;
                            match tree_parent(op.rank) {
                                None => {
                                    // Root: reduce done, fan the result out.
                                    for c in tree_children(op.rank, op.ranks) {
                                        self.send_data(now, op.rank, c, seq, 1, op.payload, op.rpn);
                                        op.acks_left += 1;
                                    }
                                    op.recvs_done = true;
                                }
                                Some(parent) => {
                                    self.send_data(
                                        now, op.rank, parent, seq, 0, op.payload, op.rpn,
                                    );
                                    op.acks_left += 1;
                                    op.recv_left = 1;
                                }
                            }
                        }
                    }
                    if op.round == 1 && !op.recvs_done {
                        let parent =
                            tree_parent(op.rank).expect("non-root allreduce rank has a parent");
                        if slot.buf.remove(&(seq, 1, parent)).is_some() {
                            op.consumed.insert((1, parent));
                            op.recv_left = 0;
                            for c in tree_children(op.rank, op.ranks) {
                                self.send_data(now, op.rank, c, seq, 1, op.payload, op.rpn);
                                op.acks_left += 1;
                            }
                            op.recvs_done = true;
                        }
                    }
                }
            }
            if op.recvs_done && op.acks_left == 0 {
                self.counters.ops_completed += 1;
                self.emits.push(OffloadEmit::Complete {
                    ep: slot.ep,
                    seq,
                    rank,
                });
                slot.active = None;
            }
        }
        self.slots.insert(rank, slot);
    }

    /// Queue an [`OffloadEmit::ArmTimer`] for the earliest outstanding RTO
    /// deadline, if any. The orchestrator dedups against its armed timer.
    fn arm_emit(&mut self) {
        if let Some(at) = self.next_deadline() {
            self.emits.push(OffloadEmit::ArmTimer { at });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Minimal in-crate harness: one engine per node (one rank per node),
    /// a sorted frame queue, and per-node RTO timers. Loss is injected by
    /// dropping the first transmission of selected data frames; the RTO
    /// path must recover.
    struct Harness {
        engines: Vec<OffloadEngine>,
        /// (deliver_at, insertion_seq) -> frame. The insertion seq breaks
        /// ties deterministically.
        wire: BTreeMap<(u64, u64), CollFrame>,
        timers: Vec<Option<Time>>,
        next_ins: u64,
        completions: Vec<(u32, u8, u32)>,
        /// Data-frame keys whose *first* transmission is dropped.
        drop_once: BTreeSet<PendingKey>,
        scratch: Vec<OffloadEmit>,
    }

    impl Harness {
        fn new(ranks: u32) -> Self {
            let cfg = OffloadConfig::default();
            Harness {
                engines: (0..ranks)
                    .map(|n| OffloadEngine::new(n as u16, cfg))
                    .collect(),
                wire: BTreeMap::new(),
                timers: vec![None; ranks as usize],
                next_ins: 0,
                completions: Vec::new(),
                drop_once: BTreeSet::new(),
                scratch: Vec::new(),
            }
        }

        fn apply_emits(&mut self, node: usize) {
            let mut emits = std::mem::take(&mut self.scratch);
            self.engines[node].drain_emits(&mut emits);
            for e in emits.drain(..) {
                match e {
                    OffloadEmit::Wire { at, frame, fresh } => {
                        if fresh {
                            if let CollFrameKind::Data {
                                src_rank,
                                dst_rank,
                                seq,
                                round,
                                ..
                            } = frame.kind
                            {
                                if self.drop_once.remove(&(src_rank, seq, round, dst_rank)) {
                                    continue;
                                }
                            }
                        }
                        self.wire.insert((at.as_nanos(), self.next_ins), frame);
                        self.next_ins += 1;
                    }
                    OffloadEmit::Complete { ep, seq, rank } => {
                        self.completions.push((rank, ep, seq));
                    }
                    OffloadEmit::ArmTimer { at } => {
                        let slot = &mut self.timers[node];
                        if !slot.is_some_and(|t| t <= at) {
                            *slot = Some(at);
                        }
                    }
                    OffloadEmit::Delivered { .. } | OffloadEmit::AckCompleted => {}
                }
            }
            self.scratch = emits;
        }

        fn post_all(&mut self, op: CollOp, ranks: u32, payload: u32) {
            for r in 0..ranks {
                let desc = OffloadCollDesc {
                    op,
                    rank: r,
                    ranks,
                    ranks_per_node: 1,
                    payload,
                };
                self.engines[r as usize].post(Time::ZERO, 0, &desc);
                self.apply_emits(r as usize);
            }
        }

        /// Run until the wire is empty and no timer has pending work.
        fn run(&mut self) {
            for _ in 0..1_000_000u32 {
                if let Some((&(at_ns, ins), &frame)) = self.wire.iter().next() {
                    self.wire.remove(&(at_ns, ins));
                    let dst = frame.dst_node as usize;
                    self.engines[dst].on_frame(Time::from_nanos(at_ns), frame);
                    self.apply_emits(dst);
                    continue;
                }
                // Wire idle: fire the earliest armed timer, if it is due
                // against outstanding work.
                let next = (0..self.engines.len())
                    .filter_map(|n| self.timers[n].map(|t| (t, n)))
                    .min();
                match next {
                    Some((t, n)) => {
                        self.timers[n] = None;
                        if self.engines[n].next_deadline().is_some() {
                            self.engines[n].on_timer(t);
                            self.apply_emits(n);
                        }
                    }
                    None => return,
                }
            }
            panic!("offload harness did not quiesce");
        }

        fn assert_all_complete_once(&self, ranks: u32, ops: u32) {
            let mut per_rank = vec![0u32; ranks as usize];
            for &(rank, _, _) in &self.completions {
                per_rank[rank as usize] += 1;
            }
            for (r, &n) in per_rank.iter().enumerate() {
                assert_eq!(n, ops, "rank {r} completed {n} ops, expected {ops}");
            }
            for e in &self.engines {
                let mut v = Vec::new();
                e.pending_report(&mut v);
                assert!(v.is_empty(), "live state at quiescence: {v:?}");
            }
        }
    }

    #[test]
    fn barrier_completes_exactly_once_at_every_world_size() {
        for ranks in 1..=17u32 {
            let mut h = Harness::new(ranks);
            h.post_all(CollOp::Barrier, ranks, 0);
            h.run();
            h.assert_all_complete_once(ranks, 1);
        }
    }

    #[test]
    fn bcast_and_allreduce_complete_at_odd_world_sizes() {
        for ranks in [2u32, 3, 5, 7, 12, 16] {
            for op in [CollOp::Bcast { root: ranks - 1 }, CollOp::Allreduce] {
                let mut h = Harness::new(ranks);
                h.post_all(op, ranks, 64);
                h.run();
                h.assert_all_complete_once(ranks, 1);
            }
        }
    }

    #[test]
    fn lost_frames_are_retransmitted_to_completion() {
        let ranks = 8u32;
        let mut h = Harness::new(ranks);
        // Drop the first copy of rank 0's round-0 barrier token and of
        // rank 3's round-1 token.
        h.drop_once.insert((0, 0, 0, 1));
        h.drop_once.insert((3, 0, 1, 5));
        h.post_all(CollOp::Barrier, ranks, 0);
        h.run();
        h.assert_all_complete_once(ranks, 1);
        let retx: u64 = h.engines.iter().map(|e| e.counters().retransmits).sum();
        assert!(retx >= 2, "expected retransmissions, saw {retx}");
    }

    #[test]
    fn duplicate_data_frames_are_reacked_not_redelivered() {
        let mut h = Harness::new(2);
        h.post_all(CollOp::Barrier, 2, 0);
        h.run();
        h.assert_all_complete_once(2, 1);
        // Replay rank 0's token at rank 1: must re-ack, not re-deliver.
        let dup = CollFrame {
            src_node: 0,
            dst_node: 1,
            kind: CollFrameKind::Data {
                src_rank: 0,
                dst_rank: 1,
                seq: 0,
                round: 0,
                payload: 0,
            },
        };
        let before = h.engines[1].counters().data_rx;
        h.engines[1].on_frame(Time::from_nanos(1_000_000), dup);
        let mut emits = Vec::new();
        h.engines[1].drain_emits(&mut emits);
        assert_eq!(h.engines[1].counters().data_rx, before, "no re-delivery");
        assert_eq!(h.engines[1].counters().duplicates, 1);
        assert!(
            matches!(
                emits.as_slice(),
                [OffloadEmit::Wire {
                    frame: CollFrame {
                        kind: CollFrameKind::Ack { .. },
                        ..
                    },
                    fresh: false,
                    ..
                }]
            ),
            "dup must produce exactly a re-ack: {emits:?}"
        );
    }

    #[test]
    fn sequences_keep_back_to_back_ops_apart() {
        let ranks = 5u32;
        let mut h = Harness::new(ranks);
        for _ in 0..3 {
            h.post_all(CollOp::Allreduce, ranks, 8);
            h.run();
        }
        h.assert_all_complete_once(ranks, 3);
        // Seqs must be 0,1,2 in order on every rank.
        for r in 0..ranks {
            let seqs: Vec<u32> = h
                .completions
                .iter()
                .filter(|(rank, _, _)| *rank == r)
                .map(|&(_, _, s)| s)
                .collect();
            assert_eq!(seqs, vec![0, 1, 2]);
        }
    }

    #[test]
    fn tree_helpers_cover_every_rank() {
        for p in 1..=64u32 {
            let mut seen = vec![false; p as usize];
            seen[0] = true;
            for v in 0..p {
                for c in tree_children(v, p) {
                    assert!(!seen[c as usize], "rank {c} has two parents (p={p})");
                    assert_eq!(tree_parent(c), Some(v));
                    seen[c as usize] = true;
                }
            }
            assert!(seen.iter().all(|&s| s), "orphan ranks at p={p}");
        }
    }

    #[test]
    fn msg_ids_are_disjoint_from_protocol_ids_and_unique() {
        let a = coll_msg_id(0, 0, 0, 1);
        assert!(a & (1 << 63) != 0);
        let mut ids = BTreeSet::new();
        for seq in 0..4u32 {
            for round in 0..4u16 {
                for src in 0..8u32 {
                    for dst in 0..8u32 {
                        assert!(ids.insert(coll_msg_id(seq, round, src, dst)));
                    }
                }
            }
        }
    }
}
