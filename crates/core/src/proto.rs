//! The per-node Open-MX driver: send/receive protocol engine.
//!
//! One [`NodeDriver`] lives in each node's kernel. It owns:
//!
//! * the endpoint table with MX tag matching ([`crate::matching`]),
//! * the **send path**: size classification (small / medium / large),
//!   fragmentation, latency-sensitive marking, per-connection sequence
//!   numbers and a packet window for flow control,
//! * the **receive path**: reassembly of medium fragments, the large-message
//!   **pull engine** (rendezvous → up to 4 pipelined block requests of ≤ 32
//!   frames → notify, per §III-A), duplicate suppression, and ack
//!   generation (piggybacked on reverse traffic; standalone after
//!   `ack_every` packets or a delayed-ack timeout — this is the unmarked
//!   ~20 % of traffic §IV-C2 mentions),
//! * **reliability**: go-back-to-missing retransmission of eager packets on
//!   timeout, and pull-block re-requests when replies stall.
//!
//! The driver is a *pure state machine*: every entry point takes `now` and
//! returns a list of [`DriverAction`]s for the orchestrator to execute
//! (packets to transmit, completions to deliver). Its retransmit /
//! delayed-ack timer is not an action: after every call the orchestrator
//! arms it from [`NodeDriver::next_deadline`]. This keeps the whole protocol
//! unit-testable without a simulator: the tests below run two drivers
//! against each other by hand.

use crate::marking::MarkingPolicy;
use crate::matching::{MatchEngine, PostedRecv, UnexpectedMsg};
use crate::wire::{
    frag_count, medium_frag_payload, pull_frame_count, pull_frame_payload, EndpointAddr, MsgId,
    OmxHeader, Packet, PacketKind, MEDIUM_MAX, PULL_BLOCK_FRAMES, PULL_PIPELINE, SMALL_MAX,
};
use omx_sim::hash::FastMap;
use omx_sim::stats::Counter;
use omx_sim::{Time, TimeDelta};
use std::collections::{BTreeMap, BTreeSet, VecDeque};

/// Protocol tunables.
#[derive(Debug, Clone, Copy)]
pub struct ProtoConfig {
    /// Fabric MTU (fragment sizing).
    pub mtu: u32,
    /// Send a standalone ack after this many unacked eager packets.
    pub ack_every: u32,
    /// Send a standalone ack this long after the first unacked packet if no
    /// reverse traffic piggybacked one (nanoseconds).
    pub delayed_ack_ns: u64,
    /// Retransmission timeout (nanoseconds).
    pub rto_ns: u64,
    /// On a retransmission timeout, resend at most this many packets from
    /// the head of the unacked queue (go-back-N with a paced burst).
    /// Resending the whole window at once can permanently livelock a small
    /// RX ring: the burst's leading duplicates occupy every free slot of
    /// each interrupt-service cycle while the head-of-line gap is dropped,
    /// and the alignment repeats identically every timeout.
    pub retx_burst: u32,
    /// Per-connection eager window, in packets.
    pub window_packets: u32,
    /// Marking policy applied by the send path.
    pub marking: MarkingPolicy,
}

impl Default for ProtoConfig {
    fn default() -> Self {
        ProtoConfig {
            mtu: 1500,
            ack_every: 5,
            delayed_ack_ns: 100_000,
            rto_ns: 20_000_000,
            retx_burst: 8,
            window_packets: 128,
            marking: MarkingPolicy::all(),
        }
    }
}

/// What the orchestrator must do after a driver call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DriverAction {
    /// Hand a packet to the NIC TX path.
    Transmit(Packet),
    /// A receive completed on `ep`: deliver to the application.
    RecvComplete {
        /// Local endpoint index.
        ep: u8,
        /// Handle from the posted receive.
        handle: u64,
        /// Sender.
        src: EndpointAddr,
        /// Message id (links the completion to its wire packets in traces).
        msg: MsgId,
        /// Match info of the message.
        match_info: u64,
        /// Message length.
        len: u32,
    },
    /// A send completed on `ep` (eager: handed to the NIC; large: notify
    /// received).
    SendComplete {
        /// Local endpoint index.
        ep: u8,
        /// Handle from the send post.
        handle: u64,
    },
}

/// Driver statistics.
#[derive(Debug, Default, Clone)]
pub struct DriverCounters {
    /// Eager data packets sent (first transmissions).
    pub eager_sent: Counter,
    /// Eager packets retransmitted.
    pub eager_retransmits: Counter,
    /// Pull blocks re-requested after a stall.
    pub pull_rerequests: Counter,
    /// Standalone ack packets sent.
    pub acks_sent: Counter,
    /// Duplicate packets discarded.
    pub duplicates: Counter,
    /// Receive completions delivered.
    pub recv_completions: Counter,
    /// Send completions delivered.
    pub send_completions: Counter,
}

omx_sim::impl_to_json!(DriverCounters {
    eager_sent,
    eager_retransmits,
    pull_rerequests,
    acks_sent,
    duplicates,
    recv_completions,
    send_completions,
});

// ---------------------------------------------------------------------------
// Internal state
// ---------------------------------------------------------------------------

/// Key of the receiver-side per-message state (sender address + id).
type MsgKey = (EndpointAddr, MsgId);

/// A `conn_table` slot with no connection yet.
const NO_CONN: u32 = u32::MAX;

/// One piece of protocol state that has not reached its terminal state:
/// which message (or connection) it belongs to and which phase it is stuck
/// in. At quiescence (empty event queue) every entry here is a liveness
/// violation — nothing will ever resolve it — which is exactly what the sim
/// sanitizer reports. Messages merely waiting for the *application* (an
/// unposted receive) are not listed; they are legitimate steady states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingEntry {
    /// Protocol phase the entry is stuck in (`window-queued`,
    /// `awaiting-ack`, `awaiting-notify`, `medium-reassembly`, `pull`).
    pub phase: &'static str,
    /// Rendered message key / connection and progress detail.
    pub detail: String,
}

/// Convert a `u64` nanosecond timeout knob into a [`TimeDelta`]. A timeout
/// may take at most `Time::MAX / 2` ns, so a deadline `now + timeout` cannot
/// wrap before 2^63 ns (292 years) of simulated time. A larger one panics
/// here with a clear message: deadline arithmetic is unchecked in release
/// builds, and a wrapped deadline lands just before `now`, so the timer
/// would fire at once (an ack sent immediately, a retransmit on every tick).
fn timeout_delta(ns: u64, what: &str) -> TimeDelta {
    let max = Time::MAX.as_nanos() / 2;
    assert!(
        ns <= max,
        "ProtoConfig::{what} = {ns} ns exceeds the largest timeout ({max} ns) \
         whose deadline cannot wrap"
    );
    TimeDelta::from_nanos(ns)
}

#[derive(Debug)]
struct Endpoint {
    matcher: MatchEngine,
}

/// Per-connection state. A connection is (local endpoint, remote endpoint),
/// tracked symmetrically for both directions.
#[derive(Debug, Default)]
struct Conn {
    // -- send direction --
    /// Next eager sequence number to assign (starts at 1).
    next_seq: u64,
    /// Highest cumulative ack received from the peer.
    acked: u64,
    /// Sent, unacked eager packets (for retransmission), oldest first.
    unacked: VecDeque<(u64, Packet, Time)>,
    /// Messages waiting for window credits.
    queued: VecDeque<QueuedSend>,
    // -- receive direction --
    /// Highest sequence received contiguously.
    cum_recv: u64,
    /// Sequences received above the cumulative point (reorder buffer).
    recv_above: BTreeSet<u64>,
    /// Eager packets received since the last ack we sent.
    unacked_rx: u32,
    /// Deadline of the delayed-ack timer (None = not pending).
    ack_deadline: Option<Time>,
}

impl Conn {
    /// This connection's earliest deadline: its delayed ack, or the
    /// retransmit deadline of its unacked head. Retransmission is triggered
    /// by the queue head alone, so the head carries the only retransmit
    /// deadline. Entries behind a refreshed head can hold *older* send
    /// times; deriving a deadline from them would fire the timer before the
    /// head is overdue, resend nothing, and re-arm at the same stale instant
    /// forever.
    fn deadline(&self, rto: TimeDelta) -> Option<Time> {
        let retx = self.unacked.front().map(|&(_, _, sent_at)| sent_at + rto);
        match (self.ack_deadline, retx) {
            (Some(ack), Some(retx)) => Some(ack.min(retx)),
            (ack, retx) => ack.or(retx),
        }
    }
}

#[derive(Debug)]
struct QueuedSend {
    ep: u8,
    dst: EndpointAddr,
    len: u32,
    match_info: u64,
    handle: u64,
}

/// Window credits a send of `len` bytes takes: one per medium fragment,
/// one for a small message, and one for a large message's rendezvous
/// (the pull protocol paces the rest).
fn window_cost(len: u32, mtu: u32) -> u32 {
    if len > SMALL_MAX && len <= MEDIUM_MAX {
        frag_count(len, mtu)
    } else {
        1
    }
}

/// Sender-side state of one large message, waiting for pull requests and
/// the notify.
#[derive(Debug)]
struct LargeSend {
    ep: u8,
    handle: u64,
    dst: EndpointAddr,
    len: u32,
}

/// Receiver-side medium reassembly.
#[derive(Debug)]
struct MediumRx {
    ep: u8,
    match_info: u64,
    total_len: u32,
    frag_count: u32,
    /// Fragments received so far. The connection's sequence window drops
    /// replayed fragments, so each one is counted once.
    received: u32,
    /// Set once matched against a posted receive.
    handle: Option<u64>,
}

impl MediumRx {
    /// Every fragment is in and a receive is posted for it.
    fn complete(&self) -> bool {
        self.handle.is_some() && self.received == self.frag_count
    }
}

/// Receiver-side pull engine state for one large message.
#[derive(Debug)]
struct PullRx {
    ep: u8,
    handle: u64,
    match_info: u64,
    total_len: u32,
    total_frames: u32,
    total_blocks: u32,
    /// Frames received per block.
    block_frames: Vec<u32>,
    /// Next block index to request.
    next_block: u32,
    /// Blocks fully received.
    blocks_done: u32,
    /// Last time any reply arrived (stall detection).
    last_progress: Time,
}

impl PullRx {
    fn frames_in_block(&self, block: u32) -> u32 {
        let full = self.total_frames / PULL_BLOCK_FRAMES;
        if block < full {
            PULL_BLOCK_FRAMES
        } else {
            self.total_frames - full * PULL_BLOCK_FRAMES
        }
    }
}

/// Reusable per-call buffers for the timer and ack paths. Hoisting them
/// out of `on_timer_into` / `process_ack` / the pull request builders keeps
/// steady-state protocol dispatch allocation-free: each buffer is taken
/// (`mem::take`), filled, drained, and put back, so the capacity survives
/// across calls. None of the paths that fill a buffer re-enter another
/// user of the *same* buffer (asserted by the take/restore discipline —
/// a reentrant take would see an empty, capacity-less Vec, never aliasing).
#[derive(Debug, Default)]
struct Scratch {
    /// Conns whose `conn_deadline` is due, sorted by key: each may have
    /// a due delayed ack, an overdue unacked head, or both.
    due: Vec<usize>,
    /// Packet build buffer (pull requests / replies / re-requests).
    pkts: Vec<Packet>,
    /// Window-released queued sends inside `process_ack`.
    released: Vec<QueuedSend>,
}

/// The per-node driver.
///
/// # Protocol state layout
///
/// Each state family lives in the map that indexes it: a packet costs one
/// `conn_table` lookup plus at most one probe of `sends`, `mediums` or
/// `pulls`, and the helpers work on the entry in hand. Connections are
/// never removed, so they sit in a `Vec` and an index stays valid for the
/// driver's lifetime. Dense columns beside it hold each connection's key
/// (`conn_keys`) and earliest deadline (`conn_deadline`), so
/// [`NodeDriver::next_deadline`] never walks the `Conn`s. `conn_table`
/// finds a key's index in two array reads, with no hashing and no
/// comparisons.
///
/// Where iteration order reaches the emitted actions, the driver fixes
/// it: the timer scans and the pending report sort the connections they
/// visit by `(local endpoint, remote)`, and `pulls`, which the stall scan
/// walks, is a `BTreeMap`. `sends` and `mediums` are only probed by key
/// (the pending report sorts them), so they hash with the unseeded
/// [`omx_sim::hash::FastHasher`].
pub struct NodeDriver {
    local: u16,
    cfg: ProtoConfig,
    /// `cfg.rto_ns`, converted (and range-checked) once.
    rto: TimeDelta,
    /// `cfg.delayed_ack_ns`, converted (and range-checked) once.
    delayed_ack: TimeDelta,
    endpoints: Vec<Endpoint>,
    conns: Vec<Conn>,
    /// [`Conn::deadline`] of each connection, indexed like `conns`. Every
    /// site that changes an `ack_deadline` or an unacked head calls
    /// [`NodeDriver::refresh_deadline`].
    conn_deadline: Vec<Option<Time>>,
    /// `(local endpoint, remote)` of each connection, indexed like `conns`.
    conn_keys: Vec<(u8, EndpointAddr)>,
    /// Connection lookup: `conn_table[remote node][remote endpoint *
    /// endpoints + local endpoint]` is the connection's index into
    /// `conns`, or [`NO_CONN`]. Rows grow on first contact.
    conn_table: Vec<Vec<u32>>,
    sends: FastMap<MsgId, LargeSend>,
    mediums: FastMap<MsgKey, MediumRx>,
    pulls: BTreeMap<MsgKey, PullRx>,
    next_msg: u64,
    counters: DriverCounters,
    scratch: Scratch,
}

impl NodeDriver {
    /// Create the driver of node `local` with `endpoints` attach points.
    ///
    /// # Panics
    /// Panics if `cfg.rto_ns` is zero, or if it or `cfg.delayed_ack_ns`
    /// exceeds `Time::MAX / 2` ns (see `timeout_delta`). A zero timeout
    /// re-stamps a retransmitted packet at the instant of the timer firing,
    /// so the driver timer could never move past it.
    pub fn new(local: u16, endpoints: usize, cfg: ProtoConfig) -> Self {
        assert!(
            cfg.rto_ns > 0,
            "ProtoConfig::rto_ns = 0: a retransmission timeout must be positive"
        );
        NodeDriver {
            local,
            cfg,
            rto: timeout_delta(cfg.rto_ns, "rto_ns"),
            delayed_ack: timeout_delta(cfg.delayed_ack_ns, "delayed_ack_ns"),
            endpoints: (0..endpoints)
                .map(|_| Endpoint {
                    matcher: MatchEngine::new(),
                })
                .collect(),
            conns: Vec::new(),
            conn_deadline: Vec::new(),
            conn_keys: Vec::new(),
            conn_table: Vec::new(),
            sends: FastMap::default(),
            mediums: FastMap::default(),
            pulls: BTreeMap::new(),
            next_msg: 0,
            counters: DriverCounters::default(),
            scratch: Scratch::default(),
        }
    }

    /// This node's id.
    pub fn node(&self) -> u16 {
        self.local
    }

    /// Statistics.
    pub fn counters(&self) -> &DriverCounters {
        &self.counters
    }

    /// Packets currently parked in reorder buffers, summed over all
    /// connections: sequence numbers received above the cumulative-ack
    /// point, waiting for the gap below them to fill. The telemetry
    /// sampler reads this as the per-node misordering-pressure gauge.
    pub fn reorder_depth(&self) -> u64 {
        self.conns.iter().map(|c| c.recv_above.len() as u64).sum()
    }

    /// Config in force.
    pub fn config(&self) -> &ProtoConfig {
        &self.cfg
    }

    fn addr(&self, ep: u8) -> EndpointAddr {
        EndpointAddr::new(self.local, ep)
    }

    /// Resolve (creating on first contact) the connection's index into
    /// `conns`. A packet looks its connection up once; its helpers then
    /// index the `Vec` directly.
    ///
    /// # Panics
    /// Panics if `ep` is not one of this node's endpoints: its slot would
    /// alias another connection's.
    fn conn_idx(&mut self, ep: u8, remote: EndpointAddr) -> usize {
        let endpoints = self.endpoints.len();
        assert!(
            usize::from(ep) < endpoints,
            "node {}: local endpoint {ep} out of range ({endpoints} endpoints)",
            self.local
        );
        let node = usize::from(remote.node.0);
        if node >= self.conn_table.len() {
            self.conn_table.resize_with(node + 1, Vec::new);
        }
        let row = &mut self.conn_table[node];
        let slot = usize::from(remote.endpoint) * endpoints + usize::from(ep);
        if slot >= row.len() {
            row.resize(slot + 1, NO_CONN);
        }
        if row[slot] == NO_CONN {
            row[slot] = u32::try_from(self.conns.len()).expect("connection count fits u32");
            self.conns.push(Conn::default());
            self.conn_deadline.push(None);
            self.conn_keys.push((ep, remote));
        }
        row[slot] as usize
    }

    /// Sort connection indices into `(local endpoint, remote)` order, the
    /// order every scan that emits actions or report lines visits them in.
    fn sort_conns(&self, cts: &mut [usize]) {
        cts.sort_unstable_by_key(|&ct| self.conn_keys[ct]);
    }

    /// Recompute connection `ct`'s entry of `conn_deadline` after its
    /// `ack_deadline` or its unacked head changed.
    fn refresh_deadline(&mut self, ct: usize) {
        self.conn_deadline[ct] = self.conns[ct].deadline(self.rto);
    }

    // -- application entry points ---------------------------------------------

    /// Post a receive on endpoint `ep`, appending the actions it emits to
    /// `actions`.
    pub fn post_recv_into(
        &mut self,
        now: Time,
        ep: u8,
        match_value: u64,
        match_mask: u64,
        handle: u64,
        actions: &mut Vec<DriverAction>,
    ) {
        let posted = PostedRecv {
            handle,
            match_value,
            match_mask,
        };
        if let Some(unexpected) = self.endpoints[ep as usize].matcher.post_recv(posted) {
            self.claim_unexpected(now, ep, handle, unexpected, actions);
        }
    }

    /// Post a send of `len` bytes from endpoint `ep` to `dst`, appending the
    /// actions it emits to `actions`.
    #[allow(clippy::too_many_arguments)]
    pub fn post_send_into(
        &mut self,
        now: Time,
        ep: u8,
        dst: EndpointAddr,
        len: u32,
        match_info: u64,
        handle: u64,
        actions: &mut Vec<DriverAction>,
    ) {
        self.start_send(
            now,
            QueuedSend {
                ep,
                dst,
                len,
                match_info,
                handle,
            },
            actions,
        );
    }

    /// A packet addressed to this node was delivered, appending the actions
    /// it emits to `actions`. Shared-memory delivery calls this per packet;
    /// the receive handler calls [`NodeDriver::handle_batch_into`] once per
    /// batch.
    pub fn handle_packet_into(&mut self, now: Time, pkt: Packet, actions: &mut Vec<DriverAction>) {
        debug_assert_eq!(pkt.hdr.dst.node.0, self.local, "misrouted packet");
        let local_ep = pkt.hdr.dst.endpoint;
        let remote = pkt.hdr.src;
        // The packet's one connection lookup; the helpers below index
        // `conns` directly.
        let ct = self.conn_idx(local_ep, remote);

        // Piggybacked ack always processes.
        self.process_ack(now, ct, pkt.hdr.ack, actions);

        // Eager sequencing and duplicate suppression.
        if pkt.hdr.seq != 0 && !self.accept_eager_seq(ct, pkt.hdr.seq) {
            self.counters.duplicates.incr();
            // Duplicates still refresh ack state so the peer stops resending.
            self.bump_rx_ack(now, local_ep, remote, ct, actions);
            return;
        }

        match pkt.kind {
            PacketKind::Small {
                msg,
                match_info,
                len,
            } => {
                self.rx_small(local_ep, remote, msg, match_info, len, actions);
                self.bump_rx_ack(now, local_ep, remote, ct, actions);
            }
            PacketKind::MediumFrag {
                msg,
                match_info,
                frag_count,
                total_len,
                ..
            } => {
                self.rx_medium(
                    local_ep, remote, msg, match_info, frag_count, total_len, actions,
                );
                self.bump_rx_ack(now, local_ep, remote, ct, actions);
            }
            PacketKind::Rendezvous {
                msg,
                match_info,
                total_len,
            } => {
                self.rx_rendezvous(now, local_ep, remote, msg, match_info, total_len, actions);
                self.bump_rx_ack(now, local_ep, remote, ct, actions);
            }
            PacketKind::PullRequest {
                msg,
                block,
                frame_count,
            } => {
                self.rx_pull_request(local_ep, remote, ct, msg, block, frame_count, actions);
            }
            PacketKind::PullReply { msg, block, .. } => {
                self.rx_pull_reply(now, local_ep, remote, ct, msg, block, actions);
            }
            PacketKind::Notify { msg } => {
                self.rx_notify(msg, actions);
                self.bump_rx_ack(now, local_ep, remote, ct, actions);
            }
            PacketKind::Ack { cumulative_seq } => {
                self.process_ack(now, ct, cumulative_seq, actions);
            }
        }
    }

    /// A receive batch: [`NodeDriver::handle_packet_into`] on each packet in
    /// turn, pushing onto `ends` the length `actions` has after each one, so
    /// the caller can tell where each packet's actions end. The receive
    /// handler makes this one call per batch; reusing one action buffer
    /// across batches keeps steady-state dispatch allocation-free.
    pub fn handle_batch_into(
        &mut self,
        now: Time,
        batch: &[Packet],
        actions: &mut Vec<DriverAction>,
        ends: &mut Vec<usize>,
    ) {
        for pkt in batch {
            self.handle_packet_into(now, *pkt, actions);
            ends.push(actions.len());
        }
    }

    /// The retransmit / delayed-ack timer fired, appending the actions it
    /// emits to `actions`.
    pub fn on_timer_into(&mut self, now: Time, actions: &mut Vec<DriverAction>) {
        // A due delayed ack or an overdue unacked head puts the
        // connection's deadline at or before `now`, so the deadline column
        // yields every connection either pass below acts on. Sorting them
        // by key fixes the emitted action order, which the goldens pin.
        let mut due = std::mem::take(&mut self.scratch.due);
        due.clear();
        due.extend(
            self.conn_deadline
                .iter()
                .enumerate()
                .filter(|(_, d)| d.is_some_and(|d| d <= now))
                .map(|(ct, _)| ct),
        );
        self.sort_conns(&mut due);

        // Delayed acks.
        for &ct in &due {
            if self.conns[ct].ack_deadline.is_some_and(|d| d <= now) {
                let (ep, remote) = self.conn_keys[ct];
                self.send_standalone_ack(ep, remote, ct, actions);
            }
        }

        // Eager retransmissions: go-back-N, triggered by the queue head and
        // limited to a short head burst. Cumulative acks for the resent head
        // then clock out the next burst, so recovery is paced at roughly one
        // burst per round trip instead of one full window per RTO. Sending
        // an ack leaves `unacked` alone, so the candidates are still whole.
        let rto = self.rto;
        let burst = self.cfg.retx_burst.max(1) as usize;
        for &ct in &due {
            let unacked = &mut self.conns[ct].unacked;
            let overdue = unacked
                .front()
                .is_some_and(|(_, _, sent_at)| now.saturating_since(*sent_at) >= rto);
            if !overdue {
                continue;
            }
            for (_, pkt, sent_at) in unacked.iter_mut().take(burst) {
                *sent_at = now;
                self.counters.eager_retransmits.incr();
                actions.push(DriverAction::Transmit(*pkt));
            }
            self.refresh_deadline(ct);
        }
        self.scratch.due = due;

        // Stalled pulls: re-request incomplete in-flight blocks, in key
        // order (ordered map) for deterministic action order.
        let mut reqs = std::mem::take(&mut self.scratch.pkts);
        reqs.clear();
        for (&(peer, msg), p) in self.pulls.iter_mut() {
            if now.saturating_since(p.last_progress) < rto {
                continue;
            }
            p.last_progress = now;
            for block in 0..p.next_block {
                let expect = p.frames_in_block(block);
                if p.block_frames[block as usize] < expect {
                    reqs.push(Packet {
                        hdr: OmxHeader {
                            src: EndpointAddr::new(self.local, p.ep),
                            dst: peer,
                            latency_sensitive: false,
                            seq: 0,
                            ack: 0,
                        },
                        kind: PacketKind::PullRequest {
                            msg,
                            block,
                            frame_count: expect,
                        },
                    });
                }
            }
        }
        for pkt in reqs.drain(..) {
            self.counters.pull_rerequests.incr();
            let ct = self.conn_idx(pkt.hdr.src.endpoint, pkt.hdr.dst);
            self.finalize_and_push(ct, pkt, actions);
        }
        self.scratch.pkts = reqs;
    }

    /// Earliest pending deadline (retransmit, delayed ack or pull stall),
    /// if any. The orchestrator arms the node's driver timer from this after
    /// every driver call; a receive batch is one call.
    pub fn next_deadline(&self) -> Option<Time> {
        let rto = self.rto;
        debug_assert!(
            self.conns
                .iter()
                .zip(&self.conn_deadline)
                .all(|(c, &d)| c.deadline(rto) == d),
            "node {}: a conn_deadline entry is stale",
            self.local
        );
        let mut next: Option<Time> = None;
        let mut consider = |t: Time| {
            next = Some(match next {
                Some(n) if n <= t => n,
                _ => t,
            });
        };
        // A min-fold is order-independent, so neither walk needs key
        // order.
        for &d in self.conn_deadline.iter().flatten() {
            consider(d);
        }
        for p in self.pulls.values() {
            consider(p.last_progress + rto);
        }
        next
    }

    // -- send path -------------------------------------------------------------

    fn start_send(&mut self, now: Time, send: QueuedSend, actions: &mut Vec<DriverAction>) {
        let pkts_needed = window_cost(send.len, self.cfg.mtu);
        let ct = self.conn_idx(send.ep, send.dst);
        let window = self.cfg.window_packets;
        let conn = &mut self.conns[ct];
        let inflight = conn.unacked.len() as u32;
        if !conn.queued.is_empty() || inflight + pkts_needed > window {
            conn.queued.push_back(send);
            return;
        }
        self.emit_send(now, send, ct, actions);
    }

    fn emit_send(
        &mut self,
        now: Time,
        send: QueuedSend,
        ct: usize,
        actions: &mut Vec<DriverAction>,
    ) {
        let msg = MsgId(self.next_msg);
        self.next_msg += 1;
        let src = self.addr(send.ep);

        if send.len <= SMALL_MAX {
            let pkt = Packet {
                hdr: OmxHeader {
                    src,
                    dst: send.dst,
                    latency_sensitive: false,
                    seq: 0,
                    ack: 0,
                },
                kind: PacketKind::Small {
                    msg,
                    match_info: send.match_info,
                    len: send.len,
                },
            };
            self.counters.eager_sent.incr();
            self.finalize_eager_and_push(now, ct, pkt, actions);
            self.counters.send_completions.incr();
            actions.push(DriverAction::SendComplete {
                ep: send.ep,
                handle: send.handle,
            });
        } else if send.len <= MEDIUM_MAX {
            let count = frag_count(send.len, self.cfg.mtu);
            let per = medium_frag_payload(self.cfg.mtu);
            for frag in 0..count {
                let frag_len = if frag + 1 == count {
                    send.len - per * (count - 1)
                } else {
                    per
                };
                let pkt = Packet {
                    hdr: OmxHeader {
                        src,
                        dst: send.dst,
                        latency_sensitive: false,
                        seq: 0,
                        ack: 0,
                    },
                    kind: PacketKind::MediumFrag {
                        msg,
                        match_info: send.match_info,
                        frag,
                        frag_count: count,
                        frag_len,
                        total_len: send.len,
                    },
                };
                self.counters.eager_sent.incr();
                self.finalize_eager_and_push(now, ct, pkt, actions);
            }
            self.counters.send_completions.incr();
            actions.push(DriverAction::SendComplete {
                ep: send.ep,
                handle: send.handle,
            });
        } else {
            // Large: rendezvous now; completion on notify.
            self.sends.insert(
                msg,
                LargeSend {
                    ep: send.ep,
                    handle: send.handle,
                    dst: send.dst,
                    len: send.len,
                },
            );
            let pkt = Packet {
                hdr: OmxHeader {
                    src,
                    dst: send.dst,
                    latency_sensitive: false,
                    seq: 0,
                    ack: 0,
                },
                kind: PacketKind::Rendezvous {
                    msg,
                    match_info: send.match_info,
                    total_len: send.len,
                },
            };
            self.counters.eager_sent.incr();
            self.finalize_eager_and_push(now, ct, pkt, actions);
        }
    }

    /// Assign a sequence number, apply marking + piggyback ack, record for
    /// retransmission, and emit.
    fn finalize_eager_and_push(
        &mut self,
        now: Time,
        ct: usize,
        mut pkt: Packet,
        actions: &mut Vec<DriverAction>,
    ) {
        // Marking must be applied before the packet is stored for
        // retransmission so a resent packet keeps its marker.
        self.cfg.marking.apply(&mut pkt);
        let conn = &mut self.conns[ct];
        conn.next_seq += 1;
        pkt.hdr.seq = conn.next_seq;
        conn.unacked.push_back((pkt.hdr.seq, pkt, now));
        self.finalize_and_push(ct, pkt, actions);
    }

    /// Apply marking + piggyback ack and emit (no sequencing — used for
    /// pull traffic, which has its own recovery). `ct` must index the
    /// (`pkt.hdr.src.endpoint`, `pkt.hdr.dst`) connection.
    fn finalize_and_push(&mut self, ct: usize, mut pkt: Packet, actions: &mut Vec<DriverAction>) {
        self.cfg.marking.apply(&mut pkt);
        debug_assert_eq!(self.conn_keys[ct], (pkt.hdr.src.endpoint, pkt.hdr.dst));
        let conn = &mut self.conns[ct];
        // Piggyback the reverse-direction cumulative ack.
        pkt.hdr.ack = conn.cum_recv;
        conn.unacked_rx = 0;
        conn.ack_deadline = None;
        // Also covers `finalize_eager_and_push`, which queues the packet as
        // unacked before calling here.
        self.refresh_deadline(ct);
        actions.push(DriverAction::Transmit(pkt));
    }

    // -- ack handling ------------------------------------------------------------

    fn process_ack(&mut self, now: Time, ct: usize, ack: u64, actions: &mut Vec<DriverAction>) {
        let window = self.cfg.window_packets;
        let mtu = self.cfg.mtu;
        let mut released = std::mem::take(&mut self.scratch.released);
        released.clear();
        let conn = &mut self.conns[ct];
        if ack > conn.acked {
            conn.acked = ack;
            while conn.unacked.front().is_some_and(|(seq, _, _)| *seq <= ack) {
                conn.unacked.pop_front();
            }
            // Release queued sends that now fit the window.
            let mut inflight = conn.unacked.len() as u32;
            while let Some(front) = conn.queued.front() {
                let need = window_cost(front.len, mtu);
                if inflight + need > window {
                    break;
                }
                inflight += need;
                released.push(conn.queued.pop_front().expect("front exists"));
            }
            self.refresh_deadline(ct);
        }
        // Released sends were queued on this very connection, so `ct` is
        // the right index for their sequencing.
        for send in released.drain(..) {
            self.emit_send(now, send, ct, actions);
        }
        self.scratch.released = released;
    }

    /// The per-connection sequence window: the only duplicate suppression
    /// for eager packets. Every Small, MediumFrag, Rendezvous and Notify
    /// packet carries a sequence number, and a retransmit resends the
    /// stored packet, so a replay of any of them is rejected here.
    fn accept_eager_seq(&mut self, ct: usize, seq: u64) -> bool {
        let conn = &mut self.conns[ct];
        if seq <= conn.cum_recv || conn.recv_above.contains(&seq) {
            return false;
        }
        // In order: advance without touching the reorder buffer.
        if seq == conn.cum_recv + 1 {
            conn.cum_recv = seq;
        } else {
            conn.recv_above.insert(seq);
        }
        while conn.recv_above.remove(&(conn.cum_recv + 1)) {
            conn.cum_recv += 1;
        }
        true
    }

    fn bump_rx_ack(
        &mut self,
        now: Time,
        ep: u8,
        remote: EndpointAddr,
        ct: usize,
        actions: &mut Vec<DriverAction>,
    ) {
        let conn = &mut self.conns[ct];
        conn.unacked_rx += 1;
        if conn.unacked_rx >= self.cfg.ack_every {
            self.send_standalone_ack(ep, remote, ct, actions);
        } else if conn.ack_deadline.is_none() {
            conn.ack_deadline = Some(now + self.delayed_ack);
            self.refresh_deadline(ct);
        }
    }

    fn send_standalone_ack(
        &mut self,
        ep: u8,
        remote: EndpointAddr,
        ct: usize,
        actions: &mut Vec<DriverAction>,
    ) {
        let conn = &mut self.conns[ct];
        conn.unacked_rx = 0;
        conn.ack_deadline = None;
        let cum = conn.cum_recv;
        self.refresh_deadline(ct);
        let pkt = Packet {
            hdr: OmxHeader {
                src: self.addr(ep),
                dst: remote,
                latency_sensitive: false,
                seq: 0,
                ack: cum,
            },
            kind: PacketKind::Ack {
                cumulative_seq: cum,
            },
        };
        self.counters.acks_sent.incr();
        actions.push(DriverAction::Transmit(pkt));
    }

    // -- receive path ------------------------------------------------------------

    fn rx_small(
        &mut self,
        ep: u8,
        src: EndpointAddr,
        msg: MsgId,
        match_info: u64,
        len: u32,
        actions: &mut Vec<DriverAction>,
    ) {
        let incoming = UnexpectedMsg {
            src,
            msg,
            match_info,
            len,
        };
        if let Some(recv) = self.endpoints[ep as usize].matcher.incoming(incoming) {
            self.counters.recv_completions.incr();
            actions.push(DriverAction::RecvComplete {
                ep,
                handle: recv.handle,
                src,
                msg,
                match_info,
                len,
            });
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn rx_medium(
        &mut self,
        ep: u8,
        src: EndpointAddr,
        msg: MsgId,
        match_info: u64,
        frag_count: u32,
        total_len: u32,
        actions: &mut Vec<DriverAction>,
    ) {
        let key = (src, msg);
        // The fragment's one `mediums` probe: the first fragment inserts
        // the entry and performs the match.
        let m = self.mediums.entry(key).or_insert(MediumRx {
            ep,
            match_info,
            total_len,
            frag_count,
            received: 0,
            handle: None,
        });
        m.received += 1;
        if m.received == 1 {
            let incoming = UnexpectedMsg {
                src,
                msg,
                match_info,
                len: total_len,
            };
            if let Some(recv) = self.endpoints[ep as usize].matcher.incoming(incoming) {
                m.handle = Some(recv.handle);
            }
        }
        if m.complete() {
            self.finish_medium(key, actions);
        }
    }

    /// Deliver a complete medium message and drop its reassembly state.
    fn finish_medium(&mut self, key: MsgKey, actions: &mut Vec<DriverAction>) {
        let m = self.mediums.remove(&key).expect("medium in reassembly");
        self.counters.recv_completions.incr();
        actions.push(DriverAction::RecvComplete {
            ep: m.ep,
            handle: m.handle.expect("matched"),
            src: key.0,
            msg: key.1,
            match_info: m.match_info,
            len: m.total_len,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn rx_rendezvous(
        &mut self,
        now: Time,
        ep: u8,
        src: EndpointAddr,
        msg: MsgId,
        match_info: u64,
        total_len: u32,
        actions: &mut Vec<DriverAction>,
    ) {
        // The sequence window already rejected any replay of this packet.
        debug_assert!(!self.pulls.contains_key(&(src, msg)));
        let incoming = UnexpectedMsg {
            src,
            msg,
            match_info,
            len: total_len,
        };
        if let Some(recv) = self.endpoints[ep as usize].matcher.incoming(incoming) {
            self.begin_pull(
                now,
                ep,
                src,
                msg,
                match_info,
                total_len,
                recv.handle,
                actions,
            );
        }
        // Unmatched rendezvous sits in the unexpected queue; the pull starts
        // when a matching receive is posted (claim_unexpected).
    }

    #[allow(clippy::too_many_arguments)]
    fn begin_pull(
        &mut self,
        now: Time,
        ep: u8,
        src: EndpointAddr,
        msg: MsgId,
        match_info: u64,
        total_len: u32,
        handle: u64,
        actions: &mut Vec<DriverAction>,
    ) {
        let total_frames = pull_frame_count(total_len, self.cfg.mtu);
        let total_blocks = total_frames.div_ceil(PULL_BLOCK_FRAMES);
        let mut pull = PullRx {
            ep,
            handle,
            match_info,
            total_len,
            total_frames,
            total_blocks,
            block_frames: vec![0; total_blocks as usize],
            next_block: 0,
            blocks_done: 0,
            last_progress: now,
        };
        let first_wave = total_blocks.min(PULL_PIPELINE);
        let mut requests = std::mem::take(&mut self.scratch.pkts);
        requests.clear();
        for block in 0..first_wave {
            requests.push(Packet {
                hdr: OmxHeader {
                    src: self.addr(ep),
                    dst: src,
                    latency_sensitive: false,
                    seq: 0,
                    ack: 0,
                },
                kind: PacketKind::PullRequest {
                    msg,
                    block,
                    frame_count: pull.frames_in_block(block),
                },
            });
        }
        pull.next_block = first_wave;
        self.pulls.insert((src, msg), pull);
        let ct = self.conn_idx(ep, src);
        for pkt in requests.drain(..) {
            self.finalize_and_push(ct, pkt, actions);
        }
        self.scratch.pkts = requests;
    }

    #[allow(clippy::too_many_arguments)]
    fn rx_pull_request(
        &mut self,
        ep: u8,
        src: EndpointAddr,
        ct: usize,
        msg: MsgId,
        block: u32,
        frame_count: u32,
        actions: &mut Vec<DriverAction>,
    ) {
        // We are the *sender* of the large message; answer with data frames.
        let Some(send) = self.sends.get(&msg) else {
            // Unknown (already completed): stale re-request; ignore.
            self.counters.duplicates.incr();
            return;
        };
        debug_assert_eq!(send.dst, src, "pull request from unexpected peer");
        let total_len = send.len;
        let per = pull_frame_payload(self.cfg.mtu);
        let total_frames = pull_frame_count(total_len, self.cfg.mtu);
        let base_frame = block * PULL_BLOCK_FRAMES;
        let mut replies = std::mem::take(&mut self.scratch.pkts);
        replies.clear();
        for frame in 0..frame_count {
            let global = base_frame + frame;
            debug_assert!(global < total_frames);
            let frame_len = if global + 1 == total_frames {
                total_len - per * (total_frames - 1)
            } else {
                per
            };
            replies.push(Packet {
                hdr: OmxHeader {
                    src: self.addr(ep),
                    dst: src,
                    latency_sensitive: false,
                    seq: 0,
                    ack: 0,
                },
                kind: PacketKind::PullReply {
                    msg,
                    block,
                    frame,
                    frame_len,
                    last_of_block: frame + 1 == frame_count,
                },
            });
        }
        for pkt in replies.drain(..) {
            self.finalize_and_push(ct, pkt, actions);
        }
        self.scratch.pkts = replies;
    }

    #[allow(clippy::too_many_arguments)]
    fn rx_pull_reply(
        &mut self,
        now: Time,
        ep: u8,
        src: EndpointAddr,
        ct: usize,
        msg: MsgId,
        block: u32,
        actions: &mut Vec<DriverAction>,
    ) {
        let key = (src, msg);
        let Some(pull) = self.pulls.get_mut(&key) else {
            self.counters.duplicates.incr();
            return;
        };
        pull.last_progress = now;
        let expect = pull.frames_in_block(block);
        let got = &mut pull.block_frames[block as usize];
        if *got >= expect {
            // Duplicate frame within a re-requested block; ignore.
            return;
        }
        *got += 1;
        let block_complete = *got == expect;
        if block_complete {
            pull.blocks_done += 1;
        }
        let all_done = pull.blocks_done == pull.total_blocks;
        let next_block = if block_complete && pull.next_block < pull.total_blocks {
            let b = pull.next_block;
            pull.next_block += 1;
            Some((b, pull.frames_in_block(b)))
        } else {
            None
        };
        if let Some((b, fc)) = next_block {
            let pkt = Packet {
                hdr: OmxHeader {
                    src: self.addr(ep),
                    dst: src,
                    latency_sensitive: false,
                    seq: 0,
                    ack: 0,
                },
                kind: PacketKind::PullRequest {
                    msg,
                    block: b,
                    frame_count: fc,
                },
            };
            self.finalize_and_push(ct, pkt, actions);
        }
        if all_done {
            let pull = self.pulls.remove(&key).expect("pull in progress");
            // Notify the sender, then complete the receive.
            let notify = Packet {
                hdr: OmxHeader {
                    src: self.addr(ep),
                    dst: src,
                    latency_sensitive: false,
                    seq: 0,
                    ack: 0,
                },
                kind: PacketKind::Notify { msg },
            };
            self.counters.eager_sent.incr();
            self.finalize_eager_and_push(now, ct, notify, actions);
            self.counters.recv_completions.incr();
            actions.push(DriverAction::RecvComplete {
                ep: pull.ep,
                handle: pull.handle,
                src,
                msg,
                match_info: pull.match_info,
                len: pull.total_len,
            });
        }
    }

    fn rx_notify(&mut self, msg: MsgId, actions: &mut Vec<DriverAction>) {
        if let Some(send) = self.sends.remove(&msg) {
            self.counters.send_completions.incr();
            actions.push(DriverAction::SendComplete {
                ep: send.ep,
                handle: send.handle,
            });
        } else {
            self.counters.duplicates.incr();
        }
    }

    fn claim_unexpected(
        &mut self,
        now: Time,
        ep: u8,
        handle: u64,
        unexpected: UnexpectedMsg,
        actions: &mut Vec<DriverAction>,
    ) {
        let key = (unexpected.src, unexpected.msg);
        if unexpected.len <= SMALL_MAX {
            self.counters.recv_completions.incr();
            actions.push(DriverAction::RecvComplete {
                ep,
                handle,
                src: unexpected.src,
                msg: unexpected.msg,
                match_info: unexpected.match_info,
                len: unexpected.len,
            });
        } else if unexpected.len <= MEDIUM_MAX {
            if let Some(m) = self.mediums.get_mut(&key) {
                m.handle = Some(handle);
                if m.complete() {
                    self.finish_medium(key, actions);
                }
            }
        } else {
            self.begin_pull(
                now,
                ep,
                unexpected.src,
                unexpected.msg,
                unexpected.match_info,
                unexpected.len,
                handle,
                actions,
            );
        }
    }

    /// Enumerate protocol state that has not reached its terminal phase —
    /// the sim sanitizer's no-stranded-message watchdog. Every entry names
    /// the stuck message's key and phase. Messages waiting only on the
    /// application (a complete medium or an unexpected small/rendezvous
    /// with no posted receive) are *not* listed: the protocol has done its
    /// part and the driver holds them indefinitely by design.
    pub fn pending_report(&self, out: &mut Vec<PendingEntry>) {
        let mut order: Vec<usize> = (0..self.conns.len()).collect();
        self.sort_conns(&mut order);
        for ct in order {
            let (ep, remote) = self.conn_keys[ct];
            let conn = &self.conns[ct];
            for send in &conn.queued {
                out.push(PendingEntry {
                    phase: "window-queued",
                    detail: format!(
                        "node {} ep {ep} -> {:?}: handle {} len {} waiting for window credits",
                        self.local, remote, send.handle, send.len
                    ),
                });
            }
            if let Some((seq, _, sent_at)) = conn.unacked.front() {
                out.push(PendingEntry {
                    phase: "awaiting-ack",
                    detail: format!(
                        "node {} ep {ep} -> {:?}: {} unacked eager packet(s), oldest seq {} sent at {}",
                        self.local,
                        remote,
                        conn.unacked.len(),
                        seq,
                        sent_at
                    ),
                });
            }
        }
        let mut larges: Vec<(u64, String)> = self
            .sends
            .iter()
            .map(|(msg, s)| {
                (
                    msg.0,
                    format!(
                        "node {} msg {} ep {} -> {:?}: large send of {} B awaiting notify",
                        self.local, msg.0, s.ep, s.dst, s.len
                    ),
                )
            })
            .collect();
        larges.sort_unstable();
        out.extend(larges.into_iter().map(|(_, detail)| PendingEntry {
            phase: "awaiting-notify",
            detail,
        }));
        let mut mediums: Vec<(u64, String)> = self
            .mediums
            .iter()
            .filter(|(_, m)| m.received < m.frag_count)
            .map(|(&(src, msg), m)| {
                (
                    msg.0,
                    format!(
                        "node {} msg {} from {src:?}: medium reassembly stuck at {}/{} fragments",
                        self.local, msg.0, m.received, m.frag_count
                    ),
                )
            })
            .collect();
        mediums.sort_unstable();
        out.extend(mediums.into_iter().map(|(_, detail)| PendingEntry {
            phase: "medium-reassembly",
            detail,
        }));
        for (&(src, msg), p) in &self.pulls {
            out.push(PendingEntry {
                phase: "pull",
                detail: format!(
                    "node {} msg {} from {src:?}: pull stuck at {}/{} blocks ({} frames expected)",
                    self.local, msg.0, p.blocks_done, p.total_blocks, p.total_frames
                ),
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    /// The actions one `_into` driver call emits.
    fn collect_actions(call: impl FnOnce(&mut Vec<DriverAction>)) -> Vec<DriverAction> {
        let mut actions = Vec::new();
        call(&mut actions);
        actions
    }

    /// Drive two drivers against each other, instantly delivering packets.
    /// Returns all non-transmit actions seen on each side.
    fn pump(
        a: &mut NodeDriver,
        b: &mut NodeDriver,
        mut pending: Vec<(u16, Packet)>, // (destination node, packet)
        now: Time,
    ) -> (Vec<DriverAction>, Vec<DriverAction>) {
        let mut out_a = Vec::new();
        let mut out_b = Vec::new();
        let mut guard = 0;
        while let Some((dst, pkt)) = pending.pop() {
            guard += 1;
            assert!(guard < 100_000, "protocol livelock");
            let target = if dst == a.node() { &mut *a } else { &mut *b };
            let actions = collect_actions(|out| target.handle_packet_into(now, pkt, out));
            let sink = if dst == a.node() {
                &mut out_a
            } else {
                &mut out_b
            };
            for act in actions {
                match act {
                    DriverAction::Transmit(p) => pending.push((p.hdr.dst.node.0, p)),
                    other => sink.push(other),
                }
            }
        }
        (out_a, out_b)
    }

    fn split_transmits(actions: Vec<DriverAction>) -> (Vec<Packet>, Vec<DriverAction>) {
        let mut pkts = Vec::new();
        let mut rest = Vec::new();
        for a in actions {
            match a {
                DriverAction::Transmit(p) => pkts.push(p),
                other => rest.push(other),
            }
        }
        (pkts, rest)
    }

    fn pair() -> (NodeDriver, NodeDriver) {
        (
            NodeDriver::new(0, 1, ProtoConfig::default()),
            NodeDriver::new(1, 1, ProtoConfig::default()),
        )
    }

    fn t0() -> Time {
        Time::from_micros(1)
    }

    #[test]
    fn small_message_end_to_end() {
        let (mut a, mut b) = pair();
        collect_actions(|out| b.post_recv_into(t0(), 0, 7, !0, 100, out));
        let actions = collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 64, 7, 200, out)
        });
        let (pkts, rest) = split_transmits(actions);
        assert_eq!(pkts.len(), 1);
        assert!(pkts[0].hdr.latency_sensitive, "small messages are marked");
        assert_eq!(pkts[0].hdr.seq, 1);
        assert!(matches!(
            rest[0],
            DriverAction::SendComplete { handle: 200, .. }
        ));
        let (_, recv_side) = pump(&mut a, &mut b, vec![(1, pkts[0])], t0());
        assert!(matches!(
            recv_side[0],
            DriverAction::RecvComplete {
                handle: 100,
                len: 64,
                ..
            }
        ));
    }

    /// Deliver the first `before` packets of a `len`-byte send, then post
    /// the receive, then deliver the rest. The receive completes exactly
    /// once, with the posted handle, and inside `post_recv` itself when
    /// every eager packet arrived first.
    fn assert_unexpected_then_posted(len: u32, before: usize) {
        let (mut a, mut b) = pair();
        let (pkts, _) = split_transmits(collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), len, 9, 1, out)
        }));
        assert!(before <= pkts.len(), "{len} B sends {} packets", pkts.len());
        let (early, late) = pkts.split_at(before);
        let addressed = |pkts: &[Packet]| -> Vec<(u16, Packet)> {
            pkts.iter().map(|p| (p.hdr.dst.node.0, *p)).collect()
        };
        let (_, recv_side) = pump(&mut a, &mut b, addressed(early), t0());
        assert!(recv_side.is_empty(), "{len} B: no receive posted yet");

        let (tx, at_post) = split_transmits(collect_actions(|out| {
            b.post_recv_into(t0(), 0, 9, !0, 55, out)
        }));
        let mut pending = addressed(&tx);
        pending.extend(addressed(late));
        let (_, after_post) = pump(&mut a, &mut b, pending, t0());
        let handles = |acts: &[DriverAction]| -> Vec<u64> {
            acts.iter()
                .filter_map(|act| match *act {
                    DriverAction::RecvComplete { handle, len: l, .. } => {
                        assert_eq!(l, len);
                        Some(handle)
                    }
                    _ => None,
                })
                .collect()
        };
        let (at_post, after_post) = (handles(&at_post), handles(&after_post));
        let eager_all_early = late.is_empty() && len <= MEDIUM_MAX;
        assert_eq!(
            at_post.len(),
            usize::from(eager_all_early),
            "{len} B, {before} packet(s) before the post: {at_post:?}"
        );
        assert_eq!(
            [at_post, after_post].concat(),
            [55],
            "{len} B, {before} packet(s) before the post"
        );
    }

    #[test]
    fn small_message_unexpected_then_posted() {
        // Small; 8 KiB medium (6 fragments) with all or half of it early;
        // 234 KiB large whose rendezvous arrives before the post.
        for (len, before) in [(32, 1), (8 * 1024, 6), (8 * 1024, 3), (234 * 1024, 1)] {
            assert_unexpected_then_posted(len, before);
        }
    }

    #[test]
    fn medium_message_fragments_and_completes() {
        let (mut a, mut b) = pair();
        collect_actions(|out| b.post_recv_into(t0(), 0, 1, !0, 9, out));
        let actions = collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 32 * 1024, 1, 10, out)
        });
        let (pkts, _) = split_transmits(actions);
        assert_eq!(pkts.len(), 23, "32 KiB at MTU 1500 = 23 fragments");
        // Only the last fragment is marked.
        let marks: Vec<bool> = pkts.iter().map(|p| p.hdr.latency_sensitive).collect();
        assert!(!marks[..22].iter().any(|&m| m));
        assert!(marks[22]);
        let deliveries: Vec<(u16, Packet)> = pkts.iter().map(|p| (1, *p)).collect();
        let (_, recv_side) = pump(&mut a, &mut b, deliveries, t0());
        assert_eq!(
            recv_side
                .iter()
                .filter(|a| matches!(a, DriverAction::RecvComplete { .. }))
                .count(),
            1
        );
    }

    #[test]
    fn medium_message_tolerates_reordered_fragments() {
        let (mut a, mut b) = pair();
        collect_actions(|out| b.post_recv_into(t0(), 0, 1, !0, 9, out));
        let actions = collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 8 * 1024, 1, 10, out)
        });
        let (mut pkts, _) = split_transmits(actions);
        pkts.reverse(); // worst-case mis-ordering
        let deliveries: Vec<(u16, Packet)> = pkts.iter().map(|p| (1, *p)).collect();
        let (_, recv_side) = pump(&mut a, &mut b, deliveries, t0());
        assert!(recv_side
            .iter()
            .any(|a| matches!(a, DriverAction::RecvComplete { len: 8192, .. })));
    }

    #[test]
    fn large_message_pull_protocol_end_to_end() {
        let (mut a, mut b) = pair();
        collect_actions(|out| b.post_recv_into(t0(), 0, 3, !0, 77, out));
        let len = 234 * 1024;
        let actions = collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), len, 3, 88, out)
        });
        let (pkts, rest) = split_transmits(actions);
        assert_eq!(pkts.len(), 1, "only the rendezvous goes out first");
        assert!(matches!(pkts[0].kind, PacketKind::Rendezvous { .. }));
        assert!(pkts[0].hdr.latency_sensitive);
        assert!(rest.is_empty(), "large send completes only on notify");

        let (sender_side, recv_side) = pump(&mut a, &mut b, vec![(1, pkts[0])], t0());
        assert!(
            matches!(recv_side[0], DriverAction::RecvComplete { handle: 77, len: l, .. } if l == len)
        );
        assert!(matches!(
            sender_side[0],
            DriverAction::SendComplete { handle: 88, .. }
        ));
    }

    #[test]
    fn pull_request_counts_match_paper() {
        // 234 KiB: 5 blocks of 32 frames, 162 packets total (§IV-C3).
        let (mut a, mut b) = pair();
        collect_actions(|out| b.post_recv_into(t0(), 0, 3, !0, 77, out));
        let actions = collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 234 * 1024, 3, 88, out)
        });
        let (pkts, _) = split_transmits(actions);

        // Count every packet moved until quiescence.
        let mut pending: Vec<(u16, Packet)> = vec![(1, pkts[0])];
        let mut counts: HashMap<&'static str, u32> = HashMap::new();
        while let Some((dst, pkt)) = pending.pop() {
            let label = match pkt.kind {
                PacketKind::Rendezvous { .. } => "rendezvous",
                PacketKind::PullRequest { .. } => "request",
                PacketKind::PullReply { .. } => "reply",
                PacketKind::Notify { .. } => "notify",
                PacketKind::Ack { .. } => "ack",
                _ => "other",
            };
            *counts.entry(label).or_default() += 1;
            let target = if dst == 0 { &mut a } else { &mut b };
            for act in collect_actions(|out| target.handle_packet_into(t0(), pkt, out)) {
                if let DriverAction::Transmit(p) = act {
                    pending.push((p.hdr.dst.node.0, p));
                }
            }
        }
        assert_eq!(counts["rendezvous"], 1);
        assert_eq!(counts["request"], 5);
        assert_eq!(counts["reply"], 160);
        assert_eq!(counts["notify"], 1);
    }

    #[test]
    fn pull_reply_marking_last_of_each_block() {
        let (mut a, mut b) = pair();
        collect_actions(|out| b.post_recv_into(t0(), 0, 3, !0, 77, out));
        let actions = collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 234 * 1024, 3, 88, out)
        });
        let (pkts, _) = split_transmits(actions);
        let mut pending: Vec<(u16, Packet)> = vec![(1, pkts[0])];
        let mut marked_replies = 0;
        let mut replies = 0;
        while let Some((dst, pkt)) = pending.pop() {
            if matches!(pkt.kind, PacketKind::PullReply { .. }) {
                replies += 1;
                if pkt.hdr.latency_sensitive {
                    marked_replies += 1;
                }
            }
            let target = if dst == 0 { &mut a } else { &mut b };
            for act in collect_actions(|out| target.handle_packet_into(t0(), pkt, out)) {
                if let DriverAction::Transmit(p) = act {
                    pending.push((p.hdr.dst.node.0, p));
                }
            }
        }
        assert_eq!(replies, 160);
        assert_eq!(marked_replies, 5, "one marked reply per block");
    }

    #[test]
    fn window_queues_and_releases_on_ack() {
        let cfg = ProtoConfig {
            window_packets: 2,
            ack_every: 1, // receiver acks every packet
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 1, cfg);
        let mut b = NodeDriver::new(1, 1, cfg);
        let dst = EndpointAddr::new(1, 0);
        // Three sends of one packet each against a window of two.
        let (p1, _) = split_transmits(collect_actions(|out| {
            a.post_send_into(t0(), 0, dst, 8, 1, 1, out)
        }));
        let (p2, _) = split_transmits(collect_actions(|out| {
            a.post_send_into(t0(), 0, dst, 8, 2, 2, out)
        }));
        let (p3, r3) = split_transmits(collect_actions(|out| {
            a.post_send_into(t0(), 0, dst, 8, 3, 3, out)
        }));
        assert_eq!(p1.len() + p2.len(), 2);
        assert!(p3.is_empty(), "third send is window-blocked");
        assert!(r3.is_empty(), "no premature completion");

        // Deliver the first packet; the ack releases the queued send.
        let acts = collect_actions(|out| b.handle_packet_into(t0(), p1[0], out));
        let (acks, _) = split_transmits(acts);
        assert_eq!(acks.len(), 1, "standalone ack");
        let release = collect_actions(|out| a.handle_packet_into(t0(), acks[0], out));
        let (released, comps) = split_transmits(release);
        assert_eq!(released.len(), 1, "queued send released");
        assert!(matches!(
            released[0].kind,
            PacketKind::Small { match_info: 3, .. }
        ));
        assert!(comps
            .iter()
            .any(|c| matches!(c, DriverAction::SendComplete { handle: 3, .. })));
    }

    /// Run one `len`-byte message from `a` to `b` to completion, then replay
    /// every sequenced packet it used. The sequence window must drop each
    /// replay: no second completion, no new pull, one duplicate apiece.
    fn assert_replays_after_completion_dropped(len: u32) {
        let (mut a, mut b) = pair();
        collect_actions(|out| b.post_recv_into(t0(), 0, 7, !0, 100, out));
        let (first, rest) = split_transmits(collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), len, 7, 1, out)
        }));
        let mut pending: VecDeque<Packet> = first.into();
        let mut sequenced = Vec::new();
        let mut completions = rest.len();
        while let Some(pkt) = pending.pop_front() {
            if pkt.hdr.seq != 0 {
                sequenced.push(pkt);
            }
            let target = if pkt.hdr.dst.node.0 == 0 {
                &mut a
            } else {
                &mut b
            };
            for act in collect_actions(|out| target.handle_packet_into(t0(), pkt, out)) {
                match act {
                    DriverAction::Transmit(p) => pending.push_back(p),
                    _ => completions += 1,
                }
            }
        }
        assert_eq!(
            completions, 2,
            "{len} B: one send and one receive completion"
        );
        assert!(!sequenced.is_empty());
        for pkt in sequenced {
            let target = if pkt.hdr.dst.node.0 == 0 {
                &mut a
            } else {
                &mut b
            };
            let before = target.counters().duplicates.get();
            for act in collect_actions(|out| target.handle_packet_into(t0(), pkt, out)) {
                assert!(
                    matches!(act, DriverAction::Transmit(_)),
                    "{len} B: replayed {:?} completed again",
                    pkt.kind
                );
                assert!(
                    !matches!(
                        act,
                        DriverAction::Transmit(Packet {
                            kind: PacketKind::PullRequest { .. },
                            ..
                        })
                    ),
                    "{len} B: replayed {:?} restarted the pull",
                    pkt.kind
                );
            }
            assert_eq!(
                target.counters().duplicates.get(),
                before + 1,
                "{len} B: replayed {:?} not counted as one duplicate",
                pkt.kind
            );
        }
    }

    #[test]
    fn duplicate_eager_packet_is_suppressed() {
        // Small, medium (6 fragments) and large (rendezvous + notify).
        for len in [16, 8 * 1024, 234 * 1024] {
            assert_replays_after_completion_dropped(len);
        }
    }

    #[test]
    fn in_order_fast_path_keeps_reorder_gauge_exact() {
        let (mut a, mut b) = pair();
        let dst = EndpointAddr::new(1, 0);
        let pkts: Vec<Packet> = (0..4)
            .flat_map(|i| {
                collect_actions(|out| b.post_recv_into(t0(), 0, i, !0, 100 + i, out));
                split_transmits(collect_actions(|out| {
                    a.post_send_into(t0(), 0, dst, 16, i, i, out)
                }))
                .0
            })
            .collect();
        assert_eq!(
            pkts.iter().map(|p| p.hdr.seq).collect::<Vec<_>>(),
            [1, 2, 3, 4]
        );
        let recv_completions = |acts: Vec<DriverAction>| {
            acts.iter()
                .filter(|a| matches!(a, DriverAction::RecvComplete { .. }))
                .count()
        };
        let mut depths = Vec::new();
        let mut completed = 0;
        for i in [0, 2, 1, 3] {
            completed += recv_completions(collect_actions(|out| {
                b.handle_packet_into(t0(), pkts[i], out)
            }));
            depths.push(b.reorder_depth());
        }
        assert_eq!(depths, [0, 1, 0, 0]);
        assert_eq!(completed, 4);
        let dups = b.counters().duplicates.get();
        for i in [1, 2] {
            assert_eq!(
                recv_completions(collect_actions(|out| b.handle_packet_into(
                    t0(),
                    pkts[i],
                    out
                ))),
                0
            );
        }
        assert_eq!(b.counters().duplicates.get(), dups + 2);
        assert_eq!(b.reorder_depth(), 0);
    }

    #[test]
    fn retransmit_fires_after_rto() {
        let cfg = ProtoConfig {
            rto_ns: 1_000_000,
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 1, cfg);
        let (pkts, _) = split_transmits(collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 16, 7, 1, out)
        }));
        assert_eq!(pkts.len(), 1);
        // No ack ever arrives; fire the timer after the RTO.
        let later = t0() + TimeDelta::from_millis(2);
        let acts = collect_actions(|out| a.on_timer_into(later, out));
        let (resent, _) = split_transmits(acts);
        assert_eq!(resent.len(), 1);
        assert_eq!(resent[0].hdr.seq, pkts[0].hdr.seq);
        assert_eq!(a.counters().eager_retransmits.get(), 1);
    }

    #[test]
    fn delayed_ack_fires_on_timer() {
        let cfg = ProtoConfig {
            ack_every: 100, // force the delayed path
            delayed_ack_ns: 50_000,
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 1, cfg);
        let mut b = NodeDriver::new(1, 1, cfg);
        collect_actions(|out| b.post_recv_into(t0(), 0, 7, !0, 1, out));
        let (pkts, _) = split_transmits(collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 16, 7, 1, out)
        }));
        let acts = collect_actions(|out| b.handle_packet_into(t0(), pkts[0], out));
        let (tx, _) = split_transmits(acts);
        assert!(tx.is_empty(), "ack is delayed");
        let deadline = b.next_deadline().expect("delayed-ack deadline");
        let acts = collect_actions(|out| b.on_timer_into(deadline, out));
        let (tx, _) = split_transmits(acts);
        assert_eq!(tx.len(), 1);
        assert!(matches!(tx[0].kind, PacketKind::Ack { cumulative_seq: 1 }));
    }

    #[test]
    fn acks_are_never_marked_and_carry_no_seq() {
        let cfg = ProtoConfig {
            ack_every: 1,
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 1, cfg);
        let mut b = NodeDriver::new(1, 1, cfg);
        collect_actions(|out| b.post_recv_into(t0(), 0, 7, !0, 1, out));
        let (pkts, _) = split_transmits(collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 16, 7, 1, out)
        }));
        let acts = collect_actions(|out| b.handle_packet_into(t0(), pkts[0], out));
        let (tx, _) = split_transmits(acts);
        assert_eq!(tx.len(), 1);
        assert!(!tx[0].hdr.latency_sensitive);
        assert_eq!(tx[0].hdr.seq, 0);
    }

    #[test]
    fn lost_pull_block_is_rerequested() {
        let cfg = ProtoConfig {
            rto_ns: 1_000_000,
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 1, cfg);
        let mut b = NodeDriver::new(1, 1, cfg);
        collect_actions(|out| b.post_recv_into(t0(), 0, 3, !0, 77, out));
        let (pkts, _) = split_transmits(collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 100 * 1024, 3, 88, out)
        }));
        // Deliver the rendezvous; capture the pull requests and DROP them all.
        let acts = collect_actions(|out| b.handle_packet_into(t0(), pkts[0], out));
        let (reqs, _) = split_transmits(acts);
        assert!(!reqs.is_empty());
        // Fire the receiver's timer after the RTO: blocks are re-requested.
        let later = t0() + TimeDelta::from_millis(2);
        let acts = collect_actions(|out| b.on_timer_into(later, out));
        let (tx, _) = split_transmits(acts);
        // The same timer may also flush the delayed ack of the rendezvous;
        // count only the pull requests.
        let rereqs: Vec<Packet> = tx
            .into_iter()
            .filter(|p| matches!(p.kind, PacketKind::PullRequest { .. }))
            .collect();
        assert_eq!(
            rereqs.len(),
            reqs.len(),
            "all in-flight blocks re-requested"
        );
        assert!(b.counters().pull_rerequests.get() >= 1);
        // Deliver the re-requests: transfer completes normally.
        let deliveries: Vec<(u16, Packet)> = rereqs.iter().map(|p| (0, *p)).collect();
        let (sender_side, recv_side) = pump(&mut a, &mut b, deliveries, later);
        assert!(recv_side
            .iter()
            .any(|x| matches!(x, DriverAction::RecvComplete { .. })));
        assert!(sender_side
            .iter()
            .any(|x| matches!(x, DriverAction::SendComplete { .. })));
    }

    #[test]
    fn ack_share_of_small_stream_is_about_twenty_percent() {
        // §IV-C2: acks are "up to 20 % of the traffic" on a small stream.
        let cfg = ProtoConfig {
            ack_every: 5,
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 1, cfg);
        let mut b = NodeDriver::new(1, 1, cfg);
        let mut data = 0u32;
        let mut acks = 0u32;
        for i in 0..200 {
            collect_actions(|out| b.post_recv_into(t0(), 0, i, !0, i, out));
        }
        for i in 0..200 {
            let (pkts, _) = split_transmits(collect_actions(|out| {
                a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 64, i, i, out)
            }));
            for p in pkts {
                data += 1;
                let acts = collect_actions(|out| b.handle_packet_into(t0(), p, out));
                let (tx, _) = split_transmits(acts);
                for t in tx {
                    if matches!(t.kind, PacketKind::Ack { .. }) {
                        acks += 1;
                        // Feed the ack back so the window never blocks.
                        collect_actions(|out| a.handle_packet_into(t0(), t, out));
                    }
                }
            }
        }
        let share = acks as f64 / (acks + data) as f64;
        assert!(
            (0.14..=0.20).contains(&share),
            "ack share {share} not ~1/6 of total"
        );
    }

    /// A lone send whose only packet is lost must still be recoverable: the
    /// post itself has to leave a retransmit deadline, because with no
    /// reverse traffic nothing else ever will.
    #[test]
    fn lone_post_send_leaves_retransmit_deadline() {
        let (mut a, _) = pair();
        collect_actions(|out| a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 64, 7, 200, out));
        let deadline = a.next_deadline().expect("unacked packet has a deadline");
        // Drop the packet on the floor; the timer must retransmit it.
        let acts = collect_actions(|out| a.on_timer_into(deadline, out));
        let (pkts, _) = split_transmits(acts);
        assert_eq!(pkts.len(), 1, "retransmission of the lost packet");
        assert_eq!(a.counters().eager_retransmits.get(), 1);
    }

    /// A timeout resends only a bounded head burst (go-back-N pacing), not
    /// the whole unacked queue: blasting the full window into a small RX
    /// ring can livelock recovery (the burst's duplicate prefix claims every
    /// free slot each service cycle while the head-of-line gap is dropped).
    #[test]
    fn timeout_resends_only_the_head_burst() {
        let cfg = ProtoConfig {
            retx_burst: 4,
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 1, cfg);
        let dst = EndpointAddr::new(1, 0);
        for i in 0..20 {
            collect_actions(|out| a.post_send_into(t0(), 0, dst, 64, i, i, out));
        }
        let rto = TimeDelta::from_nanos(cfg.rto_ns);
        let fire = t0() + rto;
        let (resent, _) = split_transmits(collect_actions(|out| a.on_timer_into(fire, out)));
        assert_eq!(resent.len(), 4, "burst capped at retx_burst");
        let seqs: Vec<u64> = resent.iter().map(|p| p.hdr.seq).collect();
        assert_eq!(seqs, vec![1, 2, 3, 4], "oldest-first from the queue head");
        assert_eq!(a.counters().eager_retransmits.get(), 4);
        // The head was just refreshed: the very next deadline is a full RTO
        // out, derived from the head — stale tail send times must not pull
        // it backwards (that would spin the timer without resending).
        assert_eq!(a.next_deadline(), Some(fire + rto));
        let (again, _) = split_transmits(collect_actions(|out| {
            a.on_timer_into(fire + TimeDelta::from_micros(1), out)
        }));
        assert!(again.is_empty(), "head not overdue, nothing resent");
    }

    /// Once the resent head is cumulatively acked, the next (previously
    /// beyond-burst) packets become the head with their original stale send
    /// times, so the re-armed timer fires promptly and resends them: paced
    /// recovery makes progress burst by burst.
    #[test]
    fn acked_head_burst_clocks_out_the_next_burst() {
        let cfg = ProtoConfig {
            retx_burst: 4,
            ..ProtoConfig::default()
        };
        let mut a = NodeDriver::new(0, 1, cfg);
        let dst = EndpointAddr::new(1, 0);
        for i in 0..8 {
            collect_actions(|out| a.post_send_into(t0(), 0, dst, 64, i, i, out));
        }
        let rto = TimeDelta::from_nanos(cfg.rto_ns);
        let fire = t0() + rto;
        let (resent, _) = split_transmits(collect_actions(|out| a.on_timer_into(fire, out)));
        assert_eq!(resent.len(), 4);
        // Cumulative ack for the resent head (seqs 1-4).
        let ack = Packet {
            hdr: OmxHeader {
                src: dst,
                dst: EndpointAddr::new(0, 0),
                latency_sensitive: false,
                seq: 0,
                ack: 0,
            },
            kind: PacketKind::Ack { cumulative_seq: 4 },
        };
        collect_actions(|out| a.handle_packet_into(fire + TimeDelta::from_micros(50), ack, out));
        // Seqs 5-8 are now the head, still carrying their t0 send times:
        // the deadline is already past, and the next tick resends them.
        let next = a.next_deadline().expect("unacked remain");
        assert_eq!(next, t0() + rto, "stale head fires promptly");
        let (resent, _) = split_transmits(collect_actions(|out| {
            a.on_timer_into(fire + TimeDelta::from_micros(51), out)
        }));
        let seqs: Vec<u64> = resent.iter().map(|p| p.hdr.seq).collect();
        assert_eq!(seqs, vec![5, 6, 7, 8]);
    }

    #[test]
    #[should_panic(expected = "rto_ns")]
    fn oversized_rto_panics_with_clear_message() {
        let cfg = ProtoConfig {
            rto_ns: u64::MAX,
            ..ProtoConfig::default()
        };
        // Building the driver bounds rto_ns; u64::MAX exceeds the bound.
        let _ = NodeDriver::new(0, 1, cfg);
    }

    #[test]
    #[should_panic(expected = "delayed_ack_ns")]
    fn oversized_delayed_ack_panics_at_build() {
        let cfg = ProtoConfig {
            delayed_ack_ns: u64::MAX,
            ..ProtoConfig::default()
        };
        // Building the driver converts delayed_ack_ns, before any packet
        // arrives to arm an ack.
        let _ = NodeDriver::new(0, 1, cfg);
    }

    #[test]
    fn pending_report_names_key_and_phase() {
        let (mut a, mut b) = pair();
        assert!(report_of(&a).is_empty(), "fresh driver has nothing pending");

        // Unacked eager packet: drop it on the floor.
        collect_actions(|out| a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 64, 7, 200, out));
        let entries = report_of(&a);
        assert_eq!(entries.len(), 1, "{entries:?}");
        assert_eq!(entries[0].phase, "awaiting-ack");
        assert!(entries[0].detail.contains("seq 1"), "{}", entries[0].detail);

        // Large send: sender waits for the pull/notify handshake.
        let actions = collect_actions(|out| {
            a.post_send_into(t0(), 0, EndpointAddr::new(1, 0), 1 << 20, 8, 201, out)
        });
        let (pkts, _) = split_transmits(actions);
        assert!(report_of(&a)
            .iter()
            .any(|e| e.phase == "awaiting-notify" && e.detail.contains("1048576 B")));

        // Deliver the rendezvous with no posted receive: the receiver holds
        // it as unexpected — that is app-waiting, not stranded.
        for p in pkts {
            collect_actions(|out| b.handle_packet_into(t0(), p, out));
        }
        assert!(
            report_of(&b).is_empty(),
            "unexpected rendezvous is awaiting the app, not stranded: {:?}",
            report_of(&b)
        );

        // Posting the receive starts the pull; until replies arrive the
        // pull is pending on the receiver.
        collect_actions(|out| b.post_recv_into(t0(), 0, 0, 0, 300, out));
        assert!(report_of(&b)
            .iter()
            .any(|e| e.phase == "pull" && e.detail.contains("0/")));
    }

    fn report_of(d: &NodeDriver) -> Vec<PendingEntry> {
        let mut out = Vec::new();
        d.pending_report(&mut out);
        out
    }

    /// A one-packet small message from `src` to `dst` with sequence `seq`.
    fn small_pkt(src: EndpointAddr, dst: EndpointAddr, seq: u64) -> Packet {
        Packet {
            hdr: OmxHeader {
                src,
                dst,
                latency_sensitive: false,
                seq,
                ack: 0,
            },
            kind: PacketKind::Small {
                msg: MsgId(seq),
                match_info: 0,
                len: 8,
            },
        }
    }

    /// One timer firing emits every due delayed ack, then every overdue
    /// head's resend, each in `(local endpoint, remote)` order, whatever
    /// order the connections were first contacted in.
    #[test]
    fn timer_scans_emit_in_key_order() {
        let mut a = NodeDriver::new(0, 2, ProtoConfig::default());
        let local = |ep| EndpointAddr::new(0, ep);
        // Remote endpoint 3 is above this node's endpoint count.
        let (n5e0, n2e3, n2e1) = (
            EndpointAddr::new(5, 0),
            EndpointAddr::new(2, 3),
            EndpointAddr::new(2, 1),
        );
        let t = t0();
        // First contact out of key order: node 5 before node 2, local
        // endpoint 1 before 0. Both node-5 connections get an unacked head
        // sent at `t`.
        collect_actions(|out| a.post_send_into(t, 1, n5e0, 16, 0, 1, out));
        collect_actions(|out| a.handle_packet_into(t, small_pkt(n2e3, local(1), 1), out));
        collect_actions(|out| a.post_send_into(t, 0, n5e0, 16, 0, 2, out));
        collect_actions(|out| a.handle_packet_into(t, small_pkt(n2e1, local(0), 1), out));
        assert_eq!(a.conn_keys, [(1, n5e0), (1, n2e3), (0, n5e0), (0, n2e1)]);

        // Half an RTO later, (0, n2e1) sends a head that will not be
        // overdue, and every connection receives a packet that arms its
        // delayed ack (the send's piggyback cleared (0, n2e1)'s).
        let rto = a.rto;
        let mid = t + TimeDelta::from_nanos(rto.as_nanos() / 2);
        collect_actions(|out| a.post_send_into(mid, 0, n2e1, 16, 0, 3, out));
        for (src, ep, seq) in [(n5e0, 1, 1), (n5e0, 0, 1), (n2e1, 0, 2)] {
            collect_actions(|out| a.handle_packet_into(mid, small_pkt(src, local(ep), seq), out));
        }

        let acts = collect_actions(|out| a.on_timer_into(t + rto, out));
        let sent: Vec<(bool, u8, EndpointAddr)> = acts
            .iter()
            .map(|act| match act {
                DriverAction::Transmit(p) => (
                    matches!(p.kind, PacketKind::Ack { .. }),
                    p.hdr.src.endpoint,
                    p.hdr.dst,
                ),
                other => panic!("the timer emitted {other:?}"),
            })
            .collect();
        assert_eq!(
            sent,
            [
                (true, 0, n2e1),
                (true, 0, n5e0),
                (true, 1, n2e3),
                (true, 1, n5e0),
                (false, 0, n5e0),
                (false, 1, n5e0),
            ]
        );
        assert_eq!(a.counters().acks_sent.get(), 4);
        assert_eq!(a.counters().eager_retransmits.get(), 2);
    }

    /// `conn_idx` against an ordered-map model, over seeded keys on sparse
    /// remote nodes, on drivers with 1–4 endpoints.
    #[test]
    fn conn_lookup_is_stable_dense_and_reported_in_key_order() {
        let mut rng = omx_sim::rng::SimRng::new(28);
        for endpoints in 1..=4u8 {
            let mut d = NodeDriver::new(0, usize::from(endpoints), ProtoConfig::default());
            // Sixteen sparse nodes keep the key space small enough for
            // 500 draws to repeat keys.
            let nodes: Vec<u16> = (0..16).map(|_| rng.range_u64(0, 1024) as u16).collect();
            let mut model: BTreeMap<(u8, EndpointAddr), usize> = BTreeMap::new();
            for _ in 0..500 {
                let ep = rng.range_u64(0, u64::from(endpoints)) as u8;
                let node = nodes[rng.range_u64(0, 16) as usize];
                let remote = EndpointAddr::new(node, rng.range_u64(0, 8) as u8);
                let next = model.len();
                let want = *model.entry((ep, remote)).or_insert(next);
                assert_eq!(d.conn_idx(ep, remote), want, "key ({ep}, {remote:?})");
            }
            assert!(model.len() < 500, "no key repeated");
            assert_eq!(d.conns.len(), model.len());
            for (&key, &ct) in &model {
                assert_eq!(d.conn_keys[ct], key);
            }

            // An unacked send on each connection, posted in index order,
            // is reported in key order.
            for (ct, (ep, remote)) in d.conn_keys.clone().into_iter().enumerate() {
                collect_actions(|out| d.post_send_into(t0(), ep, remote, 16, 0, ct as u64, out));
            }
            assert_eq!(d.conns.len(), model.len(), "posting made no connection");
            let report = report_of(&d);
            assert_eq!(report.len(), model.len());
            for (entry, (ep, remote)) in report.iter().zip(model.keys()) {
                assert_eq!(entry.phase, "awaiting-ack");
                let head = format!("node 0 ep {ep} -> {remote:?}:");
                assert!(
                    entry.detail.starts_with(&head),
                    "{} !~ {head}",
                    entry.detail
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "local endpoint 2 out of range (2 endpoints)")]
    fn conn_lookup_rejects_an_unknown_local_endpoint() {
        let mut d = NodeDriver::new(0, 2, ProtoConfig::default());
        d.conn_idx(2, EndpointAddr::new(1, 0));
    }
}
