//! The cluster orchestrator.
//!
//! [`Cluster`] wires every substrate into one simulated testbed:
//!
//! ```text
//!   actor (application rank, pinned to a core)
//!     │ post_send / post_recv             ▲ completions (event ring poll)
//!     ▼                                   │
//!   NodeDriver (kernel)  ◄── receive handler runs in IRQ context
//!     │ Transmit                          ▲ batch of ready packets
//!     ▼                                   │
//!   Nic (DMA, coalescing) ── interrupt ─► Host (core, sleep, cache)
//!     │                                   ▲
//!     ▼ frames                            │ frames
//!   EthernetFabric (links, switch, disturbance)
//! ```
//!
//! [`Cluster::run`] is the event loop: it pops one event at a time and
//! dispatches it against the node it names. Wire frames in flight wait in
//! per-node inbound queues beside the event queue, keyed like events, and
//! the loop dispatches whichever key comes first. Every hardware and
//! software latency is charged through the [`omx_host::CostModel`], so the
//! paper's experiments are a matter of configuring strategy/routing/sleep
//! knobs and reading [`crate::metrics::ClusterMetrics`] back.
//!
//! Intra-node messages use the Open-MX shared-memory path (no NIC, no
//! interrupts), matching the paper's NAS runs where 8 of every 16 ranks are
//! co-located.

use crate::metrics::{ClusterMetrics, NodeMetrics};
use crate::proto::{DriverAction, NodeDriver, ProtoConfig};
use crate::sanitizer::{Sanitizer, SanitizerReport};
use crate::telemetry::{NodeTap, PortTap, Telemetry, TelemetryConfig};
use crate::trace::{TraceData, TraceKind, Tracer};
use crate::wire::{EndpointAddr, MsgId, NodeId, Packet, ETH_HEADER_BYTES, OMX_HEADER_BYTES};
use omx_fabric::{EthernetFabric, FabricConfig, PortId, TransmitOutcome};
use omx_host::{CoreId, Host, HostConfig};
use omx_nic::offload::{
    CollFrame, CollFrameKind, OffloadCollDesc, OffloadConfig, OffloadCounters, OffloadEmit,
    OffloadEngine,
};
use omx_nic::{CoalescingStrategy, DescId, DmaCompletion, Nic, NicConfig, NicOutcome, PacketMeta};
use omx_sim::rng::SimRng;
use omx_sim::stats::TimeWeighted;
use omx_sim::{
    EventQueue, InboundQueues, InboundStats, QueueStats, Source, StopCondition, Time, TimeDelta,
};
use std::any::Any;

// ---------------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------------

/// Complete, serialisable experiment configuration.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of nodes.
    pub nodes: usize,
    /// Endpoints (application attach points) per node; endpoint `i` is
    /// pinned to core `i % cores`.
    pub endpoints_per_node: usize,
    /// Host model (cores, sleep, routing, costs).
    pub host: HostConfig,
    /// NIC model (ring, DMA, coalescing strategy).
    pub nic: NicConfig,
    /// Fabric model (links, switch, disturbance).
    pub fabric: FabricConfig,
    /// Protocol tunables (MTU, acks, window, marking). Its MTU must equal
    /// the fabric's ([`ClusterBuilder::mtu`] sets both).
    pub proto: ProtoConfig,
    /// NIC collective-offload engine (firmware hop cost, RTO, payload cap).
    /// Passive — costs nothing — unless an actor posts an offloaded
    /// collective via [`ActorCtx::post_offload_collective`].
    pub offload: OffloadConfig,
    /// Intra-node shared-memory path: one-way base latency.
    pub shm_latency_ns: u64,
    /// Intra-node shared-memory copy bandwidth, bytes per microsecond.
    pub shm_bytes_per_us: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        let fabric = FabricConfig::default();
        let proto = ProtoConfig {
            mtu: fabric.mtu,
            ..ProtoConfig::default()
        };
        ClusterConfig {
            nodes: 2,
            endpoints_per_node: 1,
            host: HostConfig::default(),
            nic: NicConfig::default(),
            fabric,
            proto,
            offload: OffloadConfig::default(),
            shm_latency_ns: 900,
            shm_bytes_per_us: 2_500,
            seed: 0xC0A1E5CE,
        }
    }
}

/// Fluent builder for the common experiment shapes.
#[derive(Debug, Clone)]
pub struct ClusterBuilder {
    cfg: ClusterConfig,
}

impl Default for ClusterBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ClusterBuilder {
    /// Start from the calibrated defaults (two 8-core nodes, Myri-10G-like
    /// NIC with the 75 µs timeout, MTU-1500 fabric).
    pub fn new() -> Self {
        ClusterBuilder {
            cfg: ClusterConfig::default(),
        }
    }

    /// Set the number of nodes.
    pub fn nodes(mut self, n: usize) -> Self {
        self.cfg.nodes = n;
        self
    }

    /// Set endpoints per node.
    pub fn endpoints_per_node(mut self, n: usize) -> Self {
        self.cfg.endpoints_per_node = n;
        self
    }

    /// Select the NIC coalescing strategy.
    pub fn strategy(mut self, s: CoalescingStrategy) -> Self {
        self.cfg.nic.strategy = s;
        self
    }

    /// Select the interrupt routing policy.
    pub fn routing(mut self, r: omx_host::IrqRouting) -> Self {
        self.cfg.host.routing = r;
        self
    }

    /// Allow or forbid core sleep states.
    pub fn sleep(mut self, enabled: bool) -> Self {
        self.cfg.host.sleep_enabled = enabled;
        self
    }

    /// Set the marking policy (ablations, mis-ordering).
    pub fn marking(mut self, m: crate::marking::MarkingPolicy) -> Self {
        self.cfg.proto.marking = m;
        self
    }

    /// Set fabric disturbance (jitter / loss / delay injection).
    pub fn disturbance(mut self, d: omx_fabric::DisturbanceConfig) -> Self {
        self.cfg.fabric.disturbance = d;
        self
    }

    /// Bound each switch egress buffer to `frames` (tail-drop on overflow).
    /// The default is effectively unbounded; see
    /// [`omx_fabric::FabricConfig::switch_buffer_frames`].
    pub fn switch_buffer_frames(mut self, frames: u32) -> Self {
        self.cfg.fabric.switch_buffer_frames = frames;
        self
    }

    /// Set the fabric MTU (fragmentation follows; §IV-A notes jumbo frames
    /// exhibit the same behaviour at proportionally larger sizes).
    pub fn mtu(mut self, mtu: u32) -> Self {
        self.cfg.fabric.mtu = mtu;
        self.cfg.proto.mtu = mtu;
        self
    }

    /// Set the experiment seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.cfg.seed = seed;
        self
    }

    /// Access the config being built.
    pub fn config_mut(&mut self) -> &mut ClusterConfig {
        &mut self.cfg
    }

    /// Build the cluster.
    pub fn build(self) -> Cluster {
        Cluster::new(self.cfg)
    }
}

// ---------------------------------------------------------------------------
// Actor interface
// ---------------------------------------------------------------------------

/// A completed receive, as seen by the application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvCompletion {
    /// Handle from the posted receive.
    pub handle: u64,
    /// Sender endpoint.
    pub src: EndpointAddr,
    /// Message id (links the completion to its wire packets in traces).
    pub msg: MsgId,
    /// Match info of the message.
    pub match_info: u64,
    /// Message length in bytes.
    pub len: u32,
}

/// Application logic bound to one endpoint (one MPI rank, one benchmark
/// process). Callbacks run in simulated time; all interaction goes through
/// [`ActorCtx`].
///
/// `Send` so a built cluster can be handed to another thread; actors only
/// ever run on the thread driving their cluster, so no `Sync` is required.
pub trait Actor: Any + Send {
    /// Called once at simulation start.
    fn on_start(&mut self, ctx: &mut ActorCtx);
    /// A send posted with `handle` completed.
    fn on_send_complete(&mut self, ctx: &mut ActorCtx, handle: u64) {
        let _ = (ctx, handle);
    }
    /// A receive completed.
    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, completion: RecvCompletion) {
        let _ = (ctx, completion);
    }
    /// A timer set via [`ActorCtx::set_timer`] fired.
    fn on_timer(&mut self, ctx: &mut ActorCtx, token: u64) {
        let _ = (ctx, token);
    }
    /// A NIC-offloaded collective posted via
    /// [`ActorCtx::post_offload_collective`] completed (`seq` is the
    /// engine-assigned operation sequence number, in posting order).
    fn on_offload_complete(&mut self, ctx: &mut ActorCtx, seq: u32) {
        let _ = (ctx, seq);
    }
    /// Whether this rank blocks in `mx_wait` between events (pays the
    /// scheduler wakeup latency per delivery burst) instead of polling.
    /// MPI microbenchmarks poll; background daemons and blocking apps don't.
    fn blocking_waits(&self) -> bool {
        false
    }
    /// Upcast for report extraction after the run.
    fn as_any(&self) -> &dyn Any;
}

/// Commands an actor may issue during a callback.
enum ActorCmd {
    Send {
        dst: EndpointAddr,
        len: u32,
        match_info: u64,
        handle: u64,
    },
    Recv {
        match_value: u64,
        match_mask: u64,
        handle: u64,
    },
    Timer {
        at: Time,
        token: u64,
    },
    RawEthernet {
        dst: NodeId,
        payload_len: u32,
    },
    OffloadColl {
        desc: OffloadCollDesc,
    },
    Stop,
}

/// The interface handed to actor callbacks.
pub struct ActorCtx<'a> {
    now: Time,
    node: u16,
    ep: u8,
    /// Core this endpoint is pinned to.
    core: usize,
    /// Cumulative interrupt busy time on that core (stolen-time source for
    /// compute phases).
    core_irq_busy_ns: u64,
    cmds: &'a mut Vec<ActorCmd>,
}

impl ActorCtx<'_> {
    /// Current simulated time (start of this callback).
    pub fn now(&self) -> Time {
        self.now
    }

    /// This actor's endpoint address.
    pub fn me(&self) -> EndpointAddr {
        EndpointAddr::new(self.node, self.ep)
    }

    /// The core this rank is pinned to.
    pub fn core(&self) -> usize {
        self.core
    }

    /// Cumulative interrupt busy time on this rank's core, in nanoseconds.
    /// Compute phases diff this across their window to account for CPU time
    /// stolen by interrupt handlers (the effect behind Table IV's IS
    /// slowdowns).
    pub fn core_irq_busy_ns(&self) -> u64 {
        self.core_irq_busy_ns
    }

    /// Post a message send. CPU cost is charged on this rank's core; the
    /// completion arrives via [`Actor::on_send_complete`].
    pub fn post_send(&mut self, dst: EndpointAddr, len: u32, match_info: u64, handle: u64) {
        self.cmds.push(ActorCmd::Send {
            dst,
            len,
            match_info,
            handle,
        });
    }

    /// Post a receive with MX match semantics.
    pub fn post_recv(&mut self, match_value: u64, match_mask: u64, handle: u64) {
        self.cmds.push(ActorCmd::Recv {
            match_value,
            match_mask,
            handle,
        });
    }

    /// Request a timer callback at absolute time `at`.
    pub fn set_timer(&mut self, at: Time, token: u64) {
        self.cmds.push(ActorCmd::Timer { at, token });
    }

    /// Inject one raw (non-Open-MX) Ethernet frame toward `dst` — used by
    /// the interrupt-overhead microbenchmark and TCP background traffic.
    pub fn send_raw_ethernet(&mut self, dst: NodeId, payload_len: u32) {
        self.cmds.push(ActorCmd::RawEthernet { dst, payload_len });
    }

    /// Post a collective to the NIC offload engine (a command-queue write
    /// plus doorbell). The whole schedule then runs in NIC firmware — no
    /// per-hop host interrupts — and completion arrives via
    /// [`Actor::on_offload_complete`] after the single completion IRQ.
    pub fn post_offload_collective(&mut self, desc: OffloadCollDesc) {
        self.cmds.push(ActorCmd::OffloadColl { desc });
    }

    /// Stop the whole simulation after this callback.
    pub fn stop(&mut self) {
        self.cmds.push(ActorCmd::Stop);
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// An event of the event queue. Wire frames in flight are not events:
/// they wait in per-node inbound queues, dispatched as the `FrameArrival`
/// kind.
#[derive(Debug)]
enum Ev {
    /// A NIC DMA transfer completed, and the NIC can act on it (see
    /// [`Nic::settle`]): scheduled at the key reserved when its frame
    /// arrived.
    DmaComplete { node: u16, desc: DescId },
    /// The NIC coalescing timer fired.
    CoalesceTimer { node: u16 },
    /// An interrupt handler starts executing on `core`.
    IrqService { node: u16, core: CoreId },
    /// The receive batch finished processing; run the driver on it.
    BatchDone {
        node: u16,
        core: CoreId,
        batch: Vec<Packet>,
    },
    /// The driver's retransmit / delayed-ack timer.
    DriverTimer { node: u16 },
    /// Deliver a completion to an actor (event-ring poll).
    AppRecv {
        node: u16,
        ep: u8,
        c: RecvCompletion,
    },
    /// Deliver a send completion to an actor.
    AppSend { node: u16, ep: u8, handle: u64 },
    /// An actor timer fired.
    AppTimer { node: u16, ep: u8, token: u64 },
    /// Kick an actor's `on_start`.
    AppStart { node: u16, ep: u8 },
    /// Intra-node shared-memory delivery of the packet in
    /// [`Ctx::shm_packets`]`[slot]`.
    ShmDeliver { node: u16, slot: u32 },
    /// The NIC offload engine's retransmission timer.
    OffloadTimer { node: u16 },
    /// Deliver a NIC-offloaded collective completion to an actor (after
    /// the completion IRQ handler and event-ring poll).
    OffloadDone { node: u16, ep: u8, seq: u32 },
}

/// Number of dispatched kinds, the [`Ev`] variants and the wire-frame
/// arrival: the length of the per-kind dispatch counter.
const EV_KINDS: usize = 13;

/// Events dispatched per kind, in event-kind declaration order and named
/// after the kind (see [`Cluster::event_counts`]).
pub type EventCounts = [(&'static str, u64); EV_KINDS];

/// Dispatched kind names: the [`Ev`] variants in declaration order, after
/// the wire-frame arrival at 0.
const EV_KIND_NAMES: [&str; EV_KINDS] = [
    "FrameArrival",
    "DmaComplete",
    "CoalesceTimer",
    "IrqService",
    "BatchDone",
    "DriverTimer",
    "AppRecv",
    "AppSend",
    "AppTimer",
    "AppStart",
    "ShmDeliver",
    "OffloadTimer",
    "OffloadDone",
];

impl Ev {
    /// Index of this variant in [`EV_KIND_NAMES`].
    fn kind(&self) -> usize {
        match self {
            Ev::DmaComplete { .. } => 1,
            Ev::CoalesceTimer { .. } => 2,
            Ev::IrqService { .. } => 3,
            Ev::BatchDone { .. } => 4,
            Ev::DriverTimer { .. } => 5,
            Ev::AppRecv { .. } => 6,
            Ev::AppSend { .. } => 7,
            Ev::AppTimer { .. } => 8,
            Ev::AppStart { .. } => 9,
            Ev::ShmDeliver { .. } => 10,
            Ev::OffloadTimer { .. } => 11,
            Ev::OffloadDone { .. } => 12,
        }
    }
}

/// What travels on the fabric: an Open-MX packet, a raw frame, or a
/// NIC-resident collective frame.
#[derive(Debug, Clone, Copy)]
enum WireFrame {
    Omx(Packet),
    Raw {
        payload_len: u32,
    },
    /// NIC-to-NIC collective traffic: consumed by the offload engine on
    /// arrival, never enters the RX ring / DMA / coalescing path.
    Coll(CollFrame),
}

impl WireFrame {
    fn wire_len(&self) -> u32 {
        match self {
            WireFrame::Omx(p) => p.wire_len(),
            WireFrame::Raw { payload_len } => ETH_HEADER_BYTES + payload_len,
            WireFrame::Coll(f) => f.wire_len(),
        }
    }

    fn meta(&self) -> PacketMeta {
        match self {
            WireFrame::Omx(p) => PacketMeta::omx(self.wire_len(), p.hdr.latency_sensitive)
                // Multiqueue steering attaches each communication channel to
                // a core (§VI): hash on the destination endpoint.
                .with_flow(u64::from(p.hdr.dst.endpoint)),
            WireFrame::Raw { .. } => PacketMeta::ip(self.wire_len()),
            WireFrame::Coll(_) => {
                unreachable!("offload frames are consumed before RX-ring classification")
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Node runtime
// ---------------------------------------------------------------------------

struct NodeRt {
    driver: NodeDriver,
    nic: Nic<WireFrame>,
    host: Host,
    /// Time-weighted RX-ring occupancy ([`Nic::pending_work`]), set at
    /// every accept and every claim.
    pending_dma: TimeWeighted,
    /// When the armed `DriverTimer` event fires (see [`arm_timer`]).
    driver_timer: Option<Time>,
    /// When the armed `CoalesceTimer` event fires (see [`arm_timer`]).
    coalesce_timer: Option<Time>,
    /// NIC-resident collective engine (firmware state in NIC memory).
    offload: OffloadEngine,
    /// When the armed `OffloadTimer` event fires (see [`arm_timer`]).
    offload_timer: Option<Time>,
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// The side effects a [`Nodes`] dispatch reaches the rest of the world
/// through: the event queue, the inbound queues and the clock, the
/// (shared) fabric, tracing, and the sanitizer. Kept apart from [`Nodes`]
/// so a handler can mutate node state and apply effects at the same time.
struct Ctx {
    queue: EventQueue<Ev>,
    /// Wire frames in flight, per destination node, keyed from `queue`'s
    /// sequence numbers (see [`Ctx::send_inbound`]).
    inbound: InboundQueues<WireFrame>,
    /// Packets of queued `ShmDeliver` events, indexed by the event's slot,
    /// so that `Ev` stays small (see [`Ctx::send_shm`]).
    shm_packets: Vec<Packet>,
    /// Slots of `shm_packets` no queued event holds.
    shm_free: Vec<u32>,
    /// Time of the last dispatched event (or of the horizon that cut a run).
    now: Time,
    /// Sequence number of the last dispatched event: with `now`, the key
    /// every trace record it emits is kept under.
    seq: u64,
    fabric: EthernetFabric,
    /// Optional packet-level event trace.
    tracer: Option<Tracer>,
    /// Invariant recorder (posted / delivered / completed accounting).
    sanitizer: Sanitizer,
}

impl Ctx {
    /// Schedule `ev` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past: a handler scheduling backwards in time
    /// is always a bug, and silently clamping would hide it.
    fn schedule_at(&mut self, at: Time, ev: Ev) {
        assert!(
            at >= self.now,
            "event scheduled in the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, ev);
    }

    /// Schedule the DMA completion `wake` for `node` at the key reserved
    /// for it when its frame arrived, so it dispatches exactly where an
    /// event pushed then would have.
    fn schedule_wake(&mut self, node: u16, wake: DmaCompletion) {
        assert!(
            wake.at >= self.now,
            "DMA completion woken in the past: now={}, at={}",
            self.now,
            wake.at
        );
        let ev = Ev::DmaComplete {
            node,
            desc: wake.desc,
        };
        self.queue.push_at(wake.at, wake.seq, ev);
    }

    /// Make `(now, seq)` the key of the event or frame being dispatched.
    /// Keys only grow: each queue pops in key order, and the loop takes the
    /// smaller of their heads.
    fn enter(&mut self, now: Time, seq: u64) {
        debug_assert!(
            (now, seq) >= (self.now, self.seq),
            "dispatch went back from {:?} to {:?}",
            (self.now, self.seq),
            (now, seq)
        );
        (self.now, self.seq) = (now, seq);
    }

    /// Queue `frame` for `node` at `at`, at the key an event pushed now
    /// would take.
    ///
    /// # Panics
    /// Panics if `at` is in the past, as [`Ctx::schedule_at`] does.
    fn send_inbound(&mut self, at: Time, node: u16, frame: WireFrame) {
        let seq = self.queue.reserve_seq();
        self.inbound
            .push(self.now, at, seq, usize::from(node), frame);
    }

    /// Schedule the shared-memory delivery of `pkt` to `node` at `at`,
    /// keeping the packet in a `shm_packets` slot until it dispatches.
    fn send_shm(&mut self, at: Time, node: u16, pkt: Packet) {
        let slot = match self.shm_free.pop() {
            Some(slot) => {
                self.shm_packets[slot as usize] = pkt;
                slot
            }
            None => {
                self.shm_packets.push(pkt);
                (self.shm_packets.len() - 1) as u32
            }
        };
        self.schedule_at(at, Ev::ShmDeliver { node, slot });
    }

    /// Take the packet of a dispatched `ShmDeliver` out of its slot.
    fn take_shm(&mut self, slot: u32) -> Packet {
        self.shm_free.push(slot);
        self.shm_packets[slot as usize]
    }

    /// Hand a frame from node `src` to the fabric at `t`; the caller has
    /// already paid the doorbell or firmware hop. A lost or tail-dropped
    /// frame schedules nothing and is traced as a `Drop` on `src`: the
    /// driver retransmits Open-MX packets, the offload engine's NIC-side
    /// RTO resends collective frames, and raw frames are not recovered.
    fn transmit_wire(&mut self, t: Time, src: u16, dst: u16, frame: WireFrame) {
        let outcome = self.fabric.transmit(
            t,
            PortId(src as usize),
            PortId(dst as usize),
            frame.wire_len(),
        );
        let reason = match outcome {
            TransmitOutcome::Arrives(at) => {
                self.send_inbound(at, dst, frame);
                return;
            }
            TransmitOutcome::Lost => "wire loss",
            TransmitOutcome::SwitchDropped => "switch full",
        };
        self.trace(t, src, TraceKind::Drop, || TraceData::Text(reason));
    }

    /// Record a trace event under the key of the event being dispatched.
    /// The payload is built lazily: when tracing is disabled the closure
    /// never runs, so tracing costs one branch.
    fn trace(&mut self, at: Time, node: u16, kind: TraceKind, data: impl FnOnce() -> TraceData) {
        if let Some(t) = self.tracer.as_mut() {
            t.record((self.now, self.seq), at, node, kind, data());
        }
    }
}

/// The `done` callback of `node`'s NIC entry points: traces each DMA
/// completion the NIC performs at its own key, so a completion settled by
/// a later event lands where an event of its own would have put it. With
/// no tracer it costs one branch per completion.
fn trace_dma(tracer: &mut Option<Tracer>, node: u16) -> impl FnMut(DmaCompletion) + '_ {
    move |c| {
        if let Some(t) = tracer {
            let data = TraceData::Desc { desc: c.desc.0 };
            t.record((c.at, c.seq), c.at, node, TraceKind::DmaComplete, data);
        }
    }
}

/// Every node's mutable state — NIC/driver/host runtime, actors,
/// per-endpoint CPU cursors, scratch buffers — kept apart from the shared
/// fabric, tracer and sanitizer that handlers reach through [`Ctx`].
///
/// Each [`Ev`] names one node, handlers only touch that node's state, and
/// every event they schedule targets the same node. Cross-node interaction
/// happens solely through the [`Ctx`] fabric methods.
struct Nodes {
    cfg: ClusterConfig,
    rts: Vec<NodeRt>,
    /// Per-endpoint actor and application CPU cursor, indexed by
    /// [`Nodes::slot`]: an actor's callbacks and their work share its core.
    actors: Vec<Option<Box<dyn Actor>>>,
    app_busy: Vec<Time>,
    stop: bool,
    /// Scratch buffer for actor commands (reused across callbacks).
    cmd_buf: Vec<ActorCmd>,
    /// Scratch buffer for driver actions (reused across dispatches).
    action_buf: Vec<DriverAction>,
    /// Scratch for where each packet's actions end in `action_buf` (see
    /// [`Nodes::run_driver`]).
    action_ends: Vec<usize>,
    /// Scratch for endpoint slots woken by one batch (see `batch_duration`).
    woken_scratch: Vec<usize>,
    /// Pool of batch vectors cycling through `Ev::BatchDone` events.
    batch_pool: Vec<Vec<Packet>>,
    /// Scratch for draining the offload engine's emit queue.
    offload_scratch: Vec<OffloadEmit>,
    /// Per-node cumulative application-payload bytes delivered — the
    /// goodput tap, indexed by node. Tracked here (not in
    /// `DriverCounters`) so the serialized counter shape stays stable.
    delivered_bytes: Vec<u64>,
    /// Events dispatched so far, per [`Ev`] kind (see
    /// [`Cluster::event_counts`]).
    event_counts: [u64; EV_KINDS],
}

impl Nodes {
    /// Runtime state of node `node`.
    #[inline]
    fn rt(&mut self, node: u16) -> &mut NodeRt {
        &mut self.rts[node as usize]
    }

    /// Dense index of endpoint `(node, ep)` into `actors` and `app_busy`.
    #[inline]
    fn slot(&self, node: u16, ep: u8) -> usize {
        node as usize * self.cfg.endpoints_per_node + ep as usize
    }

    /// Snapshot every node tap into an already-open telemetry window. The
    /// caller opens the window and samples the fabric ports.
    fn sample(&self, tel: &mut Telemetry) {
        for (i, n) in self.rts.iter().enumerate() {
            let nc = n.nic.counters();
            let dc = n.driver.counters();
            tel.sample_node(
                i,
                NodeTap {
                    interrupts: nc.interrupts.get(),
                    hold_sum_ns: nc.coalesce_hold_ns.sum(),
                    hold_count: nc.coalesce_hold_ns.count(),
                    rx_ring: n.nic.pending_work() as u64,
                    retransmits: dc.eager_retransmits.get(),
                    rerequests: dc.pull_rerequests.get(),
                    reorder_depth: n.driver.reorder_depth(),
                    delivered_bytes: self.delivered_bytes[i],
                },
            );
        }
    }

    fn tx_cost_ns(&self, pkt: &Packet) -> u64 {
        let costs = &self.cfg.host.costs;
        costs.send_frag_ns + costs.tx_copy_ns(pkt.payload_len())
    }

    /// Charge receive-path processing for one batch of `frames` RX-ring
    /// frames, of which `batch` are the Open-MX packets; returns duration.
    fn batch_duration(&mut self, node: u16, core: CoreId, frames: usize, batch: &[Packet]) -> u64 {
        let costs = *self.rt(node).host.costs();
        // Waking processes blocked in `mx_wait` is handler work
        // (try_to_wake_up + rescheduling IPI, plus the C1E exit of the
        // target core when sleep states are allowed): one wake per blocking
        // endpoint this batch delivers to (§IV-B1's "several microseconds").
        let mut woken = std::mem::take(&mut self.woken_scratch);
        woken.clear();
        let mut wake_ns = 0u64;
        for pkt in batch {
            if !delivers_app_event(pkt) {
                continue; // intermediate fragments wake nobody
            }
            let slot = self.slot(pkt.hdr.dst.node.0, pkt.hdr.dst.endpoint);
            if !woken.contains(&slot)
                && self.actors[slot]
                    .as_ref()
                    .is_some_and(|a| a.blocking_waits())
            {
                woken.push(slot);
                wake_ns += if self.cfg.host.sleep_enabled {
                    costs.proc_wakeup_ns
                } else {
                    costs.proc_wakeup_nosleep_ns
                };
            }
        }
        self.woken_scratch = woken;
        let eps = self.cfg.endpoints_per_node;
        let host = &mut self.rt(node).host;
        let mut dur = costs.irq_dispatch_ns + wake_ns;
        // Preempting a running application costs the context switch and the
        // application's cache/TLB pollution on top of the bare dispatch.
        if host.app_active(core) {
            dur += costs.irq_preempt_ns;
        }
        // Low-level driver structures: line group 0 of this host.
        // Every frame, raw ones too, passes the low-level driver.
        let mut lowlevel_ns = costs.lowlevel_rx_ns;
        if host.cache_access(0, core) {
            lowlevel_ns += costs.lowlevel_bounce_ns;
        }
        dur += lowlevel_ns * frames as u64;
        for pkt in batch {
            // Open-MX handler: demux + per-connection descriptor touch.
            dur += costs.omx_handler_ns;
            dur += costs.rx_copy_ns(pkt.payload_len());
            dur += costs.event_ring_ns;
            if host.cache_access(line_group(pkt.hdr.src, pkt.hdr.dst.endpoint, eps), core) {
                dur += costs.omx_channel_bounce_ns;
            }
        }
        dur
    }

    /// Transmit one Open-MX packet: the intra-node shared-memory shortcut
    /// schedules a local delivery; the wire path goes through the fabric.
    fn transmit_omx(&mut self, now: Time, pkt: Packet, ctx: &mut Ctx) {
        let src = pkt.hdr.src.node.0;
        let dst = pkt.hdr.dst.node.0;
        ctx.trace(now, src, TraceKind::Transmit, || TraceData::Packet {
            pkt,
            desc: None,
        });
        if src == dst {
            // Shared-memory path: no NIC, no interrupt.
            let bytes = pkt.payload_len() as u64;
            let delay =
                self.cfg.shm_latency_ns + (bytes * 1_000).div_ceil(self.cfg.shm_bytes_per_us);
            let at = now + TimeDelta::from_nanos(delay);
            ctx.send_shm(at, dst, pkt);
            return;
        }
        let doorbell = self.cfg.host.costs.tx_doorbell_ns;
        let t = now + TimeDelta::from_nanos(doorbell);
        ctx.transmit_wire(t, src, dst, WireFrame::Omx(pkt));
    }

    /// Schedule the DMA completion a NIC call woke and arm the coalescing
    /// timer from the NIC's deadline; deliver its interrupt. `fired` is set
    /// by the timer's own handler.
    fn apply_nic_outcome(
        &mut self,
        node: u16,
        now: Time,
        out: NicOutcome,
        fired: bool,
        ctx: &mut Ctx,
    ) {
        if let Some(wake) = out.wake {
            ctx.schedule_wake(node, wake);
        }
        let rt = self.rt(node);
        let deadline = rt.nic.timer_deadline();
        arm_timer(
            &mut rt.coalesce_timer,
            deadline,
            now,
            fired,
            ctx,
            Ev::CoalesceTimer { node },
        );
        if out.interrupt {
            let flow = self.rt(node).nic.claimed_flow();
            let svc = self.rt(node).host.deliver_irq(now, flow);
            ctx.trace(now, node, TraceKind::Interrupt, || TraceData::Irq {
                core: svc.core,
                start_ns: svc.start.as_nanos(),
                woken: svc.was_sleeping,
            });
            ctx.schedule_at(
                svc.start,
                Ev::IrqService {
                    node,
                    core: svc.core,
                },
            );
        }
    }

    /// Run one driver call `f` on `node`, execute the actions it emitted,
    /// then arm the driver timer from the driver's earliest deadline. Every
    /// driver call goes through here, a receive batch as one call, except
    /// the driver timer's own, which arms with `fired` set; so no deadline a
    /// call sets can go unarmed. `now` is when the actions become effective;
    /// `irq_core` is the core running the driver (None = application
    /// context).
    fn drive(
        &mut self,
        node: u16,
        now: Time,
        irq_core: Option<CoreId>,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut NodeDriver, &mut Vec<DriverAction>, &mut Vec<usize>),
    ) {
        self.run_driver(node, now, irq_core, ctx, f);
        self.arm_driver_timer(node, now, false, ctx);
    }

    /// The first half of [`Nodes::drive`]: the driver call and its actions,
    /// without arming the driver timer. The only loop over driver actions.
    ///
    /// A receive batch call pushes onto its second buffer where each
    /// packet's actions end (see [`NodeDriver::handle_batch_into`]); every
    /// other call pushes nothing, so its actions form one run. The CPU
    /// cursor restarts at `now` at each packet boundary: each packet's
    /// transmits start at the `BatchDone` instant (DESIGN §5, "One driver
    /// call per batch").
    fn run_driver(
        &mut self,
        node: u16,
        now: Time,
        irq_core: Option<CoreId>,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut NodeDriver, &mut Vec<DriverAction>, &mut Vec<usize>),
    ) {
        let mut actions = std::mem::take(&mut self.action_buf);
        let mut ends = std::mem::take(&mut self.action_ends);
        f(&mut self.rt(node).driver, &mut actions, &mut ends);
        let mut cursor = now;
        let mut packet = 0;
        for (i, action) in actions.drain(..).enumerate() {
            while ends.get(packet).is_some_and(|&end| end <= i) {
                packet += 1;
                cursor = now;
            }
            match action {
                DriverAction::Transmit(pkt) => {
                    let cost = self.tx_cost_ns(&pkt);
                    if let Some(core) = irq_core {
                        cursor = self.rt(node).host.occupy_irq(core, cursor, cost);
                    } else {
                        cursor += TimeDelta::from_nanos(cost);
                    }
                    self.transmit_omx(cursor, pkt, ctx);
                }
                DriverAction::RecvComplete {
                    ep,
                    handle,
                    src,
                    msg,
                    match_info,
                    len,
                } => {
                    let visible = cursor + TimeDelta::from_nanos(self.cfg.host.costs.app_event_ns);
                    ctx.schedule_at(
                        visible,
                        Ev::AppRecv {
                            node,
                            ep,
                            c: RecvCompletion {
                                handle,
                                src,
                                msg,
                                match_info,
                                len,
                            },
                        },
                    );
                }
                DriverAction::SendComplete { ep, handle } => {
                    let visible = cursor + TimeDelta::from_nanos(self.cfg.host.costs.app_event_ns);
                    ctx.schedule_at(visible, Ev::AppSend { node, ep, handle });
                }
            }
        }
        ends.clear();
        self.action_buf = actions;
        self.action_ends = ends;
    }

    /// The second half of [`Nodes::drive`]: arm the driver timer from the
    /// driver's earliest deadline. `fired` is set by the timer's own handler.
    fn arm_driver_timer(&mut self, node: u16, now: Time, fired: bool, ctx: &mut Ctx) {
        let rt = self.rt(node);
        let deadline = rt.driver.next_deadline();
        arm_timer(
            &mut rt.driver_timer,
            deadline,
            now,
            fired,
            ctx,
            Ev::DriverTimer { node },
        );
    }

    /// Drain and apply the offload engine's queued emits for `node`, then
    /// arm the offload timer from the engine's earliest deadline. The
    /// engine is a passive state machine; this is the single point where
    /// its decisions touch the wire, the sanitizer, the host IRQ path and
    /// the event queue. `fired` is set by the timer's own handler.
    fn run_offload_emits(&mut self, node: u16, now: Time, fired: bool, ctx: &mut Ctx) {
        let mut emits = std::mem::take(&mut self.offload_scratch);
        self.rt(node).offload.drain_emits(&mut emits);
        for e in emits.drain(..) {
            match e {
                OffloadEmit::Wire { at, frame, fresh } => {
                    if fresh {
                        if let CollFrameKind::Data { payload, .. } = frame.kind {
                            ctx.sanitizer
                                .on_send_posted(frame.src_node, frame.dst_node, payload);
                        }
                    }
                    ctx.trace(at, node, TraceKind::OffloadFrame, || {
                        coll_trace_data(&frame)
                    });
                    if frame.dst_node == node {
                        // NIC-internal loopback (co-located ranks): never
                        // touches the fabric, cannot be lost.
                        ctx.send_inbound(at, node, WireFrame::Coll(frame));
                    } else {
                        ctx.transmit_wire(
                            at,
                            frame.src_node,
                            frame.dst_node,
                            WireFrame::Coll(frame),
                        );
                    }
                }
                OffloadEmit::Delivered {
                    src_node,
                    msg_id,
                    len,
                } => {
                    ctx.sanitizer.on_delivered(src_node, node, msg_id, len);
                }
                OffloadEmit::AckCompleted => ctx.sanitizer.on_send_completed(),
                OffloadEmit::Complete { ep, seq, rank } => {
                    // The one host-visible interrupt of the whole operation:
                    // a dedicated MSI-X completion vector, not subject to
                    // the coalescing strategy, but accounted into the same
                    // per-NIC interrupt counter the telemetry reads.
                    let costs = self.cfg.host.costs;
                    let rt = self.rt(node);
                    rt.nic.note_offload_interrupt();
                    let svc = rt.host.deliver_irq(now, u64::from(ep));
                    ctx.trace(now, node, TraceKind::Interrupt, || TraceData::Irq {
                        core: svc.core,
                        start_ns: svc.start.as_nanos(),
                        woken: svc.was_sleeping,
                    });
                    let dur = costs.irq_dispatch_ns + costs.omx_handler_ns + costs.event_ring_ns;
                    let end = self.rt(node).host.occupy_irq(svc.core, svc.start, dur);
                    let visible = end + TimeDelta::from_nanos(costs.app_event_ns);
                    ctx.trace(now, node, TraceKind::OffloadComplete, || {
                        TraceData::CollDone { ep, seq, rank }
                    });
                    ctx.schedule_at(visible, Ev::OffloadDone { node, ep, seq });
                }
            }
        }
        self.offload_scratch = emits;
        let rt = self.rt(node);
        let deadline = rt.offload.next_deadline();
        arm_timer(
            &mut rt.offload_timer,
            deadline,
            now,
            fired,
            ctx,
            Ev::OffloadTimer { node },
        );
    }

    /// Run one actor callback and execute the commands it issued.
    fn with_actor(
        &mut self,
        node: u16,
        ep: u8,
        now: Time,
        ctx: &mut Ctx,
        f: impl FnOnce(&mut dyn Actor, &mut ActorCtx),
    ) {
        let slot = self.slot(node, ep);
        let Some(mut actor) = self.actors[slot].take() else {
            return;
        };
        let core = ep as usize % self.cfg.host.cores;
        let core_irq_busy_ns = self.rt(node).host.irq_busy_total_ns(core);
        let mut cmds = std::mem::take(&mut self.cmd_buf);
        cmds.clear();
        {
            let mut ctx = ActorCtx {
                now,
                node,
                ep,
                core,
                core_irq_busy_ns,
                cmds: &mut cmds,
            };
            f(actor.as_mut(), &mut ctx);
        }
        self.actors[slot] = Some(actor);

        // Execute commands sequentially, charging application CPU cost.
        // The cursor starts after any still-running work of this endpoint so
        // one rank cannot overlap its own CPU. A rank that went idle is
        // blocked in `mx_wait`; waking it costs scheduler latency, which is
        // paid once per delivery burst (charged in the IRQ handler) — the
        // very effect that makes per-packet interrupts expensive (§IV-B1).
        let costs = self.cfg.host.costs;
        let mut cursor = now.max(self.app_busy[slot]);
        for cmd in cmds.drain(..) {
            match cmd {
                ActorCmd::Send {
                    dst,
                    len,
                    match_info,
                    handle,
                } => {
                    ctx.sanitizer.on_send_posted(node, dst.node.0, len);
                    let eager_len = len.min(crate::wire::MEDIUM_MAX);
                    let frags = crate::wire::frag_count(eager_len, self.cfg.proto.mtu) as u64;
                    let cpu = costs.send_post_ns
                        + costs.send_frag_ns * frags.min(4)
                        + costs.tx_copy_ns(eager_len);
                    cursor += TimeDelta::from_nanos(cpu);
                    self.drive(node, cursor, None, ctx, |d, a, _| {
                        d.post_send_into(cursor, ep, dst, len, match_info, handle, a)
                    });
                }
                ActorCmd::Recv {
                    match_value,
                    match_mask,
                    handle,
                } => {
                    cursor += TimeDelta::from_nanos(150);
                    self.drive(node, cursor, None, ctx, |d, a, _| {
                        d.post_recv_into(cursor, ep, match_value, match_mask, handle, a)
                    });
                }
                ActorCmd::Timer { at, token } => {
                    ctx.schedule_at(at.max(cursor), Ev::AppTimer { node, ep, token });
                }
                ActorCmd::RawEthernet { dst, payload_len } => {
                    cursor += TimeDelta::from_nanos(costs.send_post_ns);
                    ctx.transmit_wire(cursor, node, dst.0, WireFrame::Raw { payload_len });
                }
                ActorCmd::OffloadColl { desc } => {
                    // Host cost is one command-queue write plus the
                    // doorbell; the schedule itself runs in firmware.
                    let cpu = costs.send_post_ns + costs.tx_doorbell_ns;
                    cursor += TimeDelta::from_nanos(cpu);
                    self.rt(node).offload.post(cursor, ep, &desc);
                    self.run_offload_emits(node, cursor, false, ctx);
                }
                ActorCmd::Stop => {
                    self.stop = true;
                }
            }
        }
        self.app_busy[slot] = cursor;
        self.cmd_buf = cmds;
    }
}

/// Whether this packet can complete an application-visible event (only
/// those wake a process blocked in `mx_wait`).
fn delivers_app_event(pkt: &Packet) -> bool {
    use crate::wire::PacketKind;
    match pkt.kind {
        PacketKind::Small { .. } | PacketKind::Notify { .. } => true,
        PacketKind::MediumFrag {
            frag, frag_count, ..
        } => frag + 1 == frag_count,
        PacketKind::PullReply { last_of_block, .. } => last_of_block,
        PacketKind::Rendezvous { .. } | PacketKind::PullRequest { .. } | PacketKind::Ack { .. } => {
            false
        }
    }
}

/// Arm a node timer (coalescing, driver or offload) for `deadline`, unless
/// the event armed in `slot` already fires no later. `slot` holds when the
/// armed event fires. A superseded event stays queued; when it fires, `slot`
/// no longer names its instant, so it frees nothing and re-arms nothing — it
/// only runs work that happens to be due, then arms again from the deadline.
///
/// `fired` says the caller is the timer's own handler, which has just run
/// the work due at `now`. A deadline still at or before `now` would then
/// fire again at `now` forever, so it panics instead, in release builds too.
fn arm_timer(
    slot: &mut Option<Time>,
    deadline: Option<Time>,
    now: Time,
    fired: bool,
    ctx: &mut Ctx,
    ev: Ev,
) {
    let Some(at) = deadline else { return };
    assert!(
        !(fired && at <= now),
        "{ev:?} is overdue after firing at {now}: deadline {at} was not moved past it"
    );
    if !slot.is_some_and(|armed| armed <= at) {
        let at = at.max(now);
        *slot = Some(at);
        ctx.schedule_at(at, ev);
    }
}

/// Cache line group of the Open-MX channel descriptors a packet from `src`
/// to local endpoint `dst_ep` touches, for `eps` endpoints per node: one
/// group per (source endpoint, local endpoint) pair; 0 is the low-level driver.
fn line_group(src: EndpointAddr, dst_ep: u8, eps: usize) -> usize {
    1 + (src.node.0 as usize * eps + src.endpoint as usize) * eps + dst_ep as usize
}

impl Nodes {
    /// Dispatch a wire frame that reached `node`, popped off its inbound
    /// queue at the key `(now, seq)`: the `FrameArrival` kind.
    fn arrive(&mut self, now: Time, seq: u64, node: u16, pkt: WireFrame, ctx: &mut Ctx) {
        self.event_counts[0] += 1;
        if let WireFrame::Coll(frame) = pkt {
            // NIC-resident collective: consumed by the offload engine in
            // firmware — no RX ring, no DMA, no coalescer, no per-hop
            // interrupt.
            ctx.trace(now, node, TraceKind::FrameArrival, || {
                coll_trace_data(&frame)
            });
            self.rt(node).offload.on_frame(now, frame);
            self.run_offload_emits(node, now, false, ctx);
            return;
        }
        let meta = pkt.meta();
        let (queue, done) = (&mut ctx.queue, trace_dma(&mut ctx.tracer, node));
        let nic = &mut self.rt(node).nic;
        let out = nic.on_frame(now, seq, pkt, meta, || queue.reserve_seq(), done);
        let desc = out.desc;
        ctx.trace(now, node, TraceKind::FrameArrival, || match pkt {
            WireFrame::Omx(p) => TraceData::Packet {
                pkt: p,
                desc: desc.map(|d| d.0),
            },
            WireFrame::Raw { payload_len } => TraceData::RawFrame { len: payload_len },
            WireFrame::Coll(_) => unreachable!("handled before RX-ring classification"),
        });
        if desc.is_some() {
            let rt = self.rt(node);
            rt.pending_dma.set(now, rt.nic.pending_work() as f64);
        } else {
            ctx.trace(now, node, TraceKind::Drop, || TraceData::Text("ring full"));
        }
        self.apply_nic_outcome(node, now, out, false, ctx);
    }

    /// Dispatch one event, popped at the key `(now, seq)`, against its
    /// node's state. Every event is node-local (cross-node traffic only
    /// exists as frames through the [`Ctx`]). The NIC entry points take the
    /// key to settle the DMA completions before it.
    fn dispatch(&mut self, now: Time, seq: u64, event: Ev, ctx: &mut Ctx) {
        self.event_counts[event.kind()] += 1;
        match event {
            Ev::DmaComplete { node, desc } => {
                let done = trace_dma(&mut ctx.tracer, node);
                let out = self.rt(node).nic.on_dma_complete(now, seq, desc, done);
                self.apply_nic_outcome(node, now, out, false, ctx);
            }
            Ev::CoalesceTimer { node } => {
                let rt = self.rt(node);
                if rt.coalesce_timer == Some(now) {
                    rt.coalesce_timer = None;
                }
                let epoch = rt.nic.timer_epoch();
                let out = rt.nic.on_timer(now, seq, trace_dma(&mut ctx.tracer, node));
                // Trace a firing only when it raised. A due firing always
                // disarms, so none re-arms (`due_firing_always_disarms`).
                if out.interrupt {
                    ctx.trace(now, node, TraceKind::CoalesceTimer, || TraceData::Epoch {
                        epoch,
                    });
                }
                self.apply_nic_outcome(node, now, out, true, ctx);
            }
            Ev::IrqService { node, core } => {
                // The handler reads the ring when it runs: it takes the frames
                // its interrupt claimed off the front of the NIC's RX ring,
                // straight into a recycled batch — steady-state dispatch
                // allocates nothing.
                let mut batch = self.batch_pool.pop().unwrap_or_default();
                let rt = self.rt(node);
                let claim = rt.nic.take_claim();
                let frames = claim.len();
                batch.extend(claim.filter_map(|f| match f {
                    WireFrame::Omx(p) => Some(p),
                    WireFrame::Raw { .. } => None, // dropped by the stack
                    WireFrame::Coll(_) => unreachable!("offload frames never enter the RX ring"),
                }));
                rt.pending_dma.set(now, rt.nic.pending_work() as f64);
                let dur = self.batch_duration(node, core, frames, &batch);
                let end = self.rt(node).host.occupy_irq(core, now, dur);
                ctx.schedule_at(end, Ev::BatchDone { node, core, batch });
            }
            Ev::BatchDone {
                node,
                core,
                mut batch,
            } => {
                ctx.trace(now, node, TraceKind::BatchDone, || TraceData::Batch {
                    core,
                    packets: batch.len() as u32,
                });
                // Handler done: re-enable interrupts first (NAPI exit), then
                // hand the packets to the driver's protocol logic in one call.
                let done = trace_dma(&mut ctx.tracer, node);
                let out = self.rt(node).nic.enable_irq(now, seq, done);
                self.apply_nic_outcome(node, now, out, false, ctx);
                if !batch.is_empty() {
                    self.drive(node, now, Some(core), ctx, |d, a, ends| {
                        d.handle_batch_into(now, &batch, a, ends)
                    });
                }
                batch.clear();
                self.batch_pool.push(batch);
            }
            Ev::DriverTimer { node } => {
                let rt = self.rt(node);
                if rt.driver_timer == Some(now) {
                    rt.driver_timer = None;
                }
                // A firing with nothing due leaves the driver untouched, so
                // the deadline just read is still the one to arm from.
                let mut deadline = rt.driver.next_deadline();
                if deadline.is_some_and(|t| t <= now) {
                    self.run_driver(node, now, None, ctx, |d, a, _| d.on_timer_into(now, a));
                    deadline = self.rt(node).driver.next_deadline();
                }
                let rt = self.rt(node);
                arm_timer(
                    &mut rt.driver_timer,
                    deadline,
                    now,
                    true,
                    ctx,
                    Ev::DriverTimer { node },
                );
            }
            Ev::AppStart { node, ep } => {
                self.with_actor(node, ep, now, ctx, |a, actx| a.on_start(actx));
            }
            Ev::ShmDeliver { node, slot } => {
                let pkt = ctx.take_shm(slot);
                self.drive(node, now, None, ctx, |d, a, _| {
                    d.handle_packet_into(now, pkt, a)
                });
            }
            Ev::AppRecv { node, ep, c } => {
                ctx.sanitizer
                    .on_delivered(c.src.node.0, node, c.msg.0, c.len);
                self.delivered_bytes[node as usize] += u64::from(c.len);
                ctx.trace(now, node, TraceKind::AppDelivery, || TraceData::Recv {
                    ep,
                    src: c.src.node.0,
                    msg: c.msg.0,
                    len: c.len,
                });
                self.with_actor(node, ep, now, ctx, |a, actx| a.on_recv_complete(actx, c));
            }
            Ev::AppSend { node, ep, handle } => {
                ctx.sanitizer.on_send_completed();
                self.with_actor(node, ep, now, ctx, |a, actx| {
                    a.on_send_complete(actx, handle)
                });
            }
            Ev::AppTimer { node, ep, token } => {
                self.with_actor(node, ep, now, ctx, |a, actx| a.on_timer(actx, token));
            }
            Ev::OffloadTimer { node } => {
                let rt = self.rt(node);
                if rt.offload_timer == Some(now) {
                    rt.offload_timer = None;
                }
                if rt.offload.next_deadline().is_some_and(|t| t <= now) {
                    rt.offload.on_timer(now);
                }
                self.run_offload_emits(node, now, true, ctx);
            }
            Ev::OffloadDone { node, ep, seq } => {
                self.with_actor(node, ep, now, ctx, |a, actx| {
                    a.on_offload_complete(actx, seq)
                });
            }
        }
    }
}

/// Trace payload for a collective frame (data or ack).
fn coll_trace_data(frame: &CollFrame) -> TraceData {
    match frame.kind {
        CollFrameKind::Data {
            src_rank,
            dst_rank,
            seq,
            round,
            payload,
        } => TraceData::Coll {
            src_rank,
            dst_rank,
            seq,
            round,
            len: payload,
            ack: false,
        },
        CollFrameKind::Ack {
            data_src,
            data_dst,
            seq,
            round,
        } => TraceData::Coll {
            src_rank: data_dst,
            dst_rank: data_src,
            seq,
            round,
            len: 0,
            ack: true,
        },
    }
}

// ---------------------------------------------------------------------------
// Public cluster handle
// ---------------------------------------------------------------------------

/// A runnable simulated cluster.
pub struct Cluster {
    nodes: Nodes,
    ctx: Ctx,
    /// Optional windowed telemetry sampler, closed by the event loop at
    /// every window boundary.
    telemetry: Option<Telemetry>,
    started: bool,
}

impl Cluster {
    /// Build from a full config (see also [`ClusterBuilder`]).
    ///
    /// # Panics
    /// Panics if the config has no node, or if `fabric.mtu` and
    /// `proto.mtu` differ.
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes >= 1, "cluster needs at least one node");
        assert!(
            cfg.fabric.mtu == cfg.proto.mtu,
            "fabric MTU {} and protocol MTU {} differ: the driver would fragment \
             for the wrong frame size (set both, as ClusterBuilder::mtu does)",
            cfg.fabric.mtu,
            cfg.proto.mtu
        );
        let mut rng = SimRng::new(cfg.seed);
        let fabric = EthernetFabric::new(
            cfg.nodes,
            FabricConfig {
                // The fabric carries full frames: MTU + Ethernet + Open-MX
                // headers.
                mtu: cfg.fabric.mtu + ETH_HEADER_BYTES + OMX_HEADER_BYTES,
                ..cfg.fabric
            },
            rng.fork(1),
        );
        let rts = (0..cfg.nodes)
            .map(|i| NodeRt {
                driver: NodeDriver::new(i as u16, cfg.endpoints_per_node, cfg.proto),
                nic: Nic::new(cfg.nic.clone()),
                host: Host::new(cfg.host),
                pending_dma: TimeWeighted::default(),
                driver_timer: None,
                coalesce_timer: None,
                offload: OffloadEngine::new(i as u16, cfg.offload),
                offload_timer: None,
            })
            .collect();
        let node_count = cfg.nodes;
        let slots = cfg.nodes * cfg.endpoints_per_node;
        Cluster {
            nodes: Nodes {
                cfg,
                rts,
                actors: (0..slots).map(|_| None).collect(),
                app_busy: vec![Time::ZERO; slots],
                stop: false,
                cmd_buf: Vec::new(),
                action_buf: Vec::new(),
                action_ends: Vec::new(),
                woken_scratch: Vec::new(),
                batch_pool: Vec::new(),
                offload_scratch: Vec::new(),
                delivered_bytes: vec![0; node_count],
                event_counts: [0; EV_KINDS],
            },
            ctx: Ctx {
                queue: EventQueue::new(),
                inbound: InboundQueues::new(),
                shm_packets: Vec::new(),
                shm_free: Vec::new(),
                now: Time::ZERO,
                seq: 0,
                fabric,
                tracer: None,
                sanitizer: Sanitizer::default(),
            },
            telemetry: None,
            started: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.nodes.cfg
    }

    /// Enable packet-level event tracing, keeping the last `capacity`
    /// events. See [`crate::trace`]. Tracing only records: it schedules
    /// nothing, so a traced run dispatches exactly the events of an
    /// untraced one. A DMA completion is traced at its own key by whatever
    /// settles it, its own event or a later one.
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.ctx.tracer = Some(Tracer::new(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.ctx.tracer.as_ref()
    }

    /// Enable windowed telemetry sampling (see [`crate::telemetry`]). The
    /// event loop closes a window at every `cfg.window_ns` boundary of
    /// simulated time; sampling only reads layer state and schedules
    /// nothing, so enabling telemetry never changes event order, drain
    /// time, or simulation results.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        assert!(
            !self.started,
            "telemetry must be enabled before the first run"
        );
        let nodes = self.nodes.cfg.nodes;
        // One egress port per node in this fabric.
        self.telemetry = Some(Telemetry::new(cfg, nodes, nodes));
    }

    /// The collected telemetry, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_ref()
    }

    /// Detach and return the collected telemetry (e.g. before the cluster
    /// is consumed by a harvest path), leaving telemetry disabled.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.telemetry.take()
    }

    /// Attach an actor to `(node, endpoint)`. The endpoint is pinned to core
    /// `endpoint % cores` and marked application-active (it polls).
    pub fn add_actor(&mut self, node: u16, ep: u8, actor: Box<dyn Actor>) {
        assert!(!self.started, "actors must be added before the first run");
        let nodes = &mut self.nodes;
        assert!(
            (node as usize) < nodes.cfg.nodes,
            "node {node} out of range"
        );
        assert!(
            (ep as usize) < nodes.cfg.endpoints_per_node,
            "endpoint {ep} out of range"
        );
        // Polling ranks keep their core busy (interrupts preempt them);
        // ranks that block in `mx_wait` leave it idle.
        let core = ep as usize % nodes.cfg.host.cores;
        let polls = !actor.blocking_waits();
        nodes.rts[node as usize]
            .host
            .set_app_active(core, polls, Time::ZERO);
        let slot = nodes.slot(node, ep);
        let prev = nodes.actors[slot].replace(actor);
        assert!(
            prev.is_none(),
            "endpoint ({node}, {ep}) already has an actor"
        );
    }

    /// Run until quiescence, the horizon, or an actor-requested stop.
    ///
    /// Events and frames dispatch in `(time, scheduling order)`. A horizon
    /// cut leaves in-flight events and frames queued, settles every DMA
    /// completion due by the horizon and sets [`Cluster::now`] to the
    /// horizon, so a follow-up `run` resumes where this one stopped. A predicate stop settles every
    /// DMA completion that precedes the stopping event. So no stop leaves a
    /// completion before it unsettled, or untraced.
    ///
    /// With telemetry on, the window ending at each `window_ns` boundary
    /// closes before any event at that exact instant, so a window never
    /// observes its successor's work. Windows close only on the way to an
    /// event, never past the last one; the partial final window closes at
    /// the stop point. If the stop point is a boundary whose window closed
    /// before events at that instant ran, the final window holds those
    /// events and ends at the next boundary.
    pub fn run(&mut self, horizon: Time) -> StopCondition {
        if !self.started {
            self.started = true;
            let eps = self.nodes.cfg.endpoints_per_node;
            for slot in 0..self.nodes.actors.len() {
                if self.nodes.actors[slot].is_some() {
                    let (node, ep) = ((slot / eps) as u16, (slot % eps) as u8);
                    self.ctx.schedule_at(Time::ZERO, Ev::AppStart { node, ep });
                }
            }
        }
        let events_before = self.events_processed();
        let stop = loop {
            let queued = self.ctx.queue.peek_key();
            let Some((next, source)) = self.ctx.inbound.earliest(queued) else {
                break StopCondition::QueueEmpty;
            };
            if next > horizon {
                self.ctx.now = horizon;
                self.settle_nics(horizon, u64::MAX);
                break StopCondition::HorizonReached;
            }
            while let Some(end) = self.telemetry.as_ref().map(Telemetry::next_boundary) {
                if end > next {
                    break;
                }
                self.sample_telemetry(end);
            }
            if source == Source::Inbound {
                let (now, seq, node, frame) =
                    self.ctx.inbound.pop().expect("peeked frame vanished");
                self.ctx.enter(now, seq);
                self.nodes
                    .arrive(now, seq, node as u16, frame, &mut self.ctx);
            } else {
                let (now, seq, event) = self.ctx.queue.pop().expect("peeked event vanished");
                self.ctx.enter(now, seq);
                self.nodes.dispatch(now, seq, event, &mut self.ctx);
            }
            if self.nodes.stop {
                self.settle_nics(self.ctx.now, self.ctx.seq);
                break StopCondition::PredicateSatisfied;
            }
        };
        // Close the tail window at the stop point, unless the horizon cut
        // the run short: the queue is still live then. If this run's last
        // events ran at the instant of the last closed boundary, they ran
        // after that window closed: their window ends at the next boundary.
        if stop != StopCondition::HorizonReached {
            let now = self.ctx.now;
            let end = match &self.telemetry {
                Some(tel)
                    if tel.last_boundary() == Some(now)
                        && self.events_processed() > events_before =>
                {
                    tel.next_boundary()
                }
                _ => now,
            };
            self.sample_telemetry(end);
        }
        // A DMA completion is settled by its own event or by a later NIC
        // entry point; one still in flight at quiescence was never woken
        // although nothing else was left to settle it. Likewise a frame
        // left in an inbound queue was never dispatched. Checked in release
        // builds too: the results would silently miss its packet.
        if stop == StopCondition::QueueEmpty {
            self.ctx.inbound.assert_drained();
            for (i, rt) in self.nodes.rts.iter().enumerate() {
                if let Some(DmaCompletion { desc, at, .. }) = rt.nic.unsettled_dma() {
                    panic!(
                        "node {i}: the DMA completion of {desc:?} at {at} was never \
                         settled: the event queue drained without waking it"
                    );
                }
            }
        }
        // Quiescence means every queued event drained: any protocol state
        // still mid-flight is stranded forever, and any packet the NIC
        // still owes the host will never raise an interrupt. Both are
        // always bugs (unlike byte conservation, which depends on the
        // workload posting matching receives), so check them automatically
        // in debug builds — i.e. always-on-in-tests.
        if stop == StopCondition::QueueEmpty && cfg!(debug_assertions) {
            let report = self.sanitize();
            assert!(
                report.violations.is_empty(),
                "sim sanitizer: liveness violations at quiescence:\n  {}",
                report.violations.join("\n  ")
            );
        }
        stop
    }

    /// Settle, and trace, every NIC's DMA completions that precede the
    /// event key `(now, seq)`.
    fn settle_nics(&mut self, now: Time, seq: u64) {
        for (node, rt) in self.nodes.rts.iter_mut().enumerate() {
            rt.nic
                .settle(now, seq, trace_dma(&mut self.ctx.tracer, node as u16));
        }
    }

    /// Snapshot every node and switch-port tap into the telemetry window
    /// ending at `end`. `Telemetry::begin_window` rejects a non-advancing
    /// boundary, so closing the tail window twice records it once. Pure
    /// reads of layer state — nothing here touches the event queue.
    fn sample_telemetry(&mut self, end: Time) {
        let Some(tel) = self.telemetry.as_mut() else {
            return;
        };
        if !tel.begin_window(end) {
            return;
        }
        self.nodes.sample(tel);
        let fabric = &self.ctx.fabric;
        for p in 0..fabric.ports() {
            tel.sample_port(
                p,
                PortTap {
                    queue_len: fabric.switch_queue_len_at(PortId(p), end) as u64,
                    drops: fabric.switch_drops_at(PortId(p)),
                },
            );
        }
    }

    /// Check the sim-sanitizer invariants against the current state: the
    /// run-time delivery accounting plus, per node, stranded protocol state
    /// ([`NodeDriver::pending_report`]) and NIC interrupt liveness
    /// ([`Nic::pending_work`]). Only meaningful once a run has drained to
    /// [`StopCondition::QueueEmpty`] — mid-flight state is not a bug while
    /// events remain. See [`crate::sanitizer`] for the invariant split.
    pub fn sanitize(&self) -> SanitizerReport {
        let mut report = self.ctx.sanitizer.report();
        let mut pending = Vec::new();
        for rt in &self.nodes.rts {
            rt.driver.pending_report(&mut pending);
        }
        report.violations.extend(
            pending
                .drain(..)
                .map(|e| format!("stranded message [{}]: {}", e.phase, e.detail)),
        );
        for (i, rt) in self.nodes.rts.iter().enumerate() {
            let owed = rt.nic.pending_work();
            if owed > 0 {
                report.violations.push(format!(
                    "interrupt liveness: node {i} NIC still owes the host {owed} packet(s)"
                ));
            }
        }
        for rt in &self.nodes.rts {
            // Offload liveness: incomplete operations, un-acked frames and
            // stranded early-arrival buffers are bugs at quiescence.
            rt.offload.pending_report(&mut report.violations);
        }
        report
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.ctx.now
    }

    /// Events processed so far (diagnostics): the sum of
    /// [`Self::event_counts`].
    pub fn events_processed(&self) -> u64 {
        self.nodes.event_counts.iter().sum()
    }

    /// Events dispatched so far, per event kind, in declaration order and
    /// named after the kind.
    pub fn event_counts(&self) -> EventCounts {
        let counts = &self.nodes.event_counts;
        std::array::from_fn(|i| (EV_KIND_NAMES[i], counts[i]))
    }

    /// How the event queue has handled its entries so far (filed,
    /// register pops, redistributed).
    pub fn queue_stats(&self) -> QueueStats {
        self.ctx.queue.stats()
    }

    /// How many wire frames the inbound queues took, and how many of them
    /// overtook an earlier frame for their node.
    pub fn inbound_stats(&self) -> InboundStats {
        self.ctx.inbound.stats()
    }

    /// Borrow an actor back (downcast to its concrete type).
    pub fn actor<T: Actor>(&self, node: u16, ep: u8) -> Option<&T> {
        let nodes = &self.nodes;
        if ep as usize >= nodes.cfg.endpoints_per_node {
            return None;
        }
        let actor = nodes.actors.get(nodes.slot(node, ep))?.as_ref()?;
        actor.as_any().downcast_ref::<T>()
    }

    /// Harvest metrics from every layer.
    ///
    /// Time-weighted gauges (pending-DMA depth, switch egress queue depth)
    /// are finalized at the harvest instant: their weight only accumulates
    /// on `set` calls, so without folding in the tail a run that drains to
    /// quiescence long after the last event would over-weight the final
    /// busy period and report a too-high time-weighted mean.
    pub fn metrics(&self) -> ClusterMetrics {
        let fabric = &self.ctx.fabric;
        let now = self.ctx.now;
        ClusterMetrics {
            sim_time_ns: now.as_nanos(),
            frames_carried: fabric.frames_carried(),
            frames_dropped: fabric.frames_dropped(),
            switch_drops: fabric.switch_drops(),
            switch_occupancy_peak: fabric.switch_occupancy_peak(),
            switch_queue_depth: (0..self.nodes.cfg.nodes)
                .map(|p| fabric.switch_queue_depth_at(PortId(p)).finalized(now))
                .collect(),
            nodes: self
                .nodes
                .rts
                .iter()
                .map(|n| NodeMetrics {
                    nic: n.nic.counters().clone(),
                    host: n.host.counters().clone(),
                    driver: n.driver.counters().clone(),
                    pending_dma: n.pending_dma.finalized(now),
                })
                .collect(),
        }
    }

    /// Per-node NIC collective-offload counters, indexed by node id. All
    /// zeros unless actors posted offloaded collectives. Kept separate from
    /// [`Cluster::metrics`] so the golden-pinned metrics JSON shape is
    /// untouched; the completion IRQs themselves are folded into the
    /// regular per-NIC interrupt counters.
    pub fn offload_counters(&self) -> Vec<OffloadCounters> {
        self.nodes
            .rts
            .iter()
            .map(|n| n.offload.counters().clone())
            .collect()
    }

    /// Total interrupts raised across all nodes (the paper's headline
    /// host-load metric).
    pub fn total_interrupts(&self) -> u64 {
        self.nodes
            .rts
            .iter()
            .map(|n| n.nic.counters().interrupts.get())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::SMALL_MAX;

    #[test]
    fn channel_cache_groups_are_injective() {
        let (nodes, eps) = (3u16, 2u8);
        let mut groups = Vec::new();
        for src_node in 0..nodes {
            for src_ep in 0..eps {
                for dst_ep in 0..eps {
                    let src = EndpointAddr::new(src_node, src_ep);
                    groups.push(line_group(src, dst_ep, eps as usize));
                }
            }
        }
        assert!(!groups.contains(&0), "group 0 is the low-level driver");
        let n = groups.len();
        groups.sort_unstable();
        groups.dedup();
        assert_eq!(groups.len(), n, "channel groups collide");
        assert_eq!(n, 12);
    }

    /// Send one message A→B and record the completion time on both sides.
    struct OneShotSender {
        dst: EndpointAddr,
        len: u32,
        send_done_at: Option<Time>,
    }

    impl Actor for OneShotSender {
        fn on_start(&mut self, ctx: &mut ActorCtx) {
            ctx.post_send(self.dst, self.len, 42, 1);
        }
        fn on_send_complete(&mut self, ctx: &mut ActorCtx, _handle: u64) {
            self.send_done_at = Some(ctx.now());
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    struct OneShotReceiver {
        recv_done_at: Option<Time>,
        len_seen: u32,
    }

    impl Actor for OneShotReceiver {
        fn on_start(&mut self, ctx: &mut ActorCtx) {
            ctx.post_recv(42, !0, 7);
        }
        fn on_recv_complete(&mut self, ctx: &mut ActorCtx, c: RecvCompletion) {
            self.recv_done_at = Some(ctx.now());
            self.len_seen = c.len;
            ctx.stop();
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn one_shot(len: u32, strategy: CoalescingStrategy) -> (Time, Cluster) {
        let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
        cluster.add_actor(
            0,
            0,
            Box::new(OneShotSender {
                dst: EndpointAddr::new(1, 0),
                len,
                send_done_at: None,
            }),
        );
        cluster.add_actor(
            1,
            0,
            Box::new(OneShotReceiver {
                recv_done_at: None,
                len_seen: 0,
            }),
        );
        let stop = cluster.run(Time::from_secs(5));
        assert_eq!(
            stop,
            StopCondition::PredicateSatisfied,
            "receiver stops the sim"
        );
        let recv = cluster
            .actor::<OneShotReceiver>(1, 0)
            .expect("receiver present");
        assert_eq!(recv.len_seen, len);
        (recv.recv_done_at.expect("completed"), cluster)
    }

    #[test]
    fn small_message_delivers_across_nodes() {
        let (at, cluster) = one_shot(64, CoalescingStrategy::Disabled);
        // One-way small-message latency: a handful of microseconds.
        let us = at.as_micros_f64();
        assert!(us > 2.0 && us < 30.0, "one-way latency {us}us out of range");
        assert!(cluster.total_interrupts() >= 1);
    }

    #[test]
    fn small_message_latency_suffers_under_timeout_coalescing() {
        let (fast, _) = one_shot(64, CoalescingStrategy::Disabled);
        let (slow, _) = one_shot(64, CoalescingStrategy::Timeout { delay_us: 75 });
        let delta = slow - fast;
        // §IV-B3: latency inflates by roughly the coalescing delay.
        assert!(
            delta.as_micros_f64() > 50.0,
            "coalescing only added {delta}"
        );
    }

    #[test]
    fn openmx_strategy_restores_small_latency() {
        let (disabled, _) = one_shot(64, CoalescingStrategy::Disabled);
        let (openmx, _) = one_shot(64, CoalescingStrategy::OpenMx { delay_us: 75 });
        let ratio = openmx.as_nanos() as f64 / disabled.as_nanos() as f64;
        assert!(
            ratio < 1.2,
            "Open-MX coalescing should track disabled latency, ratio {ratio}"
        );
    }

    #[test]
    fn medium_message_delivers() {
        let (_, cluster) = one_shot(32 * 1024, CoalescingStrategy::OpenMx { delay_us: 75 });
        let m = cluster.metrics();
        // 23 fragments crossed the fabric (plus possible acks).
        assert!(m.frames_carried >= 23);
    }

    #[test]
    fn large_message_delivers_via_pull() {
        let (_, cluster) = one_shot(234 * 1024, CoalescingStrategy::OpenMx { delay_us: 75 });
        let m = cluster.metrics();
        // 162 protocol packets (§IV-C3) plus acks.
        assert!(m.frames_carried >= 162, "carried {}", m.frames_carried);
    }

    #[test]
    fn intra_node_messages_skip_the_nic() {
        let mut cluster = ClusterBuilder::new().nodes(1).endpoints_per_node(2).build();
        cluster.add_actor(
            0,
            0,
            Box::new(OneShotSender {
                dst: EndpointAddr::new(0, 1),
                len: 4096,
                send_done_at: None,
            }),
        );
        cluster.add_actor(
            0,
            1,
            Box::new(OneShotReceiver {
                recv_done_at: None,
                len_seen: 0,
            }),
        );
        let stop = cluster.run(Time::from_secs(1));
        assert_eq!(stop, StopCondition::PredicateSatisfied);
        assert_eq!(cluster.total_interrupts(), 0, "shared memory path");
        assert_eq!(cluster.metrics().frames_carried, 0);
    }

    #[test]
    fn tracing_records_the_packet_lifecycle() {
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
            .build();
        cluster.enable_tracing(256);
        cluster.add_actor(
            0,
            0,
            Box::new(OneShotSender {
                dst: EndpointAddr::new(1, 0),
                len: 64,
                send_done_at: None,
            }),
        );
        cluster.add_actor(
            1,
            0,
            Box::new(OneShotReceiver {
                recv_done_at: None,
                len_seen: 0,
            }),
        );
        cluster.run(Time::from_secs(1));
        let tracer = cluster.tracer().expect("tracing enabled");
        let rendered = tracer.render();
        assert!(rendered.contains("small*"), "marked small packet traced");
        assert!(rendered.contains("DmaComplete"));
        assert!(rendered.contains("Interrupt"));
        assert!(rendered.contains("BatchDone"));
        assert!(rendered.contains("AppDelivery"));
        // Lifecycle ordering for the first packet.
        let arrival = rendered.find("FrameArrival").unwrap();
        let irq = rendered.find("Interrupt").unwrap();
        let delivery = rendered.find("AppDelivery").unwrap();
        assert!(arrival < irq && irq < delivery);
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let (a, ca) = one_shot(SMALL_MAX, CoalescingStrategy::Stream { delay_us: 75 });
        let (b, cb) = one_shot(SMALL_MAX, CoalescingStrategy::Stream { delay_us: 75 });
        assert_eq!(a, b);
        assert_eq!(ca.total_interrupts(), cb.total_interrupts());
        assert_eq!(ca.events_processed(), cb.events_processed());
    }

    #[test]
    fn stream_coalescing_batches_marked_burst() {
        // Many small messages sent back-to-back: Stream should need fewer
        // receiver-side interrupts than Open-MX.
        struct BurstSender {
            dst: EndpointAddr,
            remaining: u32,
        }
        impl Actor for BurstSender {
            fn on_start(&mut self, ctx: &mut ActorCtx) {
                for i in 0..self.remaining {
                    ctx.post_send(self.dst, 64, i as u64, i as u64);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        struct CountingReceiver {
            expect: u32,
            got: u32,
        }
        impl Actor for CountingReceiver {
            fn on_start(&mut self, ctx: &mut ActorCtx) {
                for i in 0..self.expect {
                    ctx.post_recv(i as u64, !0, i as u64);
                }
            }
            fn on_recv_complete(&mut self, ctx: &mut ActorCtx, _c: RecvCompletion) {
                self.got += 1;
                if self.got == self.expect {
                    ctx.stop();
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let count = 32;
        let run = |strategy| {
            let mut builder = ClusterBuilder::new().nodes(2).strategy(strategy);
            // A fast sender whose posts hit the wire back-to-back — the
            // overlapping-DMA situation Algorithm 2 targets.
            builder.config_mut().host.costs.send_post_ns = 10;
            builder.config_mut().host.costs.send_frag_ns = 10;
            builder.config_mut().host.costs.tx_doorbell_ns = 10;
            let mut cluster = builder.build();
            cluster.add_actor(
                0,
                0,
                Box::new(BurstSender {
                    dst: EndpointAddr::new(1, 0),
                    remaining: count,
                }),
            );
            cluster.add_actor(
                1,
                0,
                Box::new(CountingReceiver {
                    expect: count,
                    got: 0,
                }),
            );
            let stop = cluster.run(Time::from_secs(5));
            assert_eq!(stop, StopCondition::PredicateSatisfied);
            // Receiver-side interrupts only.
            cluster.metrics().nodes[1].nic.interrupts.get()
        };
        let openmx = run(CoalescingStrategy::OpenMx { delay_us: 75 });
        let stream = run(CoalescingStrategy::Stream { delay_us: 75 });
        assert!(
            stream * 2 <= openmx,
            "stream ({stream}) should halve interrupts vs open-mx ({openmx})"
        );
    }

    /// Driver timers grow linearly with run length: a superseded
    /// `DriverTimer` fires as a no-op instead of scheduling another, so
    /// ten times the round trips dispatch about ten times the timers (a
    /// leaking timer grows quadratically instead).
    #[test]
    fn driver_timers_grow_linearly_with_run_length() {
        let driver_timers = |iterations| {
            let mut cluster = ClusterBuilder::new()
                .nodes(2)
                .strategy(CoalescingStrategy::Timeout { delay_us: 75 })
                .build();
            cluster.run_pingpong(crate::workloads::pingpong::PingPongSpec {
                msg_len: 128,
                iterations,
                warmup: 0,
            });
            cluster.event_counts()[Ev::DriverTimer { node: 0 }.kind()].1
        };
        let short = driver_timers(1_000);
        let long = driver_timers(10_000);
        assert!(
            long <= 11 * short,
            "DriverTimer events grew {short} -> {long} for 10x the round trips"
        );
    }

    /// The coalescing timer follows the same slot rule. Open-MX arms it on
    /// every first packet and each interrupt disarms it, so every round trip
    /// leaves a superseded timer event queued; each fires once as a no-op and
    /// re-arms at most once, so ten times the round trips dispatch about ten
    /// times the timers.
    #[test]
    fn coalesce_timers_grow_linearly_with_run_length() {
        let coalesce_timers = |iterations| {
            let mut cluster = ClusterBuilder::new()
                .nodes(2)
                .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
                .build();
            cluster.run_pingpong(crate::workloads::pingpong::PingPongSpec {
                msg_len: 128,
                iterations,
                warmup: 0,
            });
            cluster.event_counts()[Ev::CoalesceTimer { node: 0 }.kind()].1
        };
        let short = coalesce_timers(1_000);
        let long = coalesce_timers(10_000);
        assert!(short > 0, "superseded Open-MX timers fire");
        assert!(
            9 * short <= long && long <= 11 * short,
            "CoalesceTimer events grew {short} -> {long} for 10x the round trips"
        );
    }

    /// A superseded coalescing-timer event is dispatched but acts on
    /// nothing, so it leaves no trace line: under Open-MX every small
    /// message's interrupt is raised by its marked packet, never the timer.
    #[test]
    fn superseded_coalesce_timers_fire_untraced() {
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
            .build();
        cluster.enable_tracing(1 << 16);
        cluster.run_pingpong(crate::workloads::pingpong::PingPongSpec {
            msg_len: 128,
            iterations: 100,
            warmup: 0,
        });
        let fired = cluster.event_counts()[Ev::CoalesceTimer { node: 0 }.kind()].1;
        assert!(fired > 0, "superseded timers fire");
        let tracer = cluster.tracer().expect("tracing enabled");
        assert_eq!(tracer.evicted(), 0);
        assert!(tracer.events().all(|e| e.kind != TraceKind::CoalesceTimer));
    }

    /// A zero retransmission timeout, which would resend and re-stamp the
    /// head at `now` and so leave the driver timer overdue after every
    /// firing, is rejected when the cluster is built.
    #[test]
    #[should_panic(expected = "ProtoConfig::rto_ns = 0")]
    fn overdue_driver_timer_panics() {
        let mut builder = ClusterBuilder::new().nodes(2);
        builder.config_mut().proto.rto_ns = 0;
        let mut cluster = builder.build();
        cluster.add_actor(
            0,
            0,
            Box::new(OneShotSender {
                dst: EndpointAddr::new(1, 0),
                len: 64,
                send_done_at: None,
            }),
        );
        cluster.run(Time::from_secs(1));
    }

    /// The offload engine re-arms each due frame `hop_ns + rto_ns` after
    /// the firing; with both zero its deadline would stay at `now`, so the
    /// cluster is rejected when built.
    #[test]
    #[should_panic(expected = "OffloadConfig::hop_ns + OffloadConfig::rto_ns = 0")]
    fn overdue_offload_timer_panics() {
        struct Barrier {
            rank: u32,
        }
        impl Actor for Barrier {
            fn on_start(&mut self, ctx: &mut ActorCtx) {
                ctx.post_offload_collective(OffloadCollDesc {
                    op: omx_nic::CollOp::Barrier,
                    rank: self.rank,
                    ranks: 2,
                    ranks_per_node: 1,
                    payload: 0,
                });
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut builder = ClusterBuilder::new().nodes(2);
        builder.config_mut().offload.hop_ns = 0;
        builder.config_mut().offload.rto_ns = 0;
        let mut cluster = builder.build();
        cluster.add_actor(0, 0, Box::new(Barrier { rank: 0 }));
        cluster.add_actor(1, 0, Box::new(Barrier { rank: 1 }));
        cluster.run(Time::from_secs(1));
    }

    /// A timer handler that leaves its deadline at or before `now` would
    /// fire again at `now` forever; `arm_timer` panics instead, in release
    /// builds too. From any other caller an overdue deadline arms at `now`.
    #[test]
    #[should_panic(expected = "DriverTimer { node: 0 } is overdue after firing")]
    fn arm_timer_panics_on_a_deadline_overdue_after_firing() {
        let mut cluster = ClusterBuilder::new().build();
        let now = Time::from_nanos(100);
        cluster.ctx.now = now;
        let ev = || Ev::DriverTimer { node: 0 };
        let mut slot = None;
        arm_timer(
            &mut slot,
            Some(Time::ZERO),
            now,
            false,
            &mut cluster.ctx,
            ev(),
        );
        assert_eq!(slot, Some(now), "an overdue deadline arms at now");
        arm_timer(&mut slot, Some(now), now, true, &mut cluster.ctx, ev());
    }

    /// A lossy, reordered two-node stream (retransmissions, RTO stalls,
    /// multi-packet batches) with its actors attached, not yet run.
    fn lossy_stream_cluster() -> Cluster {
        use crate::workloads::stream::{StreamReceiver, StreamSender, StreamSpec};
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .strategy(CoalescingStrategy::Stream { delay_us: 75 })
            .disturbance(omx_fabric::DisturbanceConfig {
                loss_probability: 0.05,
                delay_probability: 0.1,
                delay_min_ns: 5_000,
                delay_max_ns: 60_000,
                jitter_ns: 300,
            })
            .build();
        let spec = StreamSpec {
            msg_len: 8 << 10,
            messages: 40,
            window: 8,
        };
        let sender = StreamSender::new(EndpointAddr::new(1, 0), spec);
        cluster.add_actor(0, 0, Box::new(sender));
        cluster.add_actor(1, 0, Box::new(StreamReceiver::new(spec.messages)));
        cluster
    }

    /// What a run leaves behind: per-kind event counts, the metrics JSON
    /// and the clock.
    fn outcome(cluster: &Cluster) -> (EventCounts, String, Time) {
        use omx_sim::json::ToJson;
        let metrics = cluster.metrics().to_json().render();
        (cluster.event_counts(), metrics, cluster.now())
    }

    /// A run cut at horizons stops at each with the clock on the horizon,
    /// and resuming it ends exactly where one uninterrupted run does.
    #[test]
    fn horizon_cut_resumes_like_one_run() {
        let mut whole = lossy_stream_cluster();
        assert_eq!(whole.run(Time::MAX), StopCondition::PredicateSatisfied);
        let end = whole.now().as_nanos();
        let mut cut = lossy_stream_cluster();
        let mut left_inbound = 0;
        // The first two cuts fall in the first window's burst of frames.
        for horizon in [5_000, 40_000, end / 4, end / 2, end * 3 / 4].map(Time::from_nanos) {
            assert_eq!(cut.run(horizon), StopCondition::HorizonReached);
            assert_eq!(cut.now(), horizon);
            let next = cut.ctx.inbound.peek_key();
            assert!(
                next.is_none_or(|(at, _)| at > horizon),
                "a frame due by the horizon is still queued at {next:?}"
            );
            left_inbound += cut.ctx.inbound.len();
            for rt in &cut.nodes.rts {
                let next = rt.nic.unsettled_dma();
                assert!(
                    next.is_none_or(|c| c.at > horizon),
                    "{next:?} completes by the horizon but is not settled"
                );
            }
        }
        assert!(left_inbound > 0, "the cuts leave frames in flight");
        assert_eq!(cut.run(Time::MAX), StopCondition::PredicateSatisfied);
        assert_eq!(outcome(&cut), outcome(&whole));
    }

    /// In the lossy stream, disturbance delays of 5–60 µs let later-sent
    /// frames overtake earlier ones bound for the same node. Every frame
    /// still dispatches exactly once, in `(time, seq)` order (`Ctx::enter`
    /// checks the order of every dispatch in debug builds), and the trace
    /// stays in key order.
    #[test]
    fn overtaking_frames_dispatch_once_in_key_order() {
        let mut cluster = lossy_stream_cluster();
        cluster.enable_tracing(1 << 20);
        cluster.run(Time::MAX);
        let tracer = cluster.tracer().expect("tracing enabled");
        assert_eq!(tracer.evicted(), 0);
        let keys: Vec<_> = tracer.keys().collect();
        assert!(keys.is_sorted(), "trace records out of key order");
        // A frame's key holds the sequence number reserved when it was
        // sent, so an arrival with a lower one than an earlier arrival at
        // its node was overtaken.
        let mut last_seq = [0u64; 2];
        let (mut arrivals, mut overtaken) = (Vec::new(), 0);
        for (key, e) in keys.iter().zip(tracer.events()) {
            if e.kind == TraceKind::FrameArrival {
                let node = usize::from(e.node);
                overtaken += usize::from(key.1 < last_seq[node]);
                last_seq[node] = last_seq[node].max(key.1);
                arrivals.push(*key);
            }
        }
        assert!(overtaken > 0, "no frame was overtaken");
        assert!(
            arrivals.windows(2).all(|w| w[0] < w[1]),
            "each frame dispatches once, in key order"
        );
        let (kind, dispatched) = cluster.event_counts()[0];
        assert_eq!(kind, "FrameArrival");
        assert_eq!(dispatched, arrivals.len() as u64);
        assert_eq!(dispatched, cluster.metrics().frames_carried);
        assert!(cluster.ctx.inbound.is_empty());
    }

    /// A one-node stream of large messages between two co-located
    /// endpoints, with windowed sends so pull blocks overlap: every packet
    /// takes the shared-memory path.
    fn shm_stream_cluster() -> Cluster {
        use crate::workloads::stream::{StreamReceiver, StreamSender, StreamSpec};
        let mut cluster = ClusterBuilder::new().nodes(1).endpoints_per_node(2).build();
        let spec = StreamSpec {
            msg_len: (200 << 10) + 123,
            messages: 6,
            window: 3,
        };
        let sender = StreamSender::new(EndpointAddr::new(0, 1), spec);
        cluster.add_actor(0, 0, Box::new(sender));
        cluster.add_actor(0, 1, Box::new(StreamReceiver::new(spec.messages)));
        cluster
    }

    /// Shared-memory deliveries land `shm_latency_ns + bytes / bandwidth`
    /// after their send, and a send on the shared-memory path has no IRQ
    /// core, so each driver call's CPU cursor starts afresh: the replies of
    /// overlapping pull blocks interleave, a later block's overtaking an
    /// earlier one's. They are events of the event queue: each dispatches
    /// exactly once, in `(time, seq)` order, and frees its packet slot.
    #[test]
    fn overtaking_shm_deliveries_dispatch_once_in_key_order() {
        let mut cluster = shm_stream_cluster();
        cluster.enable_tracing(1 << 20);
        assert_eq!(cluster.run(Time::ZERO), StopCondition::HorizonReached);
        let mut keys = Vec::new();
        while let Some((now, seq, event)) = cluster.ctx.queue.pop() {
            if let Ev::ShmDeliver { .. } = event {
                keys.push((now, seq));
            }
            cluster.ctx.enter(now, seq);
            cluster.nodes.dispatch(now, seq, event, &mut cluster.ctx);
        }
        assert!(cluster.ctx.inbound.is_empty(), "no packet went on the wire");
        // A delivery with a lower sequence number than the one dispatched
        // before it was sent earlier and overtaken.
        let overtaken = keys.windows(2).filter(|w| w[1].1 < w[0].1).count();
        assert!(overtaken > 0, "no shared-memory delivery overtook another");
        assert!(
            keys.windows(2).all(|w| w[0] < w[1]),
            "deliveries dispatch in key order"
        );
        let transmits = cluster
            .tracer()
            .expect("tracing enabled")
            .events()
            .filter(|e| e.kind == TraceKind::Transmit)
            .count();
        assert_eq!(keys.len(), transmits, "each packet sent is delivered once");
        assert_eq!(cluster.event_counts()[10], ("ShmDeliver", transmits as u64));
        assert_eq!(cluster.ctx.shm_free.len(), cluster.ctx.shm_packets.len());
        assert!(cluster.sanitize().violations.is_empty());
    }

    /// Events that wait in the event queue stay small: wire frames in
    /// flight wait in the inbound queues instead, and a shared-memory
    /// delivery's packet in `Ctx::shm_packets`.
    #[test]
    fn queued_events_fit_in_40_bytes() {
        let size = std::mem::size_of::<Ev>();
        assert!(size <= 40, "`Ev` is {size} bytes");
    }

    /// 0-byte ping-pongs under the 75 µs timeout, not yet run: no DMA
    /// completion can act, the coalescing timer claims every packet.
    fn timeout_pingpong_cluster() -> Cluster {
        use crate::workloads::pingpong::{PingActor, PingPongSpec, PongActor};
        let spec = PingPongSpec {
            msg_len: 0,
            iterations: 200,
            warmup: 0,
        };
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .strategy(CoalescingStrategy::Timeout { delay_us: 75 })
            .build();
        let ping = PingActor::new(EndpointAddr::new(1, 0), spec);
        cluster.add_actor(0, 0, Box::new(ping));
        let pong = PongActor::new(EndpointAddr::new(0, 0), spec.msg_len);
        cluster.add_actor(1, 0, Box::new(pong));
        cluster
    }

    /// Every rank of a 16-node job, two ranks per node, sends 16 KiB to
    /// every other rank at once through 32-frame switch buffers, under
    /// Open-MX coalescing: an all-to-all exchange without the MPI layer,
    /// with marked and unmarked fragments, switch drops and retransmits.
    fn openmx_alltoall_cluster() -> Cluster {
        const NODES: u16 = 16;
        const EPS: u8 = 2;
        struct Rank {
            me: EndpointAddr,
        }
        impl Actor for Rank {
            fn on_start(&mut self, ctx: &mut ActorCtx) {
                let peers = (0..NODES)
                    .flat_map(|n| (0..EPS).map(move |e| EndpointAddr::new(n, e)))
                    .filter(|&p| p != self.me);
                for (i, peer) in peers.enumerate() {
                    ctx.post_recv(0, 0, i as u64);
                    ctx.post_send(peer, 16 << 10, 0, i as u64);
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut builder = ClusterBuilder::new()
            .nodes(NODES as usize)
            .endpoints_per_node(EPS as usize)
            .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
            .switch_buffer_frames(32);
        builder.config_mut().host.cores = EPS as usize;
        let mut cluster = builder.build();
        for node in 0..NODES {
            for ep in 0..EPS {
                let me = EndpointAddr::new(node, ep);
                cluster.add_actor(node, ep, Box::new(Rank { me }));
            }
        }
        cluster
    }

    /// Tracing schedules nothing: a traced run dispatches exactly the
    /// events of an untraced one, `DmaComplete` included, and ends with the
    /// same metrics at the same instant.
    #[test]
    fn traced_and_untraced_runs_dispatch_the_same_events() {
        let shapes = [
            ("lossy stream", lossy_stream_cluster as fn() -> Cluster),
            ("timeout ping-pong", timeout_pingpong_cluster),
            ("open-mx alltoall", openmx_alltoall_cluster),
        ];
        for (shape, build) in shapes {
            let run = |traced: bool| {
                let mut cluster = build();
                if traced {
                    cluster.enable_tracing(1 << 12);
                }
                cluster.run(Time::MAX);
                outcome(&cluster)
            };
            let (traced, untraced) = (run(true), run(false));
            assert_eq!(untraced.1, traced.1, "{shape}: metrics");
            assert_eq!(untraced.2, traced.2, "{shape}: clock");
            for ((kind, n_untraced), (_, n_traced)) in untraced.0.iter().zip(traced.0) {
                assert_eq!(*n_untraced, n_traced, "{shape}: {kind} events");
            }
        }
    }

    /// Checks that a traced 2-node run, stopped by predicate, holds one
    /// `DmaComplete` for every frame the NIC took, in descriptor order on
    /// each node, and returns how many.
    fn assert_every_taken_frame_completed(cluster: &Cluster) -> usize {
        let tracer = cluster.tracer().expect("tracing enabled");
        assert_eq!(tracer.evicted(), 0);
        let mut owed: [Vec<u64>; 2] = Default::default();
        let mut completed = 0;
        for e in tracer.events() {
            match (e.kind, e.data) {
                (TraceKind::FrameArrival, TraceData::Packet { desc: Some(d), .. }) => {
                    owed[e.node as usize].push(d);
                }
                (TraceKind::DmaComplete, TraceData::Desc { desc }) => {
                    let node = &mut owed[e.node as usize];
                    assert_eq!(node.first(), Some(&desc), "completed out of order");
                    node.remove(0);
                    completed += 1;
                }
                _ => {}
            }
        }
        assert_eq!(owed, [vec![], vec![]], "frames taken but never completed");
        completed
    }

    /// A traced ping-pong under the 75 µs timeout settles every DMA
    /// completion lazily: none can act. It ends by predicate, and the
    /// trace still holds one `DmaComplete` for every frame the NIC took.
    #[test]
    fn a_traced_timeout_pingpong_traces_every_completion() {
        use crate::workloads::pingpong::PingPongSpec;
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .strategy(CoalescingStrategy::Timeout { delay_us: 75 })
            .build();
        cluster.enable_tracing(1 << 16);
        cluster.run_pingpong(PingPongSpec {
            msg_len: 0,
            iterations: 20,
            warmup: 0,
        });
        let ev = cluster.event_counts();
        assert_eq!(ev.iter().find(|(k, _)| *k == "DmaComplete").unwrap().1, 0);
        let completed = assert_every_taken_frame_completed(&cluster);
        assert!(completed >= 40, "{completed} completions traced");
    }

    /// A predicate stop settles, and traces, every DMA completion before
    /// the stopping event. Here the sender takes an unmarked ack whose
    /// completion cannot act, and the receiver's last delivery stops the
    /// run before any other event on the sender's NIC would settle it.
    #[test]
    fn a_predicate_stop_settles_the_completions_before_it() {
        use crate::workloads::stream::StreamSpec;
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
            .build();
        cluster.enable_tracing(1 << 12);
        cluster.run_stream(StreamSpec {
            msg_len: 0,
            messages: 20,
            window: 8,
        });
        for rt in &cluster.nodes.rts {
            let next = rt.nic.unsettled_dma();
            assert!(
                next.is_none_or(|c| c.at >= cluster.now()),
                "{next:?} precedes the stop at {}",
                cluster.now()
            );
        }
        assert_every_taken_frame_completed(&cluster);
    }

    /// A fabric MTU set without the protocol's would have the driver
    /// fragment at 1500 B over a 9000 B fabric; the cluster refuses it.
    #[test]
    #[should_panic(expected = "fabric MTU 9000 and protocol MTU 1500 differ")]
    fn split_mtu_config_panics() {
        let mut builder = ClusterBuilder::new();
        builder.config_mut().fabric.mtu = 9000;
        builder.build();
    }

    /// A completion nothing will ever settle fails the run at quiescence,
    /// in release builds too, instead of leaving its packet out of the
    /// results.
    #[test]
    #[should_panic(expected = "was never settled")]
    fn unsettled_dma_completion_at_quiescence_panics() {
        let mut cluster = ClusterBuilder::new().build();
        // A frame the NIC accepts behind the event loop's back: it arms
        // the coalescing timer, but no timer event is scheduled, so no
        // entry point will ever settle the completion.
        let queue = &mut cluster.ctx.queue;
        let frame = WireFrame::Raw { payload_len: 64 };
        let out = cluster.nodes.rts[1].nic.on_frame(
            Time::ZERO,
            queue.reserve_seq(),
            frame,
            frame.meta(),
            || queue.reserve_seq(),
            |_| {},
        );
        assert!(out.desc.is_some());
        cluster.run(Time::MAX);
    }

    /// Telemetry windows close at every aligned boundary up to the last
    /// event, then once at the stop point and never past it; sampling
    /// changes no event, metric or trace line.
    #[test]
    fn telemetry_windows_align_and_leave_the_run_unchanged() {
        let window_ns = TelemetryConfig::default().window_ns;
        let run = |telemetry: bool| {
            let mut cluster = lossy_stream_cluster();
            cluster.enable_tracing(1 << 20);
            if telemetry {
                cluster.enable_telemetry(TelemetryConfig::default());
            }
            cluster.run(Time::MAX);
            cluster
        };
        let (plain, sampled) = (run(false), run(true));
        assert_eq!(outcome(&sampled), outcome(&plain));
        let render = |c: &Cluster| c.tracer().expect("tracing enabled").render();
        assert_eq!(render(&sampled), render(&plain));

        let end = sampled.now().as_nanos();
        let mut expect: Vec<u64> = (1..=end / window_ns).map(|k| k * window_ns).collect();
        if end % window_ns != 0 {
            expect.push(end);
        }
        assert!(expect.len() > 2, "the run spans several windows");
        let tel = sampled.telemetry().expect("telemetry enabled");
        for node in 0..2 {
            let ends: Vec<u64> = tel.node_windows(node).map(|w| w.end_ns).collect();
            assert_eq!(ends, expect);
            let ends: Vec<u64> = tel.port_windows(node).map(|w| w.end_ns).collect();
            assert_eq!(ends, expect);
        }
    }

    /// A window closes before an event at its end instant: with the window
    /// as long as a one-way delivery, the boundary falls on the `AppRecv`
    /// event, and its bytes land in the second window, not the first.
    #[test]
    fn telemetry_window_closes_before_an_event_on_its_boundary() {
        struct Sink;
        impl Actor for Sink {
            fn on_start(&mut self, ctx: &mut ActorCtx) {
                ctx.post_recv(42, !0, 7);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let strategy = CoalescingStrategy::Disabled;
        let window_ns = one_shot(64, strategy).0.as_nanos();
        let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
        cluster.enable_telemetry(TelemetryConfig {
            window_ns,
            ..TelemetryConfig::default()
        });
        let sender = OneShotSender {
            dst: EndpointAddr::new(1, 0),
            len: 64,
            send_done_at: None,
        };
        cluster.add_actor(0, 0, Box::new(sender));
        cluster.add_actor(1, 0, Box::new(Sink));
        assert_eq!(cluster.run(Time::from_secs(1)), StopCondition::QueueEmpty);
        let tel = cluster.telemetry().expect("telemetry enabled");
        let goodput: Vec<(u64, u64)> = tel
            .node_windows(1)
            .map(|w| (w.end_ns, w.goodput_bytes))
            .collect();
        assert_eq!(goodput[..2], [(window_ns, 0), (2 * window_ns, 64)]);
    }

    /// A run that stops on a window boundary, after the event at that
    /// instant ran, closes its tail window at the next boundary: the
    /// delivery that stopped the run is counted, once.
    #[test]
    fn telemetry_tail_window_keeps_an_event_on_the_boundary() {
        let strategy = CoalescingStrategy::Disabled;
        let (at, _) = one_shot(64, strategy);
        let window_ns = at.as_nanos();
        let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
        cluster.enable_telemetry(TelemetryConfig {
            window_ns,
            ..TelemetryConfig::default()
        });
        let sender = OneShotSender {
            dst: EndpointAddr::new(1, 0),
            len: 64,
            send_done_at: None,
        };
        let receiver = OneShotReceiver {
            recv_done_at: None,
            len_seen: 0,
        };
        cluster.add_actor(0, 0, Box::new(sender));
        cluster.add_actor(1, 0, Box::new(receiver));
        let stop = cluster.run(Time::from_secs(1));
        assert_eq!(stop, StopCondition::PredicateSatisfied);
        assert_eq!(cluster.now(), at, "the run stops on the boundary");
        let tel = cluster.telemetry().expect("telemetry enabled");
        let windows: Vec<(u64, u64)> = tel
            .node_windows(1)
            .map(|w| (w.end_ns, w.goodput_bytes))
            .collect();
        let goodput: u64 = windows.iter().map(|&(_, g)| g).sum();
        assert_eq!(goodput, cluster.nodes.delivered_bytes[1]);
        assert_eq!(goodput, 64);
        assert!(
            windows.windows(2).all(|w| w[0].0 < w[1].0),
            "window ends increase: {windows:?}"
        );
    }

    /// A frame left waiting on the coalescing timer is one interrupt
    /// liveness violation of its node, reported once.
    #[test]
    fn a_stranded_frame_is_one_liveness_violation() {
        let strategy = CoalescingStrategy::Timeout { delay_us: 75 };
        let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
        let sender = OneShotSender {
            dst: EndpointAddr::new(1, 0),
            len: 64,
            send_done_at: None,
        };
        cluster.add_actor(0, 0, Box::new(sender));
        cluster.run(Time::from_micros(30));
        let liveness: Vec<String> = cluster
            .sanitize()
            .violations
            .into_iter()
            .filter(|v| v.starts_with("interrupt liveness"))
            .collect();
        assert_eq!(
            liveness,
            ["interrupt liveness: node 1 NIC still owes the host 1 packet(s)"]
        );
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut cluster = ClusterBuilder::new().build();
        cluster.ctx.now = Time::from_nanos(100);
        cluster
            .ctx
            .schedule_at(Time::from_nanos(99), Ev::DriverTimer { node: 0 });
    }

    /// Frames the switch tail-drops are traced as drops of their sender,
    /// one per dropped frame.
    #[test]
    fn switch_tail_drops_are_traced() {
        let mut builder = ClusterBuilder::new().nodes(4).endpoints_per_node(3);
        builder.config_mut().fabric.switch_buffer_frames = 1;
        let mut cluster = builder.build();
        cluster.enable_tracing(1 << 16);
        for src in 1..4u16 {
            cluster.add_actor(
                src,
                0,
                Box::new(OneShotSender {
                    dst: EndpointAddr::new(0, src as u8 - 1),
                    len: 32 << 10,
                    send_done_at: None,
                }),
            );
        }
        cluster.run(Time::from_millis(1));
        let switch_drops = cluster.metrics().switch_drops;
        assert!(switch_drops > 0, "incast into one egress port overflows it");
        let tracer = cluster.tracer().expect("tracing enabled");
        let traced: Vec<_> = tracer
            .events()
            .filter(|e| e.kind == TraceKind::Drop)
            .collect();
        assert_eq!(traced.len() as u64, switch_drops);
        assert!(traced
            .iter()
            .all(|e| e.node != 0 && e.data == TraceData::Text("switch full")));
    }
}
