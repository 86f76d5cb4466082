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
//! The whole cluster is a single [`omx_sim::Model`]; every hardware and
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
use omx_nic::{CoalescingStrategy, DescId, Nic, NicConfig, NicOutcome, PacketMeta, ReadyPacket};
use omx_sim::rng::SimRng;
use omx_sim::stats::TimeWeighted;
use omx_sim::{Engine, EventToken, Model, Scheduler, StopCondition, Time, TimeDelta};
use std::any::Any;
use std::collections::HashMap;

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
    /// Protocol tunables (MTU, acks, window, marking).
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

    /// Override the whole config (escape hatch).
    pub fn config(mut self, cfg: ClusterConfig) -> Self {
        self.cfg = cfg;
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

#[derive(Debug)]
enum Ev {
    /// A frame arrived at a node's NIC from the wire.
    FrameArrival { node: u16, pkt: WireFrame },
    /// A NIC DMA transfer completed.
    DmaComplete { node: u16, desc: DescId },
    /// The NIC coalescing timer fired.
    CoalesceTimer { node: u16, epoch: u64 },
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
    /// Intra-node shared-memory delivery.
    ShmDeliver { node: u16, pkt: Packet },
    /// The NIC offload engine's retransmission timer.
    OffloadTimer { node: u16 },
    /// Deliver a NIC-offloaded collective completion to an actor (after
    /// the completion IRQ handler and event-ring poll).
    OffloadDone { node: u16, ep: u8, seq: u32 },
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
    nic: Nic,
    host: Host,
    /// Frames whose DMA is in flight or that sit ready in host memory.
    in_dma: HashMap<DescId, WireFrame>,
    /// Time-weighted depth of `in_dma` — outstanding receive work.
    pending_dma: TimeWeighted,
    /// Armed driver-timer deadline (dedup of DriverTimer events).
    driver_timer: Option<Time>,
    /// Token of the pending coalescing-timer event, if any. Re-arming the
    /// NIC timer cancels the superseded event instead of leaving it to
    /// fire as an epoch-mismatch no-op — O(1) in the timer wheel, and it
    /// keeps the queue from accumulating one dead entry per re-arm.
    coalesce_timer_tok: Option<EventToken>,
    /// NIC-resident collective engine (firmware state in NIC memory).
    offload: OffloadEngine,
    /// Armed offload-RTO deadline (dedup of OffloadTimer events, same
    /// scheme as `driver_timer`).
    offload_timer: Option<Time>,
}

impl NodeRt {
    fn dma_insert(&mut self, now: Time, desc: DescId, pkt: WireFrame) {
        self.in_dma.insert(desc, pkt);
        self.pending_dma.set(now, self.in_dma.len() as f64);
    }

    fn dma_remove(&mut self, now: Time, desc: DescId) -> WireFrame {
        let frame = self
            .in_dma
            .remove(&desc)
            .expect("ready packet has a stored frame");
        self.pending_dma.set(now, self.in_dma.len() as f64);
        frame
    }
}

// ---------------------------------------------------------------------------
// The system model
// ---------------------------------------------------------------------------

/// The side effects a [`Nodes`] dispatch reaches the rest of the world
/// through: the engine's scheduler, the (shared) fabric, tracing, and the
/// sanitizer. Borrowed field-by-field from [`SystemModel`] so a handler can
/// mutate node state and apply effects at the same time.
struct Ctx<'a> {
    sched: &'a mut Scheduler<Ev>,
    fabric: &'a mut EthernetFabric,
    tracer: &'a mut Option<Tracer>,
    sanitizer: &'a mut Sanitizer,
}

impl Ctx<'_> {
    /// Schedule an event.
    fn schedule_at(&mut self, at: Time, ev: Ev) -> EventToken {
        self.sched.schedule_at(at, ev)
    }

    /// Cancel a previously scheduled event.
    fn cancel(&mut self, tok: EventToken) {
        self.sched.cancel(tok);
    }

    /// Hand an Open-MX packet to the fabric at `t` (doorbell already paid).
    fn transmit_omx_wire(&mut self, t: Time, pkt: Packet) {
        let src = pkt.hdr.src.node.0;
        let dst = pkt.hdr.dst.node.0;
        match self.fabric.transmit(
            t,
            PortId(src as usize),
            PortId(dst as usize),
            pkt.wire_len(),
        ) {
            TransmitOutcome::Arrives(at) => {
                self.sched.schedule_at(
                    at,
                    Ev::FrameArrival {
                        node: dst,
                        pkt: WireFrame::Omx(pkt),
                    },
                );
            }
            TransmitOutcome::Lost | TransmitOutcome::SwitchDropped => {
                // Wire loss or switch-egress tail drop: the retransmission
                // machinery recovers; nothing to schedule.
            }
        }
    }

    /// Hand a raw Ethernet frame to the fabric at `t`.
    fn transmit_raw_wire(&mut self, t: Time, src: u16, dst: NodeId, payload_len: u32) {
        let frame = WireFrame::Raw { payload_len };
        match self.fabric.transmit(
            t,
            PortId(src as usize),
            PortId(dst.0 as usize),
            frame.wire_len(),
        ) {
            TransmitOutcome::Arrives(at) => {
                self.sched.schedule_at(
                    at,
                    Ev::FrameArrival {
                        node: dst.0,
                        pkt: frame,
                    },
                );
            }
            TransmitOutcome::Lost | TransmitOutcome::SwitchDropped => {}
        }
    }

    /// Hand a NIC-resident collective frame to the fabric at `t` (the
    /// firmware hop cost is already folded into `t`).
    fn transmit_coll_wire(&mut self, t: Time, frame: CollFrame) {
        match self.fabric.transmit(
            t,
            PortId(frame.src_node as usize),
            PortId(frame.dst_node as usize),
            frame.wire_len(),
        ) {
            TransmitOutcome::Arrives(at) => {
                self.sched.schedule_at(
                    at,
                    Ev::FrameArrival {
                        node: frame.dst_node,
                        pkt: WireFrame::Coll(frame),
                    },
                );
            }
            TransmitOutcome::Lost | TransmitOutcome::SwitchDropped => {
                // The offload engine's NIC-side RTO retransmits.
            }
        }
    }

    /// Record a trace event. The payload is built lazily: when tracing is
    /// disabled the closure never runs, so tracing costs one branch.
    fn trace(&mut self, at: Time, node: u16, kind: TraceKind, data: impl FnOnce() -> TraceData) {
        if let Some(t) = self.tracer.as_mut() {
            t.record(at, node, kind, data());
        }
    }

    /// Sanitizer taps.
    fn san_send_posted(&mut self, src: u16, dst: u16, len: u32) {
        self.sanitizer.on_send_posted(src, dst, len);
    }

    fn san_send_completed(&mut self) {
        self.sanitizer.on_send_completed();
    }

    fn san_delivered(&mut self, src: u16, dst: u16, msg: u64, len: u32) {
        self.sanitizer.on_delivered(src, dst, msg, len);
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
    actors: HashMap<(u16, u8), Box<dyn Actor>>,
    /// Per-endpoint application CPU cursor: an actor's callbacks and the
    /// work they issue are serialised on its core.
    app_busy: HashMap<(u16, u8), Time>,
    stop: bool,
    /// Scratch buffer for actor commands (reused across callbacks).
    cmd_buf: Vec<ActorCmd>,
    /// Scratch buffer for driver actions (reused across dispatches).
    action_buf: Vec<DriverAction>,
    /// Scratch for endpoints woken by one batch (see `batch_duration`).
    woken_scratch: Vec<(u16, u8)>,
    /// Scratch for the ready-descriptor snapshot of one IRQ service.
    ready_scratch: Vec<ReadyPacket>,
    /// Scratch for the DMA-completed frames of one IRQ service.
    frame_scratch: Vec<WireFrame>,
    /// Pool of batch vectors cycling through `Ev::BatchDone` events.
    batch_pool: Vec<Vec<Packet>>,
    /// Scratch for draining the offload engine's emit queue.
    offload_scratch: Vec<OffloadEmit>,
    /// Per-node cumulative application-payload bytes delivered — the
    /// goodput tap, indexed by node. Tracked here (not in
    /// `DriverCounters`) so the serialized counter shape stays stable.
    delivered_bytes: Vec<u64>,
}

struct SystemModel {
    nodes: Nodes,
    fabric: EthernetFabric,
    /// Optional packet-level event trace.
    tracer: Option<Tracer>,
    /// Optional windowed telemetry sampler (driven by the engine tick).
    telemetry: Option<Telemetry>,
    /// Invariant recorder (posted / delivered / completed accounting).
    sanitizer: Sanitizer,
}

impl SystemModel {
    /// Snapshot every node and switch-port tap into the telemetry window
    /// ending at `end`. Called from the engine tick at aligned window
    /// boundaries and from the drain path to close the partial final
    /// window; `Telemetry::begin_window` rejects non-advancing boundaries,
    /// so the drain-path call is idempotent. Pure reads of layer state —
    /// nothing here touches the event queue.
    fn sample_telemetry(&mut self, end: Time) {
        let Some(tel) = self.telemetry.as_mut() else {
            return;
        };
        if !tel.begin_window(end) {
            return;
        }
        self.nodes.sample(tel);
        for p in 0..self.fabric.ports() {
            tel.sample_port(
                p,
                PortTap {
                    queue_len: self.fabric.switch_queue_len_at(PortId(p), end) as u64,
                    drops: self.fabric.switch_drops_at(PortId(p)),
                },
            );
        }
    }
}

impl Nodes {
    /// Runtime state of node `node`.
    #[inline]
    fn rt(&mut self, node: u16) -> &mut NodeRt {
        &mut self.rts[node as usize]
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
                    rx_ring: n.nic.rx_ring_occupancy() as u64,
                    pending_dma: n.in_dma.len() as u64,
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

    /// Charge receive-path processing for one batch; returns duration.
    fn batch_duration(&mut self, node: u16, core: CoreId, batch: &[WireFrame]) -> u64 {
        let costs = *self.rt(node).host.costs();
        // Waking processes blocked in `mx_wait` is handler work
        // (try_to_wake_up + rescheduling IPI, plus the C1E exit of the
        // target core when sleep states are allowed): one wake per blocking
        // endpoint this batch delivers to (§IV-B1's "several microseconds").
        let mut woken = std::mem::take(&mut self.woken_scratch);
        woken.clear();
        let mut wake_ns = 0u64;
        for frame in batch {
            if let WireFrame::Omx(pkt) = frame {
                if !delivers_app_event(pkt) {
                    continue; // intermediate fragments wake nobody
                }
                let key = (pkt.hdr.dst.node.0, pkt.hdr.dst.endpoint);
                if !woken.contains(&key)
                    && self.actors.get(&key).is_some_and(|a| a.blocking_waits())
                {
                    woken.push(key);
                    wake_ns += if self.cfg.host.sleep_enabled {
                        costs.proc_wakeup_ns
                    } else {
                        costs.proc_wakeup_nosleep_ns
                    };
                }
            }
        }
        self.woken_scratch = woken;
        let host = &mut self.rt(node).host;
        let mut dur = costs.irq_dispatch_ns + wake_ns;
        // Preempting a running application costs the context switch and the
        // application's cache/TLB pollution on top of the bare dispatch.
        if host.app_active(core) {
            dur += costs.irq_preempt_ns;
        }
        // Low-level driver structures: one line group per node.
        let lowlevel_bounced = host.cache_access(node as u64, core);
        for frame in batch {
            dur += costs.lowlevel_rx_ns;
            if lowlevel_bounced {
                dur += costs.lowlevel_bounce_ns;
            }
            if let WireFrame::Omx(pkt) = frame {
                // Open-MX handler: demux + per-connection descriptor touch.
                dur += costs.omx_handler_ns;
                dur += costs.rx_copy_ns(pkt.payload_len());
                dur += costs.event_ring_ns;
                let group = channel_group(pkt);
                if host.cache_access(group, core) {
                    dur += costs.omx_channel_bounce_ns;
                }
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
            ctx.schedule_at(
                now + TimeDelta::from_nanos(delay as i64),
                Ev::ShmDeliver { node: dst, pkt },
            );
            return;
        }
        let doorbell = self.cfg.host.costs.tx_doorbell_ns;
        let t = now + TimeDelta::from_nanos(doorbell as i64);
        ctx.transmit_omx_wire(t, pkt);
    }

    fn apply_nic_outcome(&mut self, node: u16, now: Time, out: NicOutcome, ctx: &mut Ctx) {
        if let Some((desc, at)) = out.dma {
            ctx.schedule_at(at, Ev::DmaComplete { node, desc });
        }
        if let Some((at, epoch)) = out.arm_timer {
            let rt = self.rt(node);
            if let Some(tok) = rt.coalesce_timer_tok.take() {
                ctx.cancel(tok);
            }
            self.rt(node).coalesce_timer_tok =
                Some(ctx.schedule_at(at.max(now), Ev::CoalesceTimer { node, epoch }));
        }
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

    /// Run driver actions, draining `actions` so the caller's buffer can be
    /// reused; `now` is when they become effective. `irq_core` is the core
    /// running the driver (None = application context).
    fn run_driver_actions(
        &mut self,
        node: u16,
        now: Time,
        actions: &mut Vec<DriverAction>,
        irq_core: Option<CoreId>,
        ctx: &mut Ctx,
    ) {
        let mut cursor = now;
        for action in actions.drain(..) {
            match action {
                DriverAction::Transmit(pkt) => {
                    let cost = self.tx_cost_ns(&pkt);
                    if let Some(core) = irq_core {
                        cursor = self.rt(node).host.occupy_irq(core, cursor, cost);
                    } else {
                        cursor += TimeDelta::from_nanos(cost as i64);
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
                    let visible =
                        cursor + TimeDelta::from_nanos(self.cfg.host.costs.app_event_ns as i64);
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
                    let visible =
                        cursor + TimeDelta::from_nanos(self.cfg.host.costs.app_event_ns as i64);
                    ctx.schedule_at(visible, Ev::AppSend { node, ep, handle });
                }
                DriverAction::ArmTimer { at } => {
                    let rt = self.rt(node);
                    let need = match rt.driver_timer {
                        Some(armed) => at < armed,
                        None => true,
                    };
                    if need {
                        rt.driver_timer = Some(at);
                        ctx.schedule_at(at.max(now), Ev::DriverTimer { node });
                    }
                }
            }
        }
    }

    /// Drain and apply the offload engine's queued emits for `node`. The
    /// engine is a passive state machine; this is the single point where
    /// its decisions touch the wire, the sanitizer, the host IRQ path and
    /// the event queue.
    fn run_offload_emits(&mut self, node: u16, now: Time, ctx: &mut Ctx) {
        let mut emits = std::mem::take(&mut self.offload_scratch);
        self.rt(node).offload.drain_emits(&mut emits);
        for e in emits.drain(..) {
            match e {
                OffloadEmit::Wire { at, frame, fresh } => {
                    if fresh {
                        if let CollFrameKind::Data { payload, .. } = frame.kind {
                            ctx.san_send_posted(frame.src_node, frame.dst_node, payload);
                        }
                    }
                    ctx.trace(at, node, TraceKind::OffloadFrame, || {
                        coll_trace_data(&frame)
                    });
                    if frame.dst_node == node {
                        // NIC-internal loopback (co-located ranks): never
                        // touches the fabric, cannot be lost.
                        ctx.schedule_at(
                            at,
                            Ev::FrameArrival {
                                node,
                                pkt: WireFrame::Coll(frame),
                            },
                        );
                    } else {
                        ctx.transmit_coll_wire(at, frame);
                    }
                }
                OffloadEmit::Delivered {
                    src_node,
                    msg_id,
                    len,
                } => {
                    ctx.san_delivered(src_node, node, msg_id, len);
                }
                OffloadEmit::AckCompleted => ctx.san_send_completed(),
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
                    let visible = end + TimeDelta::from_nanos(costs.app_event_ns as i64);
                    ctx.trace(now, node, TraceKind::OffloadComplete, || {
                        TraceData::CollDone { ep, seq, rank }
                    });
                    ctx.schedule_at(visible, Ev::OffloadDone { node, ep, seq });
                }
                OffloadEmit::ArmTimer { at } => {
                    let rt = self.rt(node);
                    let need = match rt.offload_timer {
                        Some(armed) => at < armed,
                        None => true,
                    };
                    if need {
                        rt.offload_timer = Some(at);
                        ctx.schedule_at(at.max(now), Ev::OffloadTimer { node });
                    }
                }
            }
        }
        self.offload_scratch = emits;
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
        let Some(mut actor) = self.actors.remove(&(node, ep)) else {
            return;
        };
        let blocking = actor.blocking_waits();
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
        self.actors.insert((node, ep), actor);

        // Execute commands sequentially, charging application CPU cost.
        // The cursor starts after any still-running work of this endpoint so
        // one rank cannot overlap its own CPU. A rank that went idle is
        // blocked in `mx_wait`; waking it costs scheduler latency, which is
        // paid once per delivery burst — the very effect that makes
        // per-packet interrupts expensive (§IV-B1).
        let costs = self.cfg.host.costs;
        let busy = *self.app_busy.entry((node, ep)).or_insert(Time::ZERO);
        let _ = blocking; // the wakeup cost is charged in the IRQ handler
        let mut cursor = now.max(busy);
        for cmd in cmds.drain(..) {
            match cmd {
                ActorCmd::Send {
                    dst,
                    len,
                    match_info,
                    handle,
                } => {
                    ctx.san_send_posted(node, dst.node.0, len);
                    let eager_len = len.min(crate::wire::MEDIUM_MAX);
                    let frags = crate::wire::frag_count(eager_len, self.cfg.proto.mtu) as u64;
                    let cpu = costs.send_post_ns
                        + costs.send_frag_ns * frags.min(4)
                        + costs.tx_copy_ns(eager_len);
                    cursor += TimeDelta::from_nanos(cpu as i64);
                    let mut actions = std::mem::take(&mut self.action_buf);
                    self.rt(node).driver.post_send_into(
                        cursor,
                        ep,
                        dst,
                        len,
                        match_info,
                        handle,
                        &mut actions,
                    );
                    self.run_driver_actions(node, cursor, &mut actions, None, ctx);
                    self.action_buf = actions;
                }
                ActorCmd::Recv {
                    match_value,
                    match_mask,
                    handle,
                } => {
                    cursor += TimeDelta::from_nanos(150);
                    let mut actions = std::mem::take(&mut self.action_buf);
                    self.rt(node).driver.post_recv_into(
                        cursor,
                        ep,
                        match_value,
                        match_mask,
                        handle,
                        &mut actions,
                    );
                    self.run_driver_actions(node, cursor, &mut actions, None, ctx);
                    self.action_buf = actions;
                }
                ActorCmd::Timer { at, token } => {
                    ctx.schedule_at(at.max(cursor), Ev::AppTimer { node, ep, token });
                }
                ActorCmd::RawEthernet { dst, payload_len } => {
                    cursor += TimeDelta::from_nanos(costs.send_post_ns as i64);
                    ctx.transmit_raw_wire(cursor, node, dst, payload_len);
                }
                ActorCmd::OffloadColl { desc } => {
                    // Host cost is one command-queue write plus the
                    // doorbell; the schedule itself runs in firmware.
                    let cpu = costs.send_post_ns + costs.tx_doorbell_ns;
                    cursor += TimeDelta::from_nanos(cpu as i64);
                    self.rt(node).offload.post(cursor, ep, &desc);
                    self.run_offload_emits(node, cursor, ctx);
                }
                ActorCmd::Stop => {
                    self.stop = true;
                }
            }
        }
        self.app_busy.insert((node, ep), cursor);
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
        PacketKind::Rendezvous { .. }
        | PacketKind::PullRequest { .. }
        | PacketKind::Ack { .. }
        | PacketKind::TcpSegment { .. } => false,
    }
}

/// Cache line group of the per-connection Open-MX descriptors a packet
/// touches in the receive handler.
fn channel_group(pkt: &Packet) -> u64 {
    // Mix source endpoint and destination endpoint; offset to avoid the
    // per-node low-level groups (small integers).
    let s = &pkt.hdr.src;
    let d = &pkt.hdr.dst;
    0x1000_0000
        + ((s.node.0 as u64) << 32)
        + ((s.endpoint as u64) << 24)
        + ((d.node.0 as u64) << 8)
        + d.endpoint as u64
}

impl Nodes {
    /// Dispatch one event against its node's state. Every event is
    /// node-local (cross-node traffic only exists as wire transmissions
    /// through the [`Ctx`]).
    fn dispatch(&mut self, now: Time, event: Ev, ctx: &mut Ctx) {
        match event {
            Ev::FrameArrival { node, pkt } => {
                if let WireFrame::Coll(frame) = pkt {
                    // NIC-resident collective: consumed by the offload
                    // engine in firmware — no RX ring, no DMA, no
                    // coalescer, no per-hop interrupt.
                    ctx.trace(now, node, TraceKind::FrameArrival, || {
                        coll_trace_data(&frame)
                    });
                    self.rt(node).offload.on_frame(now, frame);
                    self.run_offload_emits(node, now, ctx);
                    return;
                }
                let meta = pkt.meta();
                let out = self.rt(node).nic.on_frame(now, meta);
                let desc = if out.dropped {
                    None
                } else {
                    out.dma.map(|(d, _)| d)
                };
                ctx.trace(now, node, TraceKind::FrameArrival, || match pkt {
                    WireFrame::Omx(p) => TraceData::Packet {
                        pkt: p,
                        desc: desc.map(|d| d.0),
                    },
                    WireFrame::Raw { payload_len } => TraceData::RawFrame { len: payload_len },
                    WireFrame::Coll(_) => unreachable!("handled before RX-ring classification"),
                });
                if out.dropped {
                    ctx.trace(now, node, TraceKind::Drop, || TraceData::Text("ring full"));
                } else if let Some((desc, _)) = out.dma {
                    self.rt(node).dma_insert(now, desc, pkt);
                }
                self.apply_nic_outcome(node, now, out, ctx);
            }
            Ev::DmaComplete { node, desc } => {
                let out = self.rt(node).nic.on_dma_complete(now, desc);
                ctx.trace(now, node, TraceKind::DmaComplete, || TraceData::Desc {
                    desc: desc.0,
                });
                self.apply_nic_outcome(node, now, out, ctx);
            }
            Ev::CoalesceTimer { node, epoch } => {
                self.rt(node).coalesce_timer_tok = None;
                let out = self.rt(node).nic.on_timer(now, epoch);
                if out != NicOutcome::default() {
                    ctx.trace(now, node, TraceKind::CoalesceTimer, || TraceData::Epoch {
                        epoch,
                    });
                }
                self.apply_nic_outcome(node, now, out, ctx);
            }
            Ev::IrqService { node, core } => {
                // The handler reads the ring when it runs: claim everything
                // ready right now. Ready descriptors, frames, and the packet
                // batch all land in recycled buffers — steady-state dispatch
                // allocates nothing.
                let mut ready = std::mem::take(&mut self.ready_scratch);
                self.rt(node).nic.drain_ready_into(&mut ready);
                let mut frames = std::mem::take(&mut self.frame_scratch);
                for r in &ready {
                    frames.push(self.rt(node).dma_remove(now, r.desc));
                }
                ready.clear();
                self.ready_scratch = ready;
                let dur = self.batch_duration(node, core, &frames);
                let end = self.rt(node).host.occupy_irq(core, now, dur);
                let mut batch = self.batch_pool.pop().unwrap_or_default();
                batch.extend(frames.drain(..).filter_map(|f| match f {
                    WireFrame::Omx(p) => Some(p),
                    WireFrame::Raw { .. } => None, // dropped by the stack
                    WireFrame::Coll(_) => unreachable!("offload frames never enter the RX ring"),
                }));
                self.frame_scratch = frames;
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
                // hand the packets to the driver's protocol logic.
                let out = self.rt(node).nic.enable_irq(now);
                self.apply_nic_outcome(node, now, out, ctx);
                let mut actions = std::mem::take(&mut self.action_buf);
                for pkt in batch.drain(..) {
                    self.rt(node)
                        .driver
                        .handle_packet_into(now, pkt, &mut actions);
                    self.run_driver_actions(node, now, &mut actions, Some(core), ctx);
                }
                self.action_buf = actions;
                self.batch_pool.push(batch);
            }
            Ev::DriverTimer { node } => {
                let rt = self.rt(node);
                rt.driver_timer = None;
                let due = rt.driver.next_deadline().is_some_and(|d| d <= now);
                if due {
                    let mut actions = std::mem::take(&mut self.action_buf);
                    self.rt(node).driver.on_timer_into(now, &mut actions);
                    self.run_driver_actions(node, now, &mut actions, None, ctx);
                    self.action_buf = actions;
                } else if let Some(d) = self.rt(node).driver.next_deadline() {
                    let rt = self.rt(node);
                    rt.driver_timer = Some(d);
                    ctx.schedule_at(d, Ev::DriverTimer { node });
                }
            }
            Ev::ShmDeliver { node, pkt } => {
                let mut actions = std::mem::take(&mut self.action_buf);
                self.rt(node)
                    .driver
                    .handle_packet_into(now, pkt, &mut actions);
                self.run_driver_actions(node, now, &mut actions, None, ctx);
                self.action_buf = actions;
            }
            Ev::AppStart { node, ep } => {
                self.with_actor(node, ep, now, ctx, |a, actx| a.on_start(actx));
            }
            Ev::AppRecv { node, ep, c } => {
                ctx.san_delivered(c.src.node.0, node, c.msg.0, c.len);
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
                ctx.san_send_completed();
                self.with_actor(node, ep, now, ctx, |a, actx| {
                    a.on_send_complete(actx, handle)
                });
            }
            Ev::AppTimer { node, ep, token } => {
                self.with_actor(node, ep, now, ctx, |a, actx| a.on_timer(actx, token));
            }
            Ev::OffloadTimer { node } => {
                let rt = self.rt(node);
                rt.offload_timer = None;
                let due = rt.offload.next_deadline().is_some_and(|d| d <= now);
                if due {
                    self.rt(node).offload.on_timer(now);
                    self.run_offload_emits(node, now, ctx);
                } else if let Some(d) = self.rt(node).offload.next_deadline() {
                    let rt = self.rt(node);
                    rt.offload_timer = Some(d);
                    ctx.schedule_at(d, Ev::OffloadTimer { node });
                }
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

impl Model for SystemModel {
    type Event = Ev;

    fn handle(&mut self, now: Time, event: Ev, sched: &mut Scheduler<Ev>) {
        let SystemModel {
            nodes,
            fabric,
            tracer,
            sanitizer,
            ..
        } = self;
        let mut ctx = Ctx {
            sched,
            fabric,
            tracer,
            sanitizer,
        };
        nodes.dispatch(now, event, &mut ctx);
    }

    fn tick(&mut self, now: Time) {
        self.sample_telemetry(now);
    }
}

// ---------------------------------------------------------------------------
// Public cluster handle
// ---------------------------------------------------------------------------

/// A runnable simulated cluster.
pub struct Cluster {
    engine: Engine<SystemModel>,
    started: bool,
}

impl Cluster {
    /// Build from a full config (see also [`ClusterBuilder`]).
    pub fn new(cfg: ClusterConfig) -> Self {
        assert!(cfg.nodes >= 1, "cluster needs at least one node");
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
                in_dma: HashMap::new(),
                pending_dma: TimeWeighted::default(),
                driver_timer: None,
                coalesce_timer_tok: None,
                offload: OffloadEngine::new(i as u16, cfg.offload),
                offload_timer: None,
            })
            .collect();
        let model_nodes = cfg.nodes;
        let model = SystemModel {
            nodes: Nodes {
                cfg,
                rts,
                actors: HashMap::new(),
                app_busy: HashMap::new(),
                stop: false,
                cmd_buf: Vec::new(),
                action_buf: Vec::new(),
                woken_scratch: Vec::new(),
                ready_scratch: Vec::new(),
                frame_scratch: Vec::new(),
                batch_pool: Vec::new(),
                offload_scratch: Vec::new(),
                delivered_bytes: vec![0; model_nodes],
            },
            fabric,
            tracer: None,
            telemetry: None,
            sanitizer: Sanitizer::default(),
        };
        Cluster {
            engine: Engine::new(model),
            started: false,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &ClusterConfig {
        &self.engine.model().nodes.cfg
    }

    /// Enable packet-level event tracing, keeping the last `capacity`
    /// events. See [`crate::trace`].
    pub fn enable_tracing(&mut self, capacity: usize) {
        self.engine.model_mut().tracer = Some(Tracer::new(capacity));
    }

    /// The recorded trace, if tracing was enabled.
    pub fn tracer(&self) -> Option<&Tracer> {
        self.engine.model().tracer.as_ref()
    }

    /// Enable windowed telemetry sampling (see [`crate::telemetry`]). The
    /// engine fires a tick at every `cfg.window_ns` boundary of simulated
    /// time; ticks cannot schedule events, so enabling telemetry never
    /// changes event order, drain time, or simulation results.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        let window_ns = cfg.window_ns;
        let model = self.engine.model_mut();
        let nodes = model.nodes.cfg.nodes;
        // One egress port per node in this fabric.
        model.telemetry = Some(Telemetry::new(cfg, nodes, nodes));
        self.engine.set_tick_period(window_ns);
    }

    /// The collected telemetry, if enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.engine.model().telemetry.as_ref()
    }

    /// Detach and return the collected telemetry (e.g. before the cluster
    /// is consumed by a harvest path), leaving telemetry disabled.
    pub fn take_telemetry(&mut self) -> Option<Telemetry> {
        self.engine.model_mut().telemetry.take()
    }

    /// Attach an actor to `(node, endpoint)`. The endpoint is pinned to core
    /// `endpoint % cores` and marked application-active (it polls).
    pub fn add_actor(&mut self, node: u16, ep: u8, actor: Box<dyn Actor>) {
        assert!(!self.started, "actors must be added before the first run");
        let model = self.engine.model_mut();
        assert!(
            (node as usize) < model.nodes.cfg.nodes,
            "node {node} out of range"
        );
        assert!(
            (ep as usize) < model.nodes.cfg.endpoints_per_node,
            "endpoint {ep} out of range"
        );
        // Polling ranks keep their core busy (interrupts preempt them);
        // ranks that block in `mx_wait` leave it idle.
        let core = ep as usize % model.nodes.cfg.host.cores;
        let polls = !actor.blocking_waits();
        model.nodes.rts[node as usize]
            .host
            .set_app_active(core, polls, Time::ZERO);
        let prev = model.nodes.actors.insert((node, ep), actor);
        assert!(
            prev.is_none(),
            "endpoint ({node}, {ep}) already has an actor"
        );
    }

    /// Run until quiescence, the horizon, or an actor-requested stop.
    ///
    /// A horizon cut leaves in-flight events queued, so a follow-up `run`
    /// resumes where this one stopped.
    pub fn run(&mut self, horizon: Time) -> StopCondition {
        if !self.started {
            self.started = true;
            let mut keys: Vec<(u16, u8)> =
                self.engine.model().nodes.actors.keys().copied().collect();
            keys.sort_unstable();
            for (node, ep) in keys {
                self.engine.prime(Time::ZERO, Ev::AppStart { node, ep });
            }
        }
        let stop = self
            .engine
            .run_until(horizon, u64::MAX, |m: &SystemModel| m.nodes.stop);
        // Ticks only fire while events flow, so the tail of the run — from
        // the last aligned boundary to the final event — is still an open
        // window. Close it at the stop point (idempotent; skipped when the
        // horizon cut the run short, since the queue is still live then).
        if matches!(
            stop,
            StopCondition::QueueEmpty | StopCondition::PredicateSatisfied
        ) {
            let now = self.engine.now();
            self.engine.model_mut().sample_telemetry(now);
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

    /// Check the sim-sanitizer invariants against the current state: the
    /// run-time delivery accounting plus, per node, stranded protocol state
    /// ([`NodeDriver::pending_report`]) and NIC interrupt liveness
    /// ([`Nic::pending_work`]). Only meaningful once a run has drained to
    /// [`StopCondition::QueueEmpty`] — mid-flight state is not a bug while
    /// events remain. See [`crate::sanitizer`] for the invariant split.
    pub fn sanitize(&self) -> SanitizerReport {
        let m = self.engine.model();
        let mut report = m.sanitizer.report();
        let mut pending = Vec::new();
        for rt in &m.nodes.rts {
            rt.driver.pending_report(&mut pending);
        }
        report.violations.extend(
            pending
                .drain(..)
                .map(|e| format!("stranded message [{}]: {}", e.phase, e.detail)),
        );
        for (i, rt) in m.nodes.rts.iter().enumerate() {
            let owed = rt.nic.pending_work();
            if owed > 0 {
                report.violations.push(format!(
                    "interrupt liveness: node {i} NIC still owes the host {owed} packet(s)"
                ));
            }
            if !rt.in_dma.is_empty() {
                report.violations.push(format!(
                    "interrupt liveness: node {i} has {} frame(s) stuck in DMA",
                    rt.in_dma.len()
                ));
            }
        }
        for rt in &m.nodes.rts {
            // Offload liveness: incomplete operations, un-acked frames and
            // stranded early-arrival buffers are bugs at quiescence.
            rt.offload.pending_report(&mut report.violations);
        }
        report
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.engine.now()
    }

    /// Events processed so far (diagnostics).
    pub fn events_processed(&self) -> u64 {
        self.engine.events_processed()
    }

    /// Borrow an actor back (downcast to its concrete type).
    pub fn actor<T: Actor>(&self, node: u16, ep: u8) -> Option<&T> {
        self.engine
            .model()
            .nodes
            .actors
            .get(&(node, ep))
            .and_then(|a| a.as_any().downcast_ref::<T>())
    }

    /// Harvest metrics from every layer.
    ///
    /// Time-weighted gauges (pending-DMA depth, switch egress queue depth)
    /// are finalized at the harvest instant: their weight only accumulates
    /// on `set` calls, so without folding in the tail a run that drains to
    /// quiescence long after the last event would over-weight the final
    /// busy period and report a too-high time-weighted mean.
    pub fn metrics(&self) -> ClusterMetrics {
        let m = self.engine.model();
        let now = self.engine.now();
        ClusterMetrics {
            sim_time_ns: now.as_nanos(),
            frames_carried: m.fabric.frames_carried(),
            frames_dropped: m.fabric.frames_dropped(),
            switch_drops: m.fabric.switch_drops(),
            switch_occupancy_peak: m.fabric.switch_occupancy_peak(),
            switch_queue_depth: (0..m.nodes.cfg.nodes)
                .map(|p| m.fabric.switch_queue_depth_at(PortId(p)).finalized(now))
                .collect(),
            nodes: m
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
        self.engine
            .model()
            .nodes
            .rts
            .iter()
            .map(|n| n.offload.counters().clone())
            .collect()
    }

    /// Total interrupts raised across all nodes (the paper's headline
    /// host-load metric).
    pub fn total_interrupts(&self) -> u64 {
        self.engine
            .model()
            .nodes
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
}
