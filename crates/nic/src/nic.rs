//! The composite NIC state machine.
//!
//! [`Nic`] glues RX ring accounting, the [`DmaEngine`] and a [`Coalescer`]
//! into the passive component the cluster orchestrator drives. The split of
//! responsibilities follows the hardware:
//!
//! * the **strategy** (firmware logic) decides *when it wants* an interrupt,
//! * the **Nic** (hardware) enforces the physical gates — interrupts are
//!   auto-masked while one is being serviced (MSI + NAPI semantics), a raise
//!   with nothing to report is latched until a packet is ready, and the
//!   single coalescing timer fires only once its armed deadline is due, so
//!   a timer event from a superseded arming is a no-op.
//!
//! All methods return a [`NicOutcome`] describing the events the caller must
//! schedule (DMA completion) or act on (interrupt delivery). The caller arms
//! the timer event itself, from [`Nic::timer_deadline`], after every call.

use crate::coalesce::{Coalescer, CoalescingStrategy, Decision, TimerAction};
use crate::dma::{DmaConfig, DmaEngine};
use crate::packet::{DescId, PacketClass, PacketMeta};
use omx_sim::stats::{Counter, Histogram};
use omx_sim::Time;

/// Static NIC configuration.
#[derive(Debug, Clone)]
pub struct NicConfig {
    /// RX ring capacity in descriptors (in-flight DMAs + ready packets).
    pub rx_ring_slots: u32,
    /// DMA engine parameters.
    pub dma: DmaConfig,
    /// Coalescing strategy.
    pub strategy: CoalescingStrategy,
}

impl Default for NicConfig {
    fn default() -> Self {
        NicConfig {
            rx_ring_slots: 512,
            dma: DmaConfig::default(),
            strategy: CoalescingStrategy::myri10g_default(),
        }
    }
}

/// A packet sitting in host memory, ready for the host receive handler.
#[derive(Debug, Clone, Copy)]
pub struct ReadyPacket {
    /// Descriptor id.
    pub desc: DescId,
    /// Frame metadata.
    pub meta: PacketMeta,
    /// When its DMA completed (host-visible time).
    pub completed_at: Time,
}

/// Events the caller must schedule / act on after driving the NIC.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NicOutcome {
    /// Schedule a DMA-completion event for this descriptor at this time.
    pub dma: Option<(DescId, Time)>,
    /// An interrupt was raised right now (already counted by the NIC);
    /// deliver it to a host core.
    pub interrupt: bool,
    /// The frame was dropped because the RX ring was full.
    pub dropped: bool,
}

/// Monotonic NIC counters (mirrors `ethtool -S` style statistics).
#[derive(Debug, Default, Clone)]
pub struct NicCounters {
    /// Interrupts actually delivered to the host.
    pub interrupts: Counter,
    /// Frames accepted off the wire.
    pub packets: Counter,
    /// Frames carrying the Open-MX latency-sensitive marker.
    pub marked_packets: Counter,
    /// Frames dropped for lack of ring space.
    pub ring_drops: Counter,
    /// Open-MX frames accepted.
    pub omx_packets: Counter,
    /// IP frames accepted.
    pub ip_packets: Counter,
    /// Packets claimed by the host per interrupt.
    pub batch_sizes: Histogram,
    /// Time each packet sat ready (DMA done) before its interrupt fired,
    /// nanoseconds — the coalescing deferral the paper trades against
    /// interrupt rate.
    pub coalesce_hold_ns: Histogram,
}

omx_sim::impl_to_json!(NicCounters {
    interrupts,
    packets,
    marked_packets,
    ring_drops,
    omx_packets,
    ip_packets,
    batch_sizes,
    coalesce_hold_ns,
});

/// The simulated NIC.
pub struct Nic {
    cfg: NicConfig,
    strategy: Coalescer,
    dma: DmaEngine,
    /// Metadata of descriptors whose DMA is in flight, FIFO order.
    inflight_meta: std::collections::VecDeque<(DescId, PacketMeta)>,
    /// Packets in host memory awaiting an interrupt to claim them.
    ready: Vec<ReadyPacket>,
    /// Packets claimed by the in-flight interrupt (snapshot taken when the
    /// interrupt was raised — the handler processes exactly these).
    claimed: Vec<ReadyPacket>,
    /// Raise requests that arrived while an interrupt was in flight: each
    /// carries its own packet snapshot and is delivered as its own interrupt
    /// when the host re-enables (per-packet interrupts persist under load,
    /// as Table V of the paper measures for disabled coalescing).
    pending_claims: std::collections::VecDeque<Vec<ReadyPacket>>,
    next_desc: u64,
    /// Interrupts are auto-masked from raise until the host re-enables them.
    irq_enabled: bool,
    /// A raise was requested while masked (or with nothing ready): deliver
    /// as soon as both gates open.
    irq_latched: bool,
    /// When the coalescing timer is due; `None` while disarmed.
    timer_deadline: Option<Time>,
    /// Arming generation, bumped by every arm, disarm and raise. Only traces
    /// read it, as the label of a timer firing.
    timer_epoch: u64,
    /// Recycled claim vectors: every snapshot taken by `try_raise` comes
    /// from here and returns via `deliver`, so steady-state claim/drain
    /// cycles allocate nothing.
    spare_claims: Vec<Vec<ReadyPacket>>,
    counters: NicCounters,
}

impl Nic {
    /// Build a NIC from its configuration.
    pub fn new(cfg: NicConfig) -> Self {
        let strategy = cfg.strategy.build();
        Nic {
            cfg,
            strategy,
            dma: DmaEngine::new(DmaConfig::default()),
            inflight_meta: std::collections::VecDeque::new(),
            ready: Vec::new(),
            claimed: Vec::new(),
            pending_claims: std::collections::VecDeque::new(),
            next_desc: 0,
            irq_enabled: true,
            irq_latched: false,
            timer_deadline: None,
            timer_epoch: 0,
            spare_claims: Vec::new(),
            counters: NicCounters::default(),
        }
        .with_dma_cfg()
    }

    fn with_dma_cfg(mut self) -> Self {
        self.dma = DmaEngine::new(self.cfg.dma);
        self
    }

    /// Account one completion interrupt raised by the collective-offload
    /// engine ([`crate::offload`]). Offloaded collectives bypass the RX
    /// ring, DMA engine and coalescer entirely — this is a dedicated
    /// MSI-X completion vector — but the interrupt still lands on the
    /// host, so it is folded into the same counter telemetry and the
    /// host-load experiments read.
    pub fn note_offload_interrupt(&mut self) {
        self.counters.interrupts.incr();
    }

    /// Counters snapshot.
    pub fn counters(&self) -> &NicCounters {
        &self.counters
    }

    /// DMA transfers currently in flight.
    pub fn pending_dmas(&self) -> usize {
        self.dma.pending()
    }

    /// Whether host interrupts are currently enabled (unmasked).
    pub fn irq_enabled(&self) -> bool {
        self.irq_enabled
    }

    /// Total packets the NIC still owes the host: DMAs in flight, ready
    /// packets awaiting an interrupt, and claim snapshots not yet serviced.
    /// This is the RX-ring occupancy [`Nic::on_frame`] admits against
    /// `rx_ring_slots`. Non-zero at quiescence means an interrupt-liveness
    /// violation — a coalescer held packets forever without raising.
    pub fn pending_work(&self) -> usize {
        self.dma.pending()
            + self.ready.len()
            + self.claimed.len()
            + self.pending_claims.iter().map(Vec::len).sum::<usize>()
    }

    /// When the coalescing timer is due, if it is armed. The caller keeps
    /// a timer event scheduled no later than this.
    pub fn timer_deadline(&self) -> Option<Time> {
        self.timer_deadline
    }

    /// The timer's arming generation (a trace label).
    pub fn timer_epoch(&self) -> u64 {
        self.timer_epoch
    }

    // -- event entry points -------------------------------------------------

    /// A frame arrived off the wire at `now`.
    pub fn on_frame(&mut self, now: Time, meta: PacketMeta) -> NicOutcome {
        let mut out = NicOutcome::default();
        if self.pending_work() >= self.cfg.rx_ring_slots as usize {
            self.counters.ring_drops.incr();
            out.dropped = true;
            return out;
        }
        self.counters.packets.incr();
        match meta.class {
            PacketClass::OpenMx => self.counters.omx_packets.incr(),
            PacketClass::Ip => self.counters.ip_packets.incr(),
            PacketClass::Other => {}
        }
        if meta.marked {
            self.counters.marked_packets.incr();
        }

        let desc = DescId(self.next_desc);
        self.next_desc += 1;
        self.inflight_meta.push_back((desc, meta));
        let completes_at = self.dma.submit(now, desc, meta.len_bytes);
        out.dma = Some((desc, completes_at));

        let decision = self.strategy.on_packet_arrival(now);
        self.apply(now, decision, &mut out);
        out
    }

    /// The DMA for `desc` completed at `now`.
    pub fn on_dma_complete(&mut self, now: Time, desc: DescId) -> NicOutcome {
        let mut out = NicOutcome::default();
        let pending = self.dma.complete(desc);
        let (head_desc, meta) = self
            .inflight_meta
            .pop_front()
            .expect("completion without in-flight descriptor");
        debug_assert_eq!(head_desc, desc);
        self.ready.push(ReadyPacket {
            desc,
            meta,
            completed_at: now,
        });
        let decision = self.strategy.on_dma_complete(meta.marked, pending);
        self.apply(now, decision, &mut out);
        // A raise latched earlier (e.g. timer fired before any DMA finished)
        // can be delivered now that a packet is ready.
        self.flush_latched(now, &mut out);
        self.safety_rearm(now, &mut out);
        out
    }

    /// A coalescing-timer event fired at `now`. It acts only if the armed
    /// deadline is due; otherwise it belongs to a superseded arming and is
    /// a no-op.
    pub fn on_timer(&mut self, now: Time) -> NicOutcome {
        let mut out = NicOutcome::default();
        if self.timer_deadline.is_none_or(|at| at > now) {
            return out;
        }
        self.timer_deadline = None;
        let decision = self.strategy.on_timer();
        self.apply(now, decision, &mut out);
        out
    }

    /// The host finished servicing the interrupt and re-enables IRQs. If
    /// further raise requests queued while masked, the next one is delivered
    /// immediately as its own interrupt.
    pub fn enable_irq(&mut self, now: Time) -> NicOutcome {
        let mut out = NicOutcome::default();
        self.irq_enabled = true;
        if let Some(claim) = self.pending_claims.pop_front() {
            self.deliver(now, claim, &mut out);
        } else {
            self.flush_latched(now, &mut out);
        }
        self.safety_rearm(now, &mut out);
        out
    }

    /// Safety re-arm: packets sit in host memory but nothing will ever
    /// interrupt for them (no timer armed, no claim pending, no raise just
    /// issued) — re-arm the fallback timer so they cannot strand until a
    /// retransmission rescues them. Real firmware schedules its timeout per
    /// unclaimed event; this is the equivalent backstop. Checked after every
    /// DMA completion and after every interrupt re-enable (a packet may
    /// complete while an earlier claim is still queued).
    fn safety_rearm(&mut self, now: Time, out: &mut NicOutcome) {
        if !self.ready.is_empty()
            && self.timer_deadline.is_none()
            && !out.interrupt
            && self.pending_claims.is_empty()
        {
            if let Some(delay) = self.strategy.fallback_delay() {
                self.timer_epoch += 1;
                self.timer_deadline = Some(now + delay);
            }
        }
    }

    /// Flow id of the in-flight interrupt's first claimed packet (multiqueue
    /// steering input; 0 when nothing is claimed).
    pub fn claimed_flow(&self) -> u64 {
        self.claimed.first().map(|p| p.meta.flow).unwrap_or(0)
    }

    /// The host receive handler takes the packets the in-flight interrupt
    /// claimed when it was raised. Packets whose DMA completed afterwards
    /// wait for the next interrupt — the hardware interrupt carries a
    /// snapshot of the event ring, it does not grow retroactively. The
    /// claimed packets are appended to `out` (which the caller reuses
    /// across interrupts); the claim vector keeps its capacity for the next
    /// snapshot.
    pub fn drain_ready_into(&mut self, out: &mut Vec<ReadyPacket>) {
        out.extend_from_slice(&self.claimed);
        self.claimed.clear();
    }

    // -- internals -----------------------------------------------------------

    fn apply(&mut self, now: Time, decision: Decision, out: &mut NicOutcome) {
        match decision.timer {
            TimerAction::Keep => {}
            TimerAction::ArmAt(at) => {
                self.timer_epoch += 1;
                self.timer_deadline = Some(at);
            }
            TimerAction::Disarm => {
                self.timer_epoch += 1;
                self.timer_deadline = None;
            }
        }
        if decision.raise {
            self.try_raise(now, out);
        }
    }

    fn try_raise(&mut self, now: Time, out: &mut NicOutcome) {
        if self.ready.is_empty() {
            // Nothing in host memory yet: latch until a DMA completes.
            self.irq_latched = true;
            return;
        }
        self.irq_latched = false;
        // Snapshot: this raise reports exactly the packets ready now. The
        // replacement vector comes from the recycle pool, so the swap does
        // not allocate in steady state.
        let fresh = self.spare_claims.pop().unwrap_or_default();
        let claim = std::mem::replace(&mut self.ready, fresh);
        self.strategy.on_interrupt();
        // The strategy considers its timer reset after an interrupt;
        // disarm the physical timer to match.
        self.timer_epoch += 1;
        self.timer_deadline = None;
        if self.irq_enabled {
            self.deliver(now, claim, out);
        } else {
            // Masked: queue; delivered as its own interrupt on re-enable.
            self.pending_claims.push_back(claim);
        }
    }

    fn deliver(&mut self, now: Time, claim: Vec<ReadyPacket>, out: &mut NicOutcome) {
        debug_assert!(self.irq_enabled);
        debug_assert!(self.claimed.is_empty(), "previous claim not drained");
        debug_assert!(!claim.is_empty());
        self.irq_enabled = false;
        self.counters.interrupts.incr();
        self.counters.batch_sizes.record(claim.len() as u64);
        for pkt in &claim {
            let hold = now.as_nanos().saturating_sub(pkt.completed_at.as_nanos());
            self.counters.coalesce_hold_ns.record(hold);
        }
        let drained = std::mem::replace(&mut self.claimed, claim);
        self.spare_claims.push(drained);
        out.interrupt = true;
    }

    fn flush_latched(&mut self, now: Time, out: &mut NicOutcome) {
        if self.irq_latched && !self.ready.is_empty() && !out.interrupt {
            self.try_raise(now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nic(strategy: CoalescingStrategy) -> Nic {
        Nic::new(NicConfig {
            rx_ring_slots: 8,
            dma: DmaConfig {
                setup_ns: 100,
                bytes_per_us: 1000,
            },
            strategy,
        })
    }

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    #[test]
    fn disabled_strategy_full_cycle() {
        let mut n = nic(CoalescingStrategy::Disabled);
        let out = n.on_frame(t(0), PacketMeta::omx(100, false));
        let (desc, at) = out.dma.expect("dma scheduled");
        assert!(!out.interrupt);
        assert_eq!(at, t(200));

        let out = n.on_dma_complete(at, desc);
        assert!(out.interrupt, "disabled coalescing raises per packet");
        assert_eq!(n.counters().interrupts.get(), 1);

        let mut batch = Vec::new();
        n.drain_ready_into(&mut batch);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch[0].meta.len_bytes, 100);

        // While masked, a further completion latches instead of raising.
        let out = n.on_frame(t(300), PacketMeta::omx(100, false));
        let (desc2, at2) = out.dma.unwrap();
        let out = n.on_dma_complete(at2, desc2);
        assert!(!out.interrupt, "IRQ masked until host re-enables");
        let out = n.enable_irq(t(1000));
        assert!(out.interrupt, "latched IRQ fires on re-enable");
    }

    #[test]
    fn timeout_strategy_timer_cycle() {
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        let out = n.on_frame(t(0), PacketMeta::omx(100, false));
        let timer_at = n.timer_deadline().expect("timer armed on first packet");
        assert_eq!(timer_at, Time::from_micros(75));
        let (desc, at) = out.dma.unwrap();
        let out = n.on_dma_complete(at, desc);
        assert!(!out.interrupt);

        let out = n.on_timer(timer_at);
        assert!(out.interrupt, "timer expiry raises");
        assert_eq!(n.counters().interrupts.get(), 1);
    }

    #[test]
    fn stale_timer_epoch_is_ignored() {
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        let out = n.on_frame(t(0), PacketMeta::omx(100, false));
        let timer_at = n.timer_deadline().unwrap();
        let (desc, at) = out.dma.unwrap();
        n.on_dma_complete(at, desc);
        // The timer raises and disarms; firing again at the same instant
        // cannot raise a second interrupt.
        let out = n.on_timer(timer_at);
        assert!(out.interrupt);
        assert_eq!(n.timer_deadline(), None, "a firing disarms");
        n.drain_ready_into(&mut Vec::new());
        n.enable_irq(t(80_000));
        let out = n.on_timer(timer_at);
        assert_eq!(out, NicOutcome::default(), "disarmed timer is a no-op");
    }

    #[test]
    fn timer_fires_only_when_its_deadline_is_due() {
        // The first packet's timer raises at 75 µs; a later packet re-arms
        // at a later deadline. The superseded arming's event, firing before
        // that deadline, is a no-op and leaves the arming in place.
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        let out = n.on_frame(t(0), PacketMeta::omx(100, false));
        let (desc, at) = out.dma.unwrap();
        n.on_dma_complete(at, desc);
        assert!(n.on_timer(t(75_000)).interrupt);
        n.drain_ready_into(&mut Vec::new());
        n.enable_irq(t(80_000));
        let epoch = n.timer_epoch();
        let out = n.on_frame(t(90_000), PacketMeta::omx(100, false));
        let rearmed = n.timer_deadline().expect("re-armed by the new packet");
        assert_eq!(rearmed, t(165_000));
        let (desc, at) = out.dma.unwrap();
        n.on_dma_complete(at, desc);
        let out = n.on_timer(t(100_000));
        assert_eq!(out, NicOutcome::default(), "early firing is a no-op");
        assert_eq!(n.timer_deadline(), Some(rearmed), "and leaves the arming");
        assert_eq!(n.timer_epoch(), epoch + 1, "one arming since");
        assert!(n.on_timer(rearmed).interrupt, "the due firing raises");
    }

    #[test]
    fn due_firing_always_disarms() {
        // The orchestrator panics if a timer is still due after its own
        // firing; for the coalescing timer that cannot happen, because a
        // due firing leaves every strategy disarmed.
        for strategy in [
            CoalescingStrategy::Disabled,
            CoalescingStrategy::Timeout { delay_us: 75 },
            CoalescingStrategy::OpenMx { delay_us: 75 },
            CoalescingStrategy::Stream { delay_us: 75 },
            CoalescingStrategy::Adaptive {
                min_delay_us: 0,
                max_delay_us: 75,
            },
        ] {
            let mut n = nic(strategy);
            n.on_frame(t(0), PacketMeta::omx(100, false));
            let Some(at) = n.timer_deadline() else {
                assert_eq!(
                    strategy,
                    CoalescingStrategy::Disabled,
                    "only Disabled never arms"
                );
                continue;
            };
            n.on_timer(at);
            assert_eq!(n.timer_deadline(), None, "{strategy:?} still armed");
        }
    }

    #[test]
    fn interrupt_disarms_the_timer() {
        // Open-MX arms on the unmarked packet; the marked one raises at its
        // DMA completion, which resets the timer, so its pending event
        // fires as a no-op.
        let mut n = nic(CoalescingStrategy::OpenMx { delay_us: 75 });
        let o1 = n.on_frame(t(0), PacketMeta::omx(100, false));
        let armed = n.timer_deadline().expect("first packet arms");
        let o2 = n.on_frame(t(10), PacketMeta::omx(100, true));
        let (d1, a1) = o1.dma.unwrap();
        let (d2, a2) = o2.dma.unwrap();
        n.on_dma_complete(a1, d1);
        assert!(n.on_dma_complete(a2, d2).interrupt, "marked packet raises");
        assert_eq!(n.timer_deadline(), None, "the interrupt disarms");
        assert_eq!(n.on_timer(armed), NicOutcome::default());
    }

    #[test]
    fn timer_raise_before_any_ready_packet_is_latched() {
        // Arm timer at arrival; fire it before the DMA completes: the raise
        // must wait for the packet to be host-visible.
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 0 });
        let out = n.on_frame(t(0), PacketMeta::omx(1000, false));
        let timer_at = n.timer_deadline().unwrap();
        assert_eq!(timer_at, t(0));
        let (desc, dma_at) = out.dma.unwrap();
        let out = n.on_timer(timer_at);
        assert!(!out.interrupt, "nothing ready yet");
        let out = n.on_dma_complete(dma_at, desc);
        assert!(out.interrupt, "latched raise fires at completion");
    }

    #[test]
    fn openmx_marked_packet_raises_at_dma_completion() {
        let mut n = nic(CoalescingStrategy::OpenMx { delay_us: 75 });
        let out = n.on_frame(t(0), PacketMeta::omx(128, true));
        let (desc, at) = out.dma.unwrap();
        assert!(!out.interrupt, "not before the DMA");
        let out = n.on_dma_complete(at, desc);
        assert!(out.interrupt, "marked packet raises at DMA completion");
        assert_eq!(n.counters().marked_packets.get(), 1);
    }

    #[test]
    fn openmx_unmarked_waits_for_timer() {
        let mut n = nic(CoalescingStrategy::OpenMx { delay_us: 75 });
        let out = n.on_frame(t(0), PacketMeta::omx(1500, false));
        let timer_at = n.timer_deadline().unwrap();
        let (desc, at) = out.dma.unwrap();
        let out = n.on_dma_complete(at, desc);
        assert!(!out.interrupt);
        assert!(n.on_timer(timer_at).interrupt);
    }

    #[test]
    fn stream_defers_across_pending_dmas() {
        let mut n = nic(CoalescingStrategy::Stream { delay_us: 75 });
        // Two marked frames back-to-back: their DMAs overlap in the queue.
        let o1 = n.on_frame(t(0), PacketMeta::omx(128, true));
        let o2 = n.on_frame(t(10), PacketMeta::omx(128, true));
        let (d1, a1) = o1.dma.unwrap();
        let (d2, a2) = o2.dma.unwrap();
        assert!(a2 > a1);
        let out = n.on_dma_complete(a1, d1);
        assert!(!out.interrupt, "deferred: second DMA still pending");
        let out = n.on_dma_complete(a2, d2);
        assert!(out.interrupt, "raised when the queue drains");
        assert_eq!(n.counters().interrupts.get(), 1);
        let mut batch = Vec::new();
        n.drain_ready_into(&mut batch);
        assert_eq!(batch.len(), 2, "both packets in one batch");
    }

    #[test]
    fn ring_overflow_drops_frames() {
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        let mut accepted = 0;
        for i in 0..10 {
            let out = n.on_frame(t(i), PacketMeta::omx(1500, false));
            if !out.dropped {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 8, "ring holds 8 slots");
        assert_eq!(n.counters().ring_drops.get(), 2);
    }

    #[test]
    fn batch_size_histogram_records_claims() {
        let mut n = nic(CoalescingStrategy::Disabled);
        let out = n.on_frame(t(0), PacketMeta::omx(64, false));
        let (d, a) = out.dma.unwrap();
        n.on_dma_complete(a, d);
        assert_eq!(n.counters().batch_sizes.count(), 1);
    }

    #[test]
    fn packet_completing_behind_a_queued_claim_is_not_stranded() {
        // Regression: a timer raise while IRQs are masked queues a claim;
        // a packet whose DMA completes during that window found the
        // safety re-arm blocked by the pending claim, and after the claim
        // drained nothing ever interrupted for it (it waited for a protocol
        // retransmission). Sequence distilled from the jumbo-frame pull
        // experiment.
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        let drained = |n: &mut Nic| {
            let mut batch = Vec::new();
            n.drain_ready_into(&mut batch);
            batch.len()
        };

        // Packet A arrives and completes; its timer fires and delivers.
        let oa = n.on_frame(t(0), PacketMeta::omx(100, false));
        let timer_at = n.timer_deadline().unwrap();
        let (da, a_at) = oa.dma.unwrap();
        n.on_dma_complete(a_at, da);
        assert!(n.on_timer(timer_at).interrupt);
        assert_eq!(drained(&mut n), 1, "host takes batch A");
        // Host services it (IRQs masked). Packet B arrives and arms a
        // fresh timer (the interrupt disarmed A's).
        let ob = n.on_frame(t(80_000), PacketMeta::omx(100, false));
        let timer_b = n.timer_deadline().unwrap();
        let (db, b_at) = ob.dma.unwrap();
        n.on_dma_complete(b_at, db);
        // Packet C arrives while B's timer is still armed (no new arming)…
        let oc = n.on_frame(t(154_900), PacketMeta::omx(100_000, false));
        assert_eq!(
            n.timer_deadline(),
            Some(timer_b),
            "timer already armed by B"
        );
        let (dc, c_at) = oc.dma.unwrap();
        // … then B's timer fires while still masked: claim of B queued
        // (C's DMA has not completed yet).
        let out = n.on_timer(timer_b);
        assert!(!out.interrupt, "masked: claim must queue");
        // C's DMA completes while B's claim is queued.
        assert!(c_at > timer_b, "C must complete after the timer fired");
        n.on_dma_complete(c_at, dc);
        // Host finishes batch A: enable pops B's claim as its own interrupt.
        let out = n.enable_irq(t(157_000));
        assert!(out.interrupt, "queued claim delivers");
        assert_eq!(drained(&mut n), 1);
        // Host finishes batch B: enable with nothing pending. C must have a
        // live timer from one of the two hook points — otherwise it strands.
        n.enable_irq(t(158_000));
        let at = n
            .timer_deadline()
            .expect("safety timer must be armed for packet C");
        let out = n.on_timer(at);
        assert!(out.interrupt, "packet C claimed via the safety timer");
        assert_eq!(drained(&mut n), 1);
    }

    #[test]
    fn class_counters() {
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        n.on_frame(t(0), PacketMeta::omx(64, false));
        n.on_frame(t(1), PacketMeta::ip(1500));
        assert_eq!(n.counters().omx_packets.get(), 1);
        assert_eq!(n.counters().ip_packets.get(), 1);
        assert_eq!(n.counters().packets.get(), 2);
    }
}
