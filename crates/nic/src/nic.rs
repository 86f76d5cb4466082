//! The composite NIC state machine.
//!
//! [`Nic`] glues the RX ring, its write-DMA channel ([`DmaConfig`]) and a
//! [`Coalescer`] into the passive component the cluster orchestrator
//! drives. The split of responsibilities follows the hardware:
//!
//! * the **strategy** (firmware logic) decides *when it wants* an interrupt,
//! * the **Nic** (hardware) enforces the physical gates — interrupts are
//!   auto-masked while one is being serviced (MSI + NAPI semantics), a raise
//!   with nothing to report is latched until a packet is ready, and the
//!   single coalescing timer fires only once its armed deadline is due, so
//!   a timer event from a superseded arming is a no-op.
//!
//! The RX ring is one FIFO of descriptors, each holding the frame received
//! into it, from arrival until the host takes it. A frame takes the next
//! descriptor when it arrives, its write DMA completes in descriptor order,
//! and every raise claims the whole run of completed descriptors not yet
//! claimed. Cursors split the ring into its regions, oldest first: claimed
//! by the in-flight interrupt, claimed by raises queued while interrupts
//! were masked, ready, and DMA in flight. So a claim is always the oldest
//! descriptors the NIC owes the host, and [`Nic::take_claim`] hands the
//! host their frames off the ring's front.
//!
//! Every entry point takes the key `(now, seq)` of the event that calls it.
//! DMA completions are *settled lazily*: each entry point first completes,
//! in FIFO order, every transfer whose `(at, seq)` precedes that key, exactly
//! as a completion event at that key would have. Only a completion that can
//! act — raise, flush a latched raise, re-arm the safety timer — needs an
//! event of its own; the entry point reports the first such one as
//! [`NicOutcome::wake`]. A lazily settled completion that acts anyway is a
//! bug, and panics. Every completion an entry point performs, settled or
//! woken, is reported to the caller's `done` callback at its own key, so a
//! trace can record it where it happened. The caller arms the timer event
//! itself, from [`Nic::timer_deadline`], after every call.

use crate::coalesce::{Coalescer, CoalescingStrategy, Decision, TimerAction};
use crate::dma::DmaConfig;
use crate::packet::{DescId, PacketClass, PacketMeta};
use omx_sim::stats::{Counter, Histogram};
use omx_sim::Time;
use std::collections::VecDeque;

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

/// One RX-ring descriptor: the frame received into it and its write DMA.
struct Slot<F> {
    frame: F,
    meta: PacketMeta,
    /// When the DMA completes (host-visible time).
    at: Time,
    /// Event sequence number reserved for the completion: with `at`, its
    /// place in the event order.
    seq: u64,
    /// A completion event was scheduled at `(at, seq)`.
    evented: bool,
}

/// A DMA completion by its event key `(at, seq)`: one that needs an event
/// ([`NicOutcome::wake`]: schedule [`Nic::on_dma_complete`] for `desc` at
/// that key), one an entry point performed (its `done` callback), or the
/// oldest one in flight ([`Nic::unsettled_dma`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DmaCompletion {
    /// Descriptor whose transfer completes.
    pub desc: DescId,
    /// Completion time.
    pub at: Time,
    /// The event sequence number reserved for it when the frame arrived.
    pub seq: u64,
}

/// Events the caller must schedule / act on after driving the NIC.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct NicOutcome {
    /// The descriptor an arriving frame was received into; `None` when
    /// the RX ring was full and the frame was dropped. Only
    /// [`Nic::on_frame`] sets it.
    pub desc: Option<DescId>,
    /// Schedule a DMA-completion event at this reserved key.
    pub wake: Option<DmaCompletion>,
    /// An interrupt was raised right now (already counted by the NIC);
    /// deliver it to a host core.
    pub interrupt: bool,
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

/// The simulated NIC, carrying frames of type `F` from the wire to the
/// host.
pub struct Nic<F> {
    cfg: NicConfig,
    strategy: Coalescer,
    /// The RX ring: one slot per descriptor the NIC owes the host,
    /// `taken..next_desc`, oldest first. The cursors below split it into
    /// `taken..claimed` (claimed by the in-flight interrupt), the queued
    /// claims, `..completed` (ready) and `completed..next_desc` (DMA in
    /// flight).
    ring: VecDeque<Slot<F>>,
    /// Descriptors the host has taken so far: the id of the ring's front.
    taken: u64,
    /// End of the in-flight interrupt's claim.
    claimed: u64,
    /// End of each claim raised while interrupts were masked, oldest
    /// first: each is delivered as its own interrupt when the host
    /// re-enables (per-packet interrupts persist under load, as Table V of
    /// the paper measures for disabled coalescing).
    queued: VecDeque<u64>,
    /// Descriptors whose DMA has completed: the id of the oldest in flight.
    completed: u64,
    /// Descriptors handed out so far: the next one's id.
    next_desc: u64,
    /// Marked transfers in flight.
    marked_in_flight: usize,
    /// Interrupts are auto-masked from raise until the host re-enables them.
    irq_enabled: bool,
    /// A raise was requested while masked (or with nothing ready): deliver
    /// as soon as both gates open.
    irq_latched: bool,
    /// When the coalescing timer is due; `None` while disarmed.
    timer_deadline: Option<Time>,
    /// Arming generation, bumped by every arm, disarm and raise. Traces
    /// read it as the label of a timer firing; [`Nic::settle`] reads it to
    /// tell that a completion acted.
    timer_epoch: u64,
    counters: NicCounters,
}

impl<F> Nic<F> {
    /// Build a NIC from its configuration.
    pub fn new(cfg: NicConfig) -> Self {
        Nic {
            strategy: cfg.strategy.build(),
            cfg,
            ring: VecDeque::new(),
            taken: 0,
            claimed: 0,
            queued: VecDeque::new(),
            completed: 0,
            next_desc: 0,
            marked_in_flight: 0,
            irq_enabled: true,
            irq_latched: false,
            timer_deadline: None,
            timer_epoch: 0,
            counters: NicCounters::default(),
        }
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

    /// Total packets the NIC still owes the host: DMAs in flight, ready
    /// packets awaiting an interrupt, and claims not yet taken. This is the
    /// RX-ring occupancy [`Nic::on_frame`] admits against `rx_ring_slots`;
    /// settling a completion moves a packet between regions of the ring,
    /// so it holds between events too. Non-zero at quiescence means an
    /// interrupt-liveness violation — a coalescer held packets forever
    /// without raising.
    pub fn pending_work(&self) -> usize {
        self.ring.len()
    }

    /// The oldest transfer not yet settled. Once the event queue has
    /// drained there must be none: every completion is settled by its own
    /// event or by a later entry point.
    pub fn unsettled_dma(&self) -> Option<DmaCompletion> {
        self.ring
            .get(self.index(self.completed))
            .map(|s| DmaCompletion {
                desc: DescId(self.completed),
                at: s.at,
                seq: s.seq,
            })
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

    /// Complete every transfer whose completion precedes the event key
    /// `(now, seq)`, in FIFO order, each at its own completion time, and
    /// report each to `done`. Every entry point settles first.
    ///
    /// # Panics
    /// Panics if one of them acts (raises, flushes a latched raise or
    /// re-arms the timer) or already has an event: it should have been
    /// reported as a wake and completed by that event.
    pub fn settle(&mut self, now: Time, seq: u64, mut done: impl FnMut(DmaCompletion)) {
        while let Some(head) = self.unsettled_dma() {
            if (head.at, head.seq) >= (now, seq) {
                break;
            }
            assert!(
                !self.ring[self.index(self.completed)].evented,
                "DMA completion of {:?} at {} was woken but its event never ran",
                head.desc,
                head.at
            );
            let mut out = NicOutcome::default();
            let epoch = self.timer_epoch;
            self.complete(&mut out);
            assert!(
                self.timer_epoch == epoch && !out.interrupt,
                "lazily settled DMA completion of {:?} at {} acted: it needed a wake",
                head.desc,
                head.at
            );
            done(head);
        }
    }

    /// A frame arrived off the wire: the event at `(now, seq)`. `meta` is
    /// what the firmware sees of `frame`. `reserve_seq` is called once if
    /// the frame is accepted, for the sequence number its DMA completion
    /// takes; a dropped frame is dropped here.
    pub fn on_frame(
        &mut self,
        now: Time,
        seq: u64,
        frame: F,
        meta: PacketMeta,
        reserve_seq: impl FnOnce() -> u64,
        done: impl FnMut(DmaCompletion),
    ) -> NicOutcome {
        self.settle(now, seq, done);
        let mut out = NicOutcome::default();
        if self.pending_work() >= self.cfg.rx_ring_slots as usize {
            self.counters.ring_drops.incr();
        } else {
            self.accept(now, frame, meta, reserve_seq(), &mut out);
        }
        self.schedule_wake(&mut out);
        out
    }

    /// Take an arriving frame into the next descriptor and start its DMA;
    /// `seq` is the sequence number reserved for the completion.
    fn accept(&mut self, now: Time, frame: F, meta: PacketMeta, seq: u64, out: &mut NicOutcome) {
        self.counters.packets.incr();
        match meta.class {
            PacketClass::OpenMx => self.counters.omx_packets.incr(),
            PacketClass::Ip => self.counters.ip_packets.incr(),
        }
        if meta.marked {
            self.counters.marked_packets.incr();
        }

        // One FIFO DMA channel: a transfer starts when the previous one
        // completes, or now if the channel is idle. An empty ring has
        // nothing in flight.
        let start = self.ring.back().map_or(now, |s| s.at.max(now));
        self.ring.push_back(Slot {
            frame,
            meta,
            at: start + self.cfg.dma.transfer_time(meta.len_bytes),
            seq,
            evented: false,
        });
        self.marked_in_flight += usize::from(meta.marked);
        out.desc = Some(DescId(self.next_desc));
        self.next_desc += 1;

        let decision = self.strategy.on_packet_arrival(now);
        self.apply(now, decision, out);
    }

    /// The woken DMA completion of `desc`: the event at `(now, seq)`, the
    /// key its wake named. It is reported to `done` after the completions
    /// settled before it.
    pub fn on_dma_complete(
        &mut self,
        now: Time,
        seq: u64,
        desc: DescId,
        mut done: impl FnMut(DmaCompletion),
    ) -> NicOutcome {
        self.settle(now, seq, &mut done);
        let c = DmaCompletion { desc, at: now, seq };
        assert_eq!(
            self.unsettled_dma(),
            Some(c),
            "completion event for {desc:?} is not the DMA head"
        );
        let mut out = NicOutcome::default();
        self.complete(&mut out);
        done(c);
        self.schedule_wake(&mut out);
        out
    }

    /// A coalescing-timer event fired: the event at `(now, seq)`. It acts
    /// only if the armed deadline is due; otherwise it belongs to a
    /// superseded arming and is a no-op.
    pub fn on_timer(&mut self, now: Time, seq: u64, done: impl FnMut(DmaCompletion)) -> NicOutcome {
        self.settle(now, seq, done);
        let mut out = NicOutcome::default();
        if self.timer_deadline.is_some_and(|at| at <= now) {
            self.timer_deadline = None;
            let decision = self.strategy.on_timer();
            self.apply(now, decision, &mut out);
        }
        self.schedule_wake(&mut out);
        out
    }

    /// The host finished servicing the interrupt and re-enables IRQs: the
    /// event at `(now, seq)`. If further raise requests queued while
    /// masked, the next one is delivered immediately as its own interrupt.
    pub fn enable_irq(
        &mut self,
        now: Time,
        seq: u64,
        done: impl FnMut(DmaCompletion),
    ) -> NicOutcome {
        self.settle(now, seq, done);
        let mut out = NicOutcome::default();
        self.irq_enabled = true;
        if let Some(end) = self.queued.pop_front() {
            self.deliver(now, end, &mut out);
        } else {
            self.flush_latched(now, &mut out);
        }
        self.safety_rearm(now, &mut out);
        self.schedule_wake(&mut out);
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
        if self.has_ready()
            && self.timer_deadline.is_none()
            && !out.interrupt
            && self.queued.is_empty()
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
        match self.ring.front() {
            Some(s) if self.claimed > self.taken => s.meta.flow,
            _ => 0,
        }
    }

    /// The host receive handler takes the frames the in-flight interrupt
    /// claimed when it was raised, oldest first, off the front of the ring.
    /// Packets whose DMA completed afterwards wait for the next interrupt —
    /// the hardware interrupt carries a snapshot of the event ring, it does
    /// not grow retroactively. A claim is taken once; taking it again
    /// yields nothing.
    pub fn take_claim(&mut self) -> impl ExactSizeIterator<Item = F> + '_ {
        let len = self.index(self.claimed);
        self.taken = self.claimed;
        self.ring.drain(..len).map(|s| s.frame)
    }

    // -- internals -----------------------------------------------------------

    /// Position of descriptor `desc` in the ring.
    fn index(&self, desc: u64) -> usize {
        (desc - self.taken) as usize
    }

    /// Transfers in flight.
    fn in_flight(&self) -> usize {
        (self.next_desc - self.completed) as usize
    }

    /// Completed packets that no raise has claimed yet.
    fn has_ready(&self) -> bool {
        self.completed > self.queued.back().copied().unwrap_or(self.claimed)
    }

    /// FIFO index, among the transfers in flight, of the oldest marked one.
    fn first_marked(&self) -> Option<usize> {
        if self.marked_in_flight == 0 {
            return None;
        }
        let head = self.index(self.completed);
        self.ring.range(head..).position(|s| s.meta.marked)
    }

    /// Complete the oldest transfer in flight at its own completion time:
    /// the firmware's write-DMA completion routine.
    fn complete(&mut self, out: &mut NicOutcome) {
        let head = &self.ring[self.index(self.completed)];
        let (marked, at) = (head.meta.marked, head.at);
        self.completed += 1;
        self.marked_in_flight -= usize::from(marked);
        let decision = self.strategy.on_dma_complete(marked, self.in_flight());
        self.apply(at, decision, out);
        // A raise latched earlier (e.g. timer fired before any DMA finished)
        // can be delivered now that a packet is ready.
        self.flush_latched(at, out);
        self.safety_rearm(at, out);
    }

    /// Report the first in-flight completion that can act, unless it
    /// already has an event. Until the next entry point only completions
    /// change the NIC, and one that does not act leaves this predicate as
    /// it was (under Stream a marked completion moves its mark into the
    /// deferred flag, which the predicate weighs alike). So only the head
    /// can flush a latched raise or re-arm the safety timer, any completion
    /// can raise as [`Coalescer::first_raising_completion`] says, and the
    /// completions before the first that can act are settled exactly by
    /// whichever event comes first.
    fn schedule_wake(&mut self, out: &mut NicOutcome) {
        let pending = self.in_flight();
        if pending == 0 {
            return;
        }
        let head_acts = self.irq_latched
            || (self.timer_deadline.is_none()
                && self.queued.is_empty()
                && self.strategy.fallback_delay().is_some());
        let first = if head_acts {
            0
        } else {
            let first_marked = self.first_marked();
            match self
                .strategy
                .first_raising_completion(pending, first_marked)
            {
                Some(i) => i,
                None => return,
            }
        };
        let desc = self.completed + first as u64;
        let i = self.index(desc);
        let s = &mut self.ring[i];
        if !s.evented {
            s.evented = true;
            out.wake = Some(DmaCompletion {
                desc: DescId(desc),
                at: s.at,
                seq: s.seq,
            });
        }
    }

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
        if !self.has_ready() {
            // Nothing in host memory yet: latch until a DMA completes.
            self.irq_latched = true;
            return;
        }
        self.irq_latched = false;
        // Snapshot: this raise claims exactly the packets ready now.
        let end = self.completed;
        self.strategy.on_interrupt();
        // The strategy considers its timer reset after an interrupt;
        // disarm the physical timer to match.
        self.timer_epoch += 1;
        self.timer_deadline = None;
        if self.irq_enabled {
            self.deliver(now, end, out);
        } else {
            // Masked: queue; delivered as its own interrupt on re-enable.
            self.queued.push_back(end);
        }
    }

    /// Deliver the claim that runs from the ring's front to `end` as an
    /// interrupt at `now`.
    fn deliver(&mut self, now: Time, end: u64, out: &mut NicOutcome) {
        debug_assert!(self.irq_enabled);
        debug_assert_eq!(self.taken, self.claimed, "previous claim not drained");
        let len = self.index(end);
        debug_assert!(len > 0);
        self.irq_enabled = false;
        self.counters.interrupts.incr();
        self.counters.batch_sizes.record(len as u64);
        for s in self.ring.range(..len) {
            let hold = now.as_nanos().saturating_sub(s.at.as_nanos());
            self.counters.coalesce_hold_ns.record(hold);
        }
        self.claimed = end;
        out.interrupt = true;
    }

    fn flush_latched(&mut self, now: Time, out: &mut NicOutcome) {
        if self.irq_latched && self.has_ready() && !out.interrupt {
            self.try_raise(now, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A NIC called the way the cluster calls it, one event at a time in
    /// time order: each call's event key takes the next sequence number,
    /// and so does each accepted frame's DMA completion. Each frame carries
    /// its arrival index, counting dropped frames too. `done` collects the
    /// completions the calls report.
    struct Driven {
        nic: Nic<u64>,
        seq: u64,
        arrivals: u64,
        done: Vec<DmaCompletion>,
    }

    impl Driven {
        fn key(&mut self) -> u64 {
            self.seq += 1;
            self.seq
        }

        fn frame(&mut self, now: Time, meta: PacketMeta) -> NicOutcome {
            let key = self.key();
            let frame = self.arrivals;
            self.arrivals += 1;
            let (seq, done) = (&mut self.seq, &mut self.done);
            let reserve = || {
                *seq += 1;
                *seq
            };
            self.nic
                .on_frame(now, key, frame, meta, reserve, |c| done.push(c))
        }

        fn complete(&mut self, wake: DmaCompletion) -> NicOutcome {
            let done = &mut self.done;
            self.nic
                .on_dma_complete(wake.at, wake.seq, wake.desc, |c| done.push(c))
        }

        fn timer(&mut self, now: Time) -> NicOutcome {
            let key = self.key();
            let done = &mut self.done;
            self.nic.on_timer(now, key, |c| done.push(c))
        }

        fn enable(&mut self, now: Time) -> NicOutcome {
            let key = self.key();
            let done = &mut self.done;
            self.nic.enable_irq(now, key, |c| done.push(c))
        }

        fn settle(&mut self, now: Time) {
            let key = self.key();
            let done = &mut self.done;
            self.nic.settle(now, key, |c| done.push(c));
        }

        /// The frames of the in-flight interrupt's claim.
        fn claim(&mut self) -> Vec<u64> {
            self.nic.take_claim().collect()
        }
    }

    impl std::ops::Deref for Driven {
        type Target = Nic<u64>;
        fn deref(&self) -> &Nic<u64> {
            &self.nic
        }
    }

    impl std::ops::DerefMut for Driven {
        fn deref_mut(&mut self) -> &mut Nic<u64> {
            &mut self.nic
        }
    }

    fn nic(strategy: CoalescingStrategy) -> Driven {
        Driven {
            nic: Nic::new(NicConfig {
                rx_ring_slots: 8,
                dma: DmaConfig {
                    setup_ns: 100,
                    bytes_per_us: 1000,
                },
                strategy,
            }),
            seq: 0,
            arrivals: 0,
            done: Vec::new(),
        }
    }

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    #[test]
    fn disabled_strategy_full_cycle() {
        let mut n = nic(CoalescingStrategy::Disabled);
        let out = n.frame(t(0), PacketMeta::omx(100, false));
        let wake = out.wake.expect("every completion raises: it is woken");
        assert!(!out.interrupt);
        assert_eq!(wake.at, t(200));

        let out = n.complete(wake);
        assert!(out.interrupt, "disabled coalescing raises per packet");
        assert_eq!(n.counters().interrupts.get(), 1);

        assert_eq!(n.claim(), [0]);
        assert!(n.claim().is_empty(), "a claim is taken once");

        // While masked, a further completion latches instead of raising.
        let out = n.frame(t(300), PacketMeta::omx(100, false));
        let out = n.complete(out.wake.unwrap());
        assert!(!out.interrupt, "IRQ masked until host re-enables");
        let out = n.enable(t(1000));
        assert!(out.interrupt, "latched IRQ fires on re-enable");
    }

    #[test]
    fn every_completion_is_reported_at_its_own_key() {
        // Open-MX: the unmarked completion settles lazily inside the marked
        // one's event, which is reported after it, at its own key.
        let mut n = nic(CoalescingStrategy::OpenMx { delay_us: 75 });
        n.frame(t(0), PacketMeta::omx(100, false));
        let wake = n.frame(t(10), PacketMeta::omx(100, true)).wake.unwrap();
        assert!(n.done.is_empty(), "nothing completes before its time");
        n.complete(wake);
        let settled = DmaCompletion {
            desc: DescId(0),
            at: t(200),
            seq: 2,
        };
        assert_eq!(n.done, [settled, wake]);
        n.timer(t(100_000));
        assert_eq!(n.done.len(), 2, "each completion is reported once");
    }

    #[test]
    fn timeout_strategy_timer_cycle() {
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        let out = n.frame(t(0), PacketMeta::omx(100, false));
        let timer_at = n.timer_deadline().expect("timer armed on first packet");
        assert_eq!(timer_at, Time::from_micros(75));
        assert_eq!(out.wake, None, "the completion cannot act: no event");

        let out = n.timer(timer_at);
        assert!(out.interrupt, "timer expiry raises");
        assert_eq!(n.counters().interrupts.get(), 1);
        assert_eq!(
            n.counters().coalesce_hold_ns.sum(),
            (75_000 - 200) as f64,
            "the packet was settled ready at its completion time"
        );
    }

    #[test]
    fn stale_timer_epoch_is_ignored() {
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        n.frame(t(0), PacketMeta::omx(100, false));
        let timer_at = n.timer_deadline().unwrap();
        // The timer raises and disarms; firing again at the same instant
        // cannot raise a second interrupt.
        let out = n.timer(timer_at);
        assert!(out.interrupt);
        assert_eq!(n.timer_deadline(), None, "a firing disarms");
        n.claim();
        n.enable(t(80_000));
        let out = n.timer(timer_at);
        assert_eq!(out, NicOutcome::default(), "disarmed timer is a no-op");
    }

    #[test]
    fn timer_fires_only_when_its_deadline_is_due() {
        // The first packet's timer raises at 75 µs; a later packet re-arms
        // at a later deadline. The superseded arming's event, firing before
        // that deadline, is a no-op and leaves the arming in place.
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        n.frame(t(0), PacketMeta::omx(100, false));
        assert!(n.timer(t(75_000)).interrupt);
        n.claim();
        n.enable(t(80_000));
        let epoch = n.timer_epoch();
        n.frame(t(90_000), PacketMeta::omx(100, false));
        let rearmed = n.timer_deadline().expect("re-armed by the new packet");
        assert_eq!(rearmed, t(165_000));
        let out = n.timer(t(100_000));
        assert_eq!(out, NicOutcome::default(), "early firing is a no-op");
        assert_eq!(n.timer_deadline(), Some(rearmed), "and leaves the arming");
        assert_eq!(n.timer_epoch(), epoch + 1, "one arming since");
        assert!(n.timer(rearmed).interrupt, "the due firing raises");
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
            n.frame(t(0), PacketMeta::omx(100, false));
            let Some(at) = n.timer_deadline() else {
                assert_eq!(
                    strategy,
                    CoalescingStrategy::Disabled,
                    "only Disabled never arms"
                );
                continue;
            };
            n.timer(at);
            assert_eq!(n.timer_deadline(), None, "{strategy:?} still armed");
        }
    }

    #[test]
    fn interrupt_disarms_the_timer() {
        // Open-MX arms on the unmarked packet; the marked one raises at its
        // DMA completion, which resets the timer, so its pending event
        // fires as a no-op.
        let mut n = nic(CoalescingStrategy::OpenMx { delay_us: 75 });
        let o1 = n.frame(t(0), PacketMeta::omx(100, false));
        let armed = n.timer_deadline().expect("first packet arms");
        let o2 = n.frame(t(10), PacketMeta::omx(100, true));
        assert_eq!(o1.wake, None, "the unmarked completion cannot act");
        let out = n.complete(o2.wake.expect("the marked completion raises"));
        assert!(out.interrupt, "marked packet raises");
        assert_eq!(n.claim(), [0, 1], "the unmarked packet was settled first");
        assert_eq!(n.timer_deadline(), None, "the interrupt disarms");
        assert_eq!(n.timer(armed), NicOutcome::default());
    }

    #[test]
    fn timer_raise_before_any_ready_packet_is_latched() {
        // Arm timer at arrival; fire it before the DMA completes: the raise
        // must wait for the packet to be host-visible, so the completion
        // that will flush it is woken.
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 0 });
        let out = n.frame(t(0), PacketMeta::omx(1000, false));
        assert_eq!(out.wake, None);
        let timer_at = n.timer_deadline().unwrap();
        assert_eq!(timer_at, t(0));
        let out = n.timer(timer_at);
        assert!(!out.interrupt, "nothing ready yet");
        let wake = out.wake.expect("the latched raise wakes the completion");
        assert_eq!(wake.at, t(1_100));
        let out = n.complete(wake);
        assert!(out.interrupt, "latched raise fires at completion");
    }

    #[test]
    fn openmx_marked_packet_raises_at_dma_completion() {
        let mut n = nic(CoalescingStrategy::OpenMx { delay_us: 75 });
        let out = n.frame(t(0), PacketMeta::omx(128, true));
        assert!(!out.interrupt, "not before the DMA");
        let out = n.complete(out.wake.expect("marked completion is woken"));
        assert!(out.interrupt, "marked packet raises at DMA completion");
        assert_eq!(n.counters().marked_packets.get(), 1);
    }

    #[test]
    fn openmx_unmarked_waits_for_timer() {
        let mut n = nic(CoalescingStrategy::OpenMx { delay_us: 75 });
        let out = n.frame(t(0), PacketMeta::omx(1500, false));
        assert_eq!(out.wake, None, "unmarked completion cannot act");
        let timer_at = n.timer_deadline().unwrap();
        assert!(n.timer(timer_at).interrupt);
    }

    #[test]
    fn stream_defers_across_pending_dmas() {
        let mut n = nic(CoalescingStrategy::Stream { delay_us: 75 });
        // Two marked frames back-to-back: their DMAs overlap in the queue.
        // Each, arriving as the tail of a queue holding a marked transfer,
        // is woken.
        let o1 = n.frame(t(0), PacketMeta::omx(128, true));
        let o2 = n.frame(t(10), PacketMeta::omx(128, true));
        let (w1, w2) = (o1.wake.unwrap(), o2.wake.unwrap());
        assert!(w2.at > w1.at);
        let out = n.complete(w1);
        assert!(!out.interrupt, "deferred: second DMA still pending");
        let out = n.complete(w2);
        assert!(out.interrupt, "raised when the queue drains");
        assert_eq!(n.counters().interrupts.get(), 1);
        assert_eq!(n.claim(), [0, 1], "both packets in one batch");
    }

    #[test]
    fn ring_overflow_drops_frames() {
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        let mut accepted = 0;
        for i in 0..10 {
            if n.frame(t(i), PacketMeta::omx(1500, false)).desc.is_some() {
                accepted += 1;
            }
        }
        assert_eq!(accepted, 8, "ring holds 8 slots");
        assert_eq!(n.counters().ring_drops.get(), 2);
        let at = n.timer_deadline().unwrap();
        assert!(n.timer(at).interrupt);
        assert_eq!(
            n.claim(),
            Vec::from_iter(0..8),
            "the dropped frames are not in it"
        );
    }

    #[test]
    fn batch_size_histogram_records_claims() {
        let mut n = nic(CoalescingStrategy::Disabled);
        let out = n.frame(t(0), PacketMeta::omx(64, false));
        n.complete(out.wake.unwrap());
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
        // Packet A arrives and completes; its timer fires and delivers.
        n.frame(t(0), PacketMeta::omx(100, false));
        let timer_at = n.timer_deadline().unwrap();
        assert!(n.timer(timer_at).interrupt);
        assert_eq!(n.claim(), [0], "host takes batch A");
        // Host services it (IRQs masked). Packet B arrives and arms a
        // fresh timer (the interrupt disarmed A's), and completes.
        n.frame(t(80_000), PacketMeta::omx(100, false));
        let timer_b = n.timer_deadline().unwrap();
        // Packet C arrives while B's timer is still armed (no new arming)…
        let oc = n.frame(t(154_900), PacketMeta::omx(1_000, false));
        assert_eq!(
            n.timer_deadline(),
            Some(timer_b),
            "timer already armed by B"
        );
        assert_eq!(oc.wake, None);
        // … then B's timer fires while still masked: claim of B queued
        // (C's DMA has not completed yet).
        let out = n.timer(timer_b);
        assert!(!out.interrupt, "masked: claim must queue");
        assert_eq!(out.wake, None, "the queued claim's re-enable comes first");
        // C's DMA completes while B's claim is queued.
        let c_at = n.unsettled_dma().expect("C in flight").at;
        assert!(c_at > timer_b, "C must complete after the timer fired");
        // Host finishes batch A: enable settles C, then pops B's claim as
        // its own interrupt.
        let out = n.enable(t(157_000));
        assert!(c_at < t(157_000));
        assert!(out.interrupt, "queued claim delivers");
        assert_eq!(n.claim(), [1], "B's claim, not C");
        // Host finishes batch B: enable with nothing pending. C must have a
        // live timer from one of the two hook points — otherwise it strands.
        n.enable(t(158_000));
        let at = n
            .timer_deadline()
            .expect("safety timer must be armed for packet C");
        let out = n.timer(at);
        assert!(out.interrupt, "packet C claimed via the safety timer");
        assert_eq!(n.claim(), [2]);
    }

    #[test]
    fn class_counters() {
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        n.frame(t(0), PacketMeta::omx(64, false));
        n.frame(t(1), PacketMeta::ip(1500));
        assert_eq!(n.counters().omx_packets.get(), 1);
        assert_eq!(n.counters().ip_packets.get(), 1);
        assert_eq!(n.counters().packets.get(), 2);
    }

    #[test]
    fn safety_rearm_wakes_the_head_after_a_raise() {
        // A timer raise disarms the timer while a second DMA is in flight:
        // that completion will re-arm the safety timer, so it is woken.
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 1 });
        n.frame(t(0), PacketMeta::omx(100, false));
        let out = n.frame(t(900), PacketMeta::omx(5_000, false));
        assert_eq!(out.wake, None);
        let out = n.timer(t(1_000));
        assert!(out.interrupt, "the first packet is claimed");
        let wake = out.wake.expect("the second completion re-arms");
        assert_eq!(wake.at, t(900 + 100 + 5_000));
        n.complete(wake);
        assert_eq!(
            n.timer_deadline(),
            Some(wake.at + omx_sim::TimeDelta::from_micros(1))
        );
    }

    #[test]
    #[should_panic(expected = "never ran")]
    fn skipping_a_woken_completion_panics() {
        let mut n = nic(CoalescingStrategy::OpenMx { delay_us: 75 });
        let out = n.frame(t(0), PacketMeta::omx(100, true));
        assert!(out.wake.is_some());
        // The next event comes after the woken completion without it.
        n.timer(t(10_000));
    }

    #[test]
    fn queued_claim_holds_until_its_delivery() {
        // A's interrupt is in service when B's timer raises: B's claim
        // queues. C arrives behind it. Re-enabling delivers B's claim as
        // its own interrupt, whose hold runs to that delivery, and whose
        // flow is B's, not the ring front's before it or C's after it.
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        n.frame(t(0), PacketMeta::omx(100, false).with_flow(1));
        assert!(n.timer(t(75_000)).interrupt);
        assert_eq!(n.claimed_flow(), 1);
        assert_eq!(n.claim(), [0]);
        assert_eq!(n.claimed_flow(), 0, "nothing claimed once taken");
        n.frame(t(80_000), PacketMeta::omx(100, false).with_flow(2));
        let out = n.timer(t(155_000));
        assert!(!out.interrupt, "masked: B's claim queues");
        assert_eq!(n.claimed_flow(), 0, "a queued claim is not in flight");
        n.frame(t(160_000), PacketMeta::omx(100, false).with_flow(3));
        assert!(n.enable(t(200_000)).interrupt, "B's claim delivers");
        assert_eq!(n.claimed_flow(), 2, "the claim's own first frame");
        let hold = n.counters().coalesce_hold_ns.clone();
        assert_eq!(hold.count(), 2);
        assert_eq!(
            hold.sum(),
            ((75_000 - 200) + (200_000 - 80_200)) as f64,
            "B sat ready until its delivery, not its raise"
        );
        assert_eq!(n.counters().batch_sizes.count(), 2);
        assert_eq!(n.claim(), [1], "C waits for the next interrupt");
        assert_eq!(n.pending_work(), 1);
    }

    #[test]
    fn sparse_submissions_complete_independently() {
        // An idle DMA channel starts each transfer on arrival.
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        n.frame(t(0), PacketMeta::omx(100, false));
        assert_eq!(n.unsettled_dma().unwrap().at, t(200));
        n.frame(t(10_000), PacketMeta::omx(100, false));
        let head = n.unsettled_dma().unwrap();
        assert_eq!((head.desc, head.at), (DescId(1), t(10_200)));
        assert_eq!(n.done.len(), 1, "the first settled on the second's arrival");
    }

    #[test]
    fn burst_submissions_queue_fifo() {
        // Three frames at once: each transfer waits for the one before.
        // Odd arrivals are marked.
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        for i in 0..3 {
            n.frame(t(0), PacketMeta::omx(100, i % 2 == 1));
        }
        assert_eq!(n.in_flight(), 3);
        assert_eq!(n.first_marked(), Some(1));
        n.settle(t(300));
        assert_eq!((n.in_flight(), n.first_marked()), (2, Some(0)));
        n.settle(t(500));
        assert_eq!((n.in_flight(), n.first_marked()), (1, None));
        n.settle(t(700));
        assert_eq!(n.unsettled_dma(), None);
        let done: Vec<_> = n.done.iter().map(|c| (c.desc.0, c.at)).collect();
        assert_eq!(done, [(0, t(200)), (1, t(400)), (2, t(600))]);
        assert_eq!(n.pending_work(), 3, "completed, not yet claimed");
    }

    #[test]
    #[should_panic(expected = "not the DMA head")]
    fn out_of_order_completion_panics() {
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        n.frame(t(0), PacketMeta::omx(10, false));
        n.frame(t(0), PacketMeta::omx(10, false));
        let head = n.unsettled_dma().unwrap();
        n.complete(DmaCompletion {
            desc: DescId(1),
            ..head
        });
    }

    #[test]
    #[should_panic(expected = "not the DMA head")]
    fn completion_without_submission_panics() {
        let mut n = nic(CoalescingStrategy::Timeout { delay_us: 75 });
        n.complete(DmaCompletion {
            desc: DescId(0),
            at: t(100),
            seq: 1,
        });
    }
}
