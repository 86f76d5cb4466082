//! Property tests for the NIC state machine: liveness (no packet ever
//! strands without an interrupt), conservation (every accepted packet is
//! claimed exactly once) and the exactness of lazily settled DMA
//! completions, for every strategy under arbitrary traffic. The timer is
//! armed the way the cluster orchestrator arms it: one slot per NIC, a
//! superseded timer event left queued to fire as a no-op.
//!
//! Randomised with the simulator's deterministic [`SimRng`] (fixed seeds, so
//! failures reproduce exactly) instead of an external property-test harness.

use omx_nic::{
    CoalescingStrategy, DmaCompletion, Nic, NicConfig, NicCounters, NicOutcome, PacketMeta,
};
use omx_sim::json::ToJson;
use omx_sim::rng::SimRng;
use omx_sim::Time;
use std::collections::BTreeMap;
use std::ops::Range;

#[derive(Debug, Clone, Copy)]
enum Ev {
    Dma(DmaCompletion),
    Timer,
    Enable,
}

/// What a run showed from outside the NIC, in event order. DMA-completion
/// events themselves are not in it: whether a completion has an event is
/// the NIC's business, what it does is not.
#[derive(Debug, Clone, PartialEq)]
enum Obs {
    /// An interrupt at this instant claimed these descriptors.
    Interrupt { at: u64, claim: Range<u64> },
    /// After the event at this key, the coalescing timer was armed for
    /// `deadline` under arming generation `epoch`.
    Timer {
        key: (u64, u64),
        deadline: Option<Time>,
        epoch: u64,
    },
}

/// One NIC stepped through its own event queue, keyed `(time, seq)` like
/// the cluster's: frame arrivals come from outside, DMA completions are
/// scheduled at the key the NIC reports, the timer is armed the way the
/// cluster arms it (one slot per NIC, a superseded timer event left queued
/// to fire as a no-op), and the host re-enables interrupts after a service
/// time taken in turn from `service_ns`. Each frame the RX ring takes
/// carries its index among the accepted frames, so every claim can be
/// checked to hand over the oldest frames owed, in order.
///
/// With `every_completion` set the harness is the reference for lazy
/// settling: before each event it calls [`Nic::on_dma_complete`] for every
/// transfer in flight that precedes it, at the transfer's own key and in
/// FIFO order, so the NIC never settles a completion itself.
struct Sim {
    nic: Nic<u64>,
    every_completion: bool,
    queue: BTreeMap<(u64, u64), Ev>,
    seq: u64,
    /// When the queued timer event that covers the NIC's deadline fires.
    timer_slot: Option<u64>,
    service_ns: Vec<u64>,
    /// Frames the RX ring took so far: the arrival index the next one
    /// carries as its frame.
    accepted: u64,
    /// Packets claimed so far: the arrival index the next claim starts at.
    claimed: u64,
    irqs: u64,
    dma_events: u64,
    /// Every completion the NIC reported performing, in report order.
    completed: Vec<DmaCompletion>,
    log: Vec<Obs>,
    timer_seen: (Option<Time>, u64),
}

impl Sim {
    fn new(cfg: NicConfig, service_ns: Vec<u64>, every_completion: bool) -> Self {
        Sim {
            nic: Nic::new(cfg),
            every_completion,
            queue: BTreeMap::new(),
            seq: 0,
            timer_slot: None,
            service_ns,
            accepted: 0,
            claimed: 0,
            irqs: 0,
            dma_events: 0,
            completed: Vec::new(),
            log: Vec::new(),
            timer_seen: (None, 0),
        }
    }

    fn reserve(&mut self) -> u64 {
        self.seq += 1;
        self.seq
    }

    fn push(&mut self, t: u64, ev: Ev) {
        let seq = self.reserve();
        self.queue.insert((t, seq), ev);
    }

    fn apply(&mut self, out: NicOutcome, key: (u64, u64)) {
        let now = key.0;
        if let Some(wake) = out.wake {
            assert!((wake.at.as_nanos(), wake.seq) > key, "wake in the past");
            let prev = self
                .queue
                .insert((wake.at.as_nanos(), wake.seq), Ev::Dma(wake));
            assert!(prev.is_none(), "two events at one key");
        }
        if let Some(at) = self.nic.timer_deadline() {
            let at = at.as_nanos().max(now);
            if self.timer_slot.is_none_or(|armed| armed > at) {
                self.timer_slot = Some(at);
                self.push(at, Ev::Timer);
            }
        }
        if out.interrupt {
            // Claims are contiguous, non-empty and consecutive: each yields
            // the arrival indices of the oldest frames the NIC still owes,
            // in order.
            let start = self.claimed;
            for frame in self.nic.take_claim() {
                assert_eq!(frame, self.claimed, "claims skip, repeat or reorder");
                self.claimed += 1;
            }
            assert!(self.claimed > start, "an interrupt claims nothing");
            let claim = start..self.claimed;
            let service = self.service_ns[self.irqs as usize % self.service_ns.len()];
            self.irqs += 1;
            self.log.push(Obs::Interrupt { at: now, claim });
            self.push(now + service, Ev::Enable);
        }
        let timer = (self.nic.timer_deadline(), self.nic.timer_epoch());
        if timer != self.timer_seen {
            self.timer_seen = timer;
            self.log.push(Obs::Timer {
                key,
                deadline: timer.0,
                epoch: timer.1,
            });
        }
    }

    /// A timer event fired at `t`: it acts only if the deadline is due.
    fn fire_timer(&mut self, t: u64, seq: u64) -> NicOutcome {
        if self.timer_slot == Some(t) {
            self.timer_slot = None;
        }
        let now = Time::from_nanos(t);
        let deadline = self.nic.timer_deadline();
        let out = self.nic.on_timer(now, seq, |c| self.completed.push(c));
        if deadline.is_none_or(|d| d > now) {
            assert!(!out.interrupt, "early firing acted");
            assert_eq!(
                self.nic.timer_deadline(),
                deadline,
                "early firing moved the timer"
            );
        }
        out
    }

    /// Run a DMA-completion event for `c` at its key.
    fn complete(&mut self, c: DmaCompletion) -> NicOutcome {
        self.dma_events += 1;
        let done = |c| self.completed.push(c);
        self.nic.on_dma_complete(c.at, c.seq, c.desc, done)
    }

    /// Dispatch every queued event up to `horizon`, and in the reference
    /// every transfer completing by then, each at its own key.
    fn step_due(&mut self, horizon: u64) {
        loop {
            let next = self.queue.first_key_value().map(|(&k, _)| k);
            let next = next.filter(|&(t, _)| t <= horizon);
            if self.every_completion {
                // A woken transfer's event is queued at its key, so it
                // never precedes `next`: it runs from the queue.
                let head = self.nic.unsettled_dma();
                if let Some(c) = head.filter(|c| {
                    let key = (c.at.as_nanos(), c.seq);
                    key.0 <= horizon && next.is_none_or(|n| key < n)
                }) {
                    let out = self.complete(c);
                    self.apply(out, (c.at.as_nanos(), c.seq));
                    continue;
                }
            }
            let Some((t, s)) = next else { break };
            let ev = self.queue.remove(&(t, s)).expect("exists");
            let out = match ev {
                Ev::Dma(wake) => self.complete(wake),
                Ev::Timer => self.fire_timer(t, s),
                Ev::Enable => {
                    let done = |c| self.completed.push(c);
                    self.nic.enable_irq(Time::from_nanos(t), s, done)
                }
            };
            self.apply(out, (t, s));
        }
    }

    /// A frame arrives at `now`, after every event due by then. Returns
    /// whether the RX ring took it.
    fn frame(&mut self, now: u64, meta: PacketMeta) -> bool {
        self.step_due(now);
        let key = self.reserve();
        let (seq, completed) = (&mut self.seq, &mut self.completed);
        let reserve = || {
            *seq += 1;
            *seq
        };
        let frame = self.accepted;
        let out = self
            .nic
            .on_frame(Time::from_nanos(now), key, frame, meta, reserve, |c| {
                completed.push(c)
            });
        self.accepted += u64::from(out.desc.is_some());
        self.apply(out, (now, key));
        out.desc.is_some()
    }

    /// A coalescing-timer event fires at `now` whether or not the timer is
    /// due, as a superseded arming's event does.
    fn stray_timer(&mut self, now: u64) {
        self.step_due(now);
        let key = self.reserve();
        let out = self.fire_timer(now, key);
        self.apply(out, (now, key));
    }

    /// Run to quiescence: nothing queued and nothing left in flight.
    fn finish(&mut self) {
        self.step_due(u64::MAX);
        assert_eq!(self.nic.unsettled_dma(), None, "completion left unsettled");
    }
}

/// Step-simulate one NIC against an arbitrary arrival schedule; the host
/// services every interrupt after `service_ns`. Returns (packets accepted,
/// packets claimed, interrupts).
fn drive(
    strategy: CoalescingStrategy,
    arrivals: &[(u64, u32, bool)], // (gap_ns, len, marked)
    service_ns: u64,
) -> (u64, u64, u64) {
    let mut sim = Sim::new(
        NicConfig {
            rx_ring_slots: 4096,
            strategy,
            ..NicConfig::default()
        },
        vec![service_ns],
        false,
    );
    let mut now = 0u64;
    let mut accepted = 0u64;
    for &(gap, len, marked) in arrivals {
        now += gap;
        accepted += u64::from(sim.frame(now, PacketMeta::omx(len.max(1), marked)));
    }
    sim.finish();
    (accepted, sim.claimed, sim.irqs)
}

fn strategies() -> Vec<CoalescingStrategy> {
    vec![
        CoalescingStrategy::Disabled,
        CoalescingStrategy::Timeout { delay_us: 75 },
        CoalescingStrategy::OpenMx { delay_us: 75 },
        CoalescingStrategy::Stream { delay_us: 75 },
        CoalescingStrategy::Adaptive {
            min_delay_us: 0,
            max_delay_us: 75,
        },
    ]
}

fn random_arrivals(
    rng: &mut SimRng,
    count_lo: u64,
    count_hi: u64,
    gap_lo: u64,
    gap_hi: u64,
) -> Vec<(u64, u32, bool)> {
    let n = rng.range_u64(count_lo, count_hi) as usize;
    (0..n)
        .map(|_| {
            (
                rng.range_u64(gap_lo, gap_hi),
                rng.range_u64(1, 1500) as u32,
                rng.chance(0.5),
            )
        })
        .collect()
}

/// Liveness + conservation: every accepted packet is eventually claimed
/// by exactly one interrupt, for any strategy, any arrival pattern, any
/// marking, any host service time.
#[test]
fn every_packet_is_claimed_exactly_once() {
    let mut rng = SimRng::new(0x5EED_1001);
    for _case in 0..48 {
        let arrivals = random_arrivals(&mut rng, 1, 200, 0, 200_000);
        let service_ns = rng.range_u64(100, 20_000);
        for strategy in strategies() {
            let (accepted, claimed, irqs) = drive(strategy, &arrivals, service_ns);
            assert_eq!(
                accepted, claimed,
                "{strategy:?}: {accepted} accepted vs {claimed} claimed"
            );
            assert!(irqs >= 1);
        }
    }
}

/// Disabled coalescing raises at least one interrupt per packet batch
/// boundary and never fewer interrupts than any coalescing strategy.
#[test]
fn disabled_raises_the_most_interrupts() {
    let mut rng = SimRng::new(0x5EED_1002);
    for _case in 0..48 {
        let arrivals = random_arrivals(&mut rng, 5, 100, 100, 10_000);
        let (_, _, disabled) = drive(CoalescingStrategy::Disabled, &arrivals, 1_000);
        let (_, _, timeout) = drive(
            CoalescingStrategy::Timeout { delay_us: 75 },
            &arrivals,
            1_000,
        );
        let (_, _, stream) = drive(
            CoalescingStrategy::Stream { delay_us: 75 },
            &arrivals,
            1_000,
        );
        assert!(
            disabled >= timeout,
            "disabled {disabled} < timeout {timeout}"
        );
        assert!(disabled >= stream, "disabled {disabled} < stream {stream}");
    }
}

/// One external stimulus of [`lazy_settling_matches_every_completion_evented`].
#[derive(Debug, Clone, Copy)]
enum Stimulus {
    Frame(PacketMeta),
    StrayTimer,
}

/// What [`observe`] saw of one run: its observations, its counters, the
/// completions the NIC reported and its DMA-completion events.
type Observed = (Vec<Obs>, String, Vec<DmaCompletion>, u64);

/// Run `script` (gap before each stimulus, in ns) on one NIC.
fn observe(
    cfg: &NicConfig,
    script: &[(u64, Stimulus)],
    service_ns: &[u64],
    every_completion: bool,
) -> Observed {
    let mut sim = Sim::new(cfg.clone(), service_ns.to_vec(), every_completion);
    let mut now = 0;
    for &(gap, stimulus) in script {
        now += gap;
        match stimulus {
            Stimulus::Frame(meta) => {
                sim.frame(now, meta);
            }
            Stimulus::StrayTimer => sim.stray_timer(now),
        }
    }
    sim.finish();
    let counters: &NicCounters = sim.nic.counters();
    let counters = counters.to_json().render();
    (sim.log, counters, sim.completed, sim.dma_events)
}

/// Lazy settling is exact: a NIC that schedules an event only for the DMA
/// completions that can act, and settles the rest at its next entry point,
/// shows the same interrupt instants, claimed descriptors, timer arming
/// (deadline and generation, after the same events), counters, hold
/// histogram included, and reported completions as a reference whose
/// harness completes every transfer at its own key. The scripts mix marked and unmarked
/// frames of 0–9000 B in bursts and sparse trains, coalescing-timer events
/// that fire whether or not the timer is due, and host service times that
/// decide when interrupts are re-enabled, under all five strategies with a
/// small RX ring that drops.
#[test]
fn lazy_settling_matches_every_completion_evented() {
    let mut rng = SimRng::new(0x5EED_1003);
    let (mut lazy_dma, mut eager_dma) = (0, 0);
    for case in 0..500 {
        let delay_us = [0, 1, 5, 75][rng.range_u64(0, 4) as usize];
        let strategy = match case % 5 {
            0 => CoalescingStrategy::Disabled,
            1 => CoalescingStrategy::Timeout { delay_us },
            2 => CoalescingStrategy::OpenMx { delay_us },
            3 => CoalescingStrategy::Stream { delay_us },
            _ => CoalescingStrategy::Adaptive {
                min_delay_us: 0,
                max_delay_us: delay_us.max(1),
            },
        };
        let cfg = NicConfig {
            rx_ring_slots: 24,
            strategy,
            ..NicConfig::default()
        };
        let max_gap = [600, 8_000, 150_000][rng.range_u64(0, 3) as usize];
        let script: Vec<(u64, Stimulus)> = (0..rng.range_u64(1, 300))
            .map(|_| {
                let gap = rng.range_u64(0, max_gap);
                let stimulus = if rng.chance(0.1) {
                    Stimulus::StrayTimer
                } else {
                    let len = rng.range_u64(0, 9_001) as u32;
                    Stimulus::Frame(PacketMeta::omx(len, rng.chance(0.4)))
                };
                (gap, stimulus)
            })
            .collect();
        let service_ns: Vec<u64> = (0..8).map(|_| rng.range_u64(100, 30_000)).collect();

        let (lazy_log, lazy_counters, lazy_done, lazy_events) =
            observe(&cfg, &script, &service_ns, false);
        let (eager_log, eager_counters, eager_done, eager_events) =
            observe(&cfg, &script, &service_ns, true);
        if let Some(i) =
            (0..lazy_log.len().min(eager_log.len())).find(|&i| lazy_log[i] != eager_log[i])
        {
            panic!(
                "case {case}, {strategy:?}: runs part at observation {i}:\n lazy  {:?}\n eager {:?}",
                lazy_log[i], eager_log[i]
            );
        }
        assert_eq!(lazy_log.len(), eager_log.len(), "case {case}, {strategy:?}");
        assert_eq!(lazy_counters, eager_counters, "case {case}, {strategy:?}");
        assert_eq!(lazy_done, eager_done, "case {case}, {strategy:?}: reports");
        assert!(lazy_events <= eager_events);
        // The reference completes every transfer in an event of its own.
        assert_eq!(eager_events, eager_done.len() as u64, "case {case}");
        lazy_dma += lazy_events;
        eager_dma += eager_events;
    }
    assert!(
        lazy_dma * 4 < eager_dma * 3,
        "a quarter of the completions settle without an event: {lazy_dma} of {eager_dma} evented"
    );
}
