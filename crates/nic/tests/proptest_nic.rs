//! Property tests for the NIC state machine: liveness (no packet ever
//! strands without an interrupt) and conservation (every accepted packet is
//! claimed exactly once) for every strategy under arbitrary traffic. The
//! timer is armed the way the cluster orchestrator arms it: one slot per
//! NIC, a superseded timer event left queued to fire as a no-op.
//!
//! Randomised with the simulator's deterministic [`SimRng`] (fixed seeds, so
//! failures reproduce exactly) instead of an external property-test harness.

use omx_nic::{CoalescingStrategy, DescId, Nic, NicConfig, NicOutcome, PacketMeta};
use omx_sim::rng::SimRng;
use omx_sim::Time;
use std::collections::BTreeMap;

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Ev {
    Dma(u64), // DescId
    Timer,
    Enable,
}

/// Step-simulate one NIC against an arbitrary arrival schedule; the host
/// services every interrupt after `service_ns`. Returns packets claimed.
fn drive(
    strategy: CoalescingStrategy,
    arrivals: &[(u64, u32, bool)], // (gap_ns, len, marked)
    service_ns: u64,
) -> (u64, u64, u64) {
    struct Sim {
        nic: Nic,
        queue: BTreeMap<(u64, u64), Ev>,
        seq: u64,
        /// When the queued timer event that covers the NIC's deadline fires.
        timer_slot: Option<u64>,
        service_ns: u64,
        claimed: u64,
        irqs: u64,
    }

    impl Sim {
        fn push(&mut self, t: u64, ev: Ev) {
            self.queue.insert((t, self.seq), ev);
            self.seq += 1;
        }

        fn apply(&mut self, out: NicOutcome, now: u64) {
            if let Some((desc, at)) = out.dma {
                self.push(at.as_nanos(), Ev::Dma(desc.0));
            }
            if let Some(at) = self.nic.timer_deadline() {
                let at = at.as_nanos().max(now);
                if self.timer_slot.is_none_or(|armed| armed > at) {
                    self.timer_slot = Some(at);
                    self.push(at, Ev::Timer);
                }
            }
            if out.interrupt {
                self.irqs += 1;
                let mut batch = Vec::new();
                self.nic.drain_ready_into(&mut batch);
                self.claimed += batch.len() as u64;
                self.push(now + self.service_ns, Ev::Enable);
            }
        }

        /// A timer event fired at `t`: it acts only if the deadline is due.
        fn fire_timer(&mut self, t: u64) -> NicOutcome {
            if self.timer_slot == Some(t) {
                self.timer_slot = None;
            }
            let now = Time::from_nanos(t);
            let deadline = self.nic.timer_deadline();
            let out = self.nic.on_timer(now);
            if deadline.is_none_or(|d| d > now) {
                assert_eq!(out, NicOutcome::default(), "early firing acted");
                assert_eq!(
                    self.nic.timer_deadline(),
                    deadline,
                    "early firing moved the timer"
                );
            }
            out
        }

        fn step_due(&mut self, horizon: u64) {
            while let Some((&(t, s), _)) = self.queue.first_key_value() {
                if t > horizon {
                    break;
                }
                let ev = self.queue.remove(&(t, s)).expect("exists");
                let out = match ev {
                    Ev::Dma(d) => self.nic.on_dma_complete(Time::from_nanos(t), DescId(d)),
                    Ev::Timer => self.fire_timer(t),
                    Ev::Enable => self.nic.enable_irq(Time::from_nanos(t)),
                };
                self.apply(out, t);
            }
        }
    }

    let mut sim = Sim {
        nic: Nic::new(NicConfig {
            rx_ring_slots: 4096,
            strategy,
            ..NicConfig::default()
        }),
        queue: BTreeMap::new(),
        seq: 0,
        timer_slot: None,
        service_ns,
        claimed: 0,
        irqs: 0,
    };
    let mut now = 0u64;
    let mut accepted = 0u64;
    for &(gap, len, marked) in arrivals {
        now += gap;
        sim.step_due(now);
        let out = sim
            .nic
            .on_frame(Time::from_nanos(now), PacketMeta::omx(len.max(1), marked));
        if !out.dropped {
            accepted += 1;
        }
        sim.apply(out, now);
    }
    sim.step_due(u64::MAX);
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
