//! Interrupt coalescing strategies — the paper's contribution.
//!
//! [`Coalescer`] exposes exactly the firmware hook points the paper patches
//! in myri10ge (§III-B: "less than 20 lines of code (in the main incoming
//! packet processing routine and in the write DMA completion routine)"):
//!
//! * [`Coalescer::on_packet_arrival`] — a frame was received off the wire
//!   and its descriptor created,
//! * [`Coalescer::on_dma_complete`] — the frame now sits in host memory and
//!   *could* be processed if the host were interrupted,
//! * [`Coalescer::on_timer`] — the classic coalescing timeout expired,
//! * [`Coalescer::on_interrupt`] — an interrupt was actually raised (fold
//!   state back to idle).
//!
//! Each hook returns a [`Decision`]: whether to raise an interrupt now and
//! what to do with the NIC's single coalescing timer. The surrounding
//! [`crate::Nic`] enforces the parts that are *hardware*, not strategy:
//! interrupts are only delivered when the host has them enabled, and only
//! when there is at least one ready packet to report.

use omx_sim::{Time, TimeDelta};

/// What to do with the NIC's coalescing timer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimerAction {
    /// Leave the timer as it is.
    Keep,
    /// (Re-)arm the timer to fire at this absolute time.
    ArmAt(Time),
    /// Cancel the timer.
    Disarm,
}

/// Outcome of one strategy hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Decision {
    /// Raise an interrupt now (subject to the hardware gates in [`crate::Nic`]).
    pub raise: bool,
    /// Timer manipulation.
    pub timer: TimerAction,
}

impl Decision {
    /// Do nothing.
    pub const NONE: Decision = Decision {
        raise: false,
        timer: TimerAction::Keep,
    };

    /// Raise an interrupt, leaving the timer alone.
    pub const RAISE: Decision = Decision {
        raise: true,
        timer: TimerAction::Keep,
    };

    fn arm(at: Time) -> Decision {
        Decision {
            raise: false,
            timer: TimerAction::ArmAt(at),
        }
    }
}

/// Declarative strategy configuration, used by experiment configs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CoalescingStrategy {
    /// Coalescing disabled (ethtool `rx-usecs 0`): every completed packet
    /// raises an interrupt immediately. Best small-message latency, worst
    /// host load.
    Disabled,
    /// Classic timeout coalescing: the interrupt is delayed until `delay_us`
    /// after the first packet since the last interrupt. This is the only
    /// knob generic Ethernet hardware exposes (§II-C).
    Timeout {
        /// Coalescing delay in microseconds.
        delay_us: u64,
    },
    /// The paper's Algorithm 1: when the *DMA of a latency-sensitive-marked
    /// descriptor completes*, the interrupt is raised immediately. Unmarked
    /// traffic (IP, acks, non-final fragments) keeps the classic timeout, so
    /// TCP flows are unaffected.
    OpenMx {
        /// Fallback coalescing delay for unmarked packets, in microseconds.
        delay_us: u64,
    },
    /// The paper's Algorithm 2: like `OpenMx`, but a marked completion
    /// while *other DMAs are still pending* **defers** the interrupt until
    /// the DMA queue drains, so a burst of small messages costs a single
    /// interrupt. The classic timeout still bounds the deferral.
    Stream {
        /// Fallback coalescing delay for unmarked packets, in microseconds.
        delay_us: u64,
    },
    /// Future-work adaptive strategy (§VI): the delay is tuned from the
    /// recent packet rate, the way Linux dynamic interrupt moderation
    /// works. Low traffic behaves like disabled coalescing, high traffic
    /// converges to the maximum delay. The paper found this "helps
    /// microbenchmarks but cannot help real applications as well as our
    /// firmware modifications do" — `omx-bench adaptive` reproduces that.
    Adaptive {
        /// Delay at/below 25 kpps (µs).
        min_delay_us: u64,
        /// Delay at/above 250 kpps (µs); interpolated linearly between.
        max_delay_us: u64,
    },
}

/// Adaptive rate thresholds (packets/s) and rate-sampling window.
const ADAPTIVE_LOW_PPS: f64 = 25_000.0;
const ADAPTIVE_HIGH_PPS: f64 = 250_000.0;
const ADAPTIVE_WINDOW: TimeDelta = TimeDelta::from_micros(500);

impl CoalescingStrategy {
    /// The Myri-10G factory default (75 µs timeout), per §IV-B1.
    pub fn myri10g_default() -> Self {
        CoalescingStrategy::Timeout { delay_us: 75 }
    }

    /// Instantiate the strategy's firmware state.
    pub fn build(self) -> Coalescer {
        let delay_us = match self {
            CoalescingStrategy::Disabled => 0,
            CoalescingStrategy::Timeout { delay_us }
            | CoalescingStrategy::OpenMx { delay_us }
            | CoalescingStrategy::Stream { delay_us } => delay_us,
            CoalescingStrategy::Adaptive { min_delay_us, .. } => min_delay_us,
        };
        Coalescer {
            strategy: self,
            delay: TimeDelta::from_micros(delay_us),
            timer_armed: false,
            deferred: false,
            window_start: Time::ZERO,
            window_packets: 0,
        }
    }

    /// Stable label for result tables.
    pub fn label(&self) -> &'static str {
        match self {
            CoalescingStrategy::Disabled => "disabled",
            CoalescingStrategy::Timeout { .. } => "timeout",
            CoalescingStrategy::OpenMx { .. } => "open-mx",
            CoalescingStrategy::Stream { .. } => "stream",
            CoalescingStrategy::Adaptive { .. } => "adaptive",
        }
    }
}

/// A NIC's coalescing firmware state: the strategy tag plus the little
/// state the strategies keep. Built by [`CoalescingStrategy::build`]; each
/// hook is one `match` on the tag.
///
/// ```
/// use omx_nic::{CoalescingStrategy, TimerAction};
/// use omx_sim::Time;
///
/// let mut c = CoalescingStrategy::OpenMx { delay_us: 75 }.build();
/// // An arrival arms the fallback timeout…
/// let d = c.on_packet_arrival(Time::ZERO);
/// assert_eq!(d.timer, TimerAction::ArmAt(Time::from_micros(75)));
/// // …but a marked descriptor's completion raises at once (Algorithm 1).
/// assert!(c.on_dma_complete(true, 0).raise);
/// assert!(!c.on_dma_complete(false, 0).raise);
/// ```
#[derive(Debug)]
pub struct Coalescer {
    strategy: CoalescingStrategy,
    /// Fallback timeout; for `Adaptive`, the delay currently in force
    /// (recomputed each rate window).
    delay: TimeDelta,
    timer_armed: bool,
    /// Algorithm 2's DeferredInterrupt flag (`Stream` only).
    deferred: bool,
    /// Adaptive rate window: start time and packets seen since.
    window_start: Time,
    window_packets: u32,
}

impl Coalescer {
    /// Hook: a frame arrived off the wire; its descriptor was just created
    /// (the [`crate::Nic`] copies the Open-MX marker onto the descriptor —
    /// Algorithm 1's "if Packet is Marked then Mark packet Descriptor").
    pub fn on_packet_arrival(&mut self, now: Time) -> Decision {
        match self.strategy {
            CoalescingStrategy::Disabled => return Decision::NONE,
            CoalescingStrategy::Adaptive {
                min_delay_us,
                max_delay_us,
            } => {
                self.window_packets += 1;
                self.roll_window(now, min_delay_us, max_delay_us);
            }
            CoalescingStrategy::Timeout { .. }
            | CoalescingStrategy::OpenMx { .. }
            | CoalescingStrategy::Stream { .. } => {}
        }
        // Arm once per interrupt cycle: later arrivals ride the same timer.
        if self.timer_armed {
            Decision::NONE
        } else {
            self.timer_armed = true;
            Decision::arm(now + self.delay)
        }
    }

    /// Hook: the write DMA for a descriptor completed. `marked` is the
    /// descriptor's stored marker; `pending_dmas` counts transfers still in
    /// flight behind this one.
    pub fn on_dma_complete(&mut self, marked: bool, pending_dmas: usize) -> Decision {
        match self.strategy {
            CoalescingStrategy::Disabled => Decision::RAISE,
            // The timer governs; with a near-zero adaptive delay it raises
            // promptly.
            CoalescingStrategy::Timeout { .. } | CoalescingStrategy::Adaptive { .. } => {
                Decision::NONE
            }
            // Algorithm 1: "if Descriptor is Marked then Raise Interrupt".
            CoalescingStrategy::OpenMx { .. } => {
                if marked {
                    Decision::RAISE
                } else {
                    Decision::NONE
                }
            }
            // Algorithm 2, transcribed:
            //   if no other DMA is pending then
            //       if Descriptor is Marked or DeferredInterrupt is set then
            //           Raise Interrupt; Clear DeferredInterrupt
            //   else if Descriptor is Marked then
            //       Set DeferredInterrupt
            CoalescingStrategy::Stream { .. } => {
                if pending_dmas == 0 {
                    if marked || self.deferred {
                        self.deferred = false;
                        return Decision::RAISE;
                    }
                } else if marked {
                    self.deferred = true;
                }
                Decision::NONE
            }
        }
    }

    /// Which of `inflight` pending DMA completions, by FIFO index, is the
    /// first whose [`Self::on_dma_complete`] can raise, if they complete
    /// before any other hook runs. `first_marked` indexes the first marked
    /// one. Every other completion only records its packet (and, under
    /// Stream, may set the deferred flag), so the NIC settles it without
    /// an event of its own.
    pub fn first_raising_completion(
        &self,
        inflight: usize,
        first_marked: Option<usize>,
    ) -> Option<usize> {
        match self.strategy {
            _ if inflight == 0 => None,
            CoalescingStrategy::Disabled => Some(0),
            CoalescingStrategy::Timeout { .. } | CoalescingStrategy::Adaptive { .. } => None,
            CoalescingStrategy::OpenMx { .. } => first_marked,
            // Only the completion that drains the queue can raise, and only
            // if the flag is already set or a marked completion sets it.
            CoalescingStrategy::Stream { .. } => {
                (self.deferred || first_marked.is_some()).then_some(inflight - 1)
            }
        }
    }

    /// Hook: the coalescing timer fired.
    pub fn on_timer(&mut self) -> Decision {
        // Algorithm 2: "Raise Interrupt; Clear DeferredInterrupt; Reset
        // coalescing timeout".
        self.deferred = false;
        self.timer_armed = false;
        match self.strategy {
            CoalescingStrategy::Disabled => Decision::NONE,
            _ => Decision {
                raise: true,
                timer: TimerAction::Disarm,
            },
        }
    }

    /// Notification: an interrupt was raised (by any path).
    pub fn on_interrupt(&mut self) {
        self.deferred = false;
        self.timer_armed = false;
    }

    /// The fallback coalescing delay, if the strategy has one. The NIC uses
    /// it as a safety re-arm: whenever packets sit in host memory unclaimed
    /// and no timer is pending, an interrupt must still happen within this
    /// delay (real firmware re-arms its timer per unclaimed event).
    pub fn fallback_delay(&self) -> Option<TimeDelta> {
        match self.strategy {
            CoalescingStrategy::Disabled => None,
            _ => Some(self.delay),
        }
    }

    /// Close the adaptive rate window once it spans [`ADAPTIVE_WINDOW`] and
    /// interpolate the delay from the rate it measured.
    fn roll_window(&mut self, now: Time, min_delay_us: u64, max_delay_us: u64) {
        let elapsed = now.saturating_since(self.window_start);
        if elapsed < ADAPTIVE_WINDOW {
            return;
        }
        let rate = self.window_packets as f64 / elapsed.as_secs_f64();
        let frac =
            ((rate - ADAPTIVE_LOW_PPS) / (ADAPTIVE_HIGH_PPS - ADAPTIVE_LOW_PPS)).clamp(0.0, 1.0);
        let min = TimeDelta::from_micros(min_delay_us).as_nanos() as f64;
        let max = TimeDelta::from_micros(max_delay_us).as_nanos() as f64;
        self.delay = TimeDelta::from_nanos((min + frac * (max - min)) as u64);
        self.window_start = now;
        self.window_packets = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    fn timeout(delay_us: u64) -> Coalescer {
        CoalescingStrategy::Timeout { delay_us }.build()
    }

    fn openmx(delay_us: u64) -> Coalescer {
        CoalescingStrategy::OpenMx { delay_us }.build()
    }

    fn stream(delay_us: u64) -> Coalescer {
        CoalescingStrategy::Stream { delay_us }.build()
    }

    fn adaptive(min_delay_us: u64, max_delay_us: u64) -> Coalescer {
        CoalescingStrategy::Adaptive {
            min_delay_us,
            max_delay_us,
        }
        .build()
    }

    #[test]
    fn disabled_raises_on_every_completion() {
        let mut c = CoalescingStrategy::Disabled.build();
        assert_eq!(c.on_packet_arrival(t(0)), Decision::NONE);
        assert!(c.on_dma_complete(false, 3).raise);
        assert!(c.on_dma_complete(true, 0).raise);
    }

    #[test]
    fn timeout_arms_once_and_raises_on_timer() {
        let mut c = timeout(75);
        let d = c.on_packet_arrival(t(0));
        assert_eq!(d.timer, TimerAction::ArmAt(t(75)));
        // Second packet does not re-arm.
        assert_eq!(c.on_packet_arrival(t(1)), Decision::NONE);
        // Completion does not raise.
        assert!(!c.on_dma_complete(false, 0).raise);
        // Timer fires: raise and disarm.
        let d = c.on_timer();
        assert!(d.raise);
        assert_eq!(d.timer, TimerAction::Disarm);
        // Next packet re-arms.
        let d = c.on_packet_arrival(t(80));
        assert_eq!(d.timer, TimerAction::ArmAt(t(155)));
    }

    #[test]
    fn timeout_interrupt_resets_arming() {
        let mut c = timeout(75);
        c.on_packet_arrival(t(0));
        c.on_interrupt(); // e.g. raised by the NIC's latched-raise path
        let d = c.on_packet_arrival(t(20));
        assert_eq!(d.timer, TimerAction::ArmAt(t(95)));
    }

    #[test]
    fn openmx_marked_completion_raises_immediately() {
        let mut c = openmx(75);
        c.on_packet_arrival(t(0));
        let d = c.on_dma_complete(true, 5);
        assert!(
            d.raise,
            "marked descriptor raises regardless of pending DMAs"
        );
    }

    #[test]
    fn openmx_unmarked_falls_back_to_timeout() {
        let mut c = openmx(75);
        let d = c.on_packet_arrival(t(0));
        assert_eq!(d.timer, TimerAction::ArmAt(t(75)));
        assert!(!c.on_dma_complete(false, 0).raise);
        assert!(c.on_timer().raise);
    }

    #[test]
    fn openmx_ip_traffic_is_unaffected() {
        // §IV: "IP connections and Open-MX management packets are
        // unaffected" — IP descriptors are never marked.
        let mut c = openmx(75);
        c.on_packet_arrival(t(0));
        let d = c.on_dma_complete(crate::PacketMeta::ip(1500).marked, 0);
        assert!(!d.raise);
    }

    #[test]
    fn stream_raises_when_queue_empty_and_marked() {
        let mut c = stream(75);
        c.on_packet_arrival(t(0));
        let d = c.on_dma_complete(true, 0);
        assert!(d.raise);
        assert!(!c.deferred);
    }

    #[test]
    fn stream_defers_marked_completion_while_dmas_pending() {
        let mut c = stream(75);
        c.on_packet_arrival(t(0));
        c.on_packet_arrival(t(0));
        // Marked completes while another DMA is pending: defer.
        let d = c.on_dma_complete(true, 1);
        assert!(!d.raise);
        assert!(c.deferred);
        // The trailing unmarked completion drains the queue: deferred fires.
        let d = c.on_dma_complete(false, 0);
        assert!(d.raise);
        assert!(!c.deferred);
    }

    #[test]
    fn stream_defer_chains_across_burst() {
        // A stream of N marked small messages, all DMAs overlapping: only the
        // last completion raises.
        let mut c = stream(75);
        for _ in 0..5 {
            c.on_packet_arrival(t(0));
        }
        for pending in (1..5).rev() {
            assert!(!c.on_dma_complete(true, pending).raise);
        }
        assert!(c.on_dma_complete(true, 0).raise);
    }

    #[test]
    fn stream_unmarked_drain_without_defer_stays_quiet() {
        let mut c = stream(75);
        c.on_packet_arrival(t(0));
        let d = c.on_dma_complete(false, 0);
        assert!(!d.raise, "unmarked, not deferred: timeout path governs");
    }

    #[test]
    fn stream_timer_clears_deferred() {
        let mut c = stream(75);
        c.on_packet_arrival(t(0));
        c.on_packet_arrival(t(0));
        c.on_dma_complete(true, 1);
        assert!(c.deferred);
        let d = c.on_timer();
        assert!(d.raise);
        assert!(!c.deferred);
    }

    #[test]
    fn stream_interrupt_notification_clears_deferred() {
        let mut c = stream(75);
        c.on_packet_arrival(t(0));
        c.on_packet_arrival(t(0));
        c.on_dma_complete(true, 1);
        c.on_interrupt();
        assert!(!c.deferred);
    }

    #[test]
    fn first_raising_completion_predicts_on_dma_complete() {
        // Replay every marking of up to four queued completions: the first
        // raise must land where `first_raising_completion` said, with the
        // Stream flag both clear and already set.
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
            for n in 0..=4usize {
                for marks in 0..1u32 << n {
                    for deferred in [false, true] {
                        let mut c = strategy.build();
                        c.deferred = deferred;
                        let marked = |i: usize| marks >> i & 1 == 1;
                        let first_marked = (0..n).find(|&i| marked(i));
                        let predicted = c.first_raising_completion(n, first_marked);
                        let raised =
                            (0..n).find(|&i| c.on_dma_complete(marked(i), n - 1 - i).raise);
                        assert_eq!(
                            predicted, raised,
                            "{strategy:?}, marks {marks:b} of {n}, deferred {deferred}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn adaptive_low_rate_uses_min_delay() {
        let mut c = adaptive(0, 75);
        // Sparse packets: rate stays low, delay stays at min (0 µs) so the
        // timer fires immediately.
        let d = c.on_packet_arrival(t(10_000));
        assert_eq!(d.timer, TimerAction::ArmAt(t(10_000)));
    }

    #[test]
    fn adaptive_high_rate_converges_to_max_delay() {
        let mut c = adaptive(0, 75);
        // Feed a dense packet train: 1 packet/µs for 2 ms >> high_pps.
        for i in 0..2_000u64 {
            let now = Time::from_micros(i);
            c.on_packet_arrival(now);
            c.on_interrupt(); // keep the timer logic out of the way
        }
        assert_eq!(c.delay, TimeDelta::from_micros(75));
    }

    #[test]
    fn adaptive_rate_between_thresholds_interpolates() {
        let mut c = adaptive(0, 100);
        // One packet per 7 273 ns ≈ 137.5 kpps, the midpoint of the
        // production thresholds: expect ~50 µs.
        for i in 0..1_000u64 {
            let now = Time::from_nanos(i * 7_273);
            c.on_packet_arrival(now);
            c.on_interrupt();
        }
        let d = c.delay.as_nanos();
        assert!((45_000..=55_000).contains(&d), "expected ~50us, got {d}ns");
    }

    #[test]
    fn strategy_enum_builds_and_labels() {
        for (strategy, label) in [
            (CoalescingStrategy::Disabled, "disabled"),
            (CoalescingStrategy::Timeout { delay_us: 75 }, "timeout"),
            (CoalescingStrategy::OpenMx { delay_us: 75 }, "open-mx"),
            (CoalescingStrategy::Stream { delay_us: 75 }, "stream"),
            (
                CoalescingStrategy::Adaptive {
                    min_delay_us: 0,
                    max_delay_us: 75,
                },
                "adaptive",
            ),
        ] {
            assert_eq!(strategy.label(), label);
            assert_eq!(strategy.build().strategy, strategy);
        }
        assert_eq!(
            CoalescingStrategy::myri10g_default(),
            CoalescingStrategy::Timeout { delay_us: 75 }
        );
    }
}
