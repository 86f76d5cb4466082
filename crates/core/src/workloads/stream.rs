//! Unidirectional message-rate benchmark (Fig. 4 and Table I).
//!
//! A sender keeps `window` message posts outstanding toward a receiver that
//! consumes completions as fast as the receive stack delivers them. The
//! measured metric is the receiver-side completion rate — "the maximal rate
//! of a unidirectional stream of messages between two Open-MX processes"
//! (§IV-B1) — together with the receiver's interrupt and wakeup counts,
//! which explain *why* the rate moves.

use crate::system::{Actor, ActorCtx, Cluster, RecvCompletion};
use crate::wire::EndpointAddr;
use omx_sim::{StopCondition, Time};
use std::any::Any;

/// Stream parameters.
#[derive(Debug, Clone, Copy)]
pub struct StreamSpec {
    /// Message length in bytes (0 allowed: header-only messages).
    pub msg_len: u32,
    /// Messages to deliver (measured from first to last completion).
    pub messages: u32,
    /// Sender posts kept outstanding.
    pub window: u32,
}

impl Default for StreamSpec {
    fn default() -> Self {
        StreamSpec {
            msg_len: 128,
            messages: 2_000,
            window: 32,
        }
    }
}

/// Stream results.
#[derive(Debug, Clone)]
pub struct StreamReport {
    /// Receiver-side completion rate, messages per second.
    pub msgs_per_sec: f64,
    /// Interrupts raised on the receiving node during the run.
    pub rx_interrupts: u64,
    /// Interrupts per delivered message on the receiver.
    pub interrupts_per_msg: f64,
    /// C1E wakeups on the receiving node.
    pub rx_wakeups: u64,
    /// Cache-line bounces on the receiving node.
    pub rx_cache_bounces: u64,
    /// First-to-last completion span, nanoseconds.
    pub span_ns: u64,
}

/// The sending side.
pub struct StreamSender {
    peer: EndpointAddr,
    spec: StreamSpec,
    posted: u32,
    completed: u32,
}

impl StreamSender {
    /// Create a sender aimed at `peer`.
    pub fn new(peer: EndpointAddr, spec: StreamSpec) -> Self {
        StreamSender {
            peer,
            spec,
            posted: 0,
            completed: 0,
        }
    }

    fn pump(&mut self, ctx: &mut ActorCtx) {
        while self.posted < self.spec.messages {
            let outstanding_cap = self.spec.window.max(1);
            // `posted - completed` is approximated by the driver window; we
            // cap by counting our own outstanding posts via handles.
            if self.posted >= self.completed + outstanding_cap {
                break;
            }
            ctx.post_send(
                self.peer,
                self.spec.msg_len,
                u64::from(self.posted),
                u64::from(self.posted),
            );
            self.posted += 1;
        }
    }
}

impl Actor for StreamSender {
    fn on_start(&mut self, ctx: &mut ActorCtx) {
        self.pump(ctx);
    }

    fn on_send_complete(&mut self, ctx: &mut ActorCtx, _handle: u64) {
        self.completed += 1;
        self.pump(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The receiving side: measures completion times.
pub struct StreamReceiver {
    expect: u32,
    got: u32,
    first_at: Option<Time>,
    last_at: Option<Time>,
}

impl StreamReceiver {
    /// Create a receiver expecting `expect` messages.
    pub fn new(expect: u32) -> Self {
        StreamReceiver {
            expect,
            got: 0,
            first_at: None,
            last_at: None,
        }
    }

    /// Completion span (first to last), if the stream finished.
    pub fn span(&self) -> Option<(Time, Time)> {
        Some((self.first_at?, self.last_at?))
    }

    /// Messages received so far.
    pub fn received(&self) -> u32 {
        self.got
    }
}

impl Actor for StreamReceiver {
    fn blocking_waits(&self) -> bool {
        // Message-rate receivers block in `mx_wait` between bursts — the
        // configuration where Fig. 4's sleep effects appear.
        true
    }

    fn on_start(&mut self, ctx: &mut ActorCtx) {
        // Keep a pool of wildcard receives pre-posted.
        for i in 0..64u64 {
            ctx.post_recv(0, 0, i);
        }
    }

    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, _c: RecvCompletion) {
        if self.first_at.is_none() {
            self.first_at = Some(ctx.now());
        }
        self.got += 1;
        if self.got >= self.expect {
            self.last_at = Some(ctx.now());
            ctx.stop();
        } else {
            ctx.post_recv(0, 0, u64::from(self.got) + 64);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Cluster {
    /// Run a node-0 → node-1 unidirectional stream and report the rate.
    pub fn run_stream(&mut self, spec: StreamSpec) -> StreamReport {
        assert!(self.config().nodes >= 2, "stream needs two nodes");
        self.add_actor(
            0,
            0,
            Box::new(StreamSender::new(EndpointAddr::new(1, 0), spec)),
        );
        self.add_actor(1, 0, Box::new(StreamReceiver::new(spec.messages)));
        let stop = self.run(Time::from_secs(3_600));
        assert_eq!(
            stop,
            StopCondition::PredicateSatisfied,
            "stream must complete: {stop:?}"
        );
        let recv = self
            .actor::<StreamReceiver>(1, 0)
            .expect("receiver present");
        let (first, last) = recv.span().expect("completed");
        let span_ns = (last - first).as_nanos().max(1);
        // Rate over the measured completions after the first (span covers
        // messages-1 inter-arrival gaps).
        let rate = (spec.messages.saturating_sub(1)) as f64 / (span_ns as f64 / 1e9);
        let m = self.metrics();
        let rx = &m.nodes[1];
        StreamReport {
            msgs_per_sec: rate,
            rx_interrupts: rx.nic.interrupts.get(),
            interrupts_per_msg: rx.nic.interrupts.get() as f64 / spec.messages as f64,
            rx_wakeups: rx.host.wakeups.get(),
            rx_cache_bounces: rx.host.cache_bounces.get(),
            span_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ClusterBuilder;
    use omx_host::IrqRouting;
    use omx_nic::CoalescingStrategy;

    fn rate(strategy: CoalescingStrategy, routing: IrqRouting, sleep: bool) -> StreamReport {
        ClusterBuilder::new()
            .nodes(2)
            .strategy(strategy)
            .routing(routing)
            .sleep(sleep)
            .build()
            .run_stream(StreamSpec {
                msg_len: 128,
                messages: 1_500,
                window: 32,
            })
    }

    #[test]
    fn disabling_coalescing_tanks_message_rate() {
        // Fig. 4 / Table I: disabling coalescing roughly halves the rate in
        // the default configuration (round-robin IRQs, sleep allowed).
        let default = rate(
            CoalescingStrategy::Timeout { delay_us: 75 },
            IrqRouting::RoundRobin,
            true,
        );
        let disabled = rate(CoalescingStrategy::Disabled, IrqRouting::RoundRobin, true);
        let ratio = default.msgs_per_sec / disabled.msgs_per_sec;
        assert!(
            ratio > 1.5,
            "default {:.0}/s vs disabled {:.0}/s (ratio {ratio:.2})",
            default.msgs_per_sec,
            disabled.msgs_per_sec
        );
        assert!(
            disabled.rx_interrupts > default.rx_interrupts * 5,
            "disabled must interrupt far more often"
        );
    }

    #[test]
    fn disabling_sleep_improves_disabled_coalescing_rate() {
        // Fig. 4: "disabling sleeping significantly improves the message
        // rate" when interrupts are frequent.
        let sleeping = rate(CoalescingStrategy::Disabled, IrqRouting::RoundRobin, true);
        let awake = rate(CoalescingStrategy::Disabled, IrqRouting::RoundRobin, false);
        assert!(
            awake.msgs_per_sec > sleeping.msgs_per_sec * 1.1,
            "awake {:.0}/s vs sleeping {:.0}/s",
            awake.msgs_per_sec,
            sleeping.msgs_per_sec
        );
        assert_eq!(awake.rx_wakeups, 0);
        assert!(sleeping.rx_wakeups > 0);
    }

    #[test]
    fn binding_interrupts_removes_cache_bounces() {
        let scattered = rate(CoalescingStrategy::Disabled, IrqRouting::RoundRobin, false);
        let bound = rate(CoalescingStrategy::Disabled, IrqRouting::Fixed(1), false);
        assert!(bound.rx_cache_bounces < scattered.rx_cache_bounces / 4);
        // Both configurations are sender-bound here; binding must not be
        // meaningfully slower (it removes bounces from the receive path).
        assert!(bound.msgs_per_sec >= scattered.msgs_per_sec * 0.99);
    }

    #[test]
    fn stream_strategy_beats_openmx_on_message_rate() {
        // §IV-C2: Stream coalescing halves the interrupt count of Open-MX
        // coalescing on a small-message stream.
        let openmx = rate(
            CoalescingStrategy::OpenMx { delay_us: 75 },
            IrqRouting::RoundRobin,
            true,
        );
        let stream = rate(
            CoalescingStrategy::Stream { delay_us: 75 },
            IrqRouting::RoundRobin,
            true,
        );
        assert!(
            (stream.rx_interrupts as f64) < openmx.rx_interrupts as f64 * 0.75,
            "stream {} vs open-mx {} interrupts",
            stream.rx_interrupts,
            openmx.rx_interrupts
        );
        assert!(stream.msgs_per_sec >= openmx.msgs_per_sec * 0.95);
    }

    #[test]
    fn openmx_rate_sits_between_disabled_and_default() {
        // Table I row 0 B: Disabled 252k ≤ Open-MX 423k < Default 490k.
        // Our model reproduces Disabled and Default quantitatively; the
        // Open-MX gap over Disabled at 0 B is under-modelled (the paper
        // attributes it to unmarked acks avoiding interrupts, a sender-side
        // effect our receiver-bound equilibrium damps), so we assert the
        // weak ordering only — see EXPERIMENTS.md.
        let disabled = rate(CoalescingStrategy::Disabled, IrqRouting::RoundRobin, true);
        let openmx = rate(
            CoalescingStrategy::OpenMx { delay_us: 75 },
            IrqRouting::RoundRobin,
            true,
        );
        let default = rate(
            CoalescingStrategy::Timeout { delay_us: 75 },
            IrqRouting::RoundRobin,
            true,
        );
        assert!(openmx.msgs_per_sec >= disabled.msgs_per_sec * 0.98);
        assert!(default.msgs_per_sec > openmx.msgs_per_sec);
        assert!(default.msgs_per_sec > disabled.msgs_per_sec * 1.5);
    }
}
