//! Ping-pong latency benchmark (Figs. 5 & 6 of the paper).
//!
//! Rank 0 sends a message of `msg_len` bytes to rank 1, which bounces a
//! message of the same size back; one iteration is a full round trip. The
//! report carries the mean half round trip over the measured iterations —
//! the paper's "transfer time".

use crate::system::{Actor, ActorCtx, Cluster, RecvCompletion};
use crate::wire::EndpointAddr;
use omx_sim::stats::OnlineStats;
use omx_sim::{StopCondition, Time};
use std::any::Any;

/// Ping-pong parameters.
#[derive(Debug, Clone, Copy)]
pub struct PingPongSpec {
    /// Message length in bytes (both directions).
    pub msg_len: u32,
    /// Measured iterations.
    pub iterations: u32,
    /// Warm-up iterations excluded from the statistics.
    pub warmup: u32,
}

impl Default for PingPongSpec {
    fn default() -> Self {
        PingPongSpec {
            msg_len: 0,
            iterations: 100,
            warmup: 10,
        }
    }
}

/// Ping-pong results.
#[derive(Debug, Clone)]
pub struct PingPongReport {
    /// Mean half round-trip time in nanoseconds (the paper's transfer time).
    pub half_rtt_ns: u64,
    /// Minimum half round trip observed.
    pub min_half_rtt_ns: u64,
    /// Maximum half round trip observed.
    pub max_half_rtt_ns: u64,
    /// Total interrupts raised during the measured+warmup phase, both nodes.
    pub interrupts: u64,
    /// Interrupts per iteration (both sides), measured across the whole run.
    pub interrupts_per_iter: f64,
}

/// The initiating side: sends the ping, waits for the pong.
pub struct PingActor {
    peer: EndpointAddr,
    spec: PingPongSpec,
    iter: u32,
    iter_start: Time,
    stats: OnlineStats,
}

impl PingActor {
    /// Create the initiator aimed at `peer`.
    pub fn new(peer: EndpointAddr, spec: PingPongSpec) -> Self {
        PingActor {
            peer,
            spec,
            iter: 0,
            iter_start: Time::ZERO,
            stats: OnlineStats::new(),
        }
    }

    fn kick(&mut self, ctx: &mut ActorCtx) {
        self.iter_start = ctx.now();
        // Pre-post the pong receive, then send the ping (real benchmarks do
        // exactly this to avoid unexpected-queue traffic).
        ctx.post_recv(u64::from(self.iter) | PONG_BIT, !0, u64::from(self.iter));
        ctx.post_send(self.peer, self.spec.msg_len, u64::from(self.iter), 0);
    }

    /// Statistics of the measured iterations (half round trips, ns).
    pub fn stats(&self) -> &OnlineStats {
        &self.stats
    }
}

const PONG_BIT: u64 = 1 << 63;

impl Actor for PingActor {
    fn on_start(&mut self, ctx: &mut ActorCtx) {
        self.kick(ctx);
    }

    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, _c: RecvCompletion) {
        let rtt = ctx.now() - self.iter_start;
        if self.iter >= self.spec.warmup {
            self.stats.record(rtt.as_nanos() as f64 / 2.0);
        }
        self.iter += 1;
        if self.iter >= self.spec.warmup + self.spec.iterations {
            ctx.stop();
        } else {
            self.kick(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// The echo side: receives a ping, sends the pong back.
pub struct PongActor {
    peer: EndpointAddr,
    msg_len: u32,
    iter: u32,
}

impl PongActor {
    /// Create the echo side facing `peer`.
    pub fn new(peer: EndpointAddr, msg_len: u32) -> Self {
        PongActor {
            peer,
            msg_len,
            iter: 0,
        }
    }
}

impl Actor for PongActor {
    fn on_start(&mut self, ctx: &mut ActorCtx) {
        ctx.post_recv(0, PONG_BIT, 0); // match any ping (bit 63 clear)
    }

    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, c: RecvCompletion) {
        // Echo with the pong bit set, then pre-post the next ping receive.
        ctx.post_recv(0, PONG_BIT, 0);
        ctx.post_send(self.peer, self.msg_len, c.match_info | PONG_BIT, 0);
        self.iter += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Cluster {
    /// Run a two-node ping-pong and report transfer times.
    ///
    /// # Panics
    /// Panics if the cluster does not have at least two nodes, or if
    /// endpoint 0 of nodes 0/1 already has an actor.
    pub fn run_pingpong(&mut self, spec: PingPongSpec) -> PingPongReport {
        assert!(self.config().nodes >= 2, "ping-pong needs two nodes");
        self.add_actor(
            0,
            0,
            Box::new(PingActor::new(EndpointAddr::new(1, 0), spec)),
        );
        self.add_actor(
            1,
            0,
            Box::new(PongActor::new(EndpointAddr::new(0, 0), spec.msg_len)),
        );
        let stop = self.run(Time::from_secs(3_600));
        assert_eq!(
            stop,
            StopCondition::PredicateSatisfied,
            "ping-pong must complete (stopped: {stop:?})"
        );
        let ping = self.actor::<PingActor>(0, 0).expect("ping actor present");
        let stats = ping.stats().clone();
        let interrupts = self.total_interrupts();
        let iters = (spec.iterations + spec.warmup) as f64;
        PingPongReport {
            half_rtt_ns: stats.mean() as u64,
            min_half_rtt_ns: stats.min().unwrap_or(0.0) as u64,
            max_half_rtt_ns: stats.max().unwrap_or(0.0) as u64,
            interrupts,
            interrupts_per_iter: interrupts as f64 / iters,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ClusterBuilder;
    use omx_nic::CoalescingStrategy;

    fn pingpong(len: u32, strategy: CoalescingStrategy) -> PingPongReport {
        ClusterBuilder::new()
            .nodes(2)
            .strategy(strategy)
            .build()
            .run_pingpong(PingPongSpec {
                msg_len: len,
                iterations: 30,
                warmup: 5,
            })
    }

    #[test]
    fn small_latency_hierarchy_matches_paper() {
        // §IV-B3 + §IV-C1: disabled ≈ open-mx « timeout for small messages.
        let disabled = pingpong(8, CoalescingStrategy::Disabled);
        let timeout = pingpong(8, CoalescingStrategy::Timeout { delay_us: 75 });
        let openmx = pingpong(8, CoalescingStrategy::OpenMx { delay_us: 75 });
        assert!(
            timeout.half_rtt_ns > disabled.half_rtt_ns * 3,
            "timeout {} vs disabled {}",
            timeout.half_rtt_ns,
            disabled.half_rtt_ns
        );
        let ratio = openmx.half_rtt_ns as f64 / disabled.half_rtt_ns as f64;
        assert!(
            (0.8..1.2).contains(&ratio),
            "open-mx should track disabled: ratio {ratio}"
        );
    }

    #[test]
    fn small_latency_is_around_ten_microseconds() {
        // §IV-B3: "about 10 µs" with coalescing disabled.
        let report = pingpong(8, CoalescingStrategy::Disabled);
        let us = report.half_rtt_ns as f64 / 1_000.0;
        assert!(
            (5.0..20.0).contains(&us),
            "half RTT {us}us outside the calibration window"
        );
    }

    #[test]
    fn large_throughput_hierarchy_matches_paper() {
        // Fig. 5/6 at 1 MiB: disabled is slower than timeout; open-mx
        // matches timeout.
        let disabled = pingpong(1 << 20, CoalescingStrategy::Disabled);
        let timeout = pingpong(1 << 20, CoalescingStrategy::Timeout { delay_us: 75 });
        let openmx = pingpong(1 << 20, CoalescingStrategy::OpenMx { delay_us: 75 });
        assert!(
            disabled.half_rtt_ns > timeout.half_rtt_ns,
            "disabled {} should be slower than timeout {}",
            disabled.half_rtt_ns,
            timeout.half_rtt_ns
        );
        let ratio = openmx.half_rtt_ns as f64 / timeout.half_rtt_ns as f64;
        assert!(
            ratio < 1.1,
            "open-mx should at least match timeout at 1 MiB, ratio {ratio}"
        );
    }

    #[test]
    fn pong_actor_echoes_every_ping() {
        let mut cluster = ClusterBuilder::new().nodes(2).build();
        let report = cluster.run_pingpong(PingPongSpec {
            msg_len: 128,
            iterations: 10,
            warmup: 2,
        });
        assert!(report.half_rtt_ns > 0);
        assert!(report.min_half_rtt_ns <= report.half_rtt_ns);
        assert!(report.max_half_rtt_ns >= report.half_rtt_ns);
        let pong = cluster.actor::<PongActor>(1, 0).unwrap();
        assert_eq!(pong.iter, 12);
    }
}
