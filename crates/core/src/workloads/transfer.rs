//! Repeated single-message transfer benchmark (Tables II and III).
//!
//! One message of `msg_len` bytes travels node 0 → node 1 on an otherwise
//! idle cluster; the receiver echoes a zero-byte token so the sender starts
//! the next repetition only after full delivery, with an idle gap in
//! between (each transfer sees a quiet NIC, like the paper's
//! micro-measurements). Reported: mean transfer time (send post → receive
//! completion) and interrupts per transfer counted on both sides.

use crate::system::{Actor, ActorCtx, Cluster, RecvCompletion};
use crate::wire::EndpointAddr;
use omx_sim::{StopCondition, Time, TimeDelta};
use std::any::Any;

/// Transfer-benchmark parameters.
#[derive(Debug, Clone, Copy)]
pub struct TransferSpec {
    /// Message size in bytes.
    pub msg_len: u32,
    /// Measured repetitions.
    pub repeats: u32,
    /// Idle gap between repetitions (lets cores sleep and timers drain).
    pub gap_ns: u64,
}

impl Default for TransferSpec {
    fn default() -> Self {
        TransferSpec {
            msg_len: 234 * 1024,
            repeats: 30,
            gap_ns: 400_000,
        }
    }
}

/// Transfer-benchmark results.
#[derive(Debug, Clone)]
pub struct TransferReport {
    /// Mean transfer time (send post → receive completion), nanoseconds.
    pub transfer_ns: f64,
    /// Minimum observed transfer time.
    pub min_transfer_ns: u64,
    /// Interrupts per transfer, both nodes (the paper's Table II metric).
    pub interrupts_per_transfer: f64,
    /// Repetitions measured.
    pub repeats: u32,
}

const ECHO_MATCH: u64 = 1 << 62;

/// Sending side.
pub struct TransferSender {
    peer: EndpointAddr,
    spec: TransferSpec,
    iter: u32,
    post_times: Vec<Time>,
}

impl TransferSender {
    /// Create the sender.
    pub fn new(peer: EndpointAddr, spec: TransferSpec) -> Self {
        TransferSender {
            peer,
            spec,
            iter: 0,
            post_times: Vec::with_capacity(spec.repeats as usize),
        }
    }

    fn kick(&mut self, ctx: &mut ActorCtx) {
        ctx.post_recv(ECHO_MATCH | u64::from(self.iter), !0, 1);
        self.post_times.push(ctx.now());
        ctx.post_send(self.peer, self.spec.msg_len, u64::from(self.iter), 2);
    }

    /// Send-post timestamps.
    pub fn post_times(&self) -> &[Time] {
        &self.post_times
    }
}

impl Actor for TransferSender {
    fn blocking_waits(&self) -> bool {
        true // §IV-C3: "no process is actually using any single core"
    }

    fn on_start(&mut self, ctx: &mut ActorCtx) {
        self.kick(ctx);
    }

    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, _c: RecvCompletion) {
        // Echo received: transfer fully delivered.
        self.iter += 1;
        if self.iter >= self.spec.repeats {
            ctx.stop();
        } else {
            ctx.set_timer(
                ctx.now() + TimeDelta::from_nanos(self.spec.gap_ns as i64),
                0,
            );
        }
    }

    fn on_timer(&mut self, ctx: &mut ActorCtx, _token: u64) {
        self.kick(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Receiving side.
pub struct TransferReceiver {
    peer: EndpointAddr,
    iter: u32,
    completion_times: Vec<Time>,
}

impl TransferReceiver {
    /// Create the receiver.
    pub fn new(peer: EndpointAddr) -> Self {
        TransferReceiver {
            peer,
            iter: 0,
            completion_times: Vec::new(),
        }
    }

    /// Receive-completion timestamps.
    pub fn completion_times(&self) -> &[Time] {
        &self.completion_times
    }
}

impl Actor for TransferReceiver {
    fn blocking_waits(&self) -> bool {
        true
    }

    fn on_start(&mut self, ctx: &mut ActorCtx) {
        ctx.post_recv(u64::from(self.iter), !0, 1);
    }

    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, _c: RecvCompletion) {
        self.completion_times.push(ctx.now());
        // Echo back, then pre-post the next receive.
        ctx.post_send(self.peer, 0, ECHO_MATCH | u64::from(self.iter), 3);
        self.iter += 1;
        ctx.post_recv(u64::from(self.iter), !0, 1);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

impl Cluster {
    /// Run the repeated-transfer benchmark (node 0 → node 1).
    pub fn run_transfer(&mut self, spec: TransferSpec) -> TransferReport {
        assert!(self.config().nodes >= 2, "transfer bench needs two nodes");
        self.add_actor(
            0,
            0,
            Box::new(TransferSender::new(EndpointAddr::new(1, 0), spec)),
        );
        self.add_actor(
            1,
            0,
            Box::new(TransferReceiver::new(EndpointAddr::new(0, 0))),
        );
        let stop = self.run(Time::from_secs(3_600));
        assert_eq!(
            stop,
            StopCondition::PredicateSatisfied,
            "transfer bench must complete: {stop:?}"
        );
        let sender = self.actor::<TransferSender>(0, 0).expect("sender");
        let receiver = self.actor::<TransferReceiver>(1, 0).expect("receiver");
        let times: Vec<u64> = sender
            .post_times()
            .iter()
            .zip(receiver.completion_times())
            .map(|(post, done)| (*done - *post).as_nanos().max(0) as u64)
            .collect();
        assert_eq!(times.len(), spec.repeats as usize);
        let mean = times.iter().sum::<u64>() as f64 / times.len() as f64;
        TransferReport {
            transfer_ns: mean,
            min_transfer_ns: times.iter().copied().min().unwrap_or(0),
            interrupts_per_transfer: self.total_interrupts() as f64 / spec.repeats as f64,
            repeats: spec.repeats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::system::ClusterBuilder;
    use omx_nic::CoalescingStrategy;

    fn transfer(len: u32, strategy: CoalescingStrategy) -> TransferReport {
        ClusterBuilder::new()
            .nodes(2)
            .strategy(strategy)
            .build()
            .run_transfer(TransferSpec {
                msg_len: len,
                repeats: 12,
                gap_ns: 400_000,
            })
    }

    #[test]
    fn table2_shape_234kib() {
        // Table II: Disabled 705 us / ~92 irq, Timeout 762 us / ~14 irq,
        // Open-MX 708 us / ~14 irq.
        let disabled = transfer(234 * 1024, CoalescingStrategy::Disabled);
        let timeout = transfer(234 * 1024, CoalescingStrategy::Timeout { delay_us: 75 });
        let openmx = transfer(234 * 1024, CoalescingStrategy::OpenMx { delay_us: 75 });

        // Time ordering: disabled ≈ open-mx < timeout.
        assert!(
            timeout.transfer_ns > disabled.transfer_ns * 1.02,
            "timeout {} vs disabled {}",
            timeout.transfer_ns,
            disabled.transfer_ns
        );
        let ratio = openmx.transfer_ns / disabled.transfer_ns;
        assert!(
            ratio < 1.06,
            "open-mx must track disabled within a few %, got {ratio}"
        );

        // Interrupt ordering: disabled raises several times more than both
        // coalescing strategies; open-mx needs no more than timeout + small
        // margin.
        assert!(
            disabled.interrupts_per_transfer > timeout.interrupts_per_transfer * 4.0,
            "disabled {} vs timeout {}",
            disabled.interrupts_per_transfer,
            timeout.interrupts_per_transfer
        );
        assert!(
            openmx.interrupts_per_transfer < timeout.interrupts_per_transfer * 1.8,
            "open-mx {} vs timeout {}",
            openmx.interrupts_per_transfer,
            timeout.interrupts_per_transfer
        );
        // Magnitudes: transfer time within 2x of the paper's ~705 us.
        assert!(
            (350_000.0..1_400_000.0).contains(&disabled.transfer_ns),
            "{}",
            disabled.transfer_ns
        );
    }

    #[test]
    fn small_transfer_also_works() {
        let r = transfer(64, CoalescingStrategy::OpenMx { delay_us: 75 });
        assert!(r.transfer_ns > 0.0);
        assert_eq!(r.repeats, 12);
    }
}
