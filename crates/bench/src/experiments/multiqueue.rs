//! Multiqueue interrupt steering — the paper's §VI future-work idea.
//!
//! "We are thus looking at adding Open-MX-aware Multiqueue support to solve
//! this issue by attaching each communication channel processing to a
//! single core." We approximate it with flow-hashed IRQ steering
//! ([`omx_host::IrqRouting::Multiqueue`]) and measure the cache-line-bounce
//! reduction against the round-robin default on a multi-flow small-message
//! workload.

use super::parallel_map;
use crate::report::Table;
use omx_core::prelude::*;
use omx_core::system::{Actor, ActorCtx, RecvCompletion};
use omx_core::wire::EndpointAddr;
use omx_host::IrqRouting;
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// One routing policy's measurement.
#[derive(Debug, Clone)]
pub struct MultiqueueRow {
    /// Routing label.
    pub routing: String,
    /// Wall time to drain all flows, nanoseconds.
    pub elapsed_ns: u64,
    /// Cache-line bounces on the receiving node.
    pub rx_cache_bounces: u64,
    /// Receiver interrupts.
    pub rx_interrupts: u64,
}

/// Full comparison.
#[derive(Debug, Clone)]
pub struct MultiqueueResult {
    /// One row per routing policy.
    pub rows: Vec<MultiqueueRow>,
}

struct FlowSender {
    dst: EndpointAddr,
    remaining: u32,
    inflight_cap: u32,
    completed: u32,
    posted: u32,
}

impl Actor for FlowSender {
    fn on_start(&mut self, ctx: &mut ActorCtx) {
        while self.posted < self.remaining.min(self.inflight_cap) {
            ctx.post_send(self.dst, 128, u64::from(self.posted), 0);
            self.posted += 1;
        }
    }
    fn on_send_complete(&mut self, ctx: &mut ActorCtx, _h: u64) {
        self.completed += 1;
        if self.posted < self.remaining {
            ctx.post_send(self.dst, 128, u64::from(self.posted), 0);
            self.posted += 1;
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct FlowReceiver {
    expect: u32,
    got: u32,
    done: Arc<AtomicUsize>,
    flows: usize,
}

impl Actor for FlowReceiver {
    fn on_start(&mut self, ctx: &mut ActorCtx) {
        for i in 0..8u64 {
            ctx.post_recv(0, 0, i);
        }
    }
    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, _c: RecvCompletion) {
        self.got += 1;
        if self.got == self.expect {
            if self.done.fetch_add(1, Ordering::Relaxed) + 1 == self.flows {
                ctx.stop();
            }
        } else {
            ctx.post_recv(0, 0, 99);
        }
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Run `flows` parallel 128 B streams under each routing policy.
pub fn run(flows: usize, msgs_per_flow: u32) -> MultiqueueResult {
    let policies = vec![
        ("round-robin (default)", IrqRouting::RoundRobin),
        ("multiqueue (flow-hashed)", IrqRouting::Multiqueue),
        ("single core", IrqRouting::Fixed(0)),
    ];
    let rows = parallel_map(policies, |(label, routing)| {
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .endpoints_per_node(flows)
            .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
            .routing(routing)
            .build();
        let done = Arc::new(AtomicUsize::new(0));
        for ep in 0..flows as u8 {
            cluster.add_actor(
                0,
                ep,
                Box::new(FlowSender {
                    dst: EndpointAddr::new(1, ep),
                    remaining: msgs_per_flow,
                    inflight_cap: 16,
                    completed: 0,
                    posted: 0,
                }),
            );
            cluster.add_actor(
                1,
                ep,
                Box::new(FlowReceiver {
                    expect: msgs_per_flow,
                    got: 0,
                    done: Arc::clone(&done),
                    flows,
                }),
            );
        }
        cluster.run(Time::from_secs(60));
        let m = cluster.metrics();
        MultiqueueRow {
            routing: label.to_string(),
            elapsed_ns: cluster.now().as_nanos(),
            rx_cache_bounces: m.nodes[1].host.cache_bounces.get(),
            rx_interrupts: m.nodes[1].nic.interrupts.get(),
        }
    });
    MultiqueueResult { rows }
}

/// Format as a table.
pub fn table(r: &MultiqueueResult) -> Table {
    let mut t = Table::new(vec!["routing", "elapsed (ms)", "rx bounces", "rx irqs"]);
    for row in &r.rows {
        t.row(vec![
            row.routing.clone(),
            format!("{:.2}", row.elapsed_ns as f64 / 1e6),
            row.rx_cache_bounces.to_string(),
            row.rx_interrupts.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiqueue_cuts_channel_bounces() {
        let r = run(4, 400);
        let row = |label: &str| {
            r.rows
                .iter()
                .find(|x| x.routing.starts_with(label))
                .unwrap()
        };
        let rr = row("round-robin");
        let mq = row("multiqueue");
        // Flow-hashed steering keeps each channel's descriptors on one core:
        // far fewer bounces than round-robin scattering.
        assert!(
            mq.rx_cache_bounces * 4 < rr.rx_cache_bounces,
            "multiqueue {} vs round-robin {} bounces",
            mq.rx_cache_bounces,
            rr.rx_cache_bounces
        );
        // Steering every channel to its consumer's core trades cache
        // locality for handler-preemption of that consumer; it must stay in
        // the same performance class as the default.
        assert!(mq.elapsed_ns <= rr.elapsed_ns * 5 / 4);
    }
}

omx_sim::impl_to_json!(MultiqueueRow {
    routing,
    elapsed_ns,
    rx_cache_bounces,
    rx_interrupts,
});
omx_sim::impl_to_json!(MultiqueueResult { rows });
