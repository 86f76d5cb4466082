//! Per-message latency attribution.
//!
//! The paper's central tension is that interrupt coalescing trades *host
//! load* against *latency*: holding packets on the NIC costs exactly the
//! hold time on the critical path of a ping-pong (§IV-A, the 75 µs plateau
//! of Figure 5). This module makes that attribution mechanical: given a
//! structured trace (see [`crate::trace`]), [`analyze`] reassembles each
//! delivered message's lifecycle and splits its end-to-end latency into
//! named phases that provably sum to the total.
//!
//! The phases, in critical-path order:
//!
//! | phase           | from → to                                          |
//! |-----------------|----------------------------------------------------|
//! | `wire`          | driver TX hand-off → frame at receiving NIC        |
//! | `dma_wait`      | frame arrival → DMA into host memory complete      |
//! | `coalesce_hold` | DMA complete → interrupt raised (the coalescing delay) |
//! | `irq_wake`      | interrupt raised → handler starts (queueing + C1E exit) |
//! | `irq_service`   | handler start → receive batch done                 |
//! | `delivery`      | batch done → application sees the completion       |
//!
//! Multi-packet messages are attributed by their *last* constituent frame
//! before the delivering interrupt — the frame on the critical path.

use crate::trace::{TraceData, TraceEvent, TraceKind};
use omx_sim::json::Json;

/// One delivered message's latency, decomposed into phases.
///
/// Invariant (tested): the six phase durations sum exactly to
/// [`total_ns`](LatencyBreakdown::total_ns). Phase boundaries are clamped
/// to be monotone, so an out-of-order anchor (e.g. an interrupt raised
/// before the matched frame's DMA completed, possible when a *different*
/// packet triggered the interrupt) collapses a phase to zero rather than
/// going negative.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LatencyBreakdown {
    /// Message id.
    pub msg: u64,
    /// Sending node (if the transmit event was in the trace window).
    pub sender: Option<u16>,
    /// Receiving node.
    pub receiver: u16,
    /// First anchor: transmit time (or frame arrival when transmit was
    /// evicted from the trace window).
    pub start_ns: u64,
    /// Application delivery time.
    pub end_ns: u64,
    /// Time on the wire (TX hand-off → frame at the receiving NIC).
    pub wire_ns: u64,
    /// Frame arrival → DMA into host memory complete.
    pub dma_wait_ns: u64,
    /// DMA complete → interrupt raised: the coalescing hold.
    pub coalesce_hold_ns: u64,
    /// Interrupt raised → handler running (per-core queueing, C1E exit).
    pub irq_wake_ns: u64,
    /// Handler running → receive batch finished.
    pub irq_service_ns: u64,
    /// Batch finished → application-visible completion.
    pub delivery_ns: u64,
}

impl LatencyBreakdown {
    /// End-to-end latency, nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// Sum of the six phases — always equals [`total_ns`](Self::total_ns).
    pub fn phase_sum(&self) -> u64 {
        self.wire_ns
            + self.dma_wait_ns
            + self.coalesce_hold_ns
            + self.irq_wake_ns
            + self.irq_service_ns
            + self.delivery_ns
    }

    /// The phases as `(name, duration_ns)` pairs, critical-path order.
    pub fn phases(&self) -> [(&'static str, u64); 6] {
        [
            ("wire", self.wire_ns),
            ("dma_wait", self.dma_wait_ns),
            ("coalesce_hold", self.coalesce_hold_ns),
            ("irq_wake", self.irq_wake_ns),
            ("irq_service", self.irq_service_ns),
            ("delivery", self.delivery_ns),
        ]
    }

    /// JSON object for reports.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("msg", Json::U64(self.msg)),
            (
                "sender",
                match self.sender {
                    Some(n) => Json::U64(u64::from(n)),
                    None => Json::Null,
                },
            ),
            ("receiver", Json::U64(u64::from(self.receiver))),
            ("start_ns", Json::U64(self.start_ns)),
            ("end_ns", Json::U64(self.end_ns)),
            ("total_ns", Json::U64(self.total_ns())),
        ];
        for (name, dur) in self.phases() {
            fields.push((name, Json::U64(dur)));
        }
        Json::obj(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// One-line human summary.
    pub fn render(&self) -> String {
        let mut line = format!("msg {:>4}  total {:>9} ns  =", self.msg, self.total_ns());
        for (name, dur) in self.phases() {
            line.push_str(&format!("  {name} {dur}"));
        }
        line
    }
}

/// Reassemble per-message lifecycles from a trace.
///
/// For every [`TraceKind::AppDelivery`] event, walks backwards through the
/// trace for the chain of anchors that produced it:
///
/// 1. the last [`TraceKind::BatchDone`] on the delivering node at or before
///    the delivery (gives the batch-completion time and the servicing core),
/// 2. the last [`TraceKind::Interrupt`] on that node and core whose handler
///    start is at or before the batch completion (gives raise and start
///    times),
/// 3. the last [`TraceKind::FrameArrival`] on that node carrying the
///    message at or before the handler start (gives arrival time and the
///    RX descriptor),
/// 4. the first [`TraceKind::DmaComplete`] for that descriptor at or after
///    the arrival,
/// 5. the first [`TraceKind::Transmit`] carrying the message (gives the
///    origin time and sender; optional — the trace ring may have evicted
///    it).
///
/// Messages whose chain cannot be assembled (events evicted from the ring,
/// shared-memory deliveries that never touched the NIC) are skipped.
/// Boundaries are clamped to a monotone sequence, so every returned
/// breakdown satisfies `phase_sum() == total_ns()`.
pub fn analyze(events: &[TraceEvent]) -> Vec<LatencyBreakdown> {
    let mut out = Vec::new();
    for (i, delivery) in events.iter().enumerate() {
        if delivery.kind != TraceKind::AppDelivery {
            continue;
        }
        let TraceData::Recv { src, msg, .. } = delivery.data else {
            continue;
        };
        let node = delivery.node;
        let t5 = delivery.at_ns;

        // 1. Batch that handed the completion to the driver.
        let Some(batch) = events[..i]
            .iter()
            .rev()
            .find(|e| e.kind == TraceKind::BatchDone && e.node == node && e.at_ns <= t5)
        else {
            continue;
        };
        let t4 = batch.at_ns;
        let TraceData::Batch { core, .. } = batch.data else {
            continue;
        };

        // 2. Interrupt that started that batch on the same core.
        let Some((raise_ns, start_ns)) = events[..i]
            .iter()
            .rev()
            .filter_map(|e| match e.data {
                TraceData::Irq {
                    core: c, start_ns, ..
                } if e.kind == TraceKind::Interrupt
                    && e.node == node
                    && c == core
                    && start_ns <= t4 =>
                {
                    Some((e.at_ns, start_ns))
                }
                _ => None,
            })
            .next()
        else {
            continue;
        };

        // 3. Last frame of this message to arrive before the handler ran.
        let Some((t1, desc)) = events[..i]
            .iter()
            .rev()
            .filter_map(|e| match e.data {
                TraceData::Packet { pkt, desc }
                    if e.kind == TraceKind::FrameArrival
                        && e.node == node
                        && e.at_ns <= start_ns
                        && pkt.hdr.src.node.0 == src
                        && pkt.msg_id().map(|m| m.0) == Some(msg) =>
                {
                    Some((e.at_ns, desc))
                }
                _ => None,
            })
            .next()
        else {
            continue;
        };

        // 4. That frame's DMA completion.
        let t2 = desc.and_then(|d| {
            events[..i].iter().find_map(|e| match e.data {
                TraceData::Desc { desc }
                    if e.kind == TraceKind::DmaComplete
                        && e.node == node
                        && desc == d
                        && e.at_ns >= t1 =>
                {
                    Some(e.at_ns)
                }
                _ => None,
            })
        });

        // 5. The transmit, if still in the window. Message ids are
        // per-connection, so the anchor must match the direction too.
        // A retransmission emits a second Transmit for the same id, so take
        // the *last* one at or before the matched arrival — that is the
        // copy that was actually delivered; anchoring on the first (lost)
        // copy would book the whole RTO wait as wire time.
        let transmit = events[..i].iter().rev().find(|e| match e.data {
            TraceData::Packet { pkt, .. } => {
                e.kind == TraceKind::Transmit
                    && e.at_ns <= t1
                    && pkt.hdr.src.node.0 == src
                    && pkt.hdr.dst.node.0 == node
                    && pkt.msg_id().map(|m| m.0) == Some(msg)
            }
            _ => false,
        });
        let (t0, sender) = match transmit {
            Some(e) => (e.at_ns, Some(e.node)),
            None => (t1, None),
        };

        // Clamp the boundary sequence to be monotone: each boundary is the
        // running max of the anchors, so phases telescope exactly to the
        // total and never go negative.
        let mut boundary = t0.min(t5);
        let mut next = |anchor: u64| {
            boundary = boundary.max(anchor).min(t5);
            boundary
        };
        let b1 = next(t1); // wire ends
        let b2 = next(t2.unwrap_or(t1)); // dma_wait ends
        let b3 = next(raise_ns); // coalesce_hold ends
        let b4 = next(start_ns); // irq_wake ends
        let b5 = next(t4); // irq_service ends

        out.push(LatencyBreakdown {
            msg,
            sender,
            receiver: node,
            start_ns: t0.min(t5),
            end_ns: t5,
            wire_ns: b1 - t0.min(t5),
            dma_wait_ns: b2 - b1,
            coalesce_hold_ns: b3 - b2,
            irq_wake_ns: b4 - b3,
            irq_service_ns: b5 - b4,
            delivery_ns: t5 - b5,
        });
    }
    out
}

/// Aggregate view over many breakdowns: mean per-phase contribution.
#[derive(Debug, Clone, Default)]
pub struct PhaseSummary {
    /// Breakdowns aggregated.
    pub count: u64,
    /// Sum of end-to-end latencies, ns.
    pub total_ns: u64,
    /// Per-phase sums, ns, in [`LatencyBreakdown::phases`] order.
    pub phase_totals: [u64; 6],
}

impl PhaseSummary {
    /// Fold a set of breakdowns into a summary.
    pub fn of(breakdowns: &[LatencyBreakdown]) -> Self {
        let mut s = PhaseSummary::default();
        for b in breakdowns {
            s.count += 1;
            s.total_ns += b.total_ns();
            for (slot, (_, dur)) in s.phase_totals.iter_mut().zip(b.phases()) {
                *slot += dur;
            }
        }
        s
    }

    /// Phase names matching [`phase_totals`](Self::phase_totals).
    pub const PHASE_NAMES: [&'static str; 6] = [
        "wire",
        "dma_wait",
        "coalesce_hold",
        "irq_wake",
        "irq_service",
        "delivery",
    ];

    /// Mean end-to-end latency, ns (0 when empty).
    pub fn mean_total_ns(&self) -> u64 {
        self.total_ns.checked_div(self.count).unwrap_or(0)
    }

    /// Mean duration of phase `idx`, ns (0 when empty).
    pub fn mean_phase_ns(&self, idx: usize) -> u64 {
        self.phase_totals[idx].checked_div(self.count).unwrap_or(0)
    }

    /// Multi-line human table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "{} message(s), mean end-to-end {} ns\n",
            self.count,
            self.mean_total_ns()
        );
        for (idx, name) in Self::PHASE_NAMES.iter().enumerate() {
            let mean = self.mean_phase_ns(idx);
            let pct = if self.total_ns > 0 {
                100.0 * self.phase_totals[idx] as f64 / self.total_ns as f64
            } else {
                0.0
            };
            out.push_str(&format!("  {name:<14} {mean:>9} ns  ({pct:5.1}%)\n"));
        }
        out
    }

    /// JSON object for reports.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("count".to_string(), Json::U64(self.count)),
            ("mean_total_ns".to_string(), Json::U64(self.mean_total_ns())),
        ];
        for (idx, name) in Self::PHASE_NAMES.iter().enumerate() {
            fields.push((
                format!("mean_{name}_ns"),
                Json::U64(self.mean_phase_ns(idx)),
            ));
        }
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceData, Tracer};
    use crate::wire::{EndpointAddr, MsgId, OmxHeader, Packet, PacketKind};
    use omx_sim::Time;

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    /// The key of the one simulation event every record here comes from, so
    /// records stay in the order they are made.
    const KEY: (Time, u64) = (Time::ZERO, 0);

    fn pkt(msg: u64) -> Packet {
        Packet {
            hdr: OmxHeader {
                src: EndpointAddr::new(0, 0),
                dst: EndpointAddr::new(1, 0),
                latency_sensitive: false,
                seq: 1,
                ack: 0,
            },
            kind: PacketKind::Small {
                msg: MsgId(msg),
                match_info: 0,
                len: 0,
            },
        }
    }

    /// Record one clean lifecycle and check each phase lands where staged.
    #[test]
    fn attributes_each_phase() {
        let mut tr = Tracer::new(64);
        tr.record(
            KEY,
            t(1_000),
            0,
            TraceKind::Transmit,
            TraceData::Packet {
                pkt: pkt(7),
                desc: None,
            },
        );
        tr.record(
            KEY,
            t(6_000),
            1,
            TraceKind::FrameArrival,
            TraceData::Packet {
                pkt: pkt(7),
                desc: Some(3),
            },
        );
        tr.record(
            KEY,
            t(7_000),
            1,
            TraceKind::DmaComplete,
            TraceData::Desc { desc: 3 },
        );
        // Coalescing holds the packet 75 µs after DMA completion.
        tr.record(
            KEY,
            t(82_000),
            1,
            TraceKind::Interrupt,
            TraceData::Irq {
                core: 2,
                start_ns: 84_000,
                woken: true,
            },
        );
        tr.record(
            KEY,
            t(89_000),
            1,
            TraceKind::BatchDone,
            TraceData::Batch {
                core: 2,
                packets: 1,
            },
        );
        tr.record(
            KEY,
            t(90_000),
            1,
            TraceKind::AppDelivery,
            TraceData::Recv {
                ep: 0,
                src: 0,
                msg: 7,
                len: 0,
            },
        );
        let events: Vec<TraceEvent> = tr.events().copied().collect();
        let breakdowns = analyze(&events);
        assert_eq!(breakdowns.len(), 1);
        let b = breakdowns[0];
        assert_eq!(b.msg, 7);
        assert_eq!(b.sender, Some(0));
        assert_eq!(b.receiver, 1);
        assert_eq!(b.wire_ns, 5_000);
        assert_eq!(b.dma_wait_ns, 1_000);
        assert_eq!(b.coalesce_hold_ns, 75_000);
        assert_eq!(b.irq_wake_ns, 2_000);
        assert_eq!(b.irq_service_ns, 5_000);
        assert_eq!(b.delivery_ns, 1_000);
        assert_eq!(b.total_ns(), 89_000);
        assert_eq!(b.phase_sum(), b.total_ns());
    }

    /// A lost first copy retransmitted 49 µs later: attribution must anchor
    /// on the delivered (second) Transmit, not the first — otherwise the
    /// whole RTO wait is booked as wire time.
    #[test]
    fn retransmitted_message_anchors_on_delivered_copy() {
        let mut tr = Tracer::new(64);
        // First copy, lost on the wire.
        tr.record(
            KEY,
            t(1_000),
            0,
            TraceKind::Transmit,
            TraceData::Packet {
                pkt: pkt(7),
                desc: None,
            },
        );
        // Retransmission after the RTO fires.
        tr.record(
            KEY,
            t(50_000),
            0,
            TraceKind::Transmit,
            TraceData::Packet {
                pkt: pkt(7),
                desc: None,
            },
        );
        tr.record(
            KEY,
            t(55_000),
            1,
            TraceKind::FrameArrival,
            TraceData::Packet {
                pkt: pkt(7),
                desc: Some(3),
            },
        );
        tr.record(
            KEY,
            t(56_000),
            1,
            TraceKind::DmaComplete,
            TraceData::Desc { desc: 3 },
        );
        tr.record(
            KEY,
            t(57_000),
            1,
            TraceKind::Interrupt,
            TraceData::Irq {
                core: 0,
                start_ns: 58_000,
                woken: false,
            },
        );
        tr.record(
            KEY,
            t(59_000),
            1,
            TraceKind::BatchDone,
            TraceData::Batch {
                core: 0,
                packets: 1,
            },
        );
        tr.record(
            KEY,
            t(60_000),
            1,
            TraceKind::AppDelivery,
            TraceData::Recv {
                ep: 0,
                src: 0,
                msg: 7,
                len: 0,
            },
        );
        let events: Vec<TraceEvent> = tr.events().copied().collect();
        let breakdowns = analyze(&events);
        assert_eq!(breakdowns.len(), 1);
        let b = breakdowns[0];
        assert_eq!(b.start_ns, 50_000, "anchored on the retransmitted copy");
        assert_eq!(b.wire_ns, 5_000, "wire time is the delivered copy's flight");
        assert_eq!(b.dma_wait_ns, 1_000);
        assert_eq!(b.total_ns(), 10_000);
        assert_eq!(b.phase_sum(), b.total_ns());
    }

    #[test]
    fn missing_transmit_falls_back_to_arrival() {
        let mut tr = Tracer::new(64);
        tr.record(
            KEY,
            t(6_000),
            1,
            TraceKind::FrameArrival,
            TraceData::Packet {
                pkt: pkt(9),
                desc: Some(0),
            },
        );
        tr.record(
            KEY,
            t(6_500),
            1,
            TraceKind::DmaComplete,
            TraceData::Desc { desc: 0 },
        );
        tr.record(
            KEY,
            t(7_000),
            1,
            TraceKind::Interrupt,
            TraceData::Irq {
                core: 0,
                start_ns: 7_000,
                woken: false,
            },
        );
        tr.record(
            KEY,
            t(8_000),
            1,
            TraceKind::BatchDone,
            TraceData::Batch {
                core: 0,
                packets: 1,
            },
        );
        tr.record(
            KEY,
            t(8_200),
            1,
            TraceKind::AppDelivery,
            TraceData::Recv {
                ep: 0,
                src: 0,
                msg: 9,
                len: 0,
            },
        );
        let events: Vec<TraceEvent> = tr.events().copied().collect();
        let b = analyze(&events)[0];
        assert_eq!(b.sender, None);
        assert_eq!(b.start_ns, 6_000);
        assert_eq!(b.wire_ns, 0, "no transmit anchor: wire phase collapses");
        assert_eq!(b.phase_sum(), b.total_ns());
    }

    #[test]
    fn unlinkable_delivery_is_skipped() {
        let mut tr = Tracer::new(8);
        // A delivery with no preceding chain (e.g. ring evicted everything).
        tr.record(
            KEY,
            t(100),
            0,
            TraceKind::AppDelivery,
            TraceData::Recv {
                ep: 0,
                src: 0,
                msg: 1,
                len: 0,
            },
        );
        let events: Vec<TraceEvent> = tr.events().copied().collect();
        assert!(analyze(&events).is_empty());
    }

    #[test]
    fn summary_aggregates_means() {
        let b = LatencyBreakdown {
            msg: 1,
            sender: Some(0),
            receiver: 1,
            start_ns: 0,
            end_ns: 100,
            wire_ns: 10,
            dma_wait_ns: 20,
            coalesce_hold_ns: 30,
            irq_wake_ns: 15,
            irq_service_ns: 20,
            delivery_ns: 5,
        };
        let s = PhaseSummary::of(&[b, b]);
        assert_eq!(s.count, 2);
        assert_eq!(s.mean_total_ns(), 100);
        assert_eq!(s.mean_phase_ns(2), 30);
        assert!(s.render().contains("coalesce_hold"));
        let j = s.to_json().render();
        assert!(j.contains("\"mean_coalesce_hold_ns\":30"));
    }
}
