//! Structured packet-level event tracing.
//!
//! When enabled on a [`crate::Cluster`], the orchestrator records one
//! [`TraceEvent`] per interesting simulation step into a bounded ring
//! buffer. Traces turn "why did this transfer take 20 ms?" from archaeology
//! into reading: the exact interleaving of transmissions, arrivals, DMA
//! completions, timer firings, interrupt deliveries and driver hand-offs is
//! visible, with typed payloads attached.
//!
//! Events carry [`TraceData`] — a `Copy` payload of packet/descriptor/core
//! identifiers, not a pre-formatted string — so recording never allocates
//! and the events stay machine-readable. The identifiers are enough to link
//! events causally into per-message lifecycle spans (transmit → frame
//! arrival → DMA complete → coalesce hold → interrupt → driver batch → app
//! delivery); [`crate::latency`] builds those spans and decomposes
//! end-to-end latency into phases.
//!
//! Three exporters read the buffer:
//!
//! * [`Tracer::render`] — a human-readable timeline,
//! * [`Tracer::to_jsonl`] — one JSON object per event, for ad-hoc scripting,
//! * [`Tracer::to_chrome_json`] — the Chrome trace-event format, loadable in
//!   Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`; nodes map
//!   to processes, cores to threads, and per-message latency phases to
//!   duration slices.
//!
//! Tracing is off by default and costs nothing when disabled: the
//! orchestrator's trace hook takes the payload as a closure and never calls
//! it unless a tracer is installed (a branch on an `Option`).

use crate::latency;
use crate::wire::{Packet, PacketKind};
use omx_sim::json::{Json, ToJson};
use omx_sim::Time;
use std::collections::VecDeque;

/// What happened.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceKind {
    /// The driver handed a frame to the NIC TX path.
    Transmit,
    /// A frame arrived at a node's NIC from the wire.
    FrameArrival,
    /// A frame's DMA into host memory completed.
    DmaComplete,
    /// The NIC coalescing timer fired.
    CoalesceTimer,
    /// An interrupt was delivered to a core.
    Interrupt,
    /// The receive handler finished a batch of this many packets.
    BatchDone,
    /// The driver handed a completion to an application endpoint.
    AppDelivery,
    /// A frame was dropped: RX-ring overflow, injected wire loss or a full
    /// switch egress buffer.
    Drop,
    /// The NIC offload engine put a collective frame on the wire.
    OffloadFrame,
    /// A NIC-resident collective completed on a node (exactly one per
    /// operation per rank; the completion IRQ is traced as `Interrupt`).
    OffloadComplete,
}

impl TraceKind {
    /// Stable lowercase name used by the JSON exporters.
    pub fn name(&self) -> &'static str {
        match self {
            TraceKind::Transmit => "transmit",
            TraceKind::FrameArrival => "frame_arrival",
            TraceKind::DmaComplete => "dma_complete",
            TraceKind::CoalesceTimer => "coalesce_timer",
            TraceKind::Interrupt => "interrupt",
            TraceKind::BatchDone => "batch_done",
            TraceKind::AppDelivery => "app_delivery",
            TraceKind::Drop => "drop",
            TraceKind::OffloadFrame => "offload_frame",
            TraceKind::OffloadComplete => "offload_complete",
        }
    }
}

/// Typed event payload. Everything is `Copy`: recording a trace event never
/// allocates, so tracing stays cheap enough to leave on for full runs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceData {
    /// Static label (e.g. a drop reason).
    Text(&'static str),
    /// An Open-MX packet; `desc` is the RX DMA descriptor once allocated.
    Packet {
        /// The packet itself (headers only — payloads are synthetic).
        pkt: Packet,
        /// RX descriptor the NIC assigned, if any.
        desc: Option<u64>,
    },
    /// A raw (IP) frame of this wire length.
    RawFrame {
        /// Frame length on the wire, bytes.
        len: u32,
    },
    /// DMA completion for a descriptor.
    Desc {
        /// The completed descriptor.
        desc: u64,
    },
    /// Coalescing-timer epoch.
    Epoch {
        /// Timer epoch that fired.
        epoch: u64,
    },
    /// Interrupt raise: target core, handler start time, sleep state.
    Irq {
        /// Core the interrupt was routed to.
        core: usize,
        /// When the handler actually starts (queued behind earlier work).
        start_ns: u64,
        /// Whether the core had to exit C1E sleep.
        woken: bool,
    },
    /// Receive-handler batch completion on a core.
    Batch {
        /// Core that ran the handler.
        core: usize,
        /// Packets the batch claimed.
        packets: u32,
    },
    /// Application-visible receive completion.
    Recv {
        /// Local endpoint delivered to.
        ep: u8,
        /// Sending node (message ids are per-connection, so the sender is
        /// needed to identify the message globally).
        src: u16,
        /// Message id.
        msg: u64,
        /// Message length, bytes.
        len: u32,
    },
    /// NIC-offloaded collective frame (data hop or NIC-to-NIC ack).
    Coll {
        /// Sending rank (for acks: the rank sending the ack).
        src_rank: u32,
        /// Receiving rank (for acks: the data frame's original sender).
        dst_rank: u32,
        /// Operation sequence number.
        seq: u32,
        /// Schedule round.
        round: u16,
        /// Payload bytes (0 for tokens and acks).
        len: u32,
        /// True for NIC-to-NIC acknowledgments.
        ack: bool,
    },
    /// NIC-offloaded collective completion on a rank.
    CollDone {
        /// Endpoint notified.
        ep: u8,
        /// Operation sequence number.
        seq: u32,
        /// Global rank the operation completed for.
        rank: u32,
    },
}

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Simulated time.
    pub at_ns: u64,
    /// Node the event happened on.
    pub node: u16,
    /// Event class.
    pub kind: TraceKind,
    /// Typed payload.
    pub data: TraceData,
}

impl TraceEvent {
    /// Message id this event is about, when derivable from the payload.
    pub fn msg_id(&self) -> Option<u64> {
        match self.data {
            TraceData::Packet { pkt, .. } => pkt.msg_id().map(|m| m.0),
            TraceData::Recv { msg, .. } => Some(msg),
            _ => None,
        }
    }

    /// Core the event is bound to, when the payload names one. Used as the
    /// Chrome trace `tid` so per-core interrupt activity lines up.
    pub fn core(&self) -> Option<usize> {
        match self.data {
            TraceData::Irq { core, .. } | TraceData::Batch { core, .. } => Some(core),
            _ => None,
        }
    }

    /// Human-readable payload description (allocates; only for rendering).
    pub fn detail(&self) -> String {
        match self.data {
            TraceData::Text(s) => s.to_string(),
            TraceData::Packet { pkt, desc } => match desc {
                Some(d) => format!("{} desc={d}", packet_label(&pkt)),
                None => packet_label(&pkt),
            },
            TraceData::RawFrame { len } => format!("raw len={len}"),
            TraceData::Desc { desc } => format!("desc={desc}"),
            TraceData::Epoch { epoch } => format!("epoch {epoch}"),
            TraceData::Irq {
                core,
                start_ns,
                woken,
            } => format!(
                "core {core} start={start_ns}{}",
                if woken { " (woken)" } else { "" }
            ),
            TraceData::Batch { core, packets } => format!("core {core}, {packets} packets"),
            TraceData::Recv { ep, src, msg, len } => {
                format!("ep {ep} src={src} msg={msg} len={len}")
            }
            TraceData::Coll {
                src_rank,
                dst_rank,
                seq,
                round,
                len,
                ack,
            } => format!(
                "coll{} seq={seq} round={round} {src_rank}->{dst_rank} len={len}",
                if ack { " ack" } else { "" }
            ),
            TraceData::CollDone { ep, seq, rank } => {
                format!("rank {rank} ep {ep} seq={seq}")
            }
        }
    }

    fn args(&self) -> Vec<(String, Json)> {
        let mut args = Vec::new();
        let mut put = |k: &str, v: Json| args.push((k.to_string(), v));
        match self.data {
            TraceData::Text(s) => put("label", Json::Str(s.to_string())),
            TraceData::Packet { pkt, desc } => {
                put("packet", Json::Str(packet_label(&pkt)));
                if let Some(m) = pkt.msg_id() {
                    put("msg", Json::U64(m.0));
                }
                put("len", Json::U64(u64::from(pkt.payload_len())));
                put("marked", Json::Bool(pkt.hdr.latency_sensitive));
                if let Some(d) = desc {
                    put("desc", Json::U64(d));
                }
            }
            TraceData::RawFrame { len } => {
                put("packet", Json::Str("raw".to_string()));
                put("len", Json::U64(u64::from(len)));
            }
            TraceData::Desc { desc } => put("desc", Json::U64(desc)),
            TraceData::Epoch { epoch } => put("epoch", Json::U64(epoch)),
            TraceData::Irq {
                core,
                start_ns,
                woken,
            } => {
                put("core", Json::U64(core as u64));
                put("start_ns", Json::U64(start_ns));
                put("woken", Json::Bool(woken));
            }
            TraceData::Batch { core, packets } => {
                put("core", Json::U64(core as u64));
                put("packets", Json::U64(u64::from(packets)));
            }
            TraceData::Recv { ep, src, msg, len } => {
                put("ep", Json::U64(u64::from(ep)));
                put("src", Json::U64(u64::from(src)));
                put("msg", Json::U64(msg));
                put("len", Json::U64(u64::from(len)));
            }
            TraceData::Coll {
                src_rank,
                dst_rank,
                seq,
                round,
                len,
                ack,
            } => {
                put("src_rank", Json::U64(u64::from(src_rank)));
                put("dst_rank", Json::U64(u64::from(dst_rank)));
                put("seq", Json::U64(u64::from(seq)));
                put("round", Json::U64(u64::from(round)));
                put("len", Json::U64(u64::from(len)));
                put("ack", Json::Bool(ack));
            }
            TraceData::CollDone { ep, seq, rank } => {
                put("ep", Json::U64(u64::from(ep)));
                put("seq", Json::U64(u64::from(seq)));
                put("rank", Json::U64(u64::from(rank)));
            }
        }
        args
    }
}

impl ToJson for TraceEvent {
    fn to_json(&self) -> Json {
        let mut fields = vec![
            ("at_ns".to_string(), Json::U64(self.at_ns)),
            ("node".to_string(), Json::U64(u64::from(self.node))),
            ("kind".to_string(), Json::Str(self.kind.name().to_string())),
        ];
        fields.extend(self.args());
        Json::Obj(fields)
    }
}

/// Bounded trace buffer. Each record keeps the `(time, seq)` key of the
/// simulation event that emitted it, and records are held in key order:
/// the order a run dispatches its events in.
#[derive(Debug)]
pub struct Tracer {
    events: VecDeque<((Time, u64), TraceEvent)>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// New tracer keeping at most `capacity` events, evicting the oldest
    /// key first. The requested capacity is honored exactly (minimum 1).
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Tracer {
            events: VecDeque::with_capacity(capacity),
            capacity,
            dropped: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Record one event at `at`, emitted by the simulation event at `key`.
    /// A record arriving late — a DMA completion settled by a later event —
    /// goes behind every record of a later key; records of one key keep
    /// their arrival order. A full buffer evicts the oldest key, which is
    /// the new record itself when it is older than all it holds.
    pub fn record(
        &mut self,
        key: (Time, u64),
        at: Time,
        node: u16,
        kind: TraceKind,
        data: TraceData,
    ) {
        // Late records land near the newest: scan back from there.
        let mut pos = self.events.len();
        while pos > 0 && self.events[pos - 1].0 > key {
            pos -= 1;
        }
        if self.events.len() == self.capacity {
            self.dropped += 1;
            if pos == 0 {
                return;
            }
            self.events.pop_front();
            pos -= 1;
        }
        let event = TraceEvent {
            at_ns: at.as_nanos(),
            node,
            kind,
            data,
        };
        self.events.insert(pos, (key, event));
    }

    /// The key of every recorded event, in record order (tests only).
    #[cfg(test)]
    pub(crate) fn keys(&self) -> impl Iterator<Item = (Time, u64)> + '_ {
        self.events.iter().map(|&(key, _)| key)
    }

    /// The recorded events, oldest key first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.events.iter().map(|(_, e)| e)
    }

    /// Number of recorded events currently held.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Events evicted because the buffer was full.
    pub fn evicted(&self) -> u64 {
        self.dropped
    }

    /// Render a human-readable timeline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&format!(
                "{:>12} ns  node {}  {:<13} {}\n",
                e.at_ns,
                e.node,
                format!("{:?}", e.kind),
                e.detail()
            ));
        }
        if self.dropped > 0 {
            out.push_str(&format!("... ({} earlier events evicted)\n", self.dropped));
        }
        out
    }

    /// Export as JSON Lines: one object per event, oldest first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in self.events() {
            out.push_str(&e.to_json().render());
            out.push('\n');
        }
        out
    }

    /// Export in the Chrome trace-event format (Perfetto,
    /// `chrome://tracing`).
    ///
    /// Every trace event becomes an instant event (`ph: "i"`) with
    /// `pid` = node and `tid` = core (0 when the event is not core-bound).
    /// On top of the instants, every message lifecycle the
    /// [`crate::latency`] analyzer can assemble is emitted as a stack of
    /// duration slices (`ph: "X"`): one enclosing `msg <id>` slice plus one
    /// slice per latency phase, on the receiving node under
    /// `tid` = `1000 + msg`. Timestamps are microseconds (the format's
    /// unit), kept fractional so nanosecond resolution survives.
    pub fn to_chrome_json(&self) -> Json {
        let us = |ns: u64| Json::F64(ns as f64 / 1000.0);
        let mut trace_events = Vec::new();
        for e in self.events() {
            let mut ev = vec![
                ("name".to_string(), Json::Str(e.kind.name().to_string())),
                ("ph".to_string(), Json::Str("i".to_string())),
                ("ts".to_string(), us(e.at_ns)),
                ("pid".to_string(), Json::U64(u64::from(e.node))),
                ("tid".to_string(), Json::U64(e.core().unwrap_or(0) as u64)),
                ("s".to_string(), Json::Str("t".to_string())),
            ];
            ev.push(("args".to_string(), Json::Obj(e.args())));
            trace_events.push(Json::Obj(ev));
        }
        let events: Vec<TraceEvent> = self.events().copied().collect();
        for b in latency::analyze(&events) {
            // Thread lane for the message on the receiver process.
            let tid = 1000 + b.msg;
            let span = |name: &str, start: u64, dur: u64| {
                Json::obj(vec![
                    ("name", Json::Str(name.to_string())),
                    ("ph", Json::Str("X".to_string())),
                    ("ts", us(start)),
                    ("dur", Json::F64(dur as f64 / 1000.0)),
                    ("pid", Json::U64(u64::from(b.receiver))),
                    ("tid", Json::U64(tid)),
                    ("args", Json::obj(vec![("msg", Json::U64(b.msg))])),
                ])
            };
            trace_events.push(span(&format!("msg {}", b.msg), b.start_ns, b.total_ns()));
            let mut cursor = b.start_ns;
            for (name, dur) in b.phases() {
                if dur > 0 {
                    trace_events.push(span(name, cursor, dur));
                }
                cursor += dur;
            }
        }
        chrome_envelope(trace_events)
    }
}

/// Wrap pre-built trace events in the Chrome trace-event envelope shared
/// by every Perfetto export in this crate.
pub fn chrome_envelope(trace_events: Vec<Json>) -> Json {
    Json::obj(vec![
        ("traceEvents", Json::Arr(trace_events)),
        ("displayTimeUnit", Json::Str("ns".to_string())),
    ])
}

/// Compact label for a packet in trace details.
pub fn packet_label(pkt: &Packet) -> String {
    let mark = if pkt.hdr.latency_sensitive { "*" } else { "" };
    match pkt.kind {
        PacketKind::Small { msg, len, .. } => format!("small{mark} msg={} len={len}", msg.0),
        PacketKind::MediumFrag {
            msg,
            frag,
            frag_count,
            ..
        } => format!("medium{mark} msg={} frag={frag}/{frag_count}", msg.0),
        PacketKind::Rendezvous { msg, total_len, .. } => {
            format!("rendezvous{mark} msg={} len={total_len}", msg.0)
        }
        PacketKind::PullRequest { msg, block, .. } => {
            format!("pull-req{mark} msg={} block={block}", msg.0)
        }
        PacketKind::PullReply {
            msg,
            block,
            frame,
            last_of_block,
            ..
        } => format!(
            "pull-reply{mark} msg={} block={block} frame={frame}{}",
            msg.0,
            if last_of_block { " (last)" } else { "" }
        ),
        PacketKind::Notify { msg } => format!("notify{mark} msg={}", msg.0),
        PacketKind::Ack { cumulative_seq } => format!("ack seq={cumulative_seq}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{EndpointAddr, MsgId, OmxHeader};

    fn t(ns: u64) -> Time {
        Time::from_nanos(ns)
    }

    /// The key of the one simulation event every record here comes from, so
    /// records stay in the order they are made.
    const KEY: (Time, u64) = (Time::ZERO, 0);

    fn small_pkt(msg: u64, marked: bool) -> Packet {
        Packet {
            hdr: OmxHeader {
                src: EndpointAddr::new(0, 0),
                dst: EndpointAddr::new(1, 0),
                latency_sensitive: marked,
                seq: 0,
                ack: 0,
            },
            kind: PacketKind::Small {
                msg: MsgId(msg),
                match_info: 0,
                len: 64,
            },
        }
    }

    #[test]
    fn records_and_renders_in_order() {
        let mut tr = Tracer::new(16);
        tr.record(
            KEY,
            t(10),
            0,
            TraceKind::FrameArrival,
            TraceData::Packet {
                pkt: small_pkt(1, false),
                desc: Some(0),
            },
        );
        tr.record(
            KEY,
            t(20),
            1,
            TraceKind::Interrupt,
            TraceData::Irq {
                core: 0,
                start_ns: 20,
                woken: false,
            },
        );
        assert_eq!(tr.len(), 2);
        let rendered = tr.render();
        assert!(rendered.contains("FrameArrival"));
        assert!(rendered.contains("Interrupt"));
        assert!(rendered.find("FrameArrival") < rendered.find("Interrupt"));
    }

    /// Late records land in key order behind newer keys; a full ring
    /// evicts the oldest key, and a late record older than all it holds
    /// is itself evicted.
    #[test]
    fn late_records_land_in_key_order() {
        // A record at key `(t(at), seq)` is labelled `10 * at + seq`.
        let record = |tr: &mut Tracer, at: u64, seq: u64| {
            let data = TraceData::Desc {
                desc: 10 * at + seq,
            };
            tr.record((t(at), seq), t(at), 0, TraceKind::DmaComplete, data);
        };
        let labels = |tr: &Tracer| -> Vec<u64> {
            tr.events()
                .map(|e| match e.data {
                    TraceData::Desc { desc } => desc,
                    other => panic!("unexpected payload {other:?}"),
                })
                .collect()
        };
        let mut tr = Tracer::new(4);
        record(&mut tr, 1, 1);
        record(&mut tr, 3, 3);
        record(&mut tr, 4, 4);
        record(&mut tr, 2, 2);
        assert_eq!(labels(&tr), [11, 22, 33, 44], "late record in key order");
        // At one instant the sequence number orders the keys.
        record(&mut tr, 3, 2);
        assert_eq!(labels(&tr), [22, 32, 33, 44], "oldest key evicted");
        assert_eq!(tr.evicted(), 1);
        record(&mut tr, 1, 9);
        assert_eq!(labels(&tr), [22, 32, 33, 44], "older than the whole ring");
        assert_eq!(tr.evicted(), 2);
        record(&mut tr, 2, 5);
        assert_eq!(labels(&tr), [25, 32, 33, 44]);
        assert_eq!(tr.evicted(), 3);
        assert!(tr.render().ends_with("... (3 earlier events evicted)\n"));
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let mut tr = Tracer::new(3);
        for i in 0..5 {
            tr.record(
                KEY,
                t(i),
                0,
                TraceKind::DmaComplete,
                TraceData::Desc { desc: i },
            );
        }
        assert_eq!(tr.len(), 3);
        assert_eq!(tr.evicted(), 2);
        let first = tr.events().next().unwrap();
        assert_eq!(first.data, TraceData::Desc { desc: 2 });
        assert!(tr.render().contains("2 earlier events evicted"));
    }

    #[test]
    fn capacity_is_honored_exactly() {
        for cap in [1usize, 5, 4096, 5000] {
            let tr = Tracer::new(cap);
            assert_eq!(tr.capacity(), cap);
            let mut tr = tr;
            for i in 0..(cap as u64 + 10) {
                tr.record(KEY, t(i), 0, TraceKind::Transmit, TraceData::Text("x"));
            }
            assert_eq!(tr.len(), cap, "ring holds exactly the requested capacity");
            assert_eq!(tr.evicted(), 10);
        }
        // Degenerate request still yields a usable tracer.
        assert_eq!(Tracer::new(0).capacity(), 1);
    }

    #[test]
    fn packet_labels_show_marks_and_structure() {
        let hdr = OmxHeader {
            src: EndpointAddr::new(0, 0),
            dst: EndpointAddr::new(1, 0),
            latency_sensitive: true,
            seq: 0,
            ack: 0,
        };
        let p = Packet {
            hdr,
            kind: PacketKind::PullReply {
                msg: MsgId(7),
                block: 2,
                frame: 31,
                frame_len: 1500,
                last_of_block: true,
            },
        };
        let label = packet_label(&p);
        assert!(label.contains("pull-reply*"));
        assert!(label.contains("block=2"));
        assert!(label.contains("(last)"));

        let q = Packet {
            hdr: OmxHeader {
                latency_sensitive: false,
                ..hdr
            },
            kind: PacketKind::Small {
                msg: MsgId(1),
                match_info: 0,
                len: 64,
            },
        };
        assert!(packet_label(&q).starts_with("small msg=1"));
    }

    #[test]
    fn empty_tracer() {
        let tr = Tracer::new(8);
        assert!(tr.is_empty());
        assert_eq!(tr.render(), "");
        assert_eq!(tr.to_jsonl(), "");
    }

    #[test]
    fn jsonl_has_one_parseable_object_per_event() {
        let mut tr = Tracer::new(8);
        tr.record(
            KEY,
            t(5),
            0,
            TraceKind::Transmit,
            TraceData::Packet {
                pkt: small_pkt(3, true),
                desc: None,
            },
        );
        tr.record(KEY, t(9), 1, TraceKind::Drop, TraceData::Text("ring full"));
        let jsonl = tr.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        let first = Json::parse(lines[0]).expect("line parses");
        assert_eq!(first.get("kind").and_then(Json::as_str), Some("transmit"));
        assert_eq!(first.get("msg").and_then(Json::as_u64), Some(3));
        assert_eq!(first.get("marked").and_then(Json::as_bool), Some(true));
        let second = Json::parse(lines[1]).expect("line parses");
        assert_eq!(
            second.get("label").and_then(Json::as_str),
            Some("ring full")
        );
    }
}
