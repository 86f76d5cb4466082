//! Windowed telemetry: sim-time-aligned samplers over the cluster's
//! counters and gauges.
//!
//! Every metric the harness emitted before this module was a whole-run
//! aggregate, which hides exactly the phenomenon the paper is about: the
//! interrupt-load/latency tradeoff is *dynamic* (the headline failure mode
//! is incast drops phase-locking into 20 ms RTO stalls, invisible in a
//! mean). This module turns the existing counters into time series:
//!
//! * The cluster's event loop closes a window at every fixed sim-time
//!   boundary (see [`TelemetryConfig::window_ns`]) by reading instantaneous
//!   taps — [`NodeTap`] per node, [`PortTap`] per switch egress port — and
//!   handing them to [`Telemetry`].
//! * Each sampler diffs cumulative taps against the previous window and
//!   stores one `Copy` record ([`NodeWindow`] / [`PortWindow`]) into a
//!   bounded ring. Steady-state sampling allocates nothing: rings are
//!   pre-sized at enable time and evict oldest-first.
//! * Window semantics are `[start, end)`: a window closes before any event
//!   scheduled at exactly the boundary, so a window never observes its
//!   successor's work. The partial final window is closed by one extra
//!   [`Telemetry::begin_window`] sample at drain time.
//!
//! Export paths: [`Telemetry::to_jsonl`] (one record per line, sorted by
//! time for timeline diffing) and [`Telemetry::counter_events`] /
//! [`Telemetry::to_chrome_json`] (Perfetto counter tracks, `ph: "C"`,
//! sharing the envelope and microsecond-timestamp convention of
//! [`crate::trace::Tracer::to_chrome_json`]).
//!
//! [`SloSummary`] is the aggregate companion: p50/p99/p999 over a latency
//! histogram, used by the campaign reports' opt-in `--slo` columns.

use crate::trace;
use omx_sim::json::{Json, ToJson};
use omx_sim::stats::Histogram;
use omx_sim::Time;

/// Configuration for the windowed telemetry sampler.
#[derive(Debug, Clone)]
pub struct TelemetryConfig {
    /// Window length in simulated nanoseconds (default 100 µs).
    pub window_ns: u64,
    /// Maximum windows retained per sampler ring; oldest are evicted first
    /// (default 4096 windows ≈ 400 ms of sim time at the default window).
    pub ring_capacity: usize,
}

impl Default for TelemetryConfig {
    fn default() -> Self {
        TelemetryConfig {
            window_ns: 100_000,
            ring_capacity: 4096,
        }
    }
}

/// Instantaneous per-node reading taken at a window boundary.
///
/// Fields marked *cumulative* are monotone run totals (the sampler stores
/// the delta); the rest are instantaneous gauges (stored as-is).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NodeTap {
    /// Cumulative interrupts raised by the NIC.
    pub interrupts: u64,
    /// Cumulative coalesce-hold time, ns (sum of the hold histogram).
    pub hold_sum_ns: f64,
    /// Cumulative count of coalesce-hold samples.
    pub hold_count: u64,
    /// RX-ring slots occupied right now: frames from arrival until an IRQ
    /// service claims them ([`omx_nic::Nic::pending_work`]).
    pub rx_ring: u64,
    /// Cumulative eager retransmissions sent.
    pub retransmits: u64,
    /// Cumulative rendezvous pull re-requests sent.
    pub rerequests: u64,
    /// Packets parked in reorder buffers right now.
    pub reorder_depth: u64,
    /// Cumulative application-payload bytes delivered (goodput).
    pub delivered_bytes: u64,
}

/// Instantaneous per-switch-egress-port reading taken at a window boundary.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PortTap {
    /// Frames buffered at this egress right now.
    pub queue_len: u64,
    /// Cumulative frames tail-dropped at this egress.
    pub drops: u64,
}

/// One closed window of a node's activity: deltas of cumulative taps,
/// boundary values of gauges.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeWindow {
    /// Window end, absolute sim nanoseconds (the start is the previous
    /// record's end, or the aligned boundary `end - window_ns`).
    pub end_ns: u64,
    /// Interrupts raised during the window.
    pub interrupts: u64,
    /// Coalesce-hold time accumulated during the window, ns.
    pub hold_sum_ns: u64,
    /// Coalesce-hold samples during the window.
    pub hold_count: u64,
    /// RX-ring occupancy at the window boundary.
    pub rx_ring: u64,
    /// Eager retransmissions during the window.
    pub retransmits: u64,
    /// Pull re-requests during the window.
    pub rerequests: u64,
    /// Reorder-buffer depth at the window boundary.
    pub reorder_depth: u64,
    /// Goodput bytes delivered during the window.
    pub goodput_bytes: u64,
}

/// One closed window of a switch egress port: boundary queue depth plus
/// drops during the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PortWindow {
    /// Window end, absolute sim nanoseconds.
    pub end_ns: u64,
    /// Frames buffered at the window boundary.
    pub queue_len: u64,
    /// Frames tail-dropped during the window.
    pub drops: u64,
}

/// Fixed-capacity ring of window records; oldest evicted first.
#[derive(Debug, Clone)]
struct WindowRing<T> {
    buf: Vec<T>,
    capacity: usize,
    /// Index of the oldest element once the ring has wrapped.
    start: usize,
}

impl<T: Copy> WindowRing<T> {
    fn new(capacity: usize) -> Self {
        WindowRing {
            buf: Vec::with_capacity(capacity),
            capacity: capacity.max(1),
            start: 0,
        }
    }

    fn push(&mut self, item: T) {
        if self.buf.len() < self.capacity {
            self.buf.push(item);
        } else {
            self.buf[self.start] = item;
            self.start = (self.start + 1) % self.capacity;
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        let (tail, head) = self.buf.split_at(self.start);
        head.iter().chain(tail.iter())
    }
}

/// Per-node sampler: previous cumulative tap plus the record ring.
#[derive(Debug, Clone)]
struct NodeSampler {
    prev: NodeTap,
    ring: WindowRing<NodeWindow>,
}

/// Per-port sampler: previous cumulative drop count plus the record ring.
#[derive(Debug, Clone)]
struct PortSampler {
    prev_drops: u64,
    ring: WindowRing<PortWindow>,
}

/// The windowed telemetry collector for one cluster run.
///
/// Driven by the orchestrator: each window boundary calls
/// [`Telemetry::begin_window`] then [`Telemetry::sample_node`] /
/// [`Telemetry::sample_port`] for every node and port, keeping all sampler
/// rings in lockstep. The partial final window is closed the same way at
/// drain time (guarded by `begin_window` returning `false` on a repeated
/// boundary, so finalizing is idempotent).
#[derive(Debug, Clone)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    nodes: Vec<NodeSampler>,
    ports: Vec<PortSampler>,
    cur_end_ns: u64,
    last_end_ns: Option<u64>,
    windows: u64,
}

impl Telemetry {
    /// New collector for `nodes` nodes and `ports` switch egress ports.
    ///
    /// # Panics
    /// Panics if `cfg.window_ns` is zero.
    pub fn new(cfg: TelemetryConfig, nodes: usize, ports: usize) -> Self {
        assert!(cfg.window_ns > 0, "telemetry window must be non-zero");
        let node_samplers = (0..nodes)
            .map(|_| NodeSampler {
                prev: NodeTap::default(),
                ring: WindowRing::new(cfg.ring_capacity),
            })
            .collect();
        let port_samplers = (0..ports)
            .map(|_| PortSampler {
                prev_drops: 0,
                ring: WindowRing::new(cfg.ring_capacity),
            })
            .collect();
        Telemetry {
            cfg,
            nodes: node_samplers,
            ports: port_samplers,
            cur_end_ns: 0,
            last_end_ns: None,
            windows: 0,
        }
    }

    /// Configuration in force.
    pub fn config(&self) -> &TelemetryConfig {
        &self.cfg
    }

    /// The end of the last recorded window, if any.
    pub(crate) fn last_boundary(&self) -> Option<Time> {
        self.last_end_ns.map(Time::from_nanos)
    }

    /// The aligned boundary that closes the current window: the first
    /// multiple of `window_ns` after the last recorded boundary.
    pub fn next_boundary(&self) -> Time {
        let w = self.cfg.window_ns;
        Time::from_nanos((self.last_end_ns.unwrap_or(0) / w + 1) * w)
    }

    /// Start recording the window ending at `end`. Returns `false` (and
    /// records nothing) when `end` does not advance past the last recorded
    /// boundary — this is what makes drain-time finalization idempotent.
    pub fn begin_window(&mut self, end: Time) -> bool {
        let end_ns = end.as_nanos();
        if self.last_end_ns.is_some_and(|last| end_ns <= last) {
            return false;
        }
        self.cur_end_ns = end_ns;
        self.last_end_ns = Some(end_ns);
        self.windows += 1;
        true
    }

    /// Record node `idx`'s tap for the window opened by
    /// [`Telemetry::begin_window`].
    pub fn sample_node(&mut self, idx: usize, tap: NodeTap) {
        let end_ns = self.cur_end_ns;
        let s = &mut self.nodes[idx];
        // Cumulative sums are integer-valued ns below 2^53, so the f64
        // delta is exact and the cast is lossless.
        let hold_delta = (tap.hold_sum_ns - s.prev.hold_sum_ns).max(0.0) as u64;
        s.ring.push(NodeWindow {
            end_ns,
            interrupts: tap.interrupts - s.prev.interrupts,
            hold_sum_ns: hold_delta,
            hold_count: tap.hold_count - s.prev.hold_count,
            rx_ring: tap.rx_ring,
            retransmits: tap.retransmits - s.prev.retransmits,
            rerequests: tap.rerequests - s.prev.rerequests,
            reorder_depth: tap.reorder_depth,
            goodput_bytes: tap.delivered_bytes - s.prev.delivered_bytes,
        });
        s.prev = tap;
    }

    /// Record port `idx`'s tap for the window opened by
    /// [`Telemetry::begin_window`].
    pub fn sample_port(&mut self, idx: usize, tap: PortTap) {
        let end_ns = self.cur_end_ns;
        let s = &mut self.ports[idx];
        s.ring.push(PortWindow {
            end_ns,
            queue_len: tap.queue_len,
            drops: tap.drops - s.prev_drops,
        });
        s.prev_drops = tap.drops;
    }

    /// Number of node samplers.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of port samplers.
    pub fn port_count(&self) -> usize {
        self.ports.len()
    }

    /// Windows recorded so far (including any evicted from the rings).
    pub fn windows_recorded(&self) -> u64 {
        self.windows
    }

    /// Retained window records for node `idx`, oldest first.
    pub fn node_windows(&self, idx: usize) -> impl Iterator<Item = &NodeWindow> {
        self.nodes[idx].ring.iter()
    }

    /// Retained window records for port `idx`, oldest first.
    pub fn port_windows(&self, idx: usize) -> impl Iterator<Item = &PortWindow> {
        self.ports[idx].ring.iter()
    }

    /// Export the retained timeline as JSONL: one record per line, sorted
    /// by `(end_ns, kind, id)` with nodes before ports at equal times, so
    /// two runs with identical seeds produce byte-identical output.
    pub fn to_jsonl(&self) -> String {
        let mut lines: Vec<(u64, u8, usize, String)> = Vec::new();
        for (id, s) in self.nodes.iter().enumerate() {
            for w in s.ring.iter() {
                let obj = Json::obj(vec![
                    ("t_ns", Json::U64(w.end_ns)),
                    ("kind", Json::Str("node".to_string())),
                    ("id", Json::U64(id as u64)),
                    ("interrupts", Json::U64(w.interrupts)),
                    ("hold_sum_ns", Json::U64(w.hold_sum_ns)),
                    ("hold_count", Json::U64(w.hold_count)),
                    ("rx_ring", Json::U64(w.rx_ring)),
                    ("retransmits", Json::U64(w.retransmits)),
                    ("rerequests", Json::U64(w.rerequests)),
                    ("reorder_depth", Json::U64(w.reorder_depth)),
                    ("goodput_bytes", Json::U64(w.goodput_bytes)),
                ]);
                lines.push((w.end_ns, 0, id, obj.render()));
            }
        }
        for (id, s) in self.ports.iter().enumerate() {
            for w in s.ring.iter() {
                let obj = Json::obj(vec![
                    ("t_ns", Json::U64(w.end_ns)),
                    ("kind", Json::Str("port".to_string())),
                    ("id", Json::U64(id as u64)),
                    ("queue_len", Json::U64(w.queue_len)),
                    ("drops", Json::U64(w.drops)),
                ]);
                lines.push((w.end_ns, 1, id, obj.render()));
            }
        }
        lines.sort_by_key(|a| (a.0, a.1, a.2));
        let mut out = String::new();
        for (_, _, _, line) in lines {
            out.push_str(&line);
            out.push('\n');
        }
        out
    }

    /// Perfetto counter-track events (`ph: "C"`), one per metric per
    /// window, following the existing exporter's conventions: `pid` = node
    /// (ports map to the node they feed), timestamps in microseconds.
    pub fn counter_events(&self) -> Vec<Json> {
        let us = |ns: u64| Json::F64(ns as f64 / 1000.0);
        let counter = |name: &str, pid: u64, ts: u64, value: u64| {
            Json::obj(vec![
                ("name", Json::Str(name.to_string())),
                ("ph", Json::Str("C".to_string())),
                ("ts", us(ts)),
                ("pid", Json::U64(pid)),
                ("tid", Json::U64(0)),
                ("args", Json::obj(vec![("value", Json::U64(value))])),
            ])
        };
        let mut events = Vec::new();
        for (id, s) in self.nodes.iter().enumerate() {
            let pid = id as u64;
            for w in s.ring.iter() {
                events.push(counter("tel/interrupts", pid, w.end_ns, w.interrupts));
                events.push(counter("tel/hold_sum_ns", pid, w.end_ns, w.hold_sum_ns));
                events.push(counter("tel/rx_ring", pid, w.end_ns, w.rx_ring));
                events.push(counter("tel/retransmits", pid, w.end_ns, w.retransmits));
                events.push(counter("tel/rerequests", pid, w.end_ns, w.rerequests));
                events.push(counter("tel/reorder_depth", pid, w.end_ns, w.reorder_depth));
                events.push(counter("tel/goodput_bytes", pid, w.end_ns, w.goodput_bytes));
            }
        }
        for (id, s) in self.ports.iter().enumerate() {
            let pid = id as u64;
            for w in s.ring.iter() {
                events.push(counter("tel/switch_queue_len", pid, w.end_ns, w.queue_len));
                events.push(counter("tel/switch_drops", pid, w.end_ns, w.drops));
            }
        }
        events
    }

    /// Full Chrome trace-event envelope holding only the counter tracks
    /// (for merging with packet traces, pass [`Telemetry::counter_events`]
    /// to [`crate::trace::chrome_envelope`] alongside the tracer's events).
    pub fn to_chrome_json(&self) -> Json {
        trace::chrome_envelope(self.counter_events())
    }
}

/// p50/p99/p999 summary of a latency histogram — the SLO row attached to
/// campaign report cells when `--slo` is requested.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SloSummary {
    /// Number of latency samples.
    pub count: u64,
    /// Mean latency, ns.
    pub mean_ns: f64,
    /// Median latency, ns.
    pub p50_ns: u64,
    /// 99th-percentile latency, ns.
    pub p99_ns: u64,
    /// 99.9th-percentile latency, ns.
    pub p999_ns: u64,
}

impl SloSummary {
    /// Summarize `h`; `None` when the histogram is empty.
    pub fn from_histogram(h: &Histogram) -> Option<SloSummary> {
        Some(SloSummary {
            count: h.count(),
            mean_ns: h.mean(),
            p50_ns: h.p50()?,
            p99_ns: h.p99()?,
            p999_ns: h.p999()?,
        })
    }
}

impl ToJson for SloSummary {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("count", Json::U64(self.count)),
            ("mean_ns", Json::F64(self.mean_ns)),
            ("p50_ns", Json::U64(self.p50_ns)),
            ("p99_ns", Json::U64(self.p99_ns)),
            ("p999_ns", Json::U64(self.p999_ns)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tap(interrupts: u64, delivered: u64, rx_ring: u64) -> NodeTap {
        NodeTap {
            interrupts,
            delivered_bytes: delivered,
            rx_ring,
            ..NodeTap::default()
        }
    }

    #[test]
    fn deltas_and_gauges_per_window() {
        let mut tel = Telemetry::new(TelemetryConfig::default(), 1, 1);
        assert!(tel.begin_window(Time::from_nanos(100_000)));
        tel.sample_node(0, tap(5, 1_000, 3));
        tel.sample_port(
            0,
            PortTap {
                queue_len: 7,
                drops: 2,
            },
        );
        assert!(tel.begin_window(Time::from_nanos(200_000)));
        tel.sample_node(0, tap(8, 1_500, 1));
        tel.sample_port(
            0,
            PortTap {
                queue_len: 0,
                drops: 2,
            },
        );

        let w: Vec<&NodeWindow> = tel.node_windows(0).collect();
        assert_eq!(w.len(), 2);
        assert_eq!(
            (w[0].interrupts, w[0].goodput_bytes, w[0].rx_ring),
            (5, 1_000, 3)
        );
        assert_eq!(
            (w[1].interrupts, w[1].goodput_bytes, w[1].rx_ring),
            (3, 500, 1)
        );
        let p: Vec<&PortWindow> = tel.port_windows(0).collect();
        assert_eq!((p[0].queue_len, p[0].drops), (7, 2));
        assert_eq!((p[1].queue_len, p[1].drops), (0, 0));
    }

    #[test]
    fn begin_window_is_idempotent_at_same_boundary() {
        let mut tel = Telemetry::new(TelemetryConfig::default(), 1, 0);
        assert!(tel.begin_window(Time::from_nanos(100)));
        tel.sample_node(0, tap(1, 1, 0));
        // Finalize at the same instant: must be a no-op.
        assert!(!tel.begin_window(Time::from_nanos(100)));
        assert!(!tel.begin_window(Time::from_nanos(50)));
        assert_eq!(tel.windows_recorded(), 1);
    }

    #[test]
    fn ring_evicts_oldest() {
        let cfg = TelemetryConfig {
            window_ns: 10,
            ring_capacity: 3,
        };
        let mut tel = Telemetry::new(cfg, 1, 0);
        for i in 1..=5u64 {
            assert!(tel.begin_window(Time::from_nanos(i * 10)));
            tel.sample_node(0, tap(i, 0, 0));
        }
        let ends: Vec<u64> = tel.node_windows(0).map(|w| w.end_ns).collect();
        assert_eq!(ends, vec![30, 40, 50]);
        assert_eq!(tel.windows_recorded(), 5);
    }

    #[test]
    fn jsonl_is_time_major_and_stable() {
        let mut tel = Telemetry::new(TelemetryConfig::default(), 2, 1);
        tel.begin_window(Time::from_nanos(100));
        tel.sample_node(0, tap(1, 10, 0));
        tel.sample_node(1, tap(2, 20, 0));
        tel.sample_port(
            0,
            PortTap {
                queue_len: 1,
                drops: 0,
            },
        );
        tel.begin_window(Time::from_nanos(200));
        tel.sample_node(0, tap(1, 10, 0));
        tel.sample_node(1, tap(2, 20, 0));
        tel.sample_port(
            0,
            PortTap {
                queue_len: 0,
                drops: 0,
            },
        );

        let jsonl = tel.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 6);
        // Time-major: both nodes then the port at t=100, then t=200.
        assert!(lines[0].contains("\"t_ns\":100") && lines[0].contains("\"node\""));
        assert!(lines[1].contains("\"t_ns\":100") && lines[1].contains("\"id\":1"));
        assert!(lines[2].contains("\"t_ns\":100") && lines[2].contains("\"port\""));
        assert!(lines[3].contains("\"t_ns\":200"));
        // Determinism: rendering twice is byte-identical.
        assert_eq!(jsonl, tel.to_jsonl());
    }

    #[test]
    fn chrome_counters_reference_all_series() {
        let mut tel = Telemetry::new(TelemetryConfig::default(), 1, 1);
        tel.begin_window(Time::from_nanos(100_000));
        tel.sample_node(0, tap(4, 100, 2));
        tel.sample_port(
            0,
            PortTap {
                queue_len: 3,
                drops: 1,
            },
        );
        let chrome = tel.to_chrome_json().render();
        for name in [
            "tel/interrupts",
            "tel/goodput_bytes",
            "tel/switch_queue_len",
            "tel/switch_drops",
        ] {
            assert!(chrome.contains(name), "missing counter {name}");
        }
        assert!(chrome.contains("\"ph\":\"C\""));
        assert!(chrome.contains("traceEvents"));
    }

    #[test]
    fn slo_summary_from_histogram() {
        let mut h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v * 1_000);
        }
        let slo = SloSummary::from_histogram(&h).unwrap();
        assert_eq!(slo.count, 1_000);
        assert!(slo.p50_ns <= slo.p99_ns && slo.p99_ns <= slo.p999_ns);
        assert!((slo.mean_ns - 500_500.0).abs() < 1.0);
        assert!(SloSummary::from_histogram(&Histogram::new()).is_none());
    }
}
