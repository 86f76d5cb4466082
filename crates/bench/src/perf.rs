//! Exact per-event-kind cost of the simulator.
//!
//! `omx-bench perf` drives four whole-simulation shapes to completion,
//! once each and serially, and writes how many events of each kind the
//! engine dispatched, and where its event queue placed them, to
//! `BENCH_sim.json` in the working directory. Every
//! shape runs with a fixed seed, so the report holds no times and two runs
//! produce the same bytes at any `--jobs`. The committed root
//! `BENCH_sim.json` is a golden: `crates/bench/tests/perf_golden.rs` fails
//! on any count that moves, and `cargo run --release -p omx-bench -- perf`
//! at the repo root regenerates it. Wall-clock cost is perfbench's job
//! (`perfbench/`, `BENCHMARK.json`).
//!
//! Report schema (`omx-bench-perf/8`):
//!
//! ```json
//! {
//!   "schema": "omx-bench-perf/8",
//!   "shapes": [
//!     {
//!       "id": "e2e/pingpong_small_50k",
//!       "frames": 100000,            // Ethernet frames the fabric carried
//!       "events": 641304,            // events dispatched, all kinds
//!       "events_per_frame": 6.41304,
//!       "by_kind": {"FrameArrival": 100000, "DmaComplete": 100000, …},
//!       "queue": {
//!         "heap_pushes": 491666,     // pushes straight into the heap
//!         "promoted": 49642,         // wheel entries moved into the heap
//!         "cascaded": 40546,         // wheel entries moved to a lower level
//!         "heap_len_at_pop_sum": …,  // heap length summed over every pop
//!         "mean_heap_len_at_pop": …  // that sum per event-queue pop
//!       }
//!     }
//!   ]
//! }
//! ```
//!
//! `by_kind` lists every event kind in declaration order
//! ([`omx_core::system::Cluster::event_counts`]), zeros included. `queue`
//! is [`omx_sim::QueueStats`]: every event popped once, so a layout change
//! in the queue moves only these counts, never `by_kind`. Frames in flight
//! (`FrameArrival`, `ShmDeliver`) wait in per-node inbound queues and never
//! enter the event queue, so `queue` does not count them.

use omx_core::prelude::*;
use omx_core::system::EventCounts;
use omx_mpi::{MpiWorld, Op, WorldSpec};
use omx_sim::json::Json;
use omx_sim::QueueStats;

/// Event kinds grouped by the paper layer that schedules them, in the
/// order [`print_summary`] lists them.
const LAYERS: &[(&str, &[&str])] = &[
    ("fabric", &["FrameArrival"]),
    ("NIC DMA", &["DmaComplete"]),
    ("interrupt path", &["CoalesceTimer", "IrqService"]),
    ("driver", &["BatchDone", "DriverTimer", "ShmDeliver"]),
    ("MPI/app", &["AppRecv", "AppSend", "AppTimer", "AppStart"]),
    ("offload", &["OffloadTimer", "OffloadDone"]),
];

/// One report entry: the shape's frames, its events in total, per frame
/// and per kind, and the event queue's placement counts.
fn entry(id: &str, frames: u64, by_kind: EventCounts, queue: QueueStats) -> Json {
    let events: u64 = by_kind.iter().map(|(_, n)| n).sum();
    Json::obj(vec![
        ("id", Json::Str(id.into())),
        ("frames", Json::U64(frames)),
        ("events", Json::U64(events)),
        (
            "events_per_frame",
            Json::F64(events as f64 / frames.max(1) as f64),
        ),
        (
            "by_kind",
            Json::obj(by_kind.iter().map(|&(k, n)| (k, Json::U64(n))).collect()),
        ),
        (
            "queue",
            Json::obj(vec![
                ("heap_pushes", Json::U64(queue.heap_pushes)),
                ("promoted", Json::U64(queue.promoted)),
                ("cascaded", Json::U64(queue.cascaded)),
                ("heap_len_at_pop_sum", Json::U64(queue.heap_len_at_pop_sum)),
                (
                    "mean_heap_len_at_pop",
                    Json::F64(queue.heap_len_at_pop_sum as f64 / queue.pops.max(1) as f64),
                ),
            ]),
        ),
    ])
}

/// The entry for a shape driven through a bare `Cluster`.
fn cluster_entry(id: &str, cluster: &Cluster) -> Json {
    entry(
        id,
        cluster.metrics().frames_carried,
        cluster.event_counts(),
        cluster.queue_stats(),
    )
}

/// 128-byte ping-pongs on a two-node cluster: every frame takes the
/// small-message eager path, so this is the per-packet protocol and NIC
/// dispatch cost laid bare.
fn pingpong_small(id: &str, strategy: CoalescingStrategy, iterations: u32) -> Json {
    let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
    cluster.run_pingpong(PingPongSpec {
        msg_len: 128,
        iterations,
        warmup: 0,
    });
    cluster_entry(id, &cluster)
}

/// The Table I medium-message cell (32 KiB × 400, window 32, default
/// strategy): fragment reassembly and the retransmit-timer path under a
/// windowed stream.
fn table1_medium_cell() -> Json {
    let mut cluster = ClusterBuilder::new()
        .nodes(2)
        .strategy(CoalescingStrategy::Timeout { delay_us: 75 })
        .build();
    cluster.run_stream(StreamSpec {
        msg_len: 32 << 10,
        messages: 400,
        window: 32,
    });
    cluster_entry("e2e/table1_medium_cell", &cluster)
}

/// A 16-node (32-rank) 16 KiB alltoall through the bounded-buffer switch —
/// the scale campaign's heaviest shape: rendezvous pulls, convergent
/// traffic, and the full MPI stack above the protocol layer.
fn scale_alltoall_16n() -> Json {
    let mut cfg = ClusterConfig::default();
    cfg.nic.strategy = CoalescingStrategy::Timeout { delay_us: 75 };
    cfg.fabric.switch_buffer_frames = 32;
    cfg.seed = 0xE2E;
    let spec = WorldSpec {
        ranks: 32,
        ranks_per_node: 2,
    };
    let (report, _sanitizer) =
        MpiWorld::new(spec, cfg).run_drained(|_| vec![Op::Alltoall { bytes: 16 << 10 }]);
    entry(
        "e2e/scale_alltoall_16n",
        report.metrics.frames_carried,
        report.events,
        report.queue,
    )
}

/// Run every shape once, serially, and return the report.
pub fn run() -> Json {
    let shapes = vec![
        pingpong_small(
            "e2e/pingpong_small_50k",
            CoalescingStrategy::OpenMx { delay_us: 75 },
            50_000,
        ),
        // The 75 µs timeout re-arms the driver timer on every message: the
        // shape with the most `DriverTimer` events per frame.
        pingpong_small(
            "e2e/pingpong_timeout_small_5k",
            CoalescingStrategy::Timeout { delay_us: 75 },
            5_000,
        ),
        table1_medium_cell(),
        scale_alltoall_16n(),
    ];
    Json::obj(vec![
        ("schema", Json::Str("omx-bench-perf/8".into())),
        ("shapes", Json::Arr(shapes)),
    ])
}

/// Render `report` to `BENCH_sim.json` in the working directory.
pub fn write_report(report: &Json) -> std::io::Result<()> {
    std::fs::write("BENCH_sim.json", report.render_pretty())
}

/// Print a report produced by [`run`], one block per shape, with the
/// event kinds grouped by paper layer and the queue's placement counts.
pub fn print_summary(report: &Json) {
    let Some(shapes) = report.get("shapes").and_then(|s| s.as_arr()) else {
        return;
    };
    let u = |j: &Json, key: &str| j.get(key).and_then(|v| v.as_u64()).unwrap_or(0);
    for s in shapes {
        let id = s.get("id").and_then(|v| v.as_str()).unwrap_or("?");
        let frames = u(s, "frames");
        let events = u(s, "events");
        let per_frame = s
            .get("events_per_frame")
            .and_then(|v| v.as_f64())
            .unwrap_or(0.0);
        println!("{id:<32} {frames:>9} frames {events:>10} events  {per_frame:>6.2}/frame");
        let Some(Json::Obj(kinds)) = s.get("by_kind") else {
            continue;
        };
        for (layer, members) in LAYERS {
            let in_layer: Vec<(&str, u64)> = kinds
                .iter()
                .filter(|(k, _)| members.contains(&k.as_str()))
                .map(|(k, v)| (k.as_str(), v.as_u64().unwrap_or(0)))
                .collect();
            let total: u64 = in_layer.iter().map(|(_, n)| n).sum();
            let detail: Vec<String> = in_layer
                .iter()
                .filter(|(_, n)| *n > 0)
                .map(|(k, n)| format!("{k} {n}"))
                .collect();
            let line = format!("  {layer:<16} {total:>10}  {}", detail.join(", "));
            println!("{}", line.trim_end());
        }
        if let Some(q) = s.get("queue") {
            let mean = q
                .get("mean_heap_len_at_pop")
                .and_then(|v| v.as_f64())
                .unwrap_or(0.0);
            println!(
                "  {:<16} heap pushes {}, promoted {}, cascaded {}, mean heap length at pop {mean:.1}",
                "event queue",
                u(q, "heap_pushes"),
                u(q, "promoted"),
                u(q, "cascaded"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_event_kind_belongs_to_one_layer() {
        for (kind, _) in Cluster::new(ClusterConfig::default()).event_counts() {
            let layers = LAYERS.iter().filter(|(_, m)| m.contains(&kind)).count();
            assert_eq!(layers, 1, "{kind} belongs to {layers} layers");
        }
    }
}
