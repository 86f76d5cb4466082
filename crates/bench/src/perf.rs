//! Exact per-event-kind cost of the simulator.
//!
//! `omx-bench perf` drives five whole-simulation shapes to completion,
//! once each and serially, and writes how many events of each kind the
//! engine dispatched, and how its event and inbound queues handled them,
//! to `BENCH_sim.json` in the working directory. Every
//! shape runs with a fixed seed, so the report holds no times and two runs
//! produce the same bytes at any `--jobs`. The committed root
//! `BENCH_sim.json` is a golden: `crates/bench/tests/perf_golden.rs` fails
//! on any count that moves, and `cargo run --release -p omx-bench -- perf`
//! at the repo root regenerates it. Wall-clock cost is perfbench's job
//! (`perfbench/`, `BENCHMARK.json`).
//!
//! Report schema (`omx-bench-perf/9`):
//!
//! ```json
//! {
//!   "schema": "omx-bench-perf/9",
//!   "shapes": [
//!     {
//!       "id": "e2e/pingpong_small_50k",
//!       "frames": 100000,            // Ethernet frames the fabric carried
//!       "events": 641304,            // events dispatched, all kinds
//!       "events_per_frame": 6.41304,
//!       "by_kind": {"FrameArrival": 100000, "DmaComplete": 100000, …},
//!       "queue": {
//!         "filed": …,                // event-queue entries filed in a bucket
//!         "register_pops": …,        // pops served by the minimum register
//!         "redistributed": …,        // filed entries moved to a lower bucket
//!         "pops": …,                 // events popped off the event queue
//!         "inbound_pushes": 100000,  // wire frames queued inbound
//!         "inbound_overtakes": 0,    // of those, inserted before the back
//!         "inbound_shifted": 0       // queued frames those inserts moved
//!       }
//!     }
//!   ]
//! }
//! ```
//!
//! `by_kind` lists every event kind in declaration order
//! ([`omx_core::system::Cluster::event_counts`]), zeros included. `queue`
//! is [`omx_sim::QueueStats`] followed by [`omx_sim::InboundStats`]: every
//! event popped once, so a layout change in the queues moves only these
//! counts, never `by_kind`. Wire frames in flight (`FrameArrival`) wait in
//! per-node inbound queues and never enter the event queue; shared-memory
//! deliveries (`ShmDeliver`) are events. The NAS shape pins that split: a
//! shared-memory delivery routed through an inbound queue would show as
//! `inbound_overtakes` in its `queue` object.

use omx_core::prelude::*;
use omx_core::system::EventCounts;
use omx_mpi::{MpiWorld, Op, WorldSpec};
use omx_nas::{run_nas, NasBenchmark, NasClass, NasSpec};
use omx_sim::json::Json;
use omx_sim::{InboundStats, QueueStats};
use std::path::Path;

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
/// and per kind, and the event and inbound queues' counts.
fn entry(
    id: &str,
    frames: u64,
    by_kind: EventCounts,
    queue: QueueStats,
    inbound: InboundStats,
) -> Json {
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
                ("filed", Json::U64(queue.filed)),
                ("register_pops", Json::U64(queue.register_pops)),
                ("redistributed", Json::U64(queue.redistributed)),
                ("pops", Json::U64(queue.pops)),
                ("inbound_pushes", Json::U64(inbound.pushes)),
                ("inbound_overtakes", Json::U64(inbound.overtakes)),
                ("inbound_shifted", Json::U64(inbound.shifted)),
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
        cluster.inbound_stats(),
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
        report.inbound,
    )
}

/// NAS IS class B, 16 ranks on 2 nodes, under the default strategy: the
/// Table IV campaign's traffic, where shared-memory deliveries are about
/// 44 % of the events and overtake each other constantly.
fn nas_is_b() -> Json {
    let spec = NasSpec {
        benchmark: NasBenchmark::Is,
        class: NasClass::B,
    };
    let report = run_nas(spec, ClusterConfig::default()).expect("is.B is runnable");
    entry(
        "e2e/nas_is_b",
        report.metrics.frames_carried,
        report.events,
        report.queue,
        report.inbound,
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
        nas_is_b(),
    ];
    Json::obj(vec![
        ("schema", Json::Str("omx-bench-perf/9".into())),
        ("shapes", Json::Arr(shapes)),
    ])
}

/// Render `report` to `BENCH_sim.json` in the working directory.
pub fn write_report(report: &Json) {
    crate::report::write_artifact(Path::new("BENCH_sim.json"), &report.render_pretty());
}

/// Print a report produced by [`run`], one block per shape, with the
/// event kinds grouped by paper layer and the queues' counts.
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
            println!(
                "  {:<16} pops {}, from the register {}, filed {}, redistributed {}",
                "event queue",
                u(q, "pops"),
                u(q, "register_pops"),
                u(q, "filed"),
                u(q, "redistributed"),
            );
            println!(
                "  {:<16} pushes {}, overtaking {}, entries shifted {}",
                "inbound queues",
                u(q, "inbound_pushes"),
                u(q, "inbound_overtakes"),
                u(q, "inbound_shifted"),
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
