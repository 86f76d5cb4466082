//! Tracked performance baseline of the simulation substrate.
//!
//! `omx-bench perf` runs the substrate micro-benchmarks (event queue,
//! timer re-arm stress, engine dispatch) and **the `e2e/*`
//! whole-simulation benches** (full clusters driven to completion,
//! reported in frames/sec), and writes a machine-readable report to
//! `BENCH_sim.json` in the working directory. Each entry carries its
//! tracked baseline, so a regression shows up as a `speedup_vs_baseline`
//! below 1.0 without digging through CI logs.
//!
//! Baselines are the static anchors pinned in this module and
//! nothing else: a report depends only on the run that produced it, never
//! on a `BENCH_sim.json` already on disk. A bench without an anchor
//! reports a `null` baseline and is not gated.
//!
//! `--smoke` runs one warmup and one timed iteration per workload — enough
//! for CI to prove the binary works and to publish a report artifact without
//! burning minutes on statistics. In smoke mode the run doubles as a
//! regression gate: any bench whose mean regresses more than 2× past its
//! baseline fails the run (see [`regressions`]). `--iters N` overrides
//! every bench's timed iteration count (the gate still applies to the
//! resulting means).
//!
//! Report schema (`omx-bench-perf/6`):
//!
//! ```json
//! {
//!   "schema": "omx-bench-perf/6",
//!   "mode": "full" | "smoke",
//!   "jobs": 4,        // campaign thread count (--jobs, else cores); benches run serially
//!   "cores": 4,       // std::thread::available_parallelism
//!   "benches": [
//!     {
//!       "id": "event_queue/push_cancel_pop_10k",
//!       "mean_ns": 410000, "min_ns": 395000, "iters": 20,
//!       "baseline_mean_ns": 1988000,    // null for benches without an anchor
//!       "speedup_vs_baseline": 4.85     // baseline_mean / mean; null if no baseline
//!     },
//!     {
//!       "id": "e2e/pingpong_small_50k",
//!       "mean_ns": 1, "min_ns": 1, "iters": 5,
//!       "baseline_mean_ns": 1, "speedup_vs_baseline": 1.0,
//!       "frames": 120000,               // e2e/* only: frames the cluster carried
//!       "frames_per_sec": 1.0e8         // e2e/* only: frames / mean wall time
//!     }
//!   ]
//! }
//! ```
//!
//! `frames` counts simulated Ethernet frames carried by the fabric in one
//! bench iteration (deterministic — fixed seeds), so `frames_per_sec` is the
//! end-to-end simulator throughput the ROADMAP tracks.

use crate::timing::{measure, BenchStats};
use omx_core::prelude::*;
use omx_mpi::{MpiWorld, Op, WorldSpec};
use omx_sim::json::Json;
use omx_sim::{pool, Engine, EventQueue, Model, Scheduler, Time};

/// Mean per-iteration wall time (ns) of each workload on the tracked
/// reference machine, captured with the pre-optimisation implementation
/// (`event_queue/*`, `engine/*`: the pre-PR-2 `BinaryHeap` + tombstone-set
/// queue; `e2e/*`: the pre-PR-5 map-based protocol state and `Box<dyn
/// Coalescer>` NIC dispatch). Two workloads have no pre-optimisation
/// equivalent and pin the first mean recorded for them instead:
/// `e2e/scale_alltoall_16n_telemetry` the cost measured when the telemetry
/// subsystem landed, so the gate catches windowed sampling turning from
/// observation into load, and `event_queue/timer_rearm_100k` the cost
/// measured after the event-queue rework.
const BASELINE_MEAN_NS: &[(&str, u64)] = &[
    ("event_queue/push_pop_10k_fifo", 1_654_000),
    ("event_queue/push_cancel_pop_10k", 1_988_000),
    ("event_queue/timer_rearm_100k", 1_332_569),
    ("engine/dispatch_100k_chained_events", 5_816_000),
    ("e2e/pingpong_small_50k", 884_195_000),
    ("e2e/table1_medium_cell", 10_859_000),
    ("e2e/scale_alltoall_16n", 16_967_000),
    ("e2e/scale_alltoall_16n_telemetry", 10_263_000),
];

struct Chain {
    remaining: u64,
}

impl Model for Chain {
    type Event = ();
    fn handle(&mut self, _now: Time, _ev: (), sched: &mut Scheduler<()>) {
        if self.remaining > 0 {
            self.remaining -= 1;
            sched.schedule_in(10, ());
        }
    }
}

fn push_pop_10k_fifo() -> EventQueue<u64> {
    let mut q = EventQueue::<u64>::new();
    for i in 0..10_000u64 {
        q.push(Time::from_nanos(i), i);
    }
    while q.pop().is_some() {}
    q
}

fn push_cancel_pop_10k() -> EventQueue<u64> {
    let mut q = EventQueue::<u64>::new();
    let tokens: Vec<_> = (0..10_000u64)
        .map(|i| q.push(Time::from_nanos(i % 512), i))
        .collect();
    for t in tokens.iter().step_by(2) {
        q.cancel(*t);
    }
    while q.pop().is_some() {}
    q
}

/// The NIC coalescing pattern: a short-horizon timer cancelled and re-armed
/// once per delivered packet, behind an earlier backstop event. Every push
/// lands in the timer wheel and every cancel is an O(1) bucket removal.
fn timer_rearm_100k() -> EventQueue<u64> {
    let mut q = EventQueue::<u64>::new();
    q.push(Time::ZERO, 0);
    let mut tok = q.push(Time::from_nanos(60_000), 1);
    for i in 0..100_000u64 {
        q.cancel(tok);
        tok = q.push(Time::from_nanos(60_000 + (i % 1_000)), 1);
    }
    q
}

fn dispatch_100k_chained_events() -> u64 {
    let mut eng = Engine::new(Chain { remaining: 100_000 });
    eng.prime(Time::ZERO, ());
    eng.run(Time::MAX, u64::MAX);
    eng.events_processed()
}

/// 50 000 128-byte ping-pongs on a two-node cluster under the paper's
/// open-mx strategy. Every frame takes the small-message eager path, so
/// this is the per-packet protocol + NIC dispatch cost laid bare.
fn e2e_pingpong_small_50k() -> u64 {
    let mut cluster = ClusterBuilder::new()
        .nodes(2)
        .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
        .build();
    cluster.run_pingpong(PingPongSpec {
        msg_len: 128,
        iterations: 50_000,
        warmup: 0,
    });
    cluster.metrics().frames_carried
}

/// The Table I medium-message cell (32 KiB × 400, window 32, default
/// strategy): fragment reassembly and the retransmit-timer path under a
/// windowed stream.
fn e2e_table1_medium_cell() -> u64 {
    let mut cluster = ClusterBuilder::new()
        .nodes(2)
        .strategy(CoalescingStrategy::Timeout { delay_us: 75 })
        .build();
    cluster.run_stream(StreamSpec {
        msg_len: 32 << 10,
        messages: 400,
        window: 32,
    });
    cluster.metrics().frames_carried
}

/// A 16-node (32-rank) 16 KiB alltoall through the bounded-buffer switch —
/// the scale campaign's heaviest shape: rendezvous pulls, convergent
/// traffic, and the full MPI stack above the protocol layer.
fn e2e_scale_alltoall_16n() -> u64 {
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
    report.metrics.frames_carried
}

/// The same 16-node alltoall with windowed telemetry enabled (100 µs
/// windows, the `omx-bench timeline` configuration): pins the sampling
/// tick + snapshot overhead on top of `e2e/scale_alltoall_16n`.
fn e2e_scale_alltoall_16n_telemetry() -> u64 {
    let mut cfg = ClusterConfig::default();
    cfg.nic.strategy = CoalescingStrategy::Timeout { delay_us: 75 };
    cfg.fabric.switch_buffer_frames = 32;
    cfg.seed = 0xE2E;
    let spec = WorldSpec {
        ranks: 32,
        ranks_per_node: 2,
    };
    let mut world = MpiWorld::new(spec, cfg);
    world.enable_telemetry(TelemetryConfig::default());
    let (report, _sanitizer) = world.run_drained(|_| vec![Op::Alltoall { bytes: 16 << 10 }]);
    report.metrics.frames_carried
}

/// The static anchor for `id`, if it has one.
fn baseline(id: &str) -> Option<u64> {
    BASELINE_MEAN_NS
        .iter()
        .find(|(k, _)| *k == id)
        .map(|(_, ns)| *ns)
}

fn entry_with_baseline(
    id: &str,
    stats: BenchStats,
    baseline: Option<u64>,
    frames: Option<u64>,
) -> Json {
    let mut fields = vec![
        ("id", Json::Str(id.to_string())),
        ("mean_ns", Json::U64(stats.mean_ns)),
        ("min_ns", Json::U64(stats.min_ns)),
        ("iters", Json::U64(u64::from(stats.iters))),
        ("baseline_mean_ns", baseline.map_or(Json::Null, Json::U64)),
        (
            "speedup_vs_baseline",
            baseline.map_or(Json::Null, |b| {
                Json::F64(b as f64 / stats.mean_ns.max(1) as f64)
            }),
        ),
    ];
    if let Some(frames) = frames {
        fields.push(("frames", Json::U64(frames)));
        fields.push((
            "frames_per_sec",
            Json::F64(frames as f64 * 1e9 / stats.mean_ns.max(1) as f64),
        ));
    }
    Json::obj(fields)
}

/// Run the perf suite and return the report. `smoke` = 1 warmup / 1 iter;
/// `iters_override` replaces every bench's timed iteration count.
pub fn run(smoke: bool, iters_override: Option<u32>) -> Json {
    let (w, n, we, ne) = if smoke { (1, 1, 1, 1) } else { (3, 20, 1, 10) };
    // Whole-simulation runs are orders of magnitude longer than the
    // microbenches; a handful of iterations already gives stable means.
    let (wf, nf) = if smoke { (1, 1) } else { (1, 5) };
    let ov = |n: u32| iters_override.unwrap_or(n);

    // (id, stats, frames), each measured strictly serially — one sim on
    // one thread — so means stay comparable across `--jobs` settings.
    let mut raw: Vec<(&str, BenchStats, Option<u64>)> = vec![
        (
            "event_queue/push_pop_10k_fifo",
            measure(w, ov(n), push_pop_10k_fifo),
            None,
        ),
        (
            "event_queue/push_cancel_pop_10k",
            measure(w, ov(n), push_cancel_pop_10k),
            None,
        ),
        (
            "event_queue/timer_rearm_100k",
            measure(w, ov(n), timer_rearm_100k),
            None,
        ),
        (
            "engine/dispatch_100k_chained_events",
            measure(we, ov(ne), dispatch_100k_chained_events),
            None,
        ),
    ];
    let mut e2e = |id: &'static str, f: fn() -> u64| {
        let mut frames = 0;
        let stats = measure(wf, ov(nf), || frames = f());
        raw.push((id, stats, Some(frames)));
    };
    e2e("e2e/pingpong_small_50k", e2e_pingpong_small_50k);
    e2e("e2e/table1_medium_cell", e2e_table1_medium_cell);
    e2e("e2e/scale_alltoall_16n", e2e_scale_alltoall_16n);
    e2e(
        "e2e/scale_alltoall_16n_telemetry",
        e2e_scale_alltoall_16n_telemetry,
    );
    let benches: Vec<Json> = raw
        .into_iter()
        .map(|(id, stats, frames)| entry_with_baseline(id, stats, baseline(id), frames))
        .collect();

    Json::obj(vec![
        ("schema", Json::Str("omx-bench-perf/6".into())),
        (
            "mode",
            Json::Str(if smoke { "smoke" } else { "full" }.into()),
        ),
        ("jobs", Json::U64(pool::effective_jobs() as u64)),
        (
            "cores",
            Json::U64(std::thread::available_parallelism().map_or(1, |c| c.get()) as u64),
        ),
        ("benches", Json::Arr(benches)),
    ])
}

/// Benches whose mean regressed more than `factor`× past their recorded
/// baseline, as `(id, mean_ns, baseline_mean_ns)`. The CI smoke step fails
/// the job on a non-empty result with `factor = 2.0` — loose enough for
/// shared-runner noise on one-iteration timings, tight enough to catch an
/// accidental O(n) slip on the hot path.
pub fn regressions(report: &Json, factor: f64) -> Vec<(String, u64, u64)> {
    let Some(benches) = report.get("benches").and_then(|b| b.as_arr()) else {
        return Vec::new();
    };
    benches
        .iter()
        .filter_map(|b| {
            let id = b.get("id")?.as_str()?;
            let mean = b.get("mean_ns")?.as_u64()?;
            let baseline = b.get("baseline_mean_ns")?.as_u64()?;
            (mean as f64 > baseline as f64 * factor).then(|| (id.to_string(), mean, baseline))
        })
        .collect()
}

/// Render `report` to `BENCH_sim.json` in the working directory.
pub fn write_report(report: &Json) -> std::io::Result<()> {
    std::fs::write("BENCH_sim.json", report.render_pretty())
}

/// Print a human-readable summary of a report produced by [`run`].
pub fn print_summary(report: &Json) {
    let Some(benches) = report.get("benches").and_then(|b| b.as_arr()) else {
        return;
    };
    for b in benches {
        let id = b.get("id").and_then(|v| v.as_str()).unwrap_or("?");
        let mean = b.get("mean_ns").and_then(|v| v.as_u64()).unwrap_or(0);
        let min = b.get("min_ns").and_then(|v| v.as_u64()).unwrap_or(0);
        match b.get("speedup_vs_baseline").and_then(|v| v.as_f64()) {
            Some(s) => println!(
                "{id:<40} mean {:>10} ns  min {:>10} ns  {s:.2}x vs baseline",
                mean, min
            ),
            None => println!(
                "{id:<40} mean {:>10} ns  min {:>10} ns  (no baseline)",
                mean, min
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_run_produces_all_benches_and_baselines() {
        let report = run(true, None);
        assert_eq!(
            report.get("schema").and_then(|s| s.as_str()),
            Some("omx-bench-perf/6")
        );
        assert!(report.get("jobs").and_then(|j| j.as_u64()).unwrap() >= 1);
        assert!(report.get("cores").and_then(|c| c.as_u64()).unwrap() >= 1);
        let benches = report.get("benches").and_then(|b| b.as_arr()).unwrap();
        assert_eq!(benches.len(), 8);
        for b in benches {
            assert!(b.get("mean_ns").and_then(|v| v.as_u64()).unwrap() > 0);
            let id = b.get("id").and_then(|v| v.as_str()).unwrap();
            if id.starts_with("e2e/") {
                // Deterministic sims carry a nonzero, reproducible frame
                // count; frames_per_sec is derived from it.
                assert!(b.get("frames").and_then(|v| v.as_u64()).unwrap() > 0);
                assert!(b.get("frames_per_sec").and_then(|v| v.as_f64()).unwrap() > 0.0);
            } else {
                assert!(b.get("frames").is_none());
            }
        }
        // Every static anchor resolved.
        let baseline_of = |id: &str| {
            benches
                .iter()
                .find(|b| b.get("id").and_then(|v| v.as_str()) == Some(id))
                .and_then(|b| b.get("baseline_mean_ns"))
                .and_then(|v| v.as_u64())
        };
        for (id, ns) in BASELINE_MEAN_NS {
            assert_eq!(baseline_of(id), Some(*ns), "static anchor for {id}");
        }
    }

    #[test]
    fn regression_gate_flags_only_means_past_the_factor() {
        let report = Json::obj(vec![(
            "benches",
            Json::Arr(vec![
                // 2× exactly is not a regression; past 2× is.
                Json::obj(vec![
                    ("id", Json::Str("a".into())),
                    ("mean_ns", Json::U64(200)),
                    ("baseline_mean_ns", Json::U64(100)),
                ]),
                Json::obj(vec![
                    ("id", Json::Str("b".into())),
                    ("mean_ns", Json::U64(201)),
                    ("baseline_mean_ns", Json::U64(100)),
                ]),
                // No baseline: never gated.
                Json::obj(vec![
                    ("id", Json::Str("c".into())),
                    ("mean_ns", Json::U64(1_000_000)),
                    ("baseline_mean_ns", Json::Null),
                ]),
            ]),
        )]);
        let r = regressions(&report, 2.0);
        assert_eq!(r, vec![("b".to_string(), 201, 100)]);
    }
}
