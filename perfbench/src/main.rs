//! End-to-end benchmark of the Open-MX interrupt-coalescing simulator.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! A run simulates fresh *rounds* of one workload (see `workloads.rs`) for
//! `--seconds` of host time. Round `r` draws its inputs from a seed derived
//! from `--seed` and `r`, so a seed always yields the same rounds. Every
//! round is checked: it must drain to quiescence, pass the simulator's
//! sanitizer, and deliver exactly the messages and bytes its inputs posted.
//! Round 0 is also simulated twice before timing starts, and both results
//! must agree to the last counter (the simulator is deterministic).
//!
//! The last stdout line is one JSON object. With `--trace 0` its metrics
//! are the end-to-end ones:
//!
//! * `host_us_per_msg` — host time to simulate one application message
//!   (median over rounds; building a round is excluded),
//! * `setup_s` — host time to draw a round's inputs and build its cluster
//!   (median over [`SETUPS_PER_ROUND`] set-ups after every round),
//! * `sim_latency_us`, `sim_latency_p99_us` — simulated latency, median and
//!   99th percentile,
//! * `irqs_per_msg` — simulated host interrupts per delivered message, the
//!   paper's host-load measure.
//!
//! Host times are clock-normalised. On a shared 2-vCPU Xeon host the
//! effective clock was measured changing by up to 2x for minutes at a
//! time, which moves every wall time with it. So after each round the
//! benchmark also times a fixed reference loop (`reference`, compute-bound
//! like the simulator), and scales each host-time median by
//! `REFERENCE_NOMINAL_S / (median reference time)`:
//! the time on a host where the reference loop takes exactly
//! `REFERENCE_NOMINAL_S`. The reference is part of the benchmark, so a
//! change to the simulator cannot move it. Across rounds, host time
//! spreads with the host's interference more than with the simulator, so
//! no host-time percentile beyond the median is reported.
//!
//! The simulated metrics come from the first [`SIM_ROUNDS`] rounds only,
//! so they are exact functions of the seed. With `--trace 1` the
//! packet-level trace is on and the metrics are per-layer counts, the
//! six-phase latency split of `omx_core::latency`, and the host cost per
//! engine event with tracing on, over the first [`TRACE_SIM_ROUNDS`].

mod workloads;

use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{Outcome, Rng, Workload};

/// Rounds whose simulated results are reported.
const SIM_ROUNDS: usize = 64;
/// The same in trace mode, where the latency attribution of each round
/// costs time quadratic in its trace length.
const TRACE_SIM_ROUNDS: usize = 8;

/// Set-ups timed after every round, each built and dropped at once. The
/// round's own set-up is not timed: it follows the previous round's
/// teardown, so its time depends on what the allocator just released.
const SETUPS_PER_ROUND: usize = 3;

/// Iterations of the reference loop timed after every round.
const REFERENCE_ITERS: u64 = 20_000;
/// Reference-loop duration that host times are normalised to (it measured
/// 1.3–2.4 ms on a shared 2.1 GHz Xeon vCPU, depending on the clock).
const REFERENCE_NOMINAL_S: f64 = 0.002;

/// The reference loop: a small discrete-event core (binary heap of
/// timestamps, hash-map state per entity) written here, so that it never
/// changes with the simulator.
fn reference(iters: u64) -> u64 {
    use std::cmp::Reverse;
    use std::collections::{BinaryHeap, HashMap};
    let mut rng = Rng(iters);
    let mut heap: BinaryHeap<Reverse<(u64, u64)>> =
        (0..64).map(|id| Reverse((rng.below(1_000), id))).collect();
    let mut state: HashMap<u64, u64> = HashMap::new();
    let mut acc = 0u64;
    for _ in 0..iters {
        let Reverse((t, id)) = heap.pop().expect("the heap never drains");
        *state.entry(id % 4_096).or_insert(0) += t;
        acc = acc.wrapping_add(t ^ id);
        heap.push(Reverse((t + 1 + rng.below(1_000), rng.below(1 << 20))));
    }
    acc.wrapping_add(state.len() as u64)
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |_| format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(bad)?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(bad)?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|&s| s > 0)
            .ok_or("--seconds must be positive")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Seed of round `r`: decorrelated from neighbouring rounds and seeds.
fn round_seed(seed: u64, r: usize) -> u64 {
    let mut rng = Rng(seed ^ Rng(r as u64).next());
    rng.next()
}

/// One round end to end: build, simulate (timed), check. Returns the
/// host time of the simulation itself and the checked outcome; a panic
/// inside the simulator counts as a failed check.
fn round(workload: Workload, seed: u64, trace: bool) -> (Duration, Result<Outcome, String>) {
    let mut run = Duration::ZERO;
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut round = workload.prepare(seed, trace);
        let t = Instant::now();
        let stop = round.run();
        run = t.elapsed();
        round.finish(stop)
    }))
    .unwrap_or_else(|panic| {
        let msg = panic
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_default();
        Err(format!("simulator panicked: {msg}"))
    });
    (run, outcome)
}

/// Everything a round reports that must repeat exactly on a re-run.
fn fingerprint(o: &Outcome) -> String {
    use openmx_repro::sim::json::ToJson;
    format!(
        "{} {} {:?}",
        o.events,
        o.metrics.to_json().render(),
        o.latencies_ns
    )
}

/// Nearest-rank quantile of a non-empty sample.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };

    let mut errors = Vec::new();
    let warm = [0, 1].map(|_| round(args.workload, round_seed(args.seed, 0), args.trace).1);
    match (&warm[0], &warm[1]) {
        (Ok(a), Ok(b)) if fingerprint(a) != fingerprint(b) => {
            errors.push("round 0 gave different results on a re-run".to_string())
        }
        (Err(e), _) | (_, Err(e)) => errors.push(format!("round 0: {e}")),
        _ => {}
    }

    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let mut setups = Vec::new();
    let mut host_per_msg = Vec::new();
    let mut host_per_event = Vec::new();
    let mut reference_s = Vec::new();
    let mut sim: Vec<Outcome> = Vec::new();
    let mut attempted = 0u64;
    let sim_rounds = if args.trace {
        TRACE_SIM_ROUNDS
    } else {
        SIM_ROUNDS
    };
    let mut r = 0;
    while errors.is_empty() && (r < sim_rounds || Instant::now() < deadline) {
        let seed = round_seed(args.seed, r);
        let (run, outcome) = round(args.workload, seed, args.trace);
        match outcome {
            Ok(o) => {
                attempted += o.msgs;
                host_per_msg.push(run.as_secs_f64() / o.msgs as f64);
                host_per_event.push(run.as_secs_f64() / o.events as f64);
                if r < sim_rounds {
                    sim.push(o);
                }
            }
            Err(e) => errors.push(format!("round {r}: {e}")),
        }
        let t = Instant::now();
        std::hint::black_box(reference(std::hint::black_box(REFERENCE_ITERS)));
        reference_s.push(t.elapsed().as_secs_f64());
        for _ in 0..SETUPS_PER_ROUND {
            let t = Instant::now();
            let built = args.workload.prepare(seed, args.trace);
            setups.push(t.elapsed().as_secs_f64());
            drop(built);
        }
        r += 1;
    }
    let mut metrics = if !errors.is_empty() {
        Vec::new()
    } else {
        let scale = REFERENCE_NOMINAL_S / quantile(&mut reference_s, 0.5);
        let host = |v: &mut [f64]| quantile(v, 0.5) * scale;
        if args.trace {
            per_layer(&sim, host(&mut host_per_event))
        } else {
            end_to_end(&sim, host(&mut setups), host(&mut host_per_msg))
        }
    };
    if metrics.iter().any(|(_, value, _)| !value.is_finite()) {
        errors.push("a metric is not a finite number".to_string());
        metrics.clear();
    }
    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    // A failed round's message count is unknown once it fails: each
    // failed check counts as one failed operation.
    let failed = errors.len() as u64;
    let metrics: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        errors.is_empty(),
        attempted + failed,
        failed,
        metrics.join(", ")
    );
    ExitCode::SUCCESS
}

type Metric = (&'static str, f64, &'static str);

/// `setup_s` and `host_s_per_msg` are normalised host-time medians.
fn end_to_end(sim: &[Outcome], setup_s: f64, host_s_per_msg: f64) -> Vec<Metric> {
    let mut lat: Vec<f64> = sim
        .iter()
        .flat_map(|o| o.latencies_ns.iter().copied())
        .collect();
    let msgs: u64 = sim.iter().map(|o| o.msgs).sum();
    let irqs: u64 = sim.iter().map(|o| o.metrics.total_interrupts()).sum();
    vec![
        ("host_us_per_msg", host_s_per_msg * 1e6, "us"),
        ("setup_s", setup_s, "s"),
        ("sim_latency_us", quantile(&mut lat, 0.5) / 1e3, "us"),
        ("sim_latency_p99_us", quantile(&mut lat, 0.99) / 1e3, "us"),
        ("irqs_per_msg", irqs as f64 / msgs as f64, "irq/msg"),
    ]
}

/// `host_s_per_event` is a normalised host-time median.
fn per_layer(sim: &[Outcome], host_s_per_event: f64) -> Vec<Metric> {
    let msgs = sim.iter().map(|o| o.msgs).sum::<u64>() as f64;
    let sum = |f: &dyn Fn(&Outcome) -> u64| sim.iter().map(f).sum::<u64>() as f64;
    fn layers(o: &Outcome) -> &workloads::Layers {
        o.layers.as_ref().expect("trace mode records layers")
    }
    let events = sum(&|o| o.events);
    let frames = sum(&|o| o.metrics.frames_carried);
    let irqs = sum(&|o| o.metrics.total_interrupts());
    let analyzed = sum(&|o| layers(o).phases.count);
    // Mean of phase `i` of `PhaseSummary::PHASE_NAMES`, in µs. Phase 3
    // (irq_wake) is zero in every workload, so it is not reported.
    let phase = |i: usize| sum(&|o| layers(o).phases.phase_totals[i]) / analyzed.max(1.0) / 1e3;
    let drops =
        sum(&|o| o.metrics.frames_dropped + o.metrics.switch_drops + o.metrics.total_ring_drops());
    vec![
        ("events_per_msg", events / msgs, "event/msg"),
        (
            "untraced_events_per_msg",
            sum(&|o| layers(o).untraced_events) / msgs,
            "event/msg",
        ),
        ("host_ns_per_event", host_s_per_event * 1e9, "ns"),
        ("frames_per_msg", frames / msgs, "frame/msg"),
        ("drops_per_msg", drops / msgs, "frame/msg"),
        ("wire_us", phase(0), "us"),
        ("dma_wait_us", phase(1), "us"),
        (
            "coalesce_fires_per_msg",
            sum(&|o| layers(o).coalesce_fires) / msgs,
            "fire/msg",
        ),
        ("coalesce_hold_us", phase(2), "us"),
        (
            "pkts_per_irq",
            sum(&|o| o.metrics.total_packets()) / irqs,
            "pkt/irq",
        ),
        ("irq_service_us", phase(4), "us"),
        (
            "irq_busy_us_per_msg",
            sum(&|o| o.metrics.total_irq_busy_ns()) / msgs / 1e3,
            "us/msg",
        ),
        (
            "wakeups_per_msg",
            sum(&|o| o.metrics.total_wakeups()) / msgs,
            "wake/msg",
        ),
        (
            "acks_per_msg",
            sum(&|o| o.metrics.total_acks()) / msgs,
            "ack/msg",
        ),
        (
            "retransmits_per_msg",
            sum(&|o| o.metrics.total_retransmits()) / msgs,
            "pkt/msg",
        ),
        ("delivery_us", phase(5), "us"),
    ]
}
