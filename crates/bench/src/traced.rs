//! `omx-bench trace <experiment>` — capture structured traces.
//!
//! Runs a small representative scenario of an experiment with packet-level
//! tracing enabled, then writes three artifacts per strategy under
//! `results/`:
//!
//! * `trace_<exp>_<strategy>.chrome.json` — Chrome trace-event format; load
//!   in Perfetto (<https://ui.perfetto.dev>) or `chrome://tracing`,
//! * `trace_<exp>_<strategy>.jsonl` — one JSON object per event,
//! * `trace_<exp>_<strategy>.txt` — human-readable timeline.
//!
//! It also prints a per-strategy latency attribution (mean phase
//! decomposition over the delivered messages) and, when both the `timeout`
//! and `disabled` strategies are in the scenario, states how much of the
//! latency gap between them the coalesce-hold phase explains — the paper's
//! Figure 5 plateau, made mechanical.

use omx_core::latency::{self, LatencyBreakdown, PhaseSummary};
use omx_core::prelude::*;
use omx_core::trace::TraceEvent;
use std::path::Path;

use crate::report::write_artifact;

/// Trace buffer capacity: large enough that a capture scenario never
/// evicts (a ping-pong iteration is ~7 events per direction).
const TRACE_CAPACITY: usize = 1 << 16;

/// One traced strategy run.
pub struct TraceCapture {
    /// Strategy label (file-name friendly).
    pub strategy: String,
    /// Mean half round trip reported by the workload, nanoseconds.
    pub half_rtt_ns: u64,
    /// Per-message latency decompositions.
    pub breakdowns: Vec<LatencyBreakdown>,
    /// Aggregate of `breakdowns`.
    pub summary: PhaseSummary,
}

/// A traced strategy: file-name label and configuration.
type Traced = (&'static str, CoalescingStrategy);

const TIMEOUT: Traced = ("timeout-75us", CoalescingStrategy::Timeout { delay_us: 75 });
const DISABLED: Traced = ("disabled", CoalescingStrategy::Disabled);
const OPENMX: Traced = ("open-mx", CoalescingStrategy::OpenMx { delay_us: 75 });

/// `(experiment, ping-pong message length, strategies traced)` for every
/// experiment the trace subcommand understands.
const SCENARIOS: &[(&str, u32, &[Traced])] = &[
    // The paper's headline latency case: 0-byte ping-pong, where the
    // 75 µs hold dominates end-to-end latency (Fig. 5 left edge).
    ("fig5", 0, &[TIMEOUT, DISABLED]),
    ("fig6", 0, &[TIMEOUT, DISABLED, OPENMX]),
    ("pingpong", 0, &[TIMEOUT, DISABLED]),
    // Table II's 234 KiB transfer anatomy.
    ("table2", 234 * 1024, &[TIMEOUT, DISABLED, OPENMX]),
];

/// Experiments the trace subcommand understands.
pub fn supported() -> Vec<&'static str> {
    SCENARIOS
        .iter()
        .map(|&(experiment, ..)| experiment)
        .collect()
}

fn scenario(experiment: &str) -> Option<(u32, &'static [Traced])> {
    SCENARIOS
        .iter()
        .find(|&&(name, ..)| name == experiment)
        .map(|&(_, msg_len, strategies)| (msg_len, strategies))
}

fn capture_one(
    experiment: &str,
    label: &str,
    strategy: CoalescingStrategy,
    msg_len: u32,
    iterations: u32,
) -> TraceCapture {
    let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
    cluster.enable_tracing(TRACE_CAPACITY);
    let report = cluster.run_pingpong(PingPongSpec {
        msg_len,
        iterations,
        warmup: 1,
    });
    let tracer = cluster.tracer().expect("tracing enabled");
    let events: Vec<TraceEvent> = tracer.events().copied().collect();
    let breakdowns = latency::analyze(&events);
    let summary = PhaseSummary::of(&breakdowns);

    let path = |ext: &str| Path::new("results").join(format!("trace_{experiment}_{label}.{ext}"));
    write_artifact(
        &path("chrome.json"),
        &tracer.to_chrome_json().render_pretty(),
    );
    write_artifact(&path("jsonl"), &tracer.to_jsonl());
    write_artifact(&path("txt"), &tracer.render());
    TraceCapture {
        strategy: label.to_string(),
        half_rtt_ns: report.half_rtt_ns,
        breakdowns,
        summary,
    }
}

/// Run the trace subcommand.
pub fn run(experiment: &str, quick: bool) -> Result<(), String> {
    let Some((msg_len, strategies)) = scenario(experiment) else {
        return Err(format!(
            "experiment '{experiment}' has no trace scenario (supported: {})",
            supported().join(", ")
        ));
    };
    let iterations = if quick { 5 } else { 20 };
    println!(
        "== trace capture: {experiment} ({} B ping-pong, {iterations} iterations) ==",
        msg_len
    );
    let mut captures = Vec::new();
    for &(label, strategy) in strategies {
        let cap = capture_one(experiment, label, strategy, msg_len, iterations);
        println!(
            "-- {} (half RTT {:.1} us) --",
            cap.strategy,
            cap.half_rtt_ns as f64 / 1_000.0
        );
        print!("{}", cap.summary.render());
        captures.push(cap);
    }
    attribution(&captures);
    Ok(())
}

/// When the scenario contains both the timeout and disabled strategies,
/// report how much of their latency gap the coalesce-hold phase explains.
fn attribution(captures: &[TraceCapture]) {
    let find = |l: &str| captures.iter().find(|c| c.strategy == l);
    let (Some(timeout), Some(disabled)) = (find("timeout-75us"), find("disabled")) else {
        return;
    };
    let gap = timeout
        .summary
        .mean_total_ns()
        .saturating_sub(disabled.summary.mean_total_ns());
    if gap == 0 {
        return;
    }
    // coalesce_hold is phase index 2 (see PhaseSummary::PHASE_NAMES).
    let hold_gap = timeout
        .summary
        .mean_phase_ns(2)
        .saturating_sub(disabled.summary.mean_phase_ns(2));
    println!(
        "\ntimeout-75us is {:.1} us slower per message than disabled; \
         the coalesce-hold phase accounts for {:.1} us of that ({:.0}%).",
        gap as f64 / 1_000.0,
        hold_gap as f64 / 1_000.0,
        100.0 * hold_gap as f64 / gap as f64
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_supported_experiment_has_a_scenario() {
        assert_eq!(supported(), ["fig5", "fig6", "pingpong", "table2"]);
        for exp in supported() {
            assert!(scenario(exp).is_some(), "{exp} must have a scenario");
        }
        assert!(scenario("fig4").is_none());
    }

    #[test]
    fn zero_byte_pingpong_attributes_gap_to_coalesce_hold() {
        // The acceptance scenario: under the 75 µs timeout the coalesce-hold
        // phase dominates a 0-byte ping-pong; with coalescing disabled it
        // vanishes.
        let run = |strategy| {
            let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
            cluster.enable_tracing(TRACE_CAPACITY);
            cluster.run_pingpong(PingPongSpec {
                msg_len: 0,
                iterations: 5,
                warmup: 1,
            });
            let events: Vec<omx_core::trace::TraceEvent> = cluster
                .tracer()
                .expect("enabled")
                .events()
                .copied()
                .collect();
            let b = omx_core::latency::analyze(&events);
            assert!(!b.is_empty(), "breakdowns assembled");
            for x in &b {
                assert_eq!(x.phase_sum(), x.total_ns(), "phases sum to total");
            }
            PhaseSummary::of(&b)
        };
        let timeout = run(CoalescingStrategy::Timeout { delay_us: 75 });
        let disabled = run(CoalescingStrategy::Disabled);
        // ~75 us of hold under the timeout strategy...
        assert!(
            timeout.mean_phase_ns(2) > 50_000,
            "timeout coalescing holds packets ({} ns)",
            timeout.mean_phase_ns(2)
        );
        // ...and (near) none when disabled.
        assert!(
            disabled.mean_phase_ns(2) < 5_000,
            "disabled coalescing holds nothing ({} ns)",
            disabled.mean_phase_ns(2)
        );
        assert!(timeout.mean_total_ns() > disabled.mean_total_ns());
    }
}
