//! Figures 5 & 6 — ping-pong transfer time across message sizes.
//!
//! Figure 5 compares the default 75 µs timeout against disabled coalescing;
//! Figure 6 adds the Open-MX strategy. Values are normalized per size to
//! the fastest strategy, like the paper's "Normalized Transfer Time" axis:
//! timeout coalescing is ~7× worse at 1 B and disabled coalescing is the
//! slow one at 1 MiB, with Open-MX tracking the best of both everywhere.

use crate::report::Table;
use omx_core::prelude::*;

/// One (size, strategy) measurement.
#[derive(Debug, Clone)]
pub struct PingPongPoint {
    /// Strategy label.
    pub strategy: String,
    /// Message size in bytes.
    pub msg_len: u32,
    /// Mean half round trip, nanoseconds.
    pub half_rtt_ns: u64,
    /// Transfer time normalized to the fastest strategy at this size.
    pub normalized: f64,
}

/// Full sweep result.
#[derive(Debug, Clone)]
pub struct PingPongResult {
    /// Whether the Open-MX strategy is included (Fig. 6) or not (Fig. 5).
    pub with_openmx: bool,
    /// All points.
    pub points: Vec<PingPongPoint>,
}

/// The paper's x-axis: 1 B to 1 MiB.
pub fn sizes() -> Vec<u32> {
    vec![
        1,
        4,
        16,
        64,
        128,
        256,
        1 << 10,
        4 << 10,
        16 << 10,
        32 << 10,
        64 << 10,
        256 << 10,
        1 << 20,
    ]
}

/// Run the sweep; `with_openmx` selects Fig. 6 (true) vs Fig. 5 (false).
pub fn run(with_openmx: bool, iterations: u32) -> PingPongResult {
    let mut strategies = vec![
        ("timeout-75us", CoalescingStrategy::Timeout { delay_us: 75 }),
        ("disabled", CoalescingStrategy::Disabled),
    ];
    if with_openmx {
        strategies.push(("open-mx", CoalescingStrategy::OpenMx { delay_us: 75 }));
    }
    let mut jobs = Vec::new();
    for &(label, strategy) in &strategies {
        for &len in &sizes() {
            jobs.push((label, strategy, len));
        }
    }
    let raw = omx_sim::pool::map(jobs, |(label, strategy, len)| {
        let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
        let r = cluster.run_pingpong(PingPongSpec {
            msg_len: len,
            iterations,
            warmup: iterations / 5,
        });
        (label.to_string(), len, r.half_rtt_ns)
    });
    // Normalize per size to the fastest strategy.
    let mut points = Vec::with_capacity(raw.len());
    for &len in &sizes() {
        let best = raw
            .iter()
            .filter(|(_, l, _)| *l == len)
            .map(|(_, _, t)| *t)
            .min()
            .expect("size measured") as f64;
        for (label, l, t) in &raw {
            if *l == len {
                points.push(PingPongPoint {
                    strategy: label.clone(),
                    msg_len: len,
                    half_rtt_ns: *t,
                    normalized: *t as f64 / best,
                });
            }
        }
    }
    PingPongResult {
        with_openmx,
        points,
    }
}

/// Format as a table.
pub fn table(result: &PingPongResult) -> Table {
    let mut t = Table::new(vec!["size (B)", "strategy", "half RTT (us)", "normalized"]);
    for p in &result.points {
        t.row(vec![
            p.msg_len.to_string(),
            p.strategy.clone(),
            format!("{:.1}", p.half_rtt_ns as f64 / 1_000.0),
            format!("{:.2}", p.normalized),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point<'a>(r: &'a PingPongResult, strategy: &str, len: u32) -> &'a PingPongPoint {
        r.points
            .iter()
            .find(|p| p.strategy == strategy && p.msg_len == len)
            .expect("point")
    }

    #[test]
    fn fig5_small_and_large_crossover() {
        let r = run(false, 20);
        // Small messages: timeout is several times slower than disabled.
        assert!(point(&r, "timeout-75us", 1).normalized > 3.0);
        assert!(point(&r, "disabled", 1).normalized < 1.05);
        // Large messages: disabled is the slower one (the paper's gap is
        // ~15-20 %; ours is a little smaller because the ping-pong receiver
        // polls, so only per-interrupt dispatch is on the critical path).
        assert!(point(&r, "disabled", 1 << 20).normalized > 1.04);
        assert!(point(&r, "timeout-75us", 1 << 20).normalized < 1.1);
    }

    #[test]
    fn fig6_openmx_tracks_the_best_everywhere() {
        let r = run(true, 20);
        for &len in &sizes() {
            let openmx = point(&r, "open-mx", len).normalized;
            assert!(
                openmx < 1.25,
                "open-mx normalized {openmx} at {len} B — should track the best"
            );
        }
    }
}

omx_sim::impl_to_json!(PingPongPoint {
    strategy,
    msg_len,
    half_rtt_ns,
    normalized
});
omx_sim::impl_to_json!(PingPongResult {
    with_openmx,
    points
});
