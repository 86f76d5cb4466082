//! Jumbo frames — §IV-A's side claim.
//!
//! "A larger MTU (9000-bytes jumboframes) would exhibit the same behavior
//! for small messages (where the MTU does not matter) and for
//! proportionally-larger messages." We run the ping-pong at MTU 1500 and
//! 9000 and check both halves of the sentence.

use crate::report::Table;
use omx_core::prelude::*;

/// One (mtu, size, strategy) cell.
#[derive(Debug, Clone)]
pub struct JumboCell {
    /// Fabric MTU.
    pub mtu: u32,
    /// Message size.
    pub msg_len: u32,
    /// Strategy label.
    pub strategy: String,
    /// Half round trip (ns).
    pub half_rtt_ns: u64,
}

/// Full result.
#[derive(Debug, Clone)]
pub struct JumboResult {
    /// All cells.
    pub cells: Vec<JumboCell>,
}

/// Run the MTU comparison.
pub fn run(iterations: u32) -> JumboResult {
    let strategies = [
        ("timeout-75us", CoalescingStrategy::Timeout { delay_us: 75 }),
        ("disabled", CoalescingStrategy::Disabled),
        ("open-mx", CoalescingStrategy::OpenMx { delay_us: 75 }),
    ];
    // Small (MTU-independent), and a "proportionally larger" pair: 32 KiB at
    // MTU 1500 plays the role 192 KiB plays at MTU 9000 (≈ same 23 frames).
    let mut jobs = Vec::new();
    for &(label, strategy) in &strategies {
        for &(mtu, len) in &[
            (1_500u32, 64u32),
            (9_000, 64),
            (1_500, 32 << 10),
            (9_000, 192 << 10),
        ] {
            jobs.push((label, strategy, mtu, len));
        }
    }
    let cells = omx_sim::pool::map(jobs, |(label, strategy, mtu, len)| {
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .strategy(strategy)
            .mtu(mtu)
            .build();
        let r = cluster.run_pingpong(PingPongSpec {
            msg_len: len,
            iterations,
            warmup: iterations / 5,
        });
        JumboCell {
            mtu,
            msg_len: len,
            strategy: label.to_string(),
            half_rtt_ns: r.half_rtt_ns,
        }
    });
    JumboResult { cells }
}

/// Format as a table.
pub fn table(r: &JumboResult) -> Table {
    let mut t = Table::new(vec!["MTU", "size", "strategy", "half RTT (us)"]);
    for c in &r.cells {
        t.row(vec![
            c.mtu.to_string(),
            c.msg_len.to_string(),
            c.strategy.clone(),
            format!("{:.1}", c.half_rtt_ns as f64 / 1e3),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(r: &JumboResult, mtu: u32, len: u32, strategy: &str) -> u64 {
        r.cells
            .iter()
            .find(|c| c.mtu == mtu && c.msg_len == len && c.strategy == strategy)
            .expect("cell")
            .half_rtt_ns
    }

    #[test]
    fn jumbo_frames_preserve_the_small_message_behaviour() {
        let r = run(20);
        // Small messages: MTU is irrelevant, for every strategy.
        for strategy in ["timeout-75us", "disabled", "open-mx"] {
            let at1500 = cell(&r, 1_500, 64, strategy) as f64;
            let at9000 = cell(&r, 9_000, 64, strategy) as f64;
            assert!(
                (at1500 - at9000).abs() / at1500 < 0.02,
                "{strategy}: 64 B latency moved with MTU ({at1500} vs {at9000})"
            );
        }
    }

    #[test]
    fn jumbo_frames_preserve_the_shape_at_proportional_sizes() {
        let r = run(20);
        // The timeout-vs-disabled ratio for a ~23-fragment message is the
        // same story at both MTUs (same interrupt structure, bigger frames).
        let ratio = |mtu: u32, len: u32| {
            cell(&r, mtu, len, "timeout-75us") as f64 / cell(&r, mtu, len, "disabled") as f64
        };
        let std = ratio(1_500, 32 << 10);
        let jumbo = ratio(9_000, 192 << 10);
        assert!(std > 1.1, "timeout must lag at 23 fragments (std {std})");
        assert!(jumbo > 1.05, "same direction with jumbo frames ({jumbo})");
    }
}

omx_sim::impl_to_json!(JumboCell {
    mtu,
    msg_len,
    strategy,
    half_rtt_ns
});
omx_sim::impl_to_json!(JumboResult { cells });
