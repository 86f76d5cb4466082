//! §VI (future work) — adaptive coalescing.
//!
//! The paper's early tests found adaptive coalescing "helps microbenchmarks
//! but cannot help real applications as well as our firmware modifications
//! do". We compare Adaptive against Timeout-75 and Open-MX on the ping-pong
//! (microbenchmark) and on NAS IS (application).

use crate::report::Table;
use omx_core::prelude::*;
use omx_core::system::ClusterConfig;
use omx_nas::{run_nas, NasBenchmark, NasClass, NasSpec};

/// One comparison row.
#[derive(Debug, Clone)]
pub struct AdaptiveRow {
    /// Workload label.
    pub workload: String,
    /// Strategy label.
    pub strategy: String,
    /// Metric value (µs for ping-pong, seconds for IS).
    pub value: f64,
}

/// Full comparison.
#[derive(Debug, Clone)]
pub struct AdaptiveResult {
    /// All rows.
    pub rows: Vec<AdaptiveRow>,
}

fn strategies() -> Vec<(&'static str, CoalescingStrategy)> {
    vec![
        ("timeout-75us", CoalescingStrategy::Timeout { delay_us: 75 }),
        (
            "adaptive",
            CoalescingStrategy::Adaptive {
                min_delay_us: 0,
                max_delay_us: 75,
            },
        ),
        ("open-mx", CoalescingStrategy::OpenMx { delay_us: 75 }),
    ]
}

/// Run the comparison. `is_class_b` keeps runtimes short when true.
pub fn run(pingpong_iters: u32, is_class_b: bool) -> AdaptiveResult {
    // Microbenchmark: small-message ping-pong latency.
    let micro = omx_sim::pool::map(strategies(), |(label, strategy)| {
        let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
        let r = cluster.run_pingpong(PingPongSpec {
            msg_len: 8,
            iterations: pingpong_iters,
            warmup: pingpong_iters / 5,
        });
        AdaptiveRow {
            workload: "pingpong 8 B (us, half RTT)".to_string(),
            strategy: label.to_string(),
            value: r.half_rtt_ns as f64 / 1_000.0,
        }
    });
    // Application: NAS IS.
    let spec = NasSpec {
        benchmark: NasBenchmark::Is,
        class: if is_class_b { NasClass::B } else { NasClass::C },
    };
    let app = omx_sim::pool::map(strategies(), |(label, strategy)| {
        let mut cfg = ClusterConfig::default();
        cfg.nic.strategy = strategy;
        let report = run_nas(spec, cfg).expect("runnable");
        AdaptiveRow {
            workload: format!("{} (s)", spec.name()),
            strategy: label.to_string(),
            value: report.elapsed_ns as f64 / 1e9,
        }
    });
    let mut rows = micro;
    rows.extend(app);
    AdaptiveResult { rows }
}

/// Format as a table.
pub fn table(result: &AdaptiveResult) -> Table {
    let mut t = Table::new(vec!["workload", "strategy", "value"]);
    for row in &result.rows {
        t.row(vec![
            row.workload.clone(),
            row.strategy.clone(),
            format!("{:.2}", row.value),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_helps_the_microbenchmark() {
        let r = run(20, true);
        let value = |workload_prefix: &str, strategy: &str| {
            r.rows
                .iter()
                .find(|x| x.workload.starts_with(workload_prefix) && x.strategy == strategy)
                .unwrap()
                .value
        };
        // §VI: adaptive coalescing helps the ping-pong (low traffic → short
        // delays) relative to the fixed 75 µs timeout...
        let adaptive = value("pingpong", "adaptive");
        let timeout = value("pingpong", "timeout-75us");
        assert!(
            adaptive < timeout * 0.6,
            "adaptive {adaptive}us vs timeout {timeout}us"
        );
        // ... but does not beat the message-aware strategy on the
        // application.
        let adaptive_is = value("is.", "adaptive");
        let openmx_is = value("is.", "open-mx");
        assert!(
            openmx_is <= adaptive_is * 1.02,
            "open-mx {openmx_is}s should at least match adaptive {adaptive_is}s on IS"
        );
    }
}

omx_sim::impl_to_json!(AdaptiveRow {
    workload,
    strategy,
    value
});
omx_sim::impl_to_json!(AdaptiveResult { rows });
