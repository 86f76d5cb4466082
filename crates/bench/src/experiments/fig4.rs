//! Figure 4 — message rate of a 128 B stream vs. interrupt coalescing delay
//! for three host configurations.
//!
//! Paper shape: the default configuration (interrupts on all cores, sleeping
//! possible) reaches ~433k msg/s at large delays and loses more than half of
//! that at delay 0; binding interrupts to one core and disabling sleep
//! recovers most of the low-delay loss.

use crate::report::Table;
use omx_core::prelude::*;
use omx_host::IrqRouting;

/// One measured point.
#[derive(Debug, Clone)]
pub struct Fig4Point {
    /// Host configuration label.
    pub config: String,
    /// Coalescing delay in microseconds (0 = disabled).
    pub delay_us: u64,
    /// Receiver-side message rate.
    pub msgs_per_sec: f64,
    /// Receiver interrupts per message.
    pub interrupts_per_msg: f64,
    /// Receiver C1E wakeups.
    pub wakeups: u64,
}

/// Full Figure 4 dataset.
#[derive(Debug, Clone)]
pub struct Fig4Result {
    /// All sweep points.
    pub points: Vec<Fig4Point>,
}

/// Host configurations of the figure's three curves.
fn configs() -> Vec<(&'static str, IrqRouting, bool)> {
    vec![
        (
            "single-core, sleeping disabled",
            IrqRouting::Fixed(1),
            false,
        ),
        ("single-core, sleeping possible", IrqRouting::Fixed(1), true),
        (
            "all-cores, sleeping possible (default)",
            IrqRouting::RoundRobin,
            true,
        ),
    ]
}

/// Run the sweep.
pub fn run(messages: u32) -> Fig4Result {
    let delays: Vec<u64> = vec![0, 5, 10, 15, 20, 25, 30, 40, 50, 60, 70, 75, 80];
    let mut jobs = Vec::new();
    for (label, routing, sleep) in configs() {
        for &delay in &delays {
            jobs.push((label, routing, sleep, delay));
        }
    }
    let points = omx_sim::pool::map(jobs, |(label, routing, sleep, delay)| {
        let strategy = if delay == 0 {
            CoalescingStrategy::Disabled
        } else {
            CoalescingStrategy::Timeout { delay_us: delay }
        };
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .strategy(strategy)
            .routing(routing)
            .sleep(sleep)
            .build();
        let r = cluster.run_stream(StreamSpec {
            msg_len: 128,
            messages,
            window: 32,
        });
        Fig4Point {
            config: label.to_string(),
            delay_us: delay,
            msgs_per_sec: r.msgs_per_sec,
            interrupts_per_msg: r.interrupts_per_msg,
            wakeups: r.rx_wakeups,
        }
    });
    Fig4Result { points }
}

/// Format as a table.
pub fn table(result: &Fig4Result) -> Table {
    let mut t = Table::new(vec!["config", "delay (us)", "msg/s", "irq/msg", "wakeups"]);
    for p in &result.points {
        t.row(vec![
            p.config.clone(),
            p.delay_us.to_string(),
            format!("{:.0}", p.msgs_per_sec),
            format!("{:.3}", p.interrupts_per_msg),
            p.wakeups.to_string(),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_paper() {
        let result = run(800);
        let rate = |config: &str, delay: u64| {
            result
                .points
                .iter()
                .find(|p| p.config.starts_with(config) && p.delay_us == delay)
                .map(|p| p.msgs_per_sec)
                .expect("point exists")
        };
        // Default config: delay 0 loses more than a third vs delay 75.
        let default_75 = rate("all-cores", 75);
        let default_0 = rate("all-cores", 0);
        assert!(
            default_75 > default_0 * 1.5,
            "default 75us {default_75} vs 0us {default_0}"
        );
        // Disabling sleep helps at delay 0.
        let nosleep_0 = rate("single-core, sleeping disabled", 0);
        assert!(nosleep_0 > default_0, "{nosleep_0} vs {default_0}");
    }
}

omx_sim::impl_to_json!(Fig4Point {
    config,
    delay_us,
    msgs_per_sec,
    interrupts_per_msg,
    wakeups,
});
omx_sim::impl_to_json!(Fig4Result { points });
