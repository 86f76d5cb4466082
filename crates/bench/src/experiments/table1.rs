//! Table I — message rate by size and coalescing strategy.
//!
//! Paper values (msg/s, receiver side):
//!
//! | size   | Default | Disabled | Open-MX | Stream |
//! |--------|---------|----------|---------|--------|
//! | 0 B    | 490k    | 252k     | 423k    | 435k   |
//! | 32 KiB | 14507   | 6476     | 14533   | 14691  |
//! | 1 MiB  | 452     | 334      | 451     | 447    |

use super::paper_strategies;
use crate::report::Table;
use omx_core::prelude::*;

/// One cell of the table.
#[derive(Debug, Clone)]
pub struct Table1Cell {
    /// Message size in bytes.
    pub msg_len: u32,
    /// Strategy label.
    pub strategy: String,
    /// Receiver-side message rate.
    pub msgs_per_sec: f64,
    /// Receiver interrupts per message.
    pub interrupts_per_msg: f64,
}

/// Full table.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// All cells.
    pub cells: Vec<Table1Cell>,
}

/// Messages per size class — fewer for big messages to bound run time.
fn messages_for(len: u32) -> u32 {
    match len {
        0..=1024 => 1_500,
        1025..=65_536 => 400,
        _ => 60,
    }
}

/// Run the table.
pub fn run() -> Table1Result {
    let sizes = [0u32, 32 << 10, 1 << 20];
    let mut jobs = Vec::new();
    for &len in &sizes {
        for (label, strategy) in paper_strategies() {
            jobs.push((len, label, strategy));
        }
    }
    let cells = omx_sim::pool::map(jobs, |(len, label, strategy)| {
        let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
        let r = cluster.run_stream(StreamSpec {
            msg_len: len,
            messages: messages_for(len),
            window: 32,
        });
        Table1Cell {
            msg_len: len,
            strategy: label.to_string(),
            msgs_per_sec: r.msgs_per_sec,
            interrupts_per_msg: r.interrupts_per_msg,
        }
    });
    Table1Result { cells }
}

/// Format as a table (strategies as columns, like the paper).
pub fn table(result: &Table1Result) -> Table {
    let mut t = Table::new(vec!["size", "default", "disabled", "open-mx", "stream"]);
    for &len in &[0u32, 32 << 10, 1 << 20] {
        let cell = |strategy: &str| {
            result
                .cells
                .iter()
                .find(|c| c.msg_len == len && c.strategy == strategy)
                .map(|c| format!("{:.0}", c.msgs_per_sec))
                .unwrap_or_default()
        };
        let label = match len {
            0 => "0 B".to_string(),
            l if l >= 1 << 20 => format!("{} MiB", l >> 20),
            l => format!("{} KiB", l >> 10),
        };
        t.row(vec![
            label,
            cell("default"),
            cell("disabled"),
            cell("open-mx"),
            cell("stream"),
        ]);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rates_follow_paper_ordering() {
        let r = run();
        let rate = |len: u32, strategy: &str| {
            r.cells
                .iter()
                .find(|c| c.msg_len == len && c.strategy == strategy)
                .unwrap()
                .msgs_per_sec
        };
        // 0 B row: disabled roughly halves the default rate (paper: 490k
        // vs 252k).
        assert!(rate(0, "default") > rate(0, "disabled") * 1.6);
        // Stream beats plain Open-MX at 0 B (its design goal).
        assert!(rate(0, "stream") > rate(0, "open-mx") * 1.2);
        // 32 KiB: open-mx and stream track the default closely; disabled lags
        // (the paper's gap is larger — see EXPERIMENTS.md).
        assert!(rate(32 << 10, "open-mx") > rate(32 << 10, "default") * 0.9);
        assert!(rate(32 << 10, "disabled") < rate(32 << 10, "default") * 0.92);
        // 1 MiB: disabled is the slow column.
        assert!(rate(1 << 20, "disabled") < rate(1 << 20, "default") * 0.9);
        assert!(rate(1 << 20, "open-mx") > rate(1 << 20, "default") * 0.85);
    }
}

omx_sim::impl_to_json!(Table1Cell {
    msg_len,
    strategy,
    msgs_per_sec,
    interrupts_per_msg,
});
omx_sim::impl_to_json!(Table1Result { cells });
