//! Table II — anatomy of a 234 KiB transfer, plus the §IV-C3 marker
//! ablation.
//!
//! Paper values: Disabled 705 µs / 92.4 interrupts, Timeout-75 762 µs /
//! 14.4, Open-MX 708 µs / 13.7 (counted on both sides). The ablation found
//! marking the rendezvous worth ~20 µs, pull requests ~5 µs, last pull
//! replies ~2 µs, and the notify negligible.

use crate::report::Table;
use omx_core::marking::{MarkClass, MarkingPolicy};
use omx_core::prelude::*;
use omx_core::workloads::transfer::TransferSpec;

/// One strategy row.
#[derive(Debug, Clone)]
pub struct Table2Row {
    /// Strategy label.
    pub strategy: String,
    /// Mean transfer time, nanoseconds.
    pub transfer_ns: f64,
    /// Interrupts per transfer (both sides).
    pub interrupts: f64,
}

/// One marker-ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Which marker class was removed ("none" = full policy).
    pub removed: String,
    /// Mean transfer time, nanoseconds.
    pub transfer_ns: f64,
    /// Slow-down vs the full policy, nanoseconds.
    pub delta_ns: f64,
}

/// Full Table II result.
#[derive(Debug, Clone)]
pub struct Table2Result {
    /// Strategy comparison (the table proper).
    pub rows: Vec<Table2Row>,
    /// Marker ablation (§IV-C3).
    pub ablation: Vec<AblationRow>,
}

fn spec(repeats: u32) -> TransferSpec {
    TransferSpec {
        msg_len: 234 * 1024,
        repeats,
        gap_ns: 400_000,
    }
}

/// Run the experiment.
pub fn run(repeats: u32) -> Table2Result {
    let strategies = vec![
        ("disabled", CoalescingStrategy::Disabled),
        ("timeout-75us", CoalescingStrategy::Timeout { delay_us: 75 }),
        ("open-mx", CoalescingStrategy::OpenMx { delay_us: 75 }),
    ];
    let rows = omx_sim::pool::map(strategies, |(label, strategy)| {
        let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
        let r = cluster.run_transfer(spec(repeats));
        Table2Row {
            strategy: label.to_string(),
            transfer_ns: r.transfer_ns,
            interrupts: r.interrupts_per_transfer,
        }
    });

    // Ablation: Open-MX coalescing with one marker class removed at a time.
    let mut policies: Vec<(String, MarkingPolicy)> =
        vec![("none".to_string(), MarkingPolicy::all())];
    for class in MarkClass::ALL {
        policies.push((class.label().to_string(), MarkingPolicy::all_except(class)));
    }
    let measured = omx_sim::pool::map(policies, |(label, policy)| {
        let mut cluster = ClusterBuilder::new()
            .nodes(2)
            .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
            .marking(policy)
            .build();
        let r = cluster.run_transfer(spec(repeats));
        (label, r.transfer_ns)
    });
    let baseline = measured
        .iter()
        .find(|(l, _)| l == "none")
        .expect("baseline present")
        .1;
    let ablation = measured
        .into_iter()
        .map(|(removed, transfer_ns)| AblationRow {
            removed,
            transfer_ns,
            delta_ns: transfer_ns - baseline,
        })
        .collect();

    Table2Result { rows, ablation }
}

/// Format as tables.
pub fn table(result: &Table2Result) -> (Table, Table) {
    let mut t = Table::new(vec!["strategy", "transfer (us)", "interrupts"]);
    for row in &result.rows {
        t.row(vec![
            row.strategy.clone(),
            format!("{:.0}", row.transfer_ns / 1_000.0),
            format!("{:.1}", row.interrupts),
        ]);
    }
    let mut a = Table::new(vec!["marker removed", "transfer (us)", "delta (us)"]);
    for row in &result.ablation {
        a.row(vec![
            row.removed.clone(),
            format!("{:.0}", row.transfer_ns / 1_000.0),
            format!("{:+.1}", row.delta_ns / 1_000.0),
        ]);
    }
    (t, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_orderings() {
        let r = run(10);
        let row = |label: &str| r.rows.iter().find(|x| x.strategy == label).unwrap();
        let disabled = row("disabled");
        let timeout = row("timeout-75us");
        let openmx = row("open-mx");
        // Time: open-mx tracks disabled; timeout is slower.
        assert!(timeout.transfer_ns > disabled.transfer_ns);
        assert!(openmx.transfer_ns < disabled.transfer_ns * 1.06);
        // Interrupts: disabled raises many; open-mx stays near timeout.
        assert!(disabled.interrupts > timeout.interrupts * 4.0);
        assert!(openmx.interrupts < timeout.interrupts * 1.8);
    }

    #[test]
    fn rendezvous_is_the_most_valuable_marker() {
        let r = run(10);
        let delta = |label: &str| {
            r.ablation
                .iter()
                .find(|x| x.removed == label)
                .unwrap()
                .delta_ns
        };
        // §IV-C3: the rendezvous and pull-request markers carry the
        // handshake latency; the notify marker is worthless (the paper's
        // surprising result, reproduced).
        let rendezvous = delta("rendezvous");
        assert!(
            rendezvous > 10_000.0,
            "rendezvous marker should be worth >10us, got {rendezvous}"
        );
        assert!(delta("pull-request") > 10_000.0);
        assert!(
            delta("pull-reply-last") > 0.0 && delta("pull-reply-last") < rendezvous,
            "reply markers matter, but less than the handshake ones"
        );
        assert!(
            delta("notify").abs() < 5_000.0,
            "the notify marker is ~worthless (paper §IV-C3), got {}",
            delta("notify")
        );
    }
}

omx_sim::impl_to_json!(Table2Row {
    strategy,
    transfer_ns,
    interrupts
});
omx_sim::impl_to_json!(AblationRow {
    removed,
    transfer_ns,
    delta_ns
});
omx_sim::impl_to_json!(Table2Result { rows, ablation });
