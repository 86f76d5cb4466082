//! Golden determinism test for the simulation substrate.
//!
//! The paper reproduction stands on one property: a fixed configuration
//! produces *exactly* the same results on every run, on every machine, with
//! any internally-equivalent event-queue implementation. This test pins the
//! full Table I experiment (12 cells: 3 message sizes × 4 coalescing
//! strategies, two-node clusters, thousands of messages each) against a
//! golden JSON rendering captured from the pre-timer-wheel binary-heap
//! queue. It fails if *anything* perturbs dispatch order: a queue that
//! reorders same-`(time, seq)` events, a model that iterates a
//! randomized-seed `HashMap`, or a change to the experiment itself.
//!
//! If the experiment is changed intentionally, regenerate the golden with:
//! `cargo run --release -p omx-bench -- table1 && cp
//! results/table1_message_rate.json crates/bench/tests/golden/table1.json`.

use omx_bench::experiments::table1;
use omx_sim::json::ToJson;

const GOLDEN: &str = include_str!("golden/table1.json");

#[test]
fn table1_results_are_byte_identical_to_golden() {
    let result = table1::run();
    let rendered = result.to_json().render_pretty();
    assert!(
        rendered == GOLDEN,
        "table1 results diverged from the golden file.\n\
         If this change is an intentional behavioural change, regenerate\n\
         crates/bench/tests/golden/table1.json (see module docs). Otherwise\n\
         the event-dispatch order is no longer deterministic.\n\
         --- golden ---\n{GOLDEN}\n--- got ---\n{rendered}"
    );
}

// ---------------------------------------------------------------------------
// Scale campaign determinism
// ---------------------------------------------------------------------------

use omx_bench::experiments::scale;

const SCALE_GOLDEN: &str = include_str!("golden/scale_cell.json");

/// One representative scale cell (16-node 64 KiB allreduce, default
/// strategy) pinned byte-for-byte. Regenerate after intentional changes:
/// `cargo run --release -p omx-bench --example` is not needed — the test
/// prints the new rendering on mismatch; paste it into
/// `crates/bench/tests/golden/scale_cell.json`.
#[test]
fn scale_cell_is_byte_identical_to_golden() {
    let rendered = scale::golden_cell().to_json().render_pretty();
    assert!(
        rendered == SCALE_GOLDEN,
        "the golden scale cell diverged.\n\
         If this change is intentional, update\n\
         crates/bench/tests/golden/scale_cell.json. Otherwise the scale-out\n\
         path is no longer deterministic.\n\
         --- golden ---\n{SCALE_GOLDEN}\n--- got ---\n{rendered}"
    );
}

/// The full quick campaign renders byte-identically across two in-process
/// runs — the same property `omx-bench scale` relies on for its
/// `results/scale.json` artifact.
#[test]
fn scale_quick_report_is_byte_identical_across_runs() {
    let a = scale::run(true, false).to_json().render_pretty();
    let b = scale::run(true, false).to_json().render_pretty();
    assert!(a == b, "scale quick report differs between two runs");
}

// ---------------------------------------------------------------------------
// Offload campaign determinism
// ---------------------------------------------------------------------------

use omx_bench::experiments::offload;

const OFFLOAD_GOLDEN: &str = include_str!("golden/offload_cell.json");

/// One representative offload cell (16-node 8 B allreduce in `nic-offload`
/// mode) pinned byte-for-byte — covering the NIC-resident schedule, the
/// completion-IRQ accounting, and the SLO harvest. On an intentional
/// change, paste the rendering this test prints into
/// `crates/bench/tests/golden/offload_cell.json`.
#[test]
fn offload_cell_is_byte_identical_to_golden() {
    let rendered = offload::golden_cell().to_json().render_pretty();
    assert!(
        rendered == OFFLOAD_GOLDEN,
        "the golden offload cell diverged.\n\
         If this change is intentional, update\n\
         crates/bench/tests/golden/offload_cell.json. Otherwise the\n\
         NIC-offload path is no longer deterministic.\n\
         --- golden ---\n{OFFLOAD_GOLDEN}\n--- got ---\n{rendered}"
    );
}

/// The full quick campaign renders byte-identically across two in-process
/// runs — the property `omx-bench offload` relies on for its
/// `results/offload.json` artifact.
#[test]
fn offload_quick_report_is_byte_identical_across_runs() {
    let a = offload::run(true).to_json().render_pretty();
    let b = offload::run(true).to_json().render_pretty();
    assert!(a == b, "offload quick report differs between two runs");
}

/// The offload campaign's host-mode cells run the scale campaign's worlds,
/// so wherever the two quick sweeps overlap (barrier and 8 B allreduce on
/// 4-16 nodes under every strategy) the two reports agree.
#[test]
fn offload_host_cells_equal_the_overlapping_scale_cells() {
    let scale = scale::run(true, false);
    let offload = offload::run(true);
    let mut overlap = 0;
    for o in offload
        .cells
        .iter()
        .filter(|c| c.mode != offload::OFFLOAD_MODE)
    {
        let Some(s) = scale.cells.iter().find(|s| {
            (&s.collective, s.bytes, s.nodes, &s.strategy)
                == (&o.collective, o.bytes, o.nodes, &o.mode)
        }) else {
            continue;
        };
        let what = format!(
            "{} {} B, {} nodes, {}",
            o.collective, o.bytes, o.nodes, o.mode
        );
        assert_eq!(s.completion_ns, o.completion_ns, "completion_ns: {what}");
        assert_eq!(
            s.total_interrupts, o.total_interrupts,
            "total_interrupts: {what}"
        );
        assert_eq!(
            s.interrupts_per_node, o.interrupts_per_node,
            "interrupts_per_node: {what}"
        );
        assert_eq!(s.retransmits, o.retransmits, "retransmits: {what}");
        assert_eq!(s.iterations, o.iterations, "iterations: {what}");
        overlap += 1;
    }
    // Barrier and 8 B allreduce × 3 node counts × 5 strategies.
    assert_eq!(overlap, 30, "the quick sweeps overlap in 30 cells");
}
