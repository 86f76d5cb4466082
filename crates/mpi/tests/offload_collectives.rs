//! End-to-end tests of NIC-resident collectives ([`CollectiveExec::NicOffload`]):
//! exactly-once completion, byte conservation at quiescence, hop-count-independent
//! interrupt load, loss recovery, and serial/parallel byte-identity.

use omx_core::system::ClusterConfig;
use omx_mpi::{CollectiveExec, MpiWorld, Op, WorldSpec};

fn offload_world(ranks: usize, rpn: usize, cfg: ClusterConfig) -> MpiWorld {
    MpiWorld::new(
        WorldSpec {
            ranks,
            ranks_per_node: rpn,
        },
        cfg,
    )
    .with_collective_exec(CollectiveExec::NicOffload)
}

/// One offloaded barrier + bcast + allreduce per rank.
fn coll_program(_rank: usize) -> Vec<Op> {
    vec![
        Op::Barrier,
        Op::Bcast {
            root: 0,
            bytes: 256,
        },
        Op::Allreduce { bytes: 8 },
    ]
}

/// Every world size from 2 to 64 ranks completes all three offloaded
/// collectives exactly once per rank and drains to quiescence with the
/// sanitizer's byte-conservation invariants intact (`run_drained` asserts
/// them; `pending_report` additionally flags stranded offload state).
#[test]
fn exactly_once_and_conserved_at_every_world_size() {
    for ranks in 2..=64usize {
        let (report, _san) =
            offload_world(ranks, 2, ClusterConfig::default()).run_drained(coll_program);
        assert_eq!(report.per_rank_finish_ns.len(), ranks, "{ranks} ranks");
        let posted: u64 = report.offload.iter().map(|c| c.ops_posted).sum();
        let completed: u64 = report.offload.iter().map(|c| c.ops_completed).sum();
        assert_eq!(posted, 3 * ranks as u64, "{ranks} ranks: posts");
        assert_eq!(completed, posted, "{ranks} ranks: exactly-once completion");
        let dupes: u64 = report.offload.iter().map(|c| c.duplicates).sum();
        let retx: u64 = report.offload.iter().map(|c| c.retransmits).sum();
        assert_eq!(retx, 0, "{ranks} ranks: lossless run retransmitted");
        assert_eq!(dupes, 0, "{ranks} ranks: lossless run saw duplicates");
    }
}

/// The paper-side claim the offload engine exists to make: per-host
/// interrupt load is exactly one completion IRQ per op per resident rank —
/// independent of the ⌈log₂ P⌉ hop count, so constant across world sizes.
#[test]
fn interrupt_load_is_independent_of_hop_count() {
    let rpn = 2usize;
    let ops = 3u64;
    for ranks in [4usize, 8, 16, 32, 64] {
        let (report, _) =
            offload_world(ranks, rpn, ClusterConfig::default()).run_drained(coll_program);
        for (node, m) in report.metrics.nodes.iter().enumerate() {
            assert_eq!(
                m.nic.interrupts.get(),
                rpn as u64 * ops,
                "{ranks} ranks: node {node} interrupt count varies with scale"
            );
        }
    }
}

/// Offloaded collectives survive injected frame loss: the NIC-to-NIC
/// ack/RTO machinery retransmits until every hop lands, the job still
/// completes exactly once per rank, and the drain reaches quiescence.
#[test]
fn loss_injected_run_drains_to_quiescence() {
    let mut cfg = ClusterConfig::default();
    cfg.fabric.disturbance.loss_probability = 0.05;
    let (report, san) = offload_world(16, 2, cfg).run_drained(coll_program);
    assert_eq!(report.per_rank_finish_ns.len(), 16);
    let completed: u64 = report.offload.iter().map(|c| c.ops_completed).sum();
    assert_eq!(completed, 3 * 16, "every op completed exactly once");
    let retx: u64 = report.offload.iter().map(|c| c.retransmits).sum();
    assert!(retx > 0, "5% loss over 16 ranks should trigger retransmits");
    assert!(san.all_violations().is_empty());
}

/// Collectives the firmware cannot run (payload over the cap, alltoall)
/// transparently fall back to host execution inside the same program.
#[test]
fn oversized_and_unsupported_collectives_fall_back_to_host() {
    let (report, _) = offload_world(8, 2, ClusterConfig::default()).run_drained(|_| {
        vec![
            Op::Barrier, // offloaded
            Op::Bcast {
                root: 0,
                bytes: 64_000,
            }, // over max_payload → host
            Op::Alltoall { bytes: 512 }, // never offloaded
            Op::Allreduce { bytes: 8 }, // offloaded
        ]
    });
    let posted: u64 = report.offload.iter().map(|c| c.ops_posted).sum();
    assert_eq!(
        posted,
        2 * 8,
        "barrier + small allreduce offloaded per rank"
    );
    let completed: u64 = report.offload.iter().map(|c| c.ops_completed).sum();
    assert_eq!(completed, posted);
    // The host path carried the big bcast + alltoall over the fabric.
    assert!(report.metrics.frames_carried > 0);
}
