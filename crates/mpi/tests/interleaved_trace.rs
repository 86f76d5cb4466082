//! Pinned packet traces where DMA completions interleave.
//!
//! Two small runs whose traces hold many DMA completions between other
//! events: a 32 KiB Open-MX ping-pong, whose messages travel as trains of
//! medium fragments, and a 4-node alltoall through 32-frame switch buffers,
//! where every node's completions interleave with the other nodes' events.
//! Both stop by predicate, not by draining the queue. The trace must record
//! each completion at its own place in the run, whether or not it had an
//! event of its own; this test compares both traces with a committed golden.
//!
//! Regenerate (only when the simulation is *meant* to change) with:
//!
//! ```text
//! OMX_BLESS=1 cargo test -p omx-mpi --test interleaved_trace
//! ```

use omx_core::prelude::*;
use omx_core::trace::TraceKind;
use omx_mpi::{Op, RankActor, WorldSpec};
use omx_sim::json::ToJson;
use omx_sim::StopCondition;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/interleaved_trace.txt"
);

/// Append `cluster`'s whole trace and metrics to `out` under `label`.
fn render(out: &mut String, label: &str, cluster: &Cluster) {
    let tracer = cluster.tracer().expect("tracing enabled");
    assert_eq!(
        tracer.evicted(),
        0,
        "{label}: the golden must hold the whole run"
    );
    assert!(
        tracer.events().any(|e| e.kind == TraceKind::DmaComplete),
        "{label}: no DMA completion traced"
    );
    out.push_str(&format!("== {label}\n"));
    out.push_str(&tracer.render());
    out.push_str(&cluster.metrics().to_json().render());
    out.push('\n');
}

fn pingpong() -> Cluster {
    let mut cluster = ClusterBuilder::new()
        .nodes(2)
        .strategy(CoalescingStrategy::OpenMx { delay_us: 75 })
        .build();
    cluster.enable_tracing(1 << 16);
    cluster.run_pingpong(PingPongSpec {
        msg_len: 32 << 10,
        iterations: 1,
        warmup: 0,
    });
    cluster
}

fn alltoall() -> Cluster {
    let world = WorldSpec {
        ranks: 4,
        ranks_per_node: 1,
    };
    let mut cfg = ClusterConfig {
        nodes: world.nodes(),
        endpoints_per_node: world.ranks_per_node,
        ..ClusterConfig::default()
    };
    cfg.nic.strategy = CoalescingStrategy::OpenMx { delay_us: 75 };
    cfg.fabric.switch_buffer_frames = 32;
    let mut cluster = Cluster::new(cfg);
    cluster.enable_tracing(1 << 16);
    let done = Arc::new(AtomicUsize::new(0));
    for rank in 0..world.ranks {
        let program = vec![Op::Alltoall { bytes: 8 << 10 }];
        let actor = RankActor::new(rank, world, program, Arc::clone(&done));
        cluster.add_actor(world.node_of(rank), world.ep_of(rank), Box::new(actor));
    }
    assert_eq!(
        cluster.run(Time::from_secs(1)),
        StopCondition::PredicateSatisfied
    );
    cluster
}

#[test]
fn interleaved_completions_match_pinned_trace() {
    let mut rendered = String::new();
    render(&mut rendered, "pingpong: OpenMx 75 us, 32 KiB", &pingpong());
    render(
        &mut rendered,
        "alltoall: 4 nodes, 8 KiB, 32-frame switch buffers",
        &alltoall(),
    );

    if std::env::var_os("OMX_BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect(
        "golden missing; bless with OMX_BLESS=1 cargo test -p omx-mpi --test interleaved_trace",
    );
    if rendered != golden {
        let (i, (got, want)) = rendered
            .lines()
            .zip(golden.lines())
            .enumerate()
            .find(|(_, (a, b))| a != b)
            .unwrap_or((0, ("<length differs>", "<length differs>")));
        panic!(
            "packet trace diverged from the golden at line {}:\n  now:    {got}\n  golden: {want}",
            i + 1
        );
    }
}
