//! Pinned packet trace of lossy, reordered multi-packet batches.
//!
//! The driver timer is armed once per receive batch, after its last packet,
//! and its deadline is read from per-connection state the driver keeps up to
//! date. Neither may change what the simulation does: this test runs a
//! 2-node Stream-coalesced stream through a fabric that drops 5 % of frames
//! and delays or jitters the rest, so batches carry several packets whose
//! acks, retransmissions and pull re-requests move the driver's deadlines
//! mid-batch, and compares the full packet trace with a committed golden.
//! Every dropped frame must appear in that trace as a `Drop`.
//!
//! Regenerate (only when the simulation is *meant* to change) with:
//!
//! ```text
//! OMX_BLESS=1 cargo test -p omx-core --test batch_trace
//! ```

use omx_core::prelude::*;
use omx_core::trace::{TraceData, TraceKind};
use omx_fabric::DisturbanceConfig;
use omx_sim::json::ToJson;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/lossy_batch_trace.txt"
);

/// One traced stream cell: `messages` messages of `msg_len` bytes.
fn traced_stream(msg_len: u32, messages: u32, seed: u64) -> Cluster {
    let mut cluster = ClusterBuilder::new()
        .nodes(2)
        .strategy(CoalescingStrategy::Stream { delay_us: 75 })
        .disturbance(DisturbanceConfig {
            loss_probability: 0.05,
            delay_probability: 0.1,
            delay_min_ns: 5_000,
            delay_max_ns: 60_000,
            jitter_ns: 300,
        })
        .seed(seed)
        .build();
    cluster.enable_tracing(1 << 20);
    cluster.run_stream(StreamSpec {
        msg_len,
        messages,
        window: 8,
    });
    cluster
}

#[test]
fn lossy_reordered_batches_match_pinned_trace() {
    let mut rendered = String::new();
    let mut multi_packet_batches = 0;
    let mut drops = 0;
    let mut retransmits = 0;
    let mut rerequests = 0;
    // Medium messages exercise eager sequencing, delayed acks and go-back-N
    // retransmission; large ones the pull engine and its stall re-requests.
    for (label, msg_len, messages) in [("medium", 8 << 10, 40), ("large", 96 << 10, 6)] {
        let cluster = traced_stream(msg_len, messages, 0xBA7C4);
        let tracer = cluster.tracer().expect("tracing enabled");
        assert_eq!(tracer.evicted(), 0, "the golden must hold the whole run");
        let mut traced_drops = 0;
        for e in tracer.events() {
            if let TraceData::Batch { packets, .. } = e.data {
                multi_packet_batches += usize::from(packets > 1);
            }
            traced_drops += u64::from(e.kind == TraceKind::Drop);
        }
        let metrics = cluster.metrics();
        assert_eq!(
            traced_drops,
            metrics.frames_dropped + metrics.switch_drops + metrics.total_ring_drops(),
            "{label}: every dropped frame is traced"
        );
        drops += metrics.frames_dropped;
        for node in &metrics.nodes {
            retransmits += node.driver.eager_retransmits.get();
            rerequests += node.driver.pull_rerequests.get();
        }
        rendered.push_str(&format!("== {label}: {messages} x {msg_len} B\n"));
        rendered.push_str(&tracer.render());
        rendered.push_str(&metrics.to_json().render());
        rendered.push('\n');
    }
    // The trace is only evidence if it covers what it claims to.
    assert!(
        multi_packet_batches > 50,
        "{multi_packet_batches} multi-packet batches"
    );
    assert!(drops > 5, "{drops} drops");
    assert!(retransmits > 0, "no eager retransmission");
    assert!(rerequests > 0, "no pull re-request");

    if std::env::var_os("OMX_BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN)
        .expect("golden missing; bless with OMX_BLESS=1 cargo test -p omx-core --test batch_trace");
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
