//! Protocol-refactor equivalence golden.
//!
//! How the driver stores its protocol state decides how per-packet state
//! is *found*, never what the simulation *does*. This test pins that claim
//! with a randomized disturbance schedule: lossy, delaying, jittering
//! fabric runs across all five coalescing strategies and all three message
//! classes (small eager, medium fragmented, large rendezvous/pull) must
//! produce cluster metrics — every per-node NIC/host/driver counter
//! included — byte-identical to the golden captured with the pre-refactor
//! map-based implementation.
//!
//! Loss forces the retransmission and pull-rerequest paths; delay forces
//! reordering and duplicate-suppression; jitter varies DMA/arrival
//! overlap. If a refactor changes any lookup into an observable ordering
//! difference, some counter in some cell moves and the render diverges.
//!
//! Regenerate (only when the simulation is *meant* to change) with:
//!
//! ```text
//! OMX_BLESS=1 cargo test -p omx-core --test proto_equivalence
//! ```

use omx_core::prelude::*;
use omx_fabric::DisturbanceConfig;
use omx_sim::json::{Json, ToJson};

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/proto_equivalence.json"
);

fn strategies() -> Vec<(&'static str, CoalescingStrategy)> {
    vec![
        ("disabled", CoalescingStrategy::Disabled),
        ("timeout", CoalescingStrategy::Timeout { delay_us: 75 }),
        ("open-mx", CoalescingStrategy::OpenMx { delay_us: 75 }),
        ("stream", CoalescingStrategy::Stream { delay_us: 75 }),
        (
            "adaptive",
            CoalescingStrategy::Adaptive {
                min_delay_us: 0,
                max_delay_us: 75,
            },
        ),
    ]
}

/// `(label, msg_len, messages)` covering the three protocol classes.
fn shapes() -> Vec<(&'static str, u32, u32)> {
    vec![
        ("small", 256, 80),
        ("medium", 32 << 10, 30),
        ("large", 200 << 10, 5),
    ]
}

fn run_cell(strategy: CoalescingStrategy, msg_len: u32, messages: u32, seed: u64) -> Json {
    let disturbance = DisturbanceConfig {
        loss_probability: 0.01,
        delay_probability: 0.05,
        delay_min_ns: 5_000,
        delay_max_ns: 60_000,
        jitter_ns: 300,
    };
    let mut cluster = ClusterBuilder::new()
        .nodes(2)
        .strategy(strategy)
        .disturbance(disturbance)
        .seed(seed)
        .build();
    cluster.run_stream(StreamSpec {
        msg_len,
        messages,
        window: 8,
    });
    cluster.metrics().to_json()
}

fn render_all() -> String {
    let mut cells = Vec::new();
    for (slabel, strategy) in strategies() {
        for (shape, msg_len, messages) in shapes() {
            for seed in [0xD15EA5Eu64, 0xFACADE] {
                let metrics = run_cell(strategy, msg_len, messages, seed);
                cells.push(Json::obj(vec![
                    ("strategy", Json::Str(slabel.to_string())),
                    ("shape", Json::Str(shape.to_string())),
                    ("msg_len", Json::U64(u64::from(msg_len))),
                    ("seed", Json::U64(seed)),
                    ("metrics", metrics),
                ]));
            }
        }
    }
    Json::obj(vec![
        ("schema", Json::Str("omx-proto-equivalence/1".into())),
        ("cells", Json::Arr(cells)),
    ])
    .render_pretty()
}

#[test]
fn lossy_reordered_runs_match_map_based_golden() {
    let rendered = render_all();
    if std::env::var_os("OMX_BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect(
        "golden missing; bless with OMX_BLESS=1 cargo test -p omx-core --test proto_equivalence",
    );
    assert_eq!(
        rendered, golden,
        "metrics diverged from the map-based golden — the protocol refactor \
         changed simulation behaviour, not just state lookup"
    );
}
