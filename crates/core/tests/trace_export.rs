//! Export-format and latency-attribution invariants.
//!
//! * A golden-file test pins the Chrome trace-event export schema: the keys
//!   Perfetto relies on (`traceEvents`, `ph`, `ts`, `pid`, `tid`, `name`)
//!   must not drift.
//! * Property tests (randomised with the deterministic [`SimRng`], fixed
//!   seeds) assert that every [`LatencyBreakdown`] the analyzer produces
//!   has phases summing exactly to its end-to-end total — on synthetic
//!   event soups and on traces from real simulations.

use omx_core::latency::{analyze, PhaseSummary};
use omx_core::prelude::*;
use omx_core::trace::{TraceData, TraceEvent, TraceKind, Tracer};
use omx_core::wire::{EndpointAddr, MsgId, OmxHeader, Packet, PacketKind};
use omx_sim::json::Json;
use omx_sim::rng::SimRng;
use omx_sim::Time;

fn t(ns: u64) -> Time {
    Time::from_nanos(ns)
}

/// The key of the one simulation event every record here comes from, so
/// records stay in the order they are made.
const KEY: (Time, u64) = (Time::ZERO, 0);

fn small_pkt(src: u16, dst: u16, msg: u64) -> Packet {
    Packet {
        hdr: OmxHeader {
            src: EndpointAddr::new(src, 0),
            dst: EndpointAddr::new(dst, 0),
            latency_sensitive: true,
            seq: 1,
            ack: 0,
        },
        kind: PacketKind::Small {
            msg: MsgId(msg),
            match_info: 0,
            len: 64,
        },
    }
}

/// One complete, hand-placed message lifecycle.
fn lifecycle(tr: &mut Tracer, src: u16, dst: u16, msg: u64, base: u64) {
    let pkt = small_pkt(src, dst, msg);
    tr.record(
        KEY,
        t(base),
        src,
        TraceKind::Transmit,
        TraceData::Packet { pkt, desc: None },
    );
    tr.record(
        KEY,
        t(base + 2_000),
        dst,
        TraceKind::FrameArrival,
        TraceData::Packet {
            pkt,
            desc: Some(msg),
        },
    );
    tr.record(
        KEY,
        t(base + 2_300),
        dst,
        TraceKind::DmaComplete,
        TraceData::Desc { desc: msg },
    );
    tr.record(
        KEY,
        t(base + 10_000),
        dst,
        TraceKind::Interrupt,
        TraceData::Irq {
            core: 0,
            start_ns: base + 10_500,
            woken: false,
        },
    );
    tr.record(
        KEY,
        t(base + 12_000),
        dst,
        TraceKind::BatchDone,
        TraceData::Batch {
            core: 0,
            packets: 1,
        },
    );
    tr.record(
        KEY,
        t(base + 12_400),
        dst,
        TraceKind::AppDelivery,
        TraceData::Recv {
            ep: 0,
            src,
            msg,
            len: 64,
        },
    );
}

const CHROME_GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/chrome_trace.json"
);

/// The Chrome export of a fixed two-message trace must match the checked-in
/// golden file byte for byte. When the format changes on purpose, bless
/// with `OMX_BLESS=1 cargo test -p omx-core --test trace_export` and review
/// the diff.
#[test]
fn chrome_export_matches_golden_file() {
    let mut tr = Tracer::new(64);
    lifecycle(&mut tr, 0, 1, 1, 1_000);
    lifecycle(&mut tr, 1, 0, 2, 20_000);
    let rendered = tr.to_chrome_json().render_pretty();
    if std::env::var_os("OMX_BLESS").is_some() {
        std::fs::write(CHROME_GOLDEN, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(CHROME_GOLDEN).expect(
        "golden missing; bless with OMX_BLESS=1 cargo test -p omx-core --test trace_export",
    );
    assert_eq!(
        rendered, golden,
        "Chrome trace export drifted from tests/golden/chrome_trace.json; \
         if the change is intentional, bless it with OMX_BLESS=1"
    );
}

/// Schema invariants Perfetto depends on, checked structurally (robust to
/// cosmetic golden regeneration).
#[test]
fn chrome_export_schema_is_valid() {
    let mut tr = Tracer::new(64);
    lifecycle(&mut tr, 0, 1, 1, 1_000);
    let doc = tr.to_chrome_json();
    // Round-trips through the parser.
    let doc = Json::parse(&doc.render()).expect("chrome export is valid JSON");
    let events = match doc.get("traceEvents") {
        Some(Json::Arr(events)) => events,
        other => panic!("traceEvents must be an array, got {other:?}"),
    };
    assert!(!events.is_empty());
    let mut saw_instant = false;
    let mut saw_span = false;
    for ev in events {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .expect("every event has ph");
        assert!(
            ev.get("name").and_then(Json::as_str).is_some(),
            "every event has a name"
        );
        assert!(ev.get("ts").and_then(Json::as_f64).is_some());
        assert!(ev.get("pid").and_then(Json::as_u64).is_some());
        assert!(ev.get("tid").and_then(Json::as_u64).is_some());
        match ph {
            "i" => saw_instant = true,
            "X" => {
                saw_span = true;
                assert!(
                    ev.get("dur").and_then(Json::as_f64).is_some(),
                    "duration slices carry dur"
                );
            }
            other => panic!("unexpected phase {other:?}"),
        }
    }
    assert!(saw_instant, "raw events exported as instants");
    assert!(saw_span, "latency phases exported as duration slices");
}

/// Random well-formed lifecycles with jittered anchor spacings: every
/// breakdown's phases must sum exactly to its total.
#[test]
fn prop_phases_sum_to_total_on_synthetic_lifecycles() {
    let mut rng = SimRng::new(0x5EED_6001);
    for _ in 0..256 {
        let mut tr = Tracer::new(4096);
        let msgs = rng.range_u64(1, 12);
        let mut base = rng.range_u64(0, 10_000);
        for msg in 0..msgs {
            let src = rng.range_u64(0, 4) as u16;
            let dst = (src + 1 + rng.range_u64(0, 3) as u16) % 4;
            lifecycle(&mut tr, src, dst, msg, base);
            base += rng.range_u64(1_000, 200_000);
        }
        let events: Vec<TraceEvent> = tr.events().copied().collect();
        let breakdowns = analyze(&events);
        assert_eq!(breakdowns.len() as u64, msgs);
        for b in &breakdowns {
            assert_eq!(
                b.phase_sum(),
                b.total_ns(),
                "phases must telescope to the total: {b:?}"
            );
        }
    }
}

/// Adversarial: random event soups (dropped anchors, shuffled-in noise,
/// out-of-order stamps). The analyzer may skip messages it cannot link, but
/// whatever it returns must keep the sum invariant and stay in-window.
#[test]
fn prop_phases_sum_to_total_on_adversarial_soup() {
    let mut rng = SimRng::new(0x5EED_6002);
    for _ in 0..256 {
        let mut tr = Tracer::new(4096);
        let n = rng.range_u64(1, 80);
        for _ in 0..n {
            let at = t(rng.range_u64(0, 500_000));
            let node = rng.range_u64(0, 3) as u16;
            let msg = rng.range_u64(0, 5);
            let (kind, data) = match rng.range_u64(0, 7) {
                0 => (
                    TraceKind::Transmit,
                    TraceData::Packet {
                        pkt: small_pkt(node, (node + 1) % 3, msg),
                        desc: None,
                    },
                ),
                1 => (
                    TraceKind::FrameArrival,
                    TraceData::Packet {
                        pkt: small_pkt((node + 1) % 3, node, msg),
                        desc: if rng.chance(0.8) {
                            Some(rng.range_u64(0, 4))
                        } else {
                            None
                        },
                    },
                ),
                2 => (
                    TraceKind::DmaComplete,
                    TraceData::Desc {
                        desc: rng.range_u64(0, 4),
                    },
                ),
                3 => (
                    TraceKind::Interrupt,
                    TraceData::Irq {
                        core: rng.range_u64(0, 2) as usize,
                        start_ns: rng.range_u64(0, 500_000),
                        woken: rng.chance(0.3),
                    },
                ),
                4 => (
                    TraceKind::BatchDone,
                    TraceData::Batch {
                        core: rng.range_u64(0, 2) as usize,
                        packets: rng.range_u64(1, 5) as u32,
                    },
                ),
                5 => (
                    TraceKind::AppDelivery,
                    TraceData::Recv {
                        ep: 0,
                        src: rng.range_u64(0, 3) as u16,
                        msg,
                        len: 64,
                    },
                ),
                _ => (TraceKind::Drop, TraceData::Text("ring full")),
            };
            tr.record(KEY, at, node, kind, data);
        }
        let events: Vec<TraceEvent> = tr.events().copied().collect();
        for b in analyze(&events) {
            assert_eq!(b.phase_sum(), b.total_ns(), "soup breakdown: {b:?}");
            assert!(b.start_ns <= b.end_ns);
        }
    }
}

/// Real simulations across sizes and strategies: the invariant holds on
/// every breakdown the analyzer extracts from a live trace, and messages
/// are actually extracted.
#[test]
fn prop_phases_sum_to_total_on_real_traces() {
    let mut rng = SimRng::new(0x5EED_6003);
    let strategies = [
        CoalescingStrategy::Disabled,
        CoalescingStrategy::Timeout { delay_us: 75 },
        CoalescingStrategy::OpenMx { delay_us: 75 },
        CoalescingStrategy::Stream { delay_us: 75 },
    ];
    for _ in 0..8 {
        let strategy = strategies[rng.range_u64(0, strategies.len() as u64) as usize];
        let msg_len = [0u32, 64, 4096, 40_000][rng.range_u64(0, 4) as usize];
        let mut cluster = ClusterBuilder::new().nodes(2).strategy(strategy).build();
        cluster.enable_tracing(1 << 16);
        cluster.run_pingpong(PingPongSpec {
            msg_len,
            iterations: 3,
            warmup: 1,
        });
        let events: Vec<TraceEvent> = cluster
            .tracer()
            .expect("tracing enabled")
            .events()
            .copied()
            .collect();
        let breakdowns = analyze(&events);
        assert!(
            !breakdowns.is_empty(),
            "live trace yields breakdowns ({strategy:?}, {msg_len} B)"
        );
        for b in &breakdowns {
            assert_eq!(b.phase_sum(), b.total_ns(), "{b:?}");
        }
        let summary = PhaseSummary::of(&breakdowns);
        assert_eq!(
            summary.total_ns,
            breakdowns.iter().map(|b| b.total_ns()).sum::<u64>()
        );
    }
}
