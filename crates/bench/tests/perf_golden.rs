//! The committed root `BENCH_sim.json` is a golden of the simulator's
//! exact per-event-kind dispatch counts and event-queue placement counts.
//!
//! No `omx-bench perf` shape draws a random number, so any change to its
//! counts is a change to what the simulator does. This test fails on
//! any difference from the committed file, listing each moved count as
//! `committed → now`.
//! If the change is intended, regenerate the golden with
//! `cargo run --release -p omx-bench -- perf` at the repo root and commit
//! it; the diff then shows the saving or the cost.

use omx_bench::perf;
use omx_sim::json::Json;

const GOLDEN: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_sim.json");

/// Every count in `report` as `("<shape id> <name>", value)`: each shape's
/// frame and event totals, each event kind, then each queue counter.
fn counts(report: &Json) -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for shape in report
        .get("shapes")
        .and_then(|s| s.as_arr())
        .unwrap_or_default()
    {
        let id = shape.get("id").and_then(|v| v.as_str()).unwrap_or("?");
        let mut fields = vec![
            ("frames", shape.get("frames")),
            ("events", shape.get("events")),
        ];
        if let Some(Json::Obj(kinds)) = shape.get("by_kind") {
            fields.extend(kinds.iter().map(|(k, v)| (k.as_str(), Some(v))));
        }
        if let Some(Json::Obj(queue)) = shape.get("queue") {
            fields.extend(queue.iter().map(|(k, v)| (k.as_str(), Some(v))));
        }
        for (name, v) in fields {
            if let Some(n) = v.and_then(|v| v.as_u64()) {
                out.push((format!("{id} {name}"), n));
            }
        }
    }
    out
}

#[test]
fn event_counts_match_committed_golden() {
    let now = perf::run();
    let rendered = now.render_pretty();
    let committed_text = std::fs::read_to_string(GOLDEN)
        .unwrap_or_else(|e| panic!("read committed BENCH_sim.json: {e}"));
    if rendered == committed_text {
        return;
    }
    let committed = Json::parse(&committed_text)
        .map(|j| counts(&j))
        .unwrap_or_default();
    let now = counts(&now);
    let mut diff = Vec::new();
    for (key, n) in &now {
        match committed.iter().find(|(k, _)| k == key) {
            Some((_, c)) if c == n => {}
            Some((_, c)) => {
                let dir = if n > c { "increase" } else { "decrease" };
                diff.push(format!("{key}: {c} → {n} ({dir})"));
            }
            None => diff.push(format!("{key}: absent → {n}")),
        }
    }
    for (key, c) in committed
        .iter()
        .filter(|(k, _)| !now.iter().any(|(n, _)| n == k))
    {
        diff.push(format!("{key}: {c} → absent"));
    }
    if diff.is_empty() {
        diff.push("no count moved, but the bytes differ (schema or layout)".into());
    }
    panic!(
        "event counts differ from the committed BENCH_sim.json (committed → now):\n  {}\n\
         if intended, regenerate with `cargo run --release -p omx-bench -- perf` \
         at the repo root",
        diff.join("\n  ")
    );
}
