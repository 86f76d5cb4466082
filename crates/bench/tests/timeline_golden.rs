//! Golden byte-identity test for the telemetry timeline.
//!
//! The timeline subcommand's whole value is that one scenario reproduces
//! the same windowed counter series everywhere — otherwise two engineers
//! comparing Perfetto screenshots are debugging their machines, not the
//! protocol. The fabric is quiet, so a capture draws no random number.
//! This pins a small capture (4-node 16 KiB
//! alltoall, the same scenario `omx-bench timeline scale` scales up to 64
//! nodes) byte-for-byte against a committed JSONL golden, and checks two
//! in-process captures render identically (JSONL *and* the Perfetto
//! counter export).
//!
//! Regenerate after intentional telemetry-schema changes with:
//! `OMX_BLESS=1 cargo test -p omx-bench --test timeline_golden`.

use omx_bench::timeline;

const GOLDEN: &str = concat!(
    env!("CARGO_MANIFEST_DIR"),
    "/tests/golden/timeline_4n.jsonl"
);

#[test]
fn timeline_jsonl_is_byte_identical_to_golden() {
    let data = timeline::capture(4, 1);
    // `to_jsonl` already ends each line (including the last) with '\n',
    // so the golden is exactly the artifact `omx-bench timeline` writes.
    let rendered = data.jsonl;
    if std::env::var_os("OMX_BLESS").is_some() {
        std::fs::write(GOLDEN, &rendered).expect("write golden");
        return;
    }
    let golden = std::fs::read_to_string(GOLDEN).expect(
        "golden missing; bless with OMX_BLESS=1 cargo test -p omx-bench --test timeline_golden",
    );
    assert!(
        rendered == golden,
        "the 4-node timeline diverged from the golden JSONL.\n\
         If the telemetry schema or sampling changed intentionally,\n\
         regenerate crates/bench/tests/golden/timeline_4n.jsonl (see module\n\
         docs). Otherwise windowed sampling is no longer deterministic.\n\
         --- golden ---\n{golden}\n--- got ---\n{rendered}"
    );
}

#[test]
fn timeline_artifacts_are_byte_identical_across_runs() {
    let a = timeline::capture(4, 1);
    let b = timeline::capture(4, 1);
    assert!(a.jsonl == b.jsonl, "JSONL differs between two captures");
    assert!(
        a.chrome == b.chrome,
        "Perfetto counter export differs between two captures"
    );
    assert_eq!(a.elapsed_ns, b.elapsed_ns);
    assert_eq!(a.windows, b.windows);
}
