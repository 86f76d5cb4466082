//! Cross-process determinism of the parallel campaign executor, the CLI's
//! rejection of malformed or unknown flags, its exit status when a report
//! cannot be written, and which runs write the NAS tables at all.
//!
//! The determinism contract (DESIGN §11): **parallelism may reorder
//! execution, but never observable output**. Campaign cells are
//! independent simulations and results commit in cell-index order, so
//! `results/faults.json`, `results/scale.json`, and every golden must
//! regenerate *byte-identical* at any `--jobs` value. These tests
//! spawn the real `omx-bench` binary — separate processes, separate
//! working directories — at `--jobs 1` (the serial path), `--jobs 2`, and
//! `--jobs 8` (more workers than this machine has cores, so stealing and
//! oversubscription are both in play), and compare artifact bytes.
//!
//! An in-process companion pins the full-resolution Table I golden (full
//! message counts — no quick mode exists for it) through the pooled path
//! against the committed golden file.

use omx_sim::pool;
use std::path::PathBuf;
use std::process::Command;

/// Run `omx-bench <args>` successfully in a fresh scratch directory and
/// return that directory; the caller removes it.
fn run_in_fresh_dir(tag: &str, args: &[&str]) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("omx_parallel_det_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let bin = PathBuf::from(env!("CARGO_BIN_EXE_omx-bench"));
    let output = Command::new(&bin)
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn omx-bench");
    assert!(
        output.status.success(),
        "omx-bench {args:?} failed (status {:?}):\n{}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    dir
}

/// Run `omx-bench <args>` in a fresh scratch directory and return the
/// bytes of `results/<artifact>` it wrote there.
fn run_in_scratch(tag: &str, args: &[&str], artifact: &str) -> Vec<u8> {
    let dir = run_in_fresh_dir(tag, args);
    let bytes = std::fs::read(dir.join("results").join(artifact))
        .unwrap_or_else(|e| panic!("read {artifact} after omx-bench {args:?}: {e}"));
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!bytes.is_empty(), "{artifact} is empty");
    bytes
}

/// A row-filtered NAS run holds a partial table, so it must not write
/// `results/table4_table5_nas.json` over the full one.
#[test]
fn filtered_table4_leaves_the_nas_tables_alone() {
    let dir = run_in_fresh_dir("table4_ep", &["table4", "ep."]);
    let written = dir.join("results/table4_table5_nas.json").exists();
    let _ = std::fs::remove_dir_all(&dir);
    assert!(!written, "a filtered table4 run wrote the NAS tables");
}

/// `results/faults.json` regenerates byte-identical at --jobs 1, 2, and 8.
#[test]
fn faults_quick_json_is_byte_identical_across_jobs() {
    let serial = run_in_scratch(
        "faults_j1",
        &["faults", "--quick", "--jobs", "1"],
        "faults.json",
    );
    for jobs in ["2", "8"] {
        let parallel = run_in_scratch(
            &format!("faults_j{jobs}"),
            &["faults", "--quick", "--jobs", jobs],
            "faults.json",
        );
        assert!(
            serial == parallel,
            "faults.json differs between --jobs 1 and --jobs {jobs}"
        );
    }
}

/// `results/scale.json` regenerates byte-identical at --jobs 1, 2, and 8
/// (with --slo on, so the optional per-cell summaries are covered too).
#[test]
fn scale_quick_json_is_byte_identical_across_jobs() {
    let args = |jobs| vec!["scale", "--quick", "--slo", "--jobs", jobs];
    let serial = run_in_scratch("scale_j1", &args("1"), "scale.json");
    for jobs in ["2", "8"] {
        let parallel = run_in_scratch(&format!("scale_j{jobs}"), &args(jobs), "scale.json");
        assert!(
            serial == parallel,
            "scale.json differs between --jobs 1 and --jobs {jobs}"
        );
    }
}

/// The full-resolution Table I campaign (12 cells, full message counts —
/// the experiment has no quick mode) reproduces the committed golden
/// byte-for-byte through the pooled path, and the serial path agrees.
#[test]
fn full_table1_golden_is_jobs_invariant() {
    use omx_bench::experiments::table1;
    use omx_sim::json::ToJson;
    let golden = include_str!("golden/table1.json");
    let pooled = pool::with_jobs(8, || table1::run().to_json().render_pretty());
    assert!(
        pooled == golden,
        "pooled table1 diverged from the committed golden"
    );
    let serial = pool::with_jobs(1, || table1::run().to_json().render_pretty());
    assert!(
        serial == pooled,
        "serial and pooled table1 renderings differ"
    );
}

/// A malformed `--jobs` value must exit 2 with a pointed message, not fall
/// back to a default and run the wrong configuration. Unknown flags —
/// including a flag the CLI no longer accepts and a mistyped `--quick` —
/// are the same error class: exit 2, naming the flag, instead of being
/// dropped while the run goes ahead.
#[test]
fn malformed_jobs_flags_exit_nonzero() {
    let bin = PathBuf::from(env!("CARGO_BIN_EXE_omx-bench"));
    let run = |args: &[&str]| {
        Command::new(&bin)
            .args(args)
            .output()
            .expect("spawn omx-bench")
    };
    for value in ["abc", "0", "-2"] {
        let output = run(&["scale", "--quick", "--jobs", value]);
        assert_eq!(
            output.status.code(),
            Some(2),
            "omx-bench --jobs {value} should exit 2"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains("positive integer"),
            "missing diagnostic for --jobs {value}: {stderr}"
        );
    }
    // A trailing flag with no value at all is the same error class.
    let output = run(&["scale", "--quick", "--jobs"]);
    assert_eq!(output.status.code(), Some(2), "bare --jobs should exit 2");
    for (args, flag) in [
        (&["scale", "--quick", "--sim-jobs", "2"][..], "--sim-jobs"),
        (&["scale", "--quick", "--sim-jobs=2"][..], "--sim-jobs=2"),
        (&["fig5", "--qiuck"][..], "--qiuck"),
        (&["perf", "--smoke"][..], "--smoke"),
        (&["perf", "--iters", "3"][..], "--iters"),
    ] {
        let output = run(args);
        assert_eq!(
            output.status.code(),
            Some(2),
            "omx-bench {args:?} should exit 2"
        );
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert!(
            stderr.contains(&format!("unknown flag '{flag}'")) && stderr.contains("--quick"),
            "missing diagnostic for {args:?}: {stderr}"
        );
    }
}

/// `perf` must fail loudly when it cannot write its report: a run whose
/// `BENCH_sim.json` silently vanished is indistinguishable from one that
/// succeeded. A directory squatting on the report path makes the write fail.
#[test]
fn perf_report_write_failure_exits_nonzero() {
    let dir = std::env::temp_dir().join(format!("omx_perf_unwritable_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("BENCH_sim.json")).expect("create scratch dir");
    let output = Command::new(PathBuf::from(env!("CARGO_BIN_EXE_omx-bench")))
        .arg("perf")
        .current_dir(&dir)
        .output()
        .expect("spawn omx-bench");
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(
        output.status.code(),
        Some(1),
        "unwritable report should exit 1"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("failed to write BENCH_sim.json"),
        "missing diagnostic: {stderr}"
    );
}

/// Run `omx-bench <args>` in a scratch working directory where a directory
/// squats on the artifact path `squatted`, and check that the run exits 1
/// naming that path.
fn assert_write_failure_names_path(tag: &str, args: &[&str], squatted: &str) {
    let dir = std::env::temp_dir().join(format!("omx_unwritable_{}_{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join(squatted)).expect("create scratch dir");
    let output = Command::new(PathBuf::from(env!("CARGO_BIN_EXE_omx-bench")))
        .args(args)
        .current_dir(&dir)
        .output()
        .expect("spawn omx-bench");
    let _ = std::fs::remove_dir_all(&dir);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(
        stderr.contains(&format!("failed to write {squatted}: ")),
        "{args:?}: missing diagnostic: {stderr}"
    );
}

#[test]
fn campaign_write_failure_names_the_artifact() {
    assert_write_failure_names_path("fig5", &["fig5", "--quick"], "results/fig5_pingpong.json");
}

#[test]
fn trace_write_failure_names_the_artifact() {
    assert_write_failure_names_path(
        "trace",
        &["trace", "fig5", "--quick"],
        "results/trace_fig5_timeout-75us.chrome.json",
    );
}
