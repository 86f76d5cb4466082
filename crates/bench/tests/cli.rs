//! The `omx-bench` command line: `list` and the usage errors.
//!
//! Every case here returns before a simulation starts, so the whole file
//! runs in milliseconds.

use std::process::{Command, Output};

fn omx_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_omx-bench"))
        .args(args)
        .output()
        .expect("omx-bench starts")
}

#[test]
fn list_prints_each_campaign_once_then_the_subcommands() {
    // Every campaign in list order, then the two subcommands.
    let expected = [
        "fig4",
        "overhead",
        "fig5",
        "fig6",
        "table1",
        "table2",
        "table3",
        "adaptive",
        "coexistence",
        "multiqueue",
        "jumbo",
        "sensitivity",
        "faults",
        "scale",
        "offload",
        "table4",
        "table5",
        "perf",
        "trace",
        "timeline",
        "all",
        "list",
    ];
    let out = omx_bench(&["list"]);
    assert!(out.status.success(), "list failed: {out:?}");
    let stdout = String::from_utf8(out.stdout).expect("list prints UTF-8");
    let names: Vec<&str> = stdout
        .lines()
        .map(|line| line.split_whitespace().next().unwrap_or(""))
        .collect();
    assert_eq!(names, expected);
    let all = stdout
        .lines()
        .find(|line| line.starts_with("all "))
        .expect("list describes all");
    assert!(
        all.ends_with("except table5, perf, trace, timeline"),
        "{all}"
    );
}

/// A usage error exits with status 2, names the bad input on stderr and
/// prints nothing on stdout: no campaign banner, so no simulation started.
fn assert_usage_error(args: &[&str], named: &str) {
    let out = omx_bench(args);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(stderr.contains(&format!("'{named}'")), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed to stdout");
}

#[test]
fn an_unknown_experiment_exits_2() {
    assert_usage_error(&["bogus"], "bogus");
}

#[test]
fn a_mistyped_flag_exits_2_before_running() {
    assert_usage_error(&["fig5", "--qiuck"], "--qiuck");
}

#[test]
fn the_removed_trace_flag_exits_2() {
    assert_usage_error(&["fig5", "--trace"], "--trace");
    assert_usage_error(&["fig5", "--trace=out.json"], "--trace=out.json");
}
