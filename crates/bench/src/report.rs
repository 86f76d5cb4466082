//! Result formatting and persistence.
//!
//! Every experiment persists its result struct as pretty-printed JSON
//! under `results/<name>.json` via [`write_json`]. The JSON shape is the
//! struct's field list, verbatim (see `omx_sim::impl_to_json!`); renderings
//! are deterministic — fixed seeds give byte-identical files, which the
//! golden tests in `crates/bench/tests/` rely on. The schemas by
//! experiment family:
//!
//! ## Message-rate family
//!
//! - `fig4_message_rate.json` — `{points: [{config, delay_us,
//!   msgs_per_sec, interrupts_per_msg, wakeups}]}`: one point per
//!   coalescing delay × host config curve of Fig. 4.
//! - `table1_message_rate.json` — `{cells: [{msg_len, strategy,
//!   msgs_per_sec, interrupts_per_msg}]}`: Table I, size × strategy.
//! - `overhead.json` — `{rows: [{config, per_packet_ns, interrupts,
//!   packets}], paper_disabled_ns, paper_coalesced_ns}`: §IV-B2 per-packet
//!   interrupt overhead against the paper's anchors.
//!
//! ## Latency family
//!
//! - `fig5_pingpong.json` / `fig6_pingpong.json` — `{with_openmx, points:
//!   [{strategy, msg_len, half_rtt_ns, normalized}]}`: ping-pong transfer
//!   time by size, absolute and normalized to the disabled strategy.
//! - `table2_anatomy.json` — `{rows: [{strategy, transfer_ns,
//!   interrupts}], ablation: [{removed, transfer_ns, delta_ns}]}`: the
//!   234 KiB anatomy plus the §IV-C3 marker ablation.
//! - `table3_misordering.json` — `{cells: [{strategy, degree,
//!   transfer_ns, interrupts_per_msg}]}`: mis-ordering degree × strategy.
//! - `jumbo.json` — `{cells: [{mtu, msg_len, strategy, half_rtt_ns}]}`.
//!
//! ## Application family
//!
//! - `table4_table5_nas.json` — `{cells: [{name, strategy, seconds,
//!   interrupts, stolen_s}]}`: NAS kernel × strategy execution times
//!   (Table IV) and interrupt counts (Table V).
//! - `adaptive.json` — `{rows: [{workload, strategy, value}]}`: §VI
//!   adaptive-coalescing comparison across workload archetypes.
//! - `coexistence.json`, `multiqueue.json`, `sensitivity.json` — scalar
//!   row sets for the §VI side studies (field lists in their modules).
//!
//! ## Robustness campaigns (beyond the paper)
//!
//! - `faults.json` — `{cells: [{scenario, msg_len, loss, strategy,
//!   messages, completion_ns, msgs_per_sec, goodput_mbps, recovery_ratio,
//!   eager_retransmits, pull_rerequests, ring_drops, frames_dropped,
//!   sanitizer_violations}]}`: loss × strategy × size plus ring-pressure
//!   cells; every cell drains to quiescence under sanitizer invariants.
//! - `scale.json` — `{cells: [{collective, bytes, nodes, ranks, strategy,
//!   iterations, completion_ns, total_interrupts, interrupts_per_node,
//!   switch_drops, switch_occupancy_peak, retransmits,
//!   sanitizer_violations}]}`: collectives on 4–64 switched nodes with
//!   bounded switch egress buffers (see
//!   [`crate::experiments::scale`]).
//! - `offload.json` — `{cells: [{collective, bytes, nodes, ranks, mode,
//!   iterations, completion_ns, total_interrupts, interrupts_per_node,
//!   retransmits, offload: {ops_posted, ops_completed, data_tx, data_rx,
//!   acks_tx, acks_rx, retransmits, duplicates, combines},
//!   sanitizer_violations, slo: {count, mean_ns, p50_ns, p99_ns,
//!   p999_ns}}]}`: NIC-resident collectives head-to-head against the five
//!   host coalescing strategies on 4–64 nodes. `mode` is a strategy label
//!   or `nic-offload`; the nested `offload` object is the NIC engine's
//!   counter block summed over nodes (all zero in host modes), and `slo`
//!   is always present (see [`crate::experiments::offload`]).
//!
//! Under `--slo`, `faults.json` and `scale.json` cells additionally carry
//! `slo: {count, mean_ns, p50_ns, p99_ns, p999_ns}` (message / collective
//! completion latency); the field is omitted entirely without the flag, so
//! default reports are byte-identical to pre-SLO releases.
//!
//! `timeline_<exp>_<N>n.{jsonl,chrome.json}` (written by `omx-bench
//! timeline`) are the windowed telemetry exports; their schema is
//! documented in [`crate::timeline`] and DESIGN §10.
//!
//! `BENCH_sim.json` (repo root, written by `omx-bench perf`) holds the exact
//! per-event-kind dispatch and event-queue counts of five fixed shapes; its
//! schema is documented in [`crate::perf`].

use std::fmt::Write as _;
use std::path::Path;

use omx_sim::json::ToJson;

/// A simple aligned text table for terminal output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Start a table with the given column headers.
    pub fn new<S: Into<String>>(header: Vec<S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (must match the header length).
    pub fn row<S: Into<String>>(&mut self, cells: Vec<S>) {
        let cells: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert_eq!(cells.len(), self.header.len(), "row/header mismatch");
        self.rows.push(cells);
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths = vec![0usize; cols];
        for (i, h) in self.header.iter().enumerate() {
            widths[i] = h.len();
        }
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                let _ = write!(out, "| {:width$} ", c, width = widths[i]);
            }
            out.push_str("|\n");
        };
        line(&mut out, &self.header);
        for (i, w) in widths.iter().enumerate() {
            let _ = write!(out, "|{:-<width$}", "", width = w + 2);
            if i + 1 == cols {
                out.push_str("|\n");
            }
        }
        for row in &self.rows {
            line(&mut out, row);
        }
        out
    }
}

/// Write one artifact to `path`, creating its directory, and print
/// `wrote <path>` on stderr. A failed write prints `failed to write <path>:
/// <error>` and exits with status 1: a benchmark whose output silently
/// vanished is indistinguishable from one that succeeded.
pub fn write_artifact(path: &Path, contents: &str) {
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, contents));
    if let Err(e) = written {
        eprintln!("failed to write {}: {e}", path.display());
        std::process::exit(1);
    }
    eprintln!("wrote {}", path.display());
}

/// Write whitespace-separated data rows under `results/<name>.dat` for
/// gnuplot (one comment header line, then one row per entry).
pub fn write_dat(name: &str, header: &str, rows: &[Vec<String>]) {
    let mut out = format!("# {header}\n");
    for row in rows {
        out.push_str(&row.join(" "));
        out.push('\n');
    }
    write_artifact(&Path::new("results").join(format!("{name}.dat")), &out);
}

/// Write a gnuplot script under `results/<name>.gp`.
pub fn write_gnuplot(name: &str, script: &str) {
    write_artifact(&Path::new("results").join(format!("{name}.gp")), script);
}

/// Write a result struct as pretty JSON under `results/<name>.json`.
pub fn write_json<T: ToJson>(name: &str, value: &T) {
    write_artifact(
        &Path::new("results").join(format!("{name}.json")),
        &value.to_json().render_pretty(),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new(vec!["name", "value"]);
        t.row(vec!["a", "1"]);
        t.row(vec!["long-name", "22"]);
        let s = t.render();
        assert!(s.contains("| name      | value |"));
        assert!(s.contains("| long-name | 22    |"));
        assert!(s.lines().count() == 4);
    }

    #[test]
    #[should_panic(expected = "row/header mismatch")]
    fn mismatched_row_panics() {
        let mut t = Table::new(vec!["a", "b"]);
        t.row(vec!["only-one"]);
    }
}
