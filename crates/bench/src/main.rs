//! Experiment CLI — regenerates every table and figure of the paper.
//!
//! ```text
//! omx-bench <experiment> [--quick] [--slo] [--jobs N] [--trace[=FILE]]
//! omx-bench trace <experiment> [--quick]
//! omx-bench timeline <experiment> [--quick] [--jobs N]
//! omx-bench perf
//!
//! experiments:
//!   fig4               message rate vs coalescing delay (Fig. 4)
//!   overhead           per-packet interrupt overhead (§IV-B2)
//!   fig5               ping-pong, timeout vs disabled (Fig. 5)
//!   fig6               ping-pong + open-mx (Fig. 6)
//!   table1             message rate by size × strategy (Table I)
//!   table2             234 KiB anatomy + marker ablation (Table II, §IV-C3)
//!   table3             packet mis-ordering vs stream coalescing (Table III)
//!   table4 [prefix]    NAS execution times (Table IV); optional row filter
//!   table5             NAS IS interrupt counts (Table V; implies the IS rows)
//!   faults             fault-injection campaign: loss × strategy × size,
//!                      ring overflow, sanitizer invariants (beyond paper)
//!   scale              collectives on 4-64 switched nodes × strategy, with
//!                      bounded switch egress buffers (beyond paper)
//!   offload            NIC-resident collectives head-to-head vs the five
//!                      host coalescing strategies (beyond paper)
//!   adaptive           adaptive coalescing comparison (§VI)
//!   coexistence        TCP/IP non-interference check (§IV/§VI)
//!   multiqueue         flow-hashed IRQ steering (§VI future work)
//!   jumbo              MTU 9000 sanity check (§IV-A)
//!   sensitivity        cost-model perturbation study (robustness)
//!   perf               exact event counts per kind → BENCH_sim.json
//!   all                everything above (except perf)
//! ```
//!
//! `trace <experiment>` runs a small representative scenario with
//! packet-level tracing enabled and writes Chrome trace-event JSON
//! (Perfetto-loadable), JSONL and a text timeline under `results/`,
//! then prints a per-phase latency attribution (supported: fig5, fig6,
//! pingpong, table2). The global `--trace[=FILE]` flag does the same after
//! a normal experiment run; `FILE` overrides the Chrome export path.
//!
//! `timeline <experiment>` re-runs a campaign's headline cell with the
//! windowed telemetry subsystem enabled and writes the 100 µs counter
//! timeline (JSONL + Perfetto counter tracks) under `results/`
//! (supported: scale; `--quick` shrinks the world for CI smoke runs).
//!
//! `--slo` adds p50/p99/p999 message-latency summaries to the `faults`
//! and `scale` campaign cells (table columns and a `slo` JSON field;
//! default output is byte-identical to runs without the flag).
//!
//! `--quick` shrinks repetition counts (useful for smoke tests). Results are
//! printed and written as JSON under `results/`.
//!
//! `--jobs N` sets how many campaign cells run concurrently
//! (`omx_sim::pool::map`). The default is all cores; `--jobs 1` is the
//! serial path. Any value produces byte-identical artifacts — cells are
//! independent simulations with fixed seeds and results commit in
//! cell-index order (DESIGN §11) — so `--jobs` only changes wall-clock time.
//!
//! `perf` runs four fixed simulation shapes once each and writes how many
//! events of each kind they dispatched to `BENCH_sim.json` in the working
//! directory. The counts are exact, so the committed root copy is a golden
//! that `cargo test` checks; run `perf` at the repo root to regenerate it.
//!
//! Any other `--flag` is an error (exit status 2): a mistyped `--quick`
//! must not silently run the full sweep.

#![forbid(unsafe_code)]

use omx_bench::experiments::{
    adaptive, coexistence, faults, fig4, jumbo, multiqueue, nas, offload, overhead, pingpong,
    scale, sensitivity, table1, table2, table3,
};
use omx_bench::write_json;

/// Fail loudly if a results artifact could not be written: a benchmark whose
/// output silently vanished is indistinguishable from one that succeeded.
fn persist(what: &str, result: std::io::Result<()>) {
    if let Err(e) = result {
        eprintln!("failed to write {what}: {e}");
        std::process::exit(1);
    }
}

/// `(subcommand, one-line description)` for `omx-bench list`.
const EXPERIMENTS: &[(&str, &str)] = &[
    ("fig4", "message rate vs coalescing delay (Fig. 4)"),
    ("overhead", "per-packet interrupt overhead (§IV-B2)"),
    ("fig5", "ping-pong, timeout vs disabled (Fig. 5)"),
    ("fig6", "ping-pong + open-mx (Fig. 6)"),
    ("table1", "message rate by size × strategy (Table I)"),
    (
        "table2",
        "234 KiB anatomy + marker ablation (Table II, §IV-C3)",
    ),
    (
        "table3",
        "packet mis-ordering vs stream coalescing (Table III)",
    ),
    (
        "table4",
        "NAS execution times (Table IV); optional row filter",
    ),
    ("table5", "NAS IS interrupt counts (Table V)"),
    (
        "faults",
        "fault-injection campaign: loss × strategy × size (beyond paper)",
    ),
    (
        "scale",
        "collectives on 4-64 switched nodes × strategy (beyond paper)",
    ),
    (
        "offload",
        "NIC-resident collectives vs host coalescing (beyond paper)",
    ),
    ("adaptive", "adaptive coalescing comparison (§VI)"),
    ("coexistence", "TCP/IP non-interference check (§IV/§VI)"),
    ("multiqueue", "flow-hashed IRQ steering (§VI future work)"),
    ("jumbo", "MTU 9000 sanity check (§IV-A)"),
    ("sensitivity", "cost-model perturbation study (robustness)"),
    ("perf", "exact event counts per kind → BENCH_sim.json"),
    (
        "trace",
        "trace capture: omx-bench trace <experiment> [--quick]",
    ),
    (
        "timeline",
        "windowed telemetry: omx-bench timeline <experiment> [--quick]",
    ),
    ("all", "every experiment above (except perf)"),
];

/// Every flag `omx-bench` accepts, as listed in the unknown-flag error.
const FLAGS: &str = "--quick, --slo, --jobs N, --trace[=FILE]";

/// Extract `--NAME N` / `--NAME=N` from `args`, returning the parsed value
/// and removing the flag (and its detached value) so the positional scan
/// below never mistakes `N` for an experiment name. Exits with status 2 on
/// a malformed or missing value, like the unknown-experiment path.
fn take_numeric_flag(args: &mut Vec<String>, name: &str) -> Option<u64> {
    let prefix = format!("{name}=");
    let idx = args
        .iter()
        .position(|a| a == name || a.starts_with(&prefix))?;
    let raw = if args[idx] == name {
        if idx + 1 >= args.len() {
            eprintln!("{name} requires a value, e.g. `{name} 4`");
            std::process::exit(2);
        }
        args.remove(idx + 1)
    } else {
        args[idx][prefix.len()..].to_string()
    };
    args.remove(idx);
    match raw.parse::<u64>() {
        Ok(n) if n > 0 => Some(n),
        _ => {
            eprintln!("{name} expects a positive integer, got '{raw}'");
            std::process::exit(2);
        }
    }
}

fn main() {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    // Campaign parallelism: `--jobs N` pins how many threads each
    // campaign map uses (default all cores); `--jobs 1` is the serial path.
    if let Some(jobs) = take_numeric_flag(&mut args, "--jobs") {
        omx_sim::pool::set_jobs(jobs as usize);
    }
    if let Some(flag) = args.iter().find(|a| {
        a.starts_with("--")
            && !matches!(a.as_str(), "--quick" | "--slo" | "--trace")
            && !a.starts_with("--trace=")
    }) {
        eprintln!("unknown flag '{flag}'; known flags: {FLAGS}");
        std::process::exit(2);
    }
    let quick = args.iter().any(|a| a == "--quick");
    let slo = args.iter().any(|a| a == "--slo");
    // Global --trace[=FILE] flag: capture a trace after the experiment.
    let trace_flag: Option<Option<String>> = args.iter().find_map(|a| {
        if a == "--trace" {
            Some(None)
        } else {
            a.strip_prefix("--trace=").map(|f| Some(f.to_string()))
        }
    });
    let mut positional = args.iter().filter(|a| !a.starts_with("--"));
    let which = positional.next().map(String::as_str).unwrap_or("all");
    let filter = positional.next().cloned().unwrap_or_default();

    if which == "list" {
        for (name, what) in EXPERIMENTS {
            println!("{name:<18} {what}");
        }
        return;
    }

    if which == "trace" {
        let experiment = if filter.is_empty() { "fig5" } else { &filter };
        let out = trace_flag.as_ref().and_then(|f| f.as_deref());
        if let Err(e) = omx_bench::traced::run(experiment, quick, out) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }

    if which == "timeline" {
        let experiment = if filter.is_empty() { "scale" } else { &filter };
        if let Err(e) = omx_bench::timeline::run(experiment, quick) {
            eprintln!("{e}");
            std::process::exit(2);
        }
        return;
    }

    let t0 = std::time::Instant::now();
    match which {
        "fig4" => run_fig4(quick),
        "overhead" => run_overhead(quick),
        "fig5" => run_pingpong(false, quick),
        "fig6" => run_pingpong(true, quick),
        "table1" => run_table1(),
        "table2" => run_table2(quick),
        "table3" => run_table3(quick),
        "table4" => run_nas(&filter),
        "table5" => run_nas("is."),
        "faults" => run_faults(quick, slo),
        "scale" => run_scale(quick, slo),
        "offload" => run_offload(quick),
        "adaptive" => run_adaptive(quick),
        "coexistence" => run_coexistence(),
        "multiqueue" => run_multiqueue(),
        "jumbo" => run_jumbo(quick),
        "sensitivity" => run_sensitivity(quick),
        "perf" => run_perf(),
        "all" => {
            let campaigns: [(&str, &dyn Fn()); 16] = [
                ("fig4", &|| run_fig4(quick)),
                ("overhead", &|| run_overhead(quick)),
                ("fig5", &|| run_pingpong(false, quick)),
                ("fig6", &|| run_pingpong(true, quick)),
                ("table1", &run_table1),
                ("table2", &|| run_table2(quick)),
                ("table3", &|| run_table3(quick)),
                ("adaptive", &|| run_adaptive(quick)),
                ("coexistence", &run_coexistence),
                ("multiqueue", &run_multiqueue),
                ("jumbo", &|| run_jumbo(quick)),
                ("sensitivity", &|| run_sensitivity(quick)),
                ("faults", &|| run_faults(quick, slo)),
                ("scale", &|| run_scale(quick, slo)),
                ("offload", &|| run_offload(quick)),
                ("table4", &|| run_nas(if quick { "is." } else { "" })),
            ];
            // Wall time per campaign, printed together on stderr at the
            // end: where regenerating the artifacts spends its time.
            let mut walls = Vec::new();
            for (name, run) in campaigns {
                let t = std::time::Instant::now();
                run();
                walls.push((name, t.elapsed().as_secs_f64()));
            }
            for (name, secs) in walls {
                eprintln!("{name:<12} wall time: {secs:.2}s");
            }
        }
        other => {
            eprintln!("unknown experiment '{other}'; `omx-bench list` enumerates them");
            std::process::exit(2);
        }
    }
    if let Some(out) = &trace_flag {
        if omx_bench::traced::supported().contains(&which) {
            // A failed trace export (e.g. --trace=FILE pointing at an
            // unwritable path) fails the run: silently missing artifacts
            // are indistinguishable from successful ones.
            if let Err(e) = omx_bench::traced::run(which, quick, out.as_deref()) {
                eprintln!("{e}");
                std::process::exit(1);
            }
        } else {
            eprintln!(
                "--trace: no trace scenario for '{which}' (supported: {})",
                omx_bench::traced::supported().join(", ")
            );
        }
    }
    eprintln!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}

fn run_fig4(quick: bool) {
    println!("== Figure 4: message rate vs interrupt coalescing delay ==");
    let result = fig4::run(if quick { 600 } else { 2_000 });
    println!("{}", fig4::table(&result).render());
    persist(
        "fig4_message_rate JSON",
        write_json("fig4_message_rate", &result),
    );
    // gnuplot: one column block per curve (delay, rate).
    let mut configs: Vec<String> = result.points.iter().map(|p| p.config.clone()).collect();
    configs.dedup();
    let mut rows = Vec::new();
    for config in &configs {
        rows.push(vec![format!("\n# {config}")]);
        for p in result.points.iter().filter(|p| &p.config == config) {
            rows.push(vec![
                p.delay_us.to_string(),
                format!("{:.0}", p.msgs_per_sec),
            ]);
        }
        rows.push(vec![String::new()]);
    }
    persist(
        "fig4 dat",
        omx_bench::report::write_dat("fig4", "delay_us msgs_per_sec (blocks per config)", &rows),
    );
    persist(
        "fig4 gnuplot script",
        omx_bench::report::write_gnuplot(
            "fig4",
            "set xlabel 'Interrupt coalescing (microseconds)'\n\
         set ylabel 'Messages received / second'\n\
         set key bottom right\n\
         plot 'fig4.dat' index 0 w lp t 'single core, no sleep', \\\n\
              '' index 1 w lp t 'single core, sleep possible', \\\n\
              '' index 2 w lp t 'all cores, sleep possible (default)'\n\
         pause -1\n",
        ),
    );
}

fn run_overhead(quick: bool) {
    println!("== §IV-B2: per-packet interrupt overhead ==");
    let result = overhead::run(if quick { 5_000 } else { 20_000 });
    println!("{}", overhead::table(&result).render());
    println!(
        "paper anchors: disabled {} ns, coalesced {} ns\n",
        result.paper_disabled_ns, result.paper_coalesced_ns
    );
    persist("overhead JSON", write_json("overhead", &result));
}

fn run_pingpong(with_openmx: bool, quick: bool) {
    let (name, label) = if with_openmx {
        ("fig6_pingpong", "Figure 6")
    } else {
        ("fig5_pingpong", "Figure 5")
    };
    println!("== {label}: ping-pong transfer time ==");
    let result = pingpong::run(with_openmx, if quick { 20 } else { 60 });
    println!("{}", pingpong::table(&result).render());
    persist("name JSON", write_json(name, &result));
    // gnuplot: blocks per strategy (size, normalized transfer time).
    let mut strategies: Vec<String> = result.points.iter().map(|p| p.strategy.clone()).collect();
    strategies.dedup();
    let mut rows = Vec::new();
    for strategy in &strategies {
        rows.push(vec![format!("\n# {strategy}")]);
        for p in result.points.iter().filter(|p| &p.strategy == strategy) {
            rows.push(vec![p.msg_len.to_string(), format!("{:.3}", p.normalized)]);
        }
        rows.push(vec![String::new()]);
    }
    persist(
        "name dat",
        omx_bench::report::write_dat(name, "size_bytes normalized_transfer_time", &rows),
    );
    persist(
        "name gnuplot script",
        omx_bench::report::write_gnuplot(
            name,
            &format!(
                "set logscale x 2\nset xlabel 'Message size (bytes)'\n\
             set ylabel 'Normalized Transfer Time'\nset key top right\n\
             plot for [i=0:{}] '{name}.dat' index i w lp t columnheader(1)\npause -1\n",
                strategies.len() - 1
            ),
        ),
    );
}

fn run_table1() {
    println!("== Table I: message rate (msg/s) by size and strategy ==");
    let result = table1::run();
    println!("{}", table1::table(&result).render());
    persist(
        "table1_message_rate JSON",
        write_json("table1_message_rate", &result),
    );
}

fn run_table2(quick: bool) {
    println!("== Table II: 234 KiB transfer anatomy ==");
    let result = table2::run(if quick { 10 } else { 30 });
    let (main, ablation) = table2::table(&result);
    println!("{}", main.render());
    println!("-- §IV-C3 marker ablation (open-mx coalescing) --");
    println!("{}", ablation.render());
    persist("table2_anatomy JSON", write_json("table2_anatomy", &result));
}

fn run_table3(quick: bool) {
    println!("== Table III: packet mis-ordering (32 KiB medium messages) ==");
    let result = table3::run(if quick { 40 } else { 200 });
    println!("{}", table3::table(&result).render());
    persist(
        "table3_misordering JSON",
        write_json("table3_misordering", &result),
    );
}

fn run_nas(filter: &str) {
    println!("== Tables IV & V: NAS Parallel Benchmarks (16 ranks, 2 nodes) ==");
    if !filter.is_empty() {
        println!("(row filter: {filter})");
    }
    let result = nas::run(filter);
    println!("-- Table IV: execution time (s) --");
    println!("{}", nas::table_iv(&result).render());
    println!("-- Table V: interrupts --");
    println!("{}", nas::table_v(&result).render());
    persist(
        "table4_table5_nas JSON",
        write_json("table4_table5_nas", &result),
    );
}

fn run_coexistence() {
    println!("== §IV/§VI: TCP/IP coexistence (non-interference claim) ==");
    let result = coexistence::run();
    println!("{}", coexistence::table(&result).render());
    persist("coexistence JSON", write_json("coexistence", &result));
}

fn run_multiqueue() {
    println!("== §VI: multiqueue interrupt steering (future work) ==");
    let result = multiqueue::run(4, 1_000);
    println!("{}", multiqueue::table(&result).render());
    persist("multiqueue JSON", write_json("multiqueue", &result));
}

fn run_jumbo(quick: bool) {
    println!("== §IV-A: jumbo frames (MTU 9000) ==");
    let result = jumbo::run(if quick { 20 } else { 50 });
    println!("{}", jumbo::table(&result).render());
    persist("jumbo JSON", write_json("jumbo", &result));
}

fn run_sensitivity(quick: bool) {
    println!("== Cost-model sensitivity: are the conclusions robust? ==");
    let result = sensitivity::run(if quick { 500 } else { 1_200 });
    println!("{}", sensitivity::table(&result).render());
    persist("sensitivity JSON", write_json("sensitivity", &result));
}

fn run_perf() {
    println!("== simulator cost: events dispatched per kind, queue placement ==");
    let report = omx_bench::perf::run();
    omx_bench::perf::print_summary(&report);
    persist("BENCH_sim.json", omx_bench::perf::write_report(&report));
    println!("wrote BENCH_sim.json");
}

fn run_scale(quick: bool, slo: bool) {
    println!("== Scale-out collectives: nodes x strategy, bounded switch buffers ==");
    let result = scale::run(quick, slo);
    println!("{}", scale::table(&result).render());
    println!(
        "{} cells, {} switch drops, {} sanitizer violations",
        result.cells.len(),
        result.cells.iter().map(|c| c.switch_drops).sum::<u64>(),
        result
            .cells
            .iter()
            .map(|c| c.sanitizer_violations)
            .sum::<u64>()
    );
    persist("scale JSON", write_json("scale", &result));
}

fn run_offload(quick: bool) {
    println!("== NIC-resident collectives vs host coalescing ==");
    let result = offload::run(quick);
    println!("{}", offload::table(&result).render());
    let off = |f: fn(&offload::OffloadCell) -> u64| {
        result
            .cells
            .iter()
            .filter(|c| c.mode == offload::OFFLOAD_MODE)
            .map(f)
            .sum::<u64>()
    };
    println!(
        "{} cells, {} offloaded ops ({} completed), {} sanitizer violations",
        result.cells.len(),
        off(|c| c.offload.ops_posted),
        off(|c| c.offload.ops_completed),
        result
            .cells
            .iter()
            .map(|c| c.sanitizer_violations)
            .sum::<u64>()
    );
    persist("offload JSON", write_json("offload", &result));
}

fn run_adaptive(quick: bool) {
    println!("== §VI: adaptive coalescing ==");
    let result = adaptive::run(if quick { 20 } else { 60 }, quick);
    println!("{}", adaptive::table(&result).render());
    persist("adaptive JSON", write_json("adaptive", &result));
}

fn run_faults(quick: bool, slo: bool) {
    println!("== Fault injection: loss × strategy × size, ring overflow ==");
    let result = faults::run(quick, slo);
    println!("{}", faults::table(&result).render());
    println!(
        "{} cells, {} sanitizer violations",
        result.cells.len(),
        result
            .cells
            .iter()
            .map(|c| c.sanitizer_violations)
            .sum::<u64>()
    );
    persist("faults JSON", write_json("faults", &result));
}
