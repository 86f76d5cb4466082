//! Experiment CLI — regenerates every table and figure of the paper.
//!
//! ```text
//! omx-bench [<campaign>] [--quick] [--slo] [--jobs N]
//! omx-bench table4 [prefix]
//! omx-bench trace <experiment> [--quick]
//! omx-bench timeline <experiment> [--quick] [--jobs N]
//! omx-bench list
//! ```
//!
//! `omx-bench list` names every campaign with a one-line description, and
//! says which ones `all`, the default, leaves out. `all` runs the others in
//! list order and prints each campaign's wall time on stderr. `table4`
//! takes an optional NAS row filter (a prefix such as `is.`); under
//! `all --quick` it runs the IS rows only.
//!
//! `trace <experiment>` runs a small representative scenario with
//! packet-level tracing enabled and writes Chrome trace-event JSON
//! (Perfetto-loadable), JSONL and a text timeline under `results/`,
//! then prints a per-phase latency attribution (supported: fig5, fig6,
//! pingpong, table2).
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
//! `perf` runs five fixed simulation shapes once each and writes how many
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
use omx_bench::report::{write_dat, write_gnuplot, write_json};

/// The command line as a campaign reads it.
struct Flags<'a> {
    quick: bool,
    slo: bool,
    /// The positional argument after the campaign name, or "".
    arg: &'a str,
}

/// One `omx-bench <name>` command: its name, whether `omx-bench all` runs
/// it, its run function and its one line for `omx-bench list`.
type Campaign = (&'static str, bool, fn(&Flags), &'static str);

/// Every campaign, in the order `list` prints them and `all` runs them.
#[rustfmt::skip]
const CAMPAIGNS: &[Campaign] = &[
    ("fig4",        true,  run_fig4,        "message rate vs coalescing delay (Fig. 4)"),
    ("overhead",    true,  run_overhead,    "per-packet interrupt overhead (§IV-B2)"),
    ("fig5",        true,  run_fig5,        "ping-pong, timeout vs disabled (Fig. 5)"),
    ("fig6",        true,  run_fig6,        "ping-pong + open-mx (Fig. 6)"),
    ("table1",      true,  run_table1,      "message rate by size × strategy (Table I)"),
    ("table2",      true,  run_table2,      "234 KiB anatomy + marker ablation (Table II, §IV-C3)"),
    ("table3",      true,  run_table3,      "packet mis-ordering vs stream coalescing (Table III)"),
    ("adaptive",    true,  run_adaptive,    "adaptive coalescing comparison (§VI)"),
    ("coexistence", true,  run_coexistence, "TCP/IP non-interference check (§IV/§VI)"),
    ("multiqueue",  true,  run_multiqueue,  "flow-hashed IRQ steering (§VI future work)"),
    ("jumbo",       true,  run_jumbo,       "MTU 9000 sanity check (§IV-A)"),
    ("sensitivity", true,  run_sensitivity, "cost-model perturbation study (robustness)"),
    ("faults",      true,  run_faults,      "fault-injection campaign: loss × strategy × size (beyond paper)"),
    ("scale",       true,  run_scale,       "collectives on 4-64 switched nodes × strategy (beyond paper)"),
    ("offload",     true,  run_offload,     "NIC-resident collectives vs host coalescing (beyond paper)"),
    ("table4",      true,  run_table4,      "NAS execution times (Table IV); optional row filter"),
    ("table5",      false, run_table5,      "NAS IS interrupt counts (Table V)"),
    ("perf",        false, run_perf,        "exact event counts per kind → BENCH_sim.json"),
    ("trace",       false, run_trace,       "trace capture: omx-bench trace <experiment> [--quick]"),
    ("timeline",    false, run_timeline,    "windowed telemetry: omx-bench timeline <experiment> [--quick]"),
];

/// Every flag `omx-bench` accepts, as listed in the unknown-flag error.
const FLAGS: &str = "--quick, --slo, --jobs N";

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
    if let Some(flag) = args
        .iter()
        .find(|a| a.starts_with("--") && !matches!(a.as_str(), "--quick" | "--slo"))
    {
        eprintln!("unknown flag '{flag}'; known flags: {FLAGS}");
        std::process::exit(2);
    }
    let mut positional = args.iter().filter(|a| !a.starts_with("--"));
    let which = positional.next().map(String::as_str).unwrap_or("all");
    let flags = Flags {
        quick: args.iter().any(|a| a == "--quick"),
        slo: args.iter().any(|a| a == "--slo"),
        arg: positional.next().map(String::as_str).unwrap_or(""),
    };

    let t0 = std::time::Instant::now();
    match which {
        "list" => {
            for &(name, _, _, what) in CAMPAIGNS {
                println!("{name:<18} {what}");
            }
            let left_out: Vec<&str> = CAMPAIGNS
                .iter()
                .filter(|&&(_, in_all, ..)| !in_all)
                .map(|&(name, ..)| name)
                .collect();
            let all = format!("every campaign above except {}", left_out.join(", "));
            println!("{:<18} {all}", "all");
            println!("{:<18} this list", "list");
            return;
        }
        "all" => {
            // `--quick` keeps table4 to the IS rows; no other campaign reads
            // the positional argument.
            let flags = Flags {
                arg: if flags.quick { "is." } else { "" },
                ..flags
            };
            // Wall time per campaign, printed together on stderr at the
            // end: where regenerating the artifacts spends its time.
            let mut walls = Vec::new();
            for &(name, _, run, _) in CAMPAIGNS.iter().filter(|&&(_, in_all, ..)| in_all) {
                let t = std::time::Instant::now();
                run(&flags);
                walls.push((name, t.elapsed().as_secs_f64()));
            }
            for (name, secs) in walls {
                eprintln!("{name:<12} wall time: {secs:.2}s");
            }
        }
        name => match CAMPAIGNS.iter().find(|&&(n, ..)| n == name) {
            Some(&(_, _, run, _)) => run(&flags),
            None => {
                eprintln!("unknown experiment '{name}'; `omx-bench list` enumerates them");
                std::process::exit(2);
            }
        },
    }
    eprintln!("total wall time: {:.1}s", t0.elapsed().as_secs_f64());
}

fn run_fig4(f: &Flags) {
    println!("== Figure 4: message rate vs interrupt coalescing delay ==");
    let result = fig4::run(if f.quick { 600 } else { 2_000 });
    println!("{}", fig4::table(&result).render());
    write_json("fig4_message_rate", &result);
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
    write_dat("fig4", "delay_us msgs_per_sec (blocks per config)", &rows);
    write_gnuplot(
        "fig4",
        "set xlabel 'Interrupt coalescing (microseconds)'\n\
         set ylabel 'Messages received / second'\n\
         set key bottom right\n\
         plot 'fig4.dat' index 0 w lp t 'single core, no sleep', \\\n\
              '' index 1 w lp t 'single core, sleep possible', \\\n\
              '' index 2 w lp t 'all cores, sleep possible (default)'\n\
         pause -1\n",
    );
}

fn run_overhead(f: &Flags) {
    println!("== §IV-B2: per-packet interrupt overhead ==");
    let result = overhead::run(if f.quick { 5_000 } else { 20_000 });
    println!("{}", overhead::table(&result).render());
    println!(
        "paper anchors: disabled {} ns, coalesced {} ns\n",
        result.paper_disabled_ns, result.paper_coalesced_ns
    );
    write_json("overhead", &result);
}

fn run_fig5(f: &Flags) {
    run_pingpong(false, f.quick);
}

fn run_fig6(f: &Flags) {
    run_pingpong(true, f.quick);
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
    write_json(name, &result);
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
    write_dat(name, "size_bytes normalized_transfer_time", &rows);
    write_gnuplot(
        name,
        &format!(
            "set logscale x 2\nset xlabel 'Message size (bytes)'\n\
             set ylabel 'Normalized Transfer Time'\nset key top right\n\
             plot for [i=0:{}] '{name}.dat' index i w lp t columnheader(1)\npause -1\n",
            strategies.len() - 1
        ),
    );
}

fn run_table1(_: &Flags) {
    println!("== Table I: message rate (msg/s) by size and strategy ==");
    let result = table1::run();
    println!("{}", table1::table(&result).render());
    write_json("table1_message_rate", &result);
}

fn run_table2(f: &Flags) {
    println!("== Table II: 234 KiB transfer anatomy ==");
    let result = table2::run(if f.quick { 10 } else { 30 });
    let (main, ablation) = table2::table(&result);
    println!("{}", main.render());
    println!("-- §IV-C3 marker ablation (open-mx coalescing) --");
    println!("{}", ablation.render());
    write_json("table2_anatomy", &result);
}

fn run_table3(f: &Flags) {
    println!("== Table III: packet mis-ordering (32 KiB medium messages) ==");
    let result = table3::run(if f.quick { 40 } else { 200 });
    println!("{}", table3::table(&result).render());
    write_json("table3_misordering", &result);
}

fn run_table4(f: &Flags) {
    run_nas(f.arg);
}

fn run_table5(_: &Flags) {
    run_nas("is.");
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
    write_json("table4_table5_nas", &result);
}

fn run_coexistence(_: &Flags) {
    println!("== §IV/§VI: TCP/IP coexistence (non-interference claim) ==");
    let result = coexistence::run();
    println!("{}", coexistence::table(&result).render());
    write_json("coexistence", &result);
}

fn run_multiqueue(_: &Flags) {
    println!("== §VI: multiqueue interrupt steering (future work) ==");
    let result = multiqueue::run(4, 1_000);
    println!("{}", multiqueue::table(&result).render());
    write_json("multiqueue", &result);
}

fn run_jumbo(f: &Flags) {
    println!("== §IV-A: jumbo frames (MTU 9000) ==");
    let result = jumbo::run(if f.quick { 20 } else { 50 });
    println!("{}", jumbo::table(&result).render());
    write_json("jumbo", &result);
}

fn run_sensitivity(f: &Flags) {
    println!("== Cost-model sensitivity: are the conclusions robust? ==");
    let result = sensitivity::run(if f.quick { 500 } else { 1_200 });
    println!("{}", sensitivity::table(&result).render());
    write_json("sensitivity", &result);
}

fn run_perf(_: &Flags) {
    println!("== simulator cost: events dispatched per kind, queue placement ==");
    let report = omx_bench::perf::run();
    omx_bench::perf::print_summary(&report);
    omx_bench::perf::write_report(&report);
}

fn run_scale(f: &Flags) {
    println!("== Scale-out collectives: nodes x strategy, bounded switch buffers ==");
    let result = scale::run(f.quick, f.slo);
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
    write_json("scale", &result);
}

fn run_offload(f: &Flags) {
    println!("== NIC-resident collectives vs host coalescing ==");
    let result = offload::run(f.quick);
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
    write_json("offload", &result);
}

fn run_adaptive(f: &Flags) {
    println!("== §VI: adaptive coalescing ==");
    let result = adaptive::run(if f.quick { 20 } else { 60 }, f.quick);
    println!("{}", adaptive::table(&result).render());
    write_json("adaptive", &result);
}

fn run_faults(f: &Flags) {
    println!("== Fault injection: loss × strategy × size, ring overflow ==");
    let result = faults::run(f.quick, f.slo);
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
    write_json("faults", &result);
}

fn run_trace(f: &Flags) {
    let experiment = if f.arg.is_empty() { "fig5" } else { f.arg };
    exit_on_err(omx_bench::traced::run(experiment, f.quick));
}

fn run_timeline(f: &Flags) {
    let experiment = if f.arg.is_empty() { "scale" } else { f.arg };
    exit_on_err(omx_bench::timeline::run(experiment, f.quick));
}

/// Exit with status 2 on a subcommand's usage error.
fn exit_on_err(result: Result<(), String>) {
    if let Err(e) = result {
        eprintln!("{e}");
        std::process::exit(2);
    }
}
