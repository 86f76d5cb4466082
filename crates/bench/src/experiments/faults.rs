//! Fault-injection & recovery-validation campaign (beyond the paper).
//!
//! DESIGN §7 promises failure-injection coverage: packet loss must exercise
//! the retransmit path and ring overflow the drop/refill path. This
//! experiment drives the *full cluster* — not per-crate units — through
//! both, sweeping loss rate × coalescing strategy × the three Table I size
//! classes, plus a ring-overflow scenario per strategy (a 16-slot RX ring
//! against a host that copies 7× slower than calibrated).
//!
//! Every cell runs to quiescence (no actor ever calls `stop`), then checks
//! the sim-sanitizer invariants: exact byte conservation, no stranded
//! protocol state, interrupt liveness (see `omx_core::sanitizer`). A cell
//! with violations still renders — `sanitizer_violations` is part of the
//! report — but the run panics first unless every invariant holds, so a
//! green `omx-bench faults` certifies the recovery path end to end.
//!
//! Cells are independent (own cluster, own fixed seed derived from the
//! cell index) and run through [`omx_sim::pool::map`], committing in
//! cell-index order — `--jobs N` changes wall-clock time, never a byte of
//! `results/faults.json` (DESIGN §11; enforced by
//! `tests/parallel_determinism.rs`).

use super::all_strategies;
use crate::report::Table;
use omx_core::prelude::*;
use omx_core::system::{Actor, ActorCtx, RecvCompletion};
use omx_fabric::DisturbanceConfig;
use omx_sim::stats::Histogram;
use omx_sim::StopCondition;
use std::any::Any;

/// Loss rates swept, as probabilities ({0, 0.1 %, 1 %, 5 %}).
pub const LOSS_RATES: [f64; 4] = [0.0, 0.001, 0.01, 0.05];

/// Table I size classes: header-only, medium (fragmented eager), large
/// (rendezvous → pull).
pub const SIZE_CLASSES: [u32; 3] = [0, 32 << 10, 1 << 20];

/// One cell of the campaign.
#[derive(Debug, Clone)]
pub struct FaultCell {
    /// Scenario: `loss` (fabric drops frames) or `ring-pressure`
    /// (16-slot RX ring + slow host copies → NIC ring overflow).
    pub scenario: String,
    /// Message size in bytes.
    pub msg_len: u32,
    /// Injected frame-loss probability.
    pub loss: f64,
    /// Strategy label.
    pub strategy: String,
    /// Messages delivered (all posted messages, or the run fails).
    pub messages: u32,
    /// First-post-to-quiescence span, ns.
    pub completion_ns: u64,
    /// Delivered message rate over the completion span.
    pub msgs_per_sec: f64,
    /// Delivered payload rate over the completion span, Mbit/s.
    pub goodput_mbps: f64,
    /// Completion span relative to the zero-loss cell of the same size
    /// and strategy (1.0 = no slowdown); the campaign's recovery-time
    /// metric.
    pub recovery_ratio: f64,
    /// Eager data packets retransmitted after an RTO.
    pub eager_retransmits: u64,
    /// Pull blocks re-requested after a receiver-side stall.
    pub pull_rerequests: u64,
    /// Frames dropped to NIC RX-ring overflow.
    pub ring_drops: u64,
    /// Frames dropped by the fabric injector.
    pub frames_dropped: u64,
    /// Sanitizer violations (always 0 in a successful run; kept in the
    /// report so a `--keep-going` future mode stays honest).
    pub sanitizer_violations: u64,
    /// Per-message post-to-completion latency percentiles, present only
    /// when the campaign ran with `--slo` (the field is omitted from the
    /// JSON otherwise, so default reports stay byte-identical).
    pub slo: Option<SloSummary>,
}

/// Full campaign result.
#[derive(Debug, Clone)]
pub struct FaultsResult {
    /// All cells, loss sweep first, then ring-pressure.
    pub cells: Vec<FaultCell>,
}

/// Sender: keeps `window` posts outstanding until `total` are posted,
/// then goes quiet — the run ends at queue-empty, never via `stop()`.
struct FaultSender {
    peer: EndpointAddr,
    msg_len: u32,
    total: u32,
    window: u32,
    posted: u32,
    completed: u32,
    /// Post timestamp of message `i` (match info `i`), for SLO latency.
    post_ns: Vec<u64>,
}

impl FaultSender {
    fn pump(&mut self, ctx: &mut ActorCtx) {
        while self.posted < self.total && self.posted < self.completed + self.window {
            ctx.post_send(
                self.peer,
                self.msg_len,
                u64::from(self.posted),
                u64::from(self.posted),
            );
            self.post_ns.push(ctx.now().as_nanos());
            self.posted += 1;
        }
    }
}

impl Actor for FaultSender {
    fn on_start(&mut self, ctx: &mut ActorCtx) {
        self.pump(ctx);
    }

    fn on_send_complete(&mut self, ctx: &mut ActorCtx, _handle: u64) {
        self.completed += 1;
        self.pump(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Receiver: posts exactly `expect` receives (a 64-deep pre-posted pool,
/// refilled per completion) and records the delivery span. Never stops.
struct FaultReceiver {
    expect: u32,
    posted: u32,
    got: u32,
    first_ns: u64,
    last_ns: u64,
    /// Completion timestamp of message `i`, indexed by the sender's
    /// match info (== posted index), for SLO latency.
    recv_ns: Vec<u64>,
}

impl Actor for FaultReceiver {
    fn blocking_waits(&self) -> bool {
        true
    }

    fn on_start(&mut self, ctx: &mut ActorCtx) {
        while self.posted < self.expect.min(64) {
            ctx.post_recv(0, 0, u64::from(self.posted));
            self.posted += 1;
        }
    }

    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, c: RecvCompletion) {
        if self.got == 0 {
            self.first_ns = ctx.now().as_nanos();
        }
        self.got += 1;
        self.last_ns = ctx.now().as_nanos();
        let idx = c.match_info as usize;
        if idx < self.recv_ns.len() {
            self.recv_ns[idx] = ctx.now().as_nanos();
        }
        if self.posted < self.expect {
            ctx.post_recv(0, 0, u64::from(self.posted));
            self.posted += 1;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Messages per size class (fewer for big messages to bound run time).
fn messages_for(len: u32, quick: bool) -> u32 {
    let full = match len {
        0..=1024 => 300,
        1025..=65_536 => 120,
        _ => 24,
    };
    if quick {
        (full / 6).max(4)
    } else {
        full
    }
}

struct Job {
    scenario: &'static str,
    msg_len: u32,
    loss: f64,
    strategy_idx: usize,
    strategy: CoalescingStrategy,
    label: &'static str,
    messages: u32,
    seed: u64,
    /// Collect per-message latency percentiles into [`FaultCell::slo`].
    slo: bool,
}

fn run_cell(job: &Job) -> FaultCell {
    let mut cfg = ClusterConfig::default();
    cfg.nic.strategy = job.strategy;
    cfg.fabric.disturbance = DisturbanceConfig {
        loss_probability: job.loss,
        ..DisturbanceConfig::none()
    };
    cfg.seed = job.seed;
    if job.scenario == "ring-pressure" {
        // A near-starved RX ring against a host that copies 7× slower
        // than calibrated: DMA + ready occupancy overflows the ring and
        // the NIC drops, so delivery relies on the retransmit path.
        cfg.nic.rx_ring_slots = 16;
        cfg.host.costs.copy_bytes_per_us = 100;
    }
    let mut cluster = Cluster::new(cfg);
    cluster.add_actor(
        0,
        0,
        Box::new(FaultSender {
            peer: EndpointAddr::new(1, 0),
            msg_len: job.msg_len,
            total: job.messages,
            window: 16,
            posted: 0,
            completed: 0,
            post_ns: Vec::new(),
        }),
    );
    cluster.add_actor(
        1,
        0,
        Box::new(FaultReceiver {
            expect: job.messages,
            posted: 0,
            got: 0,
            first_ns: 0,
            last_ns: 0,
            recv_ns: vec![0; job.messages as usize],
        }),
    );
    let stop = cluster.run(Time::from_secs(300));
    assert_eq!(
        stop,
        StopCondition::QueueEmpty,
        "faults cell ({} {} B loss={} {}) did not quiesce: {stop:?}",
        job.scenario,
        job.msg_len,
        job.loss,
        job.label,
    );
    let sanitizer = cluster.sanitize();
    let violations = sanitizer.all_violations();
    assert!(
        violations.is_empty(),
        "faults cell ({} {} B loss={} {}) violated sim-sanitizer invariants:\n  {}",
        job.scenario,
        job.msg_len,
        job.loss,
        job.label,
        violations.join("\n  ")
    );
    let recv = cluster.actor::<FaultReceiver>(1, 0).expect("receiver");
    assert_eq!(recv.got, job.messages, "sanitizer missed a lost delivery?");
    let span_ns = recv.last_ns.saturating_sub(recv.first_ns).max(1);
    let slo = if job.slo {
        let sender = cluster.actor::<FaultSender>(0, 0).expect("sender");
        let mut h = Histogram::new();
        for (i, &done) in recv.recv_ns.iter().enumerate() {
            h.record(done.saturating_sub(sender.post_ns[i]));
        }
        SloSummary::from_histogram(&h)
    } else {
        None
    };
    let m = cluster.metrics();
    FaultCell {
        scenario: job.scenario.to_string(),
        msg_len: job.msg_len,
        loss: job.loss,
        strategy: job.label.to_string(),
        messages: job.messages,
        completion_ns: span_ns,
        msgs_per_sec: (job.messages.saturating_sub(1)) as f64 / (span_ns as f64 / 1e9),
        goodput_mbps: sanitizer.bytes_delivered as f64 * 8.0 / 1e6 / (span_ns as f64 / 1e9),
        recovery_ratio: 1.0, // filled in against the zero-loss baseline below
        eager_retransmits: m.total_retransmits(),
        pull_rerequests: m.total_pull_rerequests(),
        ring_drops: m.total_ring_drops(),
        frames_dropped: m.frames_dropped,
        sanitizer_violations: violations.len() as u64,
        slo,
    }
}

/// Run the campaign. `quick` shrinks per-cell message counts for CI smoke
/// runs; the swept matrix (4 loss rates × 5 strategies × 3 sizes, plus 5
/// ring-pressure cells) is identical in both modes. `slo` additionally
/// records per-message post-to-completion latency percentiles into each
/// cell (pure observation: timestamps are harvested from actor state the
/// run already tracks, so the simulation itself is unchanged).
pub fn run(quick: bool, slo: bool) -> FaultsResult {
    let mut jobs = Vec::new();
    for &msg_len in &SIZE_CLASSES {
        for (li, &loss) in LOSS_RATES.iter().enumerate() {
            for (si, (label, strategy)) in all_strategies().into_iter().enumerate() {
                jobs.push(Job {
                    scenario: "loss",
                    msg_len,
                    loss,
                    strategy_idx: si,
                    strategy,
                    label,
                    messages: messages_for(msg_len, quick),
                    // Deterministic per-cell seed: same seed ⇒ same frames
                    // lost ⇒ byte-identical report across processes.
                    seed: 0xFA017 + (msg_len as u64) * 1_000 + (li as u64) * 10 + si as u64,
                    slo,
                });
            }
        }
    }
    for (si, (label, strategy)) in all_strategies().into_iter().enumerate() {
        jobs.push(Job {
            scenario: "ring-pressure",
            msg_len: 32 << 10,
            loss: 0.0,
            strategy_idx: si,
            strategy,
            label,
            messages: messages_for(32 << 10, quick) / 2,
            seed: 0x000F_A017_0000 + si as u64,
            slo,
        });
    }
    let mut cells = omx_sim::pool::map(jobs, |job| (run_cell(&job), job));
    // Recovery ratio: completion span vs the zero-loss cell of the same
    // size and strategy (needs the whole result set, hence post-hoc).
    let baselines: Vec<(u32, usize, u64)> = cells
        .iter()
        .filter(|(c, j)| j.scenario == "loss" && c.loss == 0.0)
        .map(|(c, j)| (c.msg_len, j.strategy_idx, c.completion_ns))
        .collect();
    for (cell, job) in &mut cells {
        if job.scenario != "loss" {
            continue;
        }
        let base = baselines
            .iter()
            .find(|(len, si, _)| *len == cell.msg_len && *si == job.strategy_idx)
            .map(|(_, _, ns)| *ns)
            .unwrap_or(1);
        cell.recovery_ratio = cell.completion_ns as f64 / base.max(1) as f64;
    }
    FaultsResult {
        cells: cells.into_iter().map(|(c, _)| c).collect(),
    }
}

/// Render the loss sweep (completion slowdown vs zero loss) plus recovery
/// counters, one block per size class. Cells carrying an [`SloSummary`]
/// (`--slo` runs) gain p50/p99/p999 message-latency columns.
pub fn table(result: &FaultsResult) -> Table {
    let slo = result.cells.iter().any(|c| c.slo.is_some());
    let mut headers = vec![
        "scenario", "size", "loss", "strategy", "msgs/s", "slowdown", "retx", "rereq", "ringdrop",
        "lost",
    ];
    if slo {
        headers.extend(["p50_us", "p99_us", "p999_us"]);
    }
    let mut t = Table::new(headers);
    for c in &result.cells {
        let label = match c.msg_len {
            0 => "0 B".to_string(),
            l if l >= 1 << 20 => format!("{} MiB", l >> 20),
            l => format!("{} KiB", l >> 10),
        };
        let mut row = vec![
            c.scenario.clone(),
            label,
            format!("{:.1}%", c.loss * 100.0),
            c.strategy.clone(),
            format!("{:.0}", c.msgs_per_sec),
            format!("{:.2}x", c.recovery_ratio),
            c.eager_retransmits.to_string(),
            c.pull_rerequests.to_string(),
            c.ring_drops.to_string(),
            c.frames_dropped.to_string(),
        ];
        if slo {
            match &c.slo {
                Some(s) => row.extend([
                    format!("{:.1}", s.p50_ns as f64 / 1e3),
                    format!("{:.1}", s.p99_ns as f64 / 1e3),
                    format!("{:.1}", s.p999_ns as f64 / 1e3),
                ]),
                None => row.extend(["-".into(), "-".into(), "-".into()]),
            }
        }
        t.row(row);
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use omx_sim::json::ToJson;

    /// One lossy cell end to end: delivers everything, retransmits
    /// something, and the sanitizer stays clean (the assertions inside
    /// `run_cell` are the real check).
    #[test]
    fn lossy_cell_recovers_clean() {
        let cell = run_cell(&Job {
            scenario: "loss",
            msg_len: 4096,
            loss: 0.02,
            strategy_idx: 0,
            strategy: CoalescingStrategy::Timeout { delay_us: 75 },
            label: "default",
            messages: 40,
            seed: 42,
            slo: true,
        });
        assert_eq!(cell.sanitizer_violations, 0);
        assert!(cell.frames_dropped > 0, "2% loss on 40×4 KiB must drop");
        assert!(cell.eager_retransmits > 0, "drops must force retransmits");
        let slo = cell.slo.expect("slo requested");
        assert_eq!(slo.count, 40);
        assert!(slo.p50_ns > 0 && slo.p50_ns <= slo.p99_ns && slo.p99_ns <= slo.p999_ns);
        // The JSON shape without --slo must match the pre-SLO report
        // exactly: the optional field is omitted, not null.
        let mut plain = cell.clone();
        plain.slo = None;
        let rendered = plain.to_json().render();
        assert!(
            !rendered.contains("slo"),
            "default cell JSON gained a field"
        );
    }

    /// Ring-pressure scenario actually overflows the ring.
    #[test]
    fn ring_pressure_forces_ring_drops() {
        let cell = run_cell(&Job {
            scenario: "ring-pressure",
            msg_len: 32 << 10,
            loss: 0.0,
            strategy_idx: 0,
            strategy: CoalescingStrategy::Timeout { delay_us: 75 },
            label: "default",
            messages: 20,
            seed: 7,
            slo: false,
        });
        assert_eq!(cell.sanitizer_violations, 0);
        assert!(cell.ring_drops > 0, "16-slot ring + slow host must drop");
        assert!(cell.slo.is_none(), "slo not requested");
    }
}

omx_sim::impl_to_json!(FaultCell {
    scenario,
    msg_len,
    loss,
    strategy,
    messages,
    completion_ns,
    msgs_per_sec,
    goodput_mbps,
    recovery_ratio,
    eager_retransmits,
    pull_rerequests,
    ring_drops,
    frames_dropped,
    sanitizer_violations,
    slo?,
});
omx_sim::impl_to_json!(FaultsResult { cells });
