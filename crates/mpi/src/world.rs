//! Job launcher: ranks → cluster wiring → run → report.

use crate::executor::RankActor;
use crate::ops::Op;
use omx_core::metrics::ClusterMetrics;
use omx_core::system::{Cluster, ClusterConfig, EventCounts};
use omx_core::telemetry::{Telemetry, TelemetryConfig};
use omx_core::wire::EndpointAddr;
use omx_sim::stats::Histogram;
use omx_sim::{QueueStats, StopCondition, Time};
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// Rank-to-node placement (block distribution, like the paper's
/// `mpirun -np 16 --bynode=false` over 2 nodes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorldSpec {
    /// Total ranks.
    pub ranks: usize,
    /// Ranks per node (8 in the paper: one per core).
    pub ranks_per_node: usize,
}

impl WorldSpec {
    /// The paper's configuration: 16 ranks over 2 nodes.
    pub fn paper_16x2() -> Self {
        WorldSpec {
            ranks: 16,
            ranks_per_node: 8,
        }
    }

    /// Number of nodes this world needs.
    pub fn nodes(&self) -> usize {
        self.ranks.div_ceil(self.ranks_per_node)
    }

    /// Node hosting `rank`.
    pub fn node_of(&self, rank: usize) -> u16 {
        (rank / self.ranks_per_node) as u16
    }

    /// Endpoint index of `rank` on its node.
    pub fn ep_of(&self, rank: usize) -> u8 {
        (rank % self.ranks_per_node) as u8
    }

    /// Endpoint address of `rank`.
    pub fn addr(&self, rank: usize) -> EndpointAddr {
        EndpointAddr {
            node: omx_core::wire::NodeId(self.node_of(rank)),
            endpoint: self.ep_of(rank),
        }
    }

    /// True when both ranks share a node (shared-memory path).
    pub fn same_node(&self, a: usize, b: usize) -> bool {
        self.node_of(a) == self.node_of(b)
    }
}

/// Where collectives execute: on the host CPUs (decomposed into
/// point-to-point rounds that each cost per-hop interrupts) or on the NIC
/// (the firmware runs the schedule; the host sees exactly one completion
/// interrupt per operation per rank).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CollectiveExec {
    /// Software collectives over Open-MX point-to-point messages (the
    /// paper's baseline; interacts with the NIC's coalescing strategy).
    #[default]
    Host,
    /// NIC-resident collectives ([`omx_core::offload`]): barrier always,
    /// bcast and allreduce when the payload fits the firmware buffer
    /// ([`omx_core::offload::OffloadConfig::max_payload`]). Ineligible
    /// collectives transparently fall back to the host path.
    NicOffload,
}

/// Result of one MPI job run.
#[derive(Debug, Clone)]
pub struct MpiRunReport {
    /// Job completion time (max over ranks), nanoseconds.
    pub elapsed_ns: u64,
    /// Per-rank finish times, nanoseconds.
    pub per_rank_finish_ns: Vec<u64>,
    /// Total wall time of compute phases across ranks.
    pub compute_wall_ns: u64,
    /// Total CPU time interrupts stole from compute phases.
    pub stolen_ns: u64,
    /// Wall latency of every completed program step, merged across ranks
    /// (source of the campaigns' p50/p99/p999 SLO summaries).
    pub op_latency: Histogram,
    /// Cluster-wide metrics (interrupts, wakeups, retransmits, …).
    pub metrics: ClusterMetrics,
    /// Windowed telemetry, when enabled via [`MpiWorld::enable_telemetry`].
    pub telemetry: Option<Telemetry>,
    /// Per-node NIC collective-offload engine counters (all zero unless the
    /// job ran with [`CollectiveExec::NicOffload`]).
    pub offload: Vec<omx_core::offload::OffloadCounters>,
    /// Events dispatched per event kind ([`Cluster::event_counts`]).
    pub events: EventCounts,
    /// Event-queue placement counts ([`Cluster::queue_stats`]).
    pub queue: QueueStats,
}

/// A configured MPI job.
///
/// ```
/// use omx_core::system::ClusterConfig;
/// use omx_mpi::{MpiWorld, Op, WorldSpec};
///
/// let world = MpiWorld::new(
///     WorldSpec { ranks: 4, ranks_per_node: 2 },
///     ClusterConfig::default(),
/// );
/// let report = world.run(|_rank| vec![
///     Op::Compute(10_000),
///     Op::Allreduce { bytes: 64 },
/// ]);
/// assert_eq!(report.per_rank_finish_ns.len(), 4);
/// ```
pub struct MpiWorld {
    spec: WorldSpec,
    cluster: Cluster,
    exec: CollectiveExec,
    offload_max_payload: u32,
}

impl MpiWorld {
    /// Build a world on a cluster derived from `base` (node/endpoint counts
    /// are overwritten to fit the world).
    pub fn new(spec: WorldSpec, mut base: ClusterConfig) -> Self {
        base.nodes = spec.nodes();
        base.endpoints_per_node = spec.ranks_per_node;
        assert!(
            spec.ranks_per_node <= base.host.cores,
            "one rank per core maximum ({} ranks/node > {} cores)",
            spec.ranks_per_node,
            base.host.cores
        );
        let offload_max_payload = base.offload.max_payload;
        MpiWorld {
            spec,
            cluster: Cluster::new(base),
            exec: CollectiveExec::Host,
            offload_max_payload,
        }
    }

    /// Select where collectives execute (default: [`CollectiveExec::Host`]).
    pub fn with_collective_exec(mut self, exec: CollectiveExec) -> Self {
        self.exec = exec;
        self
    }

    /// The placement spec.
    pub fn spec(&self) -> WorldSpec {
        self.spec
    }

    /// Enable windowed telemetry on the underlying cluster; the collected
    /// [`Telemetry`] comes back in [`MpiRunReport::telemetry`]. Sampling
    /// only reads layer state and cannot change simulation results.
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.cluster.enable_telemetry(cfg);
    }

    /// Run an SPMD job: `program(rank)` builds each rank's op list.
    ///
    /// Returns the job report; panics if the job deadlocks (horizon is one
    /// simulated hour). The simulation stops the instant the last rank
    /// finishes; use [`MpiWorld::run_drained`] to instead drain to
    /// quiescence and assert the sim-sanitizer invariants.
    pub fn run(self, program: impl Fn(usize) -> Vec<Op>) -> MpiRunReport {
        self.launch(program, false).0
    }

    /// Like [`MpiWorld::run`], but the simulation drains to `QueueEmpty`
    /// after the last rank finishes (trailing acks, coalescing timers) and
    /// the sim-sanitizer invariants — exact byte conservation, duplicate
    /// detection, no stranded protocol state — are asserted at quiescence.
    ///
    /// Returns the job report plus the sanitizer's quiescence report.
    pub fn run_drained(
        self,
        program: impl Fn(usize) -> Vec<Op>,
    ) -> (MpiRunReport, omx_core::sanitizer::SanitizerReport) {
        let (report, sanitizer) = self.launch(program, true);
        (report, sanitizer.expect("drained run sanitizes"))
    }

    fn launch(
        mut self,
        program: impl Fn(usize) -> Vec<Op>,
        drain: bool,
    ) -> (MpiRunReport, Option<omx_core::sanitizer::SanitizerReport>) {
        let done = Arc::new(AtomicUsize::new(0));
        for rank in 0..self.spec.ranks {
            let mut actor = RankActor::new(rank, self.spec, program(rank), Arc::clone(&done))
                .with_exec(self.exec, self.offload_max_payload);
            if drain {
                actor = actor.draining();
            }
            self.cluster.add_actor(
                self.spec.node_of(rank),
                self.spec.ep_of(rank),
                Box::new(actor),
            );
        }
        let stop = self.cluster.run(Time::from_secs(3_600));
        let expected = if drain {
            StopCondition::QueueEmpty
        } else {
            StopCondition::PredicateSatisfied
        };
        assert_eq!(
            stop,
            expected,
            "MPI job did not complete: {stop:?} at {} ({} events)",
            self.cluster.now(),
            self.cluster.events_processed(),
        );
        let sanitizer = if drain {
            let report = self.cluster.sanitize();
            let violations = report.all_violations();
            assert!(
                violations.is_empty(),
                "MPI job violated sim-sanitizer invariants at quiescence:\n  {}",
                violations.join("\n  ")
            );
            Some(report)
        } else {
            None
        };
        let mut per_rank = Vec::with_capacity(self.spec.ranks);
        let mut compute_wall = 0;
        let mut stolen = 0;
        let mut op_latency = Histogram::new();
        for rank in 0..self.spec.ranks {
            let actor = self
                .cluster
                .actor::<RankActor>(self.spec.node_of(rank), self.spec.ep_of(rank))
                .expect("rank actor present");
            per_rank.push(actor.finished_at().expect("rank finished").as_nanos());
            compute_wall += actor.compute_wall_ns();
            stolen += actor.stolen_ns();
            for &lat in actor.op_latency_ns() {
                op_latency.record(lat);
            }
        }
        let report = MpiRunReport {
            elapsed_ns: per_rank.iter().copied().max().unwrap_or(0),
            per_rank_finish_ns: per_rank,
            compute_wall_ns: compute_wall,
            stolen_ns: stolen,
            op_latency,
            metrics: self.cluster.metrics(),
            telemetry: self.cluster.take_telemetry(),
            offload: self.cluster.offload_counters(),
            events: self.cluster.event_counts(),
            queue: self.cluster.queue_stats(),
        };
        (report, sanitizer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::ProgramBuilder;
    use omx_core::prelude::{CoalescingStrategy, IrqRouting};

    fn world(ranks: usize, rpn: usize) -> MpiWorld {
        MpiWorld::new(
            WorldSpec {
                ranks,
                ranks_per_node: rpn,
            },
            ClusterConfig::default(),
        )
    }

    #[test]
    fn spec_mapping() {
        let s = WorldSpec::paper_16x2();
        assert_eq!(s.nodes(), 2);
        assert_eq!(s.node_of(0), 0);
        assert_eq!(s.node_of(8), 1);
        assert_eq!(s.ep_of(10), 2);
        assert!(s.same_node(0, 7));
        assert!(!s.same_node(7, 8));
    }

    #[test]
    fn pure_compute_job_finishes_at_compute_time() {
        let report = world(4, 2).run(|_| vec![Op::Compute(1_000_000)]);
        assert!(report.elapsed_ns >= 1_000_000);
        assert!(report.elapsed_ns < 1_200_000, "{}", report.elapsed_ns);
        assert_eq!(report.per_rank_finish_ns.len(), 4);
    }

    #[test]
    fn ping_pong_pair_via_ops() {
        let report = world(2, 1).run(|rank| {
            if rank == 0 {
                vec![
                    Op::Send {
                        peer: 1,
                        bytes: 64,
                        tag: 1,
                    },
                    Op::Recv { peer: 1, tag: 2 },
                ]
            } else {
                vec![
                    Op::Recv { peer: 0, tag: 1 },
                    Op::Send {
                        peer: 0,
                        bytes: 64,
                        tag: 2,
                    },
                ]
            }
        });
        assert!(report.elapsed_ns > 0);
        // Two small messages crossed the wire (plus acks).
        assert!(report.metrics.frames_carried >= 2);
    }

    #[test]
    fn barrier_synchronises_ranks() {
        // Rank 0 computes 5 ms; everyone then crosses a barrier: all finish
        // after the slowest rank.
        let report = world(8, 4).run(|rank| {
            let mut p = ProgramBuilder::new();
            if rank == 0 {
                p = p.op(Op::Compute(5_000_000));
            }
            p.op(Op::Barrier).build()
        });
        for (rank, finish) in report.per_rank_finish_ns.iter().enumerate() {
            assert!(
                *finish >= 5_000_000,
                "rank {rank} finished at {finish} before the barrier released"
            );
        }
    }

    #[test]
    fn allreduce_all_ranks_complete() {
        let report = world(16, 8).run(|_| {
            ProgramBuilder::new()
                .repeat(3, &[Op::Allreduce { bytes: 8 }])
                .build()
        });
        assert_eq!(report.per_rank_finish_ns.len(), 16);
    }

    #[test]
    fn alltoall_moves_the_expected_volume() {
        let bytes = 10_000u32;
        let report = world(4, 2).run(|_| vec![Op::Alltoall { bytes }]);
        // Inter-node pairs: ranks {0,1} x {2,3} = 8 directed pairs of 10 kB.
        // Intra-node traffic uses shared memory (not counted by the fabric).
        let inter = 8 * u64::from(bytes);
        let carried =
            report.metrics.nodes[0].nic.packets.get() + report.metrics.nodes[1].nic.packets.get();
        assert!(carried > 0);
        let payload: u64 = report.metrics.frames_carried; // frames, not bytes
        assert!(payload >= inter / 1500, "too few frames: {payload}");
    }

    #[test]
    fn bcast_and_reduce_complete_from_nonzero_root() {
        let report = world(8, 4).run(|_| {
            vec![
                Op::Bcast {
                    root: 3,
                    bytes: 4096,
                },
                Op::Reduce {
                    root: 5,
                    bytes: 4096,
                },
            ]
        });
        assert_eq!(report.per_rank_finish_ns.len(), 8);
    }

    #[test]
    fn alltoallv_with_asymmetric_sizes() {
        let report = world(4, 2).run(|_| {
            vec![Op::Alltoallv {
                bytes: vec![0, 100, 20_000, 300],
            }]
        });
        assert!(report.elapsed_ns > 0);
    }

    #[test]
    fn determinism_across_runs() {
        let run = || {
            world(16, 8).run(|rank| {
                ProgramBuilder::new()
                    .op(Op::Compute(10_000 * (rank as u64 + 1)))
                    .op(Op::Alltoall { bytes: 2_000 })
                    .op(Op::Allreduce { bytes: 64 })
                    .build()
            })
        };
        let a = run();
        let b = run();
        assert_eq!(a.elapsed_ns, b.elapsed_ns);
        assert_eq!(a.metrics.total_interrupts(), b.metrics.total_interrupts());
    }

    #[test]
    fn telemetry_records_windows_without_perturbing_results() {
        let program = |_: usize| vec![Op::Alltoall { bytes: 4_000 }];
        let (plain, _) = world(8, 2).run_drained(program);
        let mut w = world(8, 2);
        w.enable_telemetry(TelemetryConfig::default());
        let (sampled, _) = w.run_drained(program);

        // Sampling is observation-only: identical job outcome.
        assert_eq!(plain.elapsed_ns, sampled.elapsed_ns);
        assert_eq!(
            plain.metrics.total_interrupts(),
            sampled.metrics.total_interrupts()
        );
        assert_eq!(plain.metrics.frames_carried, sampled.metrics.frames_carried);
        // Window closes are not events: sampling dispatches nothing extra.
        assert_eq!(plain.events, sampled.events);
        assert!(plain.telemetry.is_none());

        let tel = sampled.telemetry.expect("telemetry collected");
        assert!(tel.windows_recorded() >= 1);
        // Goodput windows over a node must sum to what was delivered there.
        let node0_goodput: u64 = tel.node_windows(0).map(|w| w.goodput_bytes).sum();
        assert!(node0_goodput > 0, "node 0 saw no goodput");
        // Per-op latency histogram feeds the SLO summaries.
        assert_eq!(sampled.op_latency.count(), 8); // one alltoall per rank
        assert!(sampled.op_latency.p99().is_some());
    }

    #[test]
    fn interrupt_storm_steals_compute_time() {
        // A compute-only rank on node 1 plus a heavy stream onto node 1:
        // the rank's compute phase must stretch when interrupts land on its
        // core. Use Fixed routing onto the rank's core to force the steal.
        let mut cfg = ClusterConfig::default();
        cfg.host.routing = IrqRouting::Fixed(0);
        cfg.nic.strategy = CoalescingStrategy::Disabled;
        let spec = WorldSpec {
            ranks: 4,
            ranks_per_node: 2,
        };
        let report = MpiWorld::new(spec, cfg).run(|rank| {
            if rank == 0 {
                // Rank 0 (node 0, core 0) sends lots of small messages to
                // rank 2 (node 1, core 0).
                ProgramBuilder::new()
                    .repeat(
                        200,
                        &[Op::Send {
                            peer: 2,
                            bytes: 128,
                            tag: 9,
                        }],
                    )
                    .build()
            } else if rank == 2 {
                // Rank 2 computes while its core takes all interrupts, then
                // drains the messages.
                let mut p = ProgramBuilder::new().op(Op::Compute(500_000));
                for _ in 0..200 {
                    p = p.op(Op::Recv { peer: 0, tag: 9 });
                }
                p.build()
            } else {
                vec![]
            }
        });
        assert!(
            report.stolen_ns > 50_000,
            "expected visible steal, got {}",
            report.stolen_ns
        );
    }
}
