//! The per-rank program executor.
//!
//! [`RankActor`] interprets a sequential [`Op`] list on top of an Open-MX
//! endpoint. Collectives are unrolled into rounds via [`crate::collectives`]
//! at execution time; compute phases account for interrupt-stolen CPU time
//! on the rank's core by re-arming their completion timer until the wall
//! window contains the requested CPU time plus whatever interrupts stole.

use crate::collectives::{
    allgather_round, allreduce_round, alltoall_round, alltoallv_round, barrier_round, bcast_round,
    reduce_round, RoundAction,
};
use crate::ops::Op;
use crate::world::{CollectiveExec, WorldSpec};
use omx_core::offload::{CollOp, OffloadCollDesc};
use omx_core::system::{Actor, ActorCtx, RecvCompletion};
use omx_sim::{Time, TimeDelta};
use std::any::Any;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Tag-space layout: collectives use bit 63; user point-to-point messages
/// encode `(tag << 16) | src`.
fn p2p_match(tag: u32, src: usize) -> u64 {
    (u64::from(tag) << 16) | src as u64
}

fn coll_match(seq: u64, round: u32, src: usize) -> u64 {
    (1u64 << 63) | (seq << 24) | (u64::from(round) << 8) | src as u64
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Wait {
    None,
    /// Waiting for send and/or receive completions of the current step.
    Pending {
        sends: u8,
        recvs: u8,
    },
    /// Waiting for a compute timer.
    Compute,
    /// Waiting for the NIC offload engine's single completion interrupt
    /// for the collective with this engine-assigned sequence number.
    Offload(u32),
}

/// One MPI rank running a program.
pub struct RankActor {
    rank: usize,
    world: WorldSpec,
    program: Vec<Op>,
    pc: usize,
    round: u32,
    coll_seq: u64,
    exec: CollectiveExec,
    /// Firmware payload cap: bcast/allreduce above this fall back to host.
    offload_max_payload: u32,
    /// Next sequence number the NIC offload engine will assign. Mirrors
    /// the engine's per-slot watermark — every rank posts the same
    /// collective sequence, so the mirror never drifts.
    offload_seq: u32,
    wait: Wait,
    // Compute-phase accounting.
    compute_start: Time,
    compute_cpu_ns: u64,
    stolen_base: u64,
    // Results.
    finished_at: Option<Time>,
    done_counter: Arc<AtomicUsize>,
    total_ranks: usize,
    /// When false, the last rank to finish does NOT stop the simulation;
    /// the run drains to `QueueEmpty` so quiescence invariants can be
    /// asserted (see [`crate::MpiWorld::run_drained`]).
    stop_when_done: bool,
    /// Wall time spent in compute phases (including stolen time).
    compute_wall_ns: u64,
    /// CPU time stolen by interrupts during compute phases.
    stolen_ns: u64,
    /// When the program step currently executing started.
    op_start: Time,
    /// Wall latency of each completed program step, in program order.
    op_latency_ns: Vec<u64>,
}

impl RankActor {
    /// Create the actor for `rank` running `program`.
    ///
    /// `done_counter` is shared by all ranks of the job; the last rank to
    /// finish stops the simulation.
    pub fn new(
        rank: usize,
        world: WorldSpec,
        program: Vec<Op>,
        done_counter: Arc<AtomicUsize>,
    ) -> Self {
        RankActor {
            rank,
            world,
            total_ranks: world.ranks,
            program,
            pc: 0,
            round: 0,
            coll_seq: 0,
            exec: CollectiveExec::Host,
            offload_max_payload: 0,
            offload_seq: 0,
            wait: Wait::None,
            compute_start: Time::ZERO,
            compute_cpu_ns: 0,
            stolen_base: 0,
            finished_at: None,
            done_counter,
            stop_when_done: true,
            compute_wall_ns: 0,
            stolen_ns: 0,
            op_start: Time::ZERO,
            op_latency_ns: Vec::new(),
        }
    }

    /// Select the collective execution mode (default: host) and the
    /// firmware payload cap gating bcast/allreduce offload eligibility.
    pub fn with_exec(mut self, exec: CollectiveExec, offload_max_payload: u32) -> Self {
        self.exec = exec;
        self.offload_max_payload = offload_max_payload;
        self
    }

    /// Disable the stop-on-last-rank behaviour: the simulation keeps
    /// running after every rank finished, draining acks and timers to
    /// `QueueEmpty`.
    pub fn draining(mut self) -> Self {
        self.stop_when_done = false;
        self
    }

    /// This rank's finish time, once the program completed.
    pub fn finished_at(&self) -> Option<Time> {
        self.finished_at
    }

    /// Wall nanoseconds spent in compute phases.
    pub fn compute_wall_ns(&self) -> u64 {
        self.compute_wall_ns
    }

    /// Nanoseconds interrupts stole from this rank's compute phases.
    pub fn stolen_ns(&self) -> u64 {
        self.stolen_ns
    }

    /// Wall latency of each completed program step, in program order —
    /// collectives measure round-trip completion, compute steps measure
    /// their (possibly interrupt-stretched) wall time. The SLO summaries
    /// in the campaign reports aggregate these across ranks.
    pub fn op_latency_ns(&self) -> &[u64] {
        &self.op_latency_ns
    }

    fn post_exchange(
        &mut self,
        ctx: &mut ActorCtx,
        peer: usize,
        send_bytes: Option<u32>,
        expect_recv: bool,
        match_out: u64,
        match_in: u64,
    ) {
        let mut sends = 0;
        let mut recvs = 0;
        if expect_recv {
            ctx.post_recv(match_in, !0, 0);
            recvs = 1;
        }
        if let Some(bytes) = send_bytes {
            ctx.post_send(self.world.addr(peer), bytes, match_out, 0);
            sends = 1;
        }
        self.wait = Wait::Pending { sends, recvs };
    }

    /// Run ops until one blocks.
    fn advance(&mut self, ctx: &mut ActorCtx) {
        loop {
            debug_assert_eq!(self.wait, Wait::None);
            let Some(op) = self.program.get(self.pc).cloned() else {
                self.finish(ctx);
                return;
            };
            match op {
                Op::Compute(ns) => {
                    if ns == 0 {
                        self.step_done(ctx.now());
                        continue;
                    }
                    self.compute_start = ctx.now();
                    self.compute_cpu_ns = ns;
                    self.stolen_base = ctx.core_irq_busy_ns();
                    self.wait = Wait::Compute;
                    ctx.set_timer(ctx.now() + TimeDelta::from_nanos(ns), 0);
                    return;
                }
                Op::Send { peer, bytes, tag } => {
                    let m = p2p_match(tag, self.rank);
                    self.post_exchange(ctx, peer, Some(bytes), false, m, 0);
                    return;
                }
                Op::Recv { peer, tag } => {
                    let m = p2p_match(tag, peer);
                    self.post_exchange(ctx, peer, None, true, 0, m);
                    return;
                }
                Op::SendRecv { peer, bytes, tag } => {
                    let m_out = p2p_match(tag, self.rank);
                    let m_in = p2p_match(tag, peer);
                    self.post_exchange(ctx, peer, Some(bytes), true, m_out, m_in);
                    return;
                }
                Op::Barrier | Op::Bcast { .. } | Op::Allreduce { .. }
                    if self.offload_desc(&op).is_some() =>
                {
                    let desc = self.offload_desc(&op).expect("guard checked eligibility");
                    self.post_offload(ctx, desc);
                    return;
                }
                Op::Barrier => {
                    if self.run_collective_round(ctx, &op) {
                        return;
                    }
                }
                Op::Bcast { .. }
                | Op::Reduce { .. }
                | Op::Allreduce { .. }
                | Op::Allgather { .. }
                | Op::Alltoall { .. }
                | Op::Alltoallv { .. } => {
                    if self.run_collective_round(ctx, &op) {
                        return;
                    }
                }
            }
        }
    }

    /// The NIC-offload descriptor for `op`, when the job runs with
    /// [`CollectiveExec::NicOffload`] and the operation is eligible:
    /// barrier always, bcast/allreduce up to the firmware payload cap.
    /// Eligibility is a pure function of the op itself, so every rank
    /// makes the same host-vs-NIC decision for the same program step.
    fn offload_desc(&self, op: &Op) -> Option<OffloadCollDesc> {
        if self.exec != CollectiveExec::NicOffload {
            return None;
        }
        let (coll, payload) = match *op {
            Op::Barrier => (CollOp::Barrier, 0),
            Op::Bcast { root, bytes } if bytes <= self.offload_max_payload => {
                (CollOp::Bcast { root: root as u32 }, bytes)
            }
            Op::Allreduce { bytes } if bytes <= self.offload_max_payload => {
                (CollOp::Allreduce, bytes)
            }
            _ => return None,
        };
        Some(OffloadCollDesc {
            op: coll,
            rank: self.rank as u32,
            ranks: self.world.ranks as u32,
            ranks_per_node: self.world.ranks_per_node as u32,
            payload,
        })
    }

    /// Hand a collective to the NIC and block until its single completion
    /// interrupt. The engine assigns sequence numbers from a per-rank
    /// watermark; `offload_seq` mirrors it for the completion check.
    fn post_offload(&mut self, ctx: &mut ActorCtx, desc: OffloadCollDesc) {
        let seq = self.offload_seq;
        self.offload_seq += 1;
        self.wait = Wait::Offload(seq);
        ctx.post_offload_collective(desc);
    }

    /// Execute the current collective round. Returns true when blocked
    /// waiting for completions (false = the collective finished and `pc`
    /// advanced).
    fn run_collective_round(&mut self, ctx: &mut ActorCtx, op: &Op) -> bool {
        loop {
            let action = match op {
                Op::Barrier => barrier_round(self.rank, self.world.ranks, self.round),
                Op::Bcast { root, bytes } => {
                    bcast_round(self.rank, self.world.ranks, *root, *bytes, self.round)
                }
                Op::Reduce { root, bytes } => {
                    reduce_round(self.rank, self.world.ranks, *root, *bytes, self.round)
                }
                Op::Allreduce { bytes } => {
                    allreduce_round(self.rank, self.world.ranks, *bytes, self.round)
                }
                Op::Allgather { bytes } => {
                    allgather_round(self.rank, self.world.ranks, *bytes, self.round)
                }
                Op::Alltoall { bytes } => {
                    alltoall_round(self.rank, self.world.ranks, *bytes, self.round)
                }
                Op::Alltoallv { bytes } => {
                    alltoallv_round(self.rank, self.world.ranks, bytes, self.round)
                }
                _ => unreachable!("not a collective"),
            };
            let seq = self.coll_seq;
            let round = self.round;
            match action {
                None => {
                    self.coll_seq += 1;
                    self.step_done(ctx.now());
                    return false;
                }
                Some(RoundAction::Idle) => {
                    self.round += 1;
                    continue;
                }
                Some(RoundAction::Send { peer, bytes }) => {
                    let m_out = coll_match(seq, round, self.rank);
                    self.post_exchange(ctx, peer, Some(bytes), false, m_out, 0);
                    return true;
                }
                Some(RoundAction::Recv { peer }) => {
                    let m_in = coll_match(seq, round, peer);
                    self.post_exchange(ctx, peer, None, true, 0, m_in);
                    return true;
                }
                Some(RoundAction::SendRecv { to, from, bytes }) => {
                    let m_out = coll_match(seq, round, self.rank);
                    let m_in = coll_match(seq, round, from);
                    self.post_exchange(ctx, to, Some(bytes), true, m_out, m_in);
                    return true;
                }
                Some(RoundAction::Exchange {
                    peer, send_bytes, ..
                }) => {
                    let m_out = coll_match(seq, round, self.rank);
                    let m_in = coll_match(seq, round, peer);
                    self.post_exchange(ctx, peer, Some(send_bytes), true, m_out, m_in);
                    return true;
                }
            }
        }
    }

    fn step_done(&mut self, now: Time) {
        // A collective advances round-by-round; point-to-point and compute
        // advance the program counter directly.
        self.op_latency_ns
            .push(now.saturating_since(self.op_start).as_nanos());
        self.op_start = now;
        self.pc += 1;
        self.round = 0;
    }

    /// One round of the current collective finished.
    fn round_done(&mut self, ctx: &mut ActorCtx) {
        let op = self.program[self.pc].clone();
        let is_collective = matches!(
            op,
            Op::Barrier
                | Op::Bcast { .. }
                | Op::Reduce { .. }
                | Op::Allreduce { .. }
                | Op::Allgather { .. }
                | Op::Alltoall { .. }
                | Op::Alltoallv { .. }
        );
        if is_collective {
            self.round += 1;
            if self.run_collective_round(ctx, &op) {
                return;
            }
            self.advance(ctx);
        } else {
            self.step_done(ctx.now());
            self.advance(ctx);
        }
    }

    fn completion(&mut self, ctx: &mut ActorCtx, was_send: bool) {
        let Wait::Pending {
            mut sends,
            mut recvs,
        } = self.wait
        else {
            panic!(
                "rank {}: unexpected completion (send={was_send}) in state {:?}",
                self.rank, self.wait
            );
        };
        if was_send {
            debug_assert!(sends > 0, "rank {}: stray send completion", self.rank);
            sends -= 1;
        } else {
            debug_assert!(recvs > 0, "rank {}: stray recv completion", self.rank);
            recvs -= 1;
        }
        if sends == 0 && recvs == 0 {
            self.wait = Wait::None;
            self.round_done(ctx);
        } else {
            self.wait = Wait::Pending { sends, recvs };
        }
    }

    fn finish(&mut self, ctx: &mut ActorCtx) {
        if self.finished_at.is_some() {
            return;
        }
        self.finished_at = Some(ctx.now());
        let done = self.done_counter.fetch_add(1, Ordering::Relaxed) + 1;
        if done == self.total_ranks && self.stop_when_done {
            ctx.stop();
        }
    }
}

impl Actor for RankActor {
    fn on_start(&mut self, ctx: &mut ActorCtx) {
        self.advance(ctx);
    }

    fn on_send_complete(&mut self, ctx: &mut ActorCtx, _handle: u64) {
        self.completion(ctx, true);
    }

    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, _c: RecvCompletion) {
        self.completion(ctx, false);
    }

    fn on_offload_complete(&mut self, ctx: &mut ActorCtx, seq: u32) {
        debug_assert_eq!(
            self.wait,
            Wait::Offload(seq),
            "rank {}: stray offload completion",
            self.rank
        );
        self.wait = Wait::None;
        self.step_done(ctx.now());
        self.advance(ctx);
    }

    fn on_timer(&mut self, ctx: &mut ActorCtx, _token: u64) {
        debug_assert_eq!(self.wait, Wait::Compute);
        // The phase needs `compute_cpu_ns` of CPU; interrupts stole some of
        // the window. Extend until the window is large enough.
        let stolen = ctx.core_irq_busy_ns() - self.stolen_base;
        let needed = TimeDelta::from_nanos(self.compute_cpu_ns + stolen);
        let elapsed = ctx.now() - self.compute_start;
        if elapsed < needed {
            ctx.set_timer(self.compute_start + needed, 0);
            return;
        }
        self.compute_wall_ns += elapsed.as_nanos();
        self.stolen_ns += stolen;
        self.wait = Wait::None;
        self.step_done(ctx.now());
        self.advance(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
