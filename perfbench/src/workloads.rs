//! The five workloads: inputs drawn from a round seed, the simulation built
//! from them, and the checks that the simulated run delivered exactly what
//! the inputs asked for.
//!
//! | workload           | shape                                        | layer it stresses                  |
//! |--------------------|----------------------------------------------|------------------------------------|
//! | `pingpong_openmx`  | 2 nodes, ping-pong, 0 B–32 KiB, Open-MX      | latency path, marked-packet IRQs   |
//! | `pingpong_timeout` | the same under the NIC's 75 µs timeout       | coalescing hold, driver timers     |
//! | `stream_mixed`     | 2 nodes, window 4, 0 B–256 KiB, Stream       | fragmentation, pull engine, Alg. 2 |
//! | `lossy_stream`     | 2 nodes, window 16, 0–4 KiB, 1 % frame loss  | retransmission, acks, RTO stalls   |
//! | `alltoall_16n`     | 32 MPI ranks on 16 nodes, two alltoalls      | MPI collectives, switch queueing   |
//!
//! The pairs isolate mechanisms: the two ping-pongs differ only in the
//! coalescing strategy (the driver-timer and coalescing-hold paths run
//! hot in one and idle in the other); only `lossy_stream` retransmits;
//! only `stream_mixed` sends rendezvous (> 32 KiB) messages; only
//! `alltoall_16n` shares switch ports among many senders. Every run drains
//! to quiescence, so the simulator's own invariant checks (byte
//! conservation, no stranded message, interrupt liveness) apply.

use openmx_repro::core::latency::{self, PhaseSummary};
use openmx_repro::core::metrics::ClusterMetrics;
use openmx_repro::core::system::{Actor, ActorCtx, Cluster, ClusterConfig, RecvCompletion};
use openmx_repro::core::trace::TraceKind;
use openmx_repro::core::wire::EndpointAddr;
use openmx_repro::fabric::DisturbanceConfig;
use openmx_repro::mpi::{Op, RankActor, WorldSpec};
use openmx_repro::nic::CoalescingStrategy;
use openmx_repro::sim::{StopCondition, Time};
use std::any::Any;
use std::sync::atomic::AtomicUsize;
use std::sync::Arc;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy)]
pub enum Workload {
    PingpongOpenmx,
    PingpongTimeout,
    StreamMixed,
    LossyStream,
    Alltoall16n,
}

impl Workload {
    pub fn from_name(name: &str) -> Option<Workload> {
        Some(match name {
            "pingpong_openmx" => Workload::PingpongOpenmx,
            "pingpong_timeout" => Workload::PingpongTimeout,
            "stream_mixed" => Workload::StreamMixed,
            "lossy_stream" => Workload::LossyStream,
            "alltoall_16n" => Workload::Alltoall16n,
            _ => return None,
        })
    }

    /// Draw one round's inputs from `seed` and build its simulation. This
    /// is the set-up step the benchmark times on its own.
    pub fn prepare(self, seed: u64, trace: bool) -> Round {
        let mut rng = Rng(seed);
        let mut cfg = ClusterConfig {
            seed: rng.next(),
            ..ClusterConfig::default()
        };
        let openmx = CoalescingStrategy::OpenMx { delay_us: 75 };
        let mut round = match self {
            Workload::PingpongOpenmx => pingpong(cfg, openmx, &mut rng),
            Workload::PingpongTimeout => {
                pingpong(cfg, CoalescingStrategy::Timeout { delay_us: 75 }, &mut rng)
            }
            Workload::StreamMixed => {
                cfg.nic.strategy = CoalescingStrategy::Stream { delay_us: 75 };
                let sizes = (0..STREAM_MSGS).map(|_| mixed_size(&mut rng)).collect();
                stream(cfg, sizes, 4)
            }
            Workload::LossyStream => {
                cfg.nic.strategy = openmx;
                cfg.fabric.disturbance = DisturbanceConfig {
                    loss_probability: 0.01,
                    ..DisturbanceConfig::none()
                };
                let sizes = (0..LOSSY_MSGS).map(|_| rng.below(4097) as u32).collect();
                stream(cfg, sizes, 16)
            }
            Workload::Alltoall16n => {
                cfg.nic.strategy = openmx;
                cfg.fabric.switch_buffer_frames = 32;
                alltoall(cfg, &mut rng)
            }
        };
        if trace {
            // About six trace records per frame and a frame per KiB, with
            // headroom for acks and retransmissions; a round that still
            // overflows fails its check rather than report partial counts.
            let e = &round.expect;
            let capacity = 8 * (e.bytes / 1024 + 4 * e.msgs) + 4096;
            round.cluster.enable_tracing(capacity as usize);
        }
        round
    }
}

/// Ping-pong iterations per round (a round is one fresh simulation).
const PINGPONG_ITERS: usize = 2_000;
/// Messages per stream round.
const STREAM_MSGS: usize = 400;
const LOSSY_MSGS: usize = 1_000;
/// The scale campaign's 16-node shape: two ranks per node.
const ALLTOALL_WORLD: WorldSpec = WorldSpec {
    ranks: 32,
    ranks_per_node: 2,
};
/// Alltoalls per rank per round.
const ALLTOALL_REPS: usize = 2;

fn pingpong(mut cfg: ClusterConfig, strategy: CoalescingStrategy, rng: &mut Rng) -> Round {
    cfg.nic.strategy = strategy;
    let sizes: Vec<u32> = (0..PINGPONG_ITERS).map(|_| log_uniform(rng, 15)).collect();
    let mut cluster = Cluster::new(cfg);
    cluster.add_actor(0, 0, Box::new(Pinger::new(sizes.clone())));
    cluster.add_actor(1, 0, Box::new(Ponger::new(sizes.clone())));
    let expect = Expect {
        msgs: 2 * sizes.len() as u64,
        bytes: 2 * sizes.iter().map(|&s| u64::from(s)).sum::<u64>(),
        kind: Kind::PingPong(sizes),
    };
    Round { cluster, expect }
}

fn stream(cfg: ClusterConfig, sizes: Vec<u32>, window: usize) -> Round {
    let mut cluster = Cluster::new(cfg);
    cluster.add_actor(0, 0, Box::new(Sender::new(sizes.clone(), window)));
    cluster.add_actor(1, 0, Box::new(Receiver::new(sizes.clone())));
    let expect = Expect {
        msgs: sizes.len() as u64,
        bytes: sizes.iter().map(|&s| u64::from(s)).sum::<u64>(),
        kind: Kind::Stream(sizes),
    };
    Round { cluster, expect }
}

fn alltoall(mut cfg: ClusterConfig, rng: &mut Rng) -> Round {
    cfg.nodes = ALLTOALL_WORLD.nodes();
    cfg.endpoints_per_node = ALLTOALL_WORLD.ranks_per_node;
    let sizes: Vec<u32> = (0..ALLTOALL_REPS)
        .map(|_| 12 * 1024 + rng.below(4 * 1024 + 1) as u32)
        .collect();
    let program: Vec<Op> = sizes.iter().map(|&bytes| Op::Alltoall { bytes }).collect();
    let mut cluster = Cluster::new(cfg);
    let done = Arc::new(AtomicUsize::new(0));
    for rank in 0..ALLTOALL_WORLD.ranks {
        let actor = RankActor::new(rank, ALLTOALL_WORLD, program.clone(), Arc::clone(&done));
        cluster.add_actor(
            ALLTOALL_WORLD.node_of(rank),
            ALLTOALL_WORLD.ep_of(rank),
            Box::new(actor.draining()),
        );
    }
    let pairs = (ALLTOALL_WORLD.ranks * (ALLTOALL_WORLD.ranks - 1)) as u64;
    let expect = Expect {
        msgs: pairs * ALLTOALL_REPS as u64,
        bytes: pairs * sizes.iter().map(|&s| u64::from(s)).sum::<u64>(),
        kind: Kind::Alltoall,
    };
    Round { cluster, expect }
}

/// A size from the three Open-MX protocol classes: half small eager
/// (≤ 128 B), a third medium fragmented eager (≤ 32 KiB), the rest
/// rendezvous/pull (≤ 256 KiB).
fn mixed_size(rng: &mut Rng) -> u32 {
    let class = rng.below(6);
    (match class {
        0..=2 => rng.below(129),
        3 | 4 => 129 + rng.below(32 * 1024 - 128),
        _ => 32 * 1024 + 1 + rng.below(224 * 1024),
    }) as u32
}

/// A size in `[0, 2^bits)`, uniform in its logarithm: as many sizes
/// from 1 B to 64 B as from 512 B to 32 KiB, like a latency sweep.
fn log_uniform(rng: &mut Rng, bits: u32) -> u32 {
    let scaled = rng.below(1 << 20) as f64 / f64::from(1 << 20) * f64::from(bits);
    scaled.exp2() as u32 - 1
}

/// SplitMix64: the benchmark draws its inputs with its own generator so
/// they do not depend on the simulator's RNG code.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`; the modulo bias is irrelevant at these sizes.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// What a round must deliver.
struct Expect {
    msgs: u64,
    bytes: u64,
    kind: Kind,
}

/// The per-workload part of [`Expect`]: the message sizes drawn.
enum Kind {
    PingPong(Vec<u32>),
    Stream(Vec<u32>),
    Alltoall,
}

/// One prepared simulation.
pub struct Round {
    cluster: Cluster,
    expect: Expect,
}

/// What a checked round reports.
pub struct Outcome {
    /// Application messages delivered.
    pub msgs: u64,
    /// Simulated latency of each unit of work, ns: half round trip
    /// (ping-pong), post-to-completion (streams), one alltoall on one rank.
    pub latencies_ns: Vec<f64>,
    /// Engine events dispatched.
    pub events: u64,
    pub metrics: ClusterMetrics,
    /// Trace-mode counts, per layer.
    pub layers: Option<Layers>,
}

/// Per-layer counts taken from the packet-level trace.
pub struct Layers {
    pub coalesce_fires: u64,
    /// Engine events that leave no trace record: driver timers, send
    /// completions, actor starts, coalescing timers that found nothing due.
    pub untraced_events: u64,
    /// Simulated latency split into the six phases of `latency::analyze`.
    pub phases: PhaseSummary,
}

impl Round {
    /// Run the simulation to quiescence (the timed step).
    pub fn run(&mut self) -> StopCondition {
        self.cluster.run(Time::from_secs(3_600))
    }

    /// Check the run against the inputs and harvest its results.
    pub fn finish(self, stop: StopCondition) -> Result<Outcome, String> {
        let Round { cluster, expect } = self;
        if stop != StopCondition::QueueEmpty {
            return Err(format!("run did not drain: {stop:?}"));
        }
        let san = cluster.sanitize();
        let violations = san.all_violations();
        if !violations.is_empty() {
            return Err(format!("sanitizer: {}", violations.join("; ")));
        }
        let latencies_ns = match &expect.kind {
            Kind::PingPong(sizes) => {
                let ping = cluster.actor::<Pinger>(0, 0).ok_or("pinger missing")?;
                let pong = cluster.actor::<Ponger>(1, 0).ok_or("ponger missing")?;
                ping.error
                    .clone()
                    .or(pong.error.clone())
                    .map_or(Ok(()), Err)?;
                if ping.half_rtt_ns.len() != sizes.len() || pong.echoed != sizes.len() {
                    return Err(format!(
                        "ping-pong finished {} of {} iterations",
                        ping.half_rtt_ns.len(),
                        sizes.len()
                    ));
                }
                ping.half_rtt_ns.clone()
            }
            Kind::Stream(sizes) => {
                let tx = cluster.actor::<Sender>(0, 0).ok_or("sender missing")?;
                let rx = cluster.actor::<Receiver>(1, 0).ok_or("receiver missing")?;
                rx.error.clone().map_or(Ok(()), Err)?;
                let lat = tx
                    .post_ns
                    .iter()
                    .zip(&rx.recv_ns)
                    .map(|(&post, &done)| match done {
                        Some(done) if done >= post => Ok((done - post) as f64),
                        _ => Err("a message was not delivered after its post"),
                    })
                    .collect::<Result<Vec<f64>, _>>()?;
                if lat.len() != sizes.len() {
                    return Err(format!("posted {} of {} messages", lat.len(), sizes.len()));
                }
                lat
            }
            Kind::Alltoall => {
                let mut lat = Vec::new();
                for rank in 0..ALLTOALL_WORLD.ranks {
                    let a = cluster
                        .actor::<RankActor>(
                            ALLTOALL_WORLD.node_of(rank),
                            ALLTOALL_WORLD.ep_of(rank),
                        )
                        .ok_or("rank missing")?;
                    if a.finished_at().is_none() || a.op_latency_ns().len() != ALLTOALL_REPS {
                        return Err(format!("rank {rank} did not finish its program"));
                    }
                    lat.extend(a.op_latency_ns().iter().map(|&ns| ns as f64));
                }
                lat
            }
        };
        let Expect { msgs, bytes, .. } = expect;
        if san.msgs_posted != msgs || san.msgs_delivered != msgs {
            return Err(format!(
                "expected {msgs} messages, {} posted and {} delivered",
                san.msgs_posted, san.msgs_delivered
            ));
        }
        if san.bytes_posted != bytes || san.bytes_delivered != bytes {
            return Err(format!(
                "expected {bytes} bytes, {} posted and {} delivered",
                san.bytes_posted, san.bytes_delivered
            ));
        }
        if latencies_ns.iter().any(|&l| l <= 0.0) {
            return Err("a simulated latency is not positive".into());
        }
        let events = cluster.events_processed();
        let layers = match cluster.tracer() {
            None => None,
            Some(tracer) => {
                if tracer.evicted() > 0 {
                    return Err(format!("trace ring overflowed by {}", tracer.evicted()));
                }
                let count = |k: TraceKind| tracer.events().filter(|e| e.kind == k).count() as u64;
                let traced_events = [
                    TraceKind::FrameArrival,
                    TraceKind::DmaComplete,
                    TraceKind::CoalesceTimer,
                    TraceKind::Interrupt,
                    TraceKind::BatchDone,
                    TraceKind::AppDelivery,
                ]
                .map(count);
                let trace: Vec<_> = tracer.events().copied().collect();
                Some(Layers {
                    coalesce_fires: traced_events[2],
                    untraced_events: events.saturating_sub(traced_events.iter().sum()),
                    phases: PhaseSummary::of(&latency::analyze(&trace)),
                })
            }
        };
        Ok(Outcome {
            msgs,
            latencies_ns,
            events,
            metrics: cluster.metrics(),
            layers,
        })
    }
}

/// Match bit that marks a pong.
const PONG: u64 = 1 << 63;

/// Ping side: sends ping `i` of `sizes[i]` bytes and waits for its pong.
struct Pinger {
    sizes: Vec<u32>,
    iter: usize,
    started: Time,
    half_rtt_ns: Vec<f64>,
    error: Option<String>,
}

impl Pinger {
    fn new(sizes: Vec<u32>) -> Self {
        Pinger {
            half_rtt_ns: Vec::with_capacity(sizes.len()),
            sizes,
            iter: 0,
            started: Time::ZERO,
            error: None,
        }
    }

    fn kick(&mut self, ctx: &mut ActorCtx) {
        let i = self.iter as u64;
        self.started = ctx.now();
        ctx.post_recv(i | PONG, !0, i);
        ctx.post_send(EndpointAddr::new(1, 0), self.sizes[self.iter], i, i);
    }
}

impl Actor for Pinger {
    fn on_start(&mut self, ctx: &mut ActorCtx) {
        self.kick(ctx);
    }

    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, c: RecvCompletion) {
        let i = self.iter;
        if c.match_info != i as u64 | PONG || c.len != self.sizes[i] {
            self.error = Some(format!(
                "pong {i}: got match {:#x}, {} B",
                c.match_info, c.len
            ));
            return;
        }
        self.half_rtt_ns
            .push((ctx.now() - self.started).as_nanos() as f64 / 2.0);
        self.iter += 1;
        if self.iter < self.sizes.len() {
            self.kick(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Pong side: echoes every ping with the same size.
struct Ponger {
    sizes: Vec<u32>,
    echoed: usize,
    error: Option<String>,
}

impl Ponger {
    fn new(sizes: Vec<u32>) -> Self {
        Ponger {
            sizes,
            echoed: 0,
            error: None,
        }
    }
}

impl Actor for Ponger {
    fn on_start(&mut self, ctx: &mut ActorCtx) {
        ctx.post_recv(0, PONG, 0);
    }

    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, c: RecvCompletion) {
        if c.match_info != self.echoed as u64 || c.len != self.sizes[self.echoed] {
            self.error = Some(format!(
                "ping {}: got match {:#x}, {} B",
                self.echoed, c.match_info, c.len
            ));
            return;
        }
        ctx.post_recv(0, PONG, 0);
        ctx.post_send(EndpointAddr::new(0, 0), c.len, c.match_info | PONG, 0);
        self.echoed += 1;
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Stream sender: keeps `window` sends outstanding until every size is
/// posted.
struct Sender {
    sizes: Vec<u32>,
    window: usize,
    completed: usize,
    post_ns: Vec<u64>,
}

impl Sender {
    fn new(sizes: Vec<u32>, window: usize) -> Self {
        Sender {
            post_ns: Vec::with_capacity(sizes.len()),
            sizes,
            window,
            completed: 0,
        }
    }

    fn pump(&mut self, ctx: &mut ActorCtx) {
        while self.post_ns.len() < self.sizes.len()
            && self.post_ns.len() < self.completed + self.window
        {
            let i = self.post_ns.len();
            ctx.post_send(EndpointAddr::new(1, 0), self.sizes[i], i as u64, i as u64);
            self.post_ns.push(ctx.now().as_nanos());
        }
    }
}

impl Actor for Sender {
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

/// Stream receiver: a pool of 64 wildcard receives, refilled until every
/// message is posted for; checks each message's size against its index.
struct Receiver {
    sizes: Vec<u32>,
    posted: usize,
    recv_ns: Vec<Option<u64>>,
    error: Option<String>,
}

impl Receiver {
    fn new(sizes: Vec<u32>) -> Self {
        Receiver {
            recv_ns: vec![None; sizes.len()],
            sizes,
            posted: 0,
            error: None,
        }
    }

    fn refill(&mut self, ctx: &mut ActorCtx, depth: usize) {
        while self.posted < self.sizes.len().min(depth) {
            ctx.post_recv(0, 0, self.posted as u64);
            self.posted += 1;
        }
    }
}

impl Actor for Receiver {
    fn blocking_waits(&self) -> bool {
        true
    }

    fn on_start(&mut self, ctx: &mut ActorCtx) {
        self.refill(ctx, 64);
    }

    fn on_recv_complete(&mut self, ctx: &mut ActorCtx, c: RecvCompletion) {
        let i = c.match_info as usize;
        match self.recv_ns.get_mut(i) {
            Some(slot @ None) if c.len == self.sizes[i] => *slot = Some(ctx.now().as_nanos()),
            _ => {
                self.error = Some(format!("unexpected delivery: match {i}, {} B", c.len));
            }
        }
        self.refill(ctx, self.posted + 1);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}
