//! Star topology through a store-and-forward switch.
//!
//! The paper's testbed is two hosts on a Myri-10G Ethernet fabric. We model
//! the general case: `n` host ports attached to one switch. A frame from
//! port A to port B crosses:
//!
//! 1. A's egress serialization (host NIC TX) + cable propagation,
//! 2. the switch store-and-forward latency once fully received,
//! 3. the switch's egress port toward B (serialization, possibly queued
//!    behind frames from other sources) + cable propagation.
//!
//! All state is per-port [`PortClock`]s, so contention between senders
//! targeting the same destination emerges naturally.

use crate::inject::{Disturbance, DisturbanceConfig, Injector};
use crate::link::{LinkConfig, PortClock};
use omx_sim::rng::SimRng;
use omx_sim::stats::TimeWeighted;
use omx_sim::{Time, TimeDelta};
use std::collections::VecDeque;

/// Identifies one host port on the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PortId(pub usize);

/// Fabric-wide configuration. Plain-old-data throughout ([`LinkConfig`]
/// and [`DisturbanceConfig`] are `Copy`), so fabrics and clusters embed it
/// by value — no per-construction clone.
#[derive(Debug, Clone, Copy)]
pub struct FabricConfig {
    /// Link characteristics (same for every hop; the testbed was homogeneous).
    pub link: LinkConfig,
    /// Switch store-and-forward processing latency in nanoseconds.
    pub switch_latency_ns: u64,
    /// Maximum transmission unit in bytes (payload handed to the fabric must
    /// not exceed this; enforced with a panic because fragmentation is the
    /// sender driver's job).
    pub mtu: u32,
    /// Per-egress-port switch buffer capacity in frames. A frame reaching a
    /// switch egress port whose FIFO already holds this many queued frames
    /// is tail-dropped (the incast failure mode of shallow-buffered
    /// cut-price switches). The default is effectively unbounded, which
    /// reproduces the paper's uncongested two-node testbed exactly.
    pub switch_buffer_frames: u32,
    /// Disturbance injection.
    pub disturbance: DisturbanceConfig,
}

impl Default for FabricConfig {
    fn default() -> Self {
        FabricConfig {
            link: LinkConfig::default(),
            switch_latency_ns: 300,
            mtu: 1500,
            switch_buffer_frames: u32::MAX,
            disturbance: DisturbanceConfig::none(),
        }
    }
}

/// Result of submitting a frame to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransmitOutcome {
    /// The frame will arrive at the destination port at this absolute time.
    Arrives(Time),
    /// The injector dropped the frame (wire loss between host and switch).
    Lost,
    /// The switch egress buffer toward the destination was full: tail drop.
    SwitchDropped,
}

/// One switch egress port: serialization clock plus a bounded FIFO of
/// frames queued behind the one on the wire.
#[derive(Debug, Clone, Default)]
struct EgressPort {
    clock: PortClock,
    /// End-of-serialization times of queued/in-flight frames, FIFO order
    /// (monotonically non-decreasing because the clock serialises).
    departures: VecDeque<Time>,
    /// Frames tail-dropped at this egress port.
    drops: u64,
    /// Highest queue occupancy observed (frames buffered at once).
    occupancy_peak: u64,
    /// Time-weighted queue depth (frames buffered, sampled at admissions).
    depth: TimeWeighted,
}

impl EgressPort {
    /// Drop frames that finished serialising by `now` from the FIFO view.
    fn purge(&mut self, now: Time) {
        while self.departures.front().is_some_and(|&d| d <= now) {
            self.departures.pop_front();
        }
    }
}

/// The simulated switch fabric.
///
/// ```
/// use omx_fabric::{EthernetFabric, FabricConfig, PortId, TransmitOutcome};
/// use omx_sim::{rng::SimRng, Time};
///
/// let mut fabric = EthernetFabric::new(2, FabricConfig::default(), SimRng::new(1));
/// match fabric.transmit(Time::ZERO, PortId(0), PortId(1), 1500) {
///     TransmitOutcome::Arrives(at) => assert!(at > Time::ZERO),
///     TransmitOutcome::Lost => unreachable!("no loss configured"),
///     TransmitOutcome::SwitchDropped => unreachable!("default buffer is unbounded"),
/// }
/// ```
pub struct EthernetFabric {
    cfg: FabricConfig,
    /// Host NIC egress ports (host -> switch direction).
    host_egress: Vec<PortClock>,
    /// Switch egress ports (switch -> host direction), one per destination.
    switch_egress: Vec<EgressPort>,
    injector: Injector,
    frames_carried: u64,
    bytes_carried: u64,
}

impl EthernetFabric {
    /// Build a fabric with `ports` host ports.
    pub fn new(ports: usize, cfg: FabricConfig, rng: SimRng) -> Self {
        let injector = Injector::new(cfg.disturbance, rng);
        EthernetFabric {
            cfg,
            host_egress: vec![PortClock::new(); ports],
            switch_egress: vec![EgressPort::default(); ports],
            injector,
            frames_carried: 0,
            bytes_carried: 0,
        }
    }

    /// Fabric configuration.
    pub fn config(&self) -> &FabricConfig {
        &self.cfg
    }

    /// Number of host ports.
    pub fn ports(&self) -> usize {
        self.host_egress.len()
    }

    /// Submit one frame of `frame_bytes` from `src` to `dst` at time `now`.
    ///
    /// # Panics
    /// Panics if `frame_bytes` exceeds the MTU or the ports are out of range
    /// or equal — those are orchestrator bugs, not runtime conditions.
    pub fn transmit(
        &mut self,
        now: Time,
        src: PortId,
        dst: PortId,
        frame_bytes: u32,
    ) -> TransmitOutcome {
        assert!(
            frame_bytes <= self.cfg.mtu,
            "frame of {frame_bytes} B exceeds MTU {}",
            self.cfg.mtu
        );
        assert_ne!(src, dst, "loopback frames never reach the fabric");
        let link = self.cfg.link;

        // Decide the injector's fate *before* reserving any serialization
        // resource: a frame lost on the host→switch cable never occupies the
        // switch egress port, so it must not delay frames behind it.
        let extra_ns = match self.injector.decide() {
            Disturbance::Drop => return TransmitOutcome::Lost,
            Disturbance::Deliver { extra_ns } => extra_ns,
        };

        // Hop 1: host egress + cable.
        let (_, host_ser_end) = self.host_egress[src.0].reserve(now, &link, frame_bytes);
        let at_switch = host_ser_end + link.propagation();

        // Switch store-and-forward processing.
        let forward_ready = at_switch + TimeDelta::from_nanos(self.cfg.switch_latency_ns);

        // Hop 2: bounded egress FIFO toward dst. Frames that finished
        // serialising by `forward_ready` have left the buffer; if what
        // remains fills it, this frame is tail-dropped (it consumed host
        // egress and switch processing, but never the egress wire).
        let egress = &mut self.switch_egress[dst.0];
        egress.purge(forward_ready);
        let queued = egress.departures.len() as u64;
        if queued >= u64::from(self.cfg.switch_buffer_frames) {
            egress.drops += 1;
            egress.depth.set(forward_ready, queued as f64);
            return TransmitOutcome::SwitchDropped;
        }
        let (_, sw_ser_end) = egress.clock.reserve(forward_ready, &link, frame_bytes);
        egress.departures.push_back(sw_ser_end);
        let occupancy = queued + 1;
        egress.occupancy_peak = egress.occupancy_peak.max(occupancy);
        egress.depth.set(forward_ready, occupancy as f64);
        let arrival = sw_ser_end + link.propagation();

        self.frames_carried += 1;
        self.bytes_carried += frame_bytes as u64;
        // Jitter is the model's one signed quantity and may pull an arrival
        // earlier, but a disturbed frame may not arrive before it was sent.
        let arrival = Time::from_nanos(arrival.as_nanos().saturating_add_signed(extra_ns));
        let arrival = arrival.max(now);
        TransmitOutcome::Arrives(arrival)
    }

    /// Unloaded one-way latency for a frame of `frame_bytes` (no queueing,
    /// no disturbance): the baseline the paper's ping-pong rides on.
    pub fn unloaded_latency(&self, frame_bytes: u32) -> TimeDelta {
        let link = self.cfg.link;
        link.serialization(frame_bytes)
            + link.propagation()
            + TimeDelta::from_nanos(self.cfg.switch_latency_ns)
            + link.serialization(frame_bytes)
            + link.propagation()
    }

    /// Total frames successfully carried.
    pub fn frames_carried(&self) -> u64 {
        self.frames_carried
    }

    /// Total payload bytes successfully carried.
    pub fn bytes_carried(&self) -> u64 {
        self.bytes_carried
    }

    /// Frames dropped by the injector.
    pub fn frames_dropped(&self) -> u64 {
        self.injector.frames_dropped()
    }

    /// Frames tail-dropped at switch egress buffers, summed over ports.
    pub fn switch_drops(&self) -> u64 {
        self.switch_egress.iter().map(|p| p.drops).sum()
    }

    /// Frames tail-dropped at the egress buffer toward `port`.
    pub fn switch_drops_at(&self, port: PortId) -> u64 {
        self.switch_egress[port.0].drops
    }

    /// Highest egress-buffer occupancy ever observed toward `port`, frames.
    pub fn switch_occupancy_peak_at(&self, port: PortId) -> u64 {
        self.switch_egress[port.0].occupancy_peak
    }

    /// Highest egress-buffer occupancy over all ports, frames.
    pub fn switch_occupancy_peak(&self) -> u64 {
        self.switch_egress
            .iter()
            .map(|p| p.occupancy_peak)
            .max()
            .unwrap_or(0)
    }

    /// Time-weighted egress queue-depth gauge toward `port` (sampled at
    /// frame admissions; the simulation's incast-pressure signal).
    pub fn switch_queue_depth_at(&self, port: PortId) -> &TimeWeighted {
        &self.switch_egress[port.0].depth
    }

    /// Frames still buffered at the egress toward `port` at `now`.
    ///
    /// Read-only variant of the purge done on the admission path: frames
    /// whose departure time has passed are no longer occupying the buffer,
    /// but the queue itself is not mutated, so sampling this from a
    /// telemetry tick cannot perturb the simulation.
    pub fn switch_queue_len_at(&self, port: PortId, now: Time) -> usize {
        self.switch_egress[port.0]
            .departures
            .iter()
            .filter(|&&d| d > now)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fabric(ports: usize) -> EthernetFabric {
        EthernetFabric::new(ports, FabricConfig::default(), SimRng::new(1))
    }

    fn arrives(o: TransmitOutcome) -> Time {
        match o {
            TransmitOutcome::Arrives(t) => t,
            TransmitOutcome::Lost => panic!("frame lost unexpectedly"),
            TransmitOutcome::SwitchDropped => panic!("frame switch-dropped unexpectedly"),
        }
    }

    #[test]
    fn unloaded_latency_matches_components() {
        let mut f = fabric(2);
        let t0 = Time::from_micros(10);
        let got = arrives(f.transmit(t0, PortId(0), PortId(1), 1500));
        assert_eq!(got - t0, f.unloaded_latency(1500));
    }

    #[test]
    fn back_to_back_frames_queue_at_line_rate() {
        let mut f = fabric(2);
        let t0 = Time::ZERO;
        let a1 = arrives(f.transmit(t0, PortId(0), PortId(1), 1500));
        let a2 = arrives(f.transmit(t0, PortId(0), PortId(1), 1500));
        let ser = f.config().link.serialization(1500);
        assert_eq!(a2 - a1, ser, "pipeline spacing equals serialization time");
    }

    #[test]
    fn two_senders_contend_on_destination_port() {
        let mut f = fabric(3);
        let t0 = Time::ZERO;
        let a = arrives(f.transmit(t0, PortId(0), PortId(2), 1500));
        let b = arrives(f.transmit(t0, PortId(1), PortId(2), 1500));
        // Host egress is parallel, but the switch egress to port 2 serializes.
        let ser = f.config().link.serialization(1500);
        assert_eq!(b - a, ser);
    }

    #[test]
    fn reverse_direction_is_independent() {
        let mut f = fabric(2);
        let t0 = Time::ZERO;
        let fwd = arrives(f.transmit(t0, PortId(0), PortId(1), 1500));
        let rev = arrives(f.transmit(t0, PortId(1), PortId(0), 1500));
        assert_eq!(
            fwd - t0,
            rev - t0,
            "full duplex: directions do not interact"
        );
    }

    #[test]
    #[should_panic(expected = "exceeds MTU")]
    fn oversized_frame_panics() {
        let mut f = fabric(2);
        f.transmit(Time::ZERO, PortId(0), PortId(1), 9000);
    }

    #[test]
    #[should_panic(expected = "loopback")]
    fn loopback_panics() {
        let mut f = fabric(2);
        f.transmit(Time::ZERO, PortId(0), PortId(0), 100);
    }

    #[test]
    fn accounting_counts_frames_and_bytes() {
        let mut f = fabric(2);
        f.transmit(Time::ZERO, PortId(0), PortId(1), 100);
        f.transmit(Time::ZERO, PortId(0), PortId(1), 200);
        assert_eq!(f.frames_carried(), 2);
        assert_eq!(f.bytes_carried(), 300);
        assert_eq!(f.frames_dropped(), 0);
    }

    #[test]
    fn lossy_fabric_reports_drops() {
        let cfg = FabricConfig {
            disturbance: DisturbanceConfig {
                loss_probability: 1.0,
                ..DisturbanceConfig::none()
            },
            ..FabricConfig::default()
        };
        let mut f = EthernetFabric::new(2, cfg, SimRng::new(3));
        assert_eq!(
            f.transmit(Time::ZERO, PortId(0), PortId(1), 100),
            TransmitOutcome::Lost
        );
        assert_eq!(f.frames_dropped(), 1);
        assert_eq!(f.frames_carried(), 0);
    }

    #[test]
    fn jitter_beyond_unloaded_latency_never_arrives_before_send() {
        // Jitter wider than the wire latency pulls some arrivals earlier
        // than the unjittered one and would put some before their own send
        // time; those are clamped to it. Frames 1 ms apart never queue.
        let unloaded = fabric(2).unloaded_latency(100);
        let cfg = FabricConfig {
            disturbance: DisturbanceConfig {
                jitter_ns: 2 * unloaded.as_nanos(),
                ..DisturbanceConfig::none()
            },
            ..FabricConfig::default()
        };
        let mut f = EthernetFabric::new(2, cfg, SimRng::new(5));
        let (mut early, mut clamped) = (0, 0);
        for i in 1..=200 {
            let sent = Time::from_millis(i);
            let at = arrives(f.transmit(sent, PortId(0), PortId(1), 100));
            assert!(at >= sent, "frame sent at {sent} arrived at {at}");
            early += usize::from(at < sent + unloaded);
            clamped += usize::from(at == sent);
        }
        assert!(early > 0, "no arrival was pulled before the unjittered one");
        assert!(clamped > 0, "no arrival was clamped to its send time");
    }

    #[test]
    fn injector_dropped_frame_does_not_delay_the_next() {
        // Regression for the drop-accounting bug: a frame the injector
        // drops must not reserve host or switch egress serialization, so
        // the next frame sails through at the unloaded latency. Probe a few
        // seeds for the pattern (drop, deliver) at 50% loss — the first
        // match is deterministic forever after.
        let cfg = FabricConfig {
            disturbance: DisturbanceConfig {
                loss_probability: 0.5,
                ..DisturbanceConfig::none()
            },
            ..FabricConfig::default()
        };
        let mut checked = false;
        for seed in 0..64 {
            let mut f = EthernetFabric::new(2, cfg, SimRng::new(seed));
            let first = f.transmit(Time::ZERO, PortId(0), PortId(1), 1500);
            if first != TransmitOutcome::Lost {
                continue;
            }
            let unloaded = f.unloaded_latency(1500);
            if let TransmitOutcome::Arrives(at) = f.transmit(Time::ZERO, PortId(0), PortId(1), 1500)
            {
                assert_eq!(
                    at - Time::ZERO,
                    unloaded,
                    "seed {seed}: frame behind a dropped frame must not queue"
                );
                checked = true;
                break;
            }
        }
        assert!(checked, "no seed produced the (drop, deliver) pattern");
    }

    #[test]
    fn bounded_egress_buffer_tail_drops_incast() {
        // 4 senders blast one destination through a 2-frame egress buffer:
        // the overflow tail-drops and the per-port counters say where.
        let cfg = FabricConfig {
            switch_buffer_frames: 2,
            ..FabricConfig::default()
        };
        let mut f = EthernetFabric::new(5, cfg, SimRng::new(1));
        let mut delivered = 0;
        let mut dropped = 0;
        for burst in 0..4u64 {
            for src in 0..4 {
                match f.transmit(Time::from_nanos(burst * 10), PortId(src), PortId(4), 1500) {
                    TransmitOutcome::Arrives(_) => delivered += 1,
                    TransmitOutcome::SwitchDropped => dropped += 1,
                    TransmitOutcome::Lost => panic!("no injector loss configured"),
                }
            }
        }
        assert!(dropped > 0, "16 frames into a 2-deep buffer must overflow");
        assert_eq!(delivered + dropped, 16);
        assert_eq!(f.switch_drops(), dropped);
        assert_eq!(f.switch_drops_at(PortId(4)), dropped);
        assert_eq!(f.switch_drops_at(PortId(0)), 0, "only the hot port drops");
        assert_eq!(f.frames_carried(), delivered);
        assert!(
            f.switch_occupancy_peak_at(PortId(4)) <= 2,
            "bound respected"
        );
        assert!(f.switch_occupancy_peak_at(PortId(4)) >= 2, "buffer filled");
        assert!(f.switch_queue_depth_at(PortId(4)).peak() >= 1.0);
    }

    #[test]
    fn unbounded_default_never_switch_drops() {
        let mut f = fabric(5);
        for burst in 0..64u64 {
            for src in 0..4 {
                let out = f.transmit(Time::from_nanos(burst), PortId(src), PortId(4), 1500);
                assert!(matches!(out, TransmitOutcome::Arrives(_)));
            }
        }
        assert_eq!(f.switch_drops(), 0);
        // Occupancy still tracked: the incast genuinely queued.
        assert!(f.switch_occupancy_peak_at(PortId(4)) > 4);
        assert_eq!(f.switch_occupancy_peak_at(PortId(0)), 0);
    }

    #[test]
    fn egress_buffer_drains_as_frames_serialize() {
        // Fill a 2-deep buffer, wait for it to drain, and confirm the port
        // accepts frames again (tail drop is transient, not sticky).
        let cfg = FabricConfig {
            switch_buffer_frames: 2,
            ..FabricConfig::default()
        };
        let mut f = EthernetFabric::new(3, cfg, SimRng::new(1));
        let mut last_arrival = Time::ZERO;
        for _ in 0..4 {
            for src in 0..2 {
                if let TransmitOutcome::Arrives(at) =
                    f.transmit(Time::ZERO, PortId(src), PortId(2), 1500)
                {
                    last_arrival = last_arrival.max(at);
                }
            }
        }
        assert!(f.switch_drops() > 0, "burst must overflow");
        let drops_before = f.switch_drops();
        let out = f.transmit(last_arrival, PortId(0), PortId(2), 1500);
        assert!(matches!(out, TransmitOutcome::Arrives(_)), "buffer drained");
        assert_eq!(f.switch_drops(), drops_before);
    }

    #[test]
    fn delayed_frames_can_overtake() {
        // Frame 1 gets a large extra delay, frame 2 none: with certainty of
        // delay only on some frames this is probabilistic; here we force the
        // situation by alternating configs across two fabrics and comparing.
        let cfg = FabricConfig {
            disturbance: DisturbanceConfig {
                delay_probability: 0.5,
                delay_min_ns: 50_000,
                delay_max_ns: 50_001,
                ..DisturbanceConfig::none()
            },
            ..FabricConfig::default()
        };
        let mut f = EthernetFabric::new(2, cfg, SimRng::new(7));
        let mut arrivals = Vec::new();
        for _ in 0..64 {
            if let TransmitOutcome::Arrives(t) = f.transmit(Time::ZERO, PortId(0), PortId(1), 1500)
            {
                arrivals.push(t);
            }
        }
        let sorted = {
            let mut s = arrivals.clone();
            s.sort();
            s
        };
        assert_ne!(arrivals, sorted, "expected at least one reordering");
    }
}
