//! Point-to-point link timing.
//!
//! A link is characterised by bandwidth and propagation delay. Serialization
//! of back-to-back frames is enforced by a [`PortClock`]: a frame cannot
//! start leaving a port before the previous frame finished, which is what
//! creates queueing at line rate (and, with a switch in between, the
//! store-and-forward pipeline of the real testbed).

use omx_sim::{Time, TimeDelta};

/// Static link parameters.
#[derive(Debug, Clone, Copy)]
pub struct LinkConfig {
    /// Line rate in bits per second (Myri-10G: 10 Gbit/s).
    pub bandwidth_bps: u64,
    /// One-way propagation delay of the cable in nanoseconds.
    pub propagation_ns: u64,
    /// Fixed per-frame overhead on the wire in bytes (preamble + IFG + FCS).
    pub wire_overhead_bytes: u32,
}

impl Default for LinkConfig {
    fn default() -> Self {
        // 10 GbE with a short cable. Ethernet adds 7+1 B preamble/SFD,
        // 4 B FCS and a 12 B inter-frame gap = 24 B of wire overhead.
        LinkConfig {
            bandwidth_bps: 10_000_000_000,
            propagation_ns: 200,
            wire_overhead_bytes: 24,
        }
    }
}

impl LinkConfig {
    /// Time to clock `frame_bytes` of payload (plus overhead) onto the wire.
    pub fn serialization(&self, frame_bytes: u32) -> TimeDelta {
        let bits = (frame_bytes as u64 + self.wire_overhead_bytes as u64) * 8;
        // Round up so zero-cost frames are impossible on a finite-rate link.
        let ns = (bits * 1_000_000_000).div_ceil(self.bandwidth_bps);
        TimeDelta::from_nanos(ns)
    }

    /// One-way propagation delay.
    pub fn propagation(&self) -> TimeDelta {
        TimeDelta::from_nanos(self.propagation_ns)
    }
}

/// Tracks when a transmit port next becomes free.
#[derive(Debug, Clone, Copy, Default)]
pub struct PortClock {
    next_free: Time,
}

impl PortClock {
    /// New port, free from time zero.
    pub fn new() -> Self {
        PortClock {
            next_free: Time::ZERO,
        }
    }

    /// Reserve the port for one frame of `frame_bytes` starting no earlier
    /// than `now`. Returns `(start, end_of_serialization)`.
    pub fn reserve(&mut self, now: Time, cfg: &LinkConfig, frame_bytes: u32) -> (Time, Time) {
        let start = if self.next_free > now {
            self.next_free
        } else {
            now
        };
        let end = start + cfg.serialization(frame_bytes);
        self.next_free = end;
        (start, end)
    }

    /// Time at which the port next becomes idle.
    pub fn next_free(&self) -> Time {
        self.next_free
    }

    /// Backlog (ns) a frame would wait if submitted at `now`.
    pub fn backlog(&self, now: Time) -> TimeDelta {
        self.next_free.saturating_since(now)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn gbe10() -> LinkConfig {
        LinkConfig::default()
    }

    #[test]
    fn serialization_scales_with_size() {
        let cfg = gbe10();
        // 1500 B + 24 B overhead = 12192 bits on a 10 Gb/s wire = 1219.2 ns.
        let t = cfg.serialization(1500);
        assert_eq!(t.as_nanos(), 1220);
        // Minimum frame still takes nonzero time.
        assert!(cfg.serialization(0).as_nanos() > 0);
    }

    #[test]
    fn serialization_rounds_up() {
        let cfg = LinkConfig {
            bandwidth_bps: 3,
            propagation_ns: 0,
            wire_overhead_bytes: 0,
        };
        // 1 byte = 8 bits at 3 bps = 2.67 s => rounds up.
        assert_eq!(cfg.serialization(1).as_nanos(), 2_666_666_667);
    }

    #[test]
    fn port_clock_serializes_back_to_back() {
        let cfg = gbe10();
        let mut port = PortClock::new();
        let (s1, e1) = port.reserve(Time::ZERO, &cfg, 1500);
        assert_eq!(s1, Time::ZERO);
        let (s2, e2) = port.reserve(Time::ZERO, &cfg, 1500);
        assert_eq!(s2, e1, "second frame waits for the first");
        assert_eq!(e2 - s2, cfg.serialization(1500));
    }

    #[test]
    fn port_clock_idles_between_sparse_frames() {
        let cfg = gbe10();
        let mut port = PortClock::new();
        let (_, e1) = port.reserve(Time::ZERO, &cfg, 64);
        let later = e1 + TimeDelta::from_micros(5);
        let (s2, _) = port.reserve(later, &cfg, 64);
        assert_eq!(s2, later, "idle port starts immediately");
    }

    #[test]
    fn backlog_reporting() {
        let cfg = gbe10();
        let mut port = PortClock::new();
        port.reserve(Time::ZERO, &cfg, 1500);
        let b = port.backlog(Time::ZERO);
        assert_eq!(b, cfg.serialization(1500));
        assert_eq!(port.backlog(port.next_free()), TimeDelta::ZERO);
    }
}
