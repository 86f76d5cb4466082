//! Write-DMA engine model.
//!
//! Received frames are deposited into host memory by DMA before the host can
//! look at them — this transfer time is the window the paper's Stream
//! strategy exploits ("look at the future incoming traffic during the DMA
//! processing time", §III-C). We model a single DMA channel that processes
//! descriptors in FIFO order at PCIe-ish bandwidth with a fixed per-transfer
//! setup cost; concurrent submissions therefore queue, which is exactly what
//! lets a burst of arrivals keep `pending > 0` at completion time.
//!
//! Because the channel is FIFO, a transfer's completion time is known when
//! it is submitted. Each `Transfer` carries it, with the event sequence
//! number its completion would have been scheduled under, so the
//! [`crate::Nic`] can settle completions in exact `(time, seq)` order
//! without an event per transfer.

use crate::packet::{DescId, PacketMeta};
use omx_sim::{Time, TimeDelta};
use std::collections::VecDeque;

/// DMA engine parameters.
#[derive(Debug, Clone, Copy)]
pub struct DmaConfig {
    /// Fixed per-descriptor setup cost in nanoseconds (doorbell, descriptor
    /// fetch, completion write).
    pub setup_ns: u64,
    /// Effective copy bandwidth in bytes per microsecond (PCIe x8 Gen1 on
    /// the paper's testbed moves roughly 1.5–2 GB/s of write traffic).
    pub bytes_per_us: u64,
}

impl Default for DmaConfig {
    fn default() -> Self {
        DmaConfig {
            setup_ns: 250,
            bytes_per_us: 1800,
        }
    }
}

impl DmaConfig {
    /// Pure transfer time for `len` bytes (setup + copy).
    pub fn transfer_time(&self, len: u32) -> TimeDelta {
        let copy_ns = (len as u64 * 1_000).div_ceil(self.bytes_per_us);
        TimeDelta::from_nanos((self.setup_ns + copy_ns) as i64)
    }
}

/// One outstanding DMA.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Transfer {
    /// Descriptor the frame was received into.
    pub desc: DescId,
    /// Frame metadata (length, class, Open-MX marker).
    pub meta: PacketMeta,
    /// When the transfer completes.
    pub at: Time,
    /// Event sequence number reserved for the completion: with `at`, its
    /// place in the event order.
    pub seq: u64,
    /// A completion event was scheduled at `(at, seq)`.
    pub evented: bool,
}

impl Transfer {
    /// The completion's place in the event order.
    pub fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

/// FIFO write-DMA engine.
#[derive(Debug, Default)]
pub(crate) struct DmaEngine {
    cfg: DmaConfig,
    inflight: VecDeque<Transfer>,
    /// Completion time of the most recently queued transfer.
    tail_time: Time,
    /// Marked transfers in `inflight`.
    marked: usize,
}

impl DmaEngine {
    /// New idle engine.
    pub fn new(cfg: DmaConfig) -> Self {
        DmaEngine {
            cfg,
            ..DmaEngine::default()
        }
    }

    /// Submit the frame received into `desc` at time `now`; `seq` is the
    /// event sequence number reserved for its completion. Returns the
    /// absolute completion time (FIFO after earlier transfers).
    pub fn submit(&mut self, now: Time, desc: DescId, meta: PacketMeta, seq: u64) -> Time {
        let start = if self.tail_time > now {
            self.tail_time
        } else {
            now
        };
        let at = start + self.cfg.transfer_time(meta.len_bytes);
        self.tail_time = at;
        self.inflight.push_back(Transfer {
            desc,
            meta,
            at,
            seq,
            evented: false,
        });
        self.marked += usize::from(meta.marked);
        at
    }

    /// Record completion of the oldest transfer; must match `desc`.
    ///
    /// Returns the transfer and the number still pending afterwards — the
    /// quantity Algorithm 2 branches on.
    pub fn complete(&mut self, desc: DescId) -> (Transfer, usize) {
        let head = self
            .inflight
            .pop_front()
            .expect("DMA completion with no inflight transfer");
        assert_eq!(head.desc, desc, "DMA completions must be FIFO");
        self.marked -= usize::from(head.meta.marked);
        (head, self.inflight.len())
    }

    /// Transfers submitted but not yet completed.
    pub fn pending(&self) -> usize {
        self.inflight.len()
    }

    /// The oldest transfer in flight.
    pub fn head(&self) -> Option<&Transfer> {
        self.inflight.front()
    }

    /// The `i`-th oldest transfer in flight.
    pub fn get_mut(&mut self, i: usize) -> Option<&mut Transfer> {
        self.inflight.get_mut(i)
    }

    /// FIFO index of the oldest marked transfer in flight.
    pub fn first_marked(&self) -> Option<usize> {
        if self.marked == 0 {
            return None;
        }
        self.inflight.iter().position(|t| t.meta.marked)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn engine() -> DmaEngine {
        DmaEngine::new(DmaConfig {
            setup_ns: 100,
            bytes_per_us: 1000, // 1 byte per ns: easy arithmetic
        })
    }

    fn submit(e: &mut DmaEngine, now: u64, desc: u64, len: u32) -> Time {
        e.submit(
            Time::from_nanos(now),
            DescId(desc),
            PacketMeta::omx(len, desc % 2 == 1),
            desc,
        )
    }

    #[test]
    fn transfer_time_is_setup_plus_copy() {
        let cfg = DmaConfig {
            setup_ns: 100,
            bytes_per_us: 1000,
        };
        assert_eq!(cfg.transfer_time(500).as_nanos(), 600);
        assert_eq!(cfg.transfer_time(0).as_nanos(), 100);
    }

    #[test]
    fn sparse_submissions_complete_independently() {
        let mut e = engine();
        let c1 = submit(&mut e, 0, 0, 100);
        assert_eq!(c1, Time::from_nanos(200));
        let c2 = submit(&mut e, 10_000, 1, 100);
        assert_eq!(c2, Time::from_nanos(10_200));
    }

    #[test]
    fn burst_submissions_queue_fifo() {
        let mut e = engine();
        let c1 = submit(&mut e, 0, 0, 100);
        let c2 = submit(&mut e, 0, 1, 100);
        let c3 = submit(&mut e, 0, 2, 100);
        assert_eq!(c1, Time::from_nanos(200));
        assert_eq!(c2, Time::from_nanos(400));
        assert_eq!(c3, Time::from_nanos(600));
        assert_eq!(e.pending(), 3);
        assert_eq!(e.first_marked(), Some(1), "odd descriptors are marked");
        let (t, pending) = e.complete(DescId(0));
        assert_eq!((t.key(), pending), ((c1, 0), 2));
        assert_eq!(e.complete(DescId(1)).1, 1);
        assert_eq!(e.first_marked(), None);
        assert_eq!(e.complete(DescId(2)).1, 0);
        assert!(e.head().is_none());
    }

    #[test]
    #[should_panic(expected = "FIFO")]
    fn out_of_order_completion_panics() {
        let mut e = engine();
        submit(&mut e, 0, 0, 10);
        submit(&mut e, 0, 1, 10);
        e.complete(DescId(1));
    }

    #[test]
    #[should_panic(expected = "no inflight")]
    fn completion_without_submission_panics() {
        let mut e = engine();
        e.complete(DescId(0));
    }
}
