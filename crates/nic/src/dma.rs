//! Write-DMA channel model.
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
//! its frame arrives. The [`crate::Nic`] stores it in the frame's RX-ring
//! slot, with the event sequence number its completion would have been
//! scheduled under, so it can settle completions in exact `(time, seq)`
//! order without an event per transfer. This module holds only the
//! channel's parameters and its transfer time.

use omx_sim::TimeDelta;

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
        TimeDelta::from_nanos(self.setup_ns + copy_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_is_setup_plus_copy() {
        let cfg = DmaConfig {
            setup_ns: 100,
            bytes_per_us: 1000,
        };
        assert_eq!(cfg.transfer_time(500).as_nanos(), 600);
        assert_eq!(cfg.transfer_time(0).as_nanos(), 100);
    }
}
