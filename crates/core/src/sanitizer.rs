//! Sim sanitizer: end-to-end invariant checking for fault-injected runs.
//!
//! The sanitizer is a lightweight recorder embedded in the cluster
//! orchestrator. It observes every posted send, every application delivery
//! and every send completion, and at quiescence (queue-empty) combines its
//! counters with the per-node driver and NIC state to check three
//! invariants (DESIGN §7):
//!
//! 1. **Byte conservation** — every byte posted by an application is
//!    delivered exactly once (the protocol retransmits until delivery, so
//!    under loss the *wire* sees duplicates but the application must not).
//! 2. **No stranded messages** — at quiescence no driver holds protocol
//!    state stuck mid-flight; a violation names the message's key and
//!    phase (see [`crate::proto::NodeDriver::pending_report`]).
//! 3. **Interrupt liveness** — at quiescence no NIC still owes the host
//!    packets (a coalescer that held packets forever without raising an
//!    interrupt would show up here).
//!
//! Checks 2 and 3 are *liveness* checks: any entry is a bug, so the
//! cluster asserts them automatically (debug builds) whenever a run drains
//! to `StopCondition::QueueEmpty`. Check 1 is only meaningful for
//! workloads that post a matching receive for every send — a receiver that
//! stops early or never posts legitimately strands bytes — so it is
//! opt-in via [`SanitizerReport::all_violations`].

use omx_sim::hash::FastSet;

/// Run-time recorder; one per cluster.
#[derive(Debug, Default)]
pub struct Sanitizer {
    msgs_posted: u64,
    msgs_delivered: u64,
    msgs_send_completed: u64,
    bytes_posted: u64,
    bytes_delivered: u64,
    /// `(src_node, msg_id)` of every delivered message — `MsgId` is a
    /// per-node monotone counter, so the pair is globally unique and a
    /// repeat means the dup-suppression path delivered a copy twice. Only
    /// probed, never iterated, so it hashes with the unseeded
    /// [`omx_sim::hash::FastHasher`].
    seen: FastSet<(u16, u64)>,
    /// `(src, dst, msg_id)` of each duplicate delivery. Recorded raw so the
    /// per-delivery hook never formats; rendering happens in [`report`](Sanitizer::report).
    duplicate_deliveries: Vec<(u16, u16, u64)>,
}

impl Sanitizer {
    /// An application posted a send of `len` bytes from `src` to `dst`.
    pub fn on_send_posted(&mut self, _src: u16, _dst: u16, len: u32) {
        self.msgs_posted += 1;
        self.bytes_posted += u64::from(len);
    }

    /// A send completed back to the application.
    pub fn on_send_completed(&mut self) {
        self.msgs_send_completed += 1;
    }

    /// A message was delivered to an application on `dst`.
    pub fn on_delivered(&mut self, src: u16, dst: u16, msg_id: u64, len: u32) {
        self.msgs_delivered += 1;
        self.bytes_delivered += u64::from(len);
        if !self.seen.insert((src, msg_id)) {
            self.duplicate_deliveries.push((src, dst, msg_id));
        }
    }

    /// Snapshot the counters; liveness entries are appended by the cluster.
    pub fn report(&self) -> SanitizerReport {
        SanitizerReport {
            msgs_posted: self.msgs_posted,
            msgs_delivered: self.msgs_delivered,
            msgs_send_completed: self.msgs_send_completed,
            bytes_posted: self.bytes_posted,
            bytes_delivered: self.bytes_delivered,
            violations: self
                .duplicate_deliveries
                .iter()
                .map(|&(src, dst, msg_id)| {
                    format!(
                        "duplicate delivery: msg {msg_id} from node {src} delivered twice at node {dst}"
                    )
                })
                .collect(),
        }
    }
}

/// Invariant-check result for one run; see the module docs for the split
/// between always-wrong liveness violations and opt-in conservation.
#[derive(Debug, Clone)]
pub struct SanitizerReport {
    /// Messages posted by applications.
    pub msgs_posted: u64,
    /// Messages delivered to applications.
    pub msgs_delivered: u64,
    /// Send completions reported back to applications.
    pub msgs_send_completed: u64,
    /// Bytes posted by applications.
    pub bytes_posted: u64,
    /// Bytes delivered to applications.
    pub bytes_delivered: u64,
    /// Liveness violations: duplicate deliveries, stranded protocol state,
    /// NIC pending work at quiescence. Any entry is a bug.
    pub violations: Vec<String>,
}

impl SanitizerReport {
    /// Conservation violations — exact byte/message accounting. Only valid
    /// for workloads where every posted send has a matching posted receive
    /// and the run drained to queue-empty.
    pub fn conservation_violations(&self) -> Vec<String> {
        let mut out = Vec::new();
        if self.bytes_delivered != self.bytes_posted {
            out.push(format!(
                "byte conservation: {} bytes posted but {} delivered",
                self.bytes_posted, self.bytes_delivered
            ));
        }
        if self.msgs_delivered != self.msgs_posted {
            out.push(format!(
                "message conservation: {} messages posted but {} delivered",
                self.msgs_posted, self.msgs_delivered
            ));
        }
        if self.msgs_send_completed != self.msgs_posted {
            out.push(format!(
                "send completion: {} messages posted but {} completions",
                self.msgs_posted, self.msgs_send_completed
            ));
        }
        out
    }

    /// Liveness violations plus conservation violations, for fully-matched
    /// workloads (the fault campaign and the loss-sweep e2e tests).
    pub fn all_violations(&self) -> Vec<String> {
        let mut out = self.violations.clone();
        out.extend(self.conservation_violations());
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn balanced_run_is_clean() {
        let mut s = Sanitizer::default();
        s.on_send_posted(0, 1, 4096);
        s.on_delivered(0, 1, 7, 4096);
        s.on_send_completed();
        let r = s.report();
        assert!(r.violations.is_empty());
        assert!(r.conservation_violations().is_empty());
        assert!(r.all_violations().is_empty());
    }

    #[test]
    fn duplicate_delivery_is_flagged() {
        let mut s = Sanitizer::default();
        s.on_send_posted(0, 1, 64);
        s.on_delivered(0, 1, 3, 64);
        s.on_delivered(0, 1, 3, 64);
        let r = s.report();
        assert_eq!(r.violations.len(), 1, "{:?}", r.violations);
        assert!(r.violations[0].contains("msg 3"));
        // Same msg id from a *different* node is fine.
        let mut s2 = Sanitizer::default();
        s2.on_delivered(0, 1, 3, 64);
        s2.on_delivered(2, 1, 3, 64);
        assert!(s2.report().violations.is_empty());
    }

    #[test]
    fn lost_bytes_show_in_conservation() {
        let mut s = Sanitizer::default();
        s.on_send_posted(0, 1, 100);
        s.on_send_posted(0, 1, 100);
        s.on_delivered(0, 1, 1, 100);
        s.on_send_completed();
        let r = s.report();
        assert!(r.violations.is_empty());
        let cons = r.conservation_violations();
        assert_eq!(cons.len(), 3, "{cons:?}");
        assert!(cons[0].contains("200 bytes posted but 100 delivered"));
    }
}
