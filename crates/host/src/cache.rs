//! Cache-line bounce tracking.
//!
//! Processing incoming packets touches shared Open-MX driver structures
//! (communication channel descriptors, pull state, the low-level driver
//! ring). When consecutive interrupts land on different cores those lines
//! migrate between L2 caches — the paper measures ~40 ns per packet for the
//! low-level structures alone and argues the effect is much larger once the
//! Open-MX handler is involved (§III-B, §IV-B2).
//!
//! [`CacheTracker`] keeps, per logical *line group* (a set of cache lines
//! that move together, e.g. one channel descriptor), the core that last
//! touched it, and reports whether an access bounced. Groups are dense
//! small integers chosen by the caller, so ownership is a plain vector.

/// Tracks which core last touched each shared line group.
#[derive(Debug, Default)]
pub struct CacheTracker {
    /// Last core per group id, grown on first touch.
    owner: Vec<Option<usize>>,
    accesses: u64,
    bounces: u64,
}

impl CacheTracker {
    /// New tracker with no owned lines.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an access to `group` from `core`.
    ///
    /// Returns `true` when the group was previously owned by a *different*
    /// core (a bounce). First-ever accesses are cold misses, not bounces.
    pub fn access(&mut self, group: usize, core: usize) -> bool {
        self.accesses += 1;
        if group >= self.owner.len() {
            self.owner.resize(group + 1, None);
        }
        match self.owner[group].replace(core) {
            Some(prev) if prev != core => {
                self.bounces += 1;
                true
            }
            _ => false,
        }
    }

    /// Core that last touched `group`, if any.
    pub fn owner(&self, group: usize) -> Option<usize> {
        self.owner.get(group).copied().flatten()
    }

    /// Total accesses recorded.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Total bounces recorded.
    pub fn bounces(&self) -> u64 {
        self.bounces
    }

    /// Bounce ratio in `[0, 1]` (0 when no accesses).
    pub fn bounce_ratio(&self) -> f64 {
        if self.accesses == 0 {
            0.0
        } else {
            self.bounces as f64 / self.accesses as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_access_is_cold_not_bounce() {
        let mut c = CacheTracker::new();
        assert!(!c.access(1, 0));
        assert_eq!(c.bounces(), 0);
        assert_eq!(c.accesses(), 1);
    }

    #[test]
    fn same_core_reaccess_is_hit() {
        let mut c = CacheTracker::new();
        c.access(1, 3);
        assert!(!c.access(1, 3));
        assert_eq!(c.bounces(), 0);
    }

    #[test]
    fn cross_core_access_bounces() {
        let mut c = CacheTracker::new();
        c.access(1, 0);
        assert!(c.access(1, 1));
        assert!(c.access(1, 0));
        assert_eq!(c.bounces(), 2);
        assert_eq!(c.owner(1), Some(0));
    }

    #[test]
    fn groups_are_independent() {
        let mut c = CacheTracker::new();
        c.access(1, 0);
        assert!(!c.access(2, 1), "different group: no bounce");
    }

    #[test]
    fn ratio() {
        let mut c = CacheTracker::new();
        assert_eq!(c.bounce_ratio(), 0.0);
        c.access(1, 0);
        c.access(1, 1);
        assert!((c.bounce_ratio() - 0.5).abs() < 1e-12);
    }
}
