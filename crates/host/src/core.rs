//! Multi-core host model.
//!
//! Each node of the testbed is a [`Host`]: a set of cores that service
//! interrupts (serialised per core), may be occupied by application ranks,
//! and drop into a C1E-like sleep state when idle. The model deliberately
//! separates *interrupt* busy-time from *application* busy-time: interrupt
//! handlers preempt applications, so application phases observe stolen time
//! through [`Host::irq_busy_total_ns`] rather than blocking the handler.

use crate::cache::CacheTracker;
use crate::costs::CostModel;
use crate::routing::IrqRouting;
use omx_sim::stats::{Counter, Histogram};
use omx_sim::{Time, TimeDelta};

/// Index of a core within one host.
pub type CoreId = usize;

/// Static host configuration.
#[derive(Debug, Clone, Copy)]
pub struct HostConfig {
    /// Number of cores (the paper's nodes have 2 × quad-core = 8).
    pub cores: usize,
    /// Whether idle cores may enter the C1E sleep state.
    pub sleep_enabled: bool,
    /// Interrupt steering policy.
    pub routing: IrqRouting,
    /// Timing constants.
    pub costs: CostModel,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            cores: 8,
            sleep_enabled: true,
            routing: IrqRouting::RoundRobin,
            costs: CostModel::default(),
        }
    }
}

#[derive(Debug, Clone, Copy)]
struct CoreState {
    /// Interrupt work on this core is serialised up to this time.
    irq_busy_until: Time,
    /// Cumulative interrupt busy nanoseconds (stolen-time source).
    irq_busy_total_ns: u64,
    /// An application rank is actively running/polling on this core.
    app_active: bool,
    /// Last instant the core did anything (ends of IRQ service or app marks).
    last_activity: Time,
}

impl CoreState {
    fn new() -> Self {
        CoreState {
            irq_busy_until: Time::ZERO,
            irq_busy_total_ns: 0,
            app_active: false,
            last_activity: Time::ZERO,
        }
    }
}

/// Where and when an interrupt gets serviced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IrqService {
    /// Target core.
    pub core: CoreId,
    /// Instant the handler starts executing (after queueing and wakeup).
    pub start: Time,
    /// The target core had to be woken from C1E.
    pub was_sleeping: bool,
}

/// Monotonic host counters.
#[derive(Debug, Default, Clone)]
pub struct HostCounters {
    /// Interrupts serviced by this host.
    pub irqs: Counter,
    /// Interrupts that hit a sleeping core.
    pub wakeups: Counter,
    /// Total interrupt busy time, all cores, nanoseconds.
    pub irq_busy_ns: Counter,
    /// Cache-line bounce count (from the tracker, mirrored for convenience).
    pub cache_bounces: Counter,
    /// Per-interrupt handler occupancy, nanoseconds (distribution of the
    /// same time `irq_busy_ns` accumulates).
    pub irq_service_ns: Histogram,
}

omx_sim::impl_to_json!(HostCounters {
    irqs,
    wakeups,
    irq_busy_ns,
    cache_bounces,
    irq_service_ns,
});

/// One simulated node.
pub struct Host {
    cfg: HostConfig,
    cores: Vec<CoreState>,
    rr_cursor: usize,
    cache: CacheTracker,
    counters: HostCounters,
}

impl Host {
    /// Build a host.
    pub fn new(cfg: HostConfig) -> Self {
        assert!(cfg.cores > 0, "a host needs at least one core");
        Host {
            cores: vec![CoreState::new(); cfg.cores],
            rr_cursor: 0,
            cache: CacheTracker::new(),
            counters: HostCounters::default(),
            cfg,
        }
    }

    /// Host configuration.
    pub fn config(&self) -> &HostConfig {
        &self.cfg
    }

    /// The cost model in force.
    pub fn costs(&self) -> &CostModel {
        &self.cfg.costs
    }

    /// Counters snapshot.
    pub fn counters(&self) -> &HostCounters {
        &self.counters
    }

    /// Whether `core` would be asleep at `now` (idle long enough, sleeping
    /// allowed, no active application).
    pub fn is_sleeping(&self, core: CoreId, now: Time) -> bool {
        if !self.cfg.sleep_enabled {
            return false;
        }
        let c = &self.cores[core];
        if c.app_active || c.irq_busy_until > now {
            return false;
        }
        let idle_since = c.last_activity.max(c.irq_busy_until);
        now.saturating_since(idle_since)
            > TimeDelta::from_nanos(self.cfg.costs.idle_sleep_threshold_ns)
    }

    /// Route and account one interrupt arriving at `now` for flow `flow`.
    ///
    /// Returns the chosen core and the time the handler starts (queued
    /// behind earlier interrupt work on that core, plus the C1E exit
    /// latency when the core was asleep).
    pub fn deliver_irq(&mut self, now: Time, flow: u64) -> IrqService {
        let core = self
            .cfg
            .routing
            .pick(&mut self.rr_cursor, flow, self.cfg.cores);
        let was_sleeping = self.is_sleeping(core, now);
        self.counters.irqs.incr();
        let start = now.max(self.cores[core].irq_busy_until);
        if was_sleeping {
            // The C1E exit overlaps with the in-flight claim's processing
            // (the MSI reaches the target core while the previous handler
            // still runs), so it is counted but does not push `start`.
            self.counters.wakeups.incr();
        }
        IrqService {
            core,
            start,
            was_sleeping,
        }
    }

    /// Occupy `core` with interrupt work for `dur_ns` starting at `start`.
    /// Returns the completion time.
    pub fn occupy_irq(&mut self, core: CoreId, start: Time, dur_ns: u64) -> Time {
        let end = start + TimeDelta::from_nanos(dur_ns);
        let c = &mut self.cores[core];
        c.irq_busy_until = c.irq_busy_until.max(end);
        c.irq_busy_total_ns += dur_ns;
        c.last_activity = c.last_activity.max(end);
        self.counters.irq_busy_ns.add(dur_ns);
        self.counters.irq_service_ns.record(dur_ns);
        end
    }

    /// Mark whether an application rank is actively running on `core`.
    pub fn set_app_active(&mut self, core: CoreId, active: bool, now: Time) {
        let c = &mut self.cores[core];
        c.app_active = active;
        c.last_activity = c.last_activity.max(now);
    }

    /// Whether an application rank is active on `core`.
    pub fn app_active(&self, core: CoreId) -> bool {
        self.cores[core].app_active
    }

    /// Cumulative interrupt busy time on `core`, nanoseconds — application
    /// phases use the difference across their window as stolen time.
    pub fn irq_busy_total_ns(&self, core: CoreId) -> u64 {
        self.cores[core].irq_busy_total_ns
    }

    /// Record an access to shared line group `group` from `core`; returns
    /// true (and counts) when the access bounced from another core.
    pub fn cache_access(&mut self, group: usize, core: CoreId) -> bool {
        let bounced = self.cache.access(group, core);
        if bounced {
            self.counters.cache_bounces.incr();
        }
        bounced
    }

    /// The cache tracker (read-only).
    pub fn cache(&self) -> &CacheTracker {
        &self.cache
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn host(sleep: bool, routing: IrqRouting) -> Host {
        Host::new(HostConfig {
            cores: 4,
            sleep_enabled: sleep,
            routing,
            costs: CostModel::default(),
        })
    }

    fn t(us: u64) -> Time {
        Time::from_micros(us)
    }

    #[test]
    fn round_robin_scatters_interrupts() {
        let mut h = host(false, IrqRouting::RoundRobin);
        let cores: Vec<usize> = (0..8).map(|i| h.deliver_irq(t(i), 0).core).collect();
        assert_eq!(cores, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn sleeping_core_wakeup_is_counted_not_serialized() {
        let mut h = host(true, IrqRouting::Fixed(1));
        // Long idle: core 1 is asleep. The C1E exit is accounted (wakeups
        // counter) but overlaps with the in-flight claim's processing, so
        // the service start is not pushed back.
        let s = h.deliver_irq(t(100), 0);
        assert!(s.was_sleeping);
        assert_eq!(s.start, t(100));
        assert_eq!(h.counters().wakeups.get(), 1);
    }

    #[test]
    fn recently_active_core_does_not_sleep() {
        let mut h = host(true, IrqRouting::Fixed(0));
        let s1 = h.deliver_irq(t(100), 0);
        let end = h.occupy_irq(0, s1.start, 1_000);
        // 1 µs later (< 2 µs threshold): still awake.
        let s2 = h.deliver_irq(end + TimeDelta::from_micros(1), 0);
        assert!(!s2.was_sleeping);
        assert_eq!(h.counters().wakeups.get(), 1, "only the cold start slept");
    }

    #[test]
    fn sleep_disabled_never_wakes() {
        let mut h = host(false, IrqRouting::Fixed(0));
        let s = h.deliver_irq(t(10_000), 0);
        assert!(!s.was_sleeping);
        assert_eq!(s.start, t(10_000));
    }

    #[test]
    fn app_active_core_never_sleeps() {
        let mut h = host(true, IrqRouting::Fixed(2));
        h.set_app_active(2, true, Time::ZERO);
        let s = h.deliver_irq(t(50_000), 0);
        assert!(!s.was_sleeping);
    }

    #[test]
    fn irq_work_serialises_per_core() {
        let mut h = host(false, IrqRouting::Fixed(0));
        let s1 = h.deliver_irq(t(10), 0);
        let end1 = h.occupy_irq(0, s1.start, 5_000);
        let s2 = h.deliver_irq(t(11), 0);
        assert_eq!(s2.start, end1, "second IRQ queues behind the first");
    }

    #[test]
    fn different_cores_service_in_parallel() {
        let mut h = host(false, IrqRouting::RoundRobin);
        let s1 = h.deliver_irq(t(10), 0);
        h.occupy_irq(s1.core, s1.start, 5_000);
        let s2 = h.deliver_irq(t(10), 0);
        assert_ne!(s1.core, s2.core);
        assert_eq!(s2.start, t(10), "no queueing across cores");
    }

    #[test]
    fn stolen_time_accumulates() {
        let mut h = host(false, IrqRouting::Fixed(3));
        assert_eq!(h.irq_busy_total_ns(3), 0);
        let s = h.deliver_irq(t(0), 0);
        h.occupy_irq(3, s.start, 2_500);
        let s = h.deliver_irq(t(100), 0);
        h.occupy_irq(3, s.start, 1_500);
        assert_eq!(h.irq_busy_total_ns(3), 4_000);
        assert_eq!(h.counters().irq_busy_ns.get(), 4_000);
    }

    #[test]
    fn cache_access_counts_bounces() {
        let mut h = host(false, IrqRouting::RoundRobin);
        assert!(!h.cache_access(7, 0));
        assert!(h.cache_access(7, 1));
        assert_eq!(h.counters().cache_bounces.get(), 1);
        assert_eq!(h.cache().bounces(), 1);
    }

    #[test]
    #[should_panic(expected = "at least one core")]
    fn zero_core_host_rejected() {
        let _ = Host::new(HostConfig {
            cores: 0,
            ..HostConfig::default()
        });
    }
}
