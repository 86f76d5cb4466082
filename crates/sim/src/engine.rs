//! Simulation driver.
//!
//! A [`Model`] is the whole simulated world (cluster, NICs, hosts, protocol
//! state). The [`Engine`] owns the event queue and the clock; it pops one
//! event at a time and hands it to the model together with a [`Scheduler`]
//! through which the model queues follow-up events.
//!
//! The split keeps component logic free of queue plumbing and makes the
//! event loop trivially auditable: time never goes backwards, and events at
//! equal times are dispatched in scheduling order.

use crate::queue::EventQueue;
use crate::time::Time;

/// The simulated world driven by an [`Engine`].
pub trait Model {
    /// The event payload type dispatched to this model.
    type Event;

    /// Handle one event at simulated time `now`. Follow-up events are
    /// scheduled through `sched`.
    fn handle(&mut self, now: Time, event: Self::Event, sched: &mut Scheduler<Self::Event>);

    /// Periodic observation hook, fired by the engine at tick-period
    /// boundaries (see [`Engine::set_tick_period`]). Deliberately *not*
    /// given a [`Scheduler`]: a tick can read and snapshot model state but
    /// cannot schedule events, so enabling ticks can never keep the queue
    /// alive, change the drain point, or perturb event dispatch order.
    /// Default is a no-op.
    fn tick(&mut self, _now: Time) {}
}

/// Interface handed to [`Model::handle`] for scheduling future events.
pub struct Scheduler<E> {
    queue: EventQueue<E>,
    now: Time,
}

impl<E> Scheduler<E> {
    fn new() -> Self {
        Scheduler {
            queue: EventQueue::new(),
            now: Time::ZERO,
        }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — a model scheduling backwards in time
    /// is always a bug, and silently clamping would hide it.
    pub fn schedule_at(&mut self, at: Time, event: E) {
        assert!(
            at >= self.now,
            "event scheduled in the past: now={}, at={}",
            self.now,
            at
        );
        self.queue.push(at, event);
    }

    /// Schedule `event` after `delay_ns` nanoseconds.
    ///
    /// # Panics
    /// Panics if `now + delay_ns` overflows the u64 nanosecond clock. A
    /// wrapping add would schedule the event in the distant past and corrupt
    /// the simulation silently in release builds; ~584 years of simulated
    /// time is always a delay-computation bug.
    pub fn schedule_in(&mut self, delay_ns: u64, event: E) {
        let at = self
            .now
            .as_nanos()
            .checked_add(delay_ns)
            .unwrap_or_else(|| {
                panic!(
                    "schedule_in overflows simulated time: now={} + delay={}ns \
                     exceeds the u64 nanosecond clock",
                    self.now, delay_ns
                )
            });
        self.queue.push(Time::from_nanos(at), event);
    }
}

/// Why [`Engine::run`] returned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopCondition {
    /// The event queue drained completely.
    QueueEmpty,
    /// The configured time horizon was reached.
    HorizonReached,
    /// The model requested an early stop via [`Engine::run_until`]'s predicate.
    PredicateSatisfied,
}

/// The simulation engine: event loop, clock, and run-control.
///
/// ```
/// use omx_sim::{Engine, Model, Scheduler, Time};
///
/// /// Counts down, one event per microsecond.
/// struct Countdown(u32);
///
/// impl Model for Countdown {
///     type Event = ();
///     fn handle(&mut self, _now: Time, _ev: (), sched: &mut Scheduler<()>) {
///         if self.0 > 0 {
///             self.0 -= 1;
///             sched.schedule_in(1_000, ());
///         }
///     }
/// }
///
/// let mut engine = Engine::new(Countdown(3));
/// engine.prime(Time::ZERO, ());
/// engine.run(Time::MAX);
/// assert_eq!(engine.model().0, 0);
/// assert_eq!(engine.now(), Time::from_micros(3));
/// ```
pub struct Engine<M: Model> {
    model: M,
    sched: Scheduler<M::Event>,
    events_processed: u64,
    /// Tick period in nanoseconds; `None` disables [`Model::tick`] entirely
    /// (one branch per dispatched event — zero cost in the common case).
    tick_period_ns: Option<u64>,
    /// Absolute time of the next pending tick boundary.
    next_tick_ns: u64,
}

impl<M: Model> Engine<M> {
    /// Create an engine around `model` with an empty queue at time zero.
    pub fn new(model: M) -> Self {
        Engine {
            model,
            sched: Scheduler::new(),
            events_processed: 0,
            tick_period_ns: None,
            next_tick_ns: 0,
        }
    }

    /// Access the model (for seeding initial state or reading results).
    pub fn model(&self) -> &M {
        &self.model
    }

    /// Mutable access to the model.
    pub fn model_mut(&mut self) -> &mut M {
        &mut self.model
    }

    /// Current simulated time (time of the last dispatched event).
    pub fn now(&self) -> Time {
        self.sched.now()
    }

    /// Total events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Enable periodic [`Model::tick`] callbacks every `period_ns` of
    /// simulated time.
    ///
    /// Boundaries are absolute multiples of the period. The tick closing
    /// window `[k·p, (k+1)·p)` fires at `(k+1)·p`, *before* any event
    /// scheduled at exactly that instant, so a window never observes work
    /// from its successor. Ticks only fire while events are still being
    /// dispatched — they piggyback on event-time progress rather than
    /// driving the clock — so an enabled tick never delays `QueueEmpty`.
    ///
    /// # Panics
    /// Panics if `period_ns` is zero.
    pub fn set_tick_period(&mut self, period_ns: u64) {
        assert!(period_ns > 0, "tick period must be non-zero");
        self.tick_period_ns = Some(period_ns);
        // First boundary strictly after the current instant, aligned to the
        // period grid.
        self.next_tick_ns = (self.sched.now.as_nanos() / period_ns + 1) * period_ns;
    }

    /// Schedule an initial event before running.
    ///
    /// # Panics
    /// Panics if `at` is before the engine's current time, exactly like
    /// [`Scheduler::schedule_at`] — priming after a previous `run` must not
    /// move time backwards.
    pub fn prime(&mut self, at: Time, event: M::Event) {
        self.sched.schedule_at(at, event);
    }

    /// Run until the queue drains or `horizon` is passed (whichever first).
    pub fn run(&mut self, horizon: Time) -> StopCondition {
        self.run_until(horizon, |_| false)
    }

    /// Like [`Engine::run`] but additionally stops as soon as `stop(&model)`
    /// returns true (checked after each dispatched event).
    pub fn run_until(&mut self, horizon: Time, mut stop: impl FnMut(&M) -> bool) -> StopCondition {
        loop {
            let Some(next) = self.sched.queue.peek_time() else {
                return StopCondition::QueueEmpty;
            };
            if next > horizon {
                // Leave the event queued; the caller may extend the horizon.
                self.sched.now = horizon;
                return StopCondition::HorizonReached;
            }
            if let Some(period) = self.tick_period_ns {
                // Fire every tick boundary up to and including the next
                // event's timestamp (tick-before-event on exact ties).
                while self.next_tick_ns <= next.as_nanos() {
                    let at = Time::from_nanos(self.next_tick_ns);
                    self.sched.now = at;
                    self.model.tick(at);
                    self.next_tick_ns += period;
                }
            }
            let (time, event) = self.sched.queue.pop().expect("peeked event vanished");
            debug_assert!(time >= self.sched.now, "time went backwards");
            self.sched.now = time;
            self.model.handle(time, event, &mut self.sched);
            self.events_processed += 1;
            if stop(&self.model) {
                return StopCondition::PredicateSatisfied;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A model that re-schedules itself `remaining` times with a fixed period
    /// and records dispatch timestamps.
    struct Ticker {
        period_ns: u64,
        remaining: u32,
        fired_at: Vec<Time>,
    }

    impl Model for Ticker {
        type Event = ();
        fn handle(&mut self, now: Time, _ev: (), sched: &mut Scheduler<()>) {
            self.fired_at.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_in(self.period_ns, ());
            }
        }
    }

    #[test]
    fn periodic_model_runs_to_completion() {
        let mut eng = Engine::new(Ticker {
            period_ns: 100,
            remaining: 4,
            fired_at: Vec::new(),
        });
        eng.prime(Time::from_nanos(50), ());
        let stop = eng.run(Time::from_secs(1));
        assert_eq!(stop, StopCondition::QueueEmpty);
        let expect: Vec<Time> = (0..5).map(|i| Time::from_nanos(50 + i * 100)).collect();
        assert_eq!(eng.model().fired_at, expect);
        assert_eq!(eng.events_processed(), 5);
    }

    #[test]
    fn horizon_stops_run_and_preserves_queue() {
        let mut eng = Engine::new(Ticker {
            period_ns: 100,
            remaining: 1000,
            fired_at: Vec::new(),
        });
        eng.prime(Time::ZERO, ());
        let stop = eng.run(Time::from_nanos(450));
        assert_eq!(stop, StopCondition::HorizonReached);
        assert_eq!(eng.model().fired_at.len(), 5); // t = 0,100,200,300,400
        assert_eq!(eng.now(), Time::from_nanos(450));
        // Continuing picks up exactly where it left off.
        let stop = eng.run(Time::from_nanos(800));
        assert_eq!(stop, StopCondition::HorizonReached);
        assert_eq!(eng.model().fired_at.len(), 9);
    }

    #[test]
    fn predicate_stop() {
        let mut eng = Engine::new(Ticker {
            period_ns: 10,
            remaining: 1000,
            fired_at: Vec::new(),
        });
        eng.prime(Time::ZERO, ());
        let stop = eng.run_until(Time::MAX, |m| m.fired_at.len() >= 3);
        assert_eq!(stop, StopCondition::PredicateSatisfied);
        assert_eq!(eng.model().fired_at.len(), 3);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        struct Bad;
        impl Model for Bad {
            type Event = ();
            fn handle(&mut self, now: Time, _ev: (), sched: &mut Scheduler<()>) {
                sched.schedule_at(now - crate::TimeDelta::from_nanos(1), ());
            }
        }
        let mut eng = Engine::new(Bad);
        eng.prime(Time::from_nanos(100), ());
        eng.run(Time::MAX);
    }

    #[test]
    #[should_panic(expected = "schedule_in overflows simulated time")]
    fn schedule_in_overflow_panics() {
        struct Overflow;
        impl Model for Overflow {
            type Event = ();
            fn handle(&mut self, _now: Time, _ev: (), sched: &mut Scheduler<()>) {
                // now is non-zero here, so now + u64::MAX wraps.
                sched.schedule_in(u64::MAX, ());
            }
        }
        let mut eng = Engine::new(Overflow);
        eng.prime(Time::from_nanos(100), ());
        eng.run(Time::MAX);
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn priming_in_the_past_panics() {
        let mut eng = Engine::new(Ticker {
            period_ns: 100,
            remaining: 0,
            fired_at: Vec::new(),
        });
        eng.prime(Time::from_nanos(500), ());
        eng.run(Time::MAX);
        assert_eq!(eng.now(), Time::from_nanos(500));
        // Re-priming behind the clock must trip the invariant.
        eng.prime(Time::from_nanos(10), ());
    }

    /// Records both event dispatches and tick callbacks in arrival order.
    struct TickLogger {
        period_ns: u64,
        remaining: u32,
        log: Vec<(&'static str, Time)>,
    }

    impl Model for TickLogger {
        type Event = ();
        fn handle(&mut self, now: Time, _ev: (), sched: &mut Scheduler<()>) {
            self.log.push(("event", now));
            if self.remaining > 0 {
                self.remaining -= 1;
                sched.schedule_in(self.period_ns, ());
            }
        }
        fn tick(&mut self, now: Time) {
            self.log.push(("tick", now));
        }
    }

    #[test]
    fn ticks_fire_on_boundaries_between_events() {
        let mut eng = Engine::new(TickLogger {
            period_ns: 250,
            remaining: 4,
            log: Vec::new(),
        });
        eng.set_tick_period(100);
        eng.prime(Time::from_nanos(30), ());
        let stop = eng.run(Time::MAX);
        assert_eq!(stop, StopCondition::QueueEmpty);
        // Events at 30, 280, 530, 780, 1030; ticks at every 100 ns boundary
        // up to the last event. Ticks never count as events.
        assert_eq!(eng.events_processed(), 5);
        let ticks: Vec<u64> = eng
            .model()
            .log
            .iter()
            .filter(|(k, _)| *k == "tick")
            .map(|(_, t)| t.as_nanos())
            .collect();
        assert_eq!(
            ticks,
            vec![100, 200, 300, 400, 500, 600, 700, 800, 900, 1000]
        );
        // Interleaving: tick at 100 precedes event at 280, etc.
        let order: Vec<(&str, u64)> = eng
            .model()
            .log
            .iter()
            .map(|(k, t)| (*k, t.as_nanos()))
            .collect();
        assert_eq!(order[0], ("event", 30));
        assert_eq!(order[1], ("tick", 100));
        assert_eq!(order[2], ("tick", 200));
        assert_eq!(order[3], ("event", 280));
    }

    #[test]
    fn tick_fires_before_event_at_same_instant() {
        let mut eng = Engine::new(TickLogger {
            period_ns: 100,
            remaining: 2,
            log: Vec::new(),
        });
        eng.set_tick_period(100);
        eng.prime(Time::from_nanos(100), ());
        eng.run(Time::MAX);
        let order: Vec<(&str, u64)> = eng
            .model()
            .log
            .iter()
            .map(|(k, t)| (*k, t.as_nanos()))
            .collect();
        // At t=100 the window [0,100) closes before the event at 100 runs.
        assert_eq!(order[0], ("tick", 100));
        assert_eq!(order[1], ("event", 100));
        assert_eq!(order[2], ("tick", 200));
        assert_eq!(order[3], ("event", 200));
    }

    #[test]
    fn ticks_do_not_keep_queue_alive_or_pass_last_event() {
        let mut eng = Engine::new(TickLogger {
            period_ns: 0,
            remaining: 0,
            log: Vec::new(),
        });
        eng.set_tick_period(50);
        eng.prime(Time::from_nanos(120), ());
        let stop = eng.run(Time::MAX);
        assert_eq!(stop, StopCondition::QueueEmpty);
        // Boundaries at 50 and 100 fire (they precede the event at 120);
        // nothing fires after the last event — ticks never extend the run.
        let ticks: Vec<u64> = eng
            .model()
            .log
            .iter()
            .filter(|(k, _)| *k == "tick")
            .map(|(_, t)| t.as_nanos())
            .collect();
        assert_eq!(ticks, vec![50, 100]);
    }

    #[test]
    fn tick_disabled_by_default_matches_event_trace() {
        let run = |tick: bool| {
            let mut eng = Engine::new(TickLogger {
                period_ns: 100,
                remaining: 10,
                log: Vec::new(),
            });
            if tick {
                eng.set_tick_period(70);
            }
            eng.prime(Time::ZERO, ());
            eng.run(Time::MAX);
            eng.model()
                .log
                .iter()
                .filter(|(k, _)| *k == "event")
                .map(|(_, t)| t.as_nanos())
                .collect::<Vec<u64>>()
        };
        // Enabling ticks must not change the event schedule at all.
        assert_eq!(run(false), run(true));
    }
}
