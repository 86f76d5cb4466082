//! Simulated time.
//!
//! [`Time`] is an absolute instant measured in integer nanoseconds since the
//! start of the simulation; [`TimeDelta`] is a non-negative duration, also in
//! nanoseconds. Integer nanoseconds keep the simulation exactly associative
//! and platform-independent (no floating-point drift), while still being
//! fine enough to express sub-100 ns cache effects and coarse enough that a
//! u64 covers ~584 years of simulated time.

use core::fmt;
use core::ops::{Add, AddAssign, Sub};

/// An absolute simulated instant, in nanoseconds since simulation start.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A duration between two [`Time`] instants, in nanoseconds.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub u64);

impl Time {
    /// The simulation origin.
    pub const ZERO: Time = Time(0);
    /// The largest representable instant; used as an "infinitely far" timer.
    pub const MAX: Time = Time(u64::MAX);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        Time(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        Time(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        Time(ms * 1_000_000)
    }

    /// Construct from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Self {
        Time(s * 1_000_000_000)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// This instant expressed in (fractional) microseconds.
    #[inline]
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// This instant expressed in (fractional) milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// This instant expressed in (fractional) seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Elapsed time since `earlier`, saturating to zero if `earlier` is later.
    #[inline]
    pub fn saturating_since(self, earlier: Time) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }
}

impl TimeDelta {
    /// The zero duration.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Construct from nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Self {
        TimeDelta(ns)
    }

    /// Construct from microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Self {
        TimeDelta(us * 1_000)
    }

    /// Construct from milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Self {
        TimeDelta(ms * 1_000_000)
    }

    /// The raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// The duration in fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }
}

impl Add<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: TimeDelta) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: TimeDelta) {
        *self = *self + rhs;
    }
}

impl Sub<TimeDelta> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: TimeDelta) -> Time {
        Time(self.0 - rhs.0)
    }
}

impl Sub<Time> for Time {
    type Output = TimeDelta;
    #[inline]
    fn sub(self, rhs: Time) -> TimeDelta {
        TimeDelta(self.0 - rhs.0)
    }
}

impl Add for TimeDelta {
    type Output = TimeDelta;
    #[inline]
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

impl fmt::Debug for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}ns", self.0)
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(&Time(self.0), f)
    }
}

impl crate::json::ToJson for Time {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::U64(self.0)
    }
}

impl crate::json::ToJson for TimeDelta {
    fn to_json(&self) -> crate::json::Json {
        crate::json::Json::U64(self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_units_agree() {
        assert_eq!(Time::from_secs(1), Time::from_millis(1_000));
        assert_eq!(Time::from_millis(1), Time::from_micros(1_000));
        assert_eq!(Time::from_micros(1), Time::from_nanos(1_000));
        assert_eq!(TimeDelta::from_millis(2), TimeDelta::from_nanos(2_000_000));
    }

    #[test]
    fn add_sub_roundtrip() {
        let t = Time::from_micros(10);
        let d = TimeDelta::from_nanos(123);
        assert_eq!((t + d) - d, t);
        assert_eq!((t + d) - t, d);
    }

    #[test]
    fn saturating_ops_clamp() {
        assert_eq!(
            Time::from_nanos(5).saturating_since(Time::from_nanos(10)),
            TimeDelta::ZERO
        );
        assert_eq!(
            Time::from_nanos(10).saturating_since(Time::from_nanos(4)),
            TimeDelta::from_nanos(6)
        );
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(Time::from_nanos(12).to_string(), "12ns");
        assert_eq!(Time::from_micros(12).to_string(), "12.000us");
        assert_eq!(Time::from_millis(12).to_string(), "12.000ms");
        assert_eq!(Time::from_secs(12).to_string(), "12.000s");
        assert_eq!(TimeDelta::from_micros(3).to_string(), "3.000us");
    }

    #[test]
    fn conversion_accessors() {
        let t = Time::from_micros(1_500);
        assert!((t.as_millis_f64() - 1.5).abs() < 1e-12);
        assert!((t.as_secs_f64() - 0.0015).abs() < 1e-12);
        assert!((TimeDelta::from_micros(2).as_secs_f64() - 2e-6).abs() < 1e-15);
    }
}
