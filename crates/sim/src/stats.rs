//! Measurement primitives used across the reproduction harness.
//!
//! * [`Counter`] — monotonically increasing event counts (interrupts raised,
//!   packets received, cache bounces, …),
//! * [`OnlineStats`] — streaming mean/variance/min/max (Welford),
//! * [`Histogram`] — log-bucketed latency histogram with quantile queries,
//! * [`TimeWeighted`] — time-weighted average of a piecewise-constant gauge
//!   (e.g. pending-DMA depth, core sleep occupancy).

use crate::time::Time;

/// A monotonically increasing event counter.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct Counter(u64);

impl Counter {
    /// New zeroed counter.
    pub const fn new() -> Self {
        Counter(0)
    }

    /// Add one.
    #[inline]
    pub fn incr(&mut self) {
        self.0 += 1;
    }

    /// Add `n`.
    #[inline]
    pub fn add(&mut self, n: u64) {
        self.0 += n;
    }

    /// Current value.
    #[inline]
    pub const fn get(self) -> u64 {
        self.0
    }
}

/// Streaming mean / variance / extremes (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// New empty accumulator.
    pub fn new() -> Self {
        OnlineStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (unbiased; 0 with fewer than two samples).
    #[cfg(test)]
    fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest sample (`None` when empty).
    pub fn min(&self) -> Option<f64> {
        (self.n > 0).then_some(self.min)
    }

    /// Largest sample (`None` when empty).
    pub fn max(&self) -> Option<f64> {
        (self.n > 0).then_some(self.max)
    }

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        let mean = self.mean + d * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Log-bucketed histogram of nanosecond values with quantile queries.
///
/// Buckets grow geometrically — 32 per decade (ratio `10^(1/32)`, ~7.5 %
/// relative width) from 1 ns to ~10 minutes — giving bucket-midpoint
/// quantile error below ~12 % worst case (usually ≲ 4 %), plenty for
/// latency distributions, with a fixed 384-slot footprint. Zero values sit
/// outside the log grid entirely: they are counted exactly in a dedicated
/// `zeros` slot so that quantiles of all-zero (or zero-heavy) series report
/// 0 rather than the first bucket's nonzero midpoint.
#[derive(Debug, Clone)]
pub struct Histogram {
    buckets: Vec<u64>,
    /// Values recorded as exactly 0 ns (held out of the log buckets).
    zeros: u64,
    count: u64,
    sum: f64,
    overflow: u64,
}

const BUCKETS_PER_DECADE: usize = 32;
const DECADES: usize = 12; // 1 ns .. 10^12 ns (~17 min)
const NUM_BUCKETS: usize = BUCKETS_PER_DECADE * DECADES;

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// New empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: vec![0; NUM_BUCKETS],
            zeros: 0,
            count: 0,
            sum: 0.0,
            overflow: 0,
        }
    }

    /// Bucket for a *positive* value (zeros never reach the log grid).
    fn bucket_index(value_ns: u64) -> usize {
        if value_ns <= 1 {
            return 0;
        }
        let idx = ((value_ns as f64).log10() * BUCKETS_PER_DECADE as f64) as usize;
        idx.min(NUM_BUCKETS - 1)
    }

    fn bucket_value(idx: usize) -> u64 {
        10f64.powf((idx as f64 + 0.5) / BUCKETS_PER_DECADE as f64) as u64
    }

    /// Record one nanosecond value.
    ///
    /// `0` is held out of the log buckets — `(0f64).log10()` is `-inf` and
    /// would land in bucket 0 only by cast saturation, making quantiles of
    /// all-zero series report bucket 0's nonzero midpoint — and is instead
    /// counted exactly so [`Histogram::quantile`] can return `Some(0)`.
    pub fn record(&mut self, value_ns: u64) {
        if value_ns == 0 {
            self.zeros += 1;
        } else {
            let idx = Self::bucket_index(value_ns);
            if idx >= NUM_BUCKETS {
                self.overflow += 1;
            } else {
                self.buckets[idx] += 1;
            }
        }
        self.count += 1;
        self.sum += value_ns as f64;
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of recorded values in nanoseconds.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Rank of the `q`-quantile sample (`None` when empty).
    fn quantile_target(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        Some((q.clamp(0.0, 1.0) * (self.count - 1) as f64) as u64)
    }

    /// Index of the bucket holding the rank-`q` sample. `None` when empty
    /// *or* when the sample is one of the recorded zeros, which live in no
    /// bucket.
    fn quantile_bucket(&self, q: f64) -> Option<usize> {
        let target = self.quantile_target(q)?;
        if target < self.zeros {
            return None;
        }
        let mut seen = self.zeros;
        for (idx, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen > target {
                return Some(idx);
            }
        }
        Some(NUM_BUCKETS - 1)
    }

    /// Approximate quantile (`q` in `[0, 1]`) in nanoseconds. Exactly 0
    /// when the rank-`q` sample was recorded as 0.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        let target = self.quantile_target(q)?;
        if target < self.zeros {
            return Some(0);
        }
        self.quantile_bucket(q).map(Self::bucket_value)
    }

    /// Median shortcut.
    pub fn median(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// p50 shortcut (alias for [`Histogram::median`]).
    pub fn p50(&self) -> Option<u64> {
        self.quantile(0.5)
    }

    /// p99 shortcut.
    pub fn p99(&self) -> Option<u64> {
        self.quantile(0.99)
    }

    /// p999 shortcut.
    pub fn p999(&self) -> Option<u64> {
        self.quantile(0.999)
    }

    /// Sum of recorded values in nanoseconds.
    ///
    /// Exact (accumulated from the raw values, not reconstructed from bucket
    /// midpoints), which makes `sum` deltas usable for windowed rate
    /// sampling.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *a += b;
        }
        self.zeros += other.zeros;
        self.count += other.count;
        self.sum += other.sum;
        self.overflow += other.overflow;
    }
}

/// Time-weighted average of a piecewise-constant gauge.
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    last_time: Time,
    last_value: f64,
    weighted_sum: f64,
    total_time: f64,
    peak: f64,
}

impl TimeWeighted {
    /// New gauge starting at `value` at time `start`.
    pub fn new(start: Time, value: f64) -> Self {
        TimeWeighted {
            last_time: start,
            last_value: value,
            weighted_sum: 0.0,
            total_time: 0.0,
            peak: value,
        }
    }

    /// Record that the gauge changed to `value` at time `now`.
    pub fn set(&mut self, now: Time, value: f64) {
        let dt = now.saturating_since(self.last_time).as_nanos() as f64;
        self.weighted_sum += self.last_value * dt;
        self.total_time += dt;
        self.last_time = now;
        self.last_value = value;
        self.peak = self.peak.max(value);
    }

    /// Current gauge value.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// Largest value ever set.
    pub fn peak(&self) -> f64 {
        self.peak
    }

    /// Copy of this gauge with the tail up to `now` folded into the
    /// weighted sum.
    ///
    /// A gauge only accumulates weight when [`TimeWeighted::set`] is called,
    /// so a run that goes quiescent (e.g. drains to `QueueEmpty` long after
    /// the last DMA completed) under-weights the final value unless the
    /// harvest path finalizes it at drain time. The returned gauge has
    /// `last_time == now` and an unchanged current value, so finalizing is
    /// idempotent.
    pub fn finalized(&self, now: Time) -> TimeWeighted {
        let mut g = self.clone();
        g.set(now, g.last_value);
        g
    }

    /// Time-weighted mean up to `now`.
    pub fn mean_at(&self, now: Time) -> f64 {
        let dt = now.saturating_since(self.last_time).as_nanos() as f64;
        let total = self.total_time + dt;
        if total == 0.0 {
            self.last_value
        } else {
            (self.weighted_sum + self.last_value * dt) / total
        }
    }
}

// ---------------------------------------------------------------------------
// JSON conversions (replacing the former derive-based serialisation)
// ---------------------------------------------------------------------------

use crate::json::{Json, ToJson};

impl ToJson for Counter {
    fn to_json(&self) -> Json {
        Json::U64(self.0)
    }
}

crate::impl_to_json!(OnlineStats {
    n,
    mean,
    m2,
    min,
    max
});

impl ToJson for Histogram {
    fn to_json(&self) -> Json {
        // Sparse bucket encoding: only non-empty slots as [index, count].
        let buckets: Vec<(u64, u64)> = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| (i as u64, c))
            .collect();
        let mut fields = vec![
            ("count", Json::U64(self.count)),
            ("sum", Json::F64(self.sum)),
            ("overflow", Json::U64(self.overflow)),
            ("buckets", buckets.to_json()),
        ];
        // Emitted only when present, like the sparse buckets: histograms
        // that never saw a zero serialise exactly as before the zero-slot
        // fix, keeping historical artifacts comparable.
        if self.zeros > 0 {
            fields.insert(1, ("zeros", Json::U64(self.zeros)));
        }
        Json::obj(fields)
    }
}

impl ToJson for TimeWeighted {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("last_time_ns", Json::U64(self.last_time.as_nanos())),
            ("last_value", Json::F64(self.last_value)),
            ("weighted_sum", Json::F64(self.weighted_sum)),
            ("total_time", Json::F64(self.total_time)),
            ("peak", Json::F64(self.peak)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let mut c = Counter::new();
        c.incr();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn online_stats_mean_var() {
        let mut s = OnlineStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // Population variance of this classic set is 4 => sample variance 32/7.
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), Some(2.0));
        assert_eq!(s.max(), Some(9.0));
    }

    #[test]
    fn online_stats_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i * i % 37) as f64).collect();
        let mut whole = OnlineStats::new();
        for &x in &xs {
            whole.record(x);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &x in &xs[..41] {
            left.record(x);
        }
        for &x in &xs[41..] {
            right.record(x);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn empty_stats_are_sane() {
        let s = OnlineStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn histogram_quantiles_are_close() {
        let mut h = Histogram::new();
        for v in 1..=10_000u64 {
            h.record(v);
        }
        let med = h.median().unwrap() as f64;
        assert!(
            (med - 5_000.0).abs() / 5_000.0 < 0.08,
            "median {med} too far from 5000"
        );
        let p99 = h.quantile(0.99).unwrap() as f64;
        assert!((p99 - 9_900.0).abs() / 9_900.0 < 0.08, "p99 {p99}");
        assert!((h.mean() - 5_000.5).abs() < 1.0);
    }

    /// Property test: for random inputs, every streamed quantile must land
    /// within one log-bucket of the exact sorted-vector quantile. The
    /// histogram only remembers bucket counts, so the strongest guarantee it
    /// can make is bucket-level agreement — this pins that guarantee across
    /// seeds, sizes, and heavy-tailed value ranges.
    #[test]
    fn histogram_quantiles_within_one_bucket_of_exact() {
        use crate::rng::SimRng;

        for seed in 0..20u64 {
            let mut rng = SimRng::new(0x5747_5000 + seed);
            let n = 1 + (rng.next_u64() % 5_000) as usize;
            // Mix of scales: uniform small, uniform large, and log-uniform
            // heavy tail, chosen per seed.
            let values: Vec<u64> = (0..n)
                .map(|_| match seed % 3 {
                    0 => 1 + rng.next_u64() % 1_000,
                    1 => 1 + rng.next_u64() % 100_000_000,
                    _ => {
                        let exp = rng.next_u64() % 10;
                        1 + rng.next_u64() % 10u64.pow(exp as u32 + 1)
                    }
                })
                .collect();

            let mut h = Histogram::new();
            for &v in &values {
                h.record(v);
            }
            let mut sorted = values.clone();
            sorted.sort_unstable();

            for q in [0.0, 0.1, 0.5, 0.9, 0.99, 0.999, 1.0] {
                let exact = sorted[((q * (n - 1) as f64) as usize).min(n - 1)];
                let eb = Histogram::bucket_index(exact) as i64;
                let ab = h.quantile_bucket(q).unwrap() as i64;
                assert!(
                    (eb - ab).abs() <= 1,
                    "seed {seed} q={q}: histogram picked bucket {ab} but \
                     exact quantile {exact} lives in bucket {eb}"
                );
                // Pin the documented error bound of the 32-buckets-per-decade
                // log grid: being off by at most one bucket from the exact
                // sample's bucket, the reported midpoint is within
                // 10^(1.5/32) - 1 ≈ 11.4 % of the exact value. Integer
                // truncation distorts tiny values, so pin it for exact ≥ 10.
                let approx = h.quantile(q).unwrap();
                if exact >= 10 {
                    let rel = (approx as f64 - exact as f64).abs() / exact as f64;
                    assert!(
                        rel <= 0.12,
                        "seed {seed} q={q}: quantile {approx} is {:.1} % off \
                         exact {exact}, above the documented ~12 % bound",
                        rel * 100.0
                    );
                }
            }
        }
    }

    #[test]
    fn histogram_quantile_shortcuts_and_sum() {
        let mut h = Histogram::new();
        for v in 1..=1_000u64 {
            h.record(v);
        }
        assert_eq!(h.p50(), h.quantile(0.5));
        assert_eq!(h.p99(), h.quantile(0.99));
        assert_eq!(h.p999(), h.quantile(0.999));
        assert!((h.sum() - 500_500.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_all_zero_series_reports_zero_quantiles() {
        // Regression: record(0) used to land in bucket 0 by cast
        // saturation, so an all-zero series reported bucket 0's nonzero
        // midpoint (1 ns) for every quantile.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record(0);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 0.0);
        assert_eq!(h.mean(), 0.0);
        for q in [0.0, 0.5, 0.99, 1.0] {
            assert_eq!(h.quantile(q), Some(0), "q={q} of an all-zero series");
        }
    }

    #[test]
    fn histogram_mixed_zero_series_splits_quantiles_at_the_zero_mass() {
        // 60 zeros + 40 copies of 1000 ns: ranks 0..=59 are zero, so the
        // median is 0 while upper quantiles see the real values.
        let mut h = Histogram::new();
        for _ in 0..60 {
            h.record(0);
        }
        for _ in 0..40 {
            h.record(1_000);
        }
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile(0.0), Some(0));
        assert_eq!(h.quantile(0.5), Some(0));
        let p99 = h.quantile(0.99).unwrap();
        assert!(
            (900..=1100).contains(&p99),
            "p99 of the nonzero mass should be ~1000 ns, got {p99}"
        );
        // Merging carries the zero slot along.
        let mut other = Histogram::new();
        other.record(0);
        other.merge(&h);
        assert_eq!(other.count(), 101);
        assert_eq!(other.quantile(0.5), Some(0));
        // And the JSON carries it (the `zeros` field is only emitted when
        // nonzero, so zero-free artifacts are unchanged).
        let json = other.to_json();
        assert_eq!(json.get("zeros"), Some(&Json::U64(61)));
        assert_eq!(json.get("count"), Some(&Json::U64(101)));
        let zero_free = Histogram::new().to_json();
        assert!(zero_free.get("zeros").is_none());
    }

    #[test]
    fn histogram_empty_and_merge() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.mean(), 0.0);

        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for v in [10u64, 20, 30] {
            a.record(v);
        }
        for v in [40u64, 50] {
            b.record(v);
        }
        a.merge(&b);
        assert_eq!(a.count(), 5);
        assert!((a.mean() - 30.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean() {
        let mut g = TimeWeighted::new(Time::ZERO, 0.0);
        g.set(Time::from_nanos(100), 10.0); // value 0 for 100 ns
        g.set(Time::from_nanos(300), 0.0); // value 10 for 200 ns
                                           // At t=400: value 0 for another 100 ns. Mean = (0*100+10*200+0*100)/400 = 5.
        assert!((g.mean_at(Time::from_nanos(400)) - 5.0).abs() < 1e-12);
        assert_eq!(g.peak(), 10.0);
        assert_eq!(g.current(), 0.0);
    }

    #[test]
    fn time_weighted_finalized_weights_quiescent_tail() {
        let mut g = TimeWeighted::new(Time::ZERO, 0.0);
        g.set(Time::from_nanos(100), 10.0);
        g.set(Time::from_nanos(200), 0.0); // last event: drops back to 0
                                           // Run drains 800 ns later; without finalizing, the tail is invisible
                                           // to consumers that read the serialized weighted_sum/total_time.
        let f = g.finalized(Time::from_nanos(1_000));
        assert!((f.mean_at(Time::from_nanos(1_000)) - 1.0).abs() < 1e-12);
        assert_eq!(f.current(), 0.0);
        // Idempotent: finalizing again at the same instant changes nothing.
        let f2 = f.finalized(Time::from_nanos(1_000));
        assert_eq!(
            f2.to_json().render(),
            f.to_json().render(),
            "finalize must be idempotent"
        );
    }

    #[test]
    fn time_weighted_no_elapsed_time() {
        let g = TimeWeighted::new(Time::from_nanos(5), 3.0);
        assert_eq!(g.mean_at(Time::from_nanos(5)), 3.0);
    }

    #[test]
    fn stats_json_roundtrip() {
        // Every stats type renders JSON that parses back to the same value.
        let roundtrips = |j: Json| assert_eq!(Json::parse(&j.render()), Ok(j));
        let mut c = Counter::new();
        c.add(7);
        assert_eq!(c.to_json(), Json::U64(7));
        roundtrips(c.to_json());

        let mut s = OnlineStats::new();
        for x in [1.0, 2.0, 4.0] {
            s.record(x);
        }
        assert_eq!(s.to_json().get("n"), Some(&Json::U64(3)));
        roundtrips(s.to_json());

        let mut h = Histogram::new();
        for v in [10u64, 20, 20, 5_000] {
            h.record(v);
        }
        assert_eq!(h.to_json().get("count"), Some(&Json::U64(4)));
        roundtrips(h.to_json());

        let mut g = TimeWeighted::new(Time::ZERO, 1.0);
        g.set(Time::from_nanos(50), 3.0);
        assert_eq!(g.to_json().get("peak"), Some(&Json::F64(3.0)));
        roundtrips(g.to_json());
    }
}
