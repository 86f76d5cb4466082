//! Minimal wall-clock micro-benchmark timer behind `omx-bench perf`.
//!
//! It runs a warmup pass, then a fixed number of timed iterations, and
//! reports mean / min per-iteration wall time. Numbers are indicative, not
//! statistically rigorous — good enough to spot an order-of-magnitude
//! regression in the simulator hot paths.

use std::hint::black_box;
use std::time::Instant;

/// Per-benchmark wall-clock statistics, in nanoseconds per iteration.
#[derive(Debug, Clone, Copy)]
pub struct BenchStats {
    /// Mean wall time per timed iteration.
    pub mean_ns: u64,
    /// Minimum wall time over the timed iterations (least-noise estimate).
    pub min_ns: u64,
    /// Number of timed iterations.
    pub iters: u32,
}

/// Run `f` `iters` times (after `warmup` untimed runs) and return per-call
/// mean and min wall time.
pub fn measure<T>(warmup: u32, iters: u32, mut f: impl FnMut() -> T) -> BenchStats {
    assert!(iters > 0, "need at least one timed iteration");
    for _ in 0..warmup {
        black_box(f());
    }
    let mut total_ns: u128 = 0;
    let mut min_ns: u128 = u128::MAX;
    for _ in 0..iters {
        let t0 = Instant::now();
        black_box(f());
        let dt = t0.elapsed().as_nanos();
        total_ns += dt;
        min_ns = min_ns.min(dt);
    }
    BenchStats {
        mean_ns: (total_ns / iters as u128) as u64,
        min_ns: min_ns as u64,
        iters,
    }
}
