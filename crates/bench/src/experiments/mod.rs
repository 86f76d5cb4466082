//! All paper experiments.

pub mod adaptive;
pub mod coexistence;
pub mod faults;
pub mod fig4;
pub mod jumbo;
pub mod multiqueue;
pub mod nas;
pub mod offload;
pub mod overhead;
pub mod pingpong;
pub mod scale;
pub mod sensitivity;
pub mod table1;
pub mod table2;
pub mod table3;

use omx_core::prelude::*;

/// The four strategies of the paper's tables, in column order.
pub fn paper_strategies() -> Vec<(&'static str, CoalescingStrategy)> {
    vec![
        ("default", CoalescingStrategy::Timeout { delay_us: 75 }),
        ("disabled", CoalescingStrategy::Disabled),
        ("open-mx", CoalescingStrategy::OpenMx { delay_us: 75 }),
        ("stream", CoalescingStrategy::Stream { delay_us: 75 }),
    ]
}

/// All five implemented strategies: the paper's four columns plus the
/// §VI adaptive strategy (used by the fault campaign, which must cover
/// every recovery × coalescing interaction).
pub fn all_strategies() -> Vec<(&'static str, CoalescingStrategy)> {
    let mut s = paper_strategies();
    s.push((
        "adaptive",
        CoalescingStrategy::Adaptive {
            min_delay_us: 0,
            max_delay_us: 75,
        },
    ));
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let out = omx_sim::pool::map((0..50).collect(), |x: i32| x * 2);
        assert_eq!(out, (0..50).map(|x| x * 2).collect::<Vec<_>>());
    }

    /// The serial path (`--jobs 1`) and the pooled path commit the same
    /// output — the executor-level half of the campaign byte-identity
    /// contract (the campaign-level half lives in
    /// `tests/parallel_determinism.rs`).
    #[test]
    fn serial_and_pooled_paths_agree() {
        let serial = omx_sim::pool::with_jobs(1, || {
            omx_sim::pool::map((0..40).collect(), |x: i32| x * x - 3)
        });
        let pooled = omx_sim::pool::with_jobs(4, || {
            omx_sim::pool::map((0..40).collect(), |x: i32| x * x - 3)
        });
        assert_eq!(serial, pooled);
    }

    #[test]
    fn strategies_cover_the_paper_columns() {
        let s = paper_strategies();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].0, "default");
        assert_eq!(s[1].0, "disabled");
    }

    #[test]
    fn all_strategies_adds_adaptive() {
        let s = all_strategies();
        assert_eq!(s.len(), 5);
        assert_eq!(s[4].0, "adaptive");
    }
}
