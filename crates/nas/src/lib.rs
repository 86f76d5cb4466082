//! # omx-nas — NAS Parallel Benchmark communication skeletons
//!
//! The paper's application evaluation (Tables IV and V) runs the NPB 2.x
//! MPI benchmarks — BT, CG, EP, FT, IS, LU, MG, SP — with 16 ranks on two
//! 8-core nodes. We reproduce them as *communication skeletons*: each
//! benchmark contributes its documented per-iteration communication pattern
//! (operation types, message sizes, partners, iteration counts derived from
//! the NPB specifications) plus a compute phase calibrated so that the run
//! time under the **default coalescing strategy** lands near the paper's
//! Table IV baseline. The *differences* between strategies then emerge from
//! the simulated stack rather than being dialled in.
//!
//! Approximations are documented per benchmark in [`workloads`]; `ft.C` is
//! reported as out-of-memory exactly as in the paper.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod workloads;

pub use workloads::{nas_program, NasBenchmark, NasClass, NasSpec};

use omx_core::system::ClusterConfig;
use omx_mpi::{MpiRunReport, MpiWorld, WorldSpec};

/// Run one NAS benchmark on the paper's 16-rank / 2-node world with the
/// given cluster configuration. Returns `None` for combinations the paper
/// could not run (`ft.C`: not enough memory).
pub fn run_nas(spec: NasSpec, cfg: ClusterConfig) -> Option<MpiRunReport> {
    if !spec.is_runnable() {
        return None;
    }
    let world = WorldSpec::paper_16x2();
    Some(MpiWorld::new(world, cfg).run(|rank| nas_program(spec, rank, world.ranks)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ft_class_c_is_out_of_memory_like_the_paper() {
        let spec = NasSpec {
            benchmark: NasBenchmark::Ft,
            class: NasClass::C,
        };
        assert!(!spec.is_runnable());
        assert!(run_nas(spec, ClusterConfig::default()).is_none());
    }

    #[test]
    fn mini_is_runs_end_to_end() {
        let spec = NasSpec {
            benchmark: NasBenchmark::Is,
            class: NasClass::Mini,
        };
        let report = run_nas(spec, ClusterConfig::default()).expect("runnable");
        assert_eq!(report.per_rank_finish_ns.len(), 16);
        assert!(
            report.metrics.frames_carried > 0,
            "IS moves data on the wire"
        );
    }

    #[test]
    fn mini_all_benchmarks_complete() {
        for benchmark in NasBenchmark::ALL {
            let spec = NasSpec {
                benchmark,
                class: NasClass::Mini,
            };
            let report = run_nas(spec, ClusterConfig::default())
                .unwrap_or_else(|| panic!("{benchmark:?} mini must run"));
            assert!(
                report.elapsed_ns > 0,
                "{benchmark:?} produced no elapsed time"
            );
        }
    }
}
