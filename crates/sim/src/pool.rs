//! Ordered parallel map for campaign-level parallelism.
//!
//! The DES engine itself is single-threaded by design (determinism is a
//! hard requirement — see the crate docs); the unit of parallelism is one
//! *whole simulation*, e.g. one campaign cell of `omx-bench faults` or
//! `omx-bench scale`. Those cells are embarrassingly parallel: each owns
//! its cluster, its seed, and its telemetry buffers, and never touches
//! shared state until its result is committed. This module runs them
//! concurrently:
//!
//! * [`map`] — apply `f` to every input inside one `std::thread::scope`
//!   and return the outputs **in input order**. Threads pull the next
//!   cell from one shared iterator, so work moves to whichever thread is
//!   free (cell durations vary by an order of magnitude across a sweep).
//!   Outputs are committed in input-index order, so the result is
//!   byte-for-byte the one a serial loop would produce. This is the
//!   determinism contract every `omx-bench` report relies on:
//!   **parallelism may reorder execution, never observable output.**
//! * [`set_jobs`] / [`effective_jobs`] / [`with_jobs`] — the worker-count
//!   policy: the CLI `--jobs N` (else `available_parallelism`), and a
//!   thread-local override the determinism tests use to compare jobs
//!   values in one process.
//!
//! `std`-only, like the rest of the workspace: no rayon, no crossbeam.

use std::cell::Cell;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Ordered parallel map: apply `f` to every input on [`effective_jobs`]
/// threads (the caller included) and return the outputs in input order.
///
/// At one job nothing is spawned and the same loop runs on the caller.
/// A panicking cell does not stop the others: every cell runs, then the
/// panic of the **lowest-index** failing cell is re-raised on the caller,
/// so which failure surfaces never depends on thread timing.
pub fn map<I, O, F>(inputs: Vec<I>, f: F) -> Vec<O>
where
    I: Send,
    O: Send,
    F: Fn(I) -> O + Sync,
{
    let jobs = effective_jobs().min(inputs.len());
    let queue = Mutex::new(inputs.into_iter().enumerate());
    // Captures only shared references, so the closure is `Copy` and
    // every thread gets its own.
    let work = || {
        let mut done = Vec::new();
        loop {
            let next = queue.lock().expect("queue lock").next();
            let Some((i, input)) = next else { break done };
            done.push((i, catch_unwind(AssertUnwindSafe(|| f(input)))));
        }
    };
    let mut done = std::thread::scope(|s| {
        let helpers: Vec<_> = (1..jobs).map(|_| s.spawn(work)).collect();
        let mut done = work();
        for helper in helpers {
            done.extend(helper.join().expect("cells never unwind a helper"));
        }
        done
    });
    // Commit in input order; the first `Err` is the lowest-index panic.
    done.sort_unstable_by_key(|&(i, _)| i);
    done.into_iter()
        .map(|(_, result)| result.unwrap_or_else(|payload| resume_unwind(payload)))
        .collect()
}

/// Worker count pinned by [`set_jobs`] (0 = unset → `available_parallelism`).
static SET_JOBS: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    /// Thread-local jobs override installed by [`with_jobs`].
    static JOBS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Pin the process-wide worker count (the CLI `--jobs N` flag). `0`
/// resets to auto-detection.
pub fn set_jobs(n: usize) {
    SET_JOBS.store(n, Ordering::SeqCst);
}

/// The worker count [`map`] uses on this thread: the innermost
/// [`with_jobs`] override, else [`set_jobs`], else
/// `std::thread::available_parallelism` (1 if unknown). A value of 1 means
/// the serial path — every cell runs on the calling thread.
pub fn effective_jobs() -> usize {
    JOBS_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(|| match SET_JOBS.load(Ordering::SeqCst) {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            pinned => pinned,
        })
}

/// Run `f` with [`effective_jobs`] forced to `n` (clamped to at least 1)
/// on this thread, restored on exit, panic included. `with_jobs(1, …)`
/// forces the serial path — the determinism tests check parallel output
/// against it this way.
pub fn with_jobs<R>(n: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(Option<usize>);
    impl Drop for Restore {
        fn drop(&mut self) {
            JOBS_OVERRIDE.with(|o| o.set(self.0));
        }
    }
    let _restore = Restore(JOBS_OVERRIDE.with(|o| o.replace(Some(n.max(1)))));
    f()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use std::sync::atomic::{AtomicBool, AtomicU64};

    /// The message of a formatted (`String`-payload) panic.
    fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
        *payload
            .downcast::<String>()
            .expect("formatted panic message")
    }

    #[test]
    fn map_commits_in_input_order() {
        // Uneven task durations: late inputs finish first, commit order
        // must still be input order.
        let out = with_jobs(4, || {
            map((0..64u64).collect(), |i| {
                if i % 7 == 0 {
                    std::thread::sleep(std::time::Duration::from_micros(200));
                }
                i * 3
            })
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_equals_serial_map_bytewise() {
        let serial: Vec<String> = (0..40).map(|i| format!("cell-{i:03}")).collect();
        let parallel = with_jobs(3, || {
            map((0..40).collect(), |i: i32| format!("cell-{i:03}"))
        });
        assert_eq!(serial, parallel);
    }

    /// Ordered map equals the serial model for randomized input sizes and
    /// task durations at every jobs value — the determinism contract
    /// (execution may reorder, output never does).
    #[test]
    fn map_matches_serial_model_under_random_loads() {
        for jobs in [1, 2, 3, 8] {
            let mut rng = SimRng::new(0x9001_0002);
            for _case in 0..32 {
                let n = rng.range_u64(0, 120) as usize;
                let inputs: Vec<u64> = (0..n).map(|_| rng.range_u64(0, 1_000_000)).collect();
                let model: Vec<String> =
                    inputs.iter().map(|x| format!("{:x}", x * 7 + 1)).collect();
                let out = with_jobs(jobs, || {
                    map(inputs, |x| {
                        if x % 17 == 0 {
                            std::thread::yield_now();
                        }
                        format!("{:x}", x * 7 + 1)
                    })
                });
                assert_eq!(out, model, "jobs {jobs}");
            }
        }
    }

    /// Cells may borrow from the caller's frame: `map` joins its thread
    /// scope before returning.
    #[test]
    fn scope_tasks_borrow_the_environment() {
        let data = [1u64, 2, 3, 4];
        let sum = AtomicU64::new(0);
        with_jobs(2, || {
            map(data.chunks(2).collect(), |chunk| {
                sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
            })
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    /// Several threads calling `map` at once (as parallel tests do) lose
    /// no cell and run none twice.
    #[test]
    fn no_task_lost_under_contention() {
        let mut rng = SimRng::new(0x9001_0001);
        for case in 0..8 {
            let jobs = 1 + (case % 4);
            let callers = 1 + (case % 3);
            let per_caller = rng.range_u64(50, 400);
            let ran = AtomicU64::new(0);
            std::thread::scope(|s| {
                for _ in 0..callers {
                    s.spawn(|| {
                        with_jobs(jobs, || {
                            map((0..per_caller).collect(), |i| {
                                if i % 13 == 0 {
                                    std::thread::yield_now();
                                }
                                ran.fetch_add(1, Ordering::Relaxed);
                            })
                        })
                    });
                }
            });
            assert_eq!(
                ran.load(Ordering::Relaxed),
                callers as u64 * per_caller,
                "case {case}: every cell runs exactly once"
            );
        }
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_jobs(2, || {
                map(vec![0u32, 1], |i| assert!(i != 1, "cell {i} exploded"))
            })
        }));
        let payload = caught.expect_err("panic must cross back to the caller");
        assert_eq!(panic_message(payload), "cell 1 exploded");
        // Nothing is left poisoned: the next map works.
        assert_eq!(with_jobs(2, || map(vec![21u32], |x| x * 2)), vec![42]);
    }

    #[test]
    fn map_panic_propagates_and_names_the_cell() {
        let ran = AtomicU64::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_jobs(4, || {
                map((0..16u32).collect(), |i| {
                    assert!(i != 11, "bad cell {i}");
                    ran.fetch_add(1, Ordering::Relaxed);
                    i
                })
            })
        }));
        let msg = panic_message(caught.expect_err("assert inside map must propagate"));
        assert!(msg.contains("bad cell 11"), "got: {msg}");
        assert_eq!(ran.load(Ordering::Relaxed), 15, "every other cell ran");

        // Two failing cells: the lower index is re-raised even when it
        // fails last. With helpers, cell 3 waits until cell 11 has failed.
        for jobs in [1, 2, 4] {
            let eleven_failed = AtomicBool::new(false);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                with_jobs(jobs, || {
                    map((0..16u32).collect(), |i| {
                        if i == 3 && jobs > 1 {
                            while !eleven_failed.load(Ordering::SeqCst) {
                                std::thread::yield_now();
                            }
                        }
                        if i == 11 {
                            eleven_failed.store(true, Ordering::SeqCst);
                        }
                        assert!(i != 3 && i != 11, "bad cell {i}");
                    })
                })
            }));
            let msg = panic_message(caught.expect_err("both cells fail"));
            assert!(msg.contains("bad cell 3"), "jobs {jobs}, got: {msg}");
        }
    }

    /// A panicking cell re-raises only after every sibling cell has
    /// finished, and leaves nothing poisoned for the next map.
    #[test]
    fn worker_panic_propagates_after_siblings_finish() {
        let finished = AtomicUsize::new(0);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_jobs(3, || {
                map((0..24u32).collect(), |i| {
                    if i == 5 {
                        panic!("worker task {i} failed");
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                })
            })
        }));
        assert!(caught.is_err(), "panic must reach the submitter");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            23,
            "map joins every sibling before re-raising"
        );
        assert_eq!(
            with_jobs(3, || map(vec![1u32, 2, 3], |x| x + 1)),
            vec![2, 3, 4]
        );
    }

    #[test]
    fn one_job_runs_every_cell_on_the_caller() {
        let caller = std::thread::current().id();
        // Cells sleep so a stray helper thread would get some of them.
        let ids = with_jobs(1, || {
            map((0..16).collect(), |_: i32| {
                std::thread::sleep(std::time::Duration::from_millis(1));
                std::thread::current().id()
            })
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    fn jobs_policy_resolution_order() {
        // Thread-local override wins over everything and restores on exit.
        let before = effective_jobs();
        assert!(before >= 1);
        let inside = with_jobs(3, effective_jobs);
        assert_eq!(inside, 3);
        assert_eq!(effective_jobs(), before);
        // Overrides nest and clamp to 1.
        let nested = with_jobs(5, || with_jobs(0, effective_jobs));
        assert_eq!(nested, 1);
    }

    /// `with_jobs` scopes the effective value to the closure, and the
    /// restore unwinds with the stack.
    #[test]
    fn with_jobs_restores_on_panic() {
        let baseline = effective_jobs();
        let caught = catch_unwind(AssertUnwindSafe(|| {
            with_jobs(7, || {
                assert_eq!(effective_jobs(), 7);
                panic!("inside override");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(
            effective_jobs(),
            baseline,
            "override must unwind with the stack"
        );
    }
}
