//! Dependency-free work-stealing thread pool for campaign-level parallelism.
//!
//! The DES engine itself is single-threaded by design (determinism is a
//! hard requirement — see the crate docs); the unit of parallelism is one
//! *whole simulation*, e.g. one campaign cell of `omx-bench faults` or
//! `omx-bench scale`. Those cells are embarrassingly parallel: each owns
//! its cluster, its seed, and its telemetry buffers, and never touches
//! shared state until its result is committed. This module provides the
//! substrate that runs them concurrently:
//!
//! * [`Pool`] — a fixed-size pool of `std::thread` workers. Each worker
//!   owns a deque (LIFO for its own tasks, FIFO for thieves); external
//!   submitters push into a shared injector queue; idle workers steal
//!   from the injector first and then from their siblings, and park on a
//!   condvar when the whole pool is dry (no spin-waiting between
//!   campaign phases).
//! * [`Pool::scope`] — structured parallelism over borrowed data, in the
//!   style of `std::thread::scope`: tasks spawned inside the scope may
//!   borrow from the enclosing frame, and the scope joins them all before
//!   returning. A panic in any task is captured and re-raised on the
//!   submitting thread, so a failing campaign cell fails the campaign
//!   exactly as it would serially.
//! * [`Pool::map`] — ordered fork-join map: results are committed into
//!   their input-index slot, so the output `Vec` is byte-for-byte the one
//!   a serial loop would produce regardless of execution interleaving.
//!   This is the determinism contract every `omx-bench` report relies on:
//!   **parallelism may reorder execution, never observable output.**
//! * [`set_jobs`] / [`configured_jobs`] / [`with_jobs`] / [`global`] —
//!   process-wide worker-count policy (CLI `--jobs` > `OMX_JOBS` env >
//!   `available_parallelism`), a thread-local override for forcing the
//!   serial path (the determinism tests compare it with the pooled path), and
//!   the lazily-built shared pool.
//!
//! The workspace is offline-by-design, so this is `std`-only — no rayon,
//! no crossbeam. Deques are mutex-protected `VecDeque`s: a campaign cell
//! runs for milliseconds, so queue-transfer cost is noise; what matters is
//! that idle workers *park* instead of burning a core, and that work moves
//! to whichever worker is free (cell durations vary by an order of
//! magnitude across a sweep, so static partitioning would leave cores idle
//! behind the slowest shard).

use std::cell::Cell;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// Parse a jobs value from an environment variable or CLI string: a
/// positive integer, surrounding whitespace tolerated. Returns `None` for
/// anything else (`"abc"`, `"0"`, `"-2"`, `""`).
pub fn parse_jobs_value(raw: &str) -> Option<usize> {
    match raw.trim().parse::<usize>() {
        Ok(n) if n > 0 => Some(n),
        _ => None,
    }
}

/// Read a positive-integer jobs setting from environment variable `name`.
/// A set-but-invalid value is rejected with a one-line stderr warning
/// (once per variable per process) naming the rejected value — silently
/// falling through to auto-detection hid `OMX_JOBS=abc` typos entirely.
fn jobs_env(name: &str, warned: &AtomicBool) -> Option<usize> {
    let raw = std::env::var(name).ok()?;
    let parsed = parse_jobs_value(&raw);
    if parsed.is_none() && !warned.swap(true, Ordering::Relaxed) {
        eprintln!("warning: ignoring invalid {name}={raw:?} (expected a positive integer)");
    }
    parsed
}

/// A type-erased unit of work. Every task is wrapped (by [`Scope::spawn`]
/// or [`Pool::spawn`]) in a `catch_unwind` shim before it is boxed, so a
/// worker thread never unwinds out of its loop.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// State shared between the pool handle and its workers.
struct Shared {
    /// FIFO queue for tasks submitted from outside the pool.
    injector: Mutex<VecDeque<Task>>,
    /// Per-worker deques: the owner pushes/pops at the back (LIFO keeps
    /// nested work hot in cache), thieves and the injector drain take the
    /// front (FIFO preserves rough submission order under stealing).
    worker_queues: Vec<Mutex<VecDeque<Task>>>,
    /// Wakeup epoch: bumped under the lock on every push and on shutdown,
    /// so a worker that re-checks the queues and then waits for the epoch
    /// to move can never miss a wakeup.
    sleep_epoch: Mutex<u64>,
    /// Parked workers wait here; [`Pool::scope`] joiners wait on
    /// [`ScopeState::done`] instead.
    wake: Condvar,
    /// Set once by `Drop`; workers drain every queue, then exit.
    shutdown: AtomicBool,
    /// Panics swallowed by detached [`Pool::spawn`] tasks (scoped tasks
    /// re-raise on the submitter instead; see [`Pool::detached_panics`]).
    detached_panics: AtomicUsize,
}

thread_local! {
    /// `(Arc::as_ptr of the owning pool's Shared, worker index)` for pool
    /// worker threads; lets `push` route nested spawns to the running
    /// worker's own deque and lets `scope` joiners help-run tasks instead
    /// of deadlocking when called from inside the pool.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn current_worker(shared: &Arc<Shared>) -> Option<usize> {
    WORKER.with(|w| match w.get() {
        Some((pool, idx)) if pool == Arc::as_ptr(shared) as usize => Some(idx),
        _ => None,
    })
}

/// Pop one runnable task, preferring (own deque back) → injector front →
/// steal a sibling's front. `me` is the calling worker's index, if any.
fn find_task(shared: &Shared, me: Option<usize>) -> Option<Task> {
    if let Some(i) = me {
        if let Some(t) = shared.worker_queues[i]
            .lock()
            .expect("queue lock")
            .pop_back()
        {
            return Some(t);
        }
    }
    if let Some(t) = shared.injector.lock().expect("injector lock").pop_front() {
        return Some(t);
    }
    let n = shared.worker_queues.len();
    let start = me.map_or(0, |i| i + 1);
    for k in 0..n {
        let j = (start + k) % n;
        if Some(j) == me {
            continue;
        }
        if let Some(t) = shared.worker_queues[j]
            .lock()
            .expect("queue lock")
            .pop_front()
        {
            return Some(t);
        }
    }
    None
}

fn worker_loop(shared: Arc<Shared>, index: usize) {
    WORKER.with(|w| w.set(Some((Arc::as_ptr(&shared) as usize, index))));
    loop {
        if let Some(task) = find_task(&shared, Some(index)) {
            task();
            continue;
        }
        // Park. Re-check the queues *under the epoch lock*: any push that
        // raced past the scan above bumped the epoch under this same lock,
        // so either the re-scan sees the task or `wait_while` returns
        // immediately on the moved epoch.
        let mut epoch = shared.sleep_epoch.lock().expect("sleep lock");
        if let Some(task) = find_task(&shared, Some(index)) {
            drop(epoch);
            task();
            continue;
        }
        if shared.shutdown.load(Ordering::Acquire) {
            // Queues verified empty above: graceful exit.
            return;
        }
        let seen = *epoch;
        epoch = shared
            .wake
            .wait_while(epoch, |e| {
                *e == seen && !shared.shutdown.load(Ordering::Acquire)
            })
            .expect("sleep lock");
        drop(epoch);
    }
}

/// Outstanding-task accounting for one [`Pool::scope`] invocation.
struct ScopeState {
    /// Tasks spawned and not yet finished.
    pending: Mutex<usize>,
    /// Signalled when `pending` reaches zero.
    done: Condvar,
    /// First panic payload raised by a task of this scope; re-raised on
    /// the submitting thread when the scope joins.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

/// Spawn handle passed to the closure of [`Pool::scope`]; tasks may borrow
/// anything that outlives `'env`.
pub struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    state: Arc<ScopeState>,
    /// Make `'env` invariant so a scope cannot be smuggled into a wider
    /// lifetime (same trick as `std::thread::Scope`).
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Queue `f` onto the pool. The task may borrow from the environment
    /// of the enclosing [`Pool::scope`] call; the scope joins all tasks
    /// before it returns, and re-raises the first task panic (if any) on
    /// the submitting thread.
    pub fn spawn<F: FnOnce() + Send + 'env>(&self, f: F) {
        *self.state.pending.lock().expect("pending lock") += 1;
        let state = Arc::clone(&self.state);
        let task: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            if let Err(payload) = catch_unwind(AssertUnwindSafe(f)) {
                state
                    .panic
                    .lock()
                    .expect("panic lock")
                    .get_or_insert(payload);
            }
            let mut pending = state.pending.lock().expect("pending lock");
            *pending -= 1;
            if *pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: the task runs before `Pool::scope` returns (the scope
        // unconditionally joins, even when the scope body panics), so every
        // `'env` borrow it carries is live for the task's whole execution.
        // The transmute only erases that lifetime; trait object layout is
        // unchanged.
        let task: Task = unsafe { std::mem::transmute(task) };
        self.pool.push(task);
    }
}

/// A fixed-size work-stealing thread pool. See the module docs for the
/// design; see [`global`] for the shared process-wide instance.
pub struct Pool {
    shared: Arc<Shared>,
    handles: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawn a pool with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            injector: Mutex::new(VecDeque::new()),
            worker_queues: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep_epoch: Mutex::new(0),
            wake: Condvar::new(),
            shutdown: AtomicBool::new(false),
            detached_panics: AtomicUsize::new(0),
        });
        let handles = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("omx-pool-{i}"))
                    .spawn(move || worker_loop(shared, i))
                    .expect("spawn pool worker")
            })
            .collect();
        Pool { shared, handles }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.shared.worker_queues.len()
    }

    /// Queue a task and wake a parked worker.
    fn push(&self, task: Task) {
        match current_worker(&self.shared) {
            Some(i) => self.shared.worker_queues[i]
                .lock()
                .expect("queue lock")
                .push_back(task),
            None => self
                .shared
                .injector
                .lock()
                .expect("injector lock")
                .push_back(task),
        }
        *self.shared.sleep_epoch.lock().expect("sleep lock") += 1;
        self.shared.wake.notify_one();
    }

    /// Fire-and-forget a `'static` task. A panic inside it is swallowed
    /// and counted (see [`Pool::detached_panics`]) rather than crossing
    /// threads — use [`Pool::scope`] when the submitter must observe
    /// failure. Tasks still queued when the pool is dropped are run to
    /// completion by the shutdown path: submission guarantees execution.
    pub fn spawn<F: FnOnce() + Send + 'static>(&self, f: F) {
        let shared = Arc::clone(&self.shared);
        self.push(Box::new(move || {
            if catch_unwind(AssertUnwindSafe(f)).is_err() {
                shared.detached_panics.fetch_add(1, Ordering::Relaxed);
            }
        }));
    }

    /// Panics swallowed by detached [`Pool::spawn`] tasks so far.
    pub fn detached_panics(&self) -> usize {
        self.shared.detached_panics.load(Ordering::Relaxed)
    }

    /// Structured parallelism over borrowed data: run `f` with a
    /// [`Scope`], join every task it spawned, then return `f`'s result.
    /// Panics — from the scope body or from any task — propagate to the
    /// caller (body panic first, then the first task panic).
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let scope = Scope {
            pool: self,
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                done: Condvar::new(),
                panic: Mutex::new(None),
            }),
            _env: std::marker::PhantomData,
        };
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        // Always join — the `'env` borrows inside queued tasks must not
        // outlive this frame, so the barrier holds even under panic.
        self.join_scope(&scope.state);
        match result {
            Err(payload) => resume_unwind(payload),
            Ok(r) => {
                if let Some(payload) = scope.state.panic.lock().expect("panic lock").take() {
                    resume_unwind(payload);
                }
                r
            }
        }
    }

    /// Wait until every task of `state` has finished. A worker thread of
    /// this pool helps execute queued tasks while it waits (nested scopes
    /// cannot deadlock); an external thread parks on the scope condvar.
    fn join_scope(&self, state: &ScopeState) {
        if let Some(me) = current_worker(&self.shared) {
            loop {
                if *state.pending.lock().expect("pending lock") == 0 {
                    return;
                }
                match find_task(&self.shared, Some(me)) {
                    Some(task) => task(),
                    None => std::thread::yield_now(),
                }
            }
        }
        let mut pending = state.pending.lock().expect("pending lock");
        while *pending != 0 {
            pending = state.done.wait(pending).expect("pending lock");
        }
    }

    /// Ordered fork-join map: apply `f` to every input on the pool and
    /// return the outputs **in input order**. Execution order is
    /// unspecified; commit order is the input index, so the result is
    /// identical to `inputs.into_iter().map(f).collect()` — the
    /// byte-identity contract campaign reports are built on. A panic in
    /// any invocation propagates after all other tasks finish.
    pub fn map<I, O, F>(&self, inputs: Vec<I>, f: F) -> Vec<O>
    where
        I: Send,
        O: Send,
        F: Fn(I) -> O + Sync,
    {
        let slots: Vec<Mutex<Option<O>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
        let f = &f;
        let slots_ref = &slots;
        self.scope(|s| {
            for (i, input) in inputs.into_iter().enumerate() {
                s.spawn(move || {
                    let out = f(input);
                    *slots_ref[i].lock().expect("slot lock") = Some(out);
                });
            }
        });
        slots
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("slot lock")
                    .expect("scope joined every task")
            })
            .collect()
    }
}

impl Drop for Pool {
    /// Graceful shutdown: every task already submitted still runs. Workers
    /// drain all queues before exiting; any straggler pushed during the
    /// race is executed here on the dropping thread.
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        *self.shared.sleep_epoch.lock().expect("sleep lock") += 1;
        self.shared.wake.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
        while let Some(task) = find_task(&self.shared, None) {
            task();
        }
    }
}

// ---------------------------------------------------------------------------
// Process-wide worker-count policy and the shared pool
// ---------------------------------------------------------------------------

/// Worker count pinned by [`set_jobs`] (0 = unset → fall through to the
/// `OMX_JOBS` environment variable, then `available_parallelism`).
static SET_JOBS: AtomicUsize = AtomicUsize::new(0);

static GLOBAL: OnceLock<Pool> = OnceLock::new();

thread_local! {
    /// Thread-local jobs override installed by [`with_jobs`].
    static JOBS_OVERRIDE: Cell<Option<usize>> = const { Cell::new(None) };
}

/// Pin the process-wide worker count (the CLI `--jobs N` flag). Takes
/// precedence over `OMX_JOBS` and auto-detection; call it before the first
/// [`global`] use — the shared pool is sized once, at first use, and a
/// later `set_jobs` only affects the serial/parallel routing decision of
/// [`effective_jobs`], not the existing pool's width. `0` resets to auto.
pub fn set_jobs(n: usize) {
    SET_JOBS.store(n, Ordering::SeqCst);
}

/// The process-wide jobs setting: [`set_jobs`] if set, else a positive
/// integer `OMX_JOBS` environment variable, else
/// `std::thread::available_parallelism` (1 if unknown).
pub fn configured_jobs() -> usize {
    let pinned = SET_JOBS.load(Ordering::SeqCst);
    if pinned > 0 {
        return pinned;
    }
    static WARNED: AtomicBool = AtomicBool::new(false);
    if let Some(n) = jobs_env("OMX_JOBS", &WARNED) {
        return n;
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The jobs value call sites should honour *right now*: the innermost
/// [`with_jobs`] override on this thread, else [`configured_jobs`]. A
/// value of 1 means "take the serial path" — run inline, no pool.
pub fn effective_jobs() -> usize {
    JOBS_OVERRIDE
        .with(|o| o.get())
        .unwrap_or_else(configured_jobs)
}

/// Run `f` with [`effective_jobs`] forced to `n` on this thread (restored
/// on exit, panic included). `with_jobs(1, …)` forces the serial path —
/// the determinism tests check pooled output against it this way. Values
/// above 1 route work to the shared [`global`] pool, whose width was fixed
/// at first use; the override does not resize it.
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

/// The shared process-wide pool, created on first use with
/// [`configured_jobs`] workers. Campaign executors route through it when
/// [`effective_jobs`] is above 1.
pub fn global() -> &'static Pool {
    GLOBAL.get_or_init(|| Pool::new(configured_jobs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn map_commits_in_input_order() {
        let pool = Pool::new(4);
        // Uneven task durations: late inputs finish first, commit order
        // must still be input order.
        let out = pool.map((0..64u64).collect(), |i| {
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_micros(200));
            }
            i * 3
        });
        assert_eq!(out, (0..64).map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn map_equals_serial_map_bytewise() {
        let pool = Pool::new(3);
        let serial: Vec<String> = (0..40).map(|i| format!("cell-{i:03}")).collect();
        let parallel = pool.map((0..40).collect(), |i: i32| format!("cell-{i:03}"));
        assert_eq!(serial, parallel);
    }

    #[test]
    fn scope_tasks_borrow_the_environment() {
        let pool = Pool::new(2);
        let data = [1u64, 2, 3, 4];
        let sum = AtomicU64::new(0);
        pool.scope(|s| {
            for chunk in data.chunks(2) {
                let sum = &sum;
                s.spawn(move || {
                    sum.fetch_add(chunk.iter().sum::<u64>(), Ordering::Relaxed);
                });
            }
        });
        assert_eq!(sum.load(Ordering::Relaxed), 10);
    }

    #[test]
    fn task_panic_propagates_to_submitter() {
        let pool = Pool::new(2);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("cell exploded"));
                s.spawn(|| ()); // sibling task still joins
            });
        }));
        let payload = caught.expect_err("panic must cross back to the submitter");
        let msg = payload.downcast_ref::<&str>().copied().unwrap_or_default();
        assert_eq!(msg, "cell exploded");
        // The pool survives the propagated panic and keeps working.
        assert_eq!(pool.map(vec![21u32], |x| x * 2), vec![42]);
    }

    #[test]
    fn map_panic_propagates_and_names_the_cell() {
        let pool = Pool::new(4);
        let caught = catch_unwind(AssertUnwindSafe(|| {
            pool.map((0..16u32).collect(), |i| {
                assert!(i != 11, "bad cell {i}");
                i
            })
        }));
        let payload = caught.expect_err("assert inside map must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(msg.contains("bad cell 11"), "got: {msg}");
    }

    #[test]
    fn jobs_policy_resolution_order() {
        // Thread-local override wins over everything and restores on exit.
        let before = configured_jobs();
        assert!(before >= 1);
        let inside = with_jobs(3, effective_jobs);
        assert_eq!(inside, 3);
        assert_eq!(effective_jobs(), configured_jobs());
        // Overrides nest and clamp to 1.
        let nested = with_jobs(5, || with_jobs(0, effective_jobs));
        assert_eq!(nested, 1);
    }

    #[test]
    fn jobs_value_parsing_rejects_malformed_and_zero() {
        assert_eq!(parse_jobs_value("4"), Some(4));
        assert_eq!(parse_jobs_value("  8 "), Some(8));
        assert_eq!(parse_jobs_value("0"), None);
        assert_eq!(parse_jobs_value("-2"), None);
        assert_eq!(parse_jobs_value("abc"), None);
        assert_eq!(parse_jobs_value(""), None);
        assert_eq!(parse_jobs_value("2x"), None);
    }

    #[test]
    fn detached_spawn_counts_panics_instead_of_crossing_threads() {
        let pool = Pool::new(1);
        pool.spawn(|| panic!("detached"));
        // Synchronise: a scope joins after the detached task drained.
        pool.scope(|s| s.spawn(|| ()));
        assert_eq!(pool.detached_panics(), 1);
    }
}
