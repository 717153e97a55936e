//! Minimal deterministic fork–join parallelism on a persistent
//! work-stealing pool.
//!
//! This workspace builds in hermetic environments without crates.io access,
//! so instead of `rayon` it uses this tiny crate. The API is intentionally
//! small — an indexed parallel [`map`] — because every parallel site in the
//! workspace reduces the mapped results *serially and in input order*,
//! which is what keeps the optimizers bit-identical to their sequential
//! forms regardless of thread timing.
//!
//! # The pool
//!
//! Earlier revisions spawned fresh OS threads on every `map` call; under a
//! live multi-threaded service that dispatch overhead ate the parallelism
//! the planner's ~26-item candidate batches were supposed to buy. `map`
//! now dispatches to a **lazily started persistent worker pool**:
//!
//! * Workers are spawned on first parallel use and live for the process.
//!   Each worker owns an **injector queue**; a `map` call splits its index
//!   range into per-participant chunks, claims idle workers, and injects
//!   one chunk assignment per worker.
//! * Within a region, every participant (the calling thread included)
//!   drains its own chunk through an atomic claim index, then **steals**
//!   from the other chunks — long items never convoy short ones, and a
//!   worker that wakes late finds its chunk already eaten rather than
//!   holding the region open.
//! * Idle workers **park** on their queue condvar and are unparked only
//!   when claimed, so an idle pool costs nothing.
//! * A panic inside `f` poisons the region (the other participants stop
//!   claiming), is carried back to the caller, and is re-raised with the
//!   **original payload** once every engaged worker has detached.
//!
//! The call contract is unchanged: results come back in input order, a
//! nested `map` on a worker thread runs inline (the outer region already
//! saturates the cores), [`max_threads`]/[`with_threads`]/`MSOC_THREADS`
//! bound the width of each region, and tiny inputs (or a width of 1)
//! degrade to a plain serial loop with zero threading overhead.
//! [`pool_stats`] exposes dispatch/steal/park counters for the load
//! harness.
//!
//! [`with_threads`] overrides are **thread-local** and inherited by the
//! pool workers serving that call's region, so concurrent callers — e.g.
//! independent service threads scoping a 1-thread replay next to a full-
//! width sweep — can never race each other's widths.
//!
//! # Examples
//!
//! ```
//! let squares = msoc_par::map(&[1u64, 2, 3, 4], |_, &x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    /// True while this thread is a worker inside a [`map`] region.
    static IN_PARALLEL_REGION: Cell<bool> = const { Cell::new(false) };

    /// Thread-count override installed by [`with_threads`] (0 = none).
    /// Thread-local so concurrent callers cannot race each other's
    /// overrides; pool workers inherit the dispatching thread's value for
    /// the duration of each region they serve.
    static THREAD_OVERRIDE: Cell<usize> = const { Cell::new(0) };
}

/// Number of worker threads a parallel region may use.
///
/// A [`with_threads`] override on the calling thread wins, then
/// `MSOC_THREADS` (useful for benchmarking the serial path), then the
/// host's available parallelism.
pub fn max_threads() -> usize {
    let forced = THREAD_OVERRIDE.with(Cell::get);
    if forced > 0 {
        return forced;
    }
    if let Ok(v) = std::env::var("MSOC_THREADS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n.max(1);
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` with [`max_threads`] forced to `threads` on **this thread**,
/// restoring the previous override afterwards (also on panic).
///
/// The override is thread-local: concurrent callers on different threads
/// scope their widths independently, and the pool workers serving a
/// region inherit the dispatching thread's override while they run its
/// items (so a nested width query inside the mapped closure sees the
/// caller's value). Calls may nest.
pub fn with_threads<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    struct Restore(usize);
    impl Drop for Restore {
        fn drop(&mut self) {
            THREAD_OVERRIDE.with(|c| c.set(self.0));
        }
    }
    let _restore = Restore(THREAD_OVERRIDE.with(|c| c.replace(threads.max(1))));
    f()
}

/// Counters of the persistent worker pool (see [`pool_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Worker threads currently alive (0 until the first parallel map).
    pub workers: u64,
    /// Parallel regions dispatched to the pool (serial fallbacks and
    /// nested inline maps are not counted).
    pub dispatches: u64,
    /// Chunk assignments injected into worker queues across all regions.
    pub assignments: u64,
    /// Items claimed from a chunk the claimant did not own.
    pub steals: u64,
    /// Times a worker parked on its empty injector queue.
    pub parks: u64,
    /// Times a dispatching thread unparked a parked worker.
    pub unparks: u64,
}

/// A snapshot of the pool's lifetime counters (process-global,
/// monotonically increasing; diff two snapshots to meter one phase).
pub fn pool_stats() -> PoolStats {
    pool::stats()
}

/// Maps `f` over `items` (with the item index), possibly in parallel, and
/// returns the results **in input order**.
///
/// `f` runs at most once per item. Scheduling across threads is dynamic
/// (per-chunk atomic claim indices plus work stealing — long items don't
/// convoy short ones), but the output order is always the input order, so
/// callers can fold the result deterministically. Calls nested inside
/// another `map` run serially (see the crate docs).
///
/// # Panics
///
/// Propagates the first panic from `f` with its original payload (the
/// region waits for every engaged worker first).
pub fn map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let width = max_threads().min(items.len());
    if width <= 1 || IN_PARALLEL_REGION.with(Cell::get) {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    // Disjoint result slots: each item index is claimed exactly once, so
    // every slot is written at most once (the mutex is uncontended; it
    // exists to keep the parallel write safe without `unsafe` here).
    let out: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    let task = |i: usize| {
        let r = f(i, &items[i]);
        *out[i].lock().unwrap_or_else(std::sync::PoisonError::into_inner) = Some(r);
    };
    pool::run_region(&task, items.len(), width);
    out.into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .expect("every region item runs exactly once")
        })
        .collect()
}

/// The human-readable message carried by a caught panic payload.
///
/// `std` panics carry either a `&'static str` (literal messages) or a
/// `String` (formatted messages); anything else — a custom
/// `panic_any` payload — has no portable text, so a placeholder naming
/// the payload's opacity is returned instead of losing the event.
/// This is the one place panic payloads are turned into text, shared by
/// the pool's own tests and by callers that isolate panics per work item
/// (e.g. a job runner mapping a caught unwind to a structured failure).
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload (not a string)".to_string()
    }
}

/// The persistent worker pool. This is the only module allowed to use
/// `unsafe`: it erases the lifetime of a region's task closure so
/// persistent workers can run it, and the dispatch protocol re-establishes
/// the safety the type system can no longer see (details on [`Region`]).
#[allow(unsafe_code)]
mod pool {
    use std::any::Any;
    use std::collections::VecDeque;
    use std::panic::AssertUnwindSafe;
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};

    use super::{PoolStats, IN_PARALLEL_REGION, THREAD_OVERRIDE};

    static DISPATCHES: AtomicU64 = AtomicU64::new(0);
    static ASSIGNMENTS: AtomicU64 = AtomicU64::new(0);
    static STEALS: AtomicU64 = AtomicU64::new(0);
    static PARKS: AtomicU64 = AtomicU64::new(0);
    static UNPARKS: AtomicU64 = AtomicU64::new(0);

    /// One contiguous slice of a region's index space. `next` is the
    /// atomic claim cursor; claims at or past `end` are dead.
    struct Chunk {
        next: AtomicUsize,
        end: usize,
    }

    /// One parallel map in flight. Lives on the dispatching thread's
    /// stack; workers reach it through a raw pointer.
    ///
    /// # Safety protocol
    ///
    /// The pointer (and the `task` borrow inside) is only dereferenced by
    /// a worker between receiving an [`Assignment`] and decrementing
    /// `outstanding`. `run_region` pins the region until `outstanding`
    /// reaches zero *and* every published-but-unstarted assignment has
    /// been reclaimed from the worker queues, so no worker can hold a
    /// reference once `run_region` returns (or unwinds).
    struct Region {
        /// Lifetime-erased per-item task; runs item `i`.
        task: *const (dyn Fn(usize) + Sync),
        chunks: Box<[Chunk]>,
        /// Set on the first panic; participants stop claiming.
        poisoned: AtomicBool,
        /// The first panic's original payload.
        panic: Mutex<Option<Box<dyn Any + Send>>>,
        /// Worker assignments published and not yet finished/reclaimed.
        outstanding: Mutex<usize>,
        detached: Condvar,
        /// The dispatcher's `with_threads` override, inherited by every
        /// worker for the duration of its assignment.
        inherited_override: usize,
    }

    /// A queue entry handed to one worker: which region, which chunk is
    /// primarily its own. Send-safe by the [`Region`] protocol.
    struct Assignment {
        region: *const Region,
        chunk: usize,
    }
    // SAFETY: the raw region pointer stays valid for as long as any
    // assignment referencing it exists (see the Region safety protocol).
    unsafe impl Send for Assignment {}

    struct Worker {
        queue: Mutex<VecDeque<Assignment>>,
        available: Condvar,
        /// Best-effort idle flag: dispatchers only claim workers that
        /// were idle, so a busy pool never blocks a region on a worker
        /// that is still serving someone else.
        idle: AtomicBool,
        /// True while the worker is parked on `available`.
        parked: AtomicBool,
    }

    struct Pool {
        workers: Mutex<Vec<Arc<Worker>>>,
    }

    fn plain<T>(r: Result<T, PoisonError<T>>) -> T {
        // Worker payloads are caught before they can poison these locks,
        // but a defensive unwrap keeps the pool alive regardless.
        r.unwrap_or_else(PoisonError::into_inner)
    }

    fn global() -> &'static Pool {
        static POOL: OnceLock<Pool> = OnceLock::new();
        POOL.get_or_init(|| Pool { workers: Mutex::new(Vec::new()) })
    }

    /// A snapshot of the pool counters.
    pub(super) fn stats() -> PoolStats {
        let workers = match global().workers.try_lock() {
            Ok(w) => w.len() as u64,
            Err(_) => 0,
        };
        PoolStats {
            workers,
            dispatches: DISPATCHES.load(Ordering::Relaxed),
            assignments: ASSIGNMENTS.load(Ordering::Relaxed),
            steals: STEALS.load(Ordering::Relaxed),
            parks: PARKS.load(Ordering::Relaxed),
            unparks: UNPARKS.load(Ordering::Relaxed),
        }
    }

    /// Runs `task(i)` for every `i in 0..len` across this thread plus up
    /// to `width - 1` pool workers. Returns (or re-panics) only after
    /// every item ran and every engaged worker detached.
    pub(super) fn run_region(task: &(dyn Fn(usize) + Sync), len: usize, width: usize) {
        debug_assert!(width >= 2 && len >= width);
        DISPATCHES.fetch_add(1, Ordering::Relaxed);
        let per = len.div_ceil(width);
        let chunks: Box<[Chunk]> = (0..width)
            .map(|k| Chunk { next: AtomicUsize::new(k * per), end: ((k + 1) * per).min(len) })
            .collect();
        // SAFETY: pure lifetime erasure on the fat pointer — the borrow is
        // pinned by this function until every participant detaches.
        let task: *const (dyn Fn(usize) + Sync) =
            unsafe { std::mem::transmute(task as *const (dyn Fn(usize) + Sync)) };
        let region = Region {
            task,
            chunks,
            poisoned: AtomicBool::new(false),
            panic: Mutex::new(None),
            outstanding: Mutex::new(0),
            detached: Condvar::new(),
            inherited_override: THREAD_OVERRIDE.with(std::cell::Cell::get),
        };

        let engaged = global().publish(&region, width - 1);

        // The dispatcher participates too, starting on chunk 0: even with
        // zero idle workers the region completes, and on a host where the
        // workers wake late the dispatcher simply steals their chunks.
        let prev = IN_PARALLEL_REGION.with(|c| c.replace(true));
        let caller = std::panic::catch_unwind(AssertUnwindSafe(|| run_chunks(&region, 0)));
        IN_PARALLEL_REGION.with(|c| c.set(prev));
        if let Err(payload) = caller {
            poison(&region, payload);
        }

        // All items are claimed; pull back any assignment a busy worker
        // never started, then wait for the engaged ones to detach. Only
        // after that may the region (and the task borrow) die.
        global().reclaim(&region, &engaged);
        let mut outstanding = plain(region.outstanding.lock());
        while *outstanding > 0 {
            outstanding = plain(region.detached.wait(outstanding));
        }
        drop(outstanding);

        let payload = plain(region.panic.lock()).take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }

    /// Records the first panic payload and poisons the region.
    fn poison(region: &Region, payload: Box<dyn Any + Send>) {
        region.poisoned.store(true, Ordering::Relaxed);
        let mut slot = plain(region.panic.lock());
        if slot.is_none() {
            *slot = Some(payload);
        }
    }

    /// Drains the region starting from `start_chunk`: own chunk first,
    /// then steal from the others round-robin.
    fn run_chunks(region: &Region, start_chunk: usize) {
        let n = region.chunks.len();
        for step in 0..n {
            let chunk = &region.chunks[(start_chunk + step) % n];
            loop {
                if region.poisoned.load(Ordering::Relaxed) {
                    return;
                }
                let i = chunk.next.fetch_add(1, Ordering::Relaxed);
                if i >= chunk.end {
                    break;
                }
                if step != 0 {
                    STEALS.fetch_add(1, Ordering::Relaxed);
                }
                // SAFETY: the region (and with it the task borrow) is
                // pinned by `run_region` until this participant detaches.
                (unsafe { &*region.task })(i);
            }
        }
    }

    impl Pool {
        /// Claims up to `helpers` idle workers for `region`, assigning
        /// chunks `1..=helpers` in order. Returns the claimed workers
        /// (for reclaim). Grows the pool on first need; a worker busy in
        /// another region is simply not claimed.
        fn publish(&self, region: &Region, helpers: usize) -> Vec<Arc<Worker>> {
            let mut workers = plain(self.workers.lock());
            while workers.len() < helpers {
                let index = workers.len();
                workers.push(spawn_worker(index));
            }
            let mut claimed: Vec<Arc<Worker>> = Vec::with_capacity(helpers);
            for worker in workers.iter() {
                if claimed.len() == helpers {
                    break;
                }
                if worker
                    .idle
                    .compare_exchange(true, false, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    claimed.push(Arc::clone(worker));
                }
            }
            drop(workers);
            if claimed.is_empty() {
                return claimed;
            }
            *plain(region.outstanding.lock()) = claimed.len();
            ASSIGNMENTS.fetch_add(claimed.len() as u64, Ordering::Relaxed);
            for (k, worker) in claimed.iter().enumerate() {
                let mut queue = plain(worker.queue.lock());
                queue.push_back(Assignment { region: region as *const Region, chunk: k + 1 });
                drop(queue);
                if worker.parked.load(Ordering::Relaxed) {
                    UNPARKS.fetch_add(1, Ordering::Relaxed);
                }
                worker.available.notify_one();
            }
            claimed
        }

        /// Removes any still-queued assignments for `region` from the
        /// claimed workers (they were never started, so the region must
        /// not wait for them) and drops `outstanding` accordingly.
        fn reclaim(&self, region: &Region, engaged: &[Arc<Worker>]) {
            let target = region as *const Region;
            let mut reclaimed = 0usize;
            for worker in engaged {
                let mut queue = plain(worker.queue.lock());
                let before = queue.len();
                queue.retain(|a| !std::ptr::eq(a.region, target));
                reclaimed += before - queue.len();
            }
            if reclaimed > 0 {
                let mut outstanding = plain(region.outstanding.lock());
                *outstanding -= reclaimed;
                if *outstanding == 0 {
                    region.detached.notify_one();
                }
            }
        }
    }

    fn spawn_worker(index: usize) -> Arc<Worker> {
        let worker = Arc::new(Worker {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            // Born claimed: the dispatcher that grew the pool may claim
            // it explicitly in the same pass; it parks idle otherwise.
            idle: AtomicBool::new(true),
            parked: AtomicBool::new(false),
        });
        let shared = Arc::clone(&worker);
        std::thread::Builder::new()
            .name(format!("msoc-par-{index}"))
            .spawn(move || worker_loop(&shared))
            .expect("spawn msoc-par pool worker");
        worker
    }

    fn worker_loop(worker: &Worker) {
        // Pool workers always run region items, so a nested map on a
        // worker is inline by construction.
        IN_PARALLEL_REGION.with(|c| c.set(true));
        loop {
            let assignment = next_assignment(worker);
            run_assignment(&assignment);
        }
    }

    fn next_assignment(worker: &Worker) -> Assignment {
        let mut queue = plain(worker.queue.lock());
        loop {
            if let Some(assignment) = queue.pop_front() {
                return assignment;
            }
            worker.idle.store(true, Ordering::Release);
            worker.parked.store(true, Ordering::Relaxed);
            PARKS.fetch_add(1, Ordering::Relaxed);
            queue = plain(worker.available.wait(queue));
            worker.parked.store(false, Ordering::Relaxed);
        }
    }

    fn run_assignment(assignment: &Assignment) {
        // SAFETY: an assignment only exists while its region is pinned by
        // `run_region` (unstarted assignments are reclaimed before the
        // region dies, and this one was started).
        let region = unsafe { &*assignment.region };
        let prev = THREAD_OVERRIDE.with(|c| c.replace(region.inherited_override));
        let outcome =
            std::panic::catch_unwind(AssertUnwindSafe(|| run_chunks(region, assignment.chunk)));
        THREAD_OVERRIDE.with(|c| c.set(prev));
        if let Err(payload) = outcome {
            poison(region, payload);
        }
        let mut outstanding = plain(region.outstanding.lock());
        *outstanding -= 1;
        if *outstanding == 0 {
            region.detached.notify_one();
        }
        drop(outstanding);
    }

    struct _AssertTraits;
    const _: () = {
        const fn assert_send<T: Send>() {}
        assert_send::<Assignment>();
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let input: Vec<usize> = (0..1000).collect();
        let out = map(&input, |i, &x| {
            assert_eq!(i, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn preserves_input_order_through_the_pool() {
        let input: Vec<usize> = (0..1000).collect();
        let out = with_threads(4, || map(&input, |_, &x| x * 2));
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
        let stats = pool_stats();
        assert!(stats.dispatches > 0, "a 4-wide map must dispatch to the pool: {stats:?}");
    }

    #[test]
    fn empty_input_is_fine() {
        let out: Vec<u32> = map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn single_item_runs_serially() {
        assert_eq!(map(&[7u32], |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn with_threads_forces_and_restores_the_thread_count() {
        let baseline = max_threads();
        let (inside, nested) = with_threads(1, || {
            let inner = with_threads(3, max_threads);
            (max_threads(), inner)
        });
        assert_eq!(inside, 1);
        assert_eq!(nested, 3);
        assert_eq!(max_threads(), baseline, "override must be restored");
        // Results are identical regardless of the forced count.
        let input: Vec<u64> = (0..64).collect();
        let serial = with_threads(1, || map(&input, |_, &x| x * 3));
        let wide = with_threads(8, || map(&input, |_, &x| x * 3));
        assert_eq!(serial, wide);
    }

    #[test]
    fn racing_overrides_on_two_threads_never_cross_talk() {
        // The regression the thread-local override exists for: with a
        // process-global slot, two concurrent with_threads scopes raced
        // each other's widths. Each thread pins a different width, runs
        // maps through the shared pool, and asserts every observation —
        // including from inside mapped items, which may run on pool
        // workers that must inherit the caller's override.
        std::thread::scope(|scope| {
            for width in [2usize, 5] {
                scope.spawn(move || {
                    let input: Vec<usize> = (0..64).collect();
                    for _ in 0..100 {
                        with_threads(width, || {
                            assert_eq!(max_threads(), width, "override must be thread-local");
                            let out = map(&input, |i, &x| {
                                assert_eq!(
                                    max_threads(),
                                    width,
                                    "workers must inherit the dispatcher's override"
                                );
                                x + i
                            });
                            assert_eq!(out.len(), 64);
                        });
                        assert_eq!(with_threads(width, max_threads), width);
                    }
                });
            }
        });
    }

    #[test]
    fn nested_maps_run_inline_and_stay_ordered() {
        let outer: Vec<u64> = (0..16).collect();
        let out = with_threads(4, || {
            map(&outer, |_, &x| {
                let inner: Vec<u64> = (0..8).collect();
                map(&inner, |_, &y| x * 100 + y).into_iter().sum::<u64>()
            })
        });
        let expect: Vec<u64> = (0..16).map(|x| (0..8).map(|y| x * 100 + y).sum::<u64>()).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn panics_propagate_with_the_original_payload() {
        let input: Vec<usize> = (0..256).collect();
        let caught = std::panic::catch_unwind(|| {
            with_threads(4, || {
                map(&input, |_, &x| {
                    assert!(x != 97, "poisoned item {x}");
                    x
                })
            })
        })
        .expect_err("the panic must cross the region");
        let message = panic_message(caught.as_ref());
        assert!(message.contains("poisoned item 97"), "payload lost: {message}");
        // The pool survives a poisoned region.
        let after = with_threads(4, || map(&input, |_, &x| x + 1));
        assert_eq!(after[0], 1);
    }
}
