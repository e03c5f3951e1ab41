//! Hand-rolled scoped thread pool for deterministic parallel scans.
//!
//! The build environment has no registry access, so this module implements
//! the small slice of a work-stealing runtime the solvers actually need —
//! with `std::thread` only, no rayon:
//!
//! * [`Threads`] — thread-count configuration (env `SCWSC_THREADS`, CLI
//!   `--threads`, default = `available_parallelism`). `Threads(1)` is an
//!   *exact* serial fallback: every combinator runs the caller's closure
//!   inline on the current thread and never touches the pool.
//! * [`ThreadPool`] — `n − 1` persistent workers plus the calling thread.
//!   Work is submitted through [`Scope`]s that borrow from the caller's
//!   stack; the scope always joins before returning, which is what makes
//!   the lifetime-erasing submission sound.
//! * [`ThreadPool::par_map`] — map a slice to a `Vec` in input order.
//! * [`ThreadPool::par_chunks_reduce`] — split an index range into one
//!   contiguous chunk per thread, map each chunk, then fold the chunk
//!   results **in ascending chunk order** on the calling thread. A reduce
//!   of the form "replace only when strictly better" therefore picks the
//!   same winner as a left-to-right serial scan, for any thread count —
//!   the determinism contract the greedy arg-max selections rely on
//!   (DESIGN.md §11).
//!
//! Waiting threads *help*: while a scope has outstanding jobs, the waiter
//! pops and runs queued jobs instead of blocking. Nested scopes (a
//! speculative budget guess that itself fans out a benefit scan) therefore
//! cannot deadlock even on a single-worker pool.

use std::collections::VecDeque;
use std::ops::Range;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread;
use std::time::Duration;

/// Environment variable consulted by [`Threads::from_env`].
pub const THREADS_ENV: &str = "SCWSC_THREADS";

/// Environment variable consulted by [`prune_from_env`]: set `SCWSC_PRUNE=0`
/// to force every scan down the exact (unpruned) path. Any other value —
/// including unset — leaves the sketch-pruned scan enabled. The pruned and
/// exact paths select identical sets and emit identical exact counters by
/// construction (DESIGN.md §15); the switch exists for A/B gating in CI and
/// for perf debugging, not for correctness.
pub const PRUNE_ENV: &str = "SCWSC_PRUNE";

/// Whether the sketch-pruned scan path is enabled (default: yes; `0` or
/// `false` disables).
pub fn prune_from_env() -> bool {
    match std::env::var(PRUNE_ENV) {
        Ok(v) => {
            let v = v.trim();
            v != "0" && !v.eq_ignore_ascii_case("false")
        }
        Err(_) => true,
    }
}

/// How many OS threads a solver may use.
///
/// The value is always at least 1; `Threads::new(0)` is clamped to 1 so a
/// misconfigured environment degrades to serial instead of panicking.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Threads(usize);

impl Threads {
    /// An explicit thread count (clamped to at least 1).
    pub fn new(n: usize) -> Self {
        Threads(n.max(1))
    }

    /// Exactly one thread: every parallel combinator runs inline.
    pub fn serial() -> Self {
        Threads(1)
    }

    /// One thread per available core (`std::thread::available_parallelism`),
    /// falling back to serial when the count cannot be determined.
    pub fn available() -> Self {
        Threads(
            thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
        )
    }

    /// Reads `SCWSC_THREADS`; unset, empty, or unparsable values fall back
    /// to [`Threads::available`], `0` clamps to serial.
    pub fn from_env() -> Self {
        match std::env::var(THREADS_ENV) {
            Ok(v) => match v.trim().parse::<usize>() {
                Ok(n) => Threads::new(n),
                Err(_) => Threads::available(),
            },
            Err(_) => Threads::available(),
        }
    }

    /// The configured thread count (≥ 1).
    #[inline]
    pub fn get(self) -> usize {
        self.0
    }

    /// True when the configuration requests the exact serial fallback.
    #[inline]
    pub fn is_serial(self) -> bool {
        self.0 == 1
    }
}

impl Default for Threads {
    /// Defaults to one thread per available core.
    fn default() -> Self {
        Threads::available()
    }
}

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Locks a mutex, recovering from poison instead of panicking.
///
/// Every mutex in this module guards either a job queue, a write-once
/// result slot, or a pending-job counter — state that stays consistent
/// even when a panicking job poisons the lock mid-update, because each
/// critical section is a single atomic-in-effect operation (push, pop,
/// slot write, counter bump). Treating poison as fatal would let one
/// panicking job cascade into secondary `PoisonError` panics in every
/// other worker and the submitting thread; recovering keeps the pool
/// usable and lets the scope re-raise (or the engine contain) only the
/// *original* panic.
fn lock_unpoisoned<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

struct PoolShared {
    queue: Mutex<VecDeque<Job>>,
    /// Signalled when a job is pushed or shutdown begins.
    work_available: Condvar,
    shutdown: AtomicBool,
}

impl PoolShared {
    fn try_pop(&self) -> Option<Job> {
        lock_unpoisoned(&self.queue).pop_front()
    }
}

/// A fixed-size pool of `threads − 1` worker threads plus the caller.
///
/// With `Threads(1)` no workers are spawned and every combinator runs the
/// closures inline, making the serial configuration bit-for-bit identical
/// to code that never heard of this module.
pub struct ThreadPool {
    shared: Arc<PoolShared>,
    workers: Vec<thread::JoinHandle<()>>,
    threads: usize,
}

impl std::fmt::Debug for ThreadPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl ThreadPool {
    /// Builds a pool sized by `threads`. `Threads(1)` spawns no workers.
    pub fn new(threads: Threads) -> Self {
        let n = threads.get();
        let shared = Arc::new(PoolShared {
            queue: Mutex::new(VecDeque::new()),
            work_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let workers = (1..n)
            .map(|i| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("scwsc-worker-{i}"))
                    .spawn(move || worker_loop(&shared))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        ThreadPool {
            shared,
            workers,
            threads: n,
        }
    }

    /// Total executor count (workers + the calling thread).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the pool runs everything inline on the caller.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Runs `f` with a [`Scope`] that may spawn borrowing jobs, then joins
    /// every spawned job before returning (helping to run queued jobs
    /// while waiting). Panics from jobs or from `f` itself are re-raised
    /// here, after the join — so borrowed data is never touched by a job
    /// that outlives its frame.
    pub fn scope<'env, F, R>(&self, f: F) -> R
    where
        F: FnOnce(&Scope<'_, 'env>) -> R,
    {
        let state = Arc::new(ScopeState {
            sync: Mutex::new(ScopeSync {
                pending: 0,
                panic: None,
            }),
            done: Condvar::new(),
        });
        let scope = Scope {
            pool: self,
            state: Arc::clone(&state),
            _env: std::marker::PhantomData,
        };
        // The user closure may panic after spawning; the join below must
        // still run, so catch and re-raise only once the scope is quiet.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait_scope(&state);
        let job_panic = lock_unpoisoned(&state.sync).panic.take();
        match result {
            Ok(r) => {
                if let Some(payload) = job_panic {
                    resume_unwind(payload);
                }
                r
            }
            Err(payload) => resume_unwind(payload),
        }
    }

    /// Maps `items` to a `Vec` preserving input order.
    ///
    /// Serial pools (or trivially small inputs) run `f` inline left to
    /// right; parallel pools split the slice into one contiguous chunk per
    /// thread. Either way the output is `items.iter().map(f)` exactly.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.is_serial() || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let chunks = chunk_ranges(items.len(), self.threads);
        let slots: Vec<Mutex<Option<Vec<R>>>> = chunks.iter().map(|_| Mutex::new(None)).collect();
        self.scope(|s| {
            for (range, slot) in chunks.iter().cloned().zip(&slots) {
                let f = &f;
                s.spawn(move || {
                    let out: Vec<R> = items[range].iter().map(f).collect();
                    *lock_unpoisoned(slot) = Some(out);
                });
            }
        });
        let mut result = Vec::with_capacity(items.len());
        for slot in slots {
            let chunk = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            result.extend(chunk.expect("chunk completed"));
        }
        result
    }

    /// Splits `0..len` into one contiguous chunk per thread, maps every
    /// chunk with `map(chunk_index, range)`, and folds the `Some` results
    /// **in ascending chunk order** with `reduce` on the calling thread.
    ///
    /// The chunk index is dense (`0..chunks`), letting the mapper address
    /// per-chunk state such as a [`ThreadLocalTelemetry`](crate::telemetry::ThreadLocalTelemetry)
    /// shard without contention. The serial fallback is literally
    /// `map(0, 0..len)`: one chunk, no reduce calls. For the fold to be
    /// thread-count-invariant, `reduce` must satisfy "keep the left
    /// argument unless the right is strictly better under a total order
    /// consistent with ascending index" — the shape of every arg-max in
    /// this crate.
    pub fn par_chunks_reduce<A, M, R>(&self, len: usize, map: M, reduce: R) -> Option<A>
    where
        A: Send,
        M: Fn(usize, Range<usize>) -> Option<A> + Sync,
        R: Fn(A, A) -> A,
    {
        if len == 0 {
            return None;
        }
        if self.is_serial() || len == 1 {
            return map(0, 0..len);
        }
        let chunks = chunk_ranges(len, self.threads);
        let slots: Vec<Mutex<Option<Option<A>>>> =
            chunks.iter().map(|_| Mutex::new(None)).collect();
        self.scope(|s| {
            for (idx, (range, slot)) in chunks.iter().cloned().zip(&slots).enumerate() {
                let map = &map;
                s.spawn(move || {
                    let out = map(idx, range);
                    *lock_unpoisoned(slot) = Some(out);
                });
            }
        });
        let mut acc: Option<A> = None;
        for slot in slots {
            let slot = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            let chunk_result = slot.expect("chunk completed");
            acc = match (acc, chunk_result) {
                (Some(a), Some(b)) => Some(reduce(a, b)),
                (None, b) => b,
                (a, None) => a,
            };
        }
        acc
    }

    /// Pops-and-runs queued jobs until `state.pending == 0`.
    fn wait_scope(&self, state: &ScopeState) {
        loop {
            // Help: run queued work instead of blocking. The job may
            // belong to another (nested) scope; that is fine — every job
            // is self-contained and signals its own scope.
            if let Some(job) = self.shared.try_pop() {
                job();
                continue;
            }
            let guard = lock_unpoisoned(&state.sync);
            if guard.pending == 0 {
                return;
            }
            // Short timeout: a running job may queue new work that only
            // this thread can help with; re-poll rather than risk waiting
            // on a wakeup that races the queue check above.
            let (guard, _) = state
                .done
                .wait_timeout(guard, Duration::from_micros(200))
                .unwrap_or_else(PoisonError::into_inner);
            drop(guard);
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Publish shutdown under the queue lock: a worker checks the flag
        // while holding that lock, so it either sees the flag or is
        // already waiting when the notification fires — never between.
        {
            let _queue = lock_unpoisoned(&self.shared.queue);
            self.shared.shutdown.store(true, Ordering::SeqCst);
        }
        self.shared.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

fn worker_loop(shared: &PoolShared) {
    loop {
        let job = {
            let mut queue = lock_unpoisoned(&shared.queue);
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = shared
                    .work_available
                    .wait(queue)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match job {
            Some(job) => job(),
            None => return,
        }
    }
}

struct ScopeSync {
    pending: usize,
    panic: Option<Box<dyn std::any::Any + Send + 'static>>,
}

struct ScopeState {
    sync: Mutex<ScopeSync>,
    done: Condvar,
}

/// Handle for spawning jobs that borrow from the enclosing stack frame.
///
/// Created by [`ThreadPool::scope`], which joins every spawned job before
/// returning — the invariant that makes the internal lifetime erasure
/// sound.
pub struct Scope<'pool, 'env> {
    pool: &'pool ThreadPool,
    state: Arc<ScopeState>,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'env> Scope<'_, 'env> {
    /// Queues `f` to run on the pool (or on any thread that helps while
    /// waiting). Panics inside `f` are captured and re-raised from
    /// [`ThreadPool::scope`] after all jobs join.
    pub fn spawn<F>(&self, f: F)
    where
        F: FnOnce() + Send + 'env,
    {
        lock_unpoisoned(&self.state.sync).pending += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let result = catch_unwind(AssertUnwindSafe(f));
            let mut sync = lock_unpoisoned(&state.sync);
            if let Err(payload) = result {
                // First panic wins; later ones are dropped like rayon does.
                sync.panic.get_or_insert(payload);
            }
            sync.pending -= 1;
            if sync.pending == 0 {
                state.done.notify_all();
            }
        });
        // SAFETY: the job is queued only while the scope is alive, and
        // `ThreadPool::scope` unconditionally waits for `pending == 0`
        // before returning (even when the scope closure panics), so the
        // closure — and everything it borrows from `'env` — outlives every
        // execution of the job. Extending the lifetime to `'static` is
        // therefore never observable.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                job,
            )
        };
        let shared = &self.pool.shared;
        lock_unpoisoned(&shared.queue).push_back(job);
        shared.work_available.notify_one();
    }

    /// The pool this scope submits to.
    #[inline]
    pub fn pool(&self) -> &ThreadPool {
        self.pool
    }
}

/// Cooperative cancellation flag shared by speculative tasks.
///
/// Cancellation is advisory: a task checks [`CancelToken::is_cancelled`]
/// at loop boundaries and abandons work early. Used by the speculative
/// budget-guess window in `algorithms::cmc_on`, where a guess is cancelled
/// only once a *smaller* budget has already succeeded — so cancelled work
/// is provably never needed for the result.
#[derive(Debug, Default)]
pub struct CancelToken(AtomicBool);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken(AtomicBool::new(false))
    }

    /// Requests cancellation; idempotent.
    #[inline]
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// True once [`CancelToken::cancel`] has been called.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Splits `0..len` into `parts` contiguous near-equal ranges (fewer when
/// `len < parts`; never an empty range).
fn chunk_ranges(len: usize, parts: usize) -> Vec<Range<usize>> {
    let parts = parts.max(1).min(len.max(1));
    let base = len / parts;
    let extra = len % parts;
    let mut ranges = Vec::with_capacity(parts);
    let mut start = 0;
    for i in 0..parts {
        let size = base + usize::from(i < extra);
        if size == 0 {
            break;
        }
        ranges.push(start..start + size);
        start += size;
    }
    debug_assert_eq!(start, len);
    ranges
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn threads_clamps_and_parses() {
        assert_eq!(Threads::new(0).get(), 1);
        assert_eq!(Threads::new(8).get(), 8);
        assert!(Threads::serial().is_serial());
        assert!(Threads::available().get() >= 1);
    }

    #[test]
    fn serial_pool_spawns_no_workers() {
        let pool = ThreadPool::new(Threads::serial());
        assert!(pool.is_serial());
        assert_eq!(pool.workers.len(), 0);
        assert_eq!(pool.par_map(&[1, 2, 3], |x| x * 2), vec![2, 4, 6]);
    }

    #[test]
    fn par_map_matches_serial_in_order() {
        let pool = ThreadPool::new(Threads::new(4));
        let items: Vec<usize> = (0..1000).collect();
        let expected: Vec<usize> = items.iter().map(|x| x * x).collect();
        assert_eq!(pool.par_map(&items, |x| x * x), expected);
    }

    #[test]
    fn par_map_empty_and_single() {
        let pool = ThreadPool::new(Threads::new(3));
        assert_eq!(pool.par_map(&[] as &[usize], |x| *x), Vec::<usize>::new());
        assert_eq!(pool.par_map(&[7usize], |x| *x + 1), vec![8]);
    }

    #[test]
    fn par_chunks_reduce_argmax_matches_serial_any_thread_count() {
        // Arg-max with "strictly greater replaces" must pick the same
        // (lowest-index on ties) winner for every thread count.
        let values = [3u64, 9, 1, 9, 9, 2, 0, 9];
        let argmax = |range: Range<usize>| -> Option<(usize, u64)> {
            range
                .map(|i| (i, values[i]))
                .fold(None, |best, cand| match best {
                    Some((_, bv)) if bv >= cand.1 => best,
                    _ => Some(cand),
                })
        };
        let reduce = |a: (usize, u64), b: (usize, u64)| if b.1 > a.1 { b } else { a };
        let serial = argmax(0..values.len());
        for n in [1usize, 2, 3, 4, 8, 16] {
            let pool = ThreadPool::new(Threads::new(n));
            let got = pool.par_chunks_reduce(values.len(), |_, r| argmax(r), reduce);
            assert_eq!(got, serial, "thread count {n}");
        }
        assert_eq!(serial, Some((1, 9)), "lowest index wins ties");
    }

    #[test]
    fn dropping_fresh_pools_never_hangs() {
        // Dropping a pool whose workers are still starting up must join
        // them; a shutdown flag published outside the queue lock lost
        // the wakeup and hung this loop within a few thousand drops.
        for _ in 0..3000 {
            drop(ThreadPool::new(Threads::new(4)));
        }
    }

    #[test]
    fn par_chunks_reduce_empty_is_none() {
        let pool = ThreadPool::new(Threads::new(4));
        let got: Option<usize> = pool.par_chunks_reduce(0, |_, _| Some(1), |a, _| a);
        assert_eq!(got, None);
    }

    #[test]
    fn par_chunks_reduce_chunk_indices_are_dense() {
        let pool = ThreadPool::new(Threads::new(4));
        let got = pool
            .par_chunks_reduce(
                100,
                |idx, range| Some(vec![(idx, range)]),
                |mut a, b| {
                    a.extend(b);
                    a
                },
            )
            .unwrap();
        assert!(got.len() <= 4);
        for (i, (idx, _)) in got.iter().enumerate() {
            assert_eq!(*idx, i, "chunk indices dense and in fold order");
        }
        let covered: usize = got.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(covered, 100);
    }

    #[test]
    fn scope_joins_before_returning() {
        let pool = ThreadPool::new(Threads::new(4));
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 64);
    }

    #[test]
    fn nested_scopes_do_not_deadlock() {
        // A two-thread pool with jobs that themselves fan out: the outer
        // jobs must help run the inner jobs while waiting.
        let pool = ThreadPool::new(Threads::new(2));
        let counter = AtomicUsize::new(0);
        let inner_pool = &pool;
        pool.scope(|s| {
            for _ in 0..4 {
                let counter = &counter;
                s.spawn(move || {
                    inner_pool.scope(|inner| {
                        for _ in 0..8 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::SeqCst);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::SeqCst), 32);
    }

    #[test]
    fn job_panic_propagates_after_join() {
        let pool = ThreadPool::new(Threads::new(4));
        let finished = AtomicUsize::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..8 {
                    let finished = &finished;
                    s.spawn(move || {
                        if i == 3 {
                            panic!("job exploded");
                        }
                        finished.fetch_add(1, Ordering::SeqCst);
                    });
                }
            });
        }));
        assert!(result.is_err(), "panic must propagate to the scope caller");
        assert_eq!(
            finished.load(Ordering::SeqCst),
            7,
            "non-panicking jobs all ran to completion before the re-raise"
        );
    }

    #[test]
    fn lock_unpoisoned_recovers_poisoned_mutex() {
        let m = Mutex::new(5);
        let _ = catch_unwind(AssertUnwindSafe(|| {
            let _guard = m.lock().unwrap();
            panic!("poison the lock");
        }));
        assert!(m.is_poisoned());
        assert_eq!(*lock_unpoisoned(&m), 5, "recovers the inner value");
    }

    #[test]
    fn pool_survives_repeated_job_panics() {
        // A panicking job must not cascade into secondary PoisonError
        // panics: after several panicked scopes the same pool still runs
        // ordinary work to completion.
        let pool = ThreadPool::new(Threads::new(4));
        for round in 0..3 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.scope(|s| {
                    for i in 0..8 {
                        s.spawn(move || {
                            if i % 2 == 0 {
                                panic!("round {round} job {i}");
                            }
                        });
                    }
                });
            }));
            assert!(result.is_err(), "original panic still re-raised");
        }
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = (1..=100).collect();
        assert_eq!(pool.par_map(&items, |x| x + 1), expected);
    }

    #[test]
    fn par_map_borrows_stack_data() {
        let pool = ThreadPool::new(Threads::new(4));
        let base = vec![10usize; 256];
        let items: Vec<usize> = (0..256).collect();
        let out = pool.par_map(&items, |&i| base[i] + i);
        assert!(out.iter().enumerate().all(|(i, &v)| v == 10 + i));
    }

    #[test]
    fn chunk_ranges_cover_exactly() {
        for len in [0usize, 1, 2, 7, 64, 100] {
            for parts in [1usize, 2, 3, 8, 200] {
                let ranges = chunk_ranges(len, parts);
                let mut next = 0;
                for r in &ranges {
                    assert_eq!(r.start, next);
                    assert!(!r.is_empty());
                    next = r.end;
                }
                assert_eq!(next, len);
                assert!(ranges.len() <= parts.max(1));
            }
        }
    }
}
