//! Thread-count configuration and the one parallel combinator the solvers
//! use, on `std::thread` alone (the build environment has no rayon):
//!
//! * [`Threads`] — thread-count configuration (env `SCWSC_THREADS`,
//!   `scwsc_bench --threads`, default = `available_parallelism`).
//!   `Threads(1)` is an *exact* serial fallback: [`ThreadPool::par_map`]
//!   runs the caller's closure inline on the current thread.
//! * [`ThreadPool`] — just that thread count. It keeps no workers:
//!   [`ThreadPool::par_map`] maps a slice to a `Vec` in input order on a
//!   [`std::thread::scope`], the calling thread taking the first chunk and
//!   one scoped thread each other chunk, all joined before it returns.
//!   Its two callers are flat CMC's speculative budget guesses and the
//!   Pareto sweep's λ fan-out (DESIGN.md §11).
//! * [`CancelToken`] — the advisory flag that lets a speculative budget
//!   guess stop once a smaller one has succeeded.

use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

/// Environment variable consulted by [`Threads::from_env`].
pub const THREADS_ENV: &str = "SCWSC_THREADS";

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
        Threads(thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// Reads `SCWSC_THREADS`; unset, empty, or unparsable values fall back
    /// to [`Threads::available`], `0` clamps to serial.
    pub fn from_env() -> Self {
        std::env::var(THREADS_ENV)
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .map_or_else(Threads::available, Threads::new)
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

/// A thread count that [`ThreadPool::par_map`] fans out over.
///
/// Building a pool spawns no thread. Each `par_map` call on a pool of
/// `n > 1` threads starts at most `min(n, items) − 1` scoped threads and
/// joins them before it returns; with `Threads(1)` every call runs the
/// closure inline, making the serial configuration bit-for-bit identical
/// to code that never heard of this module.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool sized by `threads`; spawns nothing.
    pub fn new(threads: Threads) -> Self {
        ThreadPool {
            threads: threads.get(),
        }
    }

    /// Total executor count (scoped threads + the calling thread).
    #[inline]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// True when the pool runs everything inline on the caller.
    #[inline]
    pub fn is_serial(&self) -> bool {
        self.threads == 1
    }

    /// Maps `items` to a `Vec` preserving input order.
    ///
    /// Serial pools (or inputs of at most one item) run `f` inline left to
    /// right. Parallel pools split the slice into one contiguous chunk per
    /// thread: the calling thread maps the first chunk and one scoped
    /// thread maps each other chunk. Either way the output is
    /// `items.iter().map(f)` exactly. If any chunk panics, the first
    /// panic in chunk order is re-raised with its original payload once
    /// every chunk has been joined, so the other chunks still run to
    /// completion.
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.is_serial() || items.len() <= 1 {
            return items.iter().map(f).collect();
        }
        let map_chunk = |range: Range<usize>| items[range].iter().map(&f).collect::<Vec<R>>();
        let mut chunks = chunk_ranges(items.len(), self.threads).into_iter();
        let first = chunks.next().expect("a non-empty slice has a chunk");
        // A panic in the calling thread's chunk, or one re-raised from a
        // join, unwinds out of the scope only after the scope has joined
        // every chunk still running, and the scope then re-raises it.
        thread::scope(|s| {
            let others: Vec<_> = chunks
                .map(|range| s.spawn(move || map_chunk(range)))
                .collect();
            let mut out = map_chunk(first);
            for handle in others {
                let chunk = handle
                    .join()
                    .unwrap_or_else(|payload| resume_unwind(payload));
                out.extend(chunk);
            }
            out
        })
    }
}

/// Cooperative cancellation flag shared by speculative tasks.
///
/// Cancellation is advisory: a task checks [`CancelToken::is_cancelled`]
/// at loop boundaries and abandons work early. Used by the speculative
/// budget-guess window in `algorithms::cmc`, where a guess is cancelled
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
    use std::collections::HashSet;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::atomic::AtomicUsize;
    use std::sync::Mutex;
    use std::thread::ThreadId;

    #[test]
    fn threads_clamps_and_parses() {
        assert_eq!(Threads::new(0).get(), 1);
        assert_eq!(Threads::new(8).get(), 8);
        assert!(Threads::serial().is_serial());
        assert!(Threads::available().get() >= 1);
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
    fn item_panic_payload_propagates_after_every_other_item_ran() {
        let pool = ThreadPool::new(Threads::new(4));
        let finished = AtomicUsize::new(0);
        let items: Vec<usize> = (0..8).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.par_map(&items, |&i| {
                if i == 3 {
                    panic!("item {i} exploded");
                }
                finished.fetch_add(1, Ordering::SeqCst);
            })
        }));
        let payload = result.expect_err("the panic must reach the par_map caller");
        assert_eq!(
            payload.downcast_ref::<String>().map(String::as_str),
            Some("item 3 exploded"),
            "the original payload, not a join error"
        );
        // Item 3 shares its chunk with item 2 only; every other chunk,
        // and the item before it, ran to completion.
        assert_eq!(finished.load(Ordering::SeqCst), 7);
    }

    #[test]
    fn pool_runs_ordinary_work_after_repeated_panics() {
        let pool = ThreadPool::new(Threads::new(4));
        let items: Vec<usize> = (0..8).collect();
        for round in 0..3 {
            let result = catch_unwind(AssertUnwindSafe(|| {
                pool.par_map(&items, |&i| {
                    if i % 2 == 0 {
                        panic!("round {round} item {i}");
                    }
                    i
                })
            }));
            assert!(result.is_err(), "round {round} re-raises its panic");
        }
        let items: Vec<usize> = (0..100).collect();
        let expected: Vec<usize> = (1..=100).collect();
        assert_eq!(pool.par_map(&items, |x| x + 1), expected);
    }

    #[test]
    fn par_map_uses_no_more_threads_than_items() {
        let caller = thread::current().id();
        let seen = Mutex::new(HashSet::<ThreadId>::new());
        let record = |_: &usize| {
            seen.lock().unwrap().insert(thread::current().id());
        };
        ThreadPool::new(Threads::serial()).par_map(&[1usize, 2, 3], record);
        assert_eq!(
            *seen.lock().unwrap(),
            HashSet::from([caller]),
            "a serial pool runs every item on the calling thread"
        );
        seen.lock().unwrap().clear();
        ThreadPool::new(Threads::new(16)).par_map(&[1usize, 2, 3], record);
        let seen = seen.into_inner().unwrap();
        assert!(seen.len() <= 3, "3 items ran on {} threads", seen.len());
        assert!(seen.contains(&caller), "the caller maps the first chunk");
    }

    #[test]
    fn nested_par_map_returns_in_order() {
        let pool = ThreadPool::new(Threads::new(2));
        let outer: Vec<usize> = (0..4).collect();
        let inner: Vec<usize> = (0..8).collect();
        let out = pool.par_map(&outer, |&i| pool.par_map(&inner, |&j| 10 * i + j));
        let expected: Vec<Vec<usize>> = outer
            .iter()
            .map(|&i| inner.iter().map(|&j| 10 * i + j).collect())
            .collect();
        assert_eq!(out, expected);
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
