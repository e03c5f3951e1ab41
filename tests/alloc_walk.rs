//! Allocation guard for the optimized CWSC lattice walk (Fig. 3).
//!
//! A warm `PatternInstance` — one whose earlier solve grew and parked the
//! lattice — answers a CWSC query without materializing any node, so the
//! walk itself should allocate only per-solve arrays and a handful of
//! per-round buffers. Fig. 3 line 16 ("all parents of m are in C") is
//! checked on packed node keys; building a `Pattern` and its parents per
//! child considered instead costs tens of thousands of allocations per
//! solve on this instance, which the bound below rejects.
//!
//! The counting allocator is process-wide, so this binary holds one test.

use scwsc::data::lbl::LblConfig;
use scwsc::patterns::PatternInstance;
use scwsc::sets::telemetry::alloc::{self, CountingAlloc};
use scwsc::sets::{Deadline, NoopObserver, Query, Solver, ThreadPool, Threads};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations one warm solve may make.
const MAX_ALLOCS: u64 = 3_000;

#[test]
fn warm_cwsc_solve_allocates_per_round_not_per_child() {
    let instance = PatternInstance::new(LblConfig::scaled(4000).generate());
    let pool = ThreadPool::new(Threads::serial());
    let query = Query::cwsc(8, 0.6);
    let solve = || {
        instance
            .solve(&query, &pool, &Deadline::unbounded(), &mut NoopObserver)
            .expect("solves")
    };
    let cold = solve();
    let before = alloc::snapshot();
    let warm = solve();
    let allocs = alloc::snapshot().delta(&before).allocs;
    assert_eq!(warm, cold, "the parked lattice changes no answer");
    eprintln!("warm CWSC solve: {allocs} allocations");
    assert!(
        allocs < MAX_ALLOCS,
        "warm CWSC solve made {allocs} allocations (bound {MAX_ALLOCS})"
    );
}
