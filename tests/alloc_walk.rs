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
//! The same warm solve under metrics + spans (the stack perfbench's traced
//! run attaches) or a flight recorder must give the same answer and add at
//! most 32 allocations; one per event would add over a hundred.
//!
//! The counting allocator is process-wide, so this binary holds one test.

use scwsc::data::lbl::LblConfig;
use scwsc::patterns::PatternInstance;
use scwsc::sets::telemetry::alloc::{self, CountingAlloc};
use scwsc::sets::{
    Deadline, Fanout, FlightRecorder, MetricsRecorder, NoopObserver, Observer, Query, Solver,
    SpanProfiler, ThreadPool, Threads,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations one warm solve may make.
const MAX_ALLOCS: u64 = 3_000;

/// Allocations an observer stack may add to one warm solve.
const MAX_OBSERVER_ALLOCS: u64 = 32;

#[test]
fn warm_cwsc_solve_allocates_per_round_not_per_child() {
    let instance = PatternInstance::new(LblConfig::scaled(4000).generate());
    let pool = ThreadPool::new(Threads::serial());
    let query = Query::cwsc(8, 0.6);
    let solve = |obs: &mut dyn Observer| {
        let before = alloc::snapshot();
        let answer = instance
            .solve(&query, &pool, &Deadline::unbounded(), obs)
            .expect("solves");
        (answer, alloc::snapshot().delta(&before).allocs)
    };
    let (cold, _) = solve(&mut NoopObserver);
    let (warm, allocs) = solve(&mut NoopObserver);
    assert_eq!(warm, cold, "the parked lattice changes no answer");
    eprintln!("warm CWSC solve: {allocs} allocations");
    assert!(
        allocs < MAX_ALLOCS,
        "warm CWSC solve made {allocs} allocations (bound {MAX_ALLOCS})"
    );

    let (mut metrics, mut spans) = (MetricsRecorder::new(), SpanProfiler::new());
    let mut traced = Fanout::new();
    traced.attach(&mut metrics).attach(&mut spans);
    let stacks = [
        ("metrics + spans", solve(&mut traced)),
        ("flight recorder", solve(&mut FlightRecorder::new())),
    ];
    for (stack, (answer, stack_allocs)) in stacks {
        assert_eq!(answer, warm, "{stack}: an observer changes no answer");
        let extra = stack_allocs.saturating_sub(allocs);
        assert!(
            extra <= MAX_OBSERVER_ALLOCS,
            "{stack} added {extra} allocations to a warm CWSC solve (bound {MAX_OBSERVER_ALLOCS})"
        );
    }
}
