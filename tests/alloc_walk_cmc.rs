//! Allocation guard for the optimized CMC lattice walk (Fig. 4).
//!
//! A warm `PatternInstance` — one whose earlier solves grew and parked the
//! lattice — answers a CMC query without materializing any node, so each
//! solve should allocate per-solve and per-guess arrays, not per pop: a
//! solve pops thousands of times, so one allocation per pop breaks the
//! bound below. Checked under every cost model, since each walks a
//! different share of the lattice.
//!
//! Each warm solve under metrics + spans (the stack perfbench's traced
//! run attaches) or a flight recorder must give the same answer and add at
//! most 32 allocations; one per event would add hundreds.
//!
//! The counting allocator is process-wide, so this binary holds one test.

use scwsc::data::lbl::LblConfig;
use scwsc::patterns::PatternInstance;
use scwsc::sets::telemetry::alloc::{self, CountingAlloc};
use scwsc::sets::{
    CostModel, Deadline, Fanout, FlightRecorder, MetricsRecorder, NoopObserver, Observer, Query,
    Solver, SpanProfiler, ThreadPool, Threads,
};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations one warm solve may make.
const MAX_ALLOCS: u64 = 4_000;

/// Allocations an observer stack may add to one warm solve.
const MAX_OBSERVER_ALLOCS: u64 = 32;

#[test]
fn warm_cmc_solve_allocates_per_guess_not_per_pop() {
    let instance = PatternInstance::new(LblConfig::scaled(4000).generate());
    let pool = ThreadPool::new(Threads::serial());
    for cost in [
        CostModel::Max,
        CostModel::Sum,
        CostModel::Mean,
        CostModel::Count,
    ] {
        let query = Query {
            cost,
            ..Query::cmc(8, 0.6)
        };
        let solve = |obs: &mut dyn Observer| {
            let before = alloc::snapshot();
            let answer = instance
                .solve(&query, &pool, &Deadline::unbounded(), obs)
                .expect("solves");
            (answer, alloc::snapshot().delta(&before).allocs)
        };
        let (cold, _) = solve(&mut NoopObserver);
        let (warm, allocs) = solve(&mut NoopObserver);
        assert_eq!(warm, cold, "{cost:?}: the parked lattice changes no answer");
        eprintln!("warm CMC solve, {cost:?} cost: {allocs} allocations");
        assert!(
            allocs < MAX_ALLOCS,
            "warm CMC solve ({cost:?} cost) made {allocs} allocations (bound {MAX_ALLOCS})"
        );

        let (mut metrics, mut spans) = (MetricsRecorder::new(), SpanProfiler::new());
        let mut traced = Fanout::new();
        traced.attach(&mut metrics).attach(&mut spans);
        let stacks = [
            ("metrics + spans", solve(&mut traced)),
            ("flight recorder", solve(&mut FlightRecorder::new())),
        ];
        for (stack, (answer, stack_allocs)) in stacks {
            assert_eq!(
                answer, warm,
                "{cost:?}, {stack}: an observer changes no answer"
            );
            let extra = stack_allocs.saturating_sub(allocs);
            assert!(
                extra <= MAX_OBSERVER_ALLOCS,
                "{stack} added {extra} allocations to a warm CMC solve ({cost:?} cost, \
                 bound {MAX_OBSERVER_ALLOCS})"
            );
        }
    }
}
