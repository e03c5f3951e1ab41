//! Allocation guard for the optimized CMC lattice walk (Fig. 4).
//!
//! A warm `PatternInstance` — one whose earlier solves grew and parked the
//! lattice — answers a CMC query without materializing any node, so each
//! solve should allocate per-solve and per-guess arrays, not per pop: a
//! solve pops thousands of times, so one allocation per pop breaks the
//! bound below. Checked under every cost model, since each walks a
//! different share of the lattice.
//!
//! The counting allocator is process-wide, so this binary holds one test.

use scwsc::data::lbl::LblConfig;
use scwsc::patterns::PatternInstance;
use scwsc::sets::telemetry::alloc::{self, CountingAlloc};
use scwsc::sets::{CostModel, Deadline, NoopObserver, Query, Solver, ThreadPool, Threads};

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations one warm solve may make.
const MAX_ALLOCS: u64 = 4_000;

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
        let solve = || {
            instance
                .solve(&query, &pool, &Deadline::unbounded(), &mut NoopObserver)
                .expect("solves")
        };
        let cold = solve();
        let before = alloc::snapshot();
        let warm = solve();
        let allocs = alloc::snapshot().delta(&before).allocs;
        assert_eq!(warm, cold, "{cost:?}: the parked lattice changes no answer");
        eprintln!("warm CMC solve, {cost:?} cost: {allocs} allocations");
        assert!(
            allocs < MAX_ALLOCS,
            "warm CMC solve ({cost:?} cost) made {allocs} allocations (bound {MAX_ALLOCS})"
        );
    }
}
