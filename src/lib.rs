//! # scwsc — Size-Constrained Weighted Set Cover
//!
//! A from-scratch Rust implementation of *"Size-Constrained Weighted Set
//! Cover"* (Golab, Korn, Li, Saha, Srivastava; ICDE 2015): given `n`
//! elements, weighted sets over them, a size bound `k`, and a coverage
//! fraction `ŝ`, find at most `k` sets covering at least `ŝ·n` elements
//! at minimum total weight.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`sets`] (`scwsc-core`) — the problem over arbitrary set systems:
//!   CMC (Fig. 1, `5k`/`(1+ε)k` variants), CWSC (Fig. 2), prior-art
//!   baselines, an exact branch-and-bound solver, plus the incremental
//!   and multi-weight extensions from the paper's future-work section;
//! * [`patterns`] (`scwsc-patterns`) — the patterned-set special case:
//!   tables, the pattern lattice, and the optimized CWSC/CMC of §V-C;
//! * [`data`] (`scwsc-data`) — the paper's Table I example, a synthetic
//!   LBL-like trace generator, and the §VI-B weight perturbations.
//!
//! ```
//! use scwsc::prelude::*;
//!
//! // The paper's Table I data set and its §V-B worked example:
//! let table = scwsc::data::entities_table();
//! let space = PatternSpace::new(&table, CostFn::Max);
//! let pool = ThreadPool::new(Threads::serial());
//! let solution = opt_cwsc(&space, 2, 9.0 / 16.0, &pool, &Deadline::unbounded(), &mut Stats::new())
//!     .unwrap()
//!     .expect_complete("an unbounded deadline never expires");
//! assert_eq!(solution.size(), 2);
//! assert_eq!(solution.total_cost, 28.0); // P16 {B,ALL} + P3 {A,North}
//! ```

pub use scwsc_core as sets;
pub use scwsc_data as data;
pub use scwsc_patterns as patterns;

/// The most commonly used items, for glob import in examples and
/// applications.
pub mod prelude {
    pub use scwsc_core::algorithms::{
        budgeted_max_coverage, cmc, cwsc, exact_optimal, greedy_max_coverage,
        greedy_partial_max_coverage, greedy_weighted_set_cover, CmcParams, LevelSchedule,
        CMC_COVERAGE_DISCOUNT,
    };
    pub use scwsc_core::{
        coverage_target, verify, Deadline, EngineError, Fanout, JsonlSink, MetricsRecorder,
        NoopObserver, Observer, Requirements, SetSystem, Solution, SolveError, SolveOutcome, Stats,
        ThreadPool, Threads,
    };
    pub use scwsc_patterns::{
        enumerate_all, opt_cmc, opt_cwsc, CostFn, Pattern, PatternSolution, PatternSpace, Table,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn facade_reaches_all_crates() {
        let table = crate::data::entities_table();
        let space = PatternSpace::new(&table, CostFn::Max);
        let pool = ThreadPool::new(Threads::serial());
        let deadline = Deadline::unbounded();
        let sol = opt_cwsc(&space, 2, 9.0 / 16.0, &pool, &deadline, &mut Stats::new())
            .unwrap()
            .expect_complete("unbounded deadline");
        assert!(sol.covered >= 9);

        let mut b = SetSystem::builder(4);
        b.add_set([0, 1], 1.0).add_universe_set(5.0);
        let sys = b.build().unwrap();
        let sol = cwsc(&sys, 1, 0.5, &pool, &deadline, &mut Stats::new())
            .unwrap()
            .expect_complete("unbounded deadline");
        assert_eq!(sol.total_cost().value(), 1.0);
    }
}
