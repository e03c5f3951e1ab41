//! The pattern-table [`Solver`] implementation for the serving layer
//! (DESIGN.md §17).
//!
//! A [`PatternInstance`] owns a [`Table`] and builds its
//! [`InvertedIndex`] exactly once; each query then gets a throwaway
//! [`PatternSpace`] — same table, same shared index, the query's own
//! cost function — via [`PatternSpace::with_index`]. That keeps the
//! per-request cost at O(1) setup instead of an O(rows·attrs) re-index,
//! which is the whole point of loading the instance once behind `Arc`.
//!
//! The instance also parks the cost-independent half of the pattern
//! lattice between solves (a `LatticeStash`): pattern keys, row lists,
//! child lists and parent counts — about 26 bytes per node plus 4 per
//! row id and per child link, 3.3 MB for the full lattice of a 10k-row,
//! five-attribute table. Optimized CWSC and optimized CMC both walk it,
//! so a query of either algorithm materializes only the nodes no earlier
//! query of either reached. Nothing is built up front, so
//! [`PatternInstance::new`] costs what it did.

use crate::cost_fn::CostFn;
use crate::index::InvertedIndex;
use crate::lattice::LatticeStash;
use crate::opt_cmc::opt_cmc_stashed;
use crate::opt_cwsc::opt_cwsc_stashed;
use crate::pattern_solution::{verify_certificate_in, PatternSolution};
use crate::space::PatternSpace;
use crate::table::Table;
use scwsc_core::set_system::coverage_target;
use scwsc_core::solver::{Algorithm, Answer, CostModel, Query, Solver};
use scwsc_core::telemetry::Observer;
use scwsc_core::{Deadline, Degraded, EngineError, SolveOutcome, ThreadPool};
use std::sync::Arc;

/// A pattern-table instance handle: table + index built once, served
/// concurrently; only the parked lattice changes between solves. See
/// the module docs.
pub struct PatternInstance {
    table: Table,
    index: Arc<InvertedIndex>,
    lattice: LatticeStash,
}

impl PatternInstance {
    /// Indexes `table` once and wraps it for serving.
    pub fn new(table: Table) -> PatternInstance {
        let index = Arc::new(InvertedIndex::build(&table));
        PatternInstance {
            table,
            index,
            lattice: LatticeStash::default(),
        }
    }

    /// The underlying table.
    pub fn table(&self) -> &Table {
        &self.table
    }

    /// A per-query view sharing this instance's index.
    pub fn space(&self, cost: CostModel) -> PatternSpace<'_> {
        PatternSpace::with_index(&self.table, Arc::clone(&self.index), map_cost(cost))
    }
}

/// Maps the instance-independent cost name onto the pattern weight
/// functions. `LpNorm` is deliberately unreachable from the wire — it
/// takes a float parameter the canonicalized cache key has no stable
/// spelling for.
fn map_cost(cost: CostModel) -> CostFn {
    match cost {
        CostModel::Max => CostFn::Max,
        CostModel::Sum => CostFn::Sum,
        CostModel::Mean => CostFn::Mean,
        CostModel::Count => CostFn::Count,
    }
}

impl Solver for PatternInstance {
    fn describe(&self) -> String {
        format!(
            "pattern table: {} rows, {} attributes",
            self.table.num_rows(),
            self.table.num_attrs()
        )
    }

    fn elements(&self) -> usize {
        self.table.num_rows()
    }

    fn solve(
        &self,
        query: &Query,
        // Both lattice walks run on the calling thread.
        _pool: &ThreadPool,
        deadline: &Deadline,
        obs: &mut dyn Observer,
    ) -> Result<SolveOutcome<Answer>, EngineError> {
        let space = self.space(query.cost);
        let to_answer = |solution: &PatternSolution, target: usize| Answer {
            size: solution.size(),
            covered: solution.covered,
            target,
            total_cost: solution.total_cost,
            labels: solution
                .patterns
                .iter()
                .map(|p| p.display(&self.table))
                .collect(),
            certified: None,
        };
        let (outcome, target) = match query.algorithm {
            Algorithm::Cwsc => (
                opt_cwsc_stashed(
                    &space,
                    query.k,
                    query.coverage,
                    deadline,
                    obs,
                    Some(&self.lattice),
                    true,
                )?,
                coverage_target(self.table.num_rows(), query.coverage),
            ),
            Algorithm::Cmc => {
                let params = query.cmc_params();
                (
                    opt_cmc_stashed(&space, &params, deadline, obs, Some(&self.lattice), true)?,
                    params.coverage_target(self.table.num_rows()),
                )
            }
        };
        Ok(match outcome {
            SolveOutcome::Complete(s) => SolveOutcome::Complete(to_answer(&s, target)),
            SolveOutcome::Degraded(d) => {
                let check = verify_certificate_in(&space, &d.partial, &d.certificate);
                let mut answer = to_answer(&d.partial, d.certificate.target);
                answer.certified = Some(check.is_valid());
                SolveOutcome::Degraded(Degraded {
                    partial: answer,
                    certificate: d.certificate,
                })
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scwsc_core::telemetry::NoopObserver;
    use scwsc_core::Threads;

    fn instance() -> PatternInstance {
        let mut b = Table::builder(&["Type", "Location"], "Cost");
        b.push_row(&["A", "West"], 10.0).unwrap();
        b.push_row(&["B", "South"], 2.0).unwrap();
        b.push_row(&["B", "West"], 4.0).unwrap();
        b.push_row(&["A", "South"], 1.0).unwrap();
        PatternInstance::new(b.build())
    }

    #[test]
    fn serves_both_algorithms_from_one_index() {
        let inst = instance();
        let pool = ThreadPool::new(Threads::serial());
        for query in [Query::cwsc(2, 1.0), Query::cmc(2, 0.5)] {
            let outcome = inst
                .solve(&query, &pool, &Deadline::unbounded(), &mut NoopObserver)
                .unwrap();
            assert!(outcome.is_complete(), "{query:?}");
            let answer = outcome.value();
            assert_eq!(answer.labels.len(), answer.size);
            assert!(answer.covered >= answer.target.min(1));
        }
    }

    #[test]
    fn degraded_pattern_solve_carries_verified_certificate() {
        let inst = instance();
        let pool = ThreadPool::new(Threads::serial());
        let deadline = Deadline::unbounded().with_tick_budget(0);
        let outcome = inst
            .solve(&Query::cmc(2, 1.0), &pool, &deadline, &mut NoopObserver)
            .unwrap();
        assert!(outcome.is_degraded());
        assert_eq!(outcome.value().certified, Some(true));
    }

    #[test]
    fn per_query_spaces_share_the_index() {
        let inst = instance();
        let a = inst.space(CostModel::Max);
        let b = inst.space(CostModel::Count);
        assert!(Arc::ptr_eq(&a.index_handle(), &b.index_handle()));
        assert_ne!(a.cost_fn(), b.cost_fn());
    }
}
