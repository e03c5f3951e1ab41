//! The serving-layer solver abstraction (DESIGN.md §17).
//!
//! `scwsc_serve` answers many `(algorithm, k, ŝ, cost_fn, deadline)`
//! queries against one instance loaded at startup. This module defines
//! the seam between the two: a [`Query`] describes one request in
//! instance-independent terms, an [`Answer`] is the instance-independent
//! result, and a [`Solver`] is an immutable, `Send + Sync` instance
//! handle that turns one into the other under a [`Deadline`].
//!
//! The trait is object-safe on purpose — the server holds an
//! `Arc<dyn Solver>` so a set-system instance and a pattern-table
//! instance (see `scwsc_patterns::PatternInstance`) serve through the
//! same dispatch path. Implementations must verify their own degraded
//! certificates ([`Answer::certified`]): the service's degrade-don't-drop
//! contract promises callers a *checked* partial answer, and only the
//! instance knows how to recompute the claims.

use crate::algorithms::{cmc, cwsc, CmcParams};
use crate::engine::{Deadline, EngineError, SolveOutcome};
use crate::parallel::ThreadPool;
use crate::set_system::SetSystem;
use crate::solution::verify_certificate;
use crate::telemetry::Observer;
use std::sync::Arc;

/// Which solver family a query runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Algorithm {
    /// CWSC (Fig. 2): at most `k` sets, coverage met, no cost guarantee.
    Cwsc,
    /// CMC (Fig. 1): relaxed size/coverage with a logarithmic cost bound.
    Cmc,
}

impl Algorithm {
    /// Stable lowercase name used on the wire and in traces.
    pub fn as_str(self) -> &'static str {
        match self {
            Algorithm::Cwsc => "cwsc",
            Algorithm::Cmc => "cmc",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<Algorithm> {
        match s {
            "cwsc" => Some(Algorithm::Cwsc),
            "cmc" => Some(Algorithm::Cmc),
            _ => None,
        }
    }
}

/// Instance-independent name for a pattern weight function. Set-system
/// instances carry explicit weights and ignore it; pattern instances map
/// it to `scwsc_patterns::CostFn`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CostModel {
    /// Maximum covered measure — the paper's default.
    Max,
    /// Sum of covered measures.
    Sum,
    /// Mean of covered measures.
    Mean,
    /// Number of covered records.
    Count,
}

impl CostModel {
    /// Stable lowercase name used on the wire and in cache keys.
    pub fn as_str(self) -> &'static str {
        match self {
            CostModel::Max => "max",
            CostModel::Sum => "sum",
            CostModel::Mean => "mean",
            CostModel::Count => "count",
        }
    }

    /// Parses the wire name.
    pub fn parse(s: &str) -> Option<CostModel> {
        match s {
            "max" => Some(CostModel::Max),
            "sum" => Some(CostModel::Sum),
            "mean" => Some(CostModel::Mean),
            "count" => Some(CostModel::Count),
            _ => None,
        }
    }
}

/// One solve request in instance-independent terms. Deadlines are *not*
/// part of the query: the service derives each request's [`Deadline`]
/// from the caller's deadline minus observed queue wait, so the same
/// query under different load is still the same cache entry.
#[derive(Debug, Clone, PartialEq)]
pub struct Query {
    /// Solver family.
    pub algorithm: Algorithm,
    /// Size bound `k` (Definition 1).
    pub k: usize,
    /// Coverage fraction `ŝ` in `(0, 1]`.
    pub coverage: f64,
    /// CMC budget growth factor `b` (ignored by CWSC).
    pub b: f64,
    /// CMC ε for the `(1+ε)k` schedule (ignored by CWSC).
    pub eps: f64,
    /// Pattern weight function (ignored by set-system instances).
    pub cost: CostModel,
}

impl Query {
    /// A CWSC query with the paper-default cost model.
    pub fn cwsc(k: usize, coverage: f64) -> Query {
        Query {
            algorithm: Algorithm::Cwsc,
            k,
            coverage,
            b: 1.0,
            eps: 1.0,
            cost: CostModel::Max,
        }
    }

    /// A CMC query with the paper-default `b = ε = 1` and cost model.
    pub fn cmc(k: usize, coverage: f64) -> Query {
        Query {
            algorithm: Algorithm::Cmc,
            ..Query::cwsc(k, coverage)
        }
    }

    /// The CMC parameter block this query describes (ε schedule,
    /// discounted coverage target — the guaranteed Fig. 1 form).
    pub fn cmc_params(&self) -> CmcParams {
        CmcParams::epsilon(self.k, self.coverage, self.b, self.eps)
    }
}

/// The instance-independent result of one solve: what was chosen, what it
/// covers, what it costs — and, for degraded outcomes, whether the
/// instance re-verified the certificate's claims.
#[derive(Debug, Clone, PartialEq)]
pub struct Answer {
    /// Sets (or patterns) selected.
    pub size: usize,
    /// Elements (or rows) covered.
    pub covered: usize,
    /// Coverage the solver was required to reach.
    pub target: usize,
    /// Total cost of the selection.
    pub total_cost: f64,
    /// Human-readable labels of the selected sets/patterns, in selection
    /// order (set ids for set systems, pattern syntax for tables).
    pub labels: Vec<String>,
    /// `Some(result)` when the outcome degraded and the instance
    /// re-checked the certificate against the partial solution; `None`
    /// for complete outcomes.
    pub certified: Option<bool>,
}

/// An immutable instance handle that answers [`Query`]s under a
/// [`Deadline`]. See the module docs for the contract.
pub trait Solver: Send + Sync {
    /// Short instance description for logs and the serve banner.
    fn describe(&self) -> String;

    /// Universe size (elements or rows) — what coverage fractions are
    /// relative to.
    fn elements(&self) -> usize;

    /// Runs one query. Degraded outcomes must arrive with
    /// [`Answer::certified`] populated by an independent re-check of the
    /// certificate.
    fn solve(
        &self,
        query: &Query,
        pool: &ThreadPool,
        deadline: &Deadline,
        obs: &mut dyn Observer,
    ) -> Result<SolveOutcome<Answer>, EngineError>;
}

/// A [`Solver`] over a plain weighted set system, shared behind [`Arc`]
/// so every connection thread serves from the same immutable instance.
#[derive(Debug, Clone)]
pub struct SystemInstance {
    system: Arc<SetSystem>,
}

impl SystemInstance {
    /// Wraps a set system for serving.
    pub fn new(system: Arc<SetSystem>) -> SystemInstance {
        SystemInstance { system }
    }

    /// The underlying set system.
    pub fn system(&self) -> &SetSystem {
        &self.system
    }
}

impl Solver for SystemInstance {
    fn describe(&self) -> String {
        format!(
            "set system: {} elements, {} sets",
            self.system.num_elements(),
            self.system.num_sets()
        )
    }

    fn elements(&self) -> usize {
        self.system.num_elements()
    }

    fn solve(
        &self,
        query: &Query,
        pool: &ThreadPool,
        deadline: &Deadline,
        obs: &mut dyn Observer,
    ) -> Result<SolveOutcome<Answer>, EngineError> {
        let to_answer = |solution: &crate::solution::Solution, target: usize| Answer {
            size: solution.size(),
            covered: solution.covered(),
            target,
            total_cost: solution.total_cost().value(),
            labels: solution.sets().iter().map(|s| format!("set#{s}")).collect(),
            certified: None,
        };
        match query.algorithm {
            Algorithm::Cwsc => {
                let target =
                    crate::set_system::coverage_target(self.system.num_elements(), query.coverage);
                let outcome = cwsc(&self.system, query.k, query.coverage, pool, deadline, obs)?;
                Ok(match outcome {
                    SolveOutcome::Complete(s) => SolveOutcome::Complete(to_answer(&s, target)),
                    SolveOutcome::Degraded(d) => {
                        let check = verify_certificate(&self.system, &d.partial, &d.certificate);
                        let mut answer = to_answer(&d.partial, d.certificate.target);
                        answer.certified = Some(check.is_valid());
                        SolveOutcome::Degraded(crate::engine::Degraded {
                            partial: answer,
                            certificate: d.certificate,
                        })
                    }
                })
            }
            Algorithm::Cmc => {
                let params = query.cmc_params();
                let target = params.coverage_target(self.system.num_elements());
                let outcome = cmc(&self.system, &params, pool, deadline, obs)?;
                Ok(match outcome {
                    SolveOutcome::Complete(o) => {
                        SolveOutcome::Complete(to_answer(&o.solution, target))
                    }
                    SolveOutcome::Degraded(d) => {
                        let check =
                            verify_certificate(&self.system, &d.partial.solution, &d.certificate);
                        let mut answer = to_answer(&d.partial.solution, d.certificate.target);
                        answer.certified = Some(check.is_valid());
                        SolveOutcome::Degraded(crate::engine::Degraded {
                            partial: answer,
                            certificate: d.certificate,
                        })
                    }
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Threads;

    fn instance() -> SystemInstance {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 3.0)
            .add_set([3, 4], 1.0)
            .add_set([5], 1.0)
            .add_universe_set(50.0);
        SystemInstance::new(Arc::new(b.build().unwrap()))
    }

    #[test]
    fn cwsc_query_completes_with_labels() {
        let inst = instance();
        let pool = ThreadPool::new(Threads::serial());
        let outcome = inst
            .solve(
                &Query::cwsc(2, 0.8),
                &pool,
                &Deadline::unbounded(),
                &mut crate::telemetry::NoopObserver,
            )
            .unwrap();
        assert!(outcome.is_complete());
        let answer = outcome.value();
        assert!(answer.size <= 2);
        assert!(answer.covered >= 5);
        assert_eq!(answer.labels.len(), answer.size);
        assert!(answer.certified.is_none());
    }

    #[test]
    fn cmc_degrades_with_verified_certificate_on_zero_tick_budget() {
        let inst = instance();
        let pool = ThreadPool::new(Threads::serial());
        let deadline = Deadline::unbounded().with_tick_budget(0);
        let outcome = inst
            .solve(
                &Query::cmc(2, 0.8),
                &pool,
                &deadline,
                &mut crate::telemetry::NoopObserver,
            )
            .unwrap();
        assert!(outcome.is_degraded());
        assert_eq!(outcome.value().certified, Some(true));
    }

    #[test]
    fn algorithm_and_cost_names_round_trip() {
        for a in [Algorithm::Cwsc, Algorithm::Cmc] {
            assert_eq!(Algorithm::parse(a.as_str()), Some(a));
        }
        for c in [
            CostModel::Max,
            CostModel::Sum,
            CostModel::Mean,
            CostModel::Count,
        ] {
            assert_eq!(CostModel::parse(c.as_str()), Some(c));
        }
        assert_eq!(Algorithm::parse("nope"), None);
        assert_eq!(CostModel::parse(""), None);
    }
}
