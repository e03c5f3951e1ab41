//! The paper's algorithms over arbitrary set systems.
//!
//! * [`cwsc()`] — Concise Weighted Set Cover (Fig. 2): at most `k` sets, no
//!   cost guarantee, excellent in practice.
//! * [`cmc()`] — Cheap Max Coverage (Fig. 1 and the Section V-A3 ε-variant):
//!   up to `5k` (or `(1+ε)k`) sets with a `log k` cost guarantee, covering
//!   `(1−1/e)·ŝ·n` elements.
//! * [`baselines`] — the two-out-of-three heuristics from prior work that
//!   Section VI compares against.
//! * [`exact`] — branch-and-bound optimum for small instances (§VI-D).

pub mod baselines;
pub mod cmc;
pub mod cwsc;
pub mod exact;

pub use baselines::{
    budgeted_max_coverage, greedy_max_coverage, greedy_partial_max_coverage,
    greedy_weighted_set_cover,
};
pub use cmc::{cmc, CmcOutcome, CmcParams, LevelSchedule, Levels, CMC_COVERAGE_DISCOUNT};
pub use cwsc::cwsc;
pub use exact::exact_optimal;

use crate::engine::{Certificate, Deadline, DegradeReason, Degraded};
use crate::set_system::{SetId, SetSystem};
use crate::solution::Solution;
use crate::telemetry::{Event, Observer};

/// Packages an expired round's partial selection as a degraded
/// [`Solution`] with its certificate, noting the decision in the audit
/// ledger first. `quotas_exhausted` is CMC's level claim (empty for CWSC,
/// which has no cost levels).
pub(crate) fn degrade<O: Observer + ?Sized>(
    system: &SetSystem,
    partial: Vec<SetId>,
    quotas_exhausted: Vec<usize>,
    reason: DegradeReason,
    target: usize,
    deadline: &Deadline,
    obs: &mut O,
) -> Degraded<Solution> {
    let solution = Solution::from_sets(system, partial);
    obs.on(&Event::DegradeDecided(
        reason.as_str(),
        solution.covered() as u64,
        target as u64,
    ));
    let certificate = Certificate {
        sets_used: solution.size(),
        covered: solution.covered(),
        target,
        total_cost: solution.total_cost().value(),
        quotas_exhausted,
        ticks: deadline.ticks(),
        reason,
    };
    Degraded {
        partial: solution,
        certificate,
    }
}
