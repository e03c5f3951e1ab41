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
pub mod scan;

pub use baselines::{
    budgeted_max_coverage, greedy_max_coverage, greedy_partial_max_coverage,
    greedy_weighted_set_cover,
};
pub use cmc::{cmc, CmcOutcome, CmcParams, LevelSchedule, Levels, CMC_COVERAGE_DISCOUNT};
pub use cwsc::cwsc;
pub use exact::exact_optimal;
