//! The prior-art heuristics the paper compares against (Sections III and
//! VI-C): each optimizes two of {coverage, cost, size} but not all three.

use crate::cover_state::CoverState;
use crate::set_system::{coverage_target, SetId, SetSystem};
use crate::solution::{Solution, SolveError};
use crate::telemetry::{audit, pack_k_target, Event, Observer, PhaseSpan, TraceId, PHASE_TOTAL};

/// Greedy *partial weighted set cover*: repeatedly picks the set with the
/// highest marginal gain until the coverage target is met (optimizes cost
/// and coverage, ignores size — Table VI's baseline).
pub fn greedy_weighted_set_cover<O: Observer + ?Sized>(
    system: &SetSystem,
    coverage_fraction: f64,
    obs: &mut O,
) -> Result<Solution, SolveError> {
    let target = coverage_target(system.num_elements(), coverage_fraction);
    obs.on(&Event::TraceStarted(
        TraceId::mint(
            "greedy_wsc",
            system.num_elements() as u64,
            pack_k_target(0, target),
        ),
        "greedy_wsc",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    let result = wsc_run(system, coverage_fraction, obs);
    span.exit(obs);
    result
}

fn wsc_run<O: Observer + ?Sized>(
    system: &SetSystem,
    coverage_fraction: f64,
    obs: &mut O,
) -> Result<Solution, SolveError> {
    let target = coverage_target(system.num_elements(), coverage_fraction);
    obs.on(&Event::GuessStarted(None));
    let mut state = CoverState::new(system);
    obs.on(&Event::BenefitComputed(system.num_sets() as u64));
    let mut chosen: Vec<SetId> = Vec::new();
    let mut rem = target;
    while rem > 0 {
        let top = state.top_gain(audit::TOP, |_| true);
        let Some((q, newly)) = audit::pick_cover(&mut state, obs, audit::ORDER_GAIN, &top) else {
            return Err(SolveError::NoSolution);
        };
        chosen.push(q);
        rem = rem.saturating_sub(newly);
    }
    Ok(Solution::from_sets(system, chosen))
}

/// Greedy *maximum coverage*: picks exactly up to `k` sets with the largest
/// marginal benefit (optimizes coverage and size, ignores cost). The
/// classic `(1−1/e)` heuristic of \[10\].
pub fn greedy_max_coverage<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    obs: &mut O,
) -> Solution {
    obs.on(&Event::TraceStarted(
        TraceId::mint(
            "greedy_max_cov",
            system.num_elements() as u64,
            pack_k_target(k, 0),
        ),
        "greedy_max_cov",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    obs.on(&Event::GuessStarted(None));
    let mut state = CoverState::new(system);
    obs.on(&Event::BenefitComputed(system.num_sets() as u64));
    let mut chosen: Vec<SetId> = Vec::new();
    for _ in 0..k {
        let top = state.top_benefit(audit::TOP, |_| true);
        let Some((q, _)) = audit::pick_cover(&mut state, obs, audit::ORDER_BENEFIT, &top) else {
            break;
        };
        chosen.push(q);
    }
    span.exit(obs);
    Solution::from_sets(system, chosen)
}

/// Greedy *partial maximum coverage*: picks sets with the largest marginal
/// benefit until the coverage target is met, ignoring cost entirely. This
/// is the Section VI-C comparator whose solutions cost up to 10× more than
/// CWSC/CMC.
pub fn greedy_partial_max_coverage<O: Observer + ?Sized>(
    system: &SetSystem,
    coverage_fraction: f64,
    obs: &mut O,
) -> Result<Solution, SolveError> {
    obs.on(&Event::TraceStarted(
        TraceId::mint(
            "greedy_pmc",
            system.num_elements() as u64,
            pack_k_target(0, coverage_target(system.num_elements(), coverage_fraction)),
        ),
        "greedy_pmc",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    let result = pmc_run(system, coverage_fraction, obs);
    span.exit(obs);
    result
}

fn pmc_run<O: Observer + ?Sized>(
    system: &SetSystem,
    coverage_fraction: f64,
    obs: &mut O,
) -> Result<Solution, SolveError> {
    let target = coverage_target(system.num_elements(), coverage_fraction);
    obs.on(&Event::GuessStarted(None));
    let mut state = CoverState::new(system);
    obs.on(&Event::BenefitComputed(system.num_sets() as u64));
    let mut chosen: Vec<SetId> = Vec::new();
    let mut rem = target;
    while rem > 0 {
        let top = state.top_benefit(audit::TOP, |_| true);
        let Some((q, newly)) = audit::pick_cover(&mut state, obs, audit::ORDER_BENEFIT, &top)
        else {
            return Err(SolveError::NoSolution);
        };
        chosen.push(q);
        rem = rem.saturating_sub(newly);
    }
    Ok(Solution::from_sets(system, chosen))
}

/// Greedy *budgeted maximum coverage* (Khuller–Moss–Naor \[11\]): picks sets
/// by marginal gain while the running total stays within `budget`
/// (optimizes coverage under a cost cap, ignores size). Section III shows
/// by counter-example that truncating this to `O(k)` picks can cover
/// arbitrarily poorly; `max_sets` exposes that truncation for tests.
pub fn budgeted_max_coverage<O: Observer + ?Sized>(
    system: &SetSystem,
    budget: f64,
    max_sets: Option<usize>,
    obs: &mut O,
) -> Solution {
    obs.on(&Event::TraceStarted(
        TraceId::mint(
            "budgeted_max_cov",
            system.num_elements() as u64,
            budget.to_bits(),
        ),
        "budgeted_max_cov",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    obs.on(&Event::GuessStarted(None));
    let mut state = CoverState::new(system);
    obs.on(&Event::BenefitComputed(system.num_sets() as u64));
    let mut chosen: Vec<SetId> = Vec::new();
    let mut spent = 0.0f64;
    let cap = max_sets.unwrap_or(usize::MAX);
    while chosen.len() < cap {
        let top = state.top_gain(audit::TOP, |id| spent + system.cost(id).value() <= budget);
        let Some((q, _)) = audit::pick_cover(&mut state, obs, audit::ORDER_GAIN, &top) else {
            break;
        };
        chosen.push(q);
        spent += system.cost(q).value();
    }
    span.exit(obs);
    Solution::from_sets(system, chosen)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{MetricsRecorder, NoopObserver};

    fn system() -> SetSystem {
        let mut b = SetSystem::builder(8);
        b.add_set([0, 1], 1.0) // gain 2
            .add_set([2, 3], 1.0) // gain 2
            .add_set([0, 1, 2, 3, 4, 5], 30.0) // gain 0.2
            .add_set([4, 5, 6, 7], 40.0) // gain 0.1
            .add_universe_set(100.0);
        b.build().unwrap()
    }

    #[test]
    fn wsc_minimizes_cost_ignoring_size() {
        let sol = greedy_weighted_set_cover(&system(), 0.5, &mut NoopObserver).unwrap();
        // Picks the two cheap pairs: cost 2, 2 sets.
        assert_eq!(sol.sets(), &[0, 1]);
        assert_eq!(sol.total_cost().value(), 2.0);
    }

    #[test]
    fn wsc_needs_many_sets_for_high_coverage() {
        let sol = greedy_weighted_set_cover(&system(), 1.0, &mut NoopObserver).unwrap();
        assert!(sol.covered() == 8);
        assert!(sol.size() >= 3, "cheap-first needs several sets");
    }

    #[test]
    fn wsc_fails_without_feasibility() {
        let mut b = SetSystem::builder(4);
        b.add_set([0], 1.0);
        let sys = b.build().unwrap();
        assert_eq!(
            greedy_weighted_set_cover(&sys, 1.0, &mut NoopObserver),
            Err(SolveError::NoSolution)
        );
    }

    #[test]
    fn max_coverage_ignores_cost() {
        let sol = greedy_max_coverage(&system(), 1, &mut NoopObserver);
        // Universe has benefit 8: chosen despite cost 100.
        assert_eq!(sol.sets(), &[4]);
        assert_eq!(sol.covered(), 8);
        assert_eq!(sol.total_cost().value(), 100.0);
    }

    #[test]
    fn max_coverage_stops_when_everything_covered() {
        let sol = greedy_max_coverage(&system(), 5, &mut NoopObserver);
        assert_eq!(
            sol.size(),
            1,
            "nothing left to cover after the universe set"
        );
    }

    #[test]
    fn partial_max_coverage_expensive_but_covering() {
        let sol = greedy_partial_max_coverage(&system(), 0.75, &mut NoopObserver).unwrap();
        assert!(sol.covered() >= 6);
        assert_eq!(sol.sets(), &[4], "benefit-greedy grabs the universe set");
        assert_eq!(sol.total_cost().value(), 100.0);
    }

    #[test]
    fn budgeted_respects_budget() {
        let sol = budgeted_max_coverage(&system(), 2.0, None, &mut NoopObserver);
        assert_eq!(sol.sets(), &[0, 1]);
        assert!(sol.total_cost().value() <= 2.0);
    }

    #[test]
    fn budgeted_skips_unaffordable_high_gain() {
        let sol = budgeted_max_coverage(&system(), 31.0, None, &mut NoopObserver);
        // After the two pairs (cost 2) the 30-cost set no longer fits 31.
        assert!(sol.total_cost().value() <= 31.0);
        assert!(sol.sets().contains(&0) && sol.sets().contains(&1));
    }

    /// The Section III counter-example: truncated budgeted max coverage
    /// covers `ck` elements while the optimum covers all `Ck`.
    #[test]
    fn budgeted_truncation_counterexample() {
        let (c, k, big_c) = (2usize, 3usize, 20usize);
        let n = big_c * k;
        let mut b = SetSystem::builder(n as u32 as usize);
        // ck singletons of weight 1 (gain 1.0)...
        for e in 0..(c * k) {
            b.add_set([e as u32], 1.0);
        }
        // ...and k blocks of C elements with weight C+1 (gain C/(C+1) < 1).
        for blk in 0..k {
            let lo = (blk * big_c) as u32;
            b.add_set(lo..lo + big_c as u32, (big_c + 1) as f64);
        }
        let sys = b.build().unwrap();
        let budget = (k * (big_c + 1)) as f64; // enough for the optimum
        let truncated = budgeted_max_coverage(&sys, budget, Some(c * k), &mut NoopObserver);
        assert_eq!(
            truncated.covered(),
            c * k,
            "greedy grabs only the singletons"
        );
        // The optimum (the k blocks) covers everything.
        let blocks: Vec<SetId> = (c * k..c * k + k).map(|i| i as SetId).collect();
        assert_eq!(sys.coverage_of(&blocks).count_ones(), n);
    }

    #[test]
    fn stats_count_one_pass() {
        let mut metrics = MetricsRecorder::new();
        let _ = greedy_weighted_set_cover(&system(), 0.5, &mut metrics);
        assert_eq!(metrics.benefits_computed, 5);
        assert_eq!(metrics.selections, 2);
    }
}
