//! Property tests for the theorem-level guarantees: solution size bounds,
//! coverage requirements, and the exact solver's optimality, on random
//! instances that always satisfy Definition 1 (universe set present).

use proptest::prelude::*;
use scwsc::prelude::*;
use scwsc::sets::algorithms::cmc::Levels;
use scwsc::sets::algorithms::CmcOutcome;

/// Fig. 2 CWSC, serial and without a deadline.
fn solve_cwsc(system: &SetSystem, k: usize, coverage: f64) -> Result<Solution, EngineError> {
    let pool = ThreadPool::new(Threads::serial());
    cwsc(
        system,
        k,
        coverage,
        &pool,
        &Deadline::unbounded(),
        &mut Stats::new(),
    )
    .map(|out| out.expect_complete("unbounded deadline"))
}

/// Fig. 1 CMC, serial and without a deadline.
fn solve_cmc(system: &SetSystem, params: &CmcParams) -> Result<CmcOutcome, EngineError> {
    let pool = ThreadPool::new(Threads::serial());
    cmc(
        system,
        params,
        &pool,
        &Deadline::unbounded(),
        &mut Stats::new(),
    )
    .map(|out| out.expect_complete("unbounded deadline"))
}

/// The exact optimum at coverage fraction `coverage`.
fn optimum(system: &SetSystem, k: usize, coverage: f64) -> Option<Solution> {
    let target = coverage_target(system.num_elements(), coverage);
    exact_optimal(system, k, target, &mut NoopObserver)
}

fn arb_system() -> impl Strategy<Value = SetSystem> {
    (2usize..=14, 0usize..=12).prop_flat_map(|(n, sets)| {
        let set = (
            proptest::collection::btree_set(0u32..n as u32, 1..=n),
            0u32..100,
        );
        proptest::collection::vec(set, sets).prop_map(move |sets| {
            let mut b = SetSystem::builder(n);
            for (members, cost) in sets {
                b.add_set(members, f64::from(cost));
            }
            b.add_universe_set(120.0);
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// CWSC always returns at most k sets meeting the full coverage
    /// requirement when a universe set exists, and the independent
    /// verifier agrees.
    #[test]
    fn cwsc_respects_definition1(
        system in arb_system(),
        k in 1usize..=6,
        coverage in 0.0f64..=1.0,
    ) {
        let sol = solve_cwsc(&system, k, coverage).unwrap();
        let req = Requirements::new(&system, k, coverage);
        let v = verify(&system, &sol, req);
        prop_assert!(v.is_valid(), "{:?}", v);
    }

    /// Theorem 4: classic CMC returns at most 5k sets covering at least
    /// ⌈(1−1/e)·ŝ·n⌉ elements.
    #[test]
    fn cmc_classic_theorem4_bounds(
        system in arb_system(),
        k in 1usize..=5,
        coverage in 0.0f64..=1.0,
    ) {
        let params = CmcParams::classic(k, coverage, 1.0);
        let out = solve_cmc(&system, &params).unwrap();
        prop_assert!(out.solution.size() <= 5 * k);
        let target = coverage_target(
            system.num_elements(),
            coverage * CMC_COVERAGE_DISCOUNT,
        );
        prop_assert!(out.solution.covered() >= target);
        // Budget reporting is consistent: every selected set fits it.
        for &id in out.solution.sets() {
            prop_assert!(system.cost(id).value() <= out.final_budget + 1e-9);
        }
    }

    /// Theorem 5: the ε-variant returns at most (1+ε)k sets.
    #[test]
    fn cmc_epsilon_theorem5_size(
        system in arb_system(),
        k in 1usize..=5,
        eps in 0.25f64..=3.0,
    ) {
        let params = CmcParams::epsilon(k, 0.8, 1.0, eps);
        let out = solve_cmc(&system, &params).unwrap();
        let bound = ((1.0 + eps) * k as f64).floor() as usize;
        prop_assert!(
            out.solution.size() <= bound.max(k),
            "{} sets for k={} eps={}",
            out.solution.size(), k, eps
        );
    }

    /// Level partitions: every cost at or below the budget lands in
    /// exactly one level; costs above the budget land in none; quotas sum
    /// within the schedule's bound.
    #[test]
    fn level_partition_is_total_below_budget(
        budget in 0.5f64..1000.0,
        k in 1usize..=32,
        cost in 0.0f64..2000.0,
    ) {
        let levels = Levels::build(LevelSchedule::Classic, budget, k);
        match levels.level_of(cost) {
            Some(level) => {
                prop_assert!(cost <= budget + 1e-9);
                prop_assert!(level < levels.len());
            }
            None => prop_assert!(cost > budget),
        }
        prop_assert!(levels.max_selections() <= 5 * k);
    }

    /// The exact solver never costs more than any greedy solution for the
    /// same (k, coverage), and its solutions verify.
    #[test]
    fn exact_is_a_lower_bound(
        system in arb_system(),
        k in 1usize..=4,
        coverage in 0.0f64..=1.0,
    ) {
        let opt = optimum(&system, k, coverage).unwrap();
        let req = Requirements::new(&system, k, coverage);
        prop_assert!(verify(&system, &opt, req).is_valid());
        let greedy = solve_cwsc(&system, k, coverage).unwrap();
        prop_assert!(opt.total_cost() <= greedy.total_cost());
    }

    /// Weighted set cover (no size bound) never costs more than CWSC with
    /// a size bound — the size constraint is what costs money.
    #[test]
    fn size_bound_never_decreases_cost(
        system in arb_system(),
        k in 1usize..=5,
        coverage in 0.0f64..=1.0,
    ) {
        let unbounded = greedy_weighted_set_cover(&system, coverage, &mut Stats::new()).unwrap();
        if let Ok(bounded) = solve_cwsc(&system, k, coverage) {
            // Both are greedy heuristics, so this is not a theorem — but
            // the *optimal* unbounded cost is a lower bound; use the exact
            // solver with k = number of sets as the unbounded optimum.
            let opt_unbounded = optimum(&system, system.num_sets(), coverage).unwrap();
            prop_assert!(opt_unbounded.total_cost() <= bounded.total_cost());
            // And sanity: the greedy unbounded solution meets coverage.
            let req = Requirements::new(&system, unbounded.size().max(1), coverage);
            prop_assert!(verify(&system, &unbounded, req).is_valid());
        }
    }

    /// Budgeted max coverage respects its budget.
    #[test]
    fn budgeted_respects_budget(system in arb_system(), budget in 0.0f64..300.0) {
        let sol = budgeted_max_coverage(&system, budget, None, &mut Stats::new());
        prop_assert!(sol.total_cost().value() <= budget + 1e-9);
    }
}
