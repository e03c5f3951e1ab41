//! Every concrete number the paper derives from its running example
//! (Tables I–II, the introduction, and the Section V walkthroughs),
//! checked end to end through the public API.

use scwsc::data::{entities_table, table2_pattern};
use scwsc::prelude::*;

/// The exact optimum at coverage fraction `coverage`.
fn optimum(system: &SetSystem, k: usize, coverage: f64) -> Option<Solution> {
    let target = coverage_target(system.num_elements(), coverage);
    exact_optimal(system, k, target, &mut NoopObserver)
}

fn materialized() -> (Table, scwsc::patterns::MaterializedPatterns) {
    let t = entities_table();
    let m = enumerate_all(&t, CostFn::Max);
    (t, m)
}

/// "The solution to the partial weighted set cover problem would return
/// the 7 sets/patterns P3, P5, P6, P8, P10, P12, P13, with a total cost
/// of 24."
#[test]
fn intro_weighted_set_cover_solution() {
    let (t, m) = materialized();
    let sol = greedy_weighted_set_cover(&m.system, 9.0 / 16.0, &mut Stats::new()).unwrap();
    assert_eq!(sol.total_cost().value(), 24.0);
    assert_eq!(sol.size(), 7);
    let chosen: Vec<Pattern> = m.solution_patterns(&sol).into_iter().cloned().collect();
    for number in [3usize, 5, 6, 8, 10, 12, 13] {
        let p = table2_pattern(&t, number).unwrap();
        assert!(chosen.contains(&p), "P{number} missing from {chosen:?}");
    }
}

/// "If k = 2 ... the optimal solution consists of sets P6 and P16, with a
/// total cost of 27."
#[test]
fn intro_size_constrained_optimum() {
    let (t, m) = materialized();
    let sol = optimum(&m.system, 2, 9.0 / 16.0).unwrap();
    assert_eq!(sol.total_cost().value(), 27.0);
    let chosen: Vec<Pattern> = m.solution_patterns(&sol).into_iter().cloned().collect();
    assert!(chosen.contains(&table2_pattern(&t, 6).unwrap()));
    assert!(chosen.contains(&table2_pattern(&t, 16).unwrap()));
}

/// "If we wanted the cheapest solution with k = 2 sets, without a
/// constraint on the number of entities covered, the solution would
/// consist of P6 and P8, which cover only a fraction of 3/16 entities."
#[test]
fn intro_cheapest_two_sets() {
    let (t, m) = materialized();
    // The cheapest pair is exactly the optimum for a 3/16 requirement.
    let sol = optimum(&m.system, 2, 3.0 / 16.0).unwrap();
    assert_eq!(sol.total_cost().value(), 5.0); // P6 (3) + P8 (2)
    assert_eq!(sol.covered(), 3);
    let chosen: Vec<Pattern> = m.solution_patterns(&sol).into_iter().cloned().collect();
    assert!(chosen.contains(&table2_pattern(&t, 6).unwrap()));
    assert!(chosen.contains(&table2_pattern(&t, 8).unwrap()));
}

/// "If we wanted any solution with k = 2 sets, and a 9/16 coverage
/// requirement, the solution returned (e.g., P11 and P15) has a high cost
/// (of 120)."
#[test]
fn intro_coverage_only_solution_is_expensive() {
    let (t, m) = materialized();
    let p11 = m.id_of(&table2_pattern(&t, 11).unwrap()).unwrap();
    let p15 = m.id_of(&table2_pattern(&t, 15).unwrap()).unwrap();
    let sol = Solution::from_sets(&m.system, vec![p11, p15]);
    assert_eq!(sol.total_cost().value(), 120.0);
    assert!(
        sol.covered() >= 9,
        "it does satisfy the coverage requirement"
    );
}

/// Section V-B walkthrough: CWSC picks P16 (gain 8/24) then P3 (gain 2/4).
#[test]
fn cwsc_walkthrough_selects_p16_then_p3() {
    let (t, m) = materialized();
    let (pool, deadline) = (ThreadPool::new(Threads::serial()), Deadline::unbounded());
    let sol = cwsc(
        &m.system,
        2,
        9.0 / 16.0,
        &pool,
        &deadline,
        &mut Stats::new(),
    )
    .unwrap()
    .expect_complete("unbounded deadline");
    let chosen = m.solution_patterns(&sol);
    assert_eq!(chosen[0], &table2_pattern(&t, 16).unwrap());
    assert_eq!(chosen[1], &table2_pattern(&t, 3).unwrap());
    assert_eq!(sol.total_cost().value(), 28.0);
    assert_eq!(sol.covered(), 10);
}

/// Section V-A walkthrough, first budget guess: "Since the two cheapest
/// patterns have a total cost of five, we use B = 5 in the first
/// iteration" — with k = 2 the levels are (2.5, 5] and [0, 2.5].
#[test]
fn cmc_walkthrough_initial_budget() {
    let (_, m) = materialized();
    assert_eq!(m.system.k_cheapest_cost(2).value(), 5.0); // P8 (2) + P13 or P6 (3)
    let levels = scwsc::sets::algorithms::cmc::Levels::build(LevelSchedule::Classic, 5.0, 2);
    assert_eq!(levels.len(), 2);
    assert_eq!(levels.quota(0), 2);
    assert_eq!(levels.quota(1), 2);
    // "H1 with costs between 3 and 5, and H2 with costs below three" --
    // i.e. the (2.5, 5] and [0, 2.5] bands over integer costs.
    assert_eq!(levels.level_of(4.0), Some(0));
    assert_eq!(levels.level_of(2.0), Some(1));
    assert_eq!(levels.level_of(5.5), None);
}

/// The paper's worked CMC run targets 9 records ((1−1/e)ŝ = 9/16) and
/// succeeds once B reaches 20.
#[test]
fn cmc_walkthrough_needs_budget_twenty() {
    let (_, m) = materialized();
    // The paper's example interprets 9/16 as the *discounted* target, so
    // run with the discount disabled and ŝ = 9/16 directly.
    let params = CmcParams {
        discount_coverage: false,
        ..CmcParams::classic(2, 9.0 / 16.0, 1.0)
    };
    let mut stats = Stats::new();
    let (pool, deadline) = (ThreadPool::new(Threads::serial()), Deadline::unbounded());
    let out = cmc(&m.system, &params, &pool, &deadline, &mut stats)
        .unwrap()
        .expect_complete("unbounded deadline");
    assert!(out.solution.covered() >= 9);
    assert_eq!(out.final_budget, 20.0, "B doubles 5 -> 10 -> 20");
    assert_eq!(stats.budget_guesses, 3);
    assert!(out.solution.size() <= 5 * 2);
}

/// Table VI's shape on the entities data: more coverage, more patterns.
#[test]
fn wsc_needs_more_patterns_at_higher_coverage() {
    let (_, m) = materialized();
    let mut sizes = Vec::new();
    for s in [0.5, 0.7, 0.9] {
        let sol = greedy_weighted_set_cover(&m.system, s, &mut Stats::new()).unwrap();
        sizes.push(sol.size());
    }
    assert!(sizes[0] <= sizes[1] && sizes[1] <= sizes[2], "{sizes:?}");
}
