//! Property tests for the optimized pattern algorithms (Figures 3–4) and
//! the future-work extensions on random tables.

use proptest::prelude::*;
use scwsc::prelude::*;
use scwsc::sets::incremental::IncrementalCover;

/// Fig. 3 optimized CWSC, serial and without a deadline.
fn solve_opt_cwsc(
    space: &PatternSpace<'_>,
    k: usize,
    coverage: f64,
) -> Result<PatternSolution, EngineError> {
    let pool = ThreadPool::new(Threads::serial());
    opt_cwsc(
        space,
        k,
        coverage,
        &pool,
        &Deadline::unbounded(),
        &mut Stats::new(),
    )
    .map(|out| out.expect_complete("unbounded deadline"))
}

/// Fig. 4 optimized CMC, serial and without a deadline.
fn solve_opt_cmc(
    space: &PatternSpace<'_>,
    params: &CmcParams,
) -> Result<PatternSolution, EngineError> {
    let pool = ThreadPool::new(Threads::serial());
    opt_cmc(
        space,
        params,
        &pool,
        &Deadline::unbounded(),
        &mut Stats::new(),
    )
    .map(|out| out.expect_complete("unbounded deadline"))
}

fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..=3, 1usize..=30).prop_flat_map(|(attrs, rows)| {
        let row = (proptest::collection::vec(0u8..5, attrs), 0u8..60);
        proptest::collection::vec(row, rows).prop_map(move |rows| {
            let names: Vec<String> = (0..attrs).map(|a| format!("a{a}")).collect();
            let refs: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = Table::builder(&refs, "m");
            for (vals, measure) in rows {
                let svals: Vec<String> = vals.iter().map(|v| format!("v{v}")).collect();
                let srefs: Vec<&str> = svals.iter().map(String::as_str).collect();
                b.push_row(&srefs, f64::from(measure)).unwrap();
            }
            b.build()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Optimized CMC meets the Theorem 4 bounds on arbitrary tables, with
    /// both the classic and ε level schedules, and its cached totals pass
    /// the independent verifier.
    #[test]
    fn opt_cmc_theorem_bounds(
        table in arb_table(),
        k in 1usize..=4,
        coverage in 0.1f64..=1.0,
        eps in 0.5f64..=2.0,
    ) {
        let space = PatternSpace::new(&table, CostFn::Max);
        let classic = CmcParams::classic(k, coverage, 1.0);
        let sol = solve_opt_cmc(&space, &classic).unwrap();
        sol.verify(&space);
        prop_assert!(sol.size() <= 5 * k);
        let target = coverage_target(table.num_rows(), coverage * CMC_COVERAGE_DISCOUNT);
        prop_assert!(sol.covered >= target, "covered {} < target {}", sol.covered, target);

        let eps_params = CmcParams::epsilon(k, coverage, 1.0, eps);
        let sol = solve_opt_cmc(&space, &eps_params).unwrap();
        let bound = ((1.0 + eps) * k as f64).floor() as usize;
        prop_assert!(sol.size() <= bound.max(k));
        prop_assert!(sol.covered >= target);
    }

    /// Optimized CMC at the undiscounted target always reaches ⌈ŝ·n⌉ (the
    /// harness configuration), and never returns a pattern twice.
    #[test]
    fn opt_cmc_full_target_and_distinct_patterns(
        table in arb_table(),
        k in 1usize..=4,
        coverage in 0.1f64..=1.0,
    ) {
        let space = PatternSpace::new(&table, CostFn::Max);
        let params = CmcParams {
            discount_coverage: false,
            ..CmcParams::epsilon(k, coverage, 1.0, 1.0)
        };
        let sol = solve_opt_cmc(&space, &params).unwrap();
        prop_assert!(sol.covered >= coverage_target(table.num_rows(), coverage));
        let mut seen = sol.patterns.clone();
        seen.sort();
        seen.dedup();
        prop_assert_eq!(seen.len(), sol.patterns.len(), "duplicate pattern selected");
    }

    /// Both optimized algorithms are deterministic.
    #[test]
    fn optimized_algorithms_deterministic(table in arb_table(), k in 1usize..=4) {
        let space = PatternSpace::new(&table, CostFn::Max);
        let a = solve_opt_cwsc(&space, k, 0.6);
        let b = solve_opt_cwsc(&space, k, 0.6);
        prop_assert_eq!(a, b);
        let params = CmcParams::classic(k, 0.6, 1.0);
        let c = solve_opt_cmc(&space, &params);
        let d = solve_opt_cmc(&space, &params);
        prop_assert_eq!(c, d);
    }

    /// Every pattern an optimized solution returns is a real pattern of
    /// the table (non-empty benefit) with the arity of the table.
    #[test]
    fn solutions_contain_only_real_patterns(table in arb_table(), k in 1usize..=4) {
        let space = PatternSpace::new(&table, CostFn::Max);
        if let Ok(sol) = solve_opt_cwsc(&space, k, 0.5) {
            for p in &sol.patterns {
                prop_assert_eq!(p.num_attrs(), table.num_attrs());
                prop_assert!(!space.benefit(p).is_empty(), "{}", p.display(&table));
            }
        }
    }

    /// The incremental maintainer preserves its invariant (coverage ≥
    /// target, size ≤ k) under arbitrary arrival sequences, provided a
    /// universal set exists.
    #[test]
    fn incremental_invariants(
        arrivals in proptest::collection::vec(proptest::collection::btree_set(0u32..5, 0..5), 1..60),
        k in 1usize..=3,
        coverage in 0.1f64..=1.0,
    ) {
        let costs = [3.0, 5.0, 2.0, 8.0, 4.0, 100.0];
        let universal = 5u32;
        let mut inc = IncrementalCover::new(&costs, k, coverage).unwrap();
        for sets in arrivals {
            let mut memberships: Vec<u32> = sets.into_iter().collect();
            memberships.push(universal);
            inc.push_element(&memberships).unwrap();
            prop_assert!(inc.covered() >= inc.target());
            prop_assert!(inc.solution().len() <= k);
        }
    }
}
