//! Property tests for the paper's central claim about the Section V-C
//! optimization: "the optimized algorithm chooses exactly the same
//! patterns (and in the same order) as the unoptimized algorithm,
//! provided that both algorithms break ties (on marginal gain) the same
//! way" — plus the Theorem 3 reduction as an executable oracle.

use proptest::prelude::*;
use scwsc::patterns::reductions::set_system_to_patterns;
use scwsc::patterns::InvertedIndex;
use scwsc::prelude::*;

/// Fig. 2 CWSC, serial and without a deadline.
fn solve_cwsc(system: &SetSystem, k: usize, coverage: f64) -> Result<Solution, EngineError> {
    cwsc(
        system,
        k,
        coverage,
        &Deadline::unbounded(),
        &mut NoopObserver,
    )
    .map(|out| out.expect_complete("unbounded deadline"))
}

/// Fig. 3 optimized CWSC, serial and without a deadline.
fn solve_opt_cwsc(
    space: &PatternSpace<'_>,
    k: usize,
    coverage: f64,
) -> Result<PatternSolution, EngineError> {
    opt_cwsc(
        space,
        k,
        coverage,
        &Deadline::unbounded(),
        &mut NoopObserver,
    )
    .map(|out| out.expect_complete("unbounded deadline"))
}

/// A random small table: 1–3 attributes with tiny domains (so patterns
/// overlap heavily), small integer measures.
fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..=3, 1usize..=24).prop_flat_map(|(attrs, rows)| {
        let row = (
            proptest::collection::vec(0u8..4, attrs),
            0u8..40, // measure
        );
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

/// A random small set system that always contains a universe set.
fn arb_system() -> impl Strategy<Value = SetSystem> {
    (2usize..=12, 1usize..=10).prop_flat_map(|(n, sets)| {
        let set = (
            proptest::collection::btree_set(0u32..n as u32, 1..=n),
            0u32..50,
        );
        proptest::collection::vec(set, sets).prop_map(move |sets| {
            let mut b = SetSystem::builder(n);
            for (members, cost) in sets {
                b.add_set(members, f64::from(cost));
            }
            b.add_universe_set(60.0);
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Optimized CWSC (Fig. 3) selects exactly the same patterns, in the
    /// same order, as unoptimized CWSC over the full materialization.
    #[test]
    fn optimized_cwsc_equals_unoptimized(
        table in arb_table(),
        k in 1usize..=5,
        coverage in 0.1f64..=1.0,
    ) {
        let space = PatternSpace::new(&table, CostFn::Max);
        let m = enumerate_all(&table, CostFn::Max);
        let opt = solve_opt_cwsc(&space, k, coverage);
        let unopt = solve_cwsc(&m.system, k, coverage);
        match (opt, unopt) {
            (Ok(o), Ok(u)) => {
                let u_patterns: Vec<&Pattern> = m.solution_patterns(&u);
                let o_patterns: Vec<&Pattern> = o.patterns.iter().collect();
                prop_assert_eq!(o_patterns, u_patterns);
                prop_assert_eq!(o.covered, u.covered());
                prop_assert!((o.total_cost - u.total_cost().value()).abs() < 1e-9);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "optimized {:?} vs unoptimized {:?}", a, b),
        }
    }

    /// The equivalence holds for other lattice-monotone cost functions.
    #[test]
    fn optimized_cwsc_equals_unoptimized_sum_cost(
        table in arb_table(),
        k in 1usize..=4,
    ) {
        let space = PatternSpace::new(&table, CostFn::Sum);
        let m = enumerate_all(&table, CostFn::Sum);
        let opt = solve_opt_cwsc(&space, k, 0.5);
        let unopt = solve_cwsc(&m.system, k, 0.5);
        match (opt, unopt) {
            (Ok(o), Ok(u)) => {
                let u_patterns: Vec<&Pattern> = m.solution_patterns(&u);
                prop_assert_eq!(o.patterns.iter().collect::<Vec<_>>(), u_patterns);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => prop_assert!(false, "optimized {:?} vs unoptimized {:?}", a, b),
        }
    }

    /// Theorem 3: mapping an arbitrary set system to patterns preserves
    /// benefit sets exactly, so CWSC run over the mapped patterns (with
    /// their original weights) selects sets with identical coverage/cost.
    #[test]
    fn theorem3_reduction_preserves_cwsc(
        system in arb_system(),
        k in 1usize..=4,
    ) {
        let (table, patterns) = set_system_to_patterns(&system).unwrap();
        let idx = InvertedIndex::build(&table);
        // Benefit sets survive the mapping.
        for (id, set) in system.iter() {
            let rows = idx.benefit(&patterns[id as usize]);
            prop_assert_eq!(rows, set.members().to_vec(), "set {}", id);
        }
        // Rebuild a set system from the mapped patterns and compare runs.
        let mut b = SetSystem::builder(system.num_elements());
        for (id, _) in system.iter() {
            b.add_set(
                idx.benefit(&patterns[id as usize]),
                system.cost(id).value(),
            );
        }
        let mapped = b.build().unwrap();
        let a = solve_cwsc(&system, k, 0.6);
        let c = solve_cwsc(&mapped, k, 0.6);
        prop_assert_eq!(a, c);
    }

    /// The inverted index agrees with a full scan for arbitrary patterns.
    #[test]
    fn index_agrees_with_scan(table in arb_table(), pat_vals in proptest::collection::vec(proptest::option::of(0u8..4), 1..=3)) {
        let idx = InvertedIndex::build(&table);
        // Build a pattern of matching arity (value ids may be absent from
        // the dictionary; the index must return empty then).
        let pattern = Pattern::new(
            (0..table.num_attrs())
                .map(|a| pat_vals.get(a).copied().flatten().map(u32::from))
                .collect(),
        );
        let valid = pattern
            .values()
            .iter()
            .enumerate()
            .all(|(a, v)| v.is_none_or(|v| (v as usize) < table.dictionary(a).len()));
        let by_index = idx.benefit(&pattern);
        if valid {
            let by_scan: Vec<u32> = (0..table.num_rows() as u32)
                .filter(|&r| pattern.matches(&table, r))
                .collect();
            prop_assert_eq!(by_index, by_scan);
        } else {
            prop_assert!(by_index.is_empty());
        }
    }
}
