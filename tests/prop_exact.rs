//! Differential testing of the branch-and-bound exact solver against
//! plain subset enumeration on tiny instances: same optimal cost, and
//! branch-and-bound's solution always satisfies the requirements.

use proptest::prelude::*;
use scwsc::prelude::*;

/// Optimal cost by enumerating every subset of at most `k` sets.
fn brute_force_optimum(system: &SetSystem, k: usize, target: usize) -> Option<f64> {
    let m = system.num_sets();
    assert!(m <= 12, "enumeration only for tiny instances");
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << m) {
        if mask.count_ones() as usize > k {
            continue;
        }
        let sets: Vec<u32> = (0..m as u32).filter(|&i| mask & (1 << i) != 0).collect();
        if system.coverage_of(&sets).count_ones() >= target {
            let cost = system.cost_of(&sets).value();
            best = Some(match best {
                None => cost,
                Some(b) => b.min(cost),
            });
        }
    }
    best
}

fn arb_system() -> impl Strategy<Value = SetSystem> {
    (2usize..=10, 0usize..=9).prop_flat_map(|(n, sets)| {
        let set = (
            proptest::collection::btree_set(0u32..n as u32, 1..=n),
            0u32..50,
        );
        proptest::collection::vec(set, sets).prop_map(move |sets| {
            let mut b = SetSystem::builder(n);
            for (members, cost) in sets {
                b.add_set(members, f64::from(cost));
            }
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Branch and bound finds exactly the brute-force optimum (or agrees
    /// the instance is infeasible). Note: no universe set here, so
    /// infeasible instances genuinely occur and both must detect them.
    #[test]
    fn branch_and_bound_matches_enumeration(
        system in arb_system(),
        k in 0usize..=5,
        coverage in 0.0f64..=1.0,
    ) {
        let target = coverage_target(system.num_elements(), coverage);
        let brute = brute_force_optimum(&system, k, target);
        let bnb = exact_optimal(&system, k, target, &mut NoopObserver);
        match (brute, bnb) {
            (Some(b), Some(sol)) => {
                prop_assert!(
                    (sol.total_cost().value() - b).abs() < 1e-9,
                    "bnb {} != brute {}",
                    sol.total_cost().value(),
                    b
                );
                prop_assert!(sol.covered() >= target);
                prop_assert!(sol.size() <= k.max(sol.size().min(k)));
            }
            (None, None) => {}
            (b, s) => prop_assert!(false, "brute {:?} vs bnb {:?}", b, s.map(|x| x.total_cost())),
        }
    }

    /// The solver is monotone in its inputs: loosening k or the target
    /// never increases the optimal cost.
    #[test]
    fn optimum_is_monotone(
        system in arb_system(),
        k in 1usize..=4,
        coverage in 0.1f64..=1.0,
    ) {
        let target = coverage_target(system.num_elements(), coverage);
        let tight = exact_optimal(&system, k, target, &mut NoopObserver);
        let looser_k = exact_optimal(&system, k + 1, target, &mut NoopObserver);
        let looser_t = exact_optimal(&system, k, target.saturating_sub(1), &mut NoopObserver);
        if let Some(t) = &tight {
            let lk = looser_k.expect("loosening k keeps feasibility");
            prop_assert!(lk.total_cost() <= t.total_cost());
            let lt = looser_t.expect("loosening target keeps feasibility");
            prop_assert!(lt.total_cost() <= t.total_cost());
        }
    }
}
