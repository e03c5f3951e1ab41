//! Differential testing against literal pseudocode transcriptions.
//!
//! The production implementations maintain marginal benefits incrementally
//! (element→set incidence lists, candidate pools, lazy heaps). These
//! reference implementations instead transcribe Figures 1–2 line by line
//! with naive O(m·n) set arithmetic, and the property tests check both
//! agree exactly on random instances.

use proptest::prelude::*;
use scwsc::prelude::*;
use std::collections::BTreeSet;

/// Literal Fig. 2: CWSC with explicit `MBen` sets.
fn reference_cwsc(system: &SetSystem, k: usize, coverage: f64) -> Result<Vec<u32>, ()> {
    let n = system.num_elements();
    let target = coverage_target(n, coverage);
    if target == 0 {
        return Ok(Vec::new());
    }
    // MBen(s) as explicit sets; None marks sets removed from C.
    let mut mben: Vec<Option<BTreeSet<u32>>> = (0..system.num_sets() as u32)
        .map(|id| Some(system.members(id).iter().copied().collect()))
        .collect();
    let mut solution = Vec::new();
    let mut rem = target as i64;
    for i in (1..=k).rev() {
        // argmax MGain over sets with |MBen| >= rem/i, with the crate's
        // canonical tie-breaking (gain desc, mben desc, cost asc, id asc).
        let mut q: Option<u32> = None;
        for id in 0..system.num_sets() as u32 {
            let Some(m) = &mben[id as usize] else {
                continue;
            };
            if (m.len() as i64) * i as i64 >= rem && !m.is_empty() {
                let better = match q {
                    None => true,
                    Some(b) => {
                        let mb = mben[b as usize].as_ref().unwrap();
                        let (ca, cb) = (system.cost(id).value(), system.cost(b).value());
                        (m.len() as f64 * cb)
                            .total_cmp(&(mb.len() as f64 * ca))
                            .then(m.len().cmp(&mb.len()))
                            .then(cb.total_cmp(&ca))
                            .then(b.cmp(&id))
                            .is_gt()
                    }
                };
                if better {
                    q = Some(id);
                }
            }
        }
        let Some(q) = q else { return Err(()) };
        let q_ben = mben[q as usize].take().unwrap();
        solution.push(q);
        rem -= q_ben.len() as i64;
        if rem <= 0 {
            return Ok(solution);
        }
        for slot in mben.iter_mut() {
            if let Some(m) = slot {
                for e in &q_ben {
                    m.remove(e);
                }
                if m.is_empty() {
                    *slot = None;
                }
            }
        }
    }
    Err(())
}

/// Literal greedy partial weighted set cover (pick max gain until target).
fn reference_wsc(system: &SetSystem, coverage: f64) -> Result<(Vec<u32>, f64), ()> {
    let n = system.num_elements();
    let target = coverage_target(n, coverage);
    let mut covered: BTreeSet<u32> = BTreeSet::new();
    let mut chosen: Vec<u32> = Vec::new();
    let mut total = 0.0;
    while covered.len() < target {
        let mut best: Option<(u32, usize)> = None;
        for id in 0..system.num_sets() as u32 {
            if chosen.contains(&id) {
                continue;
            }
            let mben = system
                .members(id)
                .iter()
                .filter(|e| !covered.contains(e))
                .count();
            if mben == 0 {
                continue;
            }
            let better = match best {
                None => true,
                Some((b, b_mben)) => {
                    let (ca, cb) = (system.cost(id).value(), system.cost(b).value());
                    (mben as f64 * cb)
                        .total_cmp(&(b_mben as f64 * ca))
                        .then(mben.cmp(&b_mben))
                        .then(cb.total_cmp(&ca))
                        .then(b.cmp(&id))
                        .is_gt()
                }
            };
            if better {
                best = Some((id, mben));
            }
        }
        let Some((q, _)) = best else { return Err(()) };
        for &e in system.members(q) {
            covered.insert(e);
        }
        chosen.push(q);
        total += system.cost(q).value();
    }
    Ok((chosen, total))
}

fn arb_system() -> impl Strategy<Value = SetSystem> {
    (2usize..=12, 0usize..=10).prop_flat_map(|(n, sets)| {
        let set = (
            proptest::collection::btree_set(0u32..n as u32, 1..=n),
            0u32..60,
        );
        proptest::collection::vec(set, sets).prop_map(move |sets| {
            let mut b = SetSystem::builder(n);
            for (members, cost) in sets {
                b.add_set(members, f64::from(cost));
            }
            b.add_universe_set(80.0);
            b.build().unwrap()
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    #[test]
    fn cwsc_matches_literal_pseudocode(
        system in arb_system(),
        k in 1usize..=6,
        coverage in 0.0f64..=1.0,
    ) {
        let pool = ThreadPool::new(Threads::serial());
        let fast = cwsc(&system, k, coverage, &pool, &Deadline::unbounded(), &mut Stats::new());
        let slow = reference_cwsc(&system, k, coverage);
        match (fast, slow) {
            (Ok(SolveOutcome::Complete(f)), Ok(s)) => prop_assert_eq!(f.sets().to_vec(), s),
            (Err(EngineError::Solve(SolveError::NoSolution)), Err(())) => {}
            (f, s) => prop_assert!(false, "fast {:?} vs reference {:?}", f, s),
        }
    }

    #[test]
    fn wsc_baseline_matches_literal_pseudocode(
        system in arb_system(),
        coverage in 0.0f64..=1.0,
    ) {
        let fast = greedy_weighted_set_cover(&system, coverage, &mut Stats::new());
        let slow = reference_wsc(&system, coverage);
        match (fast, slow) {
            (Ok(f), Ok((sets, total))) => {
                prop_assert_eq!(f.sets().to_vec(), sets);
                prop_assert!((f.total_cost().value() - total).abs() < 1e-9);
            }
            (Err(SolveError::NoSolution), Err(())) => {}
            (f, s) => prop_assert!(false, "fast {:?} vs reference {:?}", f, s),
        }
    }
}
