//! Differential testing against literal pseudocode transcriptions.
//!
//! The production implementations maintain marginal benefits incrementally
//! (element→set incidence lists, per-level buckets, lazy heaps). These
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

/// One level of a CMC budget guess: `(lower, upper]` (`[0, upper]` when
/// `closed_below`) and its quota.
struct Level {
    lower: f64,
    upper: f64,
    closed_below: bool,
    quota: usize,
}

impl Level {
    fn contains(&self, cost: f64) -> bool {
        cost <= self.upper && (cost > self.lower || self.closed_below)
    }
}

/// Smallest `l` with `base^l ≥ k`, in integers.
fn ceil_log(base: usize, k: usize) -> u32 {
    let (mut l, mut power) = (0u32, 1usize);
    while power < k {
        power *= base;
        l += 1;
    }
    l
}

/// The levels of Fig. 1 lines 07–14 for budget `b` (and Section V-A's
/// variants), outermost first, the final level closed below so zero-cost
/// sets belong to it.
fn reference_levels(schedule: LevelSchedule, b: f64, k: usize) -> Vec<Level> {
    let level = |lower: f64, upper: f64, quota: usize| Level {
        lower,
        upper,
        closed_below: false,
        quota,
    };
    let mut levels = Vec::new();
    let last_upper = match schedule {
        LevelSchedule::Classic | LevelSchedule::Generalized(_) => {
            let base = match schedule {
                LevelSchedule::Generalized(l) => 1 + l as usize,
                _ => 2,
            };
            let fb = base as f64;
            let floor = b / k as f64;
            for i in 1..=ceil_log(base, k) as i32 {
                let lower = (b / fb.powi(i)).max(floor);
                levels.push(level(lower, b / fb.powi(i - 1), base.pow(i as u32)));
            }
            floor
        }
        LevelSchedule::Epsilon(eps) => {
            let mut i = 1i32;
            while eps * k as f64 >= 2f64.powi(i + 1) - 2.0 && 2f64.powi(i - 1) < k as f64 {
                levels.push(level(b / 2f64.powi(i), b / 2f64.powi(i - 1), 1 << i));
                i += 1;
            }
            b / 2f64.powi(i - 1)
        }
    };
    levels.push(Level {
        lower: 0.0,
        upper: last_upper,
        closed_below: true,
        quota: k,
    });
    levels
}

/// Literal Fig. 1: CMC with explicit `MBen` sets, every set scanned on
/// every pick. Returns the chosen sets and the budget that found them.
fn reference_cmc(system: &SetSystem, params: &CmcParams) -> Result<(Vec<u32>, f64), ()> {
    let m = system.num_sets() as u32;
    let cost = |id: u32| system.cost(id).value();
    let target = coverage_target(
        system.num_elements(),
        params.coverage_fraction * CMC_COVERAGE_DISCOUNT,
    );
    if target == 0 {
        return Ok((Vec::new(), 0.0));
    }
    // Line 01: B = cost of the k cheapest sets (or the cheapest positive
    // cost, or 1, when those are free).
    let mut costs: Vec<f64> = (0..m).map(cost).collect();
    costs.sort_by(f64::total_cmp);
    let mut b: f64 = costs.iter().take(params.k).sum();
    if b == 0.0 {
        b = costs.iter().copied().find(|&c| c > 0.0).unwrap_or(1.0);
    }
    let total: f64 = (0..m).map(cost).sum();
    loop {
        // Lines 04-05: MBen(s) = s for every set.
        let mut mben: Vec<BTreeSet<u32>> = (0..m)
            .map(|id| system.members(id).iter().copied().collect())
            .collect();
        let mut chosen: Vec<u32> = Vec::new();
        let mut rem = target as i64;
        for level in reference_levels(params.schedule, b, params.k) {
            for _ in 0..level.quota {
                // Line 17: argmax |MBen| within the level (ties: cheaper,
                // then lower id).
                let q = (0..m)
                    .filter(|&id| {
                        !chosen.contains(&id)
                            && !mben[id as usize].is_empty()
                            && level.contains(cost(id))
                    })
                    .max_by(|&x, &y| {
                        mben[x as usize]
                            .len()
                            .cmp(&mben[y as usize].len())
                            .then(cost(y).total_cmp(&cost(x)))
                            .then(y.cmp(&x))
                    });
                let Some(q) = q else { break };
                let newly = std::mem::take(&mut mben[q as usize]);
                for other in &mut mben {
                    other.retain(|e| !newly.contains(e));
                }
                chosen.push(q);
                rem -= newly.len() as i64;
                if rem <= 0 {
                    return Ok((chosen, b));
                }
            }
        }
        if b > total {
            return Err(());
        }
        b *= 1.0 + params.budget_growth;
    }
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

fn lcg(seed: u64) -> impl FnMut() -> usize {
    let mut state = seed;
    move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    }
}

/// Deterministic LCG-driven random set system: `num_sets` small random
/// sets plus a universe set so every instance is solvable.
fn lcg_system(num_elements: usize, num_sets: usize, seed: u64) -> SetSystem {
    let mut next = lcg(seed);
    let mut b = SetSystem::builder(num_elements);
    for _ in 0..num_sets {
        let len = 1 + next() % 6;
        let members: Vec<u32> = (0..len).map(|_| (next() % num_elements) as u32).collect();
        let cost = 1.0 + (next() % 100) as f64 / 10.0;
        b.add_set(members, cost);
    }
    b.add_universe_set(num_elements as f64 * 2.0);
    b.build().unwrap()
}

/// A system whose budget guesses are exactly `unit·2^j`: `k` zero-cost
/// sets make the initial budget the cheapest positive cost, one set of
/// cost `unit` fixes that cost, and the growth factor used below is 1.
/// Every other cost is `unit·2^m` divided by 1, `3^i` or `k` and at least
/// `unit`, so it lands on a level bound of some guess — computed with the
/// same floating-point operations as the bounds themselves.
fn boundary_system(num_elements: usize, num_sets: usize, k: usize, seed: u64) -> SetSystem {
    let mut next = lcg(seed);
    let members = |next: &mut dyn FnMut() -> usize, max_len: usize| -> Vec<u32> {
        let len = 1 + next() % max_len;
        (0..len).map(|_| (next() % num_elements) as u32).collect()
    };
    let unit = [0.5, 1.0, 3.0][next() % 3];
    let mut b = SetSystem::builder(num_elements);
    for _ in 0..k {
        b.add_set(members(&mut next, 2), 0.0);
    }
    b.add_set(members(&mut next, 4), unit);
    for _ in 0..num_sets {
        let m = members(&mut next, 8);
        let power = unit * 2f64.powi((next() % 7) as i32);
        let cost = match next() % 4 {
            0 => power,
            1 => power / 3f64.powi(1 + (next() % 2) as i32),
            2 => power / k as f64,
            _ => unit + (next() % 40) as f64 / 8.0,
        };
        b.add_set(m, cost.max(unit));
    }
    b.add_universe_set(unit * 64.0);
    b.build().unwrap()
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Flat CMC against literal Fig. 1, under every level schedule. Half
    /// the systems put zero-cost sets (the final level is closed below)
    /// and costs exactly on the `B/2^i`, `B/3^i` and `B/k` bounds of the
    /// guessed budgets, where a level bucket can go wrong.
    #[test]
    fn cmc_matches_literal_pseudocode(
        num_elements in 20usize..120,
        num_sets in 8usize..48,
        seed in any::<u64>(),
        k in 1usize..6,
        boundary_costs in any::<bool>(),
        coverage_pct in 30u32..=100,
    ) {
        let system = if boundary_costs {
            boundary_system(num_elements, num_sets, k, seed)
        } else {
            lcg_system(num_elements, num_sets, seed)
        };
        let pool = ThreadPool::new(Threads::serial());
        for schedule in [
            LevelSchedule::Classic,
            LevelSchedule::Epsilon(0.5),
            LevelSchedule::Epsilon(2.0),
            LevelSchedule::Generalized(2),
        ] {
            let params = CmcParams {
                schedule,
                ..CmcParams::classic(k, coverage_pct as f64 / 100.0, 1.0)
            };
            let fast = cmc(&system, &params, &pool, &Deadline::unbounded(), &mut Stats::new());
            let slow = reference_cmc(&system, &params);
            match (fast, slow) {
                (Ok(SolveOutcome::Complete(f)), Ok((sets, budget))) => {
                    prop_assert_eq!(f.solution.sets().to_vec(), sets, "{:?}", schedule);
                    prop_assert_eq!(f.final_budget, budget, "{:?}", schedule);
                }
                (Err(EngineError::Solve(SolveError::BudgetExhausted)), Err(())) => {}
                (f, s) => prop_assert!(false, "{:?}: fast {:?} vs reference {:?}", schedule, f, s),
            }
        }
    }
}
