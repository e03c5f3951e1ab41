//! Differential testing against literal pseudocode transcriptions.
//!
//! The production implementations maintain marginal benefits incrementally
//! (element→set incidence lists, per-level buckets, lazy heaps, and in
//! optimized CMC a replayed budget-independent prefix). These reference
//! implementations instead transcribe Figures 1, 2 and 4 line by line
//! with naive set arithmetic, and the property tests check both agree
//! exactly on random instances.

use proptest::prelude::*;
use scwsc::patterns::verify_certificate_in;
use scwsc::prelude::*;
use scwsc::sets::telemetry::audit;
use scwsc::sets::Event;
use std::cmp::Reverse;
use std::collections::{BTreeSet, BinaryHeap, HashMap, HashSet};

/// One selection round as the audit ledger records it: the winner, then
/// its runners-up, best first, each as `(id, benefit, weight)`.
type Round = Vec<(u64, u64, f64)>;

/// The rounds a solve decided, in order, and the work ticks it consumed
/// (one per selection attempt). As an [`Observer`] it collects the
/// rounds from `round_decided` events.
#[derive(Debug, Default, PartialEq)]
struct Decisions {
    rounds: Vec<Round>,
    ticks: u64,
}

impl Observer for Decisions {
    fn on(&mut self, event: &Event<'_>) {
        if let Event::RoundDecided(_, winner, runners_up) = event {
            let round = std::iter::once(winner).chain(runners_up.iter());
            self.rounds
                .push(round.map(|c| (c.id, c.benefit, c.weight)).collect());
        }
    }
}

/// The winner and runners-up of a round: `candidates` as `(id, |MBen|)`,
/// sorted best first by `better` (`Greater` when the first argument is
/// preferred), cut to the ledger's length.
fn literal_top(
    system: &SetSystem,
    mut candidates: Vec<(u32, usize)>,
    better: impl Fn(&(u32, usize), &(u32, usize)) -> std::cmp::Ordering,
) -> Round {
    candidates.sort_by(|a, b| better(b, a));
    candidates
        .iter()
        .take(audit::TOP)
        .map(|&(id, m)| (u64::from(id), m as u64, system.cost(id).value()))
        .collect()
}

/// Literal Fig. 2: CWSC with explicit `MBen` sets. Each round's
/// candidates are ranked by a full sort into `decisions`.
fn reference_cwsc(
    system: &SetSystem,
    k: usize,
    coverage: f64,
    decisions: &mut Decisions,
) -> Result<Vec<u32>, ()> {
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
        decisions.ticks += 1;
        // argmax MGain over sets with |MBen| >= rem/i, with the crate's
        // canonical tie-breaking (gain desc, mben desc, cost asc, id asc).
        let eligible = (0..system.num_sets() as u32)
            .filter_map(|id| Some((id, mben[id as usize].as_ref()?.len())))
            .filter(|&(_, m)| (m as i64) * i as i64 >= rem && m > 0)
            .collect();
        let top = literal_top(system, eligible, |&(a, ma), &(b, mb)| {
            let (ca, cb) = (system.cost(a).value(), system.cost(b).value());
            (ma as f64 * cb)
                .total_cmp(&(mb as f64 * ca))
                .then(ma.cmp(&mb))
                .then(cb.total_cmp(&ca))
                .then(b.cmp(&a))
        });
        let Some(&(q, _, _)) = top.first() else {
            return Err(());
        };
        decisions.rounds.push(top);
        let q = q as u32;
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

/// Literal Fig. 1: CMC with explicit `MBen` sets, every set scanned and
/// the level's candidates fully sorted on every pick, each round recorded
/// into `decisions`. Returns the chosen sets and the budget that found
/// them.
fn reference_cmc(
    system: &SetSystem,
    params: &CmcParams,
    decisions: &mut Decisions,
) -> Result<(Vec<u32>, f64), ()> {
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
                decisions.ticks += 1;
                // Line 17: argmax |MBen| within the level (ties: cheaper,
                // then lower id).
                let in_level = (0..m)
                    .filter(|&id| {
                        !chosen.contains(&id)
                            && !mben[id as usize].is_empty()
                            && level.contains(cost(id))
                    })
                    .map(|id| (id, mben[id as usize].len()))
                    .collect();
                let top = literal_top(system, in_level, |&(x, mx), &(y, my)| {
                    mx.cmp(&my)
                        .then(cost(y).total_cmp(&cost(x)))
                        .then(y.cmp(&x))
                });
                let Some(&(q, _, _)) = top.first() else { break };
                decisions.rounds.push(top);
                let q = q as u32;
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

/// The full pattern cube of a small random table under `Max` as a set
/// system: many nested, overlapping sets that share costs, so a pick
/// lowers the benefits of many sets in its level and the flat solvers'
/// lazily revalidated candidates go stale.
fn arb_cube() -> impl Strategy<Value = SetSystem> {
    arb_table().prop_map(|table| enumerate_all(&table, CostFn::Max).system)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// Flat CWSC against literal Fig. 2: the selections, every round's
    /// winner and runners-up, and the ticks.
    #[test]
    fn cwsc_matches_literal_pseudocode(
        system in prop_oneof![arb_system(), arb_cube()],
        k in 1usize..=6,
        coverage in 0.0f64..=1.0,
    ) {
        let deadline = Deadline::unbounded();
        let mut got = Decisions::default();
        let fast = cwsc(&system, k, coverage, &deadline, &mut got);
        got.ticks = deadline.ticks();
        let mut want = Decisions::default();
        let slow = reference_cwsc(&system, k, coverage, &mut want);
        match (fast, slow) {
            (Ok(SolveOutcome::Complete(f)), Ok(s)) => prop_assert_eq!(f.sets().to_vec(), s),
            (Err(EngineError::Solve(SolveError::NoSolution)), Err(())) => {}
            (f, s) => prop_assert!(false, "fast {:?} vs reference {:?}", f, s),
        }
        prop_assert_eq!(got, want);
    }

    #[test]
    fn wsc_baseline_matches_literal_pseudocode(
        system in arb_system(),
        coverage in 0.0f64..=1.0,
    ) {
        let fast = greedy_weighted_set_cover(&system, coverage, &mut NoopObserver);
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

    /// Flat CMC against literal Fig. 1, under every level schedule: the
    /// selections, the final budget, every round's winner and
    /// runners-up (failed guesses included) and the ticks. A third of
    /// the systems put zero-cost sets (the final level is closed below)
    /// and costs exactly on the `B/2^i`, `B/3^i` and `B/k` bounds of the
    /// guessed budgets, where a level's rank range can go wrong; a third
    /// are full pattern cubes, where levels hold many overlapping sets.
    #[test]
    fn cmc_matches_literal_pseudocode(
        num_elements in 20usize..120,
        num_sets in 8usize..48,
        seed in any::<u64>(),
        k in 1usize..6,
        shape in 0u8..3,
        table in arb_table(),
        coverage_pct in 30u32..=100,
    ) {
        let system = match shape {
            0 => lcg_system(num_elements, num_sets, seed),
            1 => boundary_system(num_elements, num_sets, k, seed),
            _ => enumerate_all(&table, CostFn::Max).system,
        };
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
            let deadline = Deadline::unbounded();
            let mut got = Decisions::default();
            let fast = cmc(&system, &params, &deadline, &mut got);
            got.ticks = deadline.ticks();
            let mut want = Decisions::default();
            let slow = reference_cmc(&system, &params, &mut want);
            match (fast, slow) {
                (Ok(SolveOutcome::Complete(f)), Ok((sets, budget))) => {
                    prop_assert_eq!(f.solution.sets().to_vec(), sets, "{:?}", schedule);
                    prop_assert_eq!(f.final_budget, budget, "{:?}", schedule);
                }
                (Err(EngineError::Solve(SolveError::BudgetExhausted)), Err(())) => {}
                (f, s) => prop_assert!(false, "{:?}: fast {:?} vs reference {:?}", schedule, f, s),
            }
            prop_assert_eq!(got, want, "{:?}", schedule);
        }
    }
}

/// How a literal Fig. 4 solve ended.
#[derive(Debug, PartialEq)]
enum Fig4End {
    /// The selected patterns, in order, and their total cost.
    Complete(Vec<Pattern>, f64),
    /// A tick budget expired: the in-flight guess's selections and the
    /// levels whose quota they filled.
    Degraded(Vec<Pattern>, Vec<usize>),
    BudgetExhausted,
}

/// One literal Fig. 4 solve.
struct Fig4Run {
    end: Fig4End,
    /// Patterns considered (line 12's root plus each line 35) per guess.
    considered: Vec<u64>,
    /// Heap pops, one tick each, including the one that expired.
    ticks: u64,
    /// Per guess: the ticks spent before it and the patterns it visited
    /// before its first selection.
    guesses: Vec<(u64, usize)>,
}

/// A lattice node the reference walk met: pattern, benefit rows, cost.
struct Node {
    pattern: Pattern,
    rows: Vec<u32>,
    cost: f64,
}

/// Literal Fig. 4 (optimized CMC) over `table`'s pattern lattice: each
/// budget guess restarts from `C = {all-wildcards}` and pops the largest
/// marginal benefit from a lazy heap (a stale entry is recounted and
/// pushed back), selecting it if its level has quota and otherwise
/// visiting it and scoring every child whose parents are all visited.
/// Benefits are recounted over explicit row lists at every pop and every
/// child. Ties go to the cheaper pattern, then to the one the solve met
/// first; children are met in (attribute, value) order. The first
/// budget (the sum of the `k` smallest row weights, DESIGN.md §3, grown
/// past every budget below the cheapest single row's cost) and the stop
/// (a failed budget above both the root's cost and the total weight) are
/// `opt_cmc`'s.
fn reference_opt_cmc(
    table: &Table,
    cost_fn: CostFn,
    params: &CmcParams,
    max_ticks: Option<u64>,
) -> Fig4Run {
    let n = table.num_rows();
    let fraction = if params.discount_coverage {
        params.coverage_fraction * CMC_COVERAGE_DISCOUNT
    } else {
        params.coverage_fraction
    };
    let target = coverage_target(n, fraction);
    let mut run = Fig4Run {
        end: Fig4End::Complete(Vec::new(), 0.0),
        considered: Vec::new(),
        ticks: 0,
        guesses: Vec::new(),
    };
    if target == 0 {
        return run;
    }
    let all_rows: Vec<u32> = (0..n as u32).collect();
    let mut nodes = vec![Node {
        pattern: Pattern::all_wildcards(table.num_attrs()),
        cost: cost_fn.evaluate(table, &all_rows),
        rows: all_rows,
    }];
    let mut ids: HashMap<Pattern, u32> = HashMap::from([(nodes[0].pattern.clone(), 0)]);
    let mut measures = table.measures().to_vec();
    measures.sort_by(f64::total_cmp);
    let seed: f64 = measures.iter().take(params.k).sum();
    let total_weight: f64 = measures.iter().sum();
    let mut budget = if seed > 0.0 {
        seed
    } else {
        measures.iter().copied().find(|&m| m > 0.0).unwrap_or(1.0)
    };
    // No pattern costs less than its cheapest row alone, so budgets below
    // that are skipped (this moves the first budget only under `Count`).
    let cheapest_row = (0..n as u32)
        .map(|r| cost_fn.evaluate(table, &[r]))
        .fold(f64::INFINITY, f64::min);
    while budget < cheapest_row {
        budget *= 1.0 + params.budget_growth;
    }
    loop {
        let levels = reference_levels(params.schedule, budget, params.k);
        let max_selections: usize = levels.iter().map(|l| l.quota).sum();
        let mut counts = vec![0usize; levels.len()];
        let mut in_c: HashSet<u32> = HashSet::from([0]);
        let mut visited: HashSet<u32> = HashSet::new();
        let mut chosen: Vec<u32> = Vec::new();
        let mut covered = vec![false; n];
        let mben =
            |rows: &[u32], covered: &[bool]| rows.iter().filter(|&&r| !covered[r as usize]).count();
        let mut heap = BinaryHeap::from([(
            nodes[0].rows.len(),
            Reverse(nodes[0].cost.to_bits()),
            Reverse(0u32),
        )]);
        let mut rem = target;
        run.considered.push(1);
        run.guesses.push((run.ticks, 0));
        let found = loop {
            let Some((stored, cost_bits, Reverse(q))) = heap.pop() else {
                break false;
            };
            run.ticks += 1;
            if max_ticks.is_some_and(|max| run.ticks > max) {
                let exhausted = (0..levels.len())
                    .filter(|&l| counts[l] == levels[l].quota)
                    .collect();
                let partial = chosen
                    .iter()
                    .map(|&id| nodes[id as usize].pattern.clone())
                    .collect();
                run.end = Fig4End::Degraded(partial, exhausted);
                return run;
            }
            if chosen.len() >= max_selections {
                break false;
            }
            if !in_c.contains(&q) {
                continue;
            }
            let current = mben(&nodes[q as usize].rows, &covered);
            if current == 0 {
                in_c.remove(&q);
                continue;
            }
            if current != stored {
                heap.push((current, cost_bits, Reverse(q)));
                continue;
            }
            in_c.remove(&q);
            let cost = nodes[q as usize].cost;
            match levels.iter().position(|l| l.contains(cost)) {
                Some(l) if counts[l] < levels[l].quota => {
                    counts[l] += 1;
                    chosen.push(q);
                    for &r in &nodes[q as usize].rows {
                        covered[r as usize] = true;
                    }
                    rem = rem.saturating_sub(current);
                    if rem == 0 {
                        break true;
                    }
                }
                _ => {
                    visited.insert(q);
                    if chosen.is_empty() {
                        run.guesses.last_mut().unwrap().1 += 1;
                    }
                    let (pattern, rows) = (
                        nodes[q as usize].pattern.clone(),
                        nodes[q as usize].rows.clone(),
                    );
                    for attr in (0..table.num_attrs()).filter(|&a| pattern.get(a).is_none()) {
                        for value in 0..table.dictionary(attr).len() as u32 {
                            let child_rows: Vec<u32> = rows
                                .iter()
                                .copied()
                                .filter(|&r| table.value(r, attr) == value)
                                .collect();
                            if child_rows.is_empty() {
                                continue;
                            }
                            let child = pattern.child(attr, value);
                            let id = *ids.entry(child.clone()).or_insert_with(|| {
                                nodes.push(Node {
                                    pattern: child.clone(),
                                    cost: cost_fn.evaluate(table, &child_rows),
                                    rows: child_rows,
                                });
                                nodes.len() as u32 - 1
                            });
                            if in_c.contains(&id) || visited.contains(&id) || chosen.contains(&id) {
                                continue;
                            }
                            if !child.parents().iter().all(|p| visited.contains(&ids[p])) {
                                continue;
                            }
                            *run.considered.last_mut().unwrap() += 1;
                            let node = &nodes[id as usize];
                            let m = mben(&node.rows, &covered);
                            if m > 0 {
                                in_c.insert(id);
                                heap.push((m, Reverse(node.cost.to_bits()), Reverse(id)));
                            }
                        }
                    }
                }
            }
        };
        if found {
            let patterns = chosen
                .iter()
                .map(|&id| nodes[id as usize].pattern.clone())
                .collect();
            let total = chosen.iter().map(|&id| nodes[id as usize].cost).sum();
            run.end = Fig4End::Complete(patterns, total);
            return run;
        }
        if budget > nodes[0].cost && budget > total_weight {
            run.end = Fig4End::BudgetExhausted;
            return run;
        }
        budget *= 1.0 + params.budget_growth;
    }
}

/// Patterns considered per budget guess, from the event stream.
#[derive(Default)]
struct ConsideredPerGuess(Vec<u64>);

impl Observer for ConsideredPerGuess {
    fn on(&mut self, event: &Event<'_>) {
        match event {
            Event::GuessStarted(_) => self.0.push(0),
            Event::BenefitComputed(n) => *self.0.last_mut().expect("a guess started") += n,
            _ => {}
        }
    }
}

/// A random table with up to 48 rows over at most three attributes and
/// five values each: lattices of a few hundred patterns, several budget
/// guesses deep. Measures are multiples of 1/8 below 5, exact in binary,
/// so the `k` smallest often sum below 1, the least a pattern costs
/// under `Count`.
fn arb_table() -> impl Strategy<Value = Table> {
    (1usize..=3, 1usize..=48).prop_flat_map(|(attrs, rows)| {
        let row = (proptest::collection::vec(0u8..5, attrs), 0u8..40);
        proptest::collection::vec(row, rows).prop_map(move |rows| {
            let names: Vec<String> = (0..attrs).map(|a| format!("a{a}")).collect();
            let names: Vec<&str> = names.iter().map(String::as_str).collect();
            let mut b = Table::builder(&names, "m");
            for (vals, measure) in rows {
                let vals: Vec<String> = vals.iter().map(|v| format!("v{v}")).collect();
                let vals: Vec<&str> = vals.iter().map(String::as_str).collect();
                b.push_row(&vals, f64::from(measure) / 8.0).unwrap();
            }
            b.build()
        })
    })
}

/// `opt_cmc` on `space` under an optional tick budget: its outcome,
/// the ticks it used and its per-guess patterns considered.
fn run_opt_cmc(
    space: &PatternSpace<'_>,
    params: &CmcParams,
    max_ticks: Option<u64>,
) -> (
    Result<SolveOutcome<PatternSolution>, EngineError>,
    u64,
    Vec<u64>,
) {
    let deadline = match max_ticks {
        Some(max) => Deadline::unbounded().with_tick_budget(max),
        None => Deadline::unbounded(),
    };
    let mut considered = ConsideredPerGuess::default();
    let outcome = opt_cmc(space, params, &deadline, &mut considered);
    (outcome, deadline.ticks(), considered.0)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Optimized CMC against literal Fig. 4 under all four cost functions
    /// and both schedules (ε at two values): selections and cost,
    /// per-guess patterns considered and ticks; then under a tick budget
    /// that expires while a later guess replays the prefix an earlier one
    /// walked, and under an arbitrary tick budget, the degraded partial
    /// and its certificate. A budget growth of 0.5 makes more guesses,
    /// so more of them replay.
    #[test]
    fn opt_cmc_matches_literal_pseudocode(
        table in arb_table(),
        k in 1usize..6,
        coverage_pct in 20u32..=100,
        growth in prop_oneof![Just(0.5f64), Just(1.0)],
        pick in any::<u64>(),
    ) {
        for cost_fn in [CostFn::Max, CostFn::Sum, CostFn::Mean, CostFn::Count] {
            let space = PatternSpace::new(&table, cost_fn);
            for schedule in [
                LevelSchedule::Classic,
                LevelSchedule::Epsilon(0.5),
                LevelSchedule::Epsilon(2.0),
            ] {
                let params = CmcParams {
                    schedule,
                    ..CmcParams::classic(k, coverage_pct as f64 / 100.0, growth)
                };
                let at = format!("{cost_fn:?} {schedule:?}");
                let want = reference_opt_cmc(&table, cost_fn, &params, None);
                let (outcome, ticks, considered) = run_opt_cmc(&space, &params, None);
                match (&outcome, &want.end) {
                    (Ok(SolveOutcome::Complete(got)), Fig4End::Complete(patterns, total)) => {
                        prop_assert_eq!(&got.patterns, patterns, "{}", at);
                        prop_assert_eq!(got.total_cost, *total, "{}", at);
                    }
                    (Err(EngineError::Solve(SolveError::BudgetExhausted)), Fig4End::BudgetExhausted) => {}
                    (got, want) => prop_assert!(false, "{}: {:?} vs reference {:?}", at, got, want),
                }
                prop_assert_eq!(&considered, &want.considered, "{}", at);
                prop_assert_eq!(ticks, want.ticks, "{}", at);

                // Guess g replays the first min(visited_g, longest earlier
                // visited) pops; a budget of start_g + j expires at the
                // (j+1)-th of them.
                let mut longest = 0;
                let mut inside: Vec<u64> = Vec::new();
                for &(start, visited) in &want.guesses {
                    inside.extend((0..visited.min(longest) as u64).map(|j| start + j));
                    longest = longest.max(visited);
                }
                let mut budgets = vec![pick % (want.ticks + 1)];
                if !inside.is_empty() {
                    budgets.push(inside[(pick % inside.len() as u64) as usize]);
                }
                for max in budgets {
                    let want = reference_opt_cmc(&table, cost_fn, &params, Some(max));
                    let (outcome, ticks, considered) = run_opt_cmc(&space, &params, Some(max));
                    prop_assert_eq!(&considered, &want.considered, "{} ticks {}", at, max);
                    prop_assert_eq!(ticks, want.ticks, "{} ticks {}", at, max);
                    match (&outcome, &want.end) {
                        (Ok(SolveOutcome::Degraded(d)), Fig4End::Degraded(partial, exhausted)) => {
                            prop_assert_eq!(&d.partial.patterns, partial, "{} ticks {}", at, max);
                            prop_assert_eq!(&d.certificate.quotas_exhausted, exhausted, "{} ticks {}", at, max);
                            prop_assert_eq!(d.certificate.ticks, want.ticks, "{} ticks {}", at, max);
                            let check = verify_certificate_in(&space, &d.partial, &d.certificate);
                            prop_assert!(check.is_valid(), "{} ticks {}: {:?}", at, max, check);
                        }
                        (Ok(SolveOutcome::Complete(got)), Fig4End::Complete(patterns, _)) => {
                            prop_assert_eq!(&got.patterns, patterns, "{} ticks {}", at, max);
                        }
                        (Err(EngineError::Solve(SolveError::BudgetExhausted)), Fig4End::BudgetExhausted) => {}
                        (got, want) => prop_assert!(false, "{} ticks {}: {:?} vs reference {:?}", at, max, got, want),
                    }
                }
            }
        }
    }
}
