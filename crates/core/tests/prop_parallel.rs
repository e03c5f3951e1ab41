//! Property test for the parallel execution layer's determinism contract:
//! for randomly generated set systems, `cmc`, `cwsc`, and `pareto_sweep`
//! on a multi-worker pool produce bit-identical solutions, costs, and
//! exact-diff telemetry counters to the serial run. Only the speculation
//! accounting (`guesses_committed` / `guesses_wasted`) may differ — it is
//! gated out of the exact-diff set by design.
//!
//! CMC's serial guess loop shares one element→sets incidence across its
//! budget guesses and ranks each line-17 pick over its cost level's
//! bucket only, while the pool uses row masks and a level filter over
//! every set. Under a tick budget and every level schedule the two must
//! also agree on `deadline.ticks()` and write byte-identical decision
//! ledgers (every round's winner and runners-up). Half the systems are
//! drawn so that the level buckets are tested where they can go wrong:
//! zero-cost sets (the final level is closed below) and costs exactly on
//! the `B/2^i`, `B/3^i` and `B/k` bounds of the guessed budgets.

use proptest::prelude::*;
use scwsc_core::algorithms::{cmc, cwsc, CmcParams, LevelSchedule};
use scwsc_core::multiweight::{pareto_sweep, MultiWeightSystem};
use scwsc_core::telemetry::audit::DecisionLedger;
use scwsc_core::{Deadline, MetricsRecorder, SetSystem, SolveOutcome, ThreadPool, Threads};

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

/// One `cmc` solve, under a `max_ticks` budget if one is given: the
/// outcome's Debug rendering, the ticks it consumed, and its decision
/// ledger's bytes.
fn ledgered_cmc(
    sys: &SetSystem,
    params: &CmcParams,
    pool: &ThreadPool,
    max_ticks: Option<u64>,
) -> (String, u64, Vec<u8>) {
    let deadline = match max_ticks {
        Some(ticks) => Deadline::unbounded().with_tick_budget(ticks),
        None => Deadline::unbounded(),
    };
    let mut ledger = DecisionLedger::new();
    let out = cmc(sys, params, pool, &deadline, &mut ledger);
    let mut jsonl = Vec::new();
    ledger.write_jsonl(&mut jsonl).expect("in-memory write");
    (format!("{out:?}"), deadline.ticks(), jsonl)
}

/// The exact-diff counter set: everything deterministic in
/// [`MetricsRecorder`], excluding the speculation counters and phase
/// timings (wall-clock is allowed to move).
fn assert_counters_equal(serial: &MetricsRecorder, parallel: &MetricsRecorder, ctx: &str) {
    assert_eq!(parallel.guesses, serial.guesses, "{ctx}: guesses");
    assert_eq!(
        parallel.levels_entered, serial.levels_entered,
        "{ctx}: levels_entered"
    );
    assert_eq!(
        parallel.level_allowance, serial.level_allowance,
        "{ctx}: level_allowance"
    );
    assert_eq!(parallel.selections, serial.selections, "{ctx}: selections");
    assert_eq!(
        parallel.benefits_computed, serial.benefits_computed,
        "{ctx}: benefits_computed"
    );
    assert_eq!(
        parallel.candidates_pruned, serial.candidates_pruned,
        "{ctx}: candidates_pruned"
    );
    assert_eq!(
        parallel.subtrees_pruned, serial.subtrees_pruned,
        "{ctx}: subtrees_pruned"
    );
    assert_eq!(
        parallel.heap_stale_pops, serial.heap_stale_pops,
        "{ctx}: heap_stale_pops"
    );
    assert_eq!(
        parallel.postings_scanned, serial.postings_scanned,
        "{ctx}: postings_scanned"
    );
    assert_eq!(
        parallel.marginal_benefit_hist, serial.marginal_benefit_hist,
        "{ctx}: marginal_benefit_hist"
    );
    assert_eq!(
        parallel.stale_run_hist, serial.stale_run_hist,
        "{ctx}: stale_run_hist"
    );
    // Serial runs never speculate.
    assert_eq!(serial.guesses_committed, 0, "{ctx}: serial speculation");
    assert_eq!(serial.guesses_wasted, 0, "{ctx}: serial speculation");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn parallel_determinism(
        num_elements in 20usize..120,
        num_sets in 8usize..48,
        seed in any::<u64>(),
        k in 2usize..6,
        threads in 2usize..5,
        boundary_costs in any::<bool>(),
        coverage_pct in 30u32..100,
        max_ticks in 1u64..60,
    ) {
        let sys = if boundary_costs {
            boundary_system(num_elements, num_sets, k, seed)
        } else {
            lcg_system(num_elements, num_sets, seed)
        };
        let serial_pool = ThreadPool::new(Threads::serial());
        let pool = ThreadPool::new(Threads::new(threads));
        let deadline = Deadline::unbounded();
        let coverage = 0.8;

        // CWSC: one greedy round.
        let mut sm = MetricsRecorder::new();
        let serial = cwsc(&sys, k, coverage, &serial_pool, &deadline, &mut sm);
        let mut pm = MetricsRecorder::new();
        let parallel = cwsc(&sys, k, coverage, &pool, &deadline, &mut pm);
        prop_assert_eq!(&parallel, &serial, "cwsc solutions");
        if let (Ok(SolveOutcome::Complete(s)), Ok(SolveOutcome::Complete(p))) = (&serial, &parallel) {
            prop_assert_eq!(p.total_cost(), s.total_cost(), "cwsc cost");
        }
        assert_counters_equal(&sm, &pm, "cwsc");

        // CMC: budget doubling with speculative parallel guessing.
        let params = CmcParams::classic(k, coverage, 1.0);
        let mut sm = MetricsRecorder::new();
        let serial = cmc(&sys, &params, &serial_pool, &deadline, &mut sm);
        let mut pm = MetricsRecorder::new();
        let parallel = cmc(&sys, &params, &pool, &deadline, &mut pm);
        prop_assert_eq!(&parallel, &serial, "cmc outcomes");
        if let (Ok(SolveOutcome::Complete(s)), Ok(SolveOutcome::Complete(p))) = (&serial, &parallel) {
            prop_assert_eq!(p.final_budget, s.final_budget, "cmc budget");
            prop_assert_eq!(
                p.solution.total_cost(),
                s.solution.total_cost(),
                "cmc cost"
            );
            // Every committed speculative guess corresponds 1:1 to a
            // serial guess; wasted guesses are extra work, never counted.
            prop_assert_eq!(pm.guesses_committed, sm.guesses, "cmc committed");
        }
        assert_counters_equal(&sm, &pm, "cmc");
        // The speculative run's decision ledger is the serial one, byte
        // for byte (its tick count is not: cancelled guesses tick too).
        let serial = ledgered_cmc(&sys, &params, &serial_pool, None);
        let parallel = ledgered_cmc(&sys, &params, &pool, None);
        prop_assert!(parallel.2 == serial.2, "cmc ledger bytes differ");

        // CMC under a tick budget (which also keeps the pool from
        // speculating across guesses), every level schedule.
        for schedule in [
            LevelSchedule::Classic,
            LevelSchedule::Epsilon(0.5),
            LevelSchedule::Generalized(2),
        ] {
            let params = CmcParams {
                schedule,
                ..CmcParams::classic(k, coverage_pct as f64 / 100.0, 1.0)
            };
            let serial = ledgered_cmc(&sys, &params, &serial_pool, Some(max_ticks));
            let parallel = ledgered_cmc(&sys, &params, &pool, Some(max_ticks));
            prop_assert_eq!(&parallel.0, &serial.0, "{:?}: outcome", schedule);
            prop_assert_eq!(parallel.1, serial.1, "{:?}: ticks", schedule);
            prop_assert!(parallel.2 == serial.2, "{:?}: ledger bytes differ", schedule);
        }

        // Pareto sweep: one scalarized CWSC per preference vector.
        let mw = {
            let mut mw = MultiWeightSystem::new(sys.num_elements(), 2);
            for (id, set) in sys.iter() {
                let c = sys.cost(id).value();
                mw.add_set(set.members().to_vec(), vec![c, 1.0 + c * 0.5])
                    .unwrap();
            }
            mw
        };
        let lambdas: Vec<Vec<f64>> = (0..5)
            .map(|i| {
                let w = i as f64 / 4.0;
                vec![w, 1.0 - w]
            })
            .collect();
        let mut sm = MetricsRecorder::new();
        let serial = pareto_sweep(&mw, k, coverage, &lambdas, &serial_pool, &deadline, &mut sm);
        let mut pm = MetricsRecorder::new();
        let parallel = pareto_sweep(&mw, k, coverage, &lambdas, &pool, &deadline, &mut pm);
        prop_assert_eq!(&parallel, &serial, "pareto fronts");
        assert_counters_equal(&sm, &pm, "pareto_sweep");
    }
}
