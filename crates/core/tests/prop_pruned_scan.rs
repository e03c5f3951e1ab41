//! Property tests for the sketch-pruned scan path (DESIGN.md §15): for
//! randomly generated set systems — uniform and skewed costs, with and
//! without candidate filters — the pruned scan must be observationally
//! identical to the exact scan at every level the repo gates on:
//!
//! * the same top list (same sets, same counted benefits, same order)
//!   under both canonical scan orders, round after round as coverage
//!   grows and the stale bounds loosen;
//! * the same solutions, costs, and exact-diff counters from `cwsc` /
//!   `cmc` with `SCWSC_PRUNE=0` vs `=1`;
//! * byte-identical `--audit-jsonl` decision ledgers across both the
//!   prune toggle and the thread count (`Threads(1)` vs `Threads(4)`).
//!
//! Only the advisory counters (`scan_candidates_pruned`,
//! `scan_bounds_refreshed`, `scan_sketch_inconclusive`) may move — they
//! are excluded from the exact-diff set by design.
//!
//! This file intentionally holds a single `#[test]`: the algorithm-level
//! half toggles the `SCWSC_PRUNE` process environment, which would race
//! against any sibling test running on another thread.

use proptest::prelude::*;
use scwsc_core::algorithms::scan::{
    build_masks, masked_top, masked_top_pruned, PrunedScan, ScanOrder,
};
use scwsc_core::algorithms::{cmc, cwsc, CmcParams};
use scwsc_core::parallel::PRUNE_ENV;
use scwsc_core::telemetry::audit::DecisionLedger;
use scwsc_core::{
    BitSet, Deadline, Fanout, MetricsRecorder, NoopObserver, SetId, SetSystem,
    ThreadLocalTelemetry, ThreadPool, Threads,
};

/// Deterministic LCG-driven random set system. `skewed` switches the
/// cost model from uniform-ish to a cubed draw whose heavy tail makes
/// the gain order's cross-multiplied threshold do real work.
fn lcg_system(num_elements: usize, num_sets: usize, seed: u64, skewed: bool) -> SetSystem {
    let mut state = seed;
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (state >> 33) as usize
    };
    let mut b = SetSystem::builder(num_elements);
    for _ in 0..num_sets {
        let len = 1 + next() % 8;
        let members: Vec<u32> = (0..len).map(|_| (next() % num_elements) as u32).collect();
        let cost = if skewed {
            0.5 + ((next() % 10) as f64).powi(3) / 25.0
        } else {
            1.0 + (next() % 100) as f64 / 10.0
        };
        b.add_set(members, cost);
    }
    b.add_universe_set(num_elements as f64 * 2.0);
    b.build().unwrap()
}

/// Exact counters that must not move when pruning is toggled. The
/// advisory scan counters are deliberately absent (DESIGN.md §15).
fn assert_exact_counters_equal(exact: &MetricsRecorder, pruned: &MetricsRecorder, ctx: &str) {
    assert_eq!(pruned.guesses, exact.guesses, "{ctx}: guesses");
    assert_eq!(pruned.selections, exact.selections, "{ctx}: selections");
    assert_eq!(
        pruned.benefits_computed, exact.benefits_computed,
        "{ctx}: benefits_computed"
    );
    assert_eq!(
        pruned.levels_entered, exact.levels_entered,
        "{ctx}: levels_entered"
    );
    assert_eq!(
        pruned.level_allowance, exact.level_allowance,
        "{ctx}: level_allowance"
    );
    assert_eq!(
        pruned.candidates_pruned, exact.candidates_pruned,
        "{ctx}: candidates_pruned (reasoned prunes are exact, not advisory)"
    );
    assert_eq!(
        pruned.subtrees_pruned, exact.subtrees_pruned,
        "{ctx}: subtrees_pruned"
    );
    assert_eq!(
        pruned.heap_stale_pops, exact.heap_stale_pops,
        "{ctx}: heap_stale_pops"
    );
    assert_eq!(
        pruned.postings_scanned, exact.postings_scanned,
        "{ctx}: postings_scanned"
    );
    assert_eq!(
        pruned.marginal_benefit_hist, exact.marginal_benefit_hist,
        "{ctx}: marginal_benefit_hist"
    );
}

/// Runs `cwsc` + `cmc` on `pool` under the *current* `SCWSC_PRUNE`
/// setting, collecting metrics and the serialized decision ledger.
#[allow(clippy::type_complexity)]
fn solve_both(
    sys: &SetSystem,
    k: usize,
    coverage: f64,
    pool: &ThreadPool,
) -> (String, MetricsRecorder, Vec<u8>) {
    let mut metrics = MetricsRecorder::new();
    let mut ledger = DecisionLedger::new();
    let cwsc_out = {
        let mut fanout = Fanout::new();
        fanout.attach(&mut metrics).attach(&mut ledger);
        cwsc(sys, k, coverage, pool, &Deadline::unbounded(), &mut fanout)
    };
    let params = CmcParams::classic(k, coverage, 1.0);
    let cmc_out = {
        let mut fanout = Fanout::new();
        fanout.attach(&mut metrics).attach(&mut ledger);
        cmc(sys, &params, pool, &Deadline::unbounded(), &mut fanout)
    };
    // The Debug rendering pins ids, costs, and coverage of both runs.
    let outcome = format!("cwsc={cwsc_out:?} cmc={cmc_out:?}");
    let mut jsonl = Vec::new();
    ledger.write_jsonl(&mut jsonl).expect("in-memory write");
    (outcome, metrics, jsonl)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn pruned_scan_is_observationally_exact(
        num_elements in 20usize..100,
        num_sets in 8usize..48,
        seed in any::<u64>(),
        skewed in any::<bool>(),
        use_filter in any::<bool>(),
        k in 2usize..6,
        threads in 2usize..5,
    ) {
        let sys = lcg_system(num_elements, num_sets, seed, skewed);
        let pool = ThreadPool::new(Threads::new(threads));

        // --- Scan level: pruned top lists equal exact top lists round
        // after round, under both orders, as the stale bounds age.
        let masks = build_masks(&pool, &sys);
        let tls = ThreadLocalTelemetry::new(pool.threads());
        let filter = |id: SetId| !use_filter || !id.is_multiple_of(3);
        let mut covered = BitSet::new(sys.num_elements());
        let mut scan = PrunedScan::with_enabled(&masks, true);
        for round in 0..6 {
            for order in [ScanOrder::Benefit, ScanOrder::Gain] {
                for cap in [1usize, 4] {
                    let exact = masked_top(
                        &pool, &tls, &sys, &masks, &covered, filter, |_| true,
                        |a, b| order.cmp(a, b), cap,
                    );
                    tls.replay(&mut NoopObserver);
                    let pruned = masked_top_pruned(
                        &pool, &tls, &sys, &masks, &mut scan, &covered, filter,
                        |_| true, 0, order, cap, &mut NoopObserver,
                    );
                    tls.replay(&mut NoopObserver);
                    prop_assert_eq!(
                        &pruned, &exact,
                        "round {} {:?} cap {}: pruned top must equal exact top",
                        round, order, cap
                    );
                }
            }
            // Bound invariant: every stale bound dominates the true count.
            for (id, mask) in masks.iter().enumerate() {
                let true_mben = mask.difference_count(&covered);
                prop_assert!(
                    scan.bound(id as SetId) >= true_mben,
                    "round {}: bound({}) = {} < true {}",
                    round, id, scan.bound(id as SetId), true_mben
                );
            }
            // Grow coverage along the exact argmax trajectory.
            let best = masked_top(
                &pool, &tls, &sys, &masks, &covered, |_| true, |_| true,
                |a, b| ScanOrder::Benefit.cmp(a, b), 1,
            );
            tls.replay(&mut NoopObserver);
            match best.first() {
                Some(c) if c.mben > 0 => covered.union_with(&masks[c.id as usize]),
                _ => break,
            }
        }

        // --- Algorithm level: SCWSC_PRUNE=0 vs =1 must agree on
        // solutions, costs, exact counters, and ledger bytes — serially
        // and on the pool — and the pruned pool run must byte-match the
        // pruned serial run (thread-count determinism).
        let coverage = 0.8;
        let serial = ThreadPool::new(Threads::serial());
        std::env::set_var(PRUNE_ENV, "0");
        let (exact_out, exact_metrics, exact_jsonl) = solve_both(&sys, k, coverage, &serial);
        std::env::set_var(PRUNE_ENV, "1");
        let (pruned_out, pruned_metrics, pruned_jsonl) = solve_both(&sys, k, coverage, &serial);
        let (pool_out, pool_metrics, pool_jsonl) = solve_both(&sys, k, coverage, &pool);
        std::env::remove_var(PRUNE_ENV);

        prop_assert_eq!(&pruned_out, &exact_out, "prune toggle changed outcomes");
        assert_exact_counters_equal(&exact_metrics, &pruned_metrics, "prune toggle");
        prop_assert_eq!(
            &pruned_jsonl, &exact_jsonl,
            "prune toggle changed audit ledger bytes"
        );
        prop_assert_eq!(&pool_out, &pruned_out, "threads changed pruned outcomes");
        prop_assert_eq!(
            &pool_jsonl, &pruned_jsonl,
            "threads changed pruned audit ledger bytes"
        );
        // Pool-vs-serial exact counters: same contract prop_parallel.rs
        // pins for the unpruned path, now under pruning.
        assert_exact_counters_equal(&pruned_metrics, &pool_metrics, "pruned t1-vs-tN");
    }
}
