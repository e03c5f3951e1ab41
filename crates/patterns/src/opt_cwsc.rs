//! Optimized Concise Weighted Set Cover for patterned sets — Figure 3.
//!
//! Instead of materializing the full pattern cube, the candidate set `C`
//! starts with just the all-wildcards pattern and is expanded downwards
//! only where a child can still meet the current eligibility floor
//! `rem/i`. Because benefit is anti-monotone along the lattice, a child is
//! examined only when *all* of its parents are candidates (if any parent
//! fell below the floor, the child must be below it too). The waitlist `W`
//! processes candidates parents-before-children by always taking the
//! highest marginal benefit next.
//!
//! Provided both break ties the same way (they do — see
//! [`crate::candidates::gain_order`]), the optimized algorithm selects
//! exactly the same patterns in the same order as running the unoptimized
//! CWSC over the full materialization; the property tests assert this.

use crate::candidates::{gain_order, CandId, CandidatePool};
use crate::pattern::Pattern;
use crate::pattern_solution::PatternSolution;
use crate::space::{LatticeSpace, PatternSpace};
use scwsc_core::engine::{
    panic_message, Certificate, Deadline, DegradeReason, Degraded, EngineError, SolveOutcome,
};
use scwsc_core::parallel::prune_from_env;
use scwsc_core::telemetry::{
    audit, pack_k_target, Event, EventLog, Observer, PhaseSpan, PruneReason, TraceId, PHASE_EXPAND,
    PHASE_SCAN_PRUNE, PHASE_SELECT, PHASE_TOTAL,
};
use scwsc_core::{coverage_target, BitSet, SolveError};
use std::borrow::Cow;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs the optimized CWSC (Fig. 3): at most `k` patterns covering at
/// least `⌈coverage_fraction·n⌉` records of the space's table.
///
/// The run reports its work through any [`Observer`]: `benefit_computed`
/// per pattern whose benefit set and cost are materialized (Fig. 3 lines
/// 05 and 17 — the Figure 6 metric), `candidate_pruned(BelowFloor)` when a
/// candidate drops below the eligibility floor `rem/i`,
/// `subtree_pruned(BelowFloor)` when a child fails the floor at
/// materialization (its whole subtree stays unexplored),
/// `posting_scanned` for the parent rows bucketed during lattice
/// expansion, `set_selected` per pick, and a `"total"` phase span. Passing
/// `&mut Stats` recovers the classic counters.
///
/// ```
/// use scwsc_patterns::{opt_cwsc, CostFn, PatternSpace, Table};
/// use scwsc_core::Stats;
///
/// let mut b = Table::builder(&["Type", "Location"], "Cost");
/// b.push_row(&["A", "West"], 10.0).unwrap();
/// b.push_row(&["B", "South"], 2.0).unwrap();
/// b.push_row(&["B", "West"], 4.0).unwrap();
/// let table = b.build();
///
/// let space = PatternSpace::new(&table, CostFn::Max);
/// let summary = opt_cwsc(&space, 2, 2.0 / 3.0, &mut Stats::new()).unwrap();
/// assert!(summary.size() <= 2);
/// assert!(summary.covered >= 2);
/// summary.verify(&space); // recomputes coverage/cost independently
/// ```
pub fn opt_cwsc<O: Observer + ?Sized>(
    space: &PatternSpace<'_>,
    k: usize,
    coverage_fraction: f64,
    obs: &mut O,
) -> Result<PatternSolution, SolveError> {
    let n = space.num_rows();
    opt_cwsc_in(space, k, coverage_target(n, coverage_fraction), obs)
}

/// [`opt_cwsc`] with an explicit element-count target.
pub fn opt_cwsc_with_target<O: Observer + ?Sized>(
    space: &PatternSpace<'_>,
    k: usize,
    target: usize,
    obs: &mut O,
) -> Result<PatternSolution, SolveError> {
    opt_cwsc_in(space, k, target, obs)
}

/// The Figure 3 algorithm over any [`LatticeSpace`] — the flat pattern
/// cube or the hierarchy-enriched lattice of
/// [`crate::hierarchy::HierarchicalSpace`].
pub fn opt_cwsc_in<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    k: usize,
    target: usize,
    obs: &mut O,
) -> Result<PatternSolution, SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroSizeBound);
    }
    if target == 0 {
        return Ok(PatternSolution {
            patterns: Vec::new(),
            covered: 0,
            total_cost: 0.0,
        });
    }
    obs.on(&Event::TraceStarted(
        TraceId::mint(
            "opt_cwsc",
            space.num_rows() as u64,
            pack_k_target(k, target),
        ),
        "opt_cwsc",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    let result = match run_in(space, k, target, &Deadline::unbounded(), obs) {
        PatternRound::Done(result) => result,
        PatternRound::Expired { .. } => unreachable!("unbounded deadline cannot expire"),
    };
    span.exit(obs);
    result
}

/// [`opt_cwsc`] under a [`Deadline`]: the resilience-engine entry point
/// (DESIGN.md §12). See [`opt_cwsc_in_within`].
pub fn opt_cwsc_within<O: Observer + ?Sized>(
    space: &PatternSpace<'_>,
    k: usize,
    coverage_fraction: f64,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    let n = space.num_rows();
    opt_cwsc_in_within(
        space,
        k,
        coverage_target(n, coverage_fraction),
        deadline,
        obs,
    )
}

/// [`opt_cwsc_in`] under a [`Deadline`], over any [`LatticeSpace`].
///
/// One work tick is consumed per selection round and per waitlist pop
/// (so runaway lattice expansions stay interruptible). On expiry the
/// patterns picked so far return as [`SolveOutcome::Degraded`] with a
/// [`Certificate`] that
/// [`verify_certificate_in`](crate::pattern_solution::verify_certificate_in)
/// re-checks (`quotas_exhausted` is always empty — Fig. 3 has no cost
/// levels). The single round runs under `catch_unwind` with its telemetry
/// in a private [`EventLog`] (replayed only on normal completion); a
/// panic surfaces as [`EngineError::Panicked`]. The walk is
/// single-threaded, so tick streams are identical across thread counts.
pub fn opt_cwsc_in_within<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    k: usize,
    target: usize,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    if k == 0 {
        return Err(SolveError::ZeroSizeBound.into());
    }
    if target == 0 {
        return Ok(SolveOutcome::Complete(PatternSolution {
            patterns: Vec::new(),
            covered: 0,
            total_cost: 0.0,
        }));
    }
    obs.on(&Event::TraceStarted(
        TraceId::mint(
            "opt_cwsc",
            space.num_rows() as u64,
            pack_k_target(k, target),
        ),
        "opt_cwsc",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    let mut log = EventLog::new();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        run_in(space, k, target, deadline, &mut log)
    }));
    let result = match caught {
        Ok(round) => {
            log.replay(obs);
            match round {
                PatternRound::Done(result) => result
                    .map(SolveOutcome::Complete)
                    .map_err(EngineError::Solve),
                PatternRound::Expired { partial, reason } => {
                    obs.on(&Event::DegradeDecided(
                        reason.as_str(),
                        partial.covered as u64,
                        target as u64,
                    ));
                    let certificate = Certificate {
                        sets_used: partial.size(),
                        covered: partial.covered,
                        target,
                        total_cost: partial.total_cost,
                        quotas_exhausted: Vec::new(),
                        ticks: deadline.ticks(),
                        reason,
                    };
                    Ok(SolveOutcome::Degraded(Degraded {
                        partial,
                        certificate,
                    }))
                }
            }
        }
        Err(payload) => Err(EngineError::Panicked(panic_message(payload.as_ref()))),
    };
    span.exit(obs);
    result
}

/// How one deadline-aware Fig. 3 round ended.
enum PatternRound {
    Done(Result<PatternSolution, SolveError>),
    Expired {
        partial: PatternSolution,
        reason: DegradeReason,
    },
}

/// The Fig. 3 body, wrapped by [`opt_cwsc_in`]'s phase span. Consumes one
/// `deadline` work tick per selection round and per waitlist pop; under
/// an unbounded deadline the checkpoints can never fail.
fn run_in<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    k: usize,
    target: usize,
    deadline: &Deadline,
    obs: &mut O,
) -> PatternRound {
    // Like flat CWSC, the optimized variant is a single round.
    obs.on(&Event::GuessStarted(None));
    let prune = prune_from_env();
    let n = space.num_rows();
    let mut covered = BitSet::new(n);
    let mut solution = PatternSolution {
        patterns: Vec::with_capacity(k),
        covered: 0,
        total_cost: 0.0,
    };

    // Lines 01-06: C starts as just the all-wildcards pattern.
    let mut pool = CandidatePool::new();
    let root = space.root();
    let root_rows = space.root_rows();
    let root_cost = space.cost(&root_rows);
    pool.insert(root, root_rows, root_cost, &covered);
    obs.on(&Event::BenefitComputed(1));
    // Patterns selected into S (line 15's "not in ... S" check).
    let mut selected: Vec<Pattern> = Vec::new();

    let mut rem = target; // line 03

    for i in (1..=k).rev() {
        if let Err(reason) = deadline.checkpoint() {
            return PatternRound::Expired {
                partial: solution,
                reason,
            };
        }
        // Lines 08-10: drop candidates below the eligibility floor rem/i.
        // (Marginal benefits are already current: recount_all runs after
        // every selection.)
        let i_u = i as u64;
        let rem_u = rem as u64;
        let below_floor = |mben: usize| -> bool { i_u * (mben as u64) < rem_u };
        let to_drop: Vec<usize> = pool
            .alive_ids()
            .filter(|&id| below_floor(pool.get(id).mben))
            .collect();
        for id in to_drop {
            obs.on(&Event::CandidatePruned(PruneReason::BelowFloor));
            pool.remove(id);
        }

        // Line 11: the waitlist starts as all of C. Within the while loop
        // no selection happens, so marginal benefits are static and a
        // plain max-heap (mben desc, pattern asc) gives line 13's argmax.
        let expand_span = PhaseSpan::enter(obs, PHASE_EXPAND);
        let mut waitlist: BinaryHeap<(usize, Reverse<Pattern>, usize)> = pool
            .alive_ids()
            .map(|id| (pool.get(id).mben, Reverse(pool.get(id).pattern.clone()), id))
            .collect();

        // Lines 12-20: expand children that can meet the floor.
        while let Some((_, _, q_id)) = waitlist.pop() {
            if let Err(reason) = deadline.checkpoint() {
                expand_span.exit(obs);
                return PatternRound::Expired {
                    partial: solution,
                    reason,
                };
            }
            if !pool.is_alive(q_id) {
                continue; // pruned since being enqueued (defensive)
            }
            let children = {
                let q = pool.get(q_id);
                // Expansion buckets every parent row once per wildcard
                // attribute — the index-posting scan the lattice saves
                // relative to re-intersecting from scratch.
                let wildcards = q.pattern.values().iter().filter(|v| v.is_none()).count();
                obs.on(&Event::PostingScanned((q.rows.len() * wildcards) as u64));
                space.children_with_rows(&q.pattern, &q.rows)
            };
            for (child, child_rows) in children {
                if pool.contains(&child) || selected.contains(&child) {
                    continue; // line 15
                }
                // Line 16: all parents must currently be candidates.
                if !space.parents(&child).iter().all(|p| pool.contains(p)) {
                    continue;
                }
                // Line 17: materialize cost and marginal benefit.
                obs.on(&Event::BenefitComputed(1));
                let child_mben = child_rows
                    .iter()
                    .filter(|&&r| !covered.contains(r as usize))
                    .count();
                if below_floor(child_mben) {
                    // Anti-monotonicity: everything under `child` is below
                    // the floor too, so the whole subtree stays unexplored.
                    obs.on(&Event::SubtreePruned(PruneReason::BelowFloor));
                    continue; // line 18 fails: stays out of C and W
                }
                let cost = space.cost(&child_rows);
                let id = pool.insert(child.clone(), child_rows, cost, &covered);
                waitlist.push((pool.get(id).mben, Reverse(child), id));
            }
        }
        expand_span.exit(obs);

        // Line 21: argmax of marginal gain over C, kept as a sorted
        // best-first top list so the audit ledger records the runners-up
        // alongside the winner.
        let select_span = PhaseSpan::enter(obs, PHASE_SELECT);
        let mut top: Vec<CandId> = Vec::with_capacity(audit::TOP);
        for id in pool.alive_ids() {
            let pos = top.iter().position(|&t| {
                gain_order(pool.get(id), pool.get(t)) == std::cmp::Ordering::Greater
            });
            match pos {
                Some(p) => top.insert(p, id),
                None if top.len() < audit::TOP => top.push(id),
                None => continue,
            }
            top.truncate(audit::TOP);
        }
        let Some(&q_id) = top.first() else {
            select_span.exit(obs);
            return PatternRound::Done(Err(SolveError::NoSolution)); // line 22
        };
        // Pattern-space candidates audit under their pool id; ties beyond
        // cost actually break on the pattern ordering the pool id mirrors
        // (insertion is parents-before-children, deterministic).
        let as_audit = |id: CandId| {
            let c = pool.get(id);
            audit::AuditCandidate {
                id: id as u64,
                benefit: c.mben as u64,
                weight: c.cost,
            }
        };
        let runners: Vec<audit::AuditCandidate> = top[1..].iter().map(|&id| as_audit(id)).collect();
        obs.on(&Event::RoundDecided(
            audit::ORDER_GAIN,
            as_audit(q_id),
            Cow::Borrowed(&runners),
        ));

        // Lines 23-26: select q.
        let q = pool.get(q_id);
        let q_mben = q.mben;
        let q_cost = q.cost;
        let newly: Vec<u32> = q
            .rows
            .iter()
            .copied()
            .filter(|&r| !covered.contains(r as usize))
            .collect();
        debug_assert_eq!(newly.len(), q_mben, "recount kept mben current");
        obs.on(&Event::PriceCharged(
            q_id as u64,
            Cow::Borrowed(&newly),
            q_cost,
        ));
        solution.patterns.push(q.pattern.clone());
        solution.total_cost += q.cost;
        selected.push(q.pattern.clone());
        obs.on(&Event::SetSelected(q_id as u64, q_mben as u64, q_cost));
        for &r in &pool.get(q_id).rows {
            covered.insert(r as usize);
        }
        solution.covered = covered.count_ones();
        pool.remove(q_id);
        rem = rem.saturating_sub(q_mben);
        if rem == 0 {
            select_span.exit(obs);
            return PatternRound::Done(Ok(solution)); // line 25
        }
        // Lines 27-30: refresh marginal benefits, dropping exhausted ones.
        // When pruning is on, the recount is fused with the *next* round's
        // eligibility floor ⌈rem/(i-1)⌉ so recounts provably landing below
        // it can stop at the first proving block (the survivors' benefits
        // and the BelowFloor sweep above stay identical — see
        // `CandidatePool::recount_all_pruned`).
        if prune {
            let next_floor = if i > 1 { rem.div_ceil(i - 1) } else { 0 };
            let prune_span = PhaseSpan::enter(obs, PHASE_SCAN_PRUNE);
            pool.recount_all_pruned(&covered, next_floor, obs);
            prune_span.exit(obs);
        } else {
            pool.recount_all(&covered);
        }
        select_span.exit(obs);
    }

    // Eligibility guarantees each pick covers ≥ rem/i, so k picks always
    // reach the target; defensive fallthrough.
    PatternRound::Done(Err(SolveError::NoSolution))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_fn::CostFn;
    use crate::enumerate::enumerate_all;
    use crate::table::Table;
    use scwsc_core::algorithms::cwsc;
    use scwsc_core::Stats;

    /// The paper's Table I entities data set (16 records).
    fn entities() -> Table {
        let mut b = Table::builder(&["Type", "Location"], "Cost");
        for (t, l, c) in [
            ("A", "West", 10.0),
            ("A", "Northeast", 32.0),
            ("B", "South", 2.0),
            ("A", "North", 4.0),
            ("B", "East", 7.0),
            ("A", "Northwest", 20.0),
            ("B", "West", 4.0),
            ("B", "Southwest", 24.0),
            ("A", "Southwest", 4.0),
            ("B", "Northwest", 4.0),
            ("A", "North", 3.0),
            ("B", "Northeast", 3.0),
            ("B", "South", 1.0),
            ("B", "North", 20.0),
            ("A", "East", 3.0),
            ("A", "South", 96.0),
        ] {
            b.push_row(&[t, l], c).unwrap();
        }
        b.build()
    }

    /// Section V-B's worked example: k=2, ŝ=9/16 selects P16 {B,ALL}
    /// (gain 8/24) and then P3 {A,North} (gain 2/4), total cost 28.
    #[test]
    fn paper_worked_example() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let sol = opt_cwsc(&sp, 2, 9.0 / 16.0, &mut Stats::new()).unwrap();
        assert_eq!(sol.size(), 2);
        assert_eq!(sol.patterns[0].display(&t), "{Type=B, Location=ALL}");
        assert_eq!(sol.patterns[1].display(&t), "{Type=A, Location=North}");
        assert_eq!(sol.total_cost, 24.0 + 4.0);
        assert!(sol.covered >= 9);
        sol.verify(&sp);
    }

    /// On a data set big enough for the lattice pruning to matter, the
    /// optimized algorithm materializes far fewer patterns than the full
    /// cube (the Figure 6 effect). The 16-record paper example is too
    /// small to show it — there every pattern ends up eligible.
    #[test]
    fn considers_fewer_patterns_than_full_cube_at_scale() {
        let t = crate::test_util::skewed_table(600, 4, 7);
        let sp = PatternSpace::new(&t, CostFn::Max);
        let mut stats = Stats::new();
        let sol = opt_cwsc(&sp, 10, 0.3, &mut stats).unwrap();
        sol.verify(&sp);
        let unopt = enumerate_all(&t, CostFn::Max);
        assert!(
            (stats.considered as usize) < unopt.num_patterns() / 2,
            "optimized considered {} vs full cube {}",
            stats.considered,
            unopt.num_patterns()
        );
    }

    #[test]
    fn matches_unoptimized_selection_on_entities() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let m = enumerate_all(&t, CostFn::Max);
        for (k, s) in [
            (2usize, 9.0 / 16.0),
            (3, 0.5),
            (5, 0.8),
            (4, 1.0),
            (1, 0.25),
        ] {
            let opt = opt_cwsc(&sp, k, s, &mut Stats::new());
            let unopt = cwsc(&m.system, k, s, &mut Stats::new());
            match (opt, unopt) {
                (Ok(o), Ok(u)) => {
                    let u_patterns: Vec<&Pattern> = m.solution_patterns(&u);
                    let o_patterns: Vec<&Pattern> = o.patterns.iter().collect();
                    assert_eq!(o_patterns, u_patterns, "k={k} s={s}");
                    assert!((o.total_cost - u.total_cost().value()).abs() < 1e-9);
                    assert_eq!(o.covered, u.covered());
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("k={k} s={s}: optimized {a:?} vs unoptimized {b:?}"),
            }
        }
    }

    #[test]
    fn respects_k_and_coverage() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        for k in 1..=6 {
            let sol = opt_cwsc(&sp, k, 0.75, &mut Stats::new()).unwrap();
            assert!(sol.size() <= k);
            assert!(sol.covered >= 12);
            sol.verify(&sp);
        }
    }

    #[test]
    fn zero_target_returns_empty() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let sol = opt_cwsc(&sp, 3, 0.0, &mut Stats::new()).unwrap();
        assert_eq!(sol.size(), 0);
    }

    #[test]
    fn zero_k_is_an_error() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        assert_eq!(
            opt_cwsc(&sp, 0, 0.5, &mut Stats::new()),
            Err(SolveError::ZeroSizeBound)
        );
    }

    #[test]
    fn k1_full_coverage_selects_root() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let sol = opt_cwsc(&sp, 1, 1.0, &mut Stats::new()).unwrap();
        assert_eq!(sol.size(), 1);
        assert!(sol.patterns[0].is_root());
        assert_eq!(sol.covered, 16);
    }

    #[test]
    fn works_with_sum_cost_function() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Sum);
        let sol = opt_cwsc(&sp, 3, 0.5, &mut Stats::new()).unwrap();
        assert!(sol.covered >= 8);
        sol.verify(&sp);
    }

    mod within {
        use super::*;
        use crate::pattern_solution::verify_certificate_in;
        use scwsc_core::engine::{Deadline, DegradeReason, SolveOutcome};
        use scwsc_core::telemetry::MetricsRecorder;

        #[test]
        fn unbounded_deadline_matches_plain_opt_cwsc() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let plain = opt_cwsc(&sp, 2, 9.0 / 16.0, &mut Stats::new()).unwrap();
            let out = opt_cwsc_within(
                &sp,
                2,
                9.0 / 16.0,
                &Deadline::unbounded(),
                &mut MetricsRecorder::new(),
            )
            .unwrap();
            assert_eq!(out.expect_complete("unbounded"), plain);
        }

        #[test]
        fn tick_budget_degrades_with_verifiable_certificate() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            for budget in [0u64, 1, 2, 5] {
                let deadline = Deadline::unbounded().with_tick_budget(budget);
                let out =
                    opt_cwsc_within(&sp, 4, 1.0, &deadline, &mut MetricsRecorder::new()).unwrap();
                let SolveOutcome::Degraded(d) = out else {
                    continue; // larger budgets may legitimately finish
                };
                assert_eq!(d.certificate.reason, DegradeReason::TickBudget);
                assert!(d.certificate.quotas_exhausted.is_empty());
                let check = verify_certificate_in(&sp, &d.partial, &d.certificate);
                assert!(check.is_valid(), "budget {budget}: {check:?}");
            }
        }

        #[test]
        fn deadline_runs_are_deterministic() {
            let t = crate::test_util::skewed_table(300, 3, 5);
            let sp = PatternSpace::new(&t, CostFn::Max);
            let run = || {
                let deadline = Deadline::unbounded().with_tick_budget(40);
                opt_cwsc_within(&sp, 8, 0.9, &deadline, &mut MetricsRecorder::new()).unwrap()
            };
            assert_eq!(run(), run());
        }
    }
}
