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
//! Provided both break ties the same way (they do — see `gain_order`),
//! the optimized algorithm selects exactly the same patterns in the same
//! order as running the unoptimized CWSC over the full materialization;
//! the property tests assert this.
//!
//! The walk reads the same cost-independent lattice as optimized CMC
//! (`crate::lattice`): a [`PatternInstance`](crate::PatternInstance)
//! parks one between solves of either algorithm, so a waitlist pop
//! expands its pattern only if no earlier pop or solve did. Ids, costs
//! and row masks belong to one solve, in the lattice's per-solve view.
//! This walk assigns a pattern its id at its first insertion into `C`,
//! and keeps each id's marginal benefit and membership in `C`
//! beside it. So every selection, tick, event and audit id is the same
//! on a shared lattice as on a fresh one — `posting_scanned` included,
//! since it counts the rows each pop buckets in Fig. 3, cached or not.

use crate::lattice::{kernel_min_rows, LatticeStash, OrderKey, Tally, View};
use crate::pattern_solution::{degrade, PatternSolution};
use crate::space::LatticeSpace;
use scwsc_core::engine::{panic_message, Deadline, EngineError, SolveOutcome};
use scwsc_core::telemetry::{
    audit, pack_k_target, Event, Observer, PhaseSpan, PruneReason, TraceId, PHASE_EXPAND,
    PHASE_SCAN_PRUNE, PHASE_SELECT, PHASE_TOTAL,
};
use scwsc_core::{coverage_target, BitSet, BlockSummary, LimitedCount, SolveError};
use std::borrow::Cow;
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs the optimized CWSC (Fig. 3): at most `k` patterns covering at
/// least `⌈coverage_fraction·n⌉` records of the space's table, under
/// `deadline` (DESIGN.md §12).
///
/// `space` is any [`LatticeSpace`] — the flat pattern cube
/// ([`PatternSpace`](crate::PatternSpace)) or the hierarchy-enriched
/// lattice of [`crate::hierarchy::HierarchicalSpace`]. The lattice walk
/// runs on the calling thread. The lattice is built for this solve and dropped with it; a
/// [`PatternInstance`](crate::PatternInstance) keeps its own between
/// solves.
///
/// The run reports its work through any [`Observer`], live, as totals
/// per round: `candidate_pruned(BelowFloor)` after the round's sweep for
/// the candidates below the eligibility floor `rem/i`; then, when the
/// round's `"expand"` span ends, `benefit_computed` for the patterns
/// whose marginal benefit was computed (Fig. 3 lines 05 and 17 — the
/// Figure 6 metric), `subtree_pruned(BelowFloor)` for the children that
/// failed the floor at materialization (their whole subtrees stay
/// unexplored) and `posting_scanned` for the parent rows the waitlist
/// pops bucketed into their children. Each pick emits `set_selected`, and
/// the solve a `"total"` phase span. Passing a
/// [`MetricsRecorder`](scwsc_core::MetricsRecorder) aggregates them into
/// counters.
///
/// One work tick is consumed per selection round and per waitlist pop
/// (so runaway lattice expansions stay interruptible). On expiry the
/// patterns picked so far return as [`SolveOutcome::Degraded`] with a
/// [`Certificate`](scwsc_core::Certificate) that
/// [`verify_certificate_in`](crate::pattern_solution::verify_certificate_in)
/// re-checks (`quotas_exhausted` is always empty — Fig. 3 has no cost
/// levels). The round runs under `catch_unwind`; a panic surfaces as
/// [`EngineError::Panicked`], after the events emitted before it.
///
/// ```
/// use scwsc_patterns::{opt_cwsc, CostFn, PatternSpace, Table};
/// use scwsc_core::{Deadline, NoopObserver};
///
/// let mut b = Table::builder(&["Type", "Location"], "Cost");
/// b.push_row(&["A", "West"], 10.0).unwrap();
/// b.push_row(&["B", "South"], 2.0).unwrap();
/// b.push_row(&["B", "West"], 4.0).unwrap();
/// let table = b.build();
///
/// let space = PatternSpace::new(&table, CostFn::Max);
/// let summary = opt_cwsc(&space, 2, 2.0 / 3.0, &Deadline::unbounded(), &mut NoopObserver)
///     .unwrap()
///     .expect_complete("an unbounded deadline never expires");
/// assert!(summary.size() <= 2);
/// assert!(summary.covered >= 2);
/// summary.verify(&space); // recomputes coverage/cost independently
/// ```
pub fn opt_cwsc<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    k: usize,
    coverage_fraction: f64,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    opt_cwsc_stashed(space, k, coverage_fraction, deadline, obs, None, true)
}

/// [`opt_cwsc`] on the lattice parked in `stash`, which must have been
/// grown over `space`'s table and lattice shape (any cost function, by
/// either optimized algorithm): a [`PatternInstance`](crate::PatternInstance)
/// passes its own, so repeated solves on one instance materialize each
/// node once (DESIGN.md §17). Without a stash the solve builds a fresh
/// lattice. A solve that panics drops the lattice it took: the panic may
/// have cut an expansion short.
///
/// `prune` fuses each refresh with the next round's floor (DESIGN.md
/// §15). Every shipped entry point passes `true`; `false` keeps the exact
/// recount as the reference the pruned ≡ unpruned property compares
/// against.
pub(crate) fn opt_cwsc_stashed<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    k: usize,
    coverage_fraction: f64,
    deadline: &Deadline,
    obs: &mut O,
    stash: Option<&LatticeStash>,
    prune: bool,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    if k == 0 {
        return Err(SolveError::ZeroSizeBound.into());
    }
    let target = coverage_target(space.num_rows(), coverage_fraction);
    if target == 0 {
        return Ok(SolveOutcome::Complete(PatternSolution::default()));
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
    let mut walk = Walk::new(View::new(space, stash));
    let caught = catch_unwind(AssertUnwindSafe(|| {
        run_in(&mut walk, k, target, deadline, obs, prune)
    }));
    // Every return flushes its round's totals; a panic leaves those it
    // counted before it.
    walk.tally.flush(obs);
    walk.view.tainted = caught.is_err();
    walk.view.park(stash);
    let result = match caught {
        Ok(outcome) => outcome.map_err(EngineError::Solve),
        Err(payload) => Err(EngineError::Panicked(panic_message(payload.as_ref()))),
    };
    span.exit(obs);
    result
}

/// Where a pattern stands in this solve's candidate set `C`.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Membership {
    InC,
    /// Left `C` below the floor or exhausted; may re-enter.
    Dropped,
    /// Selected into `S` (line 15's "not in ... S").
    Selected,
}

/// A pattern this solve has put into `C`.
struct Cand {
    /// Cached `|MBen(p, S)|`; a pruned recount may clamp a value below
    /// the floor to 1 (see [`Walk::recount`]).
    mben: usize,
    state: Membership,
}

/// One solve's candidate set `C`: its [`View`] of the lattice and the
/// per-id state of `C`.
///
/// The view assigns an id at a pattern's first insertion into `C` — the
/// root, then children in waitlist-pop order, each pop's children in
/// (attribute, value) order — whichever solve grew the shared lattice.
/// A pattern that leaves `C` keeps its id and revives it on re-entry.
/// The audit ledger reports these ids, and `C` is scanned in id order.
struct Walk<'a, S: LatticeSpace> {
    view: View<'a, S, (BlockSummary, BitSet)>,
    /// `cands[id]`: the state of the pattern with id `id`.
    cands: Vec<Cand>,
    /// The work of the round phase in progress.
    tally: Tally,
}

impl<'a, S: LatticeSpace> Walk<'a, S> {
    /// `C` = {all-wildcards} (Fig. 3 lines 01-06), nothing covered yet.
    fn new(view: View<'a, S, (BlockSummary, BitSet)>) -> Self {
        let root = Cand {
            mben: view.rows_of(0).len(),
            state: Membership::InC,
        };
        Walk {
            view,
            cands: vec![root],
            tally: Tally::new(PruneReason::BelowFloor),
        }
    }

    /// The ids currently in `C`, in id order.
    fn in_c(&self) -> impl Iterator<Item = u32> + '_ {
        (0..self.cands.len() as u32).filter(|&id| self[id].state == Membership::InC)
    }

    /// Whether shared node `g` is currently in `C`.
    fn contains(&self, g: u32) -> bool {
        self.view
            .id_of(g)
            .is_some_and(|id| self[id].state == Membership::InC)
    }

    /// Puts shared node `g` into `C` with marginal benefit `mben`: a new
    /// id or the id it held before it left `C`.
    fn insert(&mut self, g: u32, mben: usize) -> u32 {
        let id = self.view.assign(g);
        let cand = Cand {
            mben,
            state: Membership::InC,
        };
        match self.cands.get_mut(id as usize) {
            Some(held) => *held = cand,
            None => self.cands.push(cand),
        }
        id
    }

    /// Refreshes every marginal benefit in `C` against `covered` (Fig. 3
    /// lines 27–30), dropping candidates whose benefit reached zero.
    ///
    /// With a `floor` (the pruned refresh), a recount may stop as soon
    /// as its block suffix proves the candidate lands below the *next*
    /// round's eligibility floor, and the result is observationally
    /// identical to an exact recount followed by that round's floor
    /// sweep:
    ///
    /// * `Exact(0)` and `Short {nonzero: false}` drop the candidate
    ///   silently, as the exact recount's zero-drop does;
    /// * `Short {nonzero: true}` proves `0 < mben < floor`; the
    ///   candidate stays with its benefit clamped to 1, which the floor
    ///   sweep then prunes with the same `BelowFloor` event the exact
    ///   value would have produced (`floor >= 2` whenever a short
    ///   nonzero count is possible, so 1 is always below it). A clamped
    ///   candidate that re-enters `C` later does so with an exact count.
    ///
    /// Advisory telemetry, with a floor only: `scan_pruned` counts the
    /// early-exited recounts, `bound_refreshed` the completed ones.
    /// Short lists count their rows
    /// ([`BitSet::count_unset_limited`]), long ones run the blocked
    /// kernel on their mask; both reach the same verdicts.
    fn recount<O: Observer + ?Sized>(
        &mut self,
        covered: &BitSet,
        floor: Option<usize>,
        obs: &mut O,
    ) {
        let n = self.view.space.num_rows();
        let (mut pruned, mut refreshed) = (0u64, 0u64);
        for (id, cand) in (0..).zip(&mut self.cands) {
            if cand.state != Membership::InC {
                continue;
            }
            let rows = self.view.rows_of(id);
            let threshold = floor.unwrap_or(0);
            let count = if rows.len() < kernel_min_rows(n) {
                covered.count_unset_limited(rows, threshold)
            } else {
                let (summary, mask) = self.view.mask(id);
                mask.difference_count_limited(covered, summary, threshold)
            };
            let (mben, exact) = match count {
                LimitedCount::Exact(count) => (count, true),
                LimitedCount::Short { nonzero } => (usize::from(nonzero), false),
            };
            (refreshed, pruned) = (refreshed + u64::from(exact), pruned + u64::from(!exact));
            cand.mben = mben;
            if mben == 0 {
                cand.state = Membership::Dropped;
            }
        }
        if floor.is_some() {
            self.tally.scan_pruned += pruned;
            self.tally.bounds_refreshed += refreshed;
        }
        self.tally.flush(obs);
    }

    /// [`gain_order`] of ids `a` and `b`.
    fn gain_order(&self, a: u32, b: u32) -> Ordering {
        let view = &self.view;
        gain_order(
            (self[a].mben, view.cost(a)),
            (self[b].mben, view.cost(b)),
            || view.keys().cmp(view.node(b), view.node(a)),
        )
    }
}

impl<S: LatticeSpace> std::ops::Index<u32> for Walk<'_, S> {
    type Output = Cand;
    fn index(&self, id: u32) -> &Cand {
        &self.cands[id as usize]
    }
}

impl<S: LatticeSpace> std::ops::IndexMut<u32> for Walk<'_, S> {
    fn index_mut(&mut self, id: u32) -> &mut Cand {
        &mut self.cands[id as usize]
    }
}

/// Canonical gain comparison of two candidates given as `(mben, cost)`
/// (`Greater` = `a` preferred): marginal gain desc by exact
/// cross-multiplication, then marginal benefit desc, cost asc, and
/// pattern asc — the pattern-space analogue of `CoverState::gain_order`.
/// `b_vs_a` compares `b`'s pattern to `a`'s; it runs only on a full tie.
fn gain_order(
    (ma, ca): (usize, f64),
    (mb, cb): (usize, f64),
    b_vs_a: impl FnOnce() -> Ordering,
) -> Ordering {
    (ma as f64 * cb)
        .total_cmp(&(mb as f64 * ca))
        .then(ma.cmp(&mb))
        .then_with(|| cb.total_cmp(&ca))
        .then_with(b_vs_a)
}

/// The Fig. 3 body, wrapped by [`opt_cwsc`]'s phase span. Consumes one
/// `deadline` work tick per selection round and per waitlist pop, and
/// degrades to the patterns picked so far when one fails.
fn run_in<S: LatticeSpace, O: Observer + ?Sized>(
    walk: &mut Walk<'_, S>,
    k: usize,
    target: usize,
    deadline: &Deadline,
    obs: &mut O,
    prune: bool,
) -> Result<SolveOutcome<PatternSolution>, SolveError> {
    // Like flat CWSC, the optimized variant is a single round.
    obs.on(&Event::GuessStarted(None));
    let space = walk.view.space;
    let mut covered = BitSet::new(space.num_rows());
    let mut solution = PatternSolution {
        patterns: Vec::with_capacity(k),
        ..PatternSolution::default()
    };

    // Lines 01-06: C starts as just the all-wildcards pattern.
    obs.on(&Event::BenefitComputed(1));

    let mut rem = target; // line 03

    // The waitlist, drained by every round, keeps its capacity across them.
    let mut waitlist: BinaryHeap<(usize, Reverse<OrderKey>, u32)> = BinaryHeap::new();

    for i in (1..=k).rev() {
        if let Err(reason) = deadline.checkpoint() {
            return Ok(degrade(solution, Vec::new(), reason, target, deadline, obs));
        }
        // Lines 08-10: drop candidates below the eligibility floor rem/i.
        // (Marginal benefits are already current: the recount runs after
        // every selection.)
        let i_u = i as u64;
        let rem_u = rem as u64;
        let below_floor = |mben: usize| -> bool { i_u * (mben as u64) < rem_u };
        for cand in &mut walk.cands {
            if cand.state == Membership::InC && below_floor(cand.mben) {
                walk.tally.candidates_pruned += 1;
                cand.state = Membership::Dropped;
            }
        }
        walk.tally.flush(obs);

        // Line 11: the waitlist starts as all of C. Within the while loop
        // no selection happens, so marginal benefits are static and a
        // plain max-heap (mben desc, pattern asc) gives line 13's argmax.
        let expand_span = PhaseSpan::enter(obs, PHASE_EXPAND);
        let (view, keys) = (&walk.view, walk.view.keys());
        waitlist.extend(
            walk.in_c()
                .map(|id| (walk[id].mben, Reverse(keys.order_key(view.node(id))), id)),
        );

        // Lines 12-20: expand children that can meet the floor.
        while let Some((_, _, q_id)) = waitlist.pop() {
            if let Err(reason) = deadline.checkpoint() {
                walk.tally.flush(obs);
                expand_span.exit(obs);
                return Ok(degrade(solution, Vec::new(), reason, target, deadline, obs));
            }
            // Expansion buckets every parent row once per wildcard
            // attribute — the index-posting scan the lattice saves
            // relative to re-intersecting from scratch. Fig. 3 does it on
            // every pop; the shared lattice only on the first.
            let view = &mut walk.view;
            let wildcards = view.keys().wildcards(view.node(q_id));
            walk.tally.postings += (view.rows_of(q_id).len() * wildcards) as u64;
            view.expand(q_id, false);
            for c in 0..walk.view.children(q_id).len() {
                let child = walk.view.children(q_id)[c];
                let known = walk.view.id_of(child);
                if known.is_some_and(|id| walk[id].state != Membership::Dropped) {
                    continue; // line 15: already in C or S
                }
                // Line 16: all parents must currently be candidates.
                if !walk
                    .view
                    .keys()
                    .all_parents(space, child, |p| walk.contains(p))
                {
                    continue;
                }
                // Line 17: compute the marginal benefit (and, on entry to
                // C, the cost).
                walk.tally.benefits += 1;
                let child_mben = walk
                    .view
                    .rows_of_node(child)
                    .iter()
                    .filter(|&&r| !covered.contains(r as usize))
                    .count();
                if below_floor(child_mben) {
                    // Anti-monotonicity: everything under `child` is below
                    // the floor too, so the whole subtree stays unexplored.
                    walk.tally.subtrees_pruned += 1;
                    continue; // line 18 fails: stays out of C and W
                }
                let order = walk.view.keys().order_key(child);
                let id = walk.insert(child, child_mben);
                waitlist.push((child_mben, Reverse(order), id));
            }
        }
        walk.tally.flush(obs);
        expand_span.exit(obs);

        // Line 21: argmax of marginal gain over C, kept as a sorted
        // best-first top list so the audit ledger records the runners-up
        // alongside the winner.
        let select_span = PhaseSpan::enter(obs, PHASE_SELECT);
        let mut top: Vec<u32> = Vec::with_capacity(audit::TOP);
        for id in walk.in_c() {
            let pos = top
                .iter()
                .position(|&t| walk.gain_order(id, t) == Ordering::Greater);
            match pos {
                Some(p) => top.insert(p, id),
                None if top.len() < audit::TOP => top.push(id),
                None => continue,
            }
            top.truncate(audit::TOP);
        }
        let Some(&q_id) = top.first() else {
            select_span.exit(obs);
            return Err(SolveError::NoSolution); // line 22
        };
        // Pattern-space candidates audit under their solve id; ties beyond
        // cost actually break on the pattern order (ids follow insertion,
        // parents-before-children, deterministic).
        let as_audit = |id: u32| audit::AuditCandidate {
            id: u64::from(id),
            benefit: walk[id].mben as u64,
            weight: walk.view.cost(id),
        };
        let runners: Vec<audit::AuditCandidate> = top[1..].iter().map(|&id| as_audit(id)).collect();
        obs.on(&Event::RoundDecided(
            audit::ORDER_GAIN,
            as_audit(q_id),
            Cow::Borrowed(&runners),
        ));

        // Lines 23-26: select q.
        let q_mben = walk[q_id].mben;
        let q_cost = walk.view.cost(q_id);
        let newly: Vec<u32> = walk
            .view
            .rows_of(q_id)
            .iter()
            .copied()
            .filter(|&r| !covered.contains(r as usize))
            .collect();
        debug_assert_eq!(newly.len(), q_mben, "recount kept mben current");
        obs.on(&Event::PriceCharged(
            u64::from(q_id),
            Cow::Borrowed(&newly),
            q_cost,
        ));
        solution.patterns.push(walk.view.pattern(q_id));
        solution.total_cost += q_cost;
        obs.on(&Event::SetSelected(u64::from(q_id), q_mben as u64, q_cost));
        for &r in &newly {
            covered.insert(r as usize);
        }
        solution.covered = covered.count_ones();
        walk[q_id].state = Membership::Selected;
        rem = rem.saturating_sub(q_mben);
        if rem == 0 {
            select_span.exit(obs);
            return Ok(SolveOutcome::Complete(solution)); // line 25
        }
        // Lines 27-30: refresh marginal benefits, dropping exhausted ones.
        // When pruning is on, the recount is fused with the *next* round's
        // eligibility floor ⌈rem/(i-1)⌉ so recounts provably landing below
        // it can stop at the first proving block (the survivors' benefits
        // and the BelowFloor sweep above stay identical — see
        // `Walk::recount`).
        if prune {
            let next_floor = if i > 1 { rem.div_ceil(i - 1) } else { 0 };
            let prune_span = PhaseSpan::enter(obs, PHASE_SCAN_PRUNE);
            walk.recount(&covered, Some(next_floor), obs);
            prune_span.exit(obs);
        } else {
            walk.recount(&covered, None, obs);
        }
        select_span.exit(obs);
    }

    // Eligibility guarantees each pick covers ≥ rem/i, so k picks always
    // reach the target; defensive fallthrough.
    Err(SolveError::NoSolution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_fn::CostFn;
    use crate::enumerate::enumerate_all;
    use crate::pattern::Pattern;
    use crate::space::PatternSpace;
    use crate::test_util::{complete, entities};
    use scwsc_core::algorithms::cwsc;
    use scwsc_core::{MetricsRecorder, NoopObserver, SetSystem, Solution};

    fn solve(
        space: &PatternSpace<'_>,
        k: usize,
        coverage: f64,
        obs: &mut dyn Observer,
    ) -> Result<PatternSolution, SolveError> {
        complete(opt_cwsc(space, k, coverage, &Deadline::unbounded(), obs))
    }

    /// Fig. 2 CWSC over the materialized cube.
    fn solve_unopt(system: &SetSystem, k: usize, coverage: f64) -> Result<Solution, SolveError> {
        complete(cwsc(
            system,
            k,
            coverage,
            &Deadline::unbounded(),
            &mut NoopObserver,
        ))
    }

    /// Section V-B's worked example: k=2, ŝ=9/16 selects P16 {B,ALL}
    /// (gain 8/24) and then P3 {A,North} (gain 2/4), total cost 28.
    #[test]
    fn paper_worked_example() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let sol = solve(&sp, 2, 9.0 / 16.0, &mut NoopObserver).unwrap();
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
        let mut metrics = MetricsRecorder::new();
        let sol = solve(&sp, 10, 0.3, &mut metrics).unwrap();
        sol.verify(&sp);
        let unopt = enumerate_all(&t, CostFn::Max);
        assert!(
            (metrics.benefits_computed as usize) < unopt.num_patterns() / 2,
            "optimized considered {} vs full cube {}",
            metrics.benefits_computed,
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
            let opt = solve(&sp, k, s, &mut NoopObserver);
            let unopt = solve_unopt(&m.system, k, s);
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
            let sol = solve(&sp, k, 0.75, &mut NoopObserver).unwrap();
            assert!(sol.size() <= k);
            assert!(sol.covered >= 12);
            sol.verify(&sp);
        }
    }

    #[test]
    fn zero_target_returns_empty() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let sol = solve(&sp, 3, 0.0, &mut NoopObserver).unwrap();
        assert_eq!(sol.size(), 0);
    }

    #[test]
    fn zero_k_is_an_error() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        assert_eq!(
            solve(&sp, 0, 0.5, &mut NoopObserver),
            Err(SolveError::ZeroSizeBound)
        );
    }

    #[test]
    fn k1_full_coverage_selects_root() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let sol = solve(&sp, 1, 1.0, &mut NoopObserver).unwrap();
        assert_eq!(sol.size(), 1);
        assert!(sol.patterns[0].is_root());
        assert_eq!(sol.covered, 16);
    }

    #[test]
    fn works_with_sum_cost_function() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Sum);
        let sol = solve(&sp, 3, 0.5, &mut NoopObserver).unwrap();
        assert!(sol.covered >= 8);
        sol.verify(&sp);
    }

    #[test]
    fn gain_order_prefers_bigger_then_cheaper_then_smaller_pattern() {
        let [p0, p1] = [Some(0), Some(1)].map(|v| Pattern::new(vec![v]));
        let tie = || panic!("not a full tie");
        assert_eq!(gain_order((3, 2.0), (5, 4.0), tie), Ordering::Greater); // 1.5 vs 1.25
        assert_eq!(
            gain_order((1, 0.0), (3, 2.0), tie),
            Ordering::Greater,
            "zero cost"
        );
        assert_eq!(
            gain_order((4, 1.0), (2, 0.5), tie),
            Ordering::Greater,
            "bigger"
        );
        assert_eq!(
            gain_order((0, 1.0), (0, 2.0), tie),
            Ordering::Greater,
            "cheaper"
        );
        // A full tie falls to the pattern, the smaller one preferred.
        assert_eq!(
            gain_order((5, 0.5), (5, 0.5), || p1.cmp(&p0)),
            Ordering::Greater
        );
        assert_eq!(
            gain_order((5, 0.5), (5, 0.5), || p0.cmp(&p1)),
            Ordering::Less
        );
    }

    /// `C` over the root's children and grandchildren of a 2,048-row
    /// table: row lists on both sides of `kernel_min_rows`.
    fn grandchildren<'a>(sp: &'a PatternSpace<'a>) -> Walk<'a, PatternSpace<'a>> {
        let mut walk = Walk::new(View::new(sp, None));
        let mut level = 0..1;
        for _ in 0..2 {
            let next = walk.cands.len() as u32;
            for id in level {
                walk.view.expand(id, false);
                for child in walk.view.children(id).to_vec() {
                    if walk.view.id_of(child).is_none() {
                        walk.insert(child, walk.view.rows_of_node(child).len());
                    }
                }
            }
            level = next..walk.cands.len() as u32;
        }
        walk
    }

    #[test]
    fn pruned_recount_matches_exact_with_floor_semantics() {
        use scwsc_core::telemetry::MetricsRecorder;
        let t = crate::test_util::skewed_table(2048, 3, 12);
        let sp = PatternSpace::new(&t, CostFn::Max);
        let (mut exact, mut pruned) = (grandchildren(&sp), grandchildren(&sp));
        let short = exact
            .cands
            .iter()
            .filter(|c| c.mben < kernel_min_rows(2048));
        assert!(
            short.count() > 10 && exact.cands.len() > 60,
            "both recount paths run"
        );
        let mut covered = BitSet::new(2048);
        let mut rng = crate::test_util::XorShift::new(0x5ca1ab1e);
        let mut m = MetricsRecorder::new();
        for floor in [0usize, 1, 8, 64, 400] {
            for _ in 0..300 {
                covered.insert(rng.below(2048) as usize);
            }
            exact.recount(&covered, None, &mut m);
            pruned.recount(&covered, Some(floor), &mut m);
            for (e, p) in exact.cands.iter().zip(&pruned.cands) {
                assert!(e.state == p.state, "floor {floor}: liveness must agree");
                if e.state != Membership::InC {
                    continue;
                }
                if e.mben >= floor {
                    assert_eq!(p.mben, e.mben, "floor {floor}: survivors stay exact");
                } else {
                    // Below the floor the pruned count may be clamped, but
                    // stays nonzero and below the floor — exactly what the
                    // caller's BelowFloor sweep needs.
                    assert!(p.mben > 0 && p.mben < floor.max(1), "floor {floor}");
                }
            }
        }
        assert!(!pruned.view.masks.is_empty(), "long lists ran the kernel");
        assert!(m.scan_candidates_pruned > 0, "early exits fired");
        assert!(m.scan_bounds_refreshed > 0);
    }

    mod within {
        use super::*;
        use crate::pattern_solution::verify_certificate_in;
        use scwsc_core::engine::DegradeReason;
        use scwsc_core::telemetry::MetricsRecorder;

        #[test]
        fn tick_budget_degrades_with_verifiable_certificate() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            for budget in [0u64, 1, 2, 5] {
                let deadline = Deadline::unbounded().with_tick_budget(budget);
                let out = opt_cwsc(&sp, 4, 1.0, &deadline, &mut MetricsRecorder::new()).unwrap();
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
                opt_cwsc(&sp, 8, 0.9, &deadline, &mut MetricsRecorder::new()).unwrap()
            };
            assert_eq!(run(), run());
        }
    }
}
