//! Masked benefit-scan engine shared by the parallel solver variants.
//!
//! The serial solvers maintain marginal benefits incrementally through
//! [`CoverState`](crate::cover_state::CoverState); workers cannot share
//! that mutable state, so the parallel paths recompute each candidate's
//! marginal benefit on demand as `|Ben(s) \ covered|` — a fused
//! [`BitSet::difference_count`] against per-set membership masks built
//! once per run. Because marginal benefits are monotone non-increasing,
//! "skip when the recount is zero" is observationally identical to the
//! serial deactivation rule, and folding chunk winners in ascending chunk
//! order under the canonical comparators yields the exact serial arg-max
//! for any thread count (DESIGN.md §11).

use crate::bitset::{BitSet, BlockSummary, LimitedCount};
use crate::cover_state::{benefit_order, gain_order, push_top, Candidate};
use crate::parallel::{prune_from_env, ThreadPool};
use crate::set_system::{SetId, SetSystem};
use crate::telemetry::{
    Event, Observer, PhaseSpan, ThreadLocalTelemetry, PHASE_SCAN, PHASE_SCAN_PRUNE,
};
use std::cmp::Ordering;

/// Builds one membership [`BitSet`] per set, in id order, on the pool.
pub fn build_masks(pool: &ThreadPool, system: &SetSystem) -> Vec<BitSet> {
    let n = system.num_elements();
    let ids: Vec<SetId> = (0..system.num_sets() as SetId).collect();
    pool.par_map(&ids, |&id| {
        let mut mask = BitSet::new(n);
        // `insert_hot`: member ids were validated against the universe by
        // the SetSystem builder (debug builds still range-check).
        for &e in system.members(id) {
            mask.insert_hot(e as usize);
        }
        mask
    })
}

/// Parallel arg-max over all sets: recounts each candidate's marginal
/// benefit against `covered` and keeps the best under `order`, chunked
/// across the pool with the serial tie-breaking contract.
///
/// `filter` is the structural pre-filter (level membership); `eligible`
/// gates on the recounted marginal benefit (CWSC's `i·|MBen| ≥ rem`
/// floor). Zero-benefit sets are always skipped. Each chunk records a
/// [`PHASE_SCAN`] span into its `tls` shard; the caller replays the
/// shards after the scan so per-worker spans nest under the open round
/// span. Returns `Greater`-preferred winner or `None` when no candidate
/// passes.
#[allow(clippy::too_many_arguments)]
pub fn masked_argmax<F, E, C>(
    pool: &ThreadPool,
    tls: &ThreadLocalTelemetry,
    system: &SetSystem,
    masks: &[BitSet],
    covered: &BitSet,
    filter: F,
    eligible: E,
    order: C,
) -> Option<Candidate>
where
    F: Fn(SetId) -> bool + Sync,
    E: Fn(usize) -> bool + Sync,
    C: Fn(Candidate, Candidate) -> Ordering + Sync,
{
    pool.par_chunks_reduce(
        masks.len(),
        |chunk, range| {
            let mut shard = tls.shard(chunk);
            let span = PhaseSpan::enter(&mut *shard, PHASE_SCAN);
            let mut best: Option<Candidate> = None;
            for id in range {
                let id = id as SetId;
                if !filter(id) {
                    continue;
                }
                let mben = masks[id as usize].difference_count(covered);
                if mben == 0 || !eligible(mben) {
                    continue;
                }
                let cand = Candidate {
                    id,
                    mben,
                    cost: system.cost(id),
                };
                best = Some(match best {
                    Some(b) if order(cand, b) != Ordering::Greater => b,
                    _ => cand,
                });
            }
            span.exit(&mut *shard);
            best
        },
        |a, b| {
            if order(b, a) == Ordering::Greater {
                b
            } else {
                a
            }
        },
    )
}

/// Parallel top-`cap` scan: like [`masked_argmax`] but returns the best
/// `cap` candidates best-first — the winner plus the audit ledger's
/// runners-up. Each chunk keeps its own sorted top list; chunk lists fold
/// in ascending chunk order through [`push_top`], and because the
/// canonical comparators are total orders the merged list is exactly the
/// serial scan's top-`cap` prefix for any thread count.
#[allow(clippy::too_many_arguments)]
pub fn masked_top<F, E, C>(
    pool: &ThreadPool,
    tls: &ThreadLocalTelemetry,
    system: &SetSystem,
    masks: &[BitSet],
    covered: &BitSet,
    filter: F,
    eligible: E,
    order: C,
    cap: usize,
) -> Vec<Candidate>
where
    F: Fn(SetId) -> bool + Sync,
    E: Fn(usize) -> bool + Sync,
    C: Fn(Candidate, Candidate) -> Ordering + Sync,
{
    pool.par_chunks_reduce(
        masks.len(),
        |chunk, range| {
            let mut shard = tls.shard(chunk);
            let span = PhaseSpan::enter(&mut *shard, PHASE_SCAN);
            let mut top: Vec<Candidate> = Vec::with_capacity(cap);
            for id in range {
                let id = id as SetId;
                if !filter(id) {
                    continue;
                }
                let mben = masks[id as usize].difference_count(covered);
                if mben == 0 || !eligible(mben) {
                    continue;
                }
                let cand = Candidate {
                    id,
                    mben,
                    cost: system.cost(id),
                };
                push_top(&mut top, cand, cap, &order);
            }
            span.exit(&mut *shard);
            Some(top)
        },
        |mut a, b| {
            for c in b {
                push_top(&mut a, c, cap, &order);
            }
            a
        },
    )
    .unwrap_or_default()
}

/// Which canonical comparator a pruned scan ranks candidates under.
///
/// The pruned scan needs more than an opaque comparator closure: to skip a
/// candidate it must *invert* the order — "what marginal benefit would this
/// candidate need to displace the current worst top-list member?" — so the
/// two canonical orders are enumerated here together with their bound
/// predicates (DESIGN.md §15).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanOrder {
    /// [`benefit_order`]: marginal benefit desc, cost asc, id asc.
    Benefit,
    /// [`gain_order`]: cross-multiplied gain desc, then benefit order.
    Gain,
}

impl ScanOrder {
    /// The comparator this order stands for.
    #[inline]
    pub fn cmp(self, a: Candidate, b: Candidate) -> Ordering {
        match self {
            ScanOrder::Benefit => benefit_order(a, b),
            ScanOrder::Gain => gain_order(a, b),
        }
    }

    /// The smallest marginal benefit at which a candidate with `cost`
    /// could still displace `worst` from a full top list, or `None` when
    /// even `bound` (an upper bound on the candidate's true benefit)
    /// cannot — prune outright.
    ///
    /// Soundness: a candidate whose *primary* key (marginal benefit, or
    /// the exact cross-multiplied f64 gain that [`gain_order`] itself
    /// computes) is strictly below `worst`'s compares `Less` before the
    /// cost/id tie-break levels are ever consulted, so no tie-break can
    /// resurrect a candidate below the returned threshold.
    fn entry_threshold(
        self,
        bound: usize,
        cost: crate::cost::Cost,
        worst: Candidate,
    ) -> Option<usize> {
        match self {
            ScanOrder::Benefit => (bound >= worst.mben).then_some(worst.mben),
            ScanOrder::Gain => {
                let wc = worst.cost.value();
                let wm = worst.mben as f64;
                let c = cost.value();
                // Strictly worse in the primary key exactly when
                // `m·wc < wm·c` — the comparison `gain_order` performs.
                // Monotone non-increasing in `m` (f64 multiply by wc ≥ 0).
                let below = |m: usize| (m as f64) * wc < wm * c;
                if below(bound) {
                    return None;
                }
                // Minimal t with !below(t), found from a ceil-division
                // estimate and corrected under the exact f64 predicate;
                // `bound` satisfies !below, so both fix-ups terminate.
                let mut t = if wc > 0.0 {
                    ((wm * c / wc).ceil().max(0.0) as usize).min(bound)
                } else {
                    bound
                };
                while below(t) {
                    t += 1;
                }
                while t > 0 && !below(t - 1) {
                    t -= 1;
                }
                Some(t)
            }
        }
    }
}

/// Per-scan advisory counts, merged across chunks and emitted once by the
/// caller — never from inside a telemetry shard, so the pruned scan adds
/// no replayed events and the audit stream stays byte-identical.
#[derive(Debug, Default, Clone, Copy)]
struct PruneTally {
    pruned: u64,
    refreshed: u64,
    inconclusive: u64,
}

impl PruneTally {
    fn add(&mut self, other: PruneTally) {
        self.pruned += other.pruned;
        self.refreshed += other.refreshed;
        self.inconclusive += other.inconclusive;
    }

    fn emit<O: Observer + ?Sized>(self, obs: &mut O) {
        if self.pruned > 0 {
            obs.on(&Event::ScanPruned(self.pruned));
        }
        if self.refreshed > 0 {
            obs.on(&Event::BoundRefreshed(self.refreshed));
        }
        if self.inconclusive > 0 {
            obs.on(&Event::SketchInconclusive(self.inconclusive));
        }
    }
}

/// Tier-A state of the sketch-pruned benefit scan: one stale upper bound
/// and one [`BlockSummary`] per set.
///
/// Invariants (DESIGN.md §15):
/// * `bounds[id] >= |Ben(id) \ covered|` at all times, because marginal
///   benefits are monotone non-increasing while `covered` only grows and
///   every refresh stores an exact (or provably-not-smaller) value.
/// * Summaries describe the immutable membership masks, so they are built
///   once and never refreshed.
///
/// Bounds are advisory: *which* candidates get exact counts may differ
/// across thread counts (chunk-local champions differ), but the returned
/// top lists are bit-identical to the exact scan's for any chunking.
#[derive(Debug)]
pub struct PrunedScan {
    enabled: bool,
    bounds: Vec<usize>,
    summaries: Vec<BlockSummary>,
}

impl PrunedScan {
    /// State for `masks`, honoring the `SCWSC_PRUNE` environment gate.
    pub fn new(masks: &[BitSet]) -> PrunedScan {
        PrunedScan::with_enabled(masks, prune_from_env())
    }

    /// State with an explicit enable flag (tests and A/B baselines).
    pub fn with_enabled(masks: &[BitSet], enabled: bool) -> PrunedScan {
        if !enabled {
            return PrunedScan {
                enabled,
                bounds: Vec::new(),
                summaries: Vec::new(),
            };
        }
        PrunedScan {
            enabled,
            bounds: masks.iter().map(BitSet::count_ones).collect(),
            summaries: masks.iter().map(BlockSummary::of).collect(),
        }
    }

    /// Whether pruning is active (otherwise every scan falls back to the
    /// exact unpruned path).
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Resets every bound to `|Ben(s)|`. Call whenever `covered` restarts
    /// from empty (a new CMC budget guess): bounds are only valid while
    /// coverage grows monotonically.
    pub fn reset(&mut self, masks: &[BitSet]) {
        if !self.enabled {
            return;
        }
        self.bounds.clear();
        self.bounds.extend(masks.iter().map(BitSet::count_ones));
    }

    /// Current upper bound on `id`'s marginal benefit (enabled scans only).
    #[inline]
    pub fn bound(&self, id: SetId) -> usize {
        self.bounds[id as usize]
    }
}

/// [`masked_top`] behind the two-tier pruned scan.
///
/// Identical return value to the exact scan — every skipped candidate is
/// *proved* unable to enter its chunk's top list by a stale bound, the
/// block-summary sketch, or an early-exited kernel — but far fewer exact
/// masked counts. `floor` is the smallest marginal benefit that satisfies
/// `eligible` (0 when `eligible` is unconditional); `eligible` itself must
/// be monotone (`!eligible(m)` implies `!eligible(m')` for `m' <= m`),
/// which both canonical eligibility rules (none, and CWSC's
/// `i·|MBen| >= rem` floor) satisfy. Advisory prune counters are emitted
/// on `obs` once, after the chunk merge.
#[allow(clippy::too_many_arguments)]
pub fn masked_top_pruned<F, E, O>(
    pool: &ThreadPool,
    tls: &ThreadLocalTelemetry,
    system: &SetSystem,
    masks: &[BitSet],
    scan: &mut PrunedScan,
    covered: &BitSet,
    filter: F,
    eligible: E,
    floor: usize,
    order: ScanOrder,
    cap: usize,
    obs: &mut O,
) -> Vec<Candidate>
where
    F: Fn(SetId) -> bool + Sync,
    E: Fn(usize) -> bool + Sync,
    O: Observer + ?Sized,
{
    if !scan.enabled {
        return masked_top(
            pool,
            tls,
            system,
            masks,
            covered,
            filter,
            eligible,
            |a, b| order.cmp(a, b),
            cap,
        );
    }
    if cap == 0 {
        return Vec::new();
    }
    let bounds: &[usize] = &scan.bounds;
    let summaries: &[BlockSummary] = &scan.summaries;
    type ChunkOut = (Vec<Candidate>, Vec<(SetId, usize)>, PruneTally);
    let result: Option<ChunkOut> = pool.par_chunks_reduce(
        masks.len(),
        |chunk, range| {
            let mut shard = tls.shard(chunk);
            let span = PhaseSpan::enter(&mut *shard, PHASE_SCAN_PRUNE);
            let mut top: Vec<Candidate> = Vec::with_capacity(cap);
            let mut updates: Vec<(SetId, usize)> = Vec::new();
            let mut tally = PruneTally::default();
            for id in range {
                let id = id as SetId;
                if !filter(id) {
                    continue;
                }
                let bound = bounds[id as usize];
                if bound == 0 || !eligible(bound) {
                    // The exact scan would count `mben <= bound` and then
                    // skip: zero stays zero and `eligible` is monotone.
                    tally.pruned += 1;
                    continue;
                }
                let cost = system.cost(id);
                let mut threshold = floor;
                if top.len() == cap {
                    let worst = *top.last().expect("cap > 0, list full");
                    match order.entry_threshold(bound, cost, worst) {
                        None => {
                            tally.pruned += 1;
                            continue;
                        }
                        Some(t) => threshold = threshold.max(t),
                    }
                }
                let counted = masks[id as usize].difference_count_limited(
                    covered,
                    &summaries[id as usize],
                    threshold,
                );
                match counted {
                    LimitedCount::Exact(mben) => {
                        updates.push((id, mben));
                        tally.refreshed += 1;
                        if threshold > 0 {
                            tally.inconclusive += 1;
                        }
                        if mben == 0 || !eligible(mben) {
                            continue;
                        }
                        push_top(&mut top, Candidate { id, mben, cost }, cap, |a, b| {
                            order.cmp(a, b)
                        });
                    }
                    LimitedCount::Short { nonzero } => {
                        // Provably below the displacement threshold: the
                        // exact scan would have counted this candidate and
                        // left the top list unchanged. Keep what the probe
                        // proved as the new (tighter) bound. `nonzero`
                        // implies threshold >= 2, so the subtraction holds.
                        updates.push((id, if nonzero { threshold - 1 } else { 0 }));
                        tally.pruned += 1;
                    }
                }
            }
            span.exit(&mut *shard);
            Some((top, updates, tally))
        },
        |(mut top, mut updates, mut tally), (top_b, updates_b, tally_b)| {
            for c in top_b {
                push_top(&mut top, c, cap, |a, b| order.cmp(a, b));
            }
            updates.extend(updates_b);
            tally.add(tally_b);
            (top, updates, tally)
        },
    );
    let Some((top, updates, tally)) = result else {
        return Vec::new();
    };
    for (id, bound) in updates {
        debug_assert!(
            bound <= scan.bounds[id as usize],
            "bounds must be monotone non-increasing (set {id})"
        );
        scan.bounds[id as usize] = bound;
    }
    tally.emit(obs);
    top
}

/// [`masked_argmax`] behind the pruned scan: the `cap == 1` special case
/// of [`masked_top_pruned`] (the canonical comparators are total orders,
/// so the single-slot top list and the replace-when-`Greater` fold pick
/// the same winner).
#[allow(clippy::too_many_arguments)]
pub fn masked_argmax_pruned<F, E, O>(
    pool: &ThreadPool,
    tls: &ThreadLocalTelemetry,
    system: &SetSystem,
    masks: &[BitSet],
    scan: &mut PrunedScan,
    covered: &BitSet,
    filter: F,
    eligible: E,
    floor: usize,
    order: ScanOrder,
    obs: &mut O,
) -> Option<Candidate>
where
    F: Fn(SetId) -> bool + Sync,
    E: Fn(usize) -> bool + Sync,
    O: Observer + ?Sized,
{
    if !scan.enabled {
        return masked_argmax(
            pool,
            tls,
            system,
            masks,
            covered,
            filter,
            eligible,
            |a, b| order.cmp(a, b),
        );
    }
    masked_top_pruned(
        pool, tls, system, masks, scan, covered, filter, eligible, floor, order, 1, obs,
    )
    .into_iter()
    .next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cover_state::{benefit_order, gain_order, CoverState};
    use crate::parallel::Threads;

    fn system() -> SetSystem {
        let mut b = SetSystem::builder(16);
        b.add_set([0, 1, 2, 3], 4.0)
            .add_set([2, 3, 4, 5], 4.0)
            .add_set([6, 7], 1.0)
            .add_set([8, 9, 10, 11, 12], 9.0)
            .add_set([13, 14, 15], 2.0)
            .add_universe_set(40.0);
        b.build().unwrap()
    }

    #[test]
    fn masks_match_memberships() {
        let sys = system();
        let pool = ThreadPool::new(Threads::new(4));
        let masks = build_masks(&pool, &sys);
        assert_eq!(masks.len(), sys.num_sets());
        for (id, set) in sys.iter() {
            assert_eq!(masks[id as usize].count_ones(), set.benefit());
            for &e in set.members() {
                assert!(masks[id as usize].contains(e as usize));
            }
        }
    }

    #[test]
    fn masked_argmax_matches_cover_state_scans() {
        let sys = system();
        let pool = ThreadPool::new(Threads::new(4));
        let masks = build_masks(&pool, &sys);
        let tls = ThreadLocalTelemetry::new(pool.threads());

        let mut state = CoverState::new(&sys);
        let mut covered = BitSet::new(sys.num_elements());
        // Walk a few greedy selections, comparing winners at every step.
        for _ in 0..4 {
            let serial_b = state.argmax_benefit(|_| true);
            let par_b = masked_argmax(
                &pool,
                &tls,
                &sys,
                &masks,
                &covered,
                |_| true,
                |_| true,
                benefit_order,
            );
            assert_eq!(par_b.map(|c| c.id), serial_b);
            let serial_g = state.argmax_gain(|_| true);
            let par_g = masked_argmax(
                &pool,
                &tls,
                &sys,
                &masks,
                &covered,
                |_| true,
                |_| true,
                gain_order,
            );
            assert_eq!(par_g.map(|c| c.id), serial_g);
            let Some(q) = serial_b else { break };
            let newly = state.select(q);
            let c = par_b.unwrap();
            assert_eq!(c.mben, newly, "recount equals incremental mben");
            covered.union_with(&masks[q as usize]);
        }
    }

    #[test]
    fn masked_top_matches_serial_top_for_any_thread_count() {
        let sys = system();
        for threads in [1usize, 2, 4] {
            let pool = ThreadPool::new(Threads::new(threads));
            let masks = build_masks(&pool, &sys);
            let tls = ThreadLocalTelemetry::new(pool.threads());
            let mut state = CoverState::new(&sys);
            let mut covered = BitSet::new(sys.num_elements());
            loop {
                let serial_b = state.top_benefit(4, |_| true);
                let par_b = masked_top(
                    &pool,
                    &tls,
                    &sys,
                    &masks,
                    &covered,
                    |_| true,
                    |_| true,
                    benefit_order,
                    4,
                );
                assert_eq!(par_b, serial_b, "benefit top @ {threads} threads");
                let serial_g = state.top_gain(4, |_| true);
                let par_g = masked_top(
                    &pool,
                    &tls,
                    &sys,
                    &masks,
                    &covered,
                    |_| true,
                    |_| true,
                    gain_order,
                    4,
                );
                assert_eq!(par_g, serial_g, "gain top @ {threads} threads");
                let Some(&win) = serial_g.first() else { break };
                state.select(win.id);
                covered.union_with(&masks[win.id as usize]);
            }
        }
    }

    /// Deterministic LCG so pruned-vs-exact checks run on irregular sets.
    fn lcg(seed: &mut u64) -> u64 {
        *seed = seed
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        *seed >> 33
    }

    fn random_system(seed: u64, sets: usize, universe: usize) -> SetSystem {
        let mut s = seed;
        let mut b = SetSystem::builder(universe);
        for _ in 0..sets {
            let len = 1 + (lcg(&mut s) as usize % (universe / 4).max(1));
            let members: Vec<u32> = (0..len)
                .map(|_| (lcg(&mut s) % universe as u64) as u32)
                .collect();
            let cost = 0.5 + (lcg(&mut s) % 100) as f64 / 10.0;
            b.add_set(members, cost);
        }
        b.add_universe_set(1.0e4);
        b.build().unwrap()
    }

    #[test]
    fn pruned_top_matches_exact_across_threads_and_orders() {
        let sys = random_system(0x5eed, 48, 384);
        for threads in [1usize, 2, 4] {
            for order in [ScanOrder::Benefit, ScanOrder::Gain] {
                let pool = ThreadPool::new(Threads::new(threads));
                let masks = build_masks(&pool, &sys);
                let tls = ThreadLocalTelemetry::new(pool.threads());
                let mut scan = PrunedScan::with_enabled(&masks, true);
                let mut covered = BitSet::new(sys.num_elements());
                let mut m = crate::telemetry::MetricsRecorder::new();
                loop {
                    let exact = masked_top(
                        &pool,
                        &tls,
                        &sys,
                        &masks,
                        &covered,
                        |_| true,
                        |_| true,
                        |a, b| order.cmp(a, b),
                        4,
                    );
                    let pruned = masked_top_pruned(
                        &pool,
                        &tls,
                        &sys,
                        &masks,
                        &mut scan,
                        &covered,
                        |_| true,
                        |_| true,
                        0,
                        order,
                        4,
                        &mut m,
                    );
                    assert_eq!(pruned, exact, "{order:?} top @ {threads} threads");
                    let Some(&win) = exact.first() else { break };
                    covered.union_with(&masks[win.id as usize]);
                }
                assert!(
                    m.scan_candidates_pruned > 0,
                    "pruning fired ({order:?}, {threads} threads)"
                );
                assert!(m.scan_bounds_refreshed > 0);
            }
        }
    }

    #[test]
    fn pruned_argmax_matches_exact_under_floor_and_filter() {
        let sys = random_system(0xf100d, 40, 256);
        let pool = ThreadPool::new(Threads::new(3));
        let masks = build_masks(&pool, &sys);
        let tls = ThreadLocalTelemetry::new(pool.threads());
        let mut scan = PrunedScan::with_enabled(&masks, true);
        let mut covered = BitSet::new(sys.num_elements());
        let mut m = crate::telemetry::MetricsRecorder::new();
        let filter = |id: SetId| id % 3 != 1;
        // CWSC-style monotone floor: candidates below `floor` are ineligible.
        for floor in [1usize, 3, 9, 27] {
            let exact = masked_argmax(
                &pool,
                &tls,
                &sys,
                &masks,
                &covered,
                filter,
                |m| m >= floor,
                gain_order,
            );
            let pruned = masked_argmax_pruned(
                &pool,
                &tls,
                &sys,
                &masks,
                &mut scan,
                &covered,
                filter,
                |m| m >= floor,
                floor,
                ScanOrder::Gain,
                &mut m,
            );
            assert_eq!(pruned, exact, "floor {floor}");
            if let Some(win) = exact {
                covered.union_with(&masks[win.id as usize]);
            }
        }
    }

    #[test]
    fn disabled_pruned_scan_delegates_to_exact_and_stays_silent() {
        let sys = random_system(0xd15ab1ed, 24, 128);
        let pool = ThreadPool::new(Threads::new(2));
        let masks = build_masks(&pool, &sys);
        let tls = ThreadLocalTelemetry::new(pool.threads());
        let mut scan = PrunedScan::with_enabled(&masks, false);
        assert!(!scan.is_enabled());
        let covered = BitSet::new(sys.num_elements());
        let mut m = crate::telemetry::MetricsRecorder::new();
        let exact = masked_top(
            &pool,
            &tls,
            &sys,
            &masks,
            &covered,
            |_| true,
            |_| true,
            benefit_order,
            4,
        );
        let via_scan = masked_top_pruned(
            &pool,
            &tls,
            &sys,
            &masks,
            &mut scan,
            &covered,
            |_| true,
            |_| true,
            0,
            ScanOrder::Benefit,
            4,
            &mut m,
        );
        assert_eq!(via_scan, exact);
        assert_eq!(m.scan_candidates_pruned, 0);
        assert_eq!(m.scan_bounds_refreshed, 0);
        assert_eq!(m.scan_sketch_inconclusive, 0);
        // Disabled scans record the plain scan phase, not the pruned one.
        tls.replay(&mut m);
        assert!(m.phases().iter().all(|p| p.name != PHASE_SCAN_PRUNE));
    }

    #[test]
    fn reset_restores_initial_bounds_after_tightening() {
        let sys = random_system(0x0b5e55ed, 16, 96);
        let pool = ThreadPool::new(Threads::new(2));
        let masks = build_masks(&pool, &sys);
        let tls = ThreadLocalTelemetry::new(pool.threads());
        let mut scan = PrunedScan::with_enabled(&masks, true);
        let initial: Vec<usize> = (0..masks.len()).map(|i| scan.bound(i as SetId)).collect();
        let mut covered = BitSet::new(sys.num_elements());
        let mut m = crate::telemetry::MetricsRecorder::new();
        for _ in 0..3 {
            let win = masked_argmax_pruned(
                &pool,
                &tls,
                &sys,
                &masks,
                &mut scan,
                &covered,
                |_| true,
                |_| true,
                0,
                ScanOrder::Benefit,
                &mut m,
            );
            let Some(win) = win else { break };
            covered.union_with(&masks[win.id as usize]);
        }
        assert!(
            (0..masks.len()).any(|i| scan.bound(i as SetId) < initial[i]),
            "some bound tightened"
        );
        scan.reset(&masks);
        let after: Vec<usize> = (0..masks.len()).map(|i| scan.bound(i as SetId)).collect();
        assert_eq!(after, initial);
    }

    #[test]
    fn scan_spans_land_in_shards() {
        let sys = system();
        let pool = ThreadPool::new(Threads::new(2));
        let masks = build_masks(&pool, &sys);
        let tls = ThreadLocalTelemetry::new(pool.threads());
        let covered = BitSet::new(sys.num_elements());
        let _ = masked_argmax(
            &pool,
            &tls,
            &sys,
            &masks,
            &covered,
            |_| true,
            |_| true,
            benefit_order,
        );
        let mut m = crate::telemetry::MetricsRecorder::new();
        tls.replay(&mut m);
        let scan = m.phases().iter().find(|p| p.name == PHASE_SCAN).unwrap();
        assert!(scan.count >= 1 && scan.count <= 2, "{}", scan.count);
    }
}
