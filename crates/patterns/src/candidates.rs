//! Candidate bookkeeping shared by the optimized algorithms (Section V-C).
//!
//! Both Figure 3 and Figure 4 maintain a candidate set `C` of patterns
//! with materialized benefit sets, costs, and marginal benefits.
//! [`CandidatePool`] stores them with pattern-keyed lookup; comparator
//! functions mirror the canonical tie-breaking of
//! `scwsc_core::CoverState` (so the optimized CWSC provably selects the
//! same patterns as the unoptimized one, which the property tests check).

use crate::fxhash::FxHashMap;
use crate::pattern::Pattern;
use crate::table::RowId;
use scwsc_core::telemetry::{Event, Observer};
use scwsc_core::{BitSet, BlockSummary, LimitedCount};
use std::cmp::Ordering;

/// A materialized candidate pattern.
#[derive(Debug, Clone)]
pub struct Candidate {
    /// The pattern itself.
    pub pattern: Pattern,
    /// Its benefit set `Ben(p)` (sorted row ids).
    pub rows: Vec<RowId>,
    /// Its weight `Cost(p)`.
    pub cost: f64,
    /// Cached `|MBen(p, S)|`.
    pub mben: usize,
}

/// Index into a [`CandidatePool`].
pub type CandId = usize;

/// The candidate set `C`: patterns with cached marginal benefits.
///
/// Alongside each candidate's sorted row list, the pool materializes a
/// row [`BitSet`] mask plus its [`BlockSummary`], so every recount is a
/// blocked-popcount `|rows \ covered|` kernel instead of a per-row
/// membership loop, and [`recount_all_pruned`](CandidatePool::recount_all_pruned)
/// can abort a recount the moment it proves the result lands below the
/// next eligibility floor (DESIGN.md §15).
#[derive(Debug, Default)]
pub struct CandidatePool {
    cands: Vec<Candidate>,
    by_pattern: FxHashMap<Pattern, CandId>,
    alive: Vec<bool>,
    masks: Vec<BitSet>,
    summaries: Vec<BlockSummary>,
}

impl CandidatePool {
    /// Empty pool.
    pub fn new() -> CandidatePool {
        CandidatePool::default()
    }

    /// Inserts a pattern with its benefit rows and cost, computing its
    /// marginal benefit against `covered`. Re-inserting a pattern that was
    /// previously removed revives the stored entry (recounting `mben`).
    pub fn insert(
        &mut self,
        pattern: Pattern,
        rows: Vec<RowId>,
        cost: f64,
        covered: &BitSet,
    ) -> CandId {
        if let Some(&id) = self.by_pattern.get(&pattern) {
            self.alive[id] = true;
            self.recount(id, covered);
            return id;
        }
        let mut mask = BitSet::new(covered.len());
        for &r in &rows {
            mask.insert(r as usize);
        }
        let mben = mask.difference_count(covered);
        let id = self.cands.len();
        self.by_pattern.insert(pattern.clone(), id);
        self.cands.push(Candidate {
            pattern,
            rows,
            cost,
            mben,
        });
        self.summaries.push(BlockSummary::of(&mask));
        self.masks.push(mask);
        self.alive.push(true);
        id
    }

    /// The candidate with this id.
    pub fn get(&self, id: CandId) -> &Candidate {
        &self.cands[id]
    }

    /// Whether the pattern is currently in `C`.
    pub fn contains(&self, pattern: &Pattern) -> bool {
        self.by_pattern
            .get(pattern)
            .is_some_and(|&id| self.alive[id])
    }

    /// Whether the pattern was ever materialized (alive or not).
    pub fn known(&self, pattern: &Pattern) -> bool {
        self.by_pattern.contains_key(pattern)
    }

    /// Id of a pattern currently in `C`.
    pub fn id_of(&self, pattern: &Pattern) -> Option<CandId> {
        self.by_pattern
            .get(pattern)
            .copied()
            .filter(|&id| self.alive[id])
    }

    /// Removes a pattern from `C` (keeps its materialization for `known`).
    pub fn remove(&mut self, id: CandId) {
        self.alive[id] = false;
    }

    /// Whether `id` is in `C`.
    pub fn is_alive(&self, id: CandId) -> bool {
        self.alive[id]
    }

    /// Number of alive candidates.
    pub fn alive_count(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }

    /// Ids of alive candidates.
    pub fn alive_ids(&self) -> impl Iterator<Item = CandId> + '_ {
        self.alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| i)
    }

    /// Recounts one candidate's marginal benefit against `covered`;
    /// returns the new value.
    pub fn recount(&mut self, id: CandId, covered: &BitSet) -> usize {
        let c = &mut self.cands[id];
        c.mben = self.masks[id].difference_count(covered);
        c.mben
    }

    /// Recounts every alive candidate (the Fig. 3 lines 27–30 update),
    /// removing those whose marginal benefit dropped to zero.
    pub fn recount_all(&mut self, covered: &BitSet) {
        for id in 0..self.cands.len() {
            if self.alive[id] && self.recount(id, covered) == 0 {
                self.alive[id] = false;
            }
        }
    }

    /// [`recount_all`](CandidatePool::recount_all) fused with the *next*
    /// round's eligibility floor: a recount may early-exit as soon as the
    /// block-summary remainder proves the candidate lands below `floor`.
    ///
    /// Observationally identical to an exact recount followed by the
    /// caller's floor sweep:
    ///
    /// * `Exact(0)` drops the candidate silently — exactly the exact
    ///   path's zero-drop.
    /// * `Short {nonzero: false}` proves the count is zero (the early exit
    ///   scanned the remaining words), so the candidate drops silently too.
    /// * `Short {nonzero: true}` proves `0 < mben < floor`; the candidate
    ///   stays alive with its benefit clamped to 1, which the caller's
    ///   floor sweep then prunes with the same `BelowFloor` event the
    ///   exact value would have produced (`floor >= 2` whenever a short
    ///   nonzero count is possible, so 1 is always below it). A clamped
    ///   candidate that is instead *revived* later gets an exact
    ///   [`recount`](CandidatePool::recount) on insertion.
    ///
    /// Advisory telemetry: one `scan_pruned` per early-exited recount, one
    /// `bound_refreshed` per completed exact recount. With `floor <= 1`
    /// this is just the kernel recount (no early exit is possible).
    pub fn recount_all_pruned<O: Observer + ?Sized>(
        &mut self,
        covered: &BitSet,
        floor: usize,
        obs: &mut O,
    ) {
        let mut pruned = 0u64;
        let mut refreshed = 0u64;
        for id in 0..self.cands.len() {
            if !self.alive[id] {
                continue;
            }
            match self.masks[id].difference_count_limited(covered, &self.summaries[id], floor) {
                LimitedCount::Exact(n) => {
                    refreshed += 1;
                    self.cands[id].mben = n;
                    if n == 0 {
                        self.alive[id] = false;
                    }
                }
                LimitedCount::Short { nonzero: false } => {
                    pruned += 1;
                    self.cands[id].mben = 0;
                    self.alive[id] = false;
                }
                LimitedCount::Short { nonzero: true } => {
                    pruned += 1;
                    self.cands[id].mben = 1;
                }
            }
        }
        if pruned > 0 {
            obs.on(&Event::ScanPruned(pruned));
        }
        if refreshed > 0 {
            obs.on(&Event::BoundRefreshed(refreshed));
        }
    }

    /// The row mask of candidate `id` (used by the optimized CMC's
    /// delta recounts).
    pub fn mask(&self, id: CandId) -> &BitSet {
        &self.masks[id]
    }
}

/// Canonical benefit comparison (`Greater` = `a` preferred): marginal
/// benefit desc, cost asc, pattern asc — the pattern-space analogue of
/// `CoverState::benefit_order`.
pub fn benefit_order(a: &Candidate, b: &Candidate) -> Ordering {
    a.mben
        .cmp(&b.mben)
        .then_with(|| b.cost.total_cmp(&a.cost))
        .then_with(|| b.pattern.cmp(&a.pattern))
}

/// Canonical gain comparison (`Greater` = `a` preferred): marginal gain
/// desc (by exact cross-multiplication), then [`benefit_order`] — the
/// pattern-space analogue of `CoverState::gain_order`.
pub fn gain_order(a: &Candidate, b: &Candidate) -> Ordering {
    let ma = a.mben as f64;
    let mb = b.mben as f64;
    (ma * b.cost)
        .total_cmp(&(mb * a.cost))
        .then_with(|| benefit_order(a, b))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(mben: usize, cost: f64, pat: Vec<Option<u32>>) -> Candidate {
        Candidate {
            pattern: Pattern::new(pat),
            rows: Vec::new(),
            cost,
            mben,
        }
    }

    #[test]
    fn pool_insert_get_remove() {
        let covered = BitSet::new(10);
        let mut pool = CandidatePool::new();
        let p = Pattern::new(vec![Some(1)]);
        let id = pool.insert(p.clone(), vec![0, 3, 7], 2.0, &covered);
        assert!(pool.contains(&p));
        assert_eq!(pool.get(id).mben, 3);
        assert_eq!(pool.id_of(&p), Some(id));
        pool.remove(id);
        assert!(!pool.contains(&p));
        assert!(pool.known(&p));
        assert_eq!(pool.id_of(&p), None);
        assert_eq!(pool.alive_count(), 0);
    }

    #[test]
    fn insert_computes_mben_against_covered() {
        let mut covered = BitSet::new(10);
        covered.insert(3);
        let mut pool = CandidatePool::new();
        let id = pool.insert(Pattern::new(vec![None]), vec![0, 3, 7], 1.0, &covered);
        assert_eq!(pool.get(id).mben, 2);
    }

    #[test]
    fn reinsert_revives_and_recounts() {
        let mut covered = BitSet::new(10);
        let mut pool = CandidatePool::new();
        let p = Pattern::new(vec![Some(2)]);
        let id = pool.insert(p.clone(), vec![0, 1], 1.0, &covered);
        pool.remove(id);
        covered.insert(0);
        let id2 = pool.insert(p.clone(), Vec::new(), 1.0, &covered);
        assert_eq!(id, id2, "same slot revived");
        assert!(pool.contains(&p));
        assert_eq!(pool.get(id).mben, 1, "recounted against new coverage");
        assert_eq!(pool.get(id).rows, vec![0, 1], "original rows kept");
    }

    #[test]
    fn recount_all_drops_zeros() {
        let mut covered = BitSet::new(4);
        let mut pool = CandidatePool::new();
        pool.insert(Pattern::new(vec![Some(0)]), vec![0, 1], 1.0, &covered);
        pool.insert(Pattern::new(vec![Some(1)]), vec![2, 3], 1.0, &covered);
        covered.insert(0);
        covered.insert(1);
        pool.recount_all(&covered);
        assert_eq!(pool.alive_count(), 1);
        let alive: Vec<_> = pool.alive_ids().collect();
        assert_eq!(pool.get(alive[0]).mben, 2);
    }

    #[test]
    fn pruned_recount_matches_exact_with_floor_semantics() {
        use scwsc_core::telemetry::MetricsRecorder;
        let n = 2048;
        let mut seed = 0x5ca1ab1eu64;
        let mut lcg = move || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            seed >> 33
        };
        let empty = BitSet::new(n);
        let mut exact = CandidatePool::new();
        let mut pruned = CandidatePool::new();
        for i in 0..60u32 {
            let len = 1 + (lcg() as usize % 400);
            let rows: Vec<RowId> = (0..len).map(|_| (lcg() % n as u64) as RowId).collect();
            let mut rows = rows;
            rows.sort_unstable();
            rows.dedup();
            let pat = Pattern::new(vec![Some(i)]);
            exact.insert(pat.clone(), rows.clone(), 1.0 + i as f64, &empty);
            pruned.insert(pat, rows, 1.0 + i as f64, &empty);
        }
        let mut covered = BitSet::new(n);
        for _ in 0..n / 2 {
            covered.insert((lcg() % n as u64) as usize);
        }
        let mut m = MetricsRecorder::new();
        for floor in [0usize, 1, 8, 64, 400] {
            exact.recount_all(&covered);
            pruned.recount_all_pruned(&covered, floor, &mut m);
            for id in 0..60 {
                assert_eq!(
                    exact.is_alive(id),
                    pruned.is_alive(id),
                    "floor {floor} id {id}: liveness must agree"
                );
                if !exact.is_alive(id) {
                    continue;
                }
                let (e, p) = (exact.get(id).mben, pruned.get(id).mben);
                if e >= floor {
                    assert_eq!(p, e, "floor {floor} id {id}: survivors stay exact");
                } else {
                    // Below the floor the pruned count may be clamped, but
                    // stays nonzero and below the floor — exactly what the
                    // caller's BelowFloor sweep needs.
                    assert!(
                        p > 0 && p < floor.max(1),
                        "floor {floor} id {id}: {p} vs {e}"
                    );
                }
            }
        }
        assert!(m.scan_candidates_pruned > 0, "early exits fired");
        assert!(m.scan_bounds_refreshed > 0);
    }

    #[test]
    fn benefit_order_prefers_bigger_then_cheaper_then_smaller_pattern() {
        let a = cand(5, 1.0, vec![Some(0)]);
        let b = cand(3, 0.5, vec![Some(1)]);
        assert_eq!(benefit_order(&a, &b), Ordering::Greater);
        let c = cand(5, 0.5, vec![Some(1)]);
        assert_eq!(benefit_order(&c, &a), Ordering::Greater, "cheaper wins tie");
        let d = cand(5, 0.5, vec![Some(0)]);
        assert_eq!(
            benefit_order(&d, &c),
            Ordering::Greater,
            "smaller pattern wins"
        );
    }

    #[test]
    fn gain_order_cross_multiplies() {
        let a = cand(3, 2.0, vec![Some(0)]); // 1.5
        let b = cand(5, 4.0, vec![Some(1)]); // 1.25
        assert_eq!(gain_order(&a, &b), Ordering::Greater);
        // zero-cost wins against anything with finite gain
        let z = cand(1, 0.0, vec![Some(2)]);
        assert_eq!(gain_order(&z, &a), Ordering::Greater);
        // equal gains: larger mben preferred
        let c = cand(2, 2.0, vec![Some(3)]);
        let d = cand(4, 4.0, vec![Some(4)]);
        assert_eq!(gain_order(&d, &c), Ordering::Greater);
    }
}
