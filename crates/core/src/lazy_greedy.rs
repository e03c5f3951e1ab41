//! Lazy-evaluation max-heap for submodular greedy selection.
//!
//! Marginal benefit is non-increasing as the partial solution grows
//! (submodularity of coverage), so a heap entry holding a *stale* marginal
//! benefit is still an upper bound on the true one. Popping the top,
//! recomputing its value, and re-inserting when stale therefore yields the
//! exact argmax while touching far fewer candidates than a full scan — the
//! classic "lazy greedy" accelerator of Minoux. [`CoverState`]'s eager scan
//! (`argmax_benefit`) is the faithful-pseudocode path; this heap is the
//! alternative strategy measured by the `lazy_greedy` ablation bench.
//!
//! The stale scores here are the same bound type the pruned scan path
//! ([`PrunedScan`]) keeps per set: a last exact value that submodularity
//! turns into a monotone non-increasing upper bound (DESIGN.md §15). The
//! scan uses its bounds to skip exact recounts; this heap additionally
//! exposes [`drop_below`](LazyGreedy::drop_below) to discard entries whose
//! upper bound already fails an eligibility floor without rescoring them.
//!
//! [`CoverState`]: crate::cover_state::CoverState
//! [`PrunedScan`]: crate::algorithms::scan::PrunedScan

use crate::telemetry::{Event, NoopObserver, Observer};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A heap entry: an id with a possibly stale score and the epoch at which
/// the score was computed.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Entry {
    score: f64,
    /// Secondary tie-break score (higher wins), e.g. raw benefit.
    tie: f64,
    id: u32,
    epoch: u64,
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap on (score, tie, lower id preferred).
        self.score
            .total_cmp(&other.score)
            .then_with(|| self.tie.total_cmp(&other.tie))
            .then_with(|| other.id.cmp(&self.id))
    }
}

/// Lazy max-selector over ids with monotonically non-increasing scores.
pub struct LazyGreedy {
    heap: BinaryHeap<Entry>,
    epoch: u64,
    /// Number of score recomputations performed (for instrumentation).
    pub recomputations: u64,
}

impl LazyGreedy {
    /// Creates an empty selector.
    pub fn new() -> LazyGreedy {
        LazyGreedy {
            heap: BinaryHeap::new(),
            epoch: 0,
            recomputations: 0,
        }
    }

    /// Creates a selector seeded with `(id, score, tie)` triples.
    pub fn with_candidates(candidates: impl IntoIterator<Item = (u32, f64, f64)>) -> LazyGreedy {
        let mut lg = LazyGreedy::new();
        for (id, score, tie) in candidates {
            lg.push(id, score, tie);
        }
        lg
    }

    /// Inserts a candidate with its current score.
    pub fn push(&mut self, id: u32, score: f64, tie: f64) {
        self.heap.push(Entry {
            score,
            tie,
            id,
            epoch: self.epoch,
        });
    }

    /// Number of live heap entries (stale duplicates included).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the heap has no entries at all.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Advances the epoch; entries pushed before this call are treated as
    /// stale and re-scored before being returned. Call after every
    /// selection that changes marginal benefits.
    pub fn invalidate(&mut self) {
        self.epoch += 1;
    }

    /// Discards every entry whose (possibly stale) score is already below
    /// `floor`, reporting the count as a `scan_pruned` advisory event.
    ///
    /// Sound for the same reason the pruned scan's bound test is: a stale
    /// score is an upper bound on the current one, so an entry below the
    /// floor now can never satisfy it later. Use when the selection loop
    /// carries an eligibility floor (e.g. CWSC's `rem/i`) to shed dead
    /// heap weight without paying a rescore per entry. Returns the number
    /// of entries dropped.
    pub fn drop_below<O: Observer + ?Sized>(&mut self, floor: f64, obs: &mut O) -> usize {
        let before = self.heap.len();
        self.heap.retain(|e| e.score >= floor);
        let dropped = before - self.heap.len();
        if dropped > 0 {
            obs.on(&Event::ScanPruned(dropped as u64));
        }
        dropped
    }

    /// Pops the candidate with the maximum *current* score.
    ///
    /// `rescore(id)` must return the current `(score, tie)` for `id`, or
    /// `None` if the candidate is no longer eligible and should be dropped.
    /// Scores must never increase between epochs; a stale entry is thus an
    /// upper bound and the first fresh top-of-heap is the true maximum.
    pub fn pop_max(
        &mut self,
        rescore: impl FnMut(u32) -> Option<(f64, f64)>,
    ) -> Option<(u32, f64)> {
        self.pop_max_observed(&mut NoopObserver, rescore)
    }

    /// [`pop_max`](LazyGreedy::pop_max) reporting each stale pop as a
    /// `heap_stale_pop` event (the run length between selections is the
    /// heap's "re-heapify depth").
    pub fn pop_max_observed<O: Observer + ?Sized>(
        &mut self,
        obs: &mut O,
        mut rescore: impl FnMut(u32) -> Option<(f64, f64)>,
    ) -> Option<(u32, f64)> {
        while let Some(top) = self.heap.pop() {
            if top.epoch == self.epoch {
                return Some((top.id, top.score));
            }
            obs.on(&Event::HeapStalePop);
            self.recomputations += 1;
            if let Some((score, tie)) = rescore(top.id) {
                debug_assert!(
                    score <= top.score + 1e-9,
                    "lazy-greedy requires non-increasing scores (id {}: {} -> {})",
                    top.id,
                    top.score,
                    score
                );
                self.heap.push(Entry {
                    score,
                    tie,
                    id: top.id,
                    epoch: self.epoch,
                });
            }
        }
        None
    }
}

impl Default for LazyGreedy {
    fn default() -> Self {
        LazyGreedy::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_max_when_fresh() {
        let mut lg = LazyGreedy::with_candidates([(0, 1.0, 0.0), (1, 3.0, 0.0), (2, 2.0, 0.0)]);
        let (id, score) = lg.pop_max(|_| unreachable!("all fresh")).unwrap();
        assert_eq!(id, 1);
        assert_eq!(score, 3.0);
    }

    #[test]
    fn stale_entries_are_rescored() {
        let mut lg = LazyGreedy::with_candidates([(0, 10.0, 0.0), (1, 5.0, 0.0)]);
        lg.invalidate();
        // id 0 decayed from 10 to 1; id 1 stays 5 -> max should be 1
        let current = [1.0, 5.0];
        let (id, score) = lg.pop_max(|i| Some((current[i as usize], 0.0))).unwrap();
        assert_eq!(id, 1);
        assert_eq!(score, 5.0);
        assert!(lg.recomputations >= 1);
    }

    #[test]
    fn dropped_candidates_disappear() {
        let mut lg = LazyGreedy::with_candidates([(0, 10.0, 0.0), (1, 5.0, 0.0)]);
        lg.invalidate();
        // both become ineligible
        assert_eq!(lg.pop_max(|_| None), None);
        assert!(lg.is_empty());
    }

    #[test]
    fn tie_break_prefers_higher_tie_then_lower_id() {
        let mut lg = LazyGreedy::with_candidates([(5, 1.0, 2.0), (3, 1.0, 7.0), (4, 1.0, 7.0)]);
        let (id, _) = lg.pop_max(|_| unreachable!()).unwrap();
        assert_eq!(id, 3);
    }

    #[test]
    fn sequence_of_selections_matches_eager() {
        // Simulated coverage instance: scores decay after each pick.
        let mut scores = [4.0, 3.0, 5.0, 1.0];
        let mut lg = LazyGreedy::with_candidates(
            scores.iter().enumerate().map(|(i, &s)| (i as u32, s, 0.0)),
        );
        let mut picked = Vec::new();
        for _ in 0..3 {
            let (id, _) = lg
                .pop_max(|i| {
                    let s = scores[i as usize];
                    (s > 0.0).then_some((s, 0.0))
                })
                .unwrap();
            picked.push(id);
            scores[id as usize] = 0.0;
            // every remaining score decays a little (submodular shrink)
            for s in scores.iter_mut() {
                *s = (*s - 0.5).max(0.0);
            }
            lg.invalidate();
        }
        assert_eq!(picked, vec![2, 0, 1]);
    }

    #[test]
    fn observed_pop_counts_stale_pops() {
        use crate::telemetry::MetricsRecorder;
        let mut lg = LazyGreedy::with_candidates([(0, 10.0, 0.0), (1, 5.0, 0.0)]);
        lg.invalidate();
        let mut m = MetricsRecorder::new();
        let current = [1.0, 5.0];
        let (id, _) = lg
            .pop_max_observed(&mut m, |i| Some((current[i as usize], 0.0)))
            .unwrap();
        assert_eq!(id, 1);
        assert_eq!(m.heap_stale_pops, lg.recomputations);
        assert!(m.heap_stale_pops >= 1);
    }

    #[test]
    fn drop_below_sheds_only_provably_ineligible_entries() {
        use crate::telemetry::MetricsRecorder;
        let mut lg = LazyGreedy::with_candidates([
            (0, 10.0, 0.0),
            (1, 5.0, 0.0),
            (2, 2.0, 0.0),
            (3, 1.0, 0.0),
        ]);
        let mut m = MetricsRecorder::new();
        let dropped = lg.drop_below(5.0, &mut m);
        assert_eq!(dropped, 2);
        assert_eq!(lg.len(), 2);
        assert_eq!(m.scan_candidates_pruned, 2);
        // Survivors pop in order; the dropped ids never resurface.
        assert_eq!(lg.pop_max(|_| unreachable!()).unwrap().0, 0);
        assert_eq!(lg.pop_max(|_| unreachable!()).unwrap().0, 1);
        assert!(lg.pop_max(|_| Some((0.0, 0.0))).is_none());
        // Dropping nothing stays silent.
        let mut lg2 = LazyGreedy::with_candidates([(0, 3.0, 0.0)]);
        assert_eq!(lg2.drop_below(1.0, &mut m), 0);
        assert_eq!(m.scan_candidates_pruned, 2);
    }

    #[test]
    fn empty_heap_pops_none() {
        let mut lg = LazyGreedy::new();
        assert_eq!(lg.pop_max(|_| Some((0.0, 0.0))), None);
        assert_eq!(lg.len(), 0);
    }
}
