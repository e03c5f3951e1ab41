//! Shared mutable state for greedy cover algorithms.
//!
//! Both CMC (Fig. 1) and CWSC (Fig. 2) maintain, for every remaining
//! candidate set `s`, its marginal benefit `|MBen(s, S)|` — the number of
//! elements of `s` not yet covered by the partial solution `S` — and update
//! all of them after each selection (Fig. 1 lines 24–27, Fig. 2 lines
//! 12–15). [`CoverState`] implements those updates with an element→sets
//! incidence so a selection costs `O(Σ_{e newly covered} |{s ∋ e}|)`
//! instead of a full rescan, which is observationally identical to the
//! pseudocode (same marginal benefits after every step, same drops of
//! zero-benefit sets).
//!
//! The incidence is one flat CSR (an offsets array plus a set-id array,
//! filled by a counting pass) built once per solve. It never changes
//! while a solve runs, so CMC's budget guesses all borrow the same one
//! and each guess starts only fresh marginal benefits, activity flags and
//! covered bits (Fig. 1 lines 04–05).
//!
//! The state answers arg-max queries by scanning ([`CoverState::top_gain`]
//! and [`CoverState::top_benefit`]), and exposes each set's exact
//! marginal benefit and activity so that a solver can keep its own
//! candidate order instead: flat CMC keeps a lazily revalidated max-heap
//! per cost level, and CWSC scans only the sets large enough for its
//! eligibility floor. Marginal benefits only fall, which is what makes a
//! stale heap entry an upper bound and a set's size a bound on its
//! benefit.

use crate::bitset::BitSet;
use crate::cost::Cost;
use crate::set_system::{SetId, SetSystem};
use std::borrow::Cow;
use std::cmp::Ordering;

/// A candidate in a greedy arg-max: a set id with its *current* marginal
/// benefit and its cost. The free comparators below define the canonical
/// selection order of [`CoverState`]'s scans, which every flat greedy
/// solver selects through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// Set id (ties break toward the lower id).
    pub id: SetId,
    /// Current marginal benefit `|MBen(s, S)|`.
    pub mben: usize,
    /// `Cost(s)`.
    pub cost: Cost,
}

/// Canonical benefit comparison: marginal benefit desc, cost asc, id asc.
/// Returns `Greater` when `a` should be preferred over `b`.
pub fn benefit_order(a: Candidate, b: Candidate) -> Ordering {
    a.mben
        .cmp(&b.mben)
        .then_with(|| b.cost.cmp(&a.cost))
        .then_with(|| b.id.cmp(&a.id))
}

/// Canonical gain comparison: gain desc, benefit desc, cost asc, id asc.
/// Returns `Greater` when `a` should be preferred over `b`.
///
/// Gains are compared by cross-multiplication (`m_a·c_b` vs `m_b·c_a`),
/// which is exact for integer benefits and avoids `0/0` and `x/0` pitfalls
/// of floating division.
pub fn gain_order(a: Candidate, b: Candidate) -> Ordering {
    let (ma, mb) = (a.mben as f64, b.mben as f64);
    (ma * b.cost.value())
        .total_cmp(&(mb * a.cost.value()))
        .then_with(|| benefit_order(a, b))
}

/// Inserts `cand` into `top`, kept best-first under `order` and capped at
/// `cap` entries. Because the canonical comparators are *total* orders
/// (id is the final tie-break), the resulting list is the unique sorted
/// top-`cap` prefix of whatever candidate set was pushed — independent of
/// push order, so top lists built from any partition of the candidates
/// merge into the same audit runner-up list.
pub fn push_top(
    top: &mut Vec<Candidate>,
    cand: Candidate,
    cap: usize,
    order: impl Fn(Candidate, Candidate) -> Ordering,
) {
    if cap == 0 {
        return;
    }
    let pos = top
        .iter()
        .position(|&b| order(cand, b) == Ordering::Greater)
        .unwrap_or(top.len());
    if pos >= cap {
        return;
    }
    top.insert(pos, cand);
    top.truncate(cap);
}

/// The element→sets incidence of a [`SetSystem`] as one flat CSR: the
/// ids of the sets containing element `e` are
/// `sets[offsets[e]..offsets[e + 1]]`, ascending.
#[derive(Clone)]
pub(crate) struct Incidence {
    offsets: Vec<usize>,
    sets: Vec<SetId>,
}

impl Incidence {
    /// Builds the incidence with a counting pass: `offsets[e]` first
    /// counts `e`'s sets, is prefix-summed to the end of `e`'s range, and
    /// is then walked back to its start while set ids are placed in
    /// descending order, which leaves every range ascending.
    pub(crate) fn build(system: &SetSystem) -> Incidence {
        let n = system.num_elements();
        let mut offsets = vec![0usize; n + 1];
        for (_, set) in system.iter() {
            for &e in set.members() {
                offsets[e as usize] += 1;
            }
        }
        let mut end = 0;
        for slot in &mut offsets[..n] {
            end += *slot;
            *slot = end;
        }
        offsets[n] = end;
        let mut sets = vec![0 as SetId; end];
        for id in (0..system.num_sets() as SetId).rev() {
            for &e in system.members(id) {
                let slot = &mut offsets[e as usize];
                *slot -= 1;
                sets[*slot] = id;
            }
        }
        Incidence { offsets, sets }
    }

    /// Ids of the sets containing element `e`, ascending.
    #[inline]
    pub(crate) fn sets_of(&self, e: usize) -> &[SetId] {
        &self.sets[self.offsets[e]..self.offsets[e + 1]]
    }
}

/// Mutable greedy state: covered elements plus exact marginal benefits.
pub struct CoverState<'a> {
    system: &'a SetSystem,
    covered: BitSet,
    covered_count: usize,
    mben: Vec<usize>,
    active: Vec<bool>,
    /// Owned for a one-round solve, borrowed when rounds share one.
    incidence: Cow<'a, Incidence>,
}

impl<'a> CoverState<'a> {
    /// Initializes state with nothing covered; every set active with
    /// `|MBen(s, ∅)| = |Ben(s)|`.
    pub fn new(system: &'a SetSystem) -> Self {
        Self::start(system, Cow::Owned(Incidence::build(system)))
    }

    /// Like [`CoverState::new`] over an incidence built once for
    /// `system` and shared by several rounds.
    pub(crate) fn over(system: &'a SetSystem, incidence: &'a Incidence) -> Self {
        Self::start(system, Cow::Borrowed(incidence))
    }

    fn start(system: &'a SetSystem, incidence: Cow<'a, Incidence>) -> Self {
        CoverState {
            system,
            covered: BitSet::new(system.num_elements()),
            covered_count: 0,
            mben: system.iter().map(|(_, set)| set.benefit()).collect(),
            active: vec![true; system.num_sets()],
            incidence,
        }
    }

    /// The underlying set system.
    #[inline]
    pub fn system(&self) -> &'a SetSystem {
        self.system
    }

    /// Current `|MBen(s, S)|`.
    #[inline]
    pub fn marginal_benefit(&self, id: SetId) -> usize {
        self.mben[id as usize]
    }

    /// Whether the set is still a candidate (not selected, not dropped).
    #[inline]
    pub fn is_active(&self, id: SetId) -> bool {
        self.active[id as usize]
    }

    /// Number of covered elements `|⋃ Ben(s)|`.
    #[inline]
    pub fn covered_count(&self) -> usize {
        self.covered_count
    }

    /// Read-only view of the covered-element bitset.
    #[inline]
    pub fn covered(&self) -> &BitSet {
        &self.covered
    }

    /// Selects `id` into the solution: marks its elements covered, updates
    /// every remaining set's marginal benefit, deactivates `id`, and
    /// returns how many new elements were covered.
    ///
    /// Sets whose marginal benefit drops to zero are deactivated, matching
    /// Fig. 1 lines 26–27 / Fig. 2 lines 14–15.
    pub fn select(&mut self, id: SetId) -> usize {
        debug_assert!(self.active[id as usize], "selecting an inactive set");
        self.active[id as usize] = false;
        let mut newly = 0usize;
        // Split borrows: we mutate covered/mben while reading the system
        // and the incidence.
        // `insert_hot`: member ids were validated against the universe by
        // the SetSystem builder, so the release-mode range assert in
        // `BitSet::insert` is pure overhead here (debug builds still check).
        let incidence = &*self.incidence;
        for &e in self.system.members(id) {
            let e = e as usize;
            if self.covered.insert_hot(e) {
                newly += 1;
                for &s in incidence.sets_of(e) {
                    let m = &mut self.mben[s as usize];
                    *m -= 1;
                    if *m == 0 {
                        self.active[s as usize] = false;
                    }
                }
            }
        }
        self.covered_count += newly;
        newly
    }

    /// The best `cap` active candidates by marginal benefit (canonical
    /// order, best first) among the sets passing `filter`; `[0]` is the
    /// arg-max, the extra entries are the audit ledger's runners-up.
    /// Empty when no active set with nonzero marginal benefit passes.
    pub fn top_benefit(&self, cap: usize, filter: impl FnMut(SetId) -> bool) -> Vec<Candidate> {
        self.top(0..self.mben.len() as SetId, cap, filter, benefit_order)
    }

    /// The best `cap` active candidates by marginal gain (canonical order,
    /// best first) among the sets passing `filter`. Zero-cost sets that
    /// still cover something rank above every priced set.
    pub fn top_gain(&self, cap: usize, filter: impl FnMut(SetId) -> bool) -> Vec<Candidate> {
        self.top_gain_among(0..self.mben.len() as SetId, cap, filter)
    }

    /// [`top_gain`](CoverState::top_gain) over the sets in `ids` only,
    /// without visiting the others.
    pub(crate) fn top_gain_among(
        &self,
        ids: impl Iterator<Item = SetId>,
        cap: usize,
        filter: impl FnMut(SetId) -> bool,
    ) -> Vec<Candidate> {
        self.top(ids, cap, filter, gain_order)
    }

    fn top(
        &self,
        ids: impl Iterator<Item = SetId>,
        cap: usize,
        mut filter: impl FnMut(SetId) -> bool,
        order: impl Fn(Candidate, Candidate) -> Ordering + Copy,
    ) -> Vec<Candidate> {
        let mut top = Vec::with_capacity(cap);
        for id in ids {
            if !self.active[id as usize] || self.mben[id as usize] == 0 || !filter(id) {
                continue;
            }
            push_top(&mut top, self.candidate(id), cap, order);
        }
        top
    }

    /// The elements `id` would newly cover if selected now — the elements
    /// the audit ledger prices when the set wins a round. Call *before*
    /// [`select`](CoverState::select); the list's length equals `select`'s
    /// return value.
    pub fn newly_elements(&self, id: SetId) -> Vec<u32> {
        // `contains_hot`: builder-validated ids, see `select`.
        self.system
            .members(id)
            .iter()
            .copied()
            .filter(|&e| !self.covered.contains_hot(e as usize))
            .collect()
    }

    /// This set as a [`Candidate`] under the current marginal benefits.
    #[inline]
    pub fn candidate(&self, id: SetId) -> Candidate {
        Candidate {
            id,
            mben: self.mben[id as usize],
            cost: self.system.cost(id),
        }
    }

    /// Canonical benefit comparison: marginal benefit desc, cost asc, id asc.
    /// Returns `Greater` when `a` should be preferred over `b`.
    pub fn benefit_order(&self, a: SetId, b: SetId) -> Ordering {
        benefit_order(self.candidate(a), self.candidate(b))
    }

    /// Canonical gain comparison: gain desc, benefit desc, cost asc, id asc.
    /// Returns `Greater` when `a` should be preferred over `b` (see the
    /// free [`gain_order`] for the cross-multiplication rationale).
    pub fn gain_order(&self, a: SetId, b: SetId) -> Ordering {
        gain_order(self.candidate(a), self.candidate(b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set_system::SetSystem;

    fn system() -> SetSystem {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 3.0) // set 0
            .add_set([2, 3], 1.0) // set 1
            .add_set([3, 4, 5], 6.0) // set 2
            .add_set([5], 0.0); // set 3: zero cost
        b.build().unwrap()
    }

    /// The benefit arg-max under `filter`: the head of a cap-1 top list.
    fn best_benefit(st: &CoverState<'_>, filter: impl FnMut(SetId) -> bool) -> Option<SetId> {
        st.top_benefit(1, filter).first().map(|c| c.id)
    }

    /// The gain arg-max under `filter`: the head of a cap-1 top list.
    fn best_gain(st: &CoverState<'_>, filter: impl FnMut(SetId) -> bool) -> Option<SetId> {
        st.top_gain(1, filter).first().map(|c| c.id)
    }

    #[test]
    fn initial_state() {
        let sys = system();
        let st = CoverState::new(&sys);
        assert_eq!(st.covered_count(), 0);
        assert_eq!(st.marginal_benefit(0), 3);
        assert_eq!(st.marginal_benefit(1), 2);
        assert!(st.is_active(0));
        assert!((0..4).all(|id| st.is_active(id)));
    }

    #[test]
    fn select_updates_marginals() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        let newly = st.select(0);
        assert_eq!(newly, 3);
        assert_eq!(st.covered_count(), 3);
        assert!(!st.is_active(0));
        assert_eq!(st.marginal_benefit(1), 1); // lost element 2
        assert_eq!(st.marginal_benefit(2), 3);
        assert!(st.covered().contains(2));
        assert!(!st.covered().contains(3));
    }

    #[test]
    fn zero_marginal_sets_get_dropped() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        st.select(2); // covers 3,4,5 -> set 3 {5} drops to zero
        assert_eq!(st.marginal_benefit(3), 0);
        assert!(!st.is_active(3));
        assert_eq!(st.marginal_benefit(1), 1);
    }

    #[test]
    fn overlapping_selection_counts_only_new() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        st.select(1); // covers 2,3
        let newly = st.select(0); // 0,1 new; 2 already covered
        assert_eq!(newly, 2);
        assert_eq!(st.covered_count(), 4);
    }

    #[test]
    fn csr_incidence_equals_naive_lists() {
        // Elements 0, 4 and the last one (7) lie in no set.
        let mut gaps = SetSystem::builder(8);
        gaps.add_set([1, 2], 1.0)
            .add_set([2, 3, 5], 2.0)
            .add_set([6], 1.0)
            .add_set([2, 6], 1.0);
        // The last element lies in two sets; 1 and 3 in none.
        let mut last = SetSystem::builder(5);
        last.add_set([4], 1.0)
            .add_set([0, 4], 1.0)
            .add_set([2], 1.0);
        // A universe set in the middle of the id range.
        let mut universe = SetSystem::builder(6);
        universe
            .add_set([5], 1.0)
            .add_set([0, 1], 1.0)
            .add_universe_set(9.0)
            .add_set([1, 5], 2.0);
        let systems = [
            gaps.build().unwrap(),
            last.build().unwrap(),
            universe.build().unwrap(),
            system(),
        ];
        for sys in &systems {
            let mut naive: Vec<Vec<SetId>> = vec![Vec::new(); sys.num_elements()];
            for (id, set) in sys.iter() {
                for &e in set.members() {
                    naive[e as usize].push(id);
                }
            }
            let csr = Incidence::build(sys);
            assert_eq!(csr.offsets.len(), sys.num_elements() + 1);
            assert_eq!(csr.sets.len(), naive.iter().map(Vec::len).sum::<usize>());
            for (e, list) in naive.iter().enumerate() {
                assert_eq!(csr.sets_of(e), &list[..], "element {e}");
            }
        }
    }

    #[test]
    fn rounds_over_a_shared_incidence_start_fresh() {
        let sys = system();
        let incidence = Incidence::build(&sys);
        let mut first = CoverState::over(&sys, &incidence);
        first.select(2);
        first.select(0);
        let fresh = CoverState::new(&sys);
        let second = CoverState::over(&sys, &incidence);
        assert_eq!(second.covered_count(), 0);
        for id in 0..sys.num_sets() as SetId {
            assert_eq!(second.candidate(id), fresh.candidate(id));
            assert!(second.is_active(id));
        }
    }

    #[test]
    fn argmax_benefit_prefers_cheaper_on_tie() {
        let mut b = SetSystem::builder(4);
        b.add_set([0, 1], 5.0).add_set([2, 3], 2.0);
        let sys = b.build().unwrap();
        let st = CoverState::new(&sys);
        assert_eq!(best_benefit(&st, |_| true), Some(1));
    }

    #[test]
    fn argmax_benefit_prefers_lower_id_on_full_tie() {
        let mut b = SetSystem::builder(4);
        b.add_set([0, 1], 2.0).add_set([2, 3], 2.0);
        let sys = b.build().unwrap();
        let st = CoverState::new(&sys);
        assert_eq!(best_benefit(&st, |_| true), Some(0));
    }

    #[test]
    fn argmax_respects_filter_and_activity() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        assert_eq!(best_benefit(&st, |id| id != 0), Some(2));
        st.select(2); // also drops set 3, whose only element 5 is now covered
        assert_eq!(best_benefit(&st, |id| id != 0), Some(1));
    }

    #[test]
    fn argmax_gain_zero_cost_wins() {
        let sys = system();
        let st = CoverState::new(&sys);
        // set 3 has zero cost and nonzero benefit -> infinite gain
        assert_eq!(best_gain(&st, |_| true), Some(3));
    }

    #[test]
    fn argmax_gain_cross_multiplication() {
        let mut b = SetSystem::builder(10);
        // gains: 3/2 = 1.5 vs 5/4 = 1.25
        b.add_set([0, 1, 2], 2.0).add_set([3, 4, 5, 6, 7], 4.0);
        let sys = b.build().unwrap();
        let st = CoverState::new(&sys);
        assert_eq!(best_gain(&st, |_| true), Some(0));
    }

    #[test]
    fn argmax_none_when_everything_covered() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        st.select(0);
        st.select(2);
        // remaining set 1's elements {2,3} are all covered
        assert_eq!(best_benefit(&st, |_| true), None);
        assert_eq!(best_gain(&st, |_| true), None);
        assert_eq!(st.covered_count(), 6);
    }

    #[test]
    fn top_scans_agree_with_argmax_and_sort_canonically() {
        let sys = system();
        let mut st = CoverState::new(&sys);
        loop {
            let top_b = st.top_benefit(4, |_| true);
            assert_eq!(top_b.first().map(|c| c.id), best_benefit(&st, |_| true));
            for w in top_b.windows(2) {
                assert_eq!(benefit_order(w[0], w[1]), Ordering::Greater);
            }
            let top_g = st.top_gain(4, |_| true);
            assert_eq!(top_g.first().map(|c| c.id), best_gain(&st, |_| true));
            for w in top_g.windows(2) {
                assert_eq!(gain_order(w[0], w[1]), Ordering::Greater);
            }
            let Some(&win) = top_g.first() else { break };
            let newly = st.newly_elements(win.id);
            assert_eq!(newly.len(), win.mben, "recount equals fresh mben");
            assert_eq!(st.select(win.id), newly.len());
        }
        assert!(st.top_gain(4, |_| true).is_empty());
    }

    #[test]
    fn top_scans_respect_cap_and_filter() {
        let sys = system();
        let st = CoverState::new(&sys);
        assert_eq!(st.top_benefit(1, |_| true).len(), 1);
        assert_eq!(st.top_benefit(0, |_| true).len(), 0);
        let filtered = st.top_gain(4, |id| id != 3);
        assert!(filtered.iter().all(|c| c.id != 3));
    }

    /// Exhaustive permutation sweep: pushing equal-gain-ratio candidates
    /// in every possible order yields the identical top list, so the audit
    /// ledger's runner-up lists (and the margins/tie-break keys derived
    /// from them) cannot depend on candidate iteration order.
    #[test]
    fn push_top_is_permutation_invariant_on_equal_ratios() {
        fn permutations(mut items: Vec<Candidate>, k: usize, out: &mut Vec<Vec<Candidate>>) {
            if k <= 1 {
                out.push(items);
                return;
            }
            for i in 0..k {
                permutations(items.clone(), k - 1, out);
                if k.is_multiple_of(2) {
                    items.swap(i, k - 1);
                } else {
                    items.swap(0, k - 1);
                }
            }
        }
        let cand = |id: SetId, mben: usize, cost: f64| Candidate {
            id,
            mben,
            cost: Cost::new(cost).unwrap(),
        };
        // All five candidates share gain ratio 1.0; two pairs also tie on
        // benefit, exercising the cost and id tie-break levels.
        let cands = vec![
            cand(4, 2, 2.0),
            cand(1, 2, 2.0),
            cand(3, 4, 4.0),
            cand(0, 4, 4.0),
            cand(2, 1, 1.0),
        ];
        for &order in &[
            gain_order as fn(Candidate, Candidate) -> Ordering,
            benefit_order,
        ] {
            let mut reference = cands.clone();
            reference.sort_by(|&a, &b| order(b, a));
            reference.truncate(4);
            let mut perms = Vec::new();
            permutations(cands.clone(), cands.len(), &mut perms);
            assert_eq!(perms.len(), 120, "5! orderings");
            for perm in perms {
                let mut top = Vec::new();
                for c in perm {
                    push_top(&mut top, c, 4, order);
                }
                assert_eq!(top, reference, "order-independent top list");
            }
        }
    }

    #[test]
    fn push_top_merges_chunked_lists_like_one_scan() {
        // Folding per-chunk top lists through push_top reproduces the
        // single-scan list.
        let cand = |id: SetId, mben: usize, cost: f64| Candidate {
            id,
            mben,
            cost: Cost::new(cost).unwrap(),
        };
        let all = vec![
            cand(0, 3, 1.0),
            cand(1, 3, 1.0),
            cand(2, 7, 9.0),
            cand(3, 1, 4.0),
            cand(4, 6, 2.0),
            cand(5, 3, 1.0),
        ];
        let mut whole = Vec::new();
        for &c in &all {
            push_top(&mut whole, c, 4, gain_order);
        }
        for split in 1..all.len() {
            let (lo, hi) = all.split_at(split);
            let mut a = Vec::new();
            for &c in lo {
                push_top(&mut a, c, 4, gain_order);
            }
            let mut b = Vec::new();
            for &c in hi {
                push_top(&mut b, c, 4, gain_order);
            }
            for c in b {
                push_top(&mut a, c, 4, gain_order);
            }
            assert_eq!(a, whole, "split at {split}");
        }
    }

    #[test]
    fn gain_tiebreak_prefers_bigger_benefit() {
        let mut b = SetSystem::builder(10);
        // equal gain 1.0: benefit 2/cost 2 vs benefit 4/cost 4
        b.add_set([0, 1], 2.0).add_set([2, 3, 4, 5], 4.0);
        let sys = b.build().unwrap();
        let st = CoverState::new(&sys);
        assert_eq!(best_gain(&st, |_| true), Some(1));
    }
}
