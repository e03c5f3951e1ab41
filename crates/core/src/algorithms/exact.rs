//! Exact (optimal) solver via branch and bound, used as the ground truth
//! for Section VI-D's "comparison to optimal solution" and by the tests.
//!
//! The search explores "take / skip" decisions over sets ordered by
//! decreasing benefit, pruning on three bounds:
//! * cost: a partial solution at least as expensive as the incumbent can
//!   never improve it (weights are non-negative);
//! * size: at most `k` takes;
//! * coverage: even taking the `k − |chosen|` largest remaining benefit
//!   sets cannot reach the target.
//!
//! Exponential in the worst case — intended for the small instances the
//! paper solves "using exhaustive search" (Section VI-D).

use crate::bitset::BitSet;
use crate::set_system::{SetId, SetSystem};
use crate::solution::Solution;
use crate::telemetry::{
    pack_k_target, Event, Observer, PhaseSpan, PruneReason, TraceId, PHASE_TOTAL,
};

/// Finds a minimum-cost sub-collection of at most `k` sets covering at
/// least `target` elements, or `None` when infeasible. (A coverage
/// fraction `ŝ` maps to `target` through
/// [`coverage_target`](crate::coverage_target).)
///
/// The search reports its effort through an [`Observer`]:
/// `benefit_computed` per take-branch marginal-coverage computation,
/// `set_selected` per tentative take, `candidate_pruned` with
/// [`PruneReason::CostBound`] / [`PruneReason::CoverageBound`] per cut
/// branch, and a `"total"` phase span.
pub fn exact_optimal<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    target: usize,
    obs: &mut O,
) -> Option<Solution> {
    if target == 0 {
        return Some(Solution::from_sets(system, Vec::new()));
    }
    if k == 0 {
        return None;
    }

    // Order sets by decreasing benefit so the coverage bound is tight early.
    let mut order: Vec<SetId> = (0..system.num_sets() as SetId).collect();
    order.sort_by(|&a, &b| {
        system
            .set(b)
            .benefit()
            .cmp(&system.set(a).benefit())
            .then_with(|| system.cost(a).cmp(&system.cost(b)))
            .then(a.cmp(&b))
    });
    // suffix_benefit[i][r] would be ideal; we use the cheaper bound of the
    // top-r benefits among order[i..], precomputed as a running structure.
    let benefits: Vec<usize> = order.iter().map(|&id| system.set(id).benefit()).collect();
    // top_sum[i] = sum of the k largest benefits in benefits[i..]
    // (loose but monotone upper bound on any r ≤ k picks).
    obs.on(&Event::TraceStarted(
        TraceId::mint(
            "exact",
            system.num_elements() as u64,
            pack_k_target(k, target),
        ),
        "exact",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    let mut search = Search {
        system,
        obs,
        order: &order,
        benefits: &benefits,
        k,
        target,
        best_cost: f64::INFINITY,
        best: None,
        chosen: Vec::new(),
        covered: BitSet::new(system.num_elements()),
        covered_count: 0,
        current_cost: 0.0,
    };
    search.recurse(0);
    let best = search.best.take();
    span.exit(obs);
    Some(Solution::from_sets(system, best?))
}

struct Search<'a, O: Observer + ?Sized> {
    system: &'a SetSystem,
    obs: &'a mut O,
    order: &'a [SetId],
    benefits: &'a [usize],
    k: usize,
    target: usize,
    best_cost: f64,
    best: Option<Vec<SetId>>,
    chosen: Vec<SetId>,
    covered: BitSet,
    covered_count: usize,
    current_cost: f64,
}

impl<O: Observer + ?Sized> Search<'_, O> {
    /// Upper bound on additional coverage using at most `r` more sets from
    /// `order[i..]`: the sum of their `r` largest raw benefits.
    fn coverage_bound(&self, i: usize, r: usize) -> usize {
        // benefits[i..] is sorted descending because `order` is.
        self.benefits[i..].iter().take(r).sum()
    }

    fn recurse(&mut self, i: usize) {
        if self.covered_count >= self.target {
            if self.current_cost < self.best_cost {
                self.best_cost = self.current_cost;
                self.best = Some(self.chosen.clone());
            }
            return; // taking more sets only adds cost
        }
        if i >= self.order.len() || self.chosen.len() >= self.k {
            return;
        }
        if self.current_cost >= self.best_cost {
            self.obs.on(&Event::CandidatePruned(PruneReason::CostBound));
            return; // cost prune
        }
        let remaining_picks = self.k - self.chosen.len();
        if self.covered_count + self.coverage_bound(i, remaining_picks) < self.target {
            self.obs
                .on(&Event::CandidatePruned(PruneReason::CoverageBound));
            return; // coverage prune
        }

        let id = self.order[i];
        // Branch 1: take `id` (unless it alone busts the cost bound).
        let cost = self.system.cost(id).value();
        if self.current_cost + cost < self.best_cost {
            self.obs.on(&Event::BenefitComputed(1));
            let newly: Vec<usize> = self
                .system
                .members(id)
                .iter()
                .map(|&e| e as usize)
                .filter(|&e| !self.covered.contains(e))
                .collect();
            if !newly.is_empty() {
                self.obs
                    .on(&Event::SetSelected(id as u64, newly.len() as u64, cost));
                for &e in &newly {
                    self.covered.insert(e);
                }
                self.covered_count += newly.len();
                self.current_cost += cost;
                self.chosen.push(id);
                self.recurse(i + 1);
                self.chosen.pop();
                self.current_cost -= cost;
                self.covered_count -= newly.len();
                for &e in &newly {
                    self.covered.remove(e);
                }
            }
        }
        // Branch 2: skip `id`.
        self.recurse(i + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::cwsc::cwsc;
    use crate::engine::Deadline;
    use crate::parallel::{ThreadPool, Threads};
    use crate::set_system::coverage_target;
    use crate::stats::Stats;
    use crate::telemetry::NoopObserver;

    /// [`exact_optimal`] at coverage fraction `coverage`, unobserved.
    fn optimum(system: &SetSystem, k: usize, coverage: f64) -> Option<Solution> {
        let target = coverage_target(system.num_elements(), coverage);
        exact_optimal(system, k, target, &mut NoopObserver)
    }

    fn system() -> SetSystem {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 5.0)
            .add_set([3, 4, 5], 5.0)
            .add_set([0, 1, 2, 3], 7.0)
            .add_set([4, 5], 1.0)
            .add_universe_set(100.0);
        b.build().unwrap()
    }

    #[test]
    fn finds_cheapest_full_cover() {
        let sol = optimum(&system(), 2, 1.0).unwrap();
        // {2,3}: cost 8 < {0,1}: cost 10 < universe: 100
        assert_eq!(sol.total_cost().value(), 8.0);
        assert_eq!(sol.covered(), 6);
        assert!(sol.size() <= 2);
    }

    #[test]
    fn partial_coverage_can_be_cheaper() {
        let sol = optimum(&system(), 1, 0.3).unwrap();
        // Need 2 of 6: set 3 = {4,5} at cost 1.
        assert_eq!(sol.total_cost().value(), 1.0);
    }

    #[test]
    fn respects_k() {
        // k=1 forces the universe set for full coverage.
        let sol = optimum(&system(), 1, 1.0).unwrap();
        assert_eq!(sol.sets(), &[4]);
        assert_eq!(sol.total_cost().value(), 100.0);
    }

    #[test]
    fn infeasible_returns_none() {
        let mut b = SetSystem::builder(4);
        b.add_set([0], 1.0).add_set([1], 1.0);
        let sys = b.build().unwrap();
        assert!(optimum(&sys, 2, 1.0).is_none());
        assert!(optimum(&sys, 0, 0.1).is_none());
    }

    #[test]
    fn zero_target_is_free() {
        let sol = optimum(&system(), 3, 0.0).unwrap();
        assert_eq!(sol.size(), 0);
        assert_eq!(sol.total_cost().value(), 0.0);
    }

    #[test]
    fn exact_never_worse_than_cwsc() {
        let sys = system();
        for (k, s) in [(1usize, 0.5f64), (2, 0.6), (3, 1.0), (2, 0.9)] {
            let pool = ThreadPool::new(Threads::serial());
            let greedy = cwsc(&sys, k, s, &pool, &Deadline::unbounded(), &mut Stats::new());
            let opt = optimum(&sys, k, s);
            if let (Ok(g), Some(o)) = (greedy, opt) {
                let g = g.expect_complete("unbounded deadline");
                assert!(
                    o.total_cost() <= g.total_cost(),
                    "k={k} s={s}: opt {} > greedy {}",
                    o.total_cost(),
                    g.total_cost()
                );
            }
        }
    }

    #[test]
    fn observer_sees_search_effort() {
        use crate::telemetry::{MetricsRecorder, PHASE_TOTAL};
        let sys = system();
        let mut m = MetricsRecorder::new();
        let observed = exact_optimal(&sys, 2, 6, &mut m).unwrap();
        assert_eq!(observed.total_cost().value(), 8.0);
        assert!(m.benefits_computed >= 1);
        assert!(m.selections >= 1, "take branches are tentative selections");
        assert!(m.phase_seconds(PHASE_TOTAL).is_some());
    }

    #[test]
    fn handles_duplicate_sets() {
        let mut b = SetSystem::builder(3);
        b.add_set([0, 1, 2], 4.0).add_set([0, 1, 2], 3.0);
        let sys = b.build().unwrap();
        let sol = optimum(&sys, 2, 1.0).unwrap();
        assert_eq!(sol.total_cost().value(), 3.0);
        assert_eq!(sol.size(), 1, "second copy adds cost but no coverage");
    }

    #[test]
    fn tight_k_equals_number_of_needed_sets() {
        let mut b = SetSystem::builder(6);
        for e in 0..6u32 {
            b.add_set([e], 1.0);
        }
        let sys = b.build().unwrap();
        let sol = optimum(&sys, 6, 1.0).unwrap();
        assert_eq!(sol.size(), 6);
        assert_eq!(sol.total_cost().value(), 6.0);
        assert!(optimum(&sys, 5, 1.0).is_none());
    }
}
