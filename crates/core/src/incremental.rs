//! Incremental size-constrained weighted set cover.
//!
//! Section VII names as future work "an incremental version ... in which
//! the solution must be continuously maintained as new elements arrive".
//! [`IncrementalCover`] implements that maintenance: the set collection is
//! fixed, elements stream in (each announcing which sets contain it), and
//! the maintainer keeps a current solution that always satisfies the
//! `k`/`ŝ` requirements over the elements seen so far.
//!
//! Two repair strategies are provided (see [`RepairStrategy`]): re-solving
//! with CWSC from scratch on every violation, or greedily *patching* the
//! existing solution with the best marginal-gain set and falling back to a
//! full re-solve only when the patch cannot restore feasibility within `k`
//! sets. Arrivals that the current solution already covers cost
//! `O(|sets containing the element|)` either way.

use crate::algorithms::cwsc::cwsc_to_target;
use crate::engine::{Deadline, EngineError};
use crate::parallel::{ThreadPool, Threads};
use crate::set_system::{coverage_target, SetId, SetSystem};
use crate::solution::{Solution, SolveError};
use crate::telemetry::{pack_k_target, Event, NoopObserver, Observer, PhaseSpan, TraceId};

/// Phase-span name covering a greedy patch repair.
pub const PHASE_REPAIR_PATCH: &str = "repair_patch";
/// Phase-span name covering a from-scratch re-solve repair.
pub const PHASE_REPAIR_RESOLVE: &str = "repair_resolve";

/// How [`IncrementalCover`] restores feasibility after an arrival breaks
/// the coverage requirement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RepairStrategy {
    /// Re-run CWSC from scratch over the elements seen so far.
    #[default]
    Resolve,
    /// Add the highest marginal-gain set while the solution has room
    /// (`< k` sets); fall back to [`RepairStrategy::Resolve`] when the
    /// patch cannot reach the target. Cheaper per repair, but the patched
    /// solution may drift above the from-scratch cost over time.
    Patch,
}

/// Streaming maintainer for a size-constrained weighted set cover.
#[derive(Debug)]
pub struct IncrementalCover {
    k: usize,
    coverage_fraction: f64,
    strategy: RepairStrategy,
    num_sets: usize,
    set_costs: Vec<f64>,
    /// members[s] = elements of set s seen so far
    members: Vec<Vec<u32>>,
    num_elements: usize,
    solution: Vec<SetId>,
    /// covered[e] = element e is covered by the current solution
    covered_mask: Vec<bool>,
    covered: usize,
    chosen_mask: Vec<bool>,
    resolves: u64,
    patches: u64,
}

/// Errors from [`IncrementalCover`].
#[derive(Debug, Clone, PartialEq)]
pub enum IncrementalError {
    /// A membership referenced an unknown set id.
    UnknownSet(SetId),
    /// The underlying solver failed (no universe set in the collection).
    Solve(SolveError),
    /// A set cost failed validation.
    InvalidCost(f64),
}

impl std::fmt::Display for IncrementalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IncrementalError::UnknownSet(id) => write!(f, "unknown set id {id}"),
            IncrementalError::Solve(e) => write!(f, "re-solve failed: {e}"),
            IncrementalError::InvalidCost(c) => write!(f, "invalid set cost {c}"),
        }
    }
}

impl std::error::Error for IncrementalError {}

impl IncrementalCover {
    /// Creates a maintainer over a fixed collection of (initially empty)
    /// sets with the given costs, using the default
    /// [`RepairStrategy::Resolve`]. To guarantee feasibility, include a
    /// set that every future element belongs to (the all-`ALL` analogue).
    pub fn new(
        set_costs: &[f64],
        k: usize,
        coverage_fraction: f64,
    ) -> Result<IncrementalCover, IncrementalError> {
        IncrementalCover::with_strategy(set_costs, k, coverage_fraction, RepairStrategy::default())
    }

    /// [`IncrementalCover::new`] with an explicit repair strategy.
    pub fn with_strategy(
        set_costs: &[f64],
        k: usize,
        coverage_fraction: f64,
        strategy: RepairStrategy,
    ) -> Result<IncrementalCover, IncrementalError> {
        if let Some(&bad) = set_costs.iter().find(|c| !c.is_finite() || **c < 0.0) {
            return Err(IncrementalError::InvalidCost(bad));
        }
        assert!(k >= 1, "k must be at least 1");
        assert!(
            (0.0..=1.0).contains(&coverage_fraction),
            "coverage fraction must be in [0, 1]"
        );
        Ok(IncrementalCover {
            k,
            coverage_fraction,
            strategy,
            num_sets: set_costs.len(),
            set_costs: set_costs.to_vec(),
            members: vec![Vec::new(); set_costs.len()],
            num_elements: 0,
            solution: Vec::new(),
            covered_mask: Vec::new(),
            covered: 0,
            chosen_mask: vec![false; set_costs.len()],
            resolves: 0,
            patches: 0,
        })
    }

    /// Number of elements that have arrived.
    pub fn num_elements(&self) -> usize {
        self.num_elements
    }

    /// The current solution's set ids (valid for the elements seen so far).
    pub fn solution(&self) -> &[SetId] {
        &self.solution
    }

    /// Total cost of the current solution.
    pub fn solution_cost(&self) -> f64 {
        self.solution
            .iter()
            .map(|&s| self.set_costs[s as usize])
            .sum()
    }

    /// Elements covered by the current solution.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// How many times the maintainer re-solved from scratch.
    pub fn resolves(&self) -> u64 {
        self.resolves
    }

    /// How many times a greedy patch restored feasibility.
    pub fn patches(&self) -> u64 {
        self.patches
    }

    /// Current coverage requirement `⌈ŝ·n⌉`.
    pub fn target(&self) -> usize {
        coverage_target(self.num_elements, self.coverage_fraction)
    }

    /// Feeds one arriving element, identified implicitly by arrival order,
    /// together with the ids of the sets containing it. Returns `true`
    /// when the arrival forced a repair (patch or re-solve).
    pub fn push_element(&mut self, in_sets: &[SetId]) -> Result<bool, IncrementalError> {
        self.push_element_observed(in_sets, &mut NoopObserver)
    }

    /// [`push_element`](IncrementalCover::push_element) reporting repair
    /// work through an [`Observer`]: a [`PHASE_REPAIR_PATCH`] or
    /// [`PHASE_REPAIR_RESOLVE`] span per repair, `benefit_computed` for
    /// marginal-benefit scans, and `set_selected` per installed set (the
    /// re-solve path additionally relays the inner CWSC events).
    pub fn push_element_observed<O: Observer + ?Sized>(
        &mut self,
        in_sets: &[SetId],
        obs: &mut O,
    ) -> Result<bool, IncrementalError> {
        for &s in in_sets {
            if s as usize >= self.num_sets {
                return Err(IncrementalError::UnknownSet(s));
            }
        }
        let id = self.num_elements as u32;
        self.num_elements += 1;
        let mut covered_by_solution = false;
        for &s in in_sets {
            self.members[s as usize].push(id);
            if self.chosen_mask[s as usize] {
                covered_by_solution = true;
            }
        }
        self.covered_mask.push(covered_by_solution);
        if covered_by_solution {
            self.covered += 1;
        }
        if self.covered >= self.target() {
            return Ok(false);
        }
        match self.strategy {
            RepairStrategy::Resolve => self.resolve(obs)?,
            RepairStrategy::Patch => {
                if !self.patch(obs) {
                    self.resolve(obs)?;
                }
            }
        }
        Ok(true)
    }

    /// Greedy patch: add max-marginal-gain sets while room remains.
    /// Returns whether the target was reached.
    fn patch<O: Observer + ?Sized>(&mut self, obs: &mut O) -> bool {
        obs.on(&Event::TraceStarted(
            TraceId::mint(
                "repair_patch",
                self.num_elements as u64,
                pack_k_target(self.k, self.target()),
            ),
            "repair_patch",
        ));
        let span = PhaseSpan::enter(obs, PHASE_REPAIR_PATCH);
        let target = self.target();
        while self.covered < target && self.solution.len() < self.k {
            let mut best: Option<(SetId, usize)> = None; // (set, mben)
            let mut scanned = 0u64;
            for s in 0..self.num_sets {
                if self.chosen_mask[s] {
                    continue;
                }
                let mben = self.members[s]
                    .iter()
                    .filter(|&&e| !self.covered_mask[e as usize])
                    .count();
                scanned += 1;
                if mben == 0 {
                    continue;
                }
                let better = match best {
                    None => true,
                    Some((b, b_mben)) => {
                        let cost_s = self.set_costs[s];
                        let cost_b = self.set_costs[b as usize];
                        // gain comparison by cross-multiplication, ties on
                        // bigger mben then lower id
                        (mben as f64 * cost_b)
                            .total_cmp(&(b_mben as f64 * cost_s))
                            .then(mben.cmp(&b_mben))
                            .is_gt()
                    }
                };
                if better {
                    best = Some((s as SetId, mben));
                }
            }
            obs.on(&Event::BenefitComputed(scanned));
            let Some((s, mben)) = best else { break };
            obs.on(&Event::SetSelected(
                s as u64,
                mben as u64,
                self.set_costs[s as usize],
            ));
            self.install_one(s);
        }
        let repaired = self.covered >= target;
        if repaired {
            self.patches += 1;
        }
        span.exit(obs);
        repaired
    }

    fn install_one(&mut self, s: SetId) {
        self.chosen_mask[s as usize] = true;
        self.solution.push(s);
        for &e in &self.members[s as usize] {
            let slot = &mut self.covered_mask[e as usize];
            if !*slot {
                *slot = true;
                self.covered += 1;
            }
        }
    }

    /// Rebuilds the solution from scratch with CWSC over the elements seen
    /// so far.
    fn resolve<O: Observer + ?Sized>(&mut self, obs: &mut O) -> Result<(), IncrementalError> {
        obs.on(&Event::TraceStarted(
            TraceId::mint(
                "repair_resolve",
                self.num_elements as u64,
                pack_k_target(self.k, self.target()),
            ),
            "repair_resolve",
        ));
        let span = PhaseSpan::enter(obs, PHASE_REPAIR_RESOLVE);
        let system = self.snapshot();
        let pool = ThreadPool::new(Threads::serial());
        let result = cwsc_to_target(
            &system,
            self.k,
            self.target(),
            &pool,
            &Deadline::unbounded(),
            obs,
        );
        span.exit(obs);
        let sol = match result {
            Ok(outcome) => outcome.expect_complete("an unbounded deadline never expires"),
            Err(EngineError::Solve(e)) => return Err(IncrementalError::Solve(e)),
            Err(EngineError::Panicked(msg)) => panic!("CWSC re-solve panicked: {msg}"),
        };
        self.install(&system, sol);
        self.resolves += 1;
        Ok(())
    }

    /// Materializes the elements seen so far as a [`SetSystem`] snapshot.
    pub fn snapshot(&self) -> SetSystem {
        let mut b = SetSystem::builder(self.num_elements);
        for (s, members) in self.members.iter().enumerate() {
            b.add_set(members.iter().copied(), self.set_costs[s]);
        }
        b.build().expect("snapshot of validated state cannot fail")
    }

    fn install(&mut self, system: &SetSystem, sol: Solution) {
        self.chosen_mask.fill(false);
        self.covered_mask.fill(false);
        self.solution.clear();
        self.covered = 0;
        for &s in sol.sets() {
            self.chosen_mask[s as usize] = true;
            self.solution.push(s);
        }
        let covered_bits = system.coverage_of(sol.sets());
        for e in covered_bits.iter_ones() {
            self.covered_mask[e] = true;
        }
        self.covered = covered_bits.count_ones();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;

    /// 3 sets: two halves and a universe (every element reports it).
    fn maintainer() -> IncrementalCover {
        IncrementalCover::new(&[2.0, 3.0, 10.0], 2, 0.8).unwrap()
    }

    #[test]
    fn starts_empty_and_satisfied() {
        let m = maintainer();
        assert_eq!(m.num_elements(), 0);
        assert_eq!(m.target(), 0);
        assert_eq!(m.solution(), &[] as &[SetId]);
        assert_eq!(m.solution_cost(), 0.0);
    }

    #[test]
    fn first_element_triggers_repair() {
        let mut m = maintainer();
        let repaired = m.push_element(&[0, 2]).unwrap();
        assert!(repaired);
        assert_eq!(m.resolves(), 1);
        assert!(m.covered() >= m.target());
    }

    #[test]
    fn covered_arrivals_do_not_repair() {
        let mut m = maintainer();
        m.push_element(&[0, 2]).unwrap();
        let r0 = m.resolves();
        // Same membership pattern: already covered by the chosen set(s).
        let repaired = m.push_element(&[0, 2]).unwrap();
        assert!(!repaired);
        assert_eq!(m.resolves(), r0);
    }

    #[test]
    fn coverage_always_maintained() {
        let mut m = maintainer();
        // Alternate memberships so coverage periodically breaks.
        for i in 0..50u32 {
            let sets: &[SetId] = if i % 2 == 0 { &[0, 2] } else { &[1, 2] };
            m.push_element(sets).unwrap();
            assert!(
                m.covered() >= m.target(),
                "after {} arrivals: covered {} < target {}",
                i + 1,
                m.covered(),
                m.target()
            );
            assert!(m.solution().len() <= 2);
        }
        assert!(m.resolves() < 50, "lazy maintenance must skip re-solves");
    }

    #[test]
    fn patch_strategy_maintains_the_invariant_with_fewer_resolves() {
        let mut patching =
            IncrementalCover::with_strategy(&[2.0, 3.0, 10.0], 2, 0.8, RepairStrategy::Patch)
                .unwrap();
        let mut resolving = maintainer();
        for i in 0..60u32 {
            let sets: &[SetId] = if i % 2 == 0 { &[0, 2] } else { &[1, 2] };
            patching.push_element(sets).unwrap();
            resolving.push_element(sets).unwrap();
            assert!(patching.covered() >= patching.target());
            assert!(patching.solution().len() <= 2);
        }
        assert!(
            patching.resolves() <= resolving.resolves(),
            "patching should avoid at least some full re-solves: {} vs {}",
            patching.resolves(),
            resolving.resolves()
        );
        assert!(patching.patches() >= 1);
    }

    #[test]
    fn patch_falls_back_to_resolve_when_full() {
        // k=1: once a set is chosen, a patch can never add another, so a
        // coverage break must fall back to a re-solve.
        let mut m =
            IncrementalCover::with_strategy(&[1.0, 1.0, 10.0], 1, 1.0, RepairStrategy::Patch)
                .unwrap();
        m.push_element(&[0, 2]).unwrap();
        m.push_element(&[1, 2]).unwrap(); // breaks coverage, k exhausted
        assert!(m.covered() >= m.target());
        assert!(m.resolves() >= 1, "fallback re-solve must have happened");
    }

    #[test]
    fn matches_from_scratch_solution_quality() {
        let mut m = maintainer();
        for i in 0..30u32 {
            let sets: &[SetId] = if i % 3 == 0 { &[0, 2] } else { &[1, 2] };
            m.push_element(sets).unwrap();
        }
        let snapshot = m.snapshot();
        let pool = ThreadPool::new(Threads::serial());
        let fresh = cwsc_to_target(
            &snapshot,
            2,
            m.target(),
            &pool,
            &Deadline::unbounded(),
            &mut Stats::new(),
        )
        .unwrap()
        .expect_complete("unbounded deadline");
        // Incremental solution is valid; fresh CWSC may be cheaper but the
        // maintained one must still satisfy the requirements.
        assert!(m.covered() >= m.target());
        assert!(fresh.covered() >= m.target());
    }

    #[test]
    fn observed_push_reports_repair_phases() {
        use crate::telemetry::MetricsRecorder;
        let mut m =
            IncrementalCover::with_strategy(&[2.0, 3.0, 10.0], 2, 0.8, RepairStrategy::Patch)
                .unwrap();
        let mut rec = MetricsRecorder::new();
        for i in 0..20u32 {
            let sets: &[SetId] = if i % 2 == 0 { &[0, 2] } else { &[1, 2] };
            m.push_element_observed(sets, &mut rec).unwrap();
        }
        let patched = rec.phase_seconds(PHASE_REPAIR_PATCH).is_some();
        let resolved = rec.phase_seconds(PHASE_REPAIR_RESOLVE).is_some();
        assert!(patched || resolved, "some repair must have been spanned");
        assert!(rec.benefits_computed >= 1);
        assert!(rec.selections >= 1);
    }

    #[test]
    fn unknown_set_is_rejected() {
        let mut m = maintainer();
        assert_eq!(m.push_element(&[7]), Err(IncrementalError::UnknownSet(7)));
        assert_eq!(m.num_elements(), 0, "failed arrival must not be recorded");
    }

    #[test]
    fn invalid_cost_rejected_at_construction() {
        assert!(matches!(
            IncrementalCover::new(&[1.0, -2.0], 1, 0.5),
            Err(IncrementalError::InvalidCost(_))
        ));
    }

    #[test]
    fn infeasible_arrival_surfaces_solver_error() {
        // One set, k=1, full coverage, but an element arrives in no set.
        let mut m = IncrementalCover::new(&[1.0], 1, 1.0).unwrap();
        let err = m.push_element(&[]).unwrap_err();
        assert!(matches!(err, IncrementalError::Solve(_)));
    }

    #[test]
    fn covered_mask_consistent_after_mixed_ops() {
        let mut m =
            IncrementalCover::with_strategy(&[1.0, 2.0, 50.0], 2, 0.7, RepairStrategy::Patch)
                .unwrap();
        for i in 0..40u32 {
            let sets: &[SetId] = match i % 3 {
                0 => &[0, 2],
                1 => &[1, 2],
                _ => &[2],
            };
            m.push_element(sets).unwrap();
            // The mask count must equal the cached count.
            let mask_count = m.covered_mask.iter().filter(|&&c| c).count();
            assert_eq!(mask_count, m.covered());
        }
    }
}
