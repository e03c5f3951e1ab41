//! Concise Weighted Set Cover (CWSC) — Figure 2 of the paper.
//!
//! CWSC adapts the partial weighted set cover heuristic (pick the set with
//! the highest marginal gain `|MBen|/Cost`) with one extra rule that makes
//! the size constraint hold by construction: with `i` picks remaining and
//! `rem` elements still to cover, only sets with `|MBen(s)| ≥ rem/i` are
//! eligible. It returns at most `k` sets but carries no cost guarantee
//! (Section V-B); empirically it matches CMC's quality at a fraction of the
//! runtime (Tables IV–V).

use super::degrade;
use crate::cover_state::CoverState;
use crate::engine::{panic_message, Deadline, DegradeReason, EngineError, SolveOutcome};
use crate::set_system::{coverage_target, SetId, SetSystem};
use crate::solution::{Solution, SolveError};
use crate::telemetry::{
    audit, pack_k_target, Event, Observer, PhaseSpan, TraceId, PHASE_INIT, PHASE_SELECT,
    PHASE_TOTAL,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs CWSC: at most `k` sets covering at least `⌈coverage_fraction·n⌉`
/// elements, under `deadline` (DESIGN.md §12).
///
/// Returns [`SolveError::NoSolution`] (as [`EngineError::Solve`]) when some
/// iteration has no set with the required marginal benefit (Fig. 2 line
/// 07); this cannot happen when the system contains a universe set. A zero
/// coverage target returns the empty solution (cost 0), the unique optimum
/// for that degenerate input.
///
/// The run reports its work through any [`Observer`], live: one
/// `guess_started` for the single round, `benefit_computed` for every set
/// whose marginal benefit is computed — all of them (Fig. 2 lines 03–04),
/// the unoptimized count plotted in Figure 6 — `set_selected` per pick, and
/// a `"total"` phase span. Passing a
/// [`MetricsRecorder`](crate::telemetry::MetricsRecorder) aggregates them
/// into counters.
///
/// Every selection scans one [`CoverState`] on the calling thread
/// (DESIGN.md §11), and only the sets large enough to pass line 06's
/// floor: the solve orders the sets by size, largest first, once, and
/// each round reads the prefix whose size is at least `⌈rem/i⌉`.
///
/// One work tick is consumed per selection round. On expiry the picks made
/// so far become a [`SolveOutcome::Degraded`] partial solution with a
/// [`Certificate`](crate::engine::Certificate) (`quotas_exhausted` is
/// always empty — CWSC has no cost levels) that
/// [`verify_certificate`](crate::solution::verify_certificate) re-checks.
///
/// CWSC is a single greedy round, so there is no retry: the round runs
/// under `catch_unwind` and a panic surfaces as [`EngineError::Panicked`],
/// after the events emitted before it.
///
/// ```
/// use scwsc_core::{algorithms::cwsc, Deadline, NoopObserver, SetSystem};
///
/// let mut b = SetSystem::builder(8);
/// b.add_set([0, 1, 2, 3], 4.0)   // half the elements, weight 4
///     .add_set([4, 5], 1.0)
///     .add_set([6, 7], 1.0)
///     .add_universe_set(100.0);  // Definition 1's feasibility set
/// let system = b.build().unwrap();
///
/// let solution = cwsc(&system, 3, 0.75, &Deadline::unbounded(), &mut NoopObserver)
///     .unwrap()
///     .expect_complete("an unbounded deadline never expires");
/// assert!(solution.size() <= 3);
/// assert!(solution.covered() >= 6); // ⌈0.75 · 8⌉
/// assert_eq!(solution.total_cost().value(), 6.0); // 4 + 1 + 1
/// ```
pub fn cwsc<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    coverage_fraction: f64,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<Solution>, EngineError> {
    if k == 0 {
        return Err(SolveError::ZeroSizeBound.into());
    }
    let target = coverage_target(system.num_elements(), coverage_fraction);
    cwsc_to_target(system, k, target, deadline, obs)
}

/// [`cwsc`] with an explicit element-count target, for callers (the
/// incremental maintainer) whose target is not a fraction of the universe.
pub(crate) fn cwsc_to_target<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    target: usize,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<Solution>, EngineError> {
    if k == 0 {
        return Err(SolveError::ZeroSizeBound.into());
    }
    if target == 0 {
        return Ok(SolveOutcome::Complete(Solution::from_sets(
            system,
            Vec::new(),
        )));
    }
    obs.on(&Event::TraceStarted(
        TraceId::mint(
            "cwsc",
            system.num_elements() as u64,
            pack_k_target(k, target),
        ),
        "cwsc",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    let caught = catch_unwind(AssertUnwindSafe(|| run(system, k, target, deadline, obs)));
    let result = match caught {
        Ok(RoundOutcome::Done(result)) => result
            .map(SolveOutcome::Complete)
            .map_err(EngineError::Solve),
        Ok(RoundOutcome::Expired { partial, reason }) => Ok(SolveOutcome::Degraded(degrade(
            system,
            partial,
            Vec::new(),
            reason,
            target,
            deadline,
            obs,
        ))),
        Err(payload) => Err(EngineError::Panicked(panic_message(payload.as_ref()))),
    };
    span.exit(obs);
    result
}

/// How one CWSC round ended.
enum RoundOutcome {
    Done(Result<Solution, SolveError>),
    Expired {
        partial: Vec<SetId>,
        reason: DegradeReason,
    },
}

/// The Fig. 2 body over a [`CoverState`], with a work tick per selection
/// round.
fn run<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    target: usize,
    deadline: &Deadline,
    obs: &mut O,
) -> RoundOutcome {
    // CWSC is a single round: record it so `guesses` is 1, not 0.
    obs.on(&Event::GuessStarted(None));

    // Fig. 2 lines 03-04: compute MBen of every set.
    let init_span = PhaseSpan::enter(obs, PHASE_INIT);
    let mut state = CoverState::new(system);
    obs.on(&Event::BenefitComputed(system.num_sets() as u64));
    init_span.exit(obs);

    let by_size = by_size_desc(system);
    let mut chosen: Vec<SetId> = Vec::with_capacity(k);
    let mut rem = target; // line 02

    let select_span = PhaseSpan::enter(obs, PHASE_SELECT);
    for i in (1..=k).rev() {
        if let Err(reason) = deadline.checkpoint() {
            select_span.exit(obs);
            return RoundOutcome::Expired {
                partial: chosen,
                reason,
            };
        }
        // line 06: argmax of MGain over sets with |MBen(s)| >= rem/i,
        // evaluated in exact integer arithmetic. A set smaller than
        // ⌈rem/i⌉ cannot have that much left to cover, so only the
        // prefix of `by_size` at or above it is scanned.
        let i_u = i as u64;
        let rem_u = rem as u64;
        let floor = rem.div_ceil(i);
        let eligible = by_size.partition_point(|&id| system.set(id).benefit() >= floor);
        let top = state.top_gain_among(by_size[..eligible].iter().copied(), audit::TOP, |id| {
            i_u * state.marginal_benefit(id) as u64 >= rem_u
        });
        // line 08 + lines 09, 11-15 (pick_cover selects and updates MBens)
        let Some((q, newly)) = audit::pick_cover(&mut state, obs, audit::ORDER_GAIN, &top) else {
            select_span.exit(obs);
            return RoundOutcome::Done(Err(SolveError::NoSolution)); // line 07
        };
        chosen.push(q);
        rem = rem.saturating_sub(newly);
        if rem == 0 {
            select_span.exit(obs);
            return RoundOutcome::Done(Ok(Solution::from_sets(system, chosen))); // line 10
        }
    }
    select_span.exit(obs);

    // All k picks made but coverage unmet: each eligible pick covered at
    // least rem/i elements, so this is unreachable; kept as a defensive
    // error rather than a panic.
    RoundOutcome::Done(Err(SolveError::NoSolution))
}

/// The set ids by size `|Ben(s)|`, largest first (ids ascending within a
/// size), by a counting sort over sizes `0..=n`.
fn by_size_desc(system: &SetSystem) -> Vec<SetId> {
    let n = system.num_elements();
    // `starts[n - size]` counts the sets of each size, then is turned
    // into the first slot of that size's run.
    let mut starts = vec![0usize; n + 1];
    for (_, set) in system.iter() {
        starts[n - set.benefit()] += 1;
    }
    let mut next = 0;
    for slot in &mut starts {
        (*slot, next) = (next, next + *slot);
    }
    let mut ids = vec![0 as SetId; system.num_sets()];
    for (id, set) in system.iter() {
        let slot = &mut starts[n - set.benefit()];
        ids[*slot] = id;
        *slot += 1;
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::Observer;
    use crate::telemetry::{MetricsRecorder, NoopObserver};

    /// [`cwsc`] without a deadline, unwrapped to the complete solution or
    /// the solve error.
    fn solve(
        system: &SetSystem,
        k: usize,
        coverage: f64,
        obs: &mut dyn Observer,
    ) -> Result<Solution, SolveError> {
        match cwsc(system, k, coverage, &Deadline::unbounded(), obs) {
            Ok(outcome) => Ok(outcome.expect_complete("unbounded deadline")),
            Err(EngineError::Solve(e)) => Err(e),
            Err(e) => panic!("{e}"),
        }
    }

    /// The paper's worked example systems are exercised in the data crate;
    /// here we use small hand-built systems.
    fn system() -> SetSystem {
        let mut b = SetSystem::builder(8);
        b.add_set([0], 1.0) // 0
            .add_set([1], 1.0) // 1
            .add_set([0, 1, 2, 3], 8.0) // 2
            .add_set([4, 5, 6, 7], 4.0) // 3
            .add_universe_set(100.0); // 4
        b.build().unwrap()
    }

    #[test]
    fn picks_high_gain_big_sets_under_size_pressure() {
        let mut metrics = MetricsRecorder::new();
        let sol = solve(&system(), 2, 0.75, &mut metrics).unwrap();
        // Needs 6 of 8 with 2 sets: singletons are ineligible (6/2 = 3).
        assert_eq!(sol.sets(), &[3, 2]); // gain 1.0 then 0.5
        assert_eq!(sol.covered(), 8);
        assert!(sol.size() <= 2);
        assert_eq!(metrics.benefits_computed, 5);
    }

    #[test]
    fn eligibility_floor_shrinks_with_coverage() {
        let mut b = SetSystem::builder(4);
        b.add_set([0, 1, 2], 3.0) // gain 1
            .add_set([3], 1.0) // singleton, gain 1
            .add_universe_set(100.0);
        let sys = b.build().unwrap();
        let sol = solve(&sys, 2, 1.0, &mut NoopObserver).unwrap();
        // i=2: need ≥2 -> set 0 (universe loses on gain). i=1: need ≥1 -> set 1.
        assert_eq!(sol.sets(), &[0, 1]);
        assert_eq!(sol.covered(), 4);
    }

    #[test]
    fn never_exceeds_k() {
        let sys = system();
        for k in 1..=4 {
            if let Ok(sol) = solve(&sys, k, 0.9, &mut NoopObserver) {
                assert!(sol.size() <= k, "k={k} -> {}", sol.size());
                assert!(sol.covered() >= 8 * 9 / 10);
            }
        }
    }

    #[test]
    fn universe_set_guarantees_success() {
        let sol = solve(&system(), 1, 1.0, &mut NoopObserver).unwrap();
        assert_eq!(sol.sets(), &[4]); // only the universe set can do it alone
        assert_eq!(sol.covered(), 8);
    }

    #[test]
    fn no_solution_without_universe() {
        let mut b = SetSystem::builder(4);
        b.add_set([0], 1.0).add_set([1], 1.0);
        let sys = b.build().unwrap();
        // k=1 but no single set covers 2 elements
        assert_eq!(
            solve(&sys, 1, 0.5, &mut NoopObserver),
            Err(SolveError::NoSolution)
        );
    }

    #[test]
    fn zero_coverage_returns_empty() {
        let sol = solve(&system(), 3, 0.0, &mut NoopObserver).unwrap();
        assert_eq!(sol.size(), 0);
        assert_eq!(sol.total_cost().value(), 0.0);
    }

    #[test]
    fn zero_k_is_an_error() {
        assert_eq!(
            solve(&system(), 0, 0.5, &mut NoopObserver),
            Err(SolveError::ZeroSizeBound)
        );
    }

    #[test]
    fn explicit_target_variant_matches_fraction() {
        let sys = system();
        let a = solve(&sys, 2, 0.75, &mut NoopObserver).unwrap();
        let b = cwsc_to_target(&sys, 2, 6, &Deadline::unbounded(), &mut NoopObserver)
            .unwrap()
            .expect_complete("unbounded deadline");
        assert_eq!(a, b);
    }

    #[test]
    fn prefers_cheap_among_eligible() {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 9.0) // gain 1/3
            .add_set([3, 4, 5], 3.0) // gain 1
            .add_universe_set(50.0);
        let sys = b.build().unwrap();
        let sol = solve(&sys, 1, 0.5, &mut NoopObserver).unwrap();
        assert_eq!(sol.sets(), &[1]);
        assert_eq!(sol.total_cost().value(), 3.0);
    }

    #[test]
    fn single_round_is_recorded() {
        let mut metrics = MetricsRecorder::new();
        let _ = solve(&system(), 2, 0.75, &mut metrics).unwrap();
        assert_eq!(metrics.guesses, 1, "CWSC is one budget round");
        let mut metrics = MetricsRecorder::new();
        let _ = solve(&system(), 3, 0.0, &mut metrics).unwrap();
        assert_eq!(metrics.guesses, 0, "trivial target does no work");
    }

    #[test]
    fn cwsc_error_paths() {
        let mut b = SetSystem::builder(4);
        b.add_set([0], 1.0).add_set([1], 1.0);
        let sys = b.build().unwrap();
        assert_eq!(
            solve(&sys, 1, 0.5, &mut NoopObserver),
            Err(SolveError::NoSolution)
        );
        assert_eq!(
            solve(&sys, 0, 0.5, &mut NoopObserver),
            Err(SolveError::ZeroSizeBound)
        );
        let empty = solve(&sys, 1, 0.0, &mut NoopObserver).unwrap();
        assert_eq!(empty.size(), 0);
    }

    #[test]
    fn stops_as_soon_as_covered() {
        let mut b = SetSystem::builder(4);
        b.add_set([0, 1, 2, 3], 4.0)
            .add_set([0], 0.5)
            .add_universe_set(9.0);
        let sys = b.build().unwrap();
        let sol = solve(&sys, 3, 1.0, &mut NoopObserver).unwrap();
        assert_eq!(sol.size(), 1, "covered in one pick, must stop");
    }

    mod within {
        use super::*;
        use crate::solution::verify_certificate;
        use crate::telemetry::MetricsRecorder;

        #[test]
        fn tick_budget_degrades_to_a_verified_prefix() {
            let mut b = SetSystem::builder(12);
            for i in 0..12u32 {
                b.add_set([i], 1.0);
            }
            b.add_universe_set(300.0);
            let sys = b.build().unwrap();
            for budget in [0u64, 1, 2, 4] {
                let deadline = Deadline::unbounded().with_tick_budget(budget);
                let out = cwsc(&sys, 12, 1.0, &deadline, &mut MetricsRecorder::new()).unwrap();
                let SolveOutcome::Degraded(d) = out else {
                    panic!("budget {budget} cannot cover 12 singleton picks");
                };
                assert_eq!(d.certificate.reason, DegradeReason::TickBudget);
                assert_eq!(d.partial.size(), budget as usize);
                assert!(d.certificate.quotas_exhausted.is_empty());
                let check = verify_certificate(&sys, &d.partial, &d.certificate);
                assert!(check.is_valid(), "{check:?}");
            }
        }

        #[test]
        fn error_paths_are_structured() {
            let mut b = SetSystem::builder(4);
            b.add_set([0], 1.0).add_set([1], 1.0);
            let sys = b.build().unwrap();
            let err = cwsc(&sys, 1, 0.5, &Deadline::unbounded(), &mut NoopObserver).unwrap_err();
            assert!(matches!(
                err,
                crate::engine::EngineError::Solve(SolveError::NoSolution)
            ));
            let empty = cwsc(&sys, 1, 0.0, &Deadline::unbounded(), &mut NoopObserver).unwrap();
            assert_eq!(empty.expect_complete("trivial").size(), 0);
        }
    }
}
