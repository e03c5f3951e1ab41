//! Concise Weighted Set Cover (CWSC) — Figure 2 of the paper.
//!
//! CWSC adapts the partial weighted set cover heuristic (pick the set with
//! the highest marginal gain `|MBen|/Cost`) with one extra rule that makes
//! the size constraint hold by construction: with `i` picks remaining and
//! `rem` elements still to cover, only sets with `|MBen(s)| ≥ rem/i` are
//! eligible. It returns at most `k` sets but carries no cost guarantee
//! (Section V-B); empirically it matches CMC's quality at a fraction of the
//! runtime (Tables IV–V).

use crate::algorithms::scan;
use crate::bitset::BitSet;
use crate::cover_state::CoverState;
use crate::engine::{
    panic_message, Certificate, Deadline, DegradeReason, Degraded, EngineError, SolveOutcome,
};
use crate::parallel::ThreadPool;
use crate::set_system::{coverage_target, SetId, SetSystem};
use crate::solution::{Solution, SolveError};
use crate::telemetry::{
    audit, pack_k_target, Event, EventLog, Observer, PhaseSpan, ThreadLocalTelemetry, TraceId,
    PHASE_INIT, PHASE_SELECT, PHASE_TOTAL,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Runs CWSC: at most `k` sets covering at least `⌈coverage_fraction·n⌉`
/// elements.
///
/// Returns [`SolveError::NoSolution`] when some iteration has no set with
/// the required marginal benefit (Fig. 2 line 07); this cannot happen when
/// the system contains a universe set. A zero coverage target returns the
/// empty solution (cost 0), the unique optimum for that degenerate input.
///
/// The run reports its work through any [`Observer`]: one `guess_started`
/// for the single round, `benefit_computed` for every set whose marginal
/// benefit is computed — all of them (Fig. 2 lines 03–04), the unoptimized
/// count plotted in Figure 6 — `set_selected` per pick, and a `"total"`
/// phase span. Passing `&mut Stats` aggregates these into the classic
/// counters, as below.
///
/// ```
/// use scwsc_core::{algorithms::cwsc, SetSystem, Stats};
///
/// let mut b = SetSystem::builder(8);
/// b.add_set([0, 1, 2, 3], 4.0)   // half the elements, weight 4
///     .add_set([4, 5], 1.0)
///     .add_set([6, 7], 1.0)
///     .add_universe_set(100.0);  // Definition 1's feasibility set
/// let system = b.build().unwrap();
///
/// let solution = cwsc(&system, 3, 0.75, &mut Stats::new()).unwrap();
/// assert!(solution.size() <= 3);
/// assert!(solution.covered() >= 6); // ⌈0.75 · 8⌉
/// assert_eq!(solution.total_cost().value(), 6.0); // 4 + 1 + 1
/// ```
pub fn cwsc<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    coverage_fraction: f64,
    obs: &mut O,
) -> Result<Solution, SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroSizeBound);
    }
    let target = coverage_target(system.num_elements(), coverage_fraction);
    cwsc_with_target(system, k, target, obs)
}

/// CWSC with an explicit element-count target instead of a fraction.
pub fn cwsc_with_target<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    target: usize,
    obs: &mut O,
) -> Result<Solution, SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroSizeBound);
    }
    if target == 0 {
        return Ok(Solution::from_sets(system, Vec::new()));
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
    let result = run(system, k, target, obs);
    span.exit(obs);
    result
}

/// [`cwsc`] on a thread pool: the per-round arg-max scan is chunked
/// across workers.
///
/// Deterministic: for any thread count the selected sets, their order,
/// the final solution, and every exact counter are identical to the
/// serial [`cwsc`] (DESIGN.md §11). A serial pool delegates to [`cwsc`]
/// outright, so `--threads 1` is byte-for-byte the serial code path. The
/// only observable difference under `N > 1` is additional `"scan"` phase
/// spans — one per worker chunk per round, nested under `"select"`.
pub fn cwsc_on<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    coverage_fraction: f64,
    pool: &ThreadPool,
    obs: &mut O,
) -> Result<Solution, SolveError> {
    if k == 0 {
        return Err(SolveError::ZeroSizeBound);
    }
    let target = coverage_target(system.num_elements(), coverage_fraction);
    cwsc_with_target_on(system, k, target, pool, obs)
}

/// [`cwsc_with_target`] on a thread pool; see [`cwsc_on`].
pub fn cwsc_with_target_on<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    target: usize,
    pool: &ThreadPool,
    obs: &mut O,
) -> Result<Solution, SolveError> {
    if pool.is_serial() {
        return cwsc_with_target(system, k, target, obs);
    }
    if k == 0 {
        return Err(SolveError::ZeroSizeBound);
    }
    if target == 0 {
        return Ok(Solution::from_sets(system, Vec::new()));
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
    let result = run_parallel(system, k, target, pool, obs);
    span.exit(obs);
    result
}

/// [`cwsc`] under a [`Deadline`]: the resilience-engine entry point
/// (DESIGN.md §12).
///
/// One work tick is consumed per selection round. On expiry the picks made
/// so far become a [`SolveOutcome::Degraded`] partial solution with a
/// [`Certificate`] (`quotas_exhausted` is always empty — CWSC has no cost
/// levels) that
/// [`verify_certificate`](crate::solution::verify_certificate) re-checks.
///
/// CWSC is a single greedy round, so there is no per-guess retry: the
/// round runs under `catch_unwind` with its telemetry recorded into a
/// private [`EventLog`] (replayed only on normal completion), and a panic
/// surfaces as [`EngineError::Panicked`].
///
/// Determinism: the tick stream counts rounds, which are identical for
/// any thread count (the parallel arg-max is exact; DESIGN.md §11), so
/// outcome classification, partial solution, and tick count match between
/// `Threads(1)` and `Threads(N)` under tick-addressed deadlines.
pub fn cwsc_within<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    coverage_fraction: f64,
    pool: &ThreadPool,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<Solution>, EngineError> {
    if k == 0 {
        return Err(SolveError::ZeroSizeBound.into());
    }
    let target = coverage_target(system.num_elements(), coverage_fraction);
    cwsc_with_target_within(system, k, target, pool, deadline, obs)
}

/// [`cwsc_within`] with an explicit element-count target.
pub fn cwsc_with_target_within<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    target: usize,
    pool: &ThreadPool,
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
    let mut log = EventLog::new();
    let caught = catch_unwind(AssertUnwindSafe(|| {
        if pool.is_serial() {
            run_within_serial(system, k, target, deadline, &mut log)
        } else {
            run_within_masked(system, k, target, pool, deadline, &mut log)
        }
    }));
    let result = match caught {
        Ok(round) => {
            log.replay(obs);
            match round {
                RoundOutcome::Done(result) => result
                    .map(SolveOutcome::Complete)
                    .map_err(EngineError::Solve),
                RoundOutcome::Expired { partial, reason } => {
                    let solution = Solution::from_sets(system, partial);
                    obs.on(&Event::DegradeDecided(
                        reason.as_str(),
                        solution.covered() as u64,
                        target as u64,
                    ));
                    let certificate = Certificate {
                        sets_used: solution.size(),
                        covered: solution.covered(),
                        target,
                        total_cost: solution.total_cost().value(),
                        quotas_exhausted: Vec::new(),
                        ticks: deadline.ticks(),
                        reason,
                    };
                    Ok(SolveOutcome::Degraded(Degraded {
                        partial: solution,
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

/// How one deadline-aware CWSC round ended.
enum RoundOutcome {
    Done(Result<Solution, SolveError>),
    Expired {
        partial: Vec<SetId>,
        reason: DegradeReason,
    },
}

/// [`run`] plus a work tick per selection round.
fn run_within_serial(
    system: &SetSystem,
    k: usize,
    target: usize,
    deadline: &Deadline,
    log: &mut EventLog,
) -> RoundOutcome {
    log.on(&Event::GuessStarted(None));
    let init_span = PhaseSpan::enter(log, PHASE_INIT);
    let mut state = CoverState::new(system);
    log.on(&Event::BenefitComputed(system.num_sets() as u64));
    init_span.exit(log);

    let mut chosen: Vec<SetId> = Vec::with_capacity(k);
    let mut rem = target;

    let select_span = PhaseSpan::enter(log, PHASE_SELECT);
    for i in (1..=k).rev() {
        if let Err(reason) = deadline.checkpoint() {
            select_span.exit(log);
            return RoundOutcome::Expired {
                partial: chosen,
                reason,
            };
        }
        let i_u = i as u64;
        let rem_u = rem as u64;
        let top = state.top_gain(audit::TOP, |id| {
            i_u * state.marginal_benefit(id) as u64 >= rem_u
        });
        let Some((q, newly)) = audit::pick_cover(&mut state, log, audit::ORDER_GAIN, &top) else {
            select_span.exit(log);
            return RoundOutcome::Done(Err(SolveError::NoSolution));
        };
        chosen.push(q);
        rem = rem.saturating_sub(newly);
        if rem == 0 {
            select_span.exit(log);
            return RoundOutcome::Done(Ok(Solution::from_sets(system, chosen)));
        }
    }
    select_span.exit(log);
    RoundOutcome::Done(Err(SolveError::NoSolution))
}

/// [`run_parallel`] plus a work tick per selection round. The tick
/// placement matches [`run_within_serial`] exactly (scans do not tick).
fn run_within_masked(
    system: &SetSystem,
    k: usize,
    target: usize,
    pool: &ThreadPool,
    deadline: &Deadline,
    log: &mut EventLog,
) -> RoundOutcome {
    log.on(&Event::GuessStarted(None));
    let init_span = PhaseSpan::enter(log, PHASE_INIT);
    let masks = scan::build_masks(pool, system);
    let mut pruned = scan::PrunedScan::new(&masks);
    let mut covered = BitSet::new(system.num_elements());
    log.on(&Event::BenefitComputed(system.num_sets() as u64));
    init_span.exit(log);

    let tls = ThreadLocalTelemetry::new(pool.threads());
    let mut chosen: Vec<SetId> = Vec::with_capacity(k);
    let mut rem = target;

    let select_span = PhaseSpan::enter(log, PHASE_SELECT);
    for i in (1..=k).rev() {
        if let Err(reason) = deadline.checkpoint() {
            select_span.exit(log);
            return RoundOutcome::Expired {
                partial: chosen,
                reason,
            };
        }
        let i_u = i as u64;
        let rem_u = rem as u64;
        // Smallest mben passing the `i·|MBen| >= rem` floor below.
        let floor = rem.div_ceil(i);
        let top = scan::masked_top_pruned(
            pool,
            &tls,
            system,
            &masks,
            &mut pruned,
            &covered,
            |_| true,
            |mben| i_u * mben as u64 >= rem_u,
            floor,
            scan::ScanOrder::Gain,
            audit::TOP,
            log,
        );
        tls.replay(log);
        let Some(q) = audit::record_cover_round(log, audit::ORDER_GAIN, &top) else {
            select_span.exit(log);
            return RoundOutcome::Done(Err(SolveError::NoSolution));
        };
        let win = top[0];
        audit::charge_masked(log, system, &covered, win);
        chosen.push(q);
        covered.union_with(&masks[q as usize]);
        log.on(&Event::SetSelected(
            q as u64,
            win.mben as u64,
            win.cost.value(),
        ));
        rem = rem.saturating_sub(win.mben);
        if rem == 0 {
            select_span.exit(log);
            return RoundOutcome::Done(Ok(Solution::from_sets(system, chosen)));
        }
    }
    select_span.exit(log);
    RoundOutcome::Done(Err(SolveError::NoSolution))
}

/// The Fig. 2 body over the masked scan engine: same selections and
/// events as [`run`], with the arg-max recounted in parallel.
fn run_parallel<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    target: usize,
    pool: &ThreadPool,
    obs: &mut O,
) -> Result<Solution, SolveError> {
    obs.on(&Event::GuessStarted(None));

    let init_span = PhaseSpan::enter(obs, PHASE_INIT);
    let masks = scan::build_masks(pool, system);
    let mut pruned = scan::PrunedScan::new(&masks);
    let mut covered = BitSet::new(system.num_elements());
    obs.on(&Event::BenefitComputed(system.num_sets() as u64));
    init_span.exit(obs);

    let tls = ThreadLocalTelemetry::new(pool.threads());
    let mut chosen: Vec<SetId> = Vec::with_capacity(k);
    let mut rem = target;

    let select_span = PhaseSpan::enter(obs, PHASE_SELECT);
    for i in (1..=k).rev() {
        let i_u = i as u64;
        let rem_u = rem as u64;
        // Smallest mben passing the `i·|MBen| >= rem` floor below.
        let floor = rem.div_ceil(i);
        let top = scan::masked_top_pruned(
            pool,
            &tls,
            system,
            &masks,
            &mut pruned,
            &covered,
            |_| true,
            |mben| i_u * mben as u64 >= rem_u,
            floor,
            scan::ScanOrder::Gain,
            audit::TOP,
            obs,
        );
        tls.replay(obs);
        let Some(q) = audit::record_cover_round(obs, audit::ORDER_GAIN, &top) else {
            select_span.exit(obs);
            return Err(SolveError::NoSolution);
        };
        // The recount is against the pre-union mask, so win.mben is
        // exactly the serial `newly`.
        let win = top[0];
        audit::charge_masked(obs, system, &covered, win);
        chosen.push(q);
        covered.union_with(&masks[q as usize]);
        obs.on(&Event::SetSelected(
            q as u64,
            win.mben as u64,
            win.cost.value(),
        ));
        rem = rem.saturating_sub(win.mben);
        if rem == 0 {
            select_span.exit(obs);
            return Ok(Solution::from_sets(system, chosen));
        }
    }
    select_span.exit(obs);
    Err(SolveError::NoSolution)
}

/// The Fig. 2 body, wrapped by [`cwsc_with_target`]'s phase span.
fn run<O: Observer + ?Sized>(
    system: &SetSystem,
    k: usize,
    target: usize,
    obs: &mut O,
) -> Result<Solution, SolveError> {
    // CWSC is a single round: record it so `budget_guesses` is 1, not 0.
    obs.on(&Event::GuessStarted(None));

    // Fig. 2 lines 03-04: compute MBen of every set.
    let init_span = PhaseSpan::enter(obs, PHASE_INIT);
    let mut state = CoverState::new(system);
    obs.on(&Event::BenefitComputed(system.num_sets() as u64));
    init_span.exit(obs);

    let mut chosen: Vec<SetId> = Vec::with_capacity(k);
    let mut rem = target; // line 02

    let select_span = PhaseSpan::enter(obs, PHASE_SELECT);
    for i in (1..=k).rev() {
        // line 06: argmax of MGain over sets with |MBen(s)| >= rem/i,
        // evaluated in exact integer arithmetic.
        let i_u = i as u64;
        let rem_u = rem as u64;
        let top = state.top_gain(audit::TOP, |id| {
            i_u * state.marginal_benefit(id) as u64 >= rem_u
        });
        // line 08 + lines 09, 11-15 (pick_cover selects and updates MBens)
        let Some((q, newly)) = audit::pick_cover(&mut state, obs, audit::ORDER_GAIN, &top) else {
            select_span.exit(obs);
            return Err(SolveError::NoSolution); // line 07
        };
        chosen.push(q);
        rem = rem.saturating_sub(newly);
        if rem == 0 {
            select_span.exit(obs);
            return Ok(Solution::from_sets(system, chosen)); // line 10
        }
    }
    select_span.exit(obs);

    // All k picks made but coverage unmet: each eligible pick covered at
    // least rem/i elements, so this is unreachable; kept as a defensive
    // error rather than a panic.
    Err(SolveError::NoSolution)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Stats;

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
        let mut stats = Stats::new();
        let sol = cwsc(&system(), 2, 0.75, &mut stats).unwrap();
        // Needs 6 of 8 with 2 sets: singletons are ineligible (6/2 = 3).
        assert_eq!(sol.sets(), &[3, 2]); // gain 1.0 then 0.5
        assert_eq!(sol.covered(), 8);
        assert!(sol.size() <= 2);
        assert_eq!(stats.considered, 5);
    }

    #[test]
    fn eligibility_floor_shrinks_with_coverage() {
        let mut b = SetSystem::builder(4);
        b.add_set([0, 1, 2], 3.0) // gain 1
            .add_set([3], 1.0) // singleton, gain 1
            .add_universe_set(100.0);
        let sys = b.build().unwrap();
        let sol = cwsc(&sys, 2, 1.0, &mut Stats::new()).unwrap();
        // i=2: need ≥2 -> set 0 (universe loses on gain). i=1: need ≥1 -> set 1.
        assert_eq!(sol.sets(), &[0, 1]);
        assert_eq!(sol.covered(), 4);
    }

    #[test]
    fn never_exceeds_k() {
        let sys = system();
        for k in 1..=4 {
            if let Ok(sol) = cwsc(&sys, k, 0.9, &mut Stats::new()) {
                assert!(sol.size() <= k, "k={k} -> {}", sol.size());
                assert!(sol.covered() >= 8 * 9 / 10);
            }
        }
    }

    #[test]
    fn universe_set_guarantees_success() {
        let sol = cwsc(&system(), 1, 1.0, &mut Stats::new()).unwrap();
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
            cwsc(&sys, 1, 0.5, &mut Stats::new()),
            Err(SolveError::NoSolution)
        );
    }

    #[test]
    fn zero_coverage_returns_empty() {
        let sol = cwsc(&system(), 3, 0.0, &mut Stats::new()).unwrap();
        assert_eq!(sol.size(), 0);
        assert_eq!(sol.total_cost().value(), 0.0);
    }

    #[test]
    fn zero_k_is_an_error() {
        assert_eq!(
            cwsc(&system(), 0, 0.5, &mut Stats::new()),
            Err(SolveError::ZeroSizeBound)
        );
    }

    #[test]
    fn explicit_target_variant_matches_fraction() {
        let sys = system();
        let a = cwsc(&sys, 2, 0.75, &mut Stats::new()).unwrap();
        let b = cwsc_with_target(&sys, 2, 6, &mut Stats::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn prefers_cheap_among_eligible() {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 9.0) // gain 1/3
            .add_set([3, 4, 5], 3.0) // gain 1
            .add_universe_set(50.0);
        let sys = b.build().unwrap();
        let sol = cwsc(&sys, 1, 0.5, &mut Stats::new()).unwrap();
        assert_eq!(sol.sets(), &[1]);
        assert_eq!(sol.total_cost().value(), 3.0);
    }

    #[test]
    fn single_round_is_recorded() {
        let mut stats = Stats::new();
        let _ = cwsc(&system(), 2, 0.75, &mut stats).unwrap();
        assert_eq!(stats.budget_guesses, 1, "CWSC is one budget round");
        let mut stats = Stats::new();
        let _ = cwsc(&system(), 3, 0.0, &mut stats).unwrap();
        assert_eq!(stats.budget_guesses, 0, "trivial target does no work");
    }

    #[test]
    fn cwsc_on_matches_serial_for_any_thread_count() {
        use crate::parallel::{ThreadPool, Threads};
        use crate::telemetry::MetricsRecorder;
        let mut b = SetSystem::builder(64);
        for i in 0..32u32 {
            let members: Vec<u32> = (0..=(i % 7)).map(|j| (i * 3 + j * 5) % 64).collect();
            b.add_set(members, 1.0 + (i % 9) as f64);
        }
        b.add_universe_set(200.0);
        let sys = b.build().unwrap();
        let mut sm = MetricsRecorder::new();
        let serial = cwsc(&sys, 4, 0.8, &mut sm).unwrap();
        for n in [2usize, 4, 8] {
            let pool = ThreadPool::new(Threads::new(n));
            let mut pm = MetricsRecorder::new();
            let par = cwsc_on(&sys, 4, 0.8, &pool, &mut pm).unwrap();
            assert_eq!(par, serial, "threads {n}");
            assert_eq!(pm.selections, sm.selections);
            assert_eq!(pm.benefits_computed, sm.benefits_computed);
            assert_eq!(pm.guesses, sm.guesses);
            assert_eq!(pm.marginal_benefit_hist, sm.marginal_benefit_hist);
        }
    }

    #[test]
    fn cwsc_on_error_paths_match_serial() {
        use crate::parallel::{ThreadPool, Threads};
        use crate::stats::Stats;
        let mut b = SetSystem::builder(4);
        b.add_set([0], 1.0).add_set([1], 1.0);
        let sys = b.build().unwrap();
        let pool = ThreadPool::new(Threads::new(4));
        assert_eq!(
            cwsc_on(&sys, 1, 0.5, &pool, &mut Stats::new()),
            Err(SolveError::NoSolution)
        );
        assert_eq!(
            cwsc_on(&sys, 0, 0.5, &pool, &mut Stats::new()),
            Err(SolveError::ZeroSizeBound)
        );
        let empty = cwsc_on(&sys, 1, 0.0, &pool, &mut Stats::new()).unwrap();
        assert_eq!(empty.size(), 0);
    }

    #[test]
    fn stops_as_soon_as_covered() {
        let mut b = SetSystem::builder(4);
        b.add_set([0, 1, 2, 3], 4.0)
            .add_set([0], 0.5)
            .add_universe_set(9.0);
        let sys = b.build().unwrap();
        let sol = cwsc(&sys, 3, 1.0, &mut Stats::new()).unwrap();
        assert_eq!(sol.size(), 1, "covered in one pick, must stop");
    }

    mod within {
        use super::*;
        use crate::engine::{Deadline, DegradeReason, SolveOutcome};
        use crate::parallel::{ThreadPool, Threads};
        use crate::solution::verify_certificate;
        use crate::telemetry::MetricsRecorder;

        #[test]
        fn unbounded_deadline_matches_plain_cwsc() {
            let sys = system();
            let serial = cwsc(&sys, 2, 0.75, &mut Stats::new()).unwrap();
            for threads in [1, 4] {
                let pool = ThreadPool::new(Threads::new(threads));
                let out = cwsc_within(
                    &sys,
                    2,
                    0.75,
                    &pool,
                    &Deadline::unbounded(),
                    &mut MetricsRecorder::new(),
                )
                .unwrap();
                assert_eq!(out.expect_complete("unbounded"), serial);
            }
        }

        #[test]
        fn tick_budget_degrades_identically_across_thread_counts() {
            let mut b = SetSystem::builder(12);
            for i in 0..12u32 {
                b.add_set([i], 1.0);
            }
            b.add_universe_set(300.0);
            let sys = b.build().unwrap();
            for budget in [0u64, 1, 2, 4] {
                let run = |threads: usize| {
                    let pool = ThreadPool::new(Threads::new(threads));
                    let deadline = Deadline::unbounded().with_tick_budget(budget);
                    let out =
                        cwsc_within(&sys, 12, 1.0, &pool, &deadline, &mut MetricsRecorder::new())
                            .unwrap();
                    (out, deadline.ticks())
                };
                let (serial, serial_ticks) = run(1);
                assert_eq!((serial.clone(), serial_ticks), run(4), "budget {budget}");
                let SolveOutcome::Degraded(d) = serial else {
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
        fn error_paths_match_plain_cwsc() {
            let mut b = SetSystem::builder(4);
            b.add_set([0], 1.0).add_set([1], 1.0);
            let sys = b.build().unwrap();
            let pool = ThreadPool::new(Threads::serial());
            let err = cwsc_within(
                &sys,
                1,
                0.5,
                &pool,
                &Deadline::unbounded(),
                &mut Stats::new(),
            )
            .unwrap_err();
            assert!(matches!(
                err,
                crate::engine::EngineError::Solve(SolveError::NoSolution)
            ));
            let empty = cwsc_within(
                &sys,
                1,
                0.0,
                &pool,
                &Deadline::unbounded(),
                &mut Stats::new(),
            )
            .unwrap();
            assert_eq!(empty.expect_complete("trivial").size(), 0);
        }
    }
}
