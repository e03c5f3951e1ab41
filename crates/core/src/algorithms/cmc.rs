//! Cheap Max Coverage (CMC) — Figure 1, the `(1+ε)k` variant of
//! Section V-A3, and the generalized `(1+l)`-ary variant of Section V-A2.
//!
//! CMC guesses the optimal cost `B` (doubling by `1+b` until feasible),
//! partitions sets into geometric cost levels under `B`, and runs the
//! greedy maximum-coverage heuristic within per-level quotas. Theorem 4:
//! with the classic schedule it returns at most `5k` sets of total cost at
//! most `(1+b)(2⌈log₂k⌉+1)·OPT` covering at least `(1−1/e)·ŝ·n` elements;
//! Theorem 5: the ε-schedule uses at most `(1+ε)k` sets at cost
//! `O(((1+b)/ε)·log k·OPT)`.

use crate::algorithms::scan;
use crate::bitset::BitSet;
use crate::cover_state::CoverState;
use crate::engine::{
    panic_message, Certificate, Deadline, DegradeReason, Degraded, EngineError, SolveOutcome,
};
use crate::parallel::{CancelToken, ThreadPool};
use crate::set_system::{coverage_target, SetId, SetSystem};
use crate::solution::{Solution, SolveError};
use crate::telemetry::{
    audit, pack_k_target, Event, EventLog, Observer, PhaseSpan, ThreadLocalTelemetry, TraceId,
    PHASE_GUESS, PHASE_INIT, PHASE_SELECT, PHASE_TOTAL,
};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fraction of the requested coverage that CMC guarantees (Fig. 1 line 06).
pub const CMC_COVERAGE_DISCOUNT: f64 = 1.0 - std::f64::consts::E.recip();

/// How CMC partitions the cost range `(0, B]` into levels with quotas.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LevelSchedule {
    /// Figure 1: levels `(B/2^i, B/2^{i-1}]` with quota `2^i` for
    /// `i = 1..⌈log₂k⌉` (the last clipped below at `B/k`), plus a final
    /// level `[0, B/k]` with quota `k`. At most `5k − 2` sets.
    Classic,
    /// Section V-A3: geometric levels while `εk ≥ 2^{i+1} − 2`, then a
    /// final level holding everything cheaper with quota `k`. At most
    /// `(1+ε)k` sets.
    Epsilon(f64),
    /// Section V-A2 closing remark: `(1+l)`-ary levels with quota
    /// `(1+l)^i`; `Generalized(1)` coincides with `Classic`. At most
    /// `k(1 + (1+l)²/l)` sets.
    Generalized(u32),
}

/// A concrete level partition for one budget guess `B`.
///
/// Level `i` holds sets with cost in `(lower[i], upper[i]]`; the final
/// level's range is closed below (`[0, upper]`) so zero-cost sets — which
/// the paper implicitly excludes but Definition 1 permits — always belong
/// to the cheapest level.
#[derive(Debug, Clone)]
pub struct Levels {
    /// `(lower, upper]` cost bounds per level, outermost (most expensive)
    /// first. The final level is `[0, upper]`.
    bounds: Vec<(f64, f64)>,
    /// Maximum number of sets pickable from each level (`k_i`).
    quotas: Vec<usize>,
}

impl Levels {
    /// Builds the level partition for budget `B` and size bound `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`, `budget` is not finite/positive, or the
    /// schedule's parameter is out of range (`ε > 0`, `l ≥ 1`).
    pub fn build(schedule: LevelSchedule, budget: f64, k: usize) -> Levels {
        assert!(k >= 1, "k must be at least 1");
        assert!(
            budget.is_finite() && budget > 0.0,
            "budget must be positive and finite, got {budget}"
        );
        // Guard k = 1 explicitly: every schedule degenerates to the single
        // final level [0, B] with quota 1, but the geometric loops reach
        // that only through `log(1) = 0` edge cases (zero iterations with
        // the final bound still depending on the loop counter). Make the
        // degenerate partition unconditional rather than emergent.
        if k == 1 {
            if let LevelSchedule::Epsilon(eps) = schedule {
                assert!(eps > 0.0, "epsilon must be positive, got {eps}");
            }
            if let LevelSchedule::Generalized(l) = schedule {
                assert!(l >= 1, "l must be at least 1, got {l}");
            }
            return Levels {
                bounds: vec![(0.0, budget)],
                quotas: vec![1],
            };
        }
        let mut bounds = Vec::new();
        let mut quotas = Vec::new();
        match schedule {
            LevelSchedule::Classic => {
                // Levels 1..=⌈log₂ k⌉ with quota 2^i, clipped below at B/k.
                let levels = (k as f64).log2().ceil() as u32;
                let floor = budget / k as f64;
                for i in 1..=levels {
                    let upper = budget / 2f64.powi(i as i32 - 1);
                    let lower = (budget / 2f64.powi(i as i32)).max(floor);
                    if lower < upper {
                        bounds.push((lower, upper));
                        quotas.push(1usize << i);
                    }
                }
                bounds.push((0.0, floor));
                quotas.push(k);
            }
            LevelSchedule::Epsilon(eps) => {
                assert!(eps > 0.0, "epsilon must be positive, got {eps}");
                // Modified lines 07-14: geometric levels while εk ≥ 2^{i+1}-2.
                let mut i = 1u32;
                while eps * k as f64 >= (2f64.powi(i as i32 + 1) - 2.0)
                    && 2f64.powi(i as i32 - 1) < k as f64
                {
                    let upper = budget / 2f64.powi(i as i32 - 1);
                    let lower = budget / 2f64.powi(i as i32);
                    bounds.push((lower, upper));
                    quotas.push(1usize << i);
                    i += 1;
                }
                bounds.push((0.0, budget / 2f64.powi(i as i32 - 1)));
                quotas.push(k);
            }
            LevelSchedule::Generalized(l) => {
                assert!(l >= 1, "l must be at least 1, got {l}");
                let base = (1 + l) as f64;
                let levels = (k as f64).log(base).ceil() as u32;
                let floor = budget / k as f64;
                for i in 1..=levels {
                    let upper = budget / base.powi(i as i32 - 1);
                    let lower = (budget / base.powi(i as i32)).max(floor);
                    if lower < upper {
                        bounds.push((lower, upper));
                        quotas.push(base.powi(i as i32) as usize);
                    }
                }
                bounds.push((0.0, floor));
                quotas.push(k);
            }
        }
        Levels { bounds, quotas }
    }

    /// Number of levels.
    pub fn len(&self) -> usize {
        self.bounds.len()
    }

    /// True when there are no levels (never produced by [`Levels::build`]).
    pub fn is_empty(&self) -> bool {
        self.bounds.is_empty()
    }

    /// Quota `k_i` of level `i`.
    pub fn quota(&self, level: usize) -> usize {
        self.quotas[level]
    }

    /// The level a cost belongs to under this partition, or `None` when the
    /// cost exceeds the budget.
    pub fn level_of(&self, cost: f64) -> Option<usize> {
        let last = self.bounds.len() - 1;
        for (i, &(lower, upper)) in self.bounds.iter().enumerate() {
            let contains = if i == last {
                cost <= upper // final level is closed below: [0, upper]
            } else {
                cost > lower && cost <= upper
            };
            if contains {
                return Some(i);
            }
        }
        None
    }

    /// Sum of quotas: the maximum number of sets a single guess can select.
    pub fn max_selections(&self) -> usize {
        self.quotas.iter().sum()
    }
}

/// Tunable parameters of a CMC run.
#[derive(Debug, Clone, Copy)]
pub struct CmcParams {
    /// Size bound `k` from Definition 1.
    pub k: usize,
    /// Requested coverage fraction `ŝ`.
    pub coverage_fraction: f64,
    /// Budget growth factor `b` (Fig. 1 line 28 multiplies by `1+b`).
    pub budget_growth: f64,
    /// Level schedule (classic 5k, ε-variant, or generalized).
    pub schedule: LevelSchedule,
    /// Whether to target `(1−1/e)·ŝ·n` (faithful, Fig. 1 line 06) or the
    /// full `ŝ·n`. The discounted target is what Theorems 4–5 guarantee;
    /// the undiscounted variant is exposed for the ablation benches.
    pub discount_coverage: bool,
}

impl CmcParams {
    /// Faithful Figure 1 parameters: classic schedule, discounted target.
    pub fn classic(k: usize, coverage_fraction: f64, budget_growth: f64) -> CmcParams {
        CmcParams {
            k,
            coverage_fraction,
            budget_growth,
            schedule: LevelSchedule::Classic,
            discount_coverage: true,
        }
    }

    /// Section V-A3 parameters: at most `(1+ε)k` sets.
    pub fn epsilon(k: usize, coverage_fraction: f64, budget_growth: f64, eps: f64) -> CmcParams {
        CmcParams {
            schedule: LevelSchedule::Epsilon(eps),
            ..CmcParams::classic(k, coverage_fraction, budget_growth)
        }
    }

    /// The element target this parameter block chases over a universe of
    /// `n` elements (`ŝ·n`, discounted by `1−1/e` when
    /// [`discount_coverage`](CmcParams::discount_coverage) is set) — the
    /// same number the solver compares progress against, exposed so the
    /// serving layer can report it per answer.
    pub fn coverage_target(&self, n: usize) -> usize {
        let fraction = if self.discount_coverage {
            self.coverage_fraction * CMC_COVERAGE_DISCOUNT
        } else {
            self.coverage_fraction
        };
        coverage_target(n, fraction)
    }
}

/// Outcome of a CMC run: the solution plus the budget that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct CmcOutcome {
    /// The selected sub-collection.
    pub solution: Solution,
    /// The budget guess `B` under which the solution was found.
    pub final_budget: f64,
}

/// Runs Cheap Max Coverage (Figure 1 / Section V-A3 depending on
/// `params.schedule`) on `pool`, under `deadline` (DESIGN.md §12).
///
/// The run reports its work through any [`Observer`]: one `guess_started`
/// per budget guess (with the guessed `B`), `level_entered` for every level
/// of that guess's schedule, `benefit_computed` counting the sets whose
/// marginal benefit is computed per guess (all of them, Fig. 1 lines
/// 04–05 — the Figure 6 metric), `set_selected` per pick, and a `"total"`
/// phase span. Passing `&mut Stats` aggregates these into the classic
/// counters (`considered`, `budget_guesses`, `selections`). Each guess
/// records into a private [`EventLog`] that replays into `obs` in budget
/// order once the guess ends, so events arrive once per guess, not live.
///
/// Returns [`SolveError::BudgetExhausted`] (as [`EngineError::Solve`]) when
/// even `B` larger than the total weight of all sets cannot reach the
/// target — impossible when a universe set exists. Fig. 1's literal
/// `until B > total` check stops *before* running a guess that exceeds the
/// total; we run that final guess too, otherwise feasible instances whose
/// optimum needs nearly the whole collection would be rejected (see
/// DESIGN.md §3).
///
/// On a pool of `N > 1` threads two parallel layers compose
/// (DESIGN.md §11):
///
/// 1. **Speculative guessing** — up to one budget guess per pool thread
///    (`B, (1+b)B, …`) runs concurrently. The committed result is always
///    the *smallest-budget* success; a guess is cancelled (via
///    [`CancelToken`]) only once a strictly smaller budget has succeeded,
///    so every guess the serial loop would have run completes and its
///    recorded event log replays into `obs` in budget order. The caller's
///    observer therefore sees the exact serial event stream, followed by
///    one `speculation(committed, wasted)` event per window — the only
///    counters (gated out of the exact-diff set) that differ from serial.
/// 2. **Chunked scans** — each guess's inner arg-max recounts marginal
///    benefits across the pool with serial tie-breaking (see
///    [`scan::masked_argmax`]), adding nested `"scan"` spans.
///
/// For any thread count the outcome (solution, order of selections, final
/// budget) and every exact counter are identical to serial.
///
/// One work tick is consumed per selection attempt. On expiry the run
/// returns [`SolveOutcome::Degraded`] carrying the partial selection of
/// the budget guess that was in flight, plus a [`Certificate`] (sets used,
/// coverage vs. the `(1−1/e)·ŝ·n` target, cost, exhausted level quotas,
/// ticks) that [`verify_certificate`](crate::solution::verify_certificate)
/// independently re-checks. When the deadline is tick-addressed
/// ([`Deadline::tick_deterministic`]) cross-guess speculation is disabled
/// — guesses run in serial budget order while the inner benefit scans
/// still parallelize (scans do not tick) — so the outcome classification,
/// partial solution, and tick count are identical for `Threads(1)` and
/// `Threads(N)`.
///
/// Panic isolation: each budget guess runs under `catch_unwind`; a
/// panicked guess is retried once serially (counted by the
/// `guesses_retried` telemetry event) and a second panic surfaces as
/// [`EngineError::Panicked`] instead of unwinding.
///
/// ```
/// use scwsc_core::algorithms::{cmc, CmcParams};
/// use scwsc_core::{Deadline, SetSystem, Stats, ThreadPool, Threads};
///
/// let mut b = SetSystem::builder(10);
/// for e in 0..10u32 {
///     b.add_set([e], 1.0); // ten unit singletons
/// }
/// b.add_universe_set(8.0); // one cheap covering set
/// let system = b.build().unwrap();
///
/// // Theorem 4 bounds: ≤ 5k sets covering ≥ (1−1/e)·ŝ·n elements.
/// let params = CmcParams::classic(2, 1.0, 1.0);
/// let pool = ThreadPool::new(Threads::serial());
/// let outcome = cmc(&system, &params, &pool, &Deadline::unbounded(), &mut Stats::new())
///     .unwrap()
///     .expect_complete("an unbounded deadline never expires");
/// assert!(outcome.solution.size() <= 10);
/// assert!(outcome.solution.covered() >= 7); // ⌈(1−1/e)·10⌉
/// ```
pub fn cmc<O: Observer + ?Sized>(
    system: &SetSystem,
    params: &CmcParams,
    pool: &ThreadPool,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<CmcOutcome>, EngineError> {
    if params.k == 0 {
        return Err(SolveError::ZeroSizeBound.into());
    }
    assert!(
        params.budget_growth > 0.0,
        "budget growth factor b must be positive"
    );
    let target = params.coverage_target(system.num_elements());
    if target == 0 {
        return Ok(SolveOutcome::Complete(CmcOutcome {
            solution: Solution::from_sets(system, Vec::new()),
            final_budget: 0.0,
        }));
    }
    obs.on(&Event::TraceStarted(
        TraceId::mint(
            "cmc",
            system.num_elements() as u64,
            pack_k_target(params.k, target),
        ),
        "cmc",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    let result = guess_loop(system, params, target, pool, deadline, obs);
    span.exit(obs);
    result
}

/// Line 01: B = cost of the k cheapest sets. Guard degenerate zero
/// budgets (all-k-cheapest free) so the geometric growth can start.
fn initial_budget(system: &SetSystem, k: usize) -> f64 {
    let b0 = system.k_cheapest_cost(k).value();
    if b0 > 0.0 {
        return b0;
    }
    let min_positive = system
        .iter()
        .map(|(_, s)| s.cost().value())
        .filter(|&c| c > 0.0)
        .fold(f64::INFINITY, f64::min);
    if min_positive.is_finite() {
        min_positive
    } else {
        1.0 // every set is free; a single pass suffices
    }
}

/// Result of one budget-guess run.
enum GuessOutcome {
    Found(Solution),
    NotFound,
    /// Abandoned because a smaller budget already succeeded; its log is
    /// in the discarded (wasted) range by construction.
    Cancelled,
    /// The deadline expired mid-guess; the partial selection becomes the
    /// degraded outcome.
    Expired {
        partial: Vec<SetId>,
        quotas_exhausted: Vec<usize>,
        reason: DegradeReason,
    },
}

/// One guess as it came back from its window: completed, or
/// panicked (contained, to be retried).
enum GuessAttempt {
    Done(GuessOutcome),
    Panicked,
}

/// Level indices whose quota was fully consumed (ascending) — the
/// `quotas_exhausted` claim of a degraded certificate.
fn exhausted_quotas(levels: &Levels, counts: &[usize]) -> Vec<usize> {
    (0..levels.len())
        .filter(|&l| counts[l] == levels.quota(l))
        .collect()
}

/// Packages an expired guess's partial selection as a degraded outcome
/// with its certificate, noting the decision in the audit ledger.
#[allow(clippy::too_many_arguments)]
fn degrade<O: Observer + ?Sized>(
    system: &SetSystem,
    partial: Vec<SetId>,
    quotas_exhausted: Vec<usize>,
    reason: DegradeReason,
    target: usize,
    budget: f64,
    deadline: &Deadline,
    obs: &mut O,
) -> SolveOutcome<CmcOutcome> {
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
        quotas_exhausted,
        ticks: deadline.ticks(),
        reason,
    };
    SolveOutcome::Degraded(Degraded {
        partial: CmcOutcome {
            solution,
            final_budget: budget,
        },
        certificate,
    })
}

/// One iteration of the outer repeat loop (Fig. 1 lines 03–27) for a fixed
/// budget `B` with serial scans: a work tick per selection attempt and
/// per-level quota accounting for the certificate.
fn run_guess(
    system: &SetSystem,
    params: &CmcParams,
    budget: f64,
    target: usize,
    deadline: &Deadline,
    log: &mut EventLog,
) -> GuessOutcome {
    // Lines 04-05: fresh marginal benefits for every set.
    let init_span = PhaseSpan::enter(log, PHASE_INIT);
    let mut state = CoverState::new(system);
    log.on(&Event::BenefitComputed(system.num_sets() as u64));
    init_span.exit(log);

    let levels = Levels::build(params.schedule, budget, params.k);
    // Announce the whole schedule up front (even levels an early return
    // skips) so observers see each guess's complete level partition.
    for level in 0..levels.len() {
        log.on(&Event::LevelEntered(level, levels.quota(level)));
    }
    // Precompute each set's level under this budget so the inner argmax
    // filter is a table lookup.
    let set_level: Vec<Option<usize>> = (0..system.num_sets() as SetId)
        .map(|id| levels.level_of(system.cost(id).value()))
        .collect();

    let mut counts = vec![0usize; levels.len()];
    let mut chosen: Vec<SetId> = Vec::new();
    let mut rem = target; // line 06

    let select_span = PhaseSpan::enter(log, PHASE_SELECT);
    for level in 0..levels.len() {
        for _ in 0..levels.quota(level) {
            if let Err(reason) = deadline.checkpoint() {
                select_span.exit(log);
                let quotas_exhausted = exhausted_quotas(&levels, &counts);
                return GuessOutcome::Expired {
                    partial: chosen,
                    quotas_exhausted,
                    reason,
                };
            }
            // Line 17: argmax of marginal benefit within the level.
            let top = state.top_benefit(audit::TOP, |id| set_level[id as usize] == Some(level));
            let Some((q, newly)) = audit::pick_cover(&mut state, log, audit::ORDER_BENEFIT, &top)
            else {
                break; // line 18: level exhausted
            };
            chosen.push(q); // line 19
            counts[level] += 1;
            rem = rem.saturating_sub(newly);
            if rem == 0 {
                // Lines 22-23: the target is met.
                select_span.exit(log);
                return GuessOutcome::Found(Solution::from_sets(system, chosen));
            }
        }
    }
    select_span.exit(log);
    GuessOutcome::NotFound
}

/// The Fig. 1 outer repeat loop, run in windows of consecutive budget
/// guesses.
///
/// On a parallel pool without a tick-addressed deadline a window holds
/// one speculative guess per pool thread; otherwise it holds one guess,
/// so guesses run in serial budget order and the tick stream is the same
/// for any thread count (inner benefit scans still use the pool; scans
/// do not tick). A serial pool scans a [`CoverState`]; any other pool
/// recounts over row masks.
///
/// Each guess runs under `catch_unwind` into a private [`EventLog`],
/// replayed into `obs` only on completion. A panicked guess is retried
/// once serially on the calling thread (its half-recorded log is
/// discarded, so replayed telemetry stays serial-identical) and a second
/// panic becomes [`EngineError::Panicked`].
fn guess_loop<O: Observer + ?Sized>(
    system: &SetSystem,
    params: &CmcParams,
    target: usize,
    pool: &ThreadPool,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<CmcOutcome>, EngineError> {
    let speculate = !pool.is_serial() && !deadline.tick_deterministic();
    let window_len = if speculate { pool.threads() } else { 1 };
    let total_cost = system.total_cost().value();
    let masks = (!pool.is_serial()).then(|| scan::build_masks(pool, system));
    // One attempt at (1-based) guess `index`; panics propagate.
    let run_attempt = |budget: f64, index: u64, cancel: &CancelToken, log: &mut EventLog| {
        log.on(&Event::GuessStarted(Some(budget)));
        let guess_span = PhaseSpan::enter(log, PHASE_GUESS);
        deadline.fault_guess(index);
        let outcome = match masks.as_deref() {
            Some(masks) => run_guess_masked(
                system, params, budget, target, masks, pool, cancel, deadline, log,
            ),
            None => run_guess(system, params, budget, target, deadline, log),
        };
        guess_span.exit(log);
        outcome
    };
    let mut budget = initial_budget(system, params.k);
    let mut next_guess_index = 0u64;

    loop {
        // The window replicates the serial budget sequence, including the
        // final guess *after* budget exceeds the total cost (the serial
        // loop runs that one before giving up).
        let mut budgets = Vec::with_capacity(window_len);
        let mut exhausts = false;
        let mut b = budget;
        for _ in 0..window_len {
            budgets.push(b);
            if b > total_cost {
                exhausts = true;
                break;
            }
            b *= 1.0 + params.budget_growth; // line 28
        }
        let next_budget = b;
        let base_index = next_guess_index;
        next_guess_index += budgets.len() as u64;

        let cancels: Vec<CancelToken> = budgets.iter().map(|_| CancelToken::new()).collect();
        let tasks: Vec<(usize, f64)> = budgets.iter().copied().enumerate().collect();
        let mut attempts: Vec<(EventLog, GuessAttempt)> = pool.par_map(&tasks, |&(i, guess)| {
            let mut log = EventLog::new();
            let index = base_index + i as u64 + 1;
            let result = catch_unwind(AssertUnwindSafe(|| {
                run_attempt(guess, index, &cancels[i], &mut log)
            }));
            let attempt = match result {
                Ok(outcome) => {
                    if matches!(outcome, GuessOutcome::Found(_)) {
                        // Cancel only strictly larger budgets: smaller ones
                        // may still succeed and must win the commit.
                        for token in &cancels[i + 1..] {
                            token.cancel();
                        }
                    }
                    GuessAttempt::Done(outcome)
                }
                Err(_) => GuessAttempt::Panicked,
            };
            (log, attempt)
        });

        // Resolve the window in budget order, replaying each committed
        // guess's log — exactly the guesses the serial loop would have run,
        // up to and including the first success/expiry.
        let window = attempts.len();
        let mut committed = 0usize;
        let mut resolved: Option<Result<SolveOutcome<CmcOutcome>, EngineError>> = None;
        for (j, (log, attempt)) in attempts.iter_mut().enumerate() {
            let taken = std::mem::replace(attempt, GuessAttempt::Done(GuessOutcome::Cancelled));
            let outcome = match taken {
                GuessAttempt::Done(outcome) => {
                    log.replay(obs);
                    outcome
                }
                GuessAttempt::Panicked => {
                    // Retry once, serially, on the calling thread.
                    obs.on(&Event::GuessRetried);
                    let mut retry_log = EventLog::new();
                    let index = base_index + j as u64 + 1;
                    let retried = catch_unwind(AssertUnwindSafe(|| {
                        run_attempt(budgets[j], index, &CancelToken::new(), &mut retry_log)
                    }));
                    match retried {
                        Ok(outcome) => {
                            retry_log.replay(obs);
                            outcome
                        }
                        Err(payload) => {
                            resolved =
                                Some(Err(EngineError::Panicked(panic_message(payload.as_ref()))));
                            break;
                        }
                    }
                }
            };
            committed = j + 1;
            match outcome {
                GuessOutcome::Found(solution) => {
                    resolved = Some(Ok(SolveOutcome::Complete(CmcOutcome {
                        solution,
                        final_budget: budgets[j],
                    })));
                    break;
                }
                GuessOutcome::Expired {
                    partial,
                    quotas_exhausted,
                    reason,
                } => {
                    resolved = Some(Ok(degrade(
                        system,
                        partial,
                        quotas_exhausted,
                        reason,
                        target,
                        budgets[j],
                        deadline,
                        obs,
                    )));
                    break;
                }
                GuessOutcome::NotFound => {}
                GuessOutcome::Cancelled => {
                    // Only a strictly smaller Found budget cancels, and
                    // resolution breaks at that budget first.
                    debug_assert!(false, "cancelled guess reached resolution");
                }
            }
        }
        if speculate {
            obs.on(&Event::Speculation(
                committed as u64,
                (window - committed) as u64,
            ));
        }
        if let Some(result) = resolved {
            return result;
        }
        if exhausts {
            return Err(SolveError::BudgetExhausted.into());
        }
        budget = next_budget;
    }
}

/// One budget guess over the masked scan engine: same selections, events
/// and ticks as [`run_guess`], recorded into the task-local `log`.
#[allow(clippy::too_many_arguments)]
fn run_guess_masked(
    system: &SetSystem,
    params: &CmcParams,
    budget: f64,
    target: usize,
    masks: &[BitSet],
    pool: &ThreadPool,
    cancel: &CancelToken,
    deadline: &Deadline,
    log: &mut EventLog,
) -> GuessOutcome {
    let init_span = PhaseSpan::enter(log, PHASE_INIT);
    let mut covered = BitSet::new(system.num_elements());
    // Bounds are only valid while `covered` grows, so each guess gets a
    // fresh pruned-scan state (guesses restart coverage from empty).
    let mut pruned = scan::PrunedScan::new(masks);
    log.on(&Event::BenefitComputed(system.num_sets() as u64));
    init_span.exit(log);

    let levels = Levels::build(params.schedule, budget, params.k);
    for level in 0..levels.len() {
        log.on(&Event::LevelEntered(level, levels.quota(level)));
    }
    let set_level: Vec<Option<usize>> = (0..system.num_sets() as SetId)
        .map(|id| levels.level_of(system.cost(id).value()))
        .collect();

    let tls = ThreadLocalTelemetry::new(pool.threads());
    let mut counts = vec![0usize; levels.len()];
    let mut chosen: Vec<SetId> = Vec::new();
    let mut rem = target;

    let select_span = PhaseSpan::enter(log, PHASE_SELECT);
    for level in 0..levels.len() {
        for _ in 0..levels.quota(level) {
            if cancel.is_cancelled() {
                select_span.exit(log);
                return GuessOutcome::Cancelled;
            }
            if let Err(reason) = deadline.checkpoint() {
                select_span.exit(log);
                let quotas_exhausted = exhausted_quotas(&levels, &counts);
                return GuessOutcome::Expired {
                    partial: chosen,
                    quotas_exhausted,
                    reason,
                };
            }
            let top = scan::masked_top_pruned(
                pool,
                &tls,
                system,
                masks,
                &mut pruned,
                &covered,
                |id| set_level[id as usize] == Some(level),
                |_| true,
                0,
                scan::ScanOrder::Benefit,
                audit::TOP,
                log,
            );
            tls.replay(log);
            let Some(q) = audit::record_cover_round(log, audit::ORDER_BENEFIT, &top) else {
                break; // level exhausted
            };
            let win = top[0];
            audit::charge_masked(log, system, &covered, win);
            chosen.push(q);
            counts[level] += 1;
            covered.union_with(&masks[q as usize]);
            log.on(&Event::SetSelected(
                q as u64,
                win.mben as u64,
                win.cost.value(),
            ));
            rem = rem.saturating_sub(win.mben);
            if rem == 0 {
                select_span.exit(log);
                return GuessOutcome::Found(Solution::from_sets(system, chosen));
            }
        }
    }
    select_span.exit(log);
    GuessOutcome::NotFound
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parallel::Threads;
    use crate::solution::{verify, Requirements};
    use crate::stats::Stats;

    /// [`cmc`] on `threads` workers without a deadline, unwrapped to the
    /// complete outcome or the solve error.
    fn solve_on(
        system: &SetSystem,
        params: &CmcParams,
        threads: usize,
        obs: &mut dyn Observer,
    ) -> Result<CmcOutcome, SolveError> {
        let pool = ThreadPool::new(Threads::new(threads));
        match cmc(system, params, &pool, &Deadline::unbounded(), obs) {
            Ok(outcome) => Ok(outcome.expect_complete("unbounded deadline")),
            Err(EngineError::Solve(e)) => Err(e),
            Err(e) => panic!("{e}"),
        }
    }

    fn solve(
        system: &SetSystem,
        params: &CmcParams,
        obs: &mut dyn Observer,
    ) -> Result<CmcOutcome, SolveError> {
        solve_on(system, params, 1, obs)
    }

    fn system() -> SetSystem {
        let mut b = SetSystem::builder(12);
        b.add_set([0], 1.0)
            .add_set([1], 1.0)
            .add_set([2], 1.0)
            .add_set([0, 1, 2, 3, 4, 5], 6.0)
            .add_set([6, 7, 8, 9, 10, 11], 7.0)
            .add_universe_set(30.0);
        b.build().unwrap()
    }

    #[test]
    fn classic_levels_for_k4() {
        let l = Levels::build(LevelSchedule::Classic, 8.0, 4);
        // ⌈log2 4⌉ = 2 levels + final: (4,8] q2, (2,4] q4, [0,2] q4
        assert_eq!(l.len(), 3);
        assert_eq!(l.quota(0), 2);
        assert_eq!(l.quota(1), 4);
        assert_eq!(l.quota(2), 4);
        assert_eq!(l.level_of(8.0), Some(0));
        assert_eq!(l.level_of(5.0), Some(0));
        assert_eq!(l.level_of(4.0), Some(1));
        assert_eq!(l.level_of(2.0), Some(2));
        assert_eq!(l.level_of(0.0), Some(2), "zero cost in final level");
        assert_eq!(l.level_of(8.1), None, "above budget excluded");
    }

    #[test]
    fn classic_levels_k1_single_level() {
        let l = Levels::build(LevelSchedule::Classic, 10.0, 1);
        assert_eq!(l.len(), 1);
        assert_eq!(l.quota(0), 1);
        assert_eq!(l.level_of(10.0), Some(0));
        assert_eq!(l.level_of(11.0), None);
    }

    #[test]
    fn classic_levels_clip_at_budget_over_k() {
        // k = 3: ⌈log2 3⌉ = 2 levels; level 2's lower bound clips at B/3.
        let l = Levels::build(LevelSchedule::Classic, 12.0, 3);
        assert_eq!(l.len(), 3);
        // (6,12] q2, (4,6] q4 (clipped: B/4=3 < B/3=4), [0,4] q3
        assert_eq!(l.level_of(5.0), Some(1));
        assert_eq!(l.level_of(4.0), Some(2));
        assert_eq!(l.max_selections(), 2 + 4 + 3);
    }

    #[test]
    fn classic_max_selections_bounded_by_5k() {
        for k in 1..=64 {
            let l = Levels::build(LevelSchedule::Classic, 100.0, k);
            assert!(
                l.max_selections() <= 5 * k,
                "k={k}: {} > 5k",
                l.max_selections()
            );
        }
    }

    #[test]
    fn epsilon_levels_match_paper_example() {
        // Paper example: k = 12, ε = 0.5 -> levels q2, q4, final q12.
        let l = Levels::build(LevelSchedule::Epsilon(0.5), 8.0, 12);
        assert_eq!(l.len(), 3);
        assert_eq!(l.quota(0), 2);
        assert_eq!(l.quota(1), 4);
        assert_eq!(l.quota(2), 12);
        // H1=(4,8], H2=(2,4], H3=[0,2]
        assert_eq!(l.level_of(3.0), Some(1));
        assert_eq!(l.level_of(2.0), Some(2));
        assert_eq!(l.max_selections(), 18); // (1+ε)k = 18
    }

    #[test]
    fn epsilon_max_selections_bounded() {
        for &eps in &[0.25, 0.5, 1.0, 2.0] {
            for k in 1..=40 {
                let l = Levels::build(LevelSchedule::Epsilon(eps), 50.0, k);
                let bound = ((1.0 + eps) * k as f64).floor() as usize;
                assert!(
                    l.max_selections() <= bound.max(k),
                    "eps={eps} k={k}: {} > {}",
                    l.max_selections(),
                    bound
                );
            }
        }
    }

    #[test]
    fn generalized_l1_equals_classic() {
        for k in [1usize, 2, 3, 7, 16] {
            let a = Levels::build(LevelSchedule::Classic, 64.0, k);
            let b = Levels::build(LevelSchedule::Generalized(1), 64.0, k);
            assert_eq!(a.quotas, b.quotas, "k={k}");
            assert_eq!(a.bounds, b.bounds, "k={k}");
        }
    }

    #[test]
    fn generalized_l3_has_fewer_levels() {
        let a = Levels::build(LevelSchedule::Classic, 64.0, 16);
        let b = Levels::build(LevelSchedule::Generalized(3), 64.0, 16);
        assert!(b.len() < a.len());
    }

    #[test]
    fn generalized_high_l_single_level_for_small_k() {
        // base 6 with k=4: ceil(log_6 4) = 1 level + final.
        let l = Levels::build(LevelSchedule::Generalized(5), 60.0, 4);
        assert!(l.len() <= 2);
        assert_eq!(l.quota(l.len() - 1), 4, "final level quota is k");
        assert_eq!(l.level_of(60.0), Some(0));
        assert_eq!(l.level_of(61.0), None);
    }

    #[test]
    fn generalized_k1() {
        let l = Levels::build(LevelSchedule::Generalized(3), 10.0, 1);
        assert_eq!(l.len(), 1);
        assert_eq!(l.quota(0), 1);
    }

    #[test]
    #[should_panic(expected = "budget must be positive")]
    fn levels_reject_nonpositive_budget() {
        Levels::build(LevelSchedule::Classic, 0.0, 3);
    }

    #[test]
    #[should_panic(expected = "epsilon must be positive")]
    fn levels_reject_nonpositive_epsilon() {
        Levels::build(LevelSchedule::Epsilon(0.0), 10.0, 3);
    }

    #[test]
    #[should_panic(expected = "l must be at least 1")]
    fn levels_reject_zero_l() {
        Levels::build(LevelSchedule::Generalized(0), 10.0, 3);
    }

    #[test]
    fn cmc_meets_discounted_coverage_and_size_bound() {
        let sys = system();
        let mut stats = Stats::new();
        let params = CmcParams::classic(2, 0.75, 1.0);
        let out = solve(&sys, &params, &mut stats).unwrap();
        let discounted = coverage_target(12, 0.75 * CMC_COVERAGE_DISCOUNT);
        let req = Requirements {
            max_sets: 5 * 2,
            min_covered: discounted,
        };
        let v = verify(&sys, &out.solution, req);
        assert!(v.is_valid(), "{v:?}");
        assert!(stats.budget_guesses >= 1);
        assert_eq!(
            stats.considered,
            stats.budget_guesses as u64 * sys.num_sets() as u64
        );
    }

    #[test]
    fn cmc_budget_grows_until_feasible() {
        let sys = system();
        // High coverage forces budgets big enough for the large sets.
        let params = CmcParams::classic(2, 1.0, 1.0);
        let mut stats = Stats::new();
        let out = solve(&sys, &params, &mut stats).unwrap();
        assert!(out.solution.covered() >= coverage_target(12, CMC_COVERAGE_DISCOUNT));
        assert!(
            out.final_budget >= 6.0,
            "needs the big sets: {}",
            out.final_budget
        );
    }

    #[test]
    fn cmc_zero_k_and_zero_target() {
        let sys = system();
        assert_eq!(
            solve(&sys, &CmcParams::classic(0, 0.5, 1.0), &mut Stats::new()),
            Err(SolveError::ZeroSizeBound)
        );
        let out = solve(&sys, &CmcParams::classic(2, 0.0, 1.0), &mut Stats::new()).unwrap();
        assert_eq!(out.solution.size(), 0);
    }

    #[test]
    fn cmc_budget_exhausted_without_universe() {
        let mut b = SetSystem::builder(4);
        b.add_set([0], 1.0).add_set([1], 1.0);
        let sys = b.build().unwrap();
        // k=1, need (1-1/e)*1.0*4 = ceil(2.52) = 3 covered: impossible.
        assert_eq!(
            solve(&sys, &CmcParams::classic(1, 1.0, 1.0), &mut Stats::new()),
            Err(SolveError::BudgetExhausted)
        );
    }

    #[test]
    fn cmc_final_guess_above_total_cost_runs() {
        // Optimal needs the most expensive set; ensure the guess loop
        // reaches a budget admitting it (the DESIGN.md §3 off-by-one fix).
        let mut b = SetSystem::builder(10);
        b.add_set([0], 1.0).add_universe_set(1.9);
        let sys = b.build().unwrap();
        let params = CmcParams::classic(1, 1.0, 10.0); // huge growth factor
        let out = solve(&sys, &params, &mut Stats::new()).unwrap();
        assert_eq!(out.solution.sets(), &[1]);
    }

    #[test]
    fn cmc_zero_cost_sets_are_usable() {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 0.0)
            .add_set([3, 4, 5], 0.0)
            .add_universe_set(5.0);
        let sys = b.build().unwrap();
        let out = solve(&sys, &CmcParams::classic(2, 1.0, 1.0), &mut Stats::new()).unwrap();
        assert!(out.solution.covered() >= coverage_target(6, CMC_COVERAGE_DISCOUNT));
    }

    #[test]
    fn cmc_epsilon_respects_size_bound() {
        let sys = system();
        for &eps in &[0.5, 1.0, 2.0] {
            let params = CmcParams::epsilon(2, 0.9, 1.0, eps);
            let out = solve(&sys, &params, &mut Stats::new()).unwrap();
            let bound = ((1.0 + eps) * 2.0).floor() as usize;
            assert!(
                out.solution.size() <= bound.max(2),
                "eps={eps}: {} sets",
                out.solution.size()
            );
        }
    }

    #[test]
    fn cmc_undiscounted_target_covers_more() {
        let sys = system();
        let mut p = CmcParams::classic(2, 0.9, 1.0);
        p.discount_coverage = false;
        let out = solve(&sys, &p, &mut Stats::new()).unwrap();
        assert!(out.solution.covered() >= coverage_target(12, 0.9));
    }

    #[test]
    #[should_panic(expected = "budget growth")]
    fn cmc_rejects_nonpositive_b() {
        let sys = system();
        let _ = solve(&sys, &CmcParams::classic(2, 0.5, 0.0), &mut Stats::new());
    }

    #[test]
    fn epsilon_levels_k1_single_level() {
        for &eps in &[0.25, 0.5, 2.0] {
            let l = Levels::build(LevelSchedule::Epsilon(eps), 10.0, 1);
            assert_eq!(l.len(), 1, "eps={eps}");
            assert_eq!(l.quota(0), 1);
            assert_eq!(l.level_of(10.0), Some(0), "whole (0, B] range covered");
            assert_eq!(l.level_of(0.0), Some(0));
            assert_eq!(l.level_of(10.1), None);
        }
    }

    #[test]
    fn generalized_levels_k1_single_level() {
        for l_param in [1u32, 3, 9] {
            let l = Levels::build(LevelSchedule::Generalized(l_param), 10.0, 1);
            assert_eq!(l.len(), 1, "l={l_param}");
            assert_eq!(l.quota(0), 1);
            assert_eq!(l.level_of(10.0), Some(0));
            assert_eq!(l.level_of(0.0), Some(0));
        }
    }

    /// Deterministic pseudo-random system (LCG) for parallel-vs-serial
    /// comparisons.
    fn lcg_system(num_elements: usize, num_sets: usize, seed: u64) -> SetSystem {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut b = SetSystem::builder(num_elements);
        for _ in 0..num_sets {
            let len = 1 + next() % 6;
            let members: Vec<u32> = (0..len).map(|_| (next() % num_elements) as u32).collect();
            let cost = 1.0 + (next() % 100) as f64 / 10.0;
            b.add_set(members, cost);
        }
        b.add_universe_set(num_elements as f64 * 2.0);
        b.build().unwrap()
    }

    #[test]
    fn cmc_on_matches_serial_for_any_thread_count() {
        use crate::telemetry::MetricsRecorder;
        let sys = lcg_system(200, 64, 42);
        for schedule in [LevelSchedule::Classic, LevelSchedule::Epsilon(0.5)] {
            let params = CmcParams {
                schedule,
                ..CmcParams::classic(4, 0.9, 0.5)
            };
            let mut sm = MetricsRecorder::new();
            let serial = solve(&sys, &params, &mut sm).unwrap();
            for n in [2usize, 4] {
                let mut pm = MetricsRecorder::new();
                let par = solve_on(&sys, &params, n, &mut pm).unwrap();
                assert_eq!(par.solution, serial.solution, "threads {n}");
                assert_eq!(par.final_budget, serial.final_budget);
                assert_eq!(pm.guesses, sm.guesses);
                assert_eq!(pm.selections, sm.selections);
                assert_eq!(pm.benefits_computed, sm.benefits_computed);
                assert_eq!(pm.marginal_benefit_hist, sm.marginal_benefit_hist);
                // Every serial guess is committed, never more or fewer.
                assert_eq!(pm.guesses_committed, sm.guesses);
                assert_eq!(sm.guesses_committed, 0, "serial never speculates");
            }
        }
    }

    #[test]
    fn cmc_on_budget_exhaustion_matches_serial() {
        use crate::telemetry::MetricsRecorder;
        let mut b = SetSystem::builder(4);
        b.add_set([0], 1.0).add_set([1], 1.0);
        let sys = b.build().unwrap();
        let params = CmcParams::classic(1, 1.0, 1.0);
        let mut sm = MetricsRecorder::new();
        let serial = solve(&sys, &params, &mut sm);
        let mut pm = MetricsRecorder::new();
        let par = solve_on(&sys, &params, 4, &mut pm);
        assert_eq!(par, serial);
        assert_eq!(par.unwrap_err(), SolveError::BudgetExhausted);
        assert_eq!(pm.guesses, sm.guesses, "exhaustion runs the same guesses");
    }

    mod within {
        use super::*;
        use crate::solution::verify_certificate;
        use crate::telemetry::MetricsRecorder;
        use std::time::Duration;

        fn chain_system(n: usize) -> SetSystem {
            let mut b = SetSystem::builder(n);
            for i in 0..n {
                b.add_set([i as u32], 1.0 + (i % 3) as f64);
            }
            b.add_universe_set(100.0 * n as f64);
            b.build().unwrap()
        }

        #[test]
        fn tick_budget_degrades_with_verifiable_certificate() {
            let sys = chain_system(16);
            let params = CmcParams::classic(8, 1.0, 1.0);
            let pool = ThreadPool::new(Threads::serial());
            let deadline = Deadline::unbounded().with_tick_budget(3);
            let out = cmc(&sys, &params, &pool, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("3 ticks cannot cover 16 singleton elements");
            };
            assert_eq!(d.certificate.reason, DegradeReason::TickBudget);
            assert!(d.certificate.ticks >= 3);
            let check = verify_certificate(&sys, &d.partial.solution, &d.certificate);
            assert!(check.is_valid(), "{check:?}");
        }

        #[test]
        fn tick_budget_outcome_is_thread_count_invariant() {
            let sys = chain_system(14);
            let params = CmcParams::classic(7, 1.0, 1.0);
            for budget in [0, 1, 2, 5, 9, 50] {
                let run = |threads: usize| {
                    let pool = ThreadPool::new(Threads::new(threads));
                    let deadline = Deadline::unbounded().with_tick_budget(budget);
                    let mut m = MetricsRecorder::new();
                    let out = cmc(&sys, &params, &pool, &deadline, &mut m).unwrap();
                    (out, deadline.ticks(), m.guesses, m.selections)
                };
                assert_eq!(run(1), run(4), "tick budget {budget}");
            }
        }

        #[test]
        fn zero_wall_clock_degrades_immediately() {
            let sys = chain_system(8);
            let params = CmcParams::classic(4, 1.0, 1.0);
            for threads in [1, 4] {
                let pool = ThreadPool::new(Threads::new(threads));
                let deadline = Deadline::unbounded().with_wall_clock(Duration::ZERO);
                let out =
                    cmc(&sys, &params, &pool, &deadline, &mut MetricsRecorder::new()).unwrap();
                let SolveOutcome::Degraded(d) = out else {
                    panic!("zero wall clock must degrade");
                };
                assert_eq!(d.certificate.reason, DegradeReason::WallClock);
                assert!(verify_certificate(&sys, &d.partial.solution, &d.certificate).is_valid());
            }
        }

        #[test]
        fn external_cancellation_degrades_with_reason() {
            let sys = chain_system(8);
            let params = CmcParams::classic(4, 1.0, 1.0);
            let pool = ThreadPool::new(Threads::serial());
            let deadline = Deadline::unbounded();
            deadline.cancel();
            let out = cmc(&sys, &params, &pool, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("cancelled deadline must degrade");
            };
            assert_eq!(d.certificate.reason, DegradeReason::Cancelled);
        }

        #[test]
        fn zero_k_is_a_solve_error() {
            let sys = chain_system(4);
            let params = CmcParams::classic(0, 1.0, 1.0);
            let pool = ThreadPool::new(Threads::serial());
            let err = cmc(
                &sys,
                &params,
                &pool,
                &Deadline::unbounded(),
                &mut MetricsRecorder::new(),
            )
            .unwrap_err();
            assert!(matches!(
                err,
                crate::engine::EngineError::Solve(SolveError::ZeroSizeBound)
            ));
        }
    }

    #[cfg(feature = "fault-inject")]
    mod within_faults {
        use super::*;
        use crate::engine::FaultPlan;
        use crate::telemetry::MetricsRecorder;

        fn system() -> SetSystem {
            let mut b = SetSystem::builder(10);
            for i in 0..10 {
                b.add_set([i as u32], 1.0);
            }
            b.add_universe_set(500.0);
            b.build().unwrap()
        }

        #[test]
        fn one_shot_guess_panic_is_retried_to_completion() {
            let sys = system();
            let params = CmcParams::classic(5, 1.0, 1.0);
            let clean = solve(&sys, &params, &mut MetricsRecorder::new()).unwrap();
            for threads in [1, 4] {
                let pool = ThreadPool::new(Threads::new(threads));
                let deadline =
                    Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(1));
                let mut m = MetricsRecorder::new();
                let out = cmc(&sys, &params, &pool, &deadline, &mut m).unwrap();
                match out {
                    SolveOutcome::Complete(outcome) => assert_eq!(outcome, clean),
                    SolveOutcome::Degraded(_) => panic!("fault retry must complete"),
                }
                assert_eq!(m.guesses_retried, 1, "threads {threads}");
            }
        }

        #[test]
        fn persistent_guess_fault_is_a_structured_error() {
            let sys = system();
            let params = CmcParams::classic(5, 1.0, 1.0);
            for threads in [1, 4] {
                let pool = ThreadPool::new(Threads::new(threads));
                let deadline =
                    Deadline::unbounded().with_fault_plan(FaultPlan::new().fail_guess(1));
                let mut m = MetricsRecorder::new();
                let err = cmc(&sys, &params, &pool, &deadline, &mut m).unwrap_err();
                assert!(matches!(err, EngineError::Panicked(_)), "threads {threads}");
                assert_eq!(m.guesses_retried, 1);
            }
        }

        #[test]
        fn retried_guess_replays_serial_identical_telemetry() {
            let sys = system();
            let params = CmcParams::classic(5, 1.0, 1.0);
            let mut clean = MetricsRecorder::new();
            solve(&sys, &params, &mut clean).unwrap();
            let pool = ThreadPool::new(Threads::serial());
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(1));
            let mut faulted = MetricsRecorder::new();
            cmc(&sys, &params, &pool, &deadline, &mut faulted)
                .unwrap()
                .expect_complete("retry completes");
            // The panicked attempt's half-recorded log was discarded, so
            // exact-diff counters match a fault-free serial run.
            assert_eq!(faulted.guesses, clean.guesses);
            assert_eq!(faulted.selections, clean.selections);
            assert_eq!(faulted.benefits_computed, clean.benefits_computed);
        }
    }
}
