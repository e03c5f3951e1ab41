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

use super::degrade;
use crate::cost::Cost;
use crate::cover_state::{Candidate, CoverState, Incidence};
use crate::engine::{panic_message, Deadline, DegradeReason, Degraded, EngineError, SolveOutcome};
use crate::set_system::{coverage_target, SetId, SetSystem};
use crate::solution::{Solution, SolveError};
use crate::telemetry::{
    audit, pack_k_target, Event, EventLog, Observer, PhaseSpan, TraceId, PHASE_GUESS, PHASE_INIT,
    PHASE_SELECT, PHASE_TOTAL,
};
use std::collections::BinaryHeap;
use std::iter::successors;
use std::ops::Range;
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

    /// The guess that selected `counts[l]` sets from each level `l` and
    /// `partial` in all ran out of ticks or time for `reason`.
    pub fn expired<S, P>(
        &self,
        counts: &[usize],
        partial: P,
        reason: DegradeReason,
    ) -> GuessEnd<S, P> {
        GuessEnd::Expired {
            partial,
            quotas_exhausted: (0..self.len())
                .filter(|&l| counts[l] == self.quota(l))
                .collect(),
            reason,
        }
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
/// `params.schedule`) under `deadline` (DESIGN.md §12).
///
/// The run reports its work through any [`Observer`]: one `guess_started`
/// per budget guess (with the guessed `B`), `level_entered` for every level
/// of that guess's schedule, `benefit_computed` counting the sets whose
/// marginal benefit is computed per guess (all of them, Fig. 1 lines
/// 04–05 — the Figure 6 metric), `set_selected` per pick, and a `"total"`
/// phase span. Passing a [`MetricsRecorder`](crate::telemetry::MetricsRecorder)
/// aggregates them into counters (`benefits_computed`, `guesses`,
/// `selections`, …). Each guess
/// records into a private [`EventLog`] (one log for the whole solve,
/// cleared per attempt) replayed into `obs` when the guess ends, so
/// events arrive once per guess, not live.
///
/// Returns [`SolveError::BudgetExhausted`] (as [`EngineError::Solve`]) when
/// even `B` larger than the total weight of all sets cannot reach the
/// target — impossible when a universe set exists. Fig. 1's literal
/// `until B > total` check stops *before* running a guess that exceeds the
/// total; we run that final guess too, otherwise feasible instances whose
/// optimum needs nearly the whole collection would be rejected (see
/// DESIGN.md §3).
///
/// The solve runs on the calling thread, one budget guess at a time, as
/// in Fig. 1: a larger guess runs only after the smaller one failed. Every
/// guess starts a fresh [`CoverState`] (marginal benefits, activity flags,
/// covered bits) over one element→sets incidence — a flat CSR — built once
/// per solve and shared by all guesses. The solve also ranks the sets by
/// `(cost, id)` once; each level of a guess is then a contiguous rank
/// range, found by binary search. Line 17 pops its level's max-heap of
/// marginal benefits lazily: a popped entry whose benefit has since
/// fallen goes back with the current one, so a pick reads a few entries
/// instead of the whole level, and picks exactly the set (and runners-up)
/// a full scan would.
///
/// One work tick is consumed per selection attempt. On expiry the run
/// returns [`SolveOutcome::Degraded`] carrying the partial selection of
/// the budget guess that was in flight, plus a
/// [`Certificate`](crate::engine::Certificate) (sets used, coverage vs.
/// the `(1−1/e)·ŝ·n` target, cost, exhausted level quotas, ticks) that
/// [`verify_certificate`](crate::solution::verify_certificate)
/// independently re-checks.
///
/// Panic isolation: each budget guess runs under `catch_unwind`; a
/// panicked guess is retried once (counted by the `guesses_retried`
/// telemetry event; the panicked attempt's half-recorded log is
/// discarded) and a second panic surfaces as [`EngineError::Panicked`]
/// instead of unwinding.
///
/// ```
/// use scwsc_core::algorithms::{cmc, CmcParams};
/// use scwsc_core::{Deadline, NoopObserver, SetSystem};
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
/// let outcome = cmc(&system, &params, &Deadline::unbounded(), &mut NoopObserver)
///     .unwrap()
///     .expect_complete("an unbounded deadline never expires");
/// assert!(outcome.solution.size() <= 10);
/// assert!(outcome.solution.covered() >= 7); // ⌈(1−1/e)·10⌉
/// ```
pub fn cmc<O: Observer + ?Sized>(
    system: &SetSystem,
    params: &CmcParams,
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
    let result = guess_loop(system, params, target, deadline, obs);
    span.exit(obs);
    result
}

/// The set ids in ascending `(cost, id)` order, the canonical tie-break
/// order among sets of equal marginal benefit: a set's *rank* is its
/// position here.
fn rank_by_cost(system: &SetSystem) -> Vec<SetId> {
    let mut keyed: Vec<(Cost, SetId)> = system.iter().map(|(id, s)| (s.cost(), id)).collect();
    keyed.sort_unstable();
    keyed.into_iter().map(|(_, id)| id).collect()
}

/// Line 01: B = cost of the k cheapest sets, the first `k` of `ranked`.
/// Guard degenerate zero budgets (all-k-cheapest free) so the geometric
/// growth can start.
fn initial_budget(system: &SetSystem, ranked: &[SetId], k: usize) -> f64 {
    let costs = ranked.iter().map(|&id| system.cost(id));
    let b0 = costs.clone().take(k).sum::<Cost>().value();
    if b0 > 0.0 {
        return b0;
    }
    // The cheapest positive cost, or 1 when every set is free (a single
    // pass suffices).
    costs.map(Cost::value).find(|&c| c > 0.0).unwrap_or(1.0)
}

/// The rank range of `level`'s sets. `level_of` falls as cost grows (the
/// most expensive level is level 0, and costs above the budget are in
/// none), so each level is a contiguous run of `ranked`, bounded by two
/// binary searches that ask `level_of` itself, with its exact float
/// comparisons.
fn level_range(
    levels: &Levels,
    level: usize,
    ranked: &[SetId],
    system: &SetSystem,
) -> Range<usize> {
    let level_of = |id: SetId| levels.level_of(system.cost(id).value());
    let start = ranked.partition_point(|&id| level_of(id).is_some_and(|l| l > level));
    let end = ranked.partition_point(|&id| level_of(id).is_some_and(|l| l >= level));
    start..end
}

/// Line 17's candidates within one level: a max-heap of
/// `(mben << 32) | !rank` keys, so the largest key is the canonical
/// benefit order's best (benefit desc, cost asc, id asc). Marginal
/// benefits only fall, so a stored benefit bounds the set's current one
/// from above: a popped key whose benefit is stale goes back with the
/// current value, and a fresh one outranks every set still in the heap.
/// One key buffer serves every level of every guess.
#[derive(Default)]
struct LevelHeap(BinaryHeap<u64>);

impl LevelHeap {
    fn key(mben: usize, rank: usize) -> u64 {
        ((mben as u64) << 32) | u64::from(!(rank as u32))
    }

    /// Refills the heap with the sets of `ranks` that are still
    /// candidates under `state`.
    fn fill(&mut self, state: &CoverState<'_>, ranked: &[SetId], ranks: Range<usize>) {
        let mut keys = std::mem::take(&mut self.0).into_vec();
        keys.clear();
        keys.extend(ranks.filter_map(|rank| {
            let id = ranked[rank];
            let mben = state.marginal_benefit(id);
            (state.is_active(id) && mben > 0).then(|| Self::key(mben, rank))
        }));
        self.0 = BinaryHeap::from(keys);
    }

    /// The best [`audit::TOP`] candidates in canonical benefit order,
    /// exactly what a scan of the level would rank. Only the winner
    /// leaves the heap: it is selected next, while the runners-up go
    /// back.
    fn top(&mut self, state: &CoverState<'_>, ranked: &[SetId]) -> Vec<Candidate> {
        let mut top = Vec::with_capacity(audit::TOP);
        let mut keys = [0u64; audit::TOP];
        while top.len() < audit::TOP {
            let Some(key) = self.0.pop() else { break };
            let rank = !(key as u32) as usize;
            let id = ranked[rank];
            // Selected, or its benefit fell to zero: gone for good.
            if !state.is_active(id) {
                continue;
            }
            let mben = state.marginal_benefit(id);
            debug_assert!(mben as u64 <= key >> 32, "marginal benefits only fall");
            if mben as u64 != key >> 32 {
                self.0.push(Self::key(mben, rank));
                continue;
            }
            keys[top.len()] = key;
            top.push(state.candidate(id));
        }
        self.0.extend(keys.iter().take(top.len()).skip(1));
        top
    }
}

/// How a budget guess that ends the solve ended.
pub enum GuessEnd<S, P> {
    /// The guess met the coverage target.
    Found(S),
    /// The deadline expired mid-guess; the partial selection becomes the
    /// degraded outcome.
    Expired {
        /// What the guess had selected.
        partial: P,
        /// Levels whose quota was fully consumed (ascending): the
        /// `quotas_exhausted` claim of the certificate.
        quotas_exhausted: Vec<usize>,
        /// Why the deadline expired.
        reason: DegradeReason,
    },
}

/// The budget loop both CMCs share (Fig. 1 lines 01–28, Fig. 4 lines
/// 01–07 and 36–37): one `guess` per budget of `budgets`, in order, until
/// one ends the solve, returned with its budget; [`SolveError::BudgetExhausted`]
/// once `budgets` runs out. Each caller ends `budgets` by its own
/// stopping rule.
///
/// Each guess records into one [`EventLog`], cleared per attempt and
/// replayed into `obs` when the guess ends, under a `guess` phase span
/// and `catch_unwind`. A panicked guess is retried once, after
/// `panicked` (the `guesses_retried` event; the panicked attempt's log is
/// discarded), and a second panic surfaces as [`EngineError::Panicked`].
/// `state` is what `guess` and `panicked` both change.
pub fn guess_budgets<W, E, O: Observer + ?Sized>(
    state: &mut W,
    budgets: impl IntoIterator<Item = f64>,
    deadline: &Deadline,
    obs: &mut O,
    mut guess: impl FnMut(&mut W, f64, &mut EventLog) -> Option<E>,
    mut panicked: impl FnMut(&mut W),
) -> Result<(E, f64), EngineError> {
    // One log for every guess and retry, so its capacity is allocated
    // once per solve rather than once per guess.
    let mut log = EventLog::new();
    for (budget, guess_index) in budgets.into_iter().zip(1u64..) {
        let mut attempt = |state: &mut W, log: &mut EventLog| {
            log.clear();
            catch_unwind(AssertUnwindSafe(|| {
                log.on(&Event::GuessStarted(Some(budget)));
                // Spans stay at guess granularity: a guess's unit of work
                // is too hot to bracket with clock reads.
                let guess_span = PhaseSpan::enter(log, PHASE_GUESS);
                deadline.fault_guess(guess_index);
                let end = guess(state, budget, log);
                guess_span.exit(log);
                end
            }))
        };
        let end = match attempt(state, &mut log) {
            Ok(end) => end,
            Err(_) => {
                panicked(state);
                obs.on(&Event::GuessRetried);
                attempt(state, &mut log)
                    .map_err(|payload| EngineError::Panicked(panic_message(payload.as_ref())))?
            }
        };
        log.replay(obs);
        if let Some(end) = end {
            return Ok((end, budget));
        }
    }
    Err(SolveError::BudgetExhausted.into())
}

/// What every budget guess of one solve reuses.
struct PerSolve {
    /// The element→sets incidence each guess's [`CoverState`] borrows.
    incidence: Incidence,
    /// [`rank_by_cost`]'s order.
    ranked: Vec<SetId>,
    heap: LevelHeap,
}

/// One iteration of the outer repeat loop (Fig. 1 lines 03–27) for a fixed
/// budget `B` over what the solve shares: a work tick per selection
/// attempt and per-level quota accounting for the certificate. `None`
/// when the guess fell short of the target.
fn run_guess(
    system: &SetSystem,
    params: &CmcParams,
    budget: f64,
    target: usize,
    solve: &mut PerSolve,
    deadline: &Deadline,
    log: &mut EventLog,
) -> Option<GuessEnd<Solution, Vec<SetId>>> {
    let PerSolve {
        incidence,
        ranked,
        heap,
    } = solve;
    // Lines 04-05: fresh marginal benefits for every set.
    let init_span = PhaseSpan::enter(log, PHASE_INIT);
    let mut state = CoverState::over(system, incidence);
    log.on(&Event::BenefitComputed(system.num_sets() as u64));
    init_span.exit(log);

    let levels = Levels::build(params.schedule, budget, params.k);
    // Announce the whole schedule up front (even levels an early return
    // skips) so observers see each guess's complete level partition.
    for level in 0..levels.len() {
        log.on(&Event::LevelEntered(level, levels.quota(level)));
    }

    let mut counts = vec![0usize; levels.len()];
    let mut chosen: Vec<SetId> = Vec::new();
    let mut rem = target; // line 06

    let select_span = PhaseSpan::enter(log, PHASE_SELECT);
    for level in 0..levels.len() {
        heap.fill(&state, ranked, level_range(&levels, level, ranked, system));
        for _ in 0..levels.quota(level) {
            if let Err(reason) = deadline.checkpoint() {
                select_span.exit(log);
                return Some(levels.expired(&counts, chosen, reason));
            }
            // Line 17: argmax of marginal benefit within the level.
            let top = heap.top(&state, ranked);
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
                return Some(GuessEnd::Found(Solution::from_sets(system, chosen)));
            }
        }
    }
    select_span.exit(log);
    None
}

/// The Fig. 1 outer repeat loop: one budget guess at a time, each on its
/// own [`CoverState`] over one element→sets incidence and one
/// `(cost, id)` ranking built here.
fn guess_loop<O: Observer + ?Sized>(
    system: &SetSystem,
    params: &CmcParams,
    target: usize,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<CmcOutcome>, EngineError> {
    let total_cost = system.total_cost().value();
    let mut solve = PerSolve {
        incidence: Incidence::build(system),
        ranked: rank_by_cost(system),
        heap: LevelHeap::default(),
    };
    // The final guess runs *after* the budget exceeds the total cost
    // (DESIGN.md §3); only its failure exhausts the loop.
    let first = initial_budget(system, &solve.ranked, params.k);
    let budgets = successors(Some(first), |&budget| {
        (budget <= total_cost).then_some(budget * (1.0 + params.budget_growth)) // line 28
    });
    let guess = |solve: &mut PerSolve, budget, log: &mut EventLog| {
        run_guess(system, params, budget, target, solve, deadline, log)
    };
    let (end, final_budget) = guess_budgets(&mut solve, budgets, deadline, obs, guess, |_| {})?;
    Ok(match end {
        GuessEnd::Found(solution) => SolveOutcome::Complete(CmcOutcome {
            solution,
            final_budget,
        }),
        GuessEnd::Expired {
            partial,
            quotas_exhausted,
            reason,
        } => {
            let d = degrade(
                system,
                partial,
                quotas_exhausted,
                reason,
                target,
                deadline,
                obs,
            );
            SolveOutcome::Degraded(Degraded {
                partial: CmcOutcome {
                    solution: d.partial,
                    final_budget,
                },
                certificate: d.certificate,
            })
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solution::{verify, Requirements};
    use crate::telemetry::{MetricsRecorder, NoopObserver};

    /// [`cmc`] without a deadline, unwrapped to the complete outcome or
    /// the solve error.
    fn solve(
        system: &SetSystem,
        params: &CmcParams,
        obs: &mut dyn Observer,
    ) -> Result<CmcOutcome, SolveError> {
        match cmc(system, params, &Deadline::unbounded(), obs) {
            Ok(outcome) => Ok(outcome.expect_complete("unbounded deadline")),
            Err(EngineError::Solve(e)) => Err(e),
            Err(e) => panic!("{e}"),
        }
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

    /// The binary-searched rank ranges are the per-set `level_of`
    /// partition, under every schedule, for budgets `unit·2^j` with costs
    /// built by the level bounds' own operations (`unit·2^m`, divided by
    /// 1, `3^i` or `k`, as in `tests/prop_reference.rs`'s boundary
    /// systems), zero costs, and costs above every budget.
    #[test]
    fn level_ranges_equal_the_per_set_partition() {
        for unit in [0.5, 1.0, 3.0] {
            for k in 1..=6usize {
                let mut b = SetSystem::builder(1);
                b.add_set([0], 0.0).add_set([0], 0.0);
                for m in 0..9 {
                    let power = unit * 2f64.powi(m);
                    for cost in [power, power / 3.0, power / 9.0, power / k as f64] {
                        b.add_set([0], cost).add_set([0], cost);
                    }
                }
                b.add_set([0], unit * 1e3);
                let system = b.build().unwrap();
                let ranked = rank_by_cost(&system);
                for schedule in [
                    LevelSchedule::Classic,
                    LevelSchedule::Epsilon(0.5),
                    LevelSchedule::Epsilon(2.0),
                    LevelSchedule::Generalized(2),
                ] {
                    for j in 0..9 {
                        let levels = Levels::build(schedule, unit * 2f64.powi(j), k);
                        let mut want = vec![Vec::new(); levels.len()];
                        for (rank, &id) in ranked.iter().enumerate() {
                            if let Some(level) = levels.level_of(system.cost(id).value()) {
                                want[level].push(rank);
                            }
                        }
                        for (level, ranks) in want.iter().enumerate() {
                            let got: Vec<usize> =
                                level_range(&levels, level, &ranked, &system).collect();
                            assert_eq!(&got, ranks, "{schedule:?} unit {unit} k {k} j {j}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn cmc_meets_discounted_coverage_and_size_bound() {
        let sys = system();
        let mut metrics = MetricsRecorder::new();
        let params = CmcParams::classic(2, 0.75, 1.0);
        let out = solve(&sys, &params, &mut metrics).unwrap();
        let discounted = coverage_target(12, 0.75 * CMC_COVERAGE_DISCOUNT);
        let req = Requirements {
            max_sets: 5 * 2,
            min_covered: discounted,
        };
        let v = verify(&sys, &out.solution, req);
        assert!(v.is_valid(), "{v:?}");
        assert!(metrics.guesses >= 1);
        assert_eq!(
            metrics.benefits_computed,
            metrics.guesses * sys.num_sets() as u64
        );
    }

    #[test]
    fn cmc_budget_grows_until_feasible() {
        let sys = system();
        // High coverage forces budgets big enough for the large sets.
        let params = CmcParams::classic(2, 1.0, 1.0);
        let mut metrics = MetricsRecorder::new();
        let out = solve(&sys, &params, &mut metrics).unwrap();
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
            solve(&sys, &CmcParams::classic(0, 0.5, 1.0), &mut NoopObserver),
            Err(SolveError::ZeroSizeBound)
        );
        let out = solve(&sys, &CmcParams::classic(2, 0.0, 1.0), &mut NoopObserver).unwrap();
        assert_eq!(out.solution.size(), 0);
    }

    #[test]
    fn cmc_budget_exhausted_without_universe() {
        let mut b = SetSystem::builder(4);
        b.add_set([0], 1.0).add_set([1], 1.0);
        let sys = b.build().unwrap();
        // k=1, need (1-1/e)*1.0*4 = ceil(2.52) = 3 covered: impossible.
        assert_eq!(
            solve(&sys, &CmcParams::classic(1, 1.0, 1.0), &mut NoopObserver),
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
        let out = solve(&sys, &params, &mut NoopObserver).unwrap();
        assert_eq!(out.solution.sets(), &[1]);
    }

    #[test]
    fn cmc_zero_cost_sets_are_usable() {
        let mut b = SetSystem::builder(6);
        b.add_set([0, 1, 2], 0.0)
            .add_set([3, 4, 5], 0.0)
            .add_universe_set(5.0);
        let sys = b.build().unwrap();
        let out = solve(&sys, &CmcParams::classic(2, 1.0, 1.0), &mut NoopObserver).unwrap();
        assert!(out.solution.covered() >= coverage_target(6, CMC_COVERAGE_DISCOUNT));
    }

    #[test]
    fn cmc_epsilon_respects_size_bound() {
        let sys = system();
        for &eps in &[0.5, 1.0, 2.0] {
            let params = CmcParams::epsilon(2, 0.9, 1.0, eps);
            let out = solve(&sys, &params, &mut NoopObserver).unwrap();
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
        let out = solve(&sys, &p, &mut NoopObserver).unwrap();
        assert!(out.solution.covered() >= coverage_target(12, 0.9));
    }

    #[test]
    #[should_panic(expected = "budget growth")]
    fn cmc_rejects_nonpositive_b() {
        let sys = system();
        let _ = solve(&sys, &CmcParams::classic(2, 0.5, 0.0), &mut NoopObserver);
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
            let deadline = Deadline::unbounded().with_tick_budget(3);
            let out = cmc(&sys, &params, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("3 ticks cannot cover 16 singleton elements");
            };
            assert_eq!(d.certificate.reason, DegradeReason::TickBudget);
            assert!(d.certificate.ticks >= 3);
            let check = verify_certificate(&sys, &d.partial.solution, &d.certificate);
            assert!(check.is_valid(), "{check:?}");
        }

        #[test]
        fn zero_wall_clock_degrades_immediately() {
            let sys = chain_system(8);
            let params = CmcParams::classic(4, 1.0, 1.0);
            let deadline = Deadline::unbounded().with_wall_clock(Duration::ZERO);
            let out = cmc(&sys, &params, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("zero wall clock must degrade");
            };
            assert_eq!(d.certificate.reason, DegradeReason::WallClock);
            assert!(verify_certificate(&sys, &d.partial.solution, &d.certificate).is_valid());
        }

        #[test]
        fn external_cancellation_degrades_with_reason() {
            let sys = chain_system(8);
            let params = CmcParams::classic(4, 1.0, 1.0);
            let deadline = Deadline::unbounded();
            deadline.cancel();
            let out = cmc(&sys, &params, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("cancelled deadline must degrade");
            };
            assert_eq!(d.certificate.reason, DegradeReason::Cancelled);
        }

        #[test]
        fn zero_k_is_a_solve_error() {
            let sys = chain_system(4);
            let params = CmcParams::classic(0, 1.0, 1.0);
            let err = cmc(
                &sys,
                &params,
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
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(1));
            let mut m = MetricsRecorder::new();
            let out = cmc(&sys, &params, &deadline, &mut m).unwrap();
            match out {
                SolveOutcome::Complete(outcome) => assert_eq!(outcome, clean),
                SolveOutcome::Degraded(_) => panic!("fault retry must complete"),
            }
            assert_eq!(m.guesses_retried, 1);
        }

        #[test]
        fn persistent_guess_fault_is_a_structured_error() {
            let sys = system();
            let params = CmcParams::classic(5, 1.0, 1.0);
            let deadline = Deadline::unbounded().with_fault_plan(FaultPlan::new().fail_guess(1));
            let mut m = MetricsRecorder::new();
            let err = cmc(&sys, &params, &deadline, &mut m).unwrap_err();
            assert!(matches!(err, EngineError::Panicked(_)));
            assert_eq!(m.guesses_retried, 1);
        }

        #[test]
        fn retried_guess_replays_serial_identical_telemetry() {
            let sys = system();
            let params = CmcParams::classic(5, 1.0, 1.0);
            let mut clean = MetricsRecorder::new();
            solve(&sys, &params, &mut clean).unwrap();
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(1));
            let mut faulted = MetricsRecorder::new();
            cmc(&sys, &params, &deadline, &mut faulted)
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
