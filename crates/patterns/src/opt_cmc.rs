//! Optimized Cheap Max Coverage for patterned sets — Figure 4.
//!
//! The general CMC (Fig. 1) scans every set per budget guess. The
//! optimized version walks the lattice top-down instead: the candidate set
//! `C` starts with the all-wildcards pattern; the globally largest
//! marginal-benefit candidate is popped, and is either *selected* (if its
//! cost level under the current budget `B` still has quota, lines 21–29)
//! or *visited* (line 31) — and only visited patterns have their children
//! expanded, each child entering `C` once all of its parents have been
//! visited (lines 32–35). Children of selected patterns never need
//! expansion: their benefit sets are already fully covered.
//!
//! Unlike optimized CWSC, this is *not* step-identical to Fig. 1 — the
//! paper's Fig. 4 picks the global benefit argmax across levels rather
//! than exhausting levels in order (see DESIGN.md §3) — but it carries the
//! same Theorem 4/5 guarantees, which is what the tests check.
//!
//! Implementation note: Fig. 4 recomputes `Cost(m)` and `Ben(m)` afresh on
//! every budget guess. Benefit sets and costs do not depend on the budget,
//! so this implementation materializes each pattern once and reuses it
//! across guesses — the walk, selections, and the per-guess "patterns
//! considered" count (Fig. 6's metric) are exactly those of the
//! pseudocode, only the redundant recomputation is gone.
//!
//! The lattice is split in two. Pattern keys, row lists, child lists and
//! parent counts depend on neither the algorithm, the budget nor the
//! cost function: the `SharedLattice` of `crate::lattice` holds them,
//! the same one optimized CWSC walks, and a
//! [`PatternInstance`](crate::PatternInstance) keeps it between solves
//! of either algorithm, so later queries on the instance never repeat an
//! expansion. Node ids, costs and row masks belong to one solve, in the
//! lattice's per-solve view. This walk assigns an id to every child at
//! its parent's first expansion, so ids follow the solve's own
//! first-encounter order, and the heap's `(mben, cost, id)` tie-break —
//! and with it every selection, degraded partial, tick count and audit
//! event — is the same on a shared lattice as on a fresh one. Only
//! `posting_scanned` shows the difference: it counts the expansions this
//! solve actually performed. Beside the view the solve keeps a state
//! byte and a pending-parent count per id, and the recorded prefix
//! below.
//!
//! The budget loop, its per-guess event log and its panic retry are
//! flat CMC's ([`guess_budgets`]); only the stopping rule and the panic
//! hook are this file's.
//!
//! Every guess restarts from the all-wildcards pattern, and until its
//! first selection nothing is covered, so each pop's marginal benefit is
//! its row count: every guess pops the same patterns in the same order up
//! to the first one its own levels would select. The solve records that
//! budget-independent prefix once, as the ids the first guess visited
//! before it selected. A later guess replays the recorded ids up to its
//! first selectable one without the queue, doing at each the walk's
//! tick, visit and counts, then pushes the candidate frontier and walks
//! on. A guess that replays the whole recording extends it. The replay
//! and the walk share one visit body (Fig. 4 lines 31–35), so answers,
//! ticks, events and degraded partials are those of the plain walk.

use crate::lattice::{extend_lean, kernel_min_rows, LatticeStash, Tally, View};
use crate::pattern_solution::{degrade, PatternSolution};
use crate::space::LatticeSpace;
use crate::table::RowId;
use scwsc_core::algorithms::cmc::{guess_budgets, CmcParams, GuessEnd, Levels};
use scwsc_core::engine::{Deadline, EngineError, SolveOutcome};
use scwsc_core::telemetry::{
    audit, pack_k_target, Event, EventLog, Observer, PhaseSpan, PruneReason, TraceId, PHASE_TOTAL,
};
use scwsc_core::{coverage_target, BitSet, SolveError};
use std::borrow::Cow;
use std::collections::BinaryHeap;
use std::iter::successors;

/// Maximum heap-entry staleness (in selections) served by the epoch-delta
/// refresh; older entries fall back to a full blocked recount. Each delta
/// round costs one `O(n/64)` intersection, so past a few rounds the full
/// difference count is cheaper.
const DELTA_MAX_ROUNDS: usize = 4;

/// Runs the optimized CMC (Fig. 4) over any [`LatticeSpace`] — the flat
/// pattern cube or the hierarchy-enriched lattice of
/// [`crate::hierarchy::HierarchicalSpace`] — under `deadline`
/// (DESIGN.md §12).
///
/// Parameters mirror [`scwsc_core::algorithms::cmc()`]: the schedule bounds
/// the solution size (`5k` classic, `(1+ε)k` for the ε-schedule) and the
/// coverage target is `(1−1/e)·ŝ·n` unless `params.discount_coverage` is
/// unset.
///
/// Each pattern examination (Fig. 4 lines 12 and 35), the Figure 6 metric,
/// is counted in one `benefit_computed` total per guess, the root
/// included. The other per-pop and per-child work arrives as per-guess
/// totals too (`posting_scanned`, `subtree_pruned` and
/// `candidate_pruned` with reason `exhausted`, `heap_stale_pop`), except
/// that the stale pops since the last selection are also reported before
/// each selection; budget guesses arrive as `guess_started` events.
/// Passing a [`MetricsRecorder`](scwsc_core::MetricsRecorder) aggregates
/// them into counters. Each guess records
/// into a private [`EventLog`] (one log for the whole solve, cleared per
/// attempt) replayed into `obs` when the guess ends, so events arrive
/// once per guess, not live.
///
/// The solve runs on the calling thread: the heap pop order *is* the
/// algorithm and every step mutates the shared lattice cache. Guesses run
/// one at a time, each
/// reusing the previous guess's lattice materializations and replaying
/// the budget-independent prefix of its walk (module doc).
///
/// One work tick is consumed per heap pop. On expiry the patterns
/// selected so far in the in-flight budget guess return as
/// [`SolveOutcome::Degraded`] with a [`Certificate`](scwsc_core::Certificate) (including which
/// level quotas were exhausted) that
/// [`verify_certificate_in`](crate::pattern_solution::verify_certificate_in)
/// re-checks. Benefit recounts do not tick.
///
/// Panic isolation: each budget guess runs under `catch_unwind`; a
/// panicked guess is retried once (counted by the `guesses_retried`
/// telemetry event — safe because the lattice is append-only and
/// budget-independent) and a second panic surfaces as
/// [`EngineError::Panicked`]. A lattice that saw a panic is never handed
/// to a later solve: the panic may have cut an expansion short. The
/// recorded prefix is dropped too, and the retry records it afresh.
pub fn opt_cmc<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    params: &CmcParams,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    opt_cmc_stashed(space, params, deadline, obs, None, true)
}

/// [`opt_cmc`] on the lattice parked in `stash`, which must have been
/// grown over `space`'s table and lattice shape (any cost function, by
/// either optimized algorithm): a
/// [`PatternInstance`](crate::PatternInstance) passes its own, so
/// repeated solves on one instance materialize each node once
/// (DESIGN.md §17). Without a stash the solve builds a fresh lattice.
///
/// `prune` turns on the pruned refresh of DESIGN.md §15. Every shipped
/// entry point passes `true`; `false` keeps the literal Fig. 4 recount
/// as the reference the pruned ≡ unpruned property compares against.
pub(crate) fn opt_cmc_stashed<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    params: &CmcParams,
    deadline: &Deadline,
    obs: &mut O,
    stash: Option<&LatticeStash>,
    prune: bool,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    if params.k == 0 {
        return Err(SolveError::ZeroSizeBound.into());
    }
    assert!(
        params.budget_growth > 0.0,
        "budget growth factor b must be positive"
    );
    let n = space.num_rows();
    let fraction = if params.discount_coverage {
        params.coverage_fraction * scwsc_core::algorithms::CMC_COVERAGE_DISCOUNT
    } else {
        params.coverage_fraction
    };
    let target = coverage_target(n, fraction);
    if target == 0 {
        return Ok(SolveOutcome::Complete(PatternSolution::default()));
    }
    obs.on(&Event::TraceStarted(
        TraceId::mint("opt_cmc", n as u64, pack_k_target(params.k, target)),
        "opt_cmc",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    // Line 01: "B = cost of the k cheapest patterns". Knowing the true k
    // cheapest patterns would itself require enumeration, so we seed with
    // the sum of the k smallest single-record weights — a lower bound for
    // monotone cost functions, costing at most O(log_{1+b}) extra guesses
    // (DESIGN.md §3).
    let mut measures: Vec<f64> = space.table().measures().to_vec();
    measures.sort_unstable_by(f64::total_cmp);
    let seed: f64 = measures.iter().take(params.k).sum();
    let budget = if seed > 0.0 {
        seed
    } else {
        measures.iter().copied().find(|&m| m > 0.0).unwrap_or(1.0)
    };
    let view = View::new(space, stash);
    // Line 37: stop once even a budget admitting every pattern failed.
    // The all-wildcards pattern is the most expensive one under any
    // lattice-monotone cost function, and a budget above the total
    // weight is a universal upper bound otherwise.
    let (root_cost, total_weight) = (view.cost(0), measures.iter().sum::<f64>());
    // Every pattern costs at least its cheapest row alone (measures are
    // non-negative), so a budget below that admits no pattern, and its
    // guess would walk the lattice only to select nothing. The measure
    // seed falls below it under `Count`, where every pattern costs at
    // least 1; later budgets are those of the unskipped sequence.
    let cheapest_row = (0..n as RowId)
        .map(|r| space.cost(&[r]))
        .fold(f64::INFINITY, f64::min);
    let budgets = successors(Some(budget), |&budget| {
        (budget <= root_cost || budget <= total_weight)
            .then_some(budget * (1.0 + params.budget_growth)) // line 36
    })
    .skip_while(|&budget| budget < cheapest_row);
    // Sized, like the view, for the whole parked lattice up front.
    let nodes = view.nodes();
    let mut guesses = Guesses {
        view,
        state: Vec::with_capacity(nodes),
        pending: Vec::with_capacity(nodes),
        prefix: Vec::new(),
        queue: BucketQueue::new(),
        params,
        target,
        deadline,
        prune,
    };
    let result = guess_budgets(
        &mut guesses,
        budgets,
        deadline,
        obs,
        Guesses::guess,
        // A panicked guess may have cut an expansion short, so the
        // lattice is not parked afterwards; the retry is safe because the
        // lattice is append-only and budget-independent. The recorded
        // prefix goes too: the panic may have struck between recording
        // an id and finishing its visit.
        |guesses| {
            guesses.view.tainted = true;
            guesses.prefix.clear();
        },
    )
    .map(|(end, _)| match end {
        GuessEnd::Found(solution) => SolveOutcome::Complete(solution),
        GuessEnd::Expired {
            partial,
            quotas_exhausted,
            reason,
        } => degrade(partial, quotas_exhausted, reason, target, deadline, obs),
    });
    guesses.view.park(stash);
    span.exit(obs);
    result
}

/// One solve's budget guesses (Fig. 4 lines 08–35, one per budget): its
/// [`View`] of the lattice and the per-id state the guesses share.
///
/// The walk has the view number every child at its parent's first
/// expansion in this solve, children in (attribute, value) order,
/// exactly as a fresh materialization would. The heap breaks ties on
/// these ids, so a solve on a lattice an earlier solve grew walks,
/// selects and reports exactly as one on a fresh lattice.
struct Guesses<'a, S: LatticeSpace> {
    view: View<'a, S, BitSet>,
    /// Per-id [`IN_C`] and [`LEFT_C`] bits of the guess in flight, and
    /// the solve-wide [`EXPANDED`] bit.
    state: Vec<u8>,
    /// pending[id] = parents of id not yet visited this guess; line 33's
    /// "all parents of m are in V" is exactly pending[id] == 0, reached by
    /// decrementing when each parent is visited (no hashing per check).
    pending: Vec<u8>,
    /// The budget-independent prefix every guess replays: the ids a
    /// guess visited before its first selection, in pop order
    /// ([`Guesses::guess`]). One allocation for the solve, grown by an
    /// eighth at a time: under the count cost it holds every node, under
    /// the others a fraction of them.
    prefix: Vec<u32>,
    /// Reused across guesses, so bucket capacity amortizes.
    queue: BucketQueue,
    params: &'a CmcParams,
    target: usize,
    deadline: &'a Deadline,
    /// Whether recounts take the pruned refresh ([`opt_cmc_stashed`]).
    prune: bool,
}

impl<S: LatticeSpace> Guesses<'_, S> {
    /// Extends the per-id state to every id the view has assigned: a new
    /// id is outside `C`, with all its parents pending.
    fn track_new_ids(&mut self) {
        self.state.resize(self.view.len(), 0);
        let from = self.pending.len();
        self.pending.extend(self.view.num_parents(from));
    }

    /// One budget guess (Fig. 4 lines 08–35). Consumes one `deadline`
    /// work tick per heap pop; under an unbounded deadline (the classic
    /// path) the checkpoint can never fail.
    ///
    /// The guess starts by replaying [`Guesses::prefix`], the ids an
    /// earlier guess of this solve popped, and visited, before its first
    /// selection. Until a guess selects, nothing is covered and every
    /// benefit is a row count, so each guess pops that same sequence
    /// until the first id its own levels would select. The guess replays
    /// the ids before that one without the queue, then pushes the
    /// candidate frontier and walks on. A guess that replays the whole
    /// prefix extends it until it selects.
    fn guess(
        &mut self,
        budget: f64,
        obs: &mut EventLog,
    ) -> Option<GuessEnd<PatternSolution, PatternSolution>> {
        let n = self.view.space.num_rows();
        let levels = Levels::build(self.params.schedule, budget, self.params.k);
        // Report the complete level schedule up front: even if the guess
        // ends early, observers see every (level, quota) pair Fig. 4 line
        // 05 built.
        for level in 0..levels.len() {
            obs.on(&Event::LevelEntered(level, levels.quota(level)));
        }
        let mut counts = vec![0usize; levels.len()]; // lines 15-16
        let mut selected_total = 0usize;
        let max_selections = levels.max_selections();
        let selectable = |counts: &[usize], cost: f64| {
            levels
                .level_of(cost) // line 20
                .filter(|&l| counts[l] < levels.quota(l))
        };

        // Pruned-refresh state: each selection appends the newly covered
        // rows as a mask, so a heap entry computed `epoch - entry.epoch`
        // selections ago refreshes by subtracting exact per-selection
        // intersection counts (the newly sets are disjoint) instead of
        // recounting from scratch.
        let prune = self.prune;
        let mut newly_masks: Vec<BitSet> = Vec::new();
        for s in &mut self.state {
            *s &= EXPANDED;
        }
        self.pending.clear();
        self.track_new_ids();
        let mut walk = Walk {
            covered: BitSet::new(n),
            epoch: 0,
            eligible: Vec::new(),
            tally: Tally::new(PruneReason::Exhausted),
        };

        // Lines 11-13: C = {all-wildcards}.
        self.state[0] |= IN_C;
        walk.tally.benefits += 1;

        let mut solution = PatternSolution::default();
        let mut rem = self.target; // line 14

        // The first prefix id this guess selects: every count is still
        // zero.
        let replayed = self
            .prefix
            .iter()
            .position(|&id| selectable(&counts, self.view.cost(id)).is_some())
            .unwrap_or(self.prefix.len());

        let result = 'walk: {
            // The replay: each pop does what the walk below does while
            // nothing is covered. The pop is fresh (its benefit is its row
            // count, as pushed), its id leaves C and is visited. Line 17's
            // ΣΣ guard cannot fire before the first selection, since every
            // schedule's last level has quota k ≥ 1.
            for i in 0..replayed {
                let id = self.prefix[i];
                if let Err(reason) = self.deadline.checkpoint() {
                    break 'walk Some(levels.expired(&counts, solution, reason));
                }
                debug_assert_eq!(
                    self.state[id as usize] & IN_C,
                    IN_C,
                    "replayed ids are in C"
                );
                self.state[id as usize] &= !IN_C; // line 19
                if prune {
                    walk.tally.scan_pruned += 1;
                }
                walk.visit(self, id, prune, false);
            }
            // Max-queue on (mben, cheaper first, older first), with lazy
            // revalidation: marginal benefits only decrease, so a stale
            // entry is an upper bound and the first fresh pop is the true
            // argmax (line 18). Reset up front so a previous guess that
            // returned early (or panicked under fault injection) cannot
            // leak entries into this one. The candidates are exactly the
            // ids in C: nothing is covered yet, so each benefit is a row
            // count.
            self.queue.reset(self.view.rows_of(0).len());
            for id in 0..self.view.len() as u32 {
                if self.state[id as usize] & IN_C != 0 {
                    self.queue.push(HeapEntry {
                        mben: self.view.rows_of(id).len(),
                        cost_bits: self.view.cost(id).to_bits(),
                        id,
                        epoch: 0,
                    });
                }
            }

            while let Some(entry) = self.queue.pop() {
                if let Err(reason) = self.deadline.checkpoint() {
                    break 'walk Some(levels.expired(&counts, solution, reason));
                }
                // line 17's ΣΣ guard: once every level quota is full no
                // further selection can happen.
                if selected_total >= max_selections {
                    break;
                }
                let id = entry.id as usize;
                if self.state[id] & IN_C == 0 {
                    walk.tally.stale_pops += 1;
                    continue; // stale duplicate of a removed candidate
                }
                let epoch = walk.epoch;
                let covered = &walk.covered;
                let current = if !prune {
                    recount(self.view.rows_of(entry.id), covered)
                } else if entry.epoch == epoch {
                    // Coverage only grows at selections, so an entry pushed
                    // this epoch is provably current — skip the recount
                    // outright.
                    walk.tally.scan_pruned += 1;
                    entry.mben
                } else if self.view.rows_of(entry.id).len() < kernel_min_rows(n) {
                    // Short row list: the postings recount beats every
                    // mask-based path, and no mask is ever materialized.
                    walk.tally.bounds_refreshed += 1;
                    recount(self.view.rows_of(entry.id), covered)
                } else if epoch - entry.epoch <= DELTA_MAX_ROUNDS {
                    // Exact delta: the per-selection newly sets are
                    // disjoint, so the entry's stale count minus its overlap
                    // with each newer selection is the fresh count — no full
                    // recount needed.
                    let stale = entry.mben;
                    let mask = self.view.mask(entry.id);
                    let overlap: usize = newly_masks[entry.epoch..epoch]
                        .iter()
                        .map(|nm| mask.intersection_count(nm))
                        .sum();
                    walk.tally.scan_pruned += 1;
                    stale - overlap
                } else {
                    walk.tally.bounds_refreshed += 1;
                    self.view.mask(entry.id).difference_count(covered)
                };
                debug_assert_eq!(
                    current,
                    recount(self.view.rows_of(entry.id), &walk.covered),
                    "pruned refresh is exact"
                );
                if current == 0 {
                    self.state[id] &= !IN_C; // lines 28-29 analogue
                    walk.tally.candidates_pruned += 1;
                    continue;
                }
                if current != entry.mben {
                    walk.tally.stale_pops += 1;
                    self.queue.push(HeapEntry {
                        mben: current,
                        cost_bits: entry.cost_bits,
                        id: entry.id,
                        epoch,
                    });
                    continue;
                }

                // Line 19: q leaves C.
                self.state[id] &= !IN_C;
                let q_cost = self.view.cost(entry.id);
                if let Some(l) = selectable(&counts, q_cost) {
                    // Audit the pick before mutating: runners-up are the
                    // next heap entries still in C. Their stored scores may
                    // be stale upper bounds (lazy revalidation), i.e.
                    // optimistic — the ledger notes the heap's view, which
                    // is deterministic because the heap order is total and
                    // the pop/re-push cycle below restores the heap exactly.
                    let mut popped: Vec<HeapEntry> = Vec::with_capacity(audit::RUNNERS_UP);
                    while popped.len() < audit::RUNNERS_UP {
                        let Some(e) = self.queue.pop() else { break };
                        popped.push(e);
                    }
                    let runners: Vec<audit::AuditCandidate> = popped
                        .iter()
                        .filter(|e| self.state[e.id as usize] & IN_C != 0)
                        .map(|e| audit::AuditCandidate {
                            id: e.id as u64,
                            benefit: e.mben as u64,
                            weight: self.view.cost(e.id),
                        })
                        .collect();
                    for e in popped {
                        self.queue.push(e);
                    }
                    let winner = audit::AuditCandidate {
                        id: entry.id as u64,
                        benefit: current as u64,
                        weight: q_cost,
                    };
                    walk.tally.flush_stale_pops(obs);
                    obs.on(&Event::RoundDecided(
                        audit::ORDER_BENEFIT,
                        winner,
                        Cow::Borrowed(&runners),
                    ));
                    let newly: Vec<u32> = self
                        .view
                        .rows_of(entry.id)
                        .iter()
                        .copied()
                        .filter(|&r| !walk.covered.contains(r as usize))
                        .collect();
                    debug_assert_eq!(newly.len(), current, "fresh recount priced exactly");
                    obs.on(&Event::PriceCharged(
                        entry.id as u64,
                        Cow::Borrowed(&newly),
                        q_cost,
                    ));

                    // Lines 21-25: select q.
                    counts[l] += 1;
                    selected_total += 1;
                    self.state[id] |= LEFT_C;
                    solution.patterns.push(self.view.pattern(entry.id));
                    solution.total_cost += q_cost;
                    obs.on(&Event::SetSelected(entry.id as u64, current as u64, q_cost));
                    for &r in self.view.rows_of(entry.id) {
                        walk.covered.insert(r as usize);
                    }
                    if prune {
                        let mut nm = BitSet::new(n);
                        for &r in &newly {
                            nm.insert(r as usize);
                        }
                        newly_masks.push(nm);
                        walk.epoch += 1;
                    }
                    solution.covered = walk.covered.count_ones();
                    rem = rem.saturating_sub(current);
                    if rem == 0 {
                        break 'walk Some(GuessEnd::Found(solution));
                    }
                    // Lines 26-29 happen lazily at pop time via the
                    // recount above.
                } else {
                    // Lines 30-35: visit q and expand its children. A visit
                    // before any selection extends the prefix: a guess that
                    // replayed only part of it selects at its first pop.
                    if selected_total == 0 {
                        extend_lean(&mut self.prefix, &[entry.id]);
                    }
                    let q_uncovered = prune && current == self.view.rows_of(entry.id).len();
                    walk.visit(self, entry.id, q_uncovered, true);
                }
            }
            None
        };
        walk.tally.flush(obs);
        result
    }
}

/// Counts rows of `rows` not yet in `covered`.
fn recount(rows: &[RowId], covered: &BitSet) -> usize {
    rows.iter()
        .filter(|&&r| !covered.contains(r as usize))
        .count()
}

/// [`Guesses::state`] bit: the id is in the candidate set `C`.
const IN_C: u8 = 1;
/// [`Guesses::state`] bit: the id left `C` this guess, visited or
/// selected (line 19).
const LEFT_C: u8 = 2;
/// [`Guesses::state`] bit: this solve expanded the id and numbered its
/// children. Unlike the other two it outlives the guess.
const EXPANDED: u8 = 4;

/// One guess's walk state beside the solve-wide [`Guesses`].
struct Walk {
    covered: BitSet,
    /// Selections so far: heap entries carry the epoch their benefit
    /// was computed in.
    epoch: usize,
    /// Line 35's eligible children of the visit in progress, reused
    /// across visits: thousands of patterns are visited per guess, and a
    /// fresh Vec per visit is pure allocator traffic.
    eligible: Vec<u32>,
    /// The guess's work, flushed when it ends. Its postings are those of
    /// the guess's first materializations.
    tally: Tally,
}

impl Walk {
    /// Fig. 4 lines 31–35: visits `q` and moves into `C` each child
    /// whose parents have now all been visited, scoring it against
    /// `covered` — or by its row count when `q_uncovered`, which the
    /// unpruned path never passes so that it keeps the literal recount.
    /// With `push`, each child entering `C` goes into the queue; a replay
    /// pushes the whole frontier once it is done.
    fn visit<S: LatticeSpace>(
        &mut self,
        g: &mut Guesses<'_, S>,
        q: u32,
        q_uncovered: bool,
        push: bool,
    ) {
        // Line 31: V = V ∪ {q}. Only a first materialization in the
        // shared lattice scans postings: q's row list, once per wildcard
        // attribute.
        g.state[q as usize] |= LEFT_C;
        if g.state[q as usize] & EXPANDED == 0 {
            self.tally.postings += g.view.expand(q, true).unwrap_or(0);
            g.track_new_ids();
            // Set only once every child has its id, so an expansion a
            // panic cut short runs again.
            g.state[q as usize] |= EXPANDED;
        }
        self.eligible.clear();
        for &child in g.view.children(q) {
            let child_id = g.view.id_of(child).expect("numbered at expansion");
            let cid = child_id as usize;
            if g.state[cid] & (IN_C | LEFT_C) != 0 {
                continue;
            }
            // Line 33: "all parents of m are in V" — the decrement for
            // this visit of q; zero pending means every parent has been
            // visited.
            g.pending[cid] = g.pending[cid].saturating_sub(1);
            if g.pending[cid] != 0 {
                continue;
            }
            self.eligible.push(child_id);
        }
        // Line 35: compute Cost(m) and MBen(m) for each eligible child,
        // the cost served from the view. One "considered" count per
        // eligible child and guess, matching what Fig. 4 would compute.
        self.tally.benefits += self.eligible.len() as u64;
        for &child_id in &self.eligible {
            let rows = g.view.rows_of(child_id);
            // A fresh count equal to q's row count means none of q's
            // rows is covered, so neither is any of a child's (a subset
            // of them): its benefit is its row count.
            let child_mben = if q_uncovered {
                rows.len()
            } else {
                recount(rows, &self.covered)
            };
            debug_assert_eq!(
                child_mben,
                recount(rows, &self.covered),
                "an uncovered parent's children are uncovered"
            );
            if child_mben == 0 {
                // Never enters C, so its descendants stay gated behind
                // an unvisited parent: the whole subtree is skipped.
                self.tally.subtrees_pruned += 1;
                continue; // would be dropped by lines 28-29 immediately
            }
            g.state[child_id as usize] |= IN_C;
            if push {
                g.queue.push(HeapEntry {
                    mben: child_mben,
                    cost_bits: g.view.cost(child_id).to_bits(),
                    id: child_id,
                    epoch: self.epoch,
                });
            }
        }
    }
}

/// Deterministic bucket priority queue over [`HeapEntry`], keyed by the
/// integer marginal benefit (bounded by `n`). Pop order is (mben desc,
/// cost asc, id asc): the highest non-empty bucket first, and within it
/// the least `Reverse((cost_bits, id, epoch))`. Within one guess a
/// pattern enters the candidate set once and every re-push carries a
/// strictly smaller benefit, so two live entries for one id never share
/// a bucket and the epoch never breaks a tie. Both queue ends are near-O(1): the max cursor
/// only descends (the root starts at bucket `n`, re-pushes and child
/// pushes never exceed the popping bucket), and the per-bucket heaps
/// stay tiny compared to one global heap over every candidate. Reused
/// across guesses so bucket capacity amortizes.
///
/// It is not one std `BinaryHeap` over all entries, although that pops
/// in the same order and gives identical answers: with it, warm CMC solves on
/// 10k-row tables (the `batch-solve` workload's 16 CMC queries) ran
/// 1.1–1.4× slower in 6 of 6 alternating pairs on a 2-CPU host. That is
/// why [`reset`](BucketQueue::reset) still makes one bucket per possible
/// benefit (240 KB on a 10k-row table) before any push.
struct BucketQueue {
    /// buckets[mben] = min-heap of `(cost_bits, id, epoch)`; the epoch
    /// (a selection count, at most the schedule's size bound) is stored
    /// as `u32`, so an entry takes 16 bytes instead of 24.
    buckets: Vec<BinaryHeap<std::cmp::Reverse<(u64, u32, u32)>>>,
    /// Highest possibly non-empty bucket.
    max: usize,
    len: usize,
}

impl BucketQueue {
    fn new() -> BucketQueue {
        BucketQueue {
            buckets: Vec::new(),
            max: 0,
            len: 0,
        }
    }

    /// Empties the queue and guarantees buckets `0..=max_mben` exist.
    fn reset(&mut self, max_mben: usize) {
        for bucket in &mut self.buckets {
            bucket.clear();
        }
        if self.buckets.len() <= max_mben {
            self.buckets.resize_with(max_mben + 1, BinaryHeap::new);
        }
        self.max = 0;
        self.len = 0;
    }

    fn push(&mut self, entry: HeapEntry) {
        self.max = self.max.max(entry.mben);
        self.len += 1;
        let epoch = u32::try_from(entry.epoch).expect("selection count fits u32");
        self.buckets[entry.mben].push(std::cmp::Reverse((entry.cost_bits, entry.id, epoch)));
    }

    fn pop(&mut self) -> Option<HeapEntry> {
        if self.len == 0 {
            return None;
        }
        while self.buckets[self.max].is_empty() {
            self.max -= 1;
        }
        let std::cmp::Reverse((cost_bits, id, epoch)) = self.buckets[self.max]
            .pop()
            .expect("bucket at the max cursor is non-empty");
        self.len -= 1;
        Some(HeapEntry {
            mben: self.max,
            cost_bits,
            id,
            epoch: epoch as usize,
        })
    }
}

/// A queued candidate; [`BucketQueue`] states its order.
///
/// Ids are the solve's own ([`View`]), assigned in first-encounter
/// order, which is itself deterministic (children are expanded in
/// (attribute, value) order), so runs are reproducible whether or not an
/// earlier solve grew the shared lattice.
struct HeapEntry {
    mben: usize,
    /// `f64::to_bits` of a non-negative cost orders like the number.
    cost_bits: u64,
    id: u32,
    /// Selection count when `mben` was computed. It never decides the
    /// order — it only lets the pruned refresh subtract the exact per-selection
    /// coverage deltas instead of recounting from scratch.
    epoch: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_fn::CostFn;
    use crate::enumerate::enumerate_all;
    use crate::space::PatternSpace;
    use crate::test_util::{complete, entities};
    use scwsc_core::algorithms::{cmc, CmcOutcome, CMC_COVERAGE_DISCOUNT};
    use scwsc_core::engine::DegradeReason;
    use scwsc_core::{MetricsRecorder, NoopObserver, SetSystem};

    /// [`opt_cmc`] without a deadline.
    fn solve(
        space: &PatternSpace<'_>,
        params: &CmcParams,
        obs: &mut dyn Observer,
    ) -> Result<PatternSolution, SolveError> {
        complete(opt_cmc(space, params, &Deadline::unbounded(), obs))
    }

    /// Each guess's budget and the cumulative ticks at its end: a
    /// guess's events reach the observer when it ends.
    struct GuessEnds<'a>(&'a Deadline, Vec<(f64, u64)>);

    impl Observer for GuessEnds<'_> {
        fn on(&mut self, event: &Event<'_>) {
            if let Event::GuessStarted(Some(budget)) = event {
                self.1.push((*budget, self.0.ticks()));
            }
        }
    }

    /// Fig. 1 CMC over the materialized cube.
    fn solve_unopt(
        system: &SetSystem,
        params: &CmcParams,
        obs: &mut dyn Observer,
    ) -> Result<CmcOutcome, SolveError> {
        complete(cmc(system, params, &Deadline::unbounded(), obs))
    }

    #[test]
    fn meets_coverage_and_size_bounds() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        for (k, s) in [(2usize, 9.0 / 16.0), (3, 0.5), (2, 1.0), (5, 0.8)] {
            let params = CmcParams::classic(k, s, 1.0);
            let sol = solve(&sp, &params, &mut NoopObserver).unwrap();
            let target = coverage_target(16, s * CMC_COVERAGE_DISCOUNT);
            assert!(
                sol.covered >= target,
                "k={k} s={s}: {} < {target}",
                sol.covered
            );
            assert!(sol.size() <= 5 * k, "k={k}: {} sets", sol.size());
            sol.verify(&sp);
        }
    }

    #[test]
    fn epsilon_variant_bounds_size() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        for &eps in &[0.5, 1.0, 2.0] {
            let params = CmcParams::epsilon(4, 0.9, 1.0, eps);
            let sol = solve(&sp, &params, &mut NoopObserver).unwrap();
            let bound = ((1.0 + eps) * 4.0).floor() as usize;
            assert!(sol.size() <= bound.max(4), "eps={eps}: {}", sol.size());
        }
    }

    /// The Figure 6 effect needs a data set big enough for pruning to
    /// matter; the 16-record example is too small (the walkthrough itself
    /// touches most of Table II's patterns).
    #[test]
    fn considers_fewer_patterns_than_unoptimized_at_scale() {
        let t = crate::test_util::skewed_table(600, 4, 7);
        let sp = PatternSpace::new(&t, CostFn::Max);
        let mut opt_metrics = MetricsRecorder::new();
        let params = CmcParams::classic(10, 0.3, 1.0);
        let sol = solve(&sp, &params, &mut opt_metrics).unwrap();
        sol.verify(&sp);
        let m = enumerate_all(&t, CostFn::Max);
        let mut unopt_metrics = MetricsRecorder::new();
        let _ = solve_unopt(&m.system, &params, &mut unopt_metrics).unwrap();
        assert!(
            opt_metrics.benefits_computed < unopt_metrics.benefits_computed,
            "optimized {} >= unoptimized {}",
            opt_metrics.benefits_computed,
            unopt_metrics.benefits_computed
        );
    }

    #[test]
    fn cost_within_theorem4_factor_of_unoptimized() {
        // Both satisfy Theorem 4, so both costs are within
        // (1+b)(2⌈log k⌉+1) of optimal; sanity-check they're in the same
        // ballpark rather than equal (different traversal orders).
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let params = CmcParams::classic(2, 9.0 / 16.0, 1.0);
        let opt = solve(&sp, &params, &mut NoopObserver).unwrap();
        let m = enumerate_all(&t, CostFn::Max);
        let unopt = solve_unopt(&m.system, &params, &mut NoopObserver).unwrap();
        let bound = 2.0 * (2.0 * (2f64).log2().ceil() + 1.0);
        assert!(opt.total_cost <= bound * unopt.solution.total_cost().value() + 1e-9);
        assert!(unopt.solution.total_cost().value() <= bound * opt.total_cost + 1e-9);
    }

    #[test]
    fn zero_k_rejected_and_zero_target_empty() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        assert_eq!(
            solve(&sp, &CmcParams::classic(0, 0.5, 1.0), &mut NoopObserver),
            Err(SolveError::ZeroSizeBound)
        );
        let sol = solve(&sp, &CmcParams::classic(2, 0.0, 1.0), &mut NoopObserver).unwrap();
        assert_eq!(sol.size(), 0);
    }

    #[test]
    fn budget_guesses_increase_with_tight_instances() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let mut metrics = MetricsRecorder::new();
        let params = CmcParams::classic(2, 1.0, 1.0);
        let _ = solve(&sp, &params, &mut metrics).unwrap();
        assert!(metrics.guesses >= 2, "seed budget is tiny by design");
    }

    #[test]
    fn works_with_mean_cost_function() {
        // Mean is not lattice-monotone; the exhaustion bound still holds
        // because budgets also grow past the total weight.
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Mean);
        let params = CmcParams::classic(3, 0.6, 1.0);
        let sol = solve(&sp, &params, &mut NoopObserver).unwrap();
        assert!(sol.covered >= coverage_target(16, 0.6 * CMC_COVERAGE_DISCOUNT));
        sol.verify(&sp);
    }

    #[test]
    fn deterministic_across_runs() {
        let t = crate::test_util::skewed_table(300, 3, 5);
        let sp = PatternSpace::new(&t, CostFn::Max);
        let params = CmcParams::classic(5, 0.4, 1.0);
        let a = solve(&sp, &params, &mut NoopObserver).unwrap();
        let b = solve(&sp, &params, &mut NoopObserver).unwrap();
        assert_eq!(a, b);
    }

    mod within {
        use super::*;
        use crate::pattern_solution::verify_certificate_in;
        use scwsc_core::MetricsRecorder;

        #[test]
        fn tick_budget_degrades_to_a_verified_prefix() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 1.0, 1.0);
            for budget in [0u64, 3, 10, 25] {
                let deadline = Deadline::unbounded().with_tick_budget(budget);
                let out = opt_cmc(&sp, &params, &deadline, &mut MetricsRecorder::new()).unwrap();
                if let SolveOutcome::Degraded(d) = out {
                    assert_eq!(d.certificate.reason, DegradeReason::TickBudget);
                    let check = verify_certificate_in(&sp, &d.partial, &d.certificate);
                    assert!(check.is_valid(), "budget {budget}: {check:?}");
                }
            }
        }

        /// A table whose measures are all below 1, so the measure seed
        /// is too under `Count`, where every pattern costs at least 1.
        fn light_table() -> crate::table::Table {
            let mut rng = crate::test_util::XorShift::new(7);
            let mut b = crate::table::Table::builder(&["a", "b", "c", "d"], "m");
            for _ in 0..1_000 {
                let vals: Vec<String> = (0..4).map(|_| format!("v{}", rng.below(10))).collect();
                let refs: Vec<&str> = vals.iter().map(String::as_str).collect();
                b.push_row(&refs, rng.below(100) as f64 / 1_000.0)
                    .expect("generated rows are valid");
            }
            b.build()
        }

        /// Under `Count` the measure seed is far below the cheapest
        /// pattern's cost, 1: no guess starts there, so the first one
        /// can select, and a tick budget that expires inside it returns
        /// its selections. A guess below 1 would select nothing and pop
        /// every lattice node.
        #[test]
        fn count_cost_skips_budgets_no_pattern_fits() {
            let t = light_table();
            let sp = PatternSpace::new(&t, CostFn::Count);
            let params = CmcParams::classic(6, 0.6, 1.0);
            let clean = Deadline::unbounded();
            let mut ends = GuessEnds(&clean, Vec::new());
            let full = opt_cmc(&sp, &params, &clean, &mut ends).unwrap();
            full.expect_complete("unbounded deadline");
            let nodes = enumerate_all(&t, CostFn::Count).system.num_sets() as u64;
            assert!(ends.1.iter().all(|&(b, _)| b >= 1.0), "{:?}", ends.1);
            let first_guess = ends.1[0].1;
            assert!(first_guess < nodes, "{first_guess} ticks, {nodes} nodes");
            let deadline = Deadline::unbounded().with_tick_budget(first_guess - 1);
            let out = opt_cmc(&sp, &params, &deadline, &mut NoopObserver).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("{} ticks cannot finish the solve", first_guess - 1);
            };
            assert!(d.partial.size() > 0);
            assert!(verify_certificate_in(&sp, &d.partial, &d.certificate).is_valid());
        }

        #[test]
        fn zero_tick_budget_degrades_empty() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(3, 0.8, 1.0);
            let deadline = Deadline::unbounded().with_tick_budget(0);
            let out = opt_cmc(&sp, &params, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("zero ticks must degrade");
            };
            assert_eq!(d.partial.size(), 0);
            assert!(verify_certificate_in(&sp, &d.partial, &d.certificate).is_valid());
        }
    }

    mod within_faults {
        use super::*;
        use crate::pattern_solution::verify_certificate_in;
        use crate::table::Table;
        use scwsc_core::engine::FaultPlan;
        use scwsc_core::MetricsRecorder;

        #[test]
        fn one_shot_guess_panic_is_retried_to_completion() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 9.0 / 16.0, 1.0);
            let clean = solve(&sp, &params, &mut NoopObserver).unwrap();
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(1));
            let mut m = MetricsRecorder::new();
            let out = opt_cmc(&sp, &params, &deadline, &mut m).unwrap();
            assert_eq!(out.expect_complete("retry completes"), clean);
            assert_eq!(m.guesses_retried, 1);
        }

        #[test]
        fn persistent_guess_fault_is_a_structured_error() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 0.5, 1.0);
            let deadline = Deadline::unbounded().with_fault_plan(FaultPlan::new().fail_guess(1));
            let err = opt_cmc(&sp, &params, &deadline, &mut MetricsRecorder::new()).unwrap_err();
            assert!(matches!(err, EngineError::Panicked(_)));
        }

        /// Under the count cost every pattern costs its row count, so a
        /// guess whose budget is below the table's 16 rows cannot select
        /// the root: guesses 2 and 3 (budgets 6 and 12 from the seed 3)
        /// replay at least the root of the prefix guess 1 recorded.
        fn replaying_solve() -> (Table, CmcParams) {
            (entities(), CmcParams::classic(2, 1.0, 1.0))
        }

        #[test]
        fn panic_in_a_replaying_guess_retries_to_the_clean_answer() {
            let (t, params) = replaying_solve();
            let sp = PatternSpace::new(&t, CostFn::Count);
            let clean = solve(&sp, &params, &mut NoopObserver).unwrap();
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(2));
            let mut m = MetricsRecorder::new();
            let out = opt_cmc(&sp, &params, &deadline, &mut m).unwrap();
            assert_eq!(out.expect_complete("retry completes"), clean);
            assert_eq!(m.guesses_retried, 1);
            assert!(m.guesses >= 3, "{} guesses", m.guesses);
        }

        #[test]
        fn cancel_inside_a_replayed_prefix_degrades_with_a_certificate() {
            let (t, params) = replaying_solve();
            let sp = PatternSpace::new(&t, CostFn::Count);
            let clean = Deadline::unbounded();
            let mut ends = GuessEnds(&clean, Vec::new());
            opt_cmc(&sp, &params, &clean, &mut ends).unwrap();
            assert!(ends.1.len() >= 3, "{:?}", ends.1);
            // The first pop of guesses 2 and 3 is the replayed root.
            for g in [1, 2] {
                assert!(ends.1[g].0 < 16.0, "{:?}", ends.1);
                let first_pop = ends.1[g - 1].1 + 1;
                let deadline = Deadline::unbounded()
                    .with_fault_plan(FaultPlan::new().cancel_at_tick(first_pop));
                let out = opt_cmc(&sp, &params, &deadline, &mut MetricsRecorder::new()).unwrap();
                let SolveOutcome::Degraded(d) = out else {
                    panic!("cancel at tick {first_pop} must degrade");
                };
                assert_eq!(d.certificate.reason, DegradeReason::Cancelled);
                assert_eq!(d.certificate.ticks, first_pop);
                assert_eq!(d.partial.size(), 0);
                assert!(verify_certificate_in(&sp, &d.partial, &d.certificate).is_valid());
            }
        }

        #[test]
        fn panic_at_tick_degrades_cleanly() {
            // cancel_at_tick (not panic) exercises the cancel path end to end.
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 1.0, 1.0);
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().cancel_at_tick(4));
            let out = opt_cmc(&sp, &params, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("cancel at tick 4 must degrade");
            };
            assert!(verify_certificate_in(&sp, &d.partial, &d.certificate).is_valid());
        }
    }
}
