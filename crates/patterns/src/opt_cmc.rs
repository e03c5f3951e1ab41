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
//! parent counts depend on neither the budget nor the cost function: a
//! `SharedLattice` holds them, and a
//! [`PatternInstance`](crate::PatternInstance) keeps it between solves,
//! so later queries on the instance never repeat an expansion. Costs,
//! row masks and node ids belong to one solve (`Lattice`): ids follow
//! the solve's own first-encounter order, so the heap's
//! `(mben, cost, id)` tie-break — and with it every selection, degraded
//! partial, tick count and audit event — is the same on a shared lattice
//! as on a fresh one. Only `posting_scanned` shows the difference: it
//! counts the expansions this solve actually performed.

use crate::fxhash::FxHashMap;
use crate::pattern::Pattern;
use crate::pattern_solution::PatternSolution;
use crate::space::LatticeSpace;
use crate::table::RowId;
use scwsc_core::algorithms::cmc::{CmcParams, Levels};
use scwsc_core::engine::{
    panic_message, Certificate, Deadline, DegradeReason, Degraded, EngineError, SolveOutcome,
};
use scwsc_core::parallel::prune_from_env;
use scwsc_core::telemetry::{
    audit, pack_k_target, Event, EventLog, Observer, PhaseSpan, PruneReason, ThreadLocalTelemetry,
    TraceId, PHASE_GUESS, PHASE_SCAN, PHASE_TOTAL,
};
use scwsc_core::{coverage_target, BitSet, SolveError, ThreadPool};
use std::borrow::Cow;
use std::collections::BinaryHeap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Mutex, PoisonError};

/// Minimum row-list length before a stale-pop recount fans out over the
/// pool; below this the chunking overhead exceeds the count itself.
const PAR_RECOUNT_MIN: usize = 4096;
/// Minimum number of newly eligible children before their benefit
/// recounts fan out over the pool.
const PAR_CHILDREN_MIN: usize = 4;
/// Maximum heap-entry staleness (in selections) served by the epoch-delta
/// refresh; older entries fall back to a full blocked recount. Each delta
/// round costs one `O(n/64)` intersection, so past a few rounds the full
/// difference count is cheaper.
const DELTA_MAX_ROUNDS: usize = 4;

/// Runs the optimized CMC (Fig. 4) over any [`LatticeSpace`] — the flat
/// pattern cube or the hierarchy-enriched lattice of
/// [`crate::hierarchy::HierarchicalSpace`] — on `pool`, under `deadline`
/// (DESIGN.md §12).
///
/// Parameters mirror [`scwsc_core::algorithms::cmc()`]: the schedule bounds
/// the solution size (`5k` classic, `(1+ε)k` for the ε-schedule) and the
/// coverage target is `(1−1/e)·ŝ·n` unless `params.discount_coverage` is
/// unset.
///
/// Each pattern examination (Fig. 4 lines 12 and 35), the Figure 6 metric,
/// is counted in `benefit_computed` events — one per guess for the root
/// and one per expansion for the children it scores; budget guesses
/// arrive as `guess_started` events. Passing `&mut Stats` keeps the legacy
/// counters. Each guess records into a private [`EventLog`] (one log for
/// the whole solve, cleared per attempt) replayed into `obs` when the
/// guess ends, so events arrive once per guess, not live.
///
/// The lattice walk itself stays single-threaded — the heap pop order
/// *is* the algorithm and every step mutates the shared lattice cache —
/// so the event stream, the walk, and the solution are identical for any
/// thread count. The pool accelerates the two pure fan-outs inside a
/// step: stale-pop recounts over long row lists, and the benefit scoring
/// of a visit's newly eligible children. There is no cross-budget
/// speculation here (each guess reuses the previous guess's lattice
/// materializations).
///
/// One work tick is consumed per heap pop. On expiry the patterns
/// selected so far in the in-flight budget guess return as
/// [`SolveOutcome::Degraded`] with a [`Certificate`] (including which
/// level quotas were exhausted) that
/// [`verify_certificate_in`](crate::pattern_solution::verify_certificate_in)
/// re-checks. Benefit recounts do not tick, so outcome classification and
/// tick streams are identical for any thread count.
///
/// Panic isolation: each budget guess runs under `catch_unwind`; a
/// panicked guess is retried once (counted by the `guesses_retried`
/// telemetry event — safe because the lattice is append-only and
/// budget-independent) and a second panic surfaces as
/// [`EngineError::Panicked`]. A lattice that saw a panic is never handed
/// to a later solve: the panic may have cut an expansion short.
pub fn opt_cmc<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    params: &CmcParams,
    pool: &ThreadPool,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    opt_cmc_stashed(space, params, pool, deadline, obs, &LatticeStash::default())
}

/// [`opt_cmc`] on the lattice parked in `stash`, which must
/// have been grown over `space`'s table and lattice shape (any cost
/// function): a [`PatternInstance`](crate::PatternInstance) passes its
/// own, so repeated CMC solves on one instance materialize each node
/// once (DESIGN.md §17).
pub(crate) fn opt_cmc_stashed<S: LatticeSpace, O: Observer + ?Sized>(
    space: &S,
    params: &CmcParams,
    pool: &ThreadPool,
    deadline: &Deadline,
    obs: &mut O,
    stash: &LatticeStash,
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
        return Ok(SolveOutcome::Complete(PatternSolution {
            patterns: Vec::new(),
            covered: 0,
            total_cost: 0.0,
        }));
    }
    let pool = if pool.is_serial() { None } else { Some(pool) };
    obs.on(&Event::TraceStarted(
        TraceId::mint("opt_cmc", n as u64, pack_k_target(params.k, target)),
        "opt_cmc",
    ));
    let span = PhaseSpan::enter(obs, PHASE_TOTAL);
    let shared = stash.take().unwrap_or_else(|| SharedLattice::new(space));
    let mut lattice = Lattice::new(space, shared);
    let result = guess_loop(&mut lattice, params, target, pool, deadline, obs);
    lattice.park(stash);
    span.exit(obs);
    result
}

/// The budget-doubling loop (Fig. 4 lines 01–07 and 36–37) with per-guess
/// panic containment and deadline checkpoints.
fn guess_loop<S: LatticeSpace, O: Observer + ?Sized>(
    lattice: &mut Lattice<'_, S>,
    params: &CmcParams,
    target: usize,
    pool: Option<&ThreadPool>,
    deadline: &Deadline,
    obs: &mut O,
) -> Result<SolveOutcome<PatternSolution>, EngineError> {
    // Line 01: "B = cost of the k cheapest patterns". Knowing the true k
    // cheapest patterns would itself require enumeration, so we seed with
    // the sum of the k smallest single-record weights — a lower bound for
    // monotone cost functions, costing at most O(log_{1+b}) extra guesses
    // (DESIGN.md §3).
    let mut measures: Vec<f64> = lattice.space.table().measures().to_vec();
    measures.sort_unstable_by(f64::total_cmp);
    let seed: f64 = measures.iter().take(params.k).sum();
    let total_weight: f64 = measures.iter().sum();
    let mut budget = if seed > 0.0 {
        seed
    } else {
        measures.iter().copied().find(|&m| m > 0.0).unwrap_or(1.0)
    };

    let mut queue = BucketQueue::new();
    // One log for every guess and retry: cleared per attempt, so its
    // capacity is allocated once per solve rather than once per guess.
    let mut log = EventLog::new();
    let mut guess_index = 0u64;

    loop {
        guess_index += 1;
        let mut attempt = |lattice: &mut Lattice<'_, S>, log: &mut EventLog| {
            log.clear();
            catch_unwind(AssertUnwindSafe(|| {
                log.on(&Event::GuessStarted(Some(budget)));
                // Spans stay at guess granularity: the body's unit of work
                // is a single heap pop, far too hot to bracket with clock
                // reads.
                let guess_span = PhaseSpan::enter(log, PHASE_GUESS);
                deadline.fault_guess(guess_index);
                let found = run_guess(
                    lattice, &mut queue, params, budget, target, pool, deadline, log,
                );
                guess_span.exit(log);
                found
            }))
        };
        let found = match attempt(lattice, &mut log) {
            Ok(found) => found,
            Err(_) => {
                // Retry once: the lattice is append-only and
                // budget-independent, so a half-extended lattice only
                // means fewer first-materialization events on the rerun.
                // It is not parked afterwards, though: the panic may have
                // cut an expansion short.
                lattice.tainted = true;
                obs.on(&Event::GuessRetried);
                match attempt(lattice, &mut log) {
                    Ok(found) => found,
                    Err(payload) => {
                        return Err(EngineError::Panicked(panic_message(payload.as_ref())))
                    }
                }
            }
        };
        log.replay(obs);
        match found {
            GuessResult::Found(solution) => return Ok(SolveOutcome::Complete(solution)),
            GuessResult::Expired {
                partial,
                quotas_exhausted,
                reason,
            } => {
                obs.on(&Event::DegradeDecided(
                    reason.as_str(),
                    partial.covered as u64,
                    target as u64,
                ));
                let certificate = Certificate {
                    sets_used: partial.size(),
                    covered: partial.covered,
                    target,
                    total_cost: partial.total_cost,
                    quotas_exhausted,
                    ticks: deadline.ticks(),
                    reason,
                };
                return Ok(SolveOutcome::Degraded(Degraded {
                    partial,
                    certificate,
                }));
            }
            GuessResult::NotFound => {}
        }
        // Line 37: stop once even a budget admitting every pattern failed.
        // The all-wildcards pattern is the most expensive one under any
        // lattice-monotone cost function, and a budget above the total
        // weight is a universal upper bound otherwise.
        if budget > lattice.root_cost() && budget > total_weight {
            return Err(SolveError::BudgetExhausted.into());
        }
        budget *= 1.0 + params.budget_growth; // line 36
    }
}

/// Appends `items`, growing `v` by an eighth rather than doubling it: a
/// parked lattice is trimmed to fit, and a later solve that adds a few
/// nodes must not double every array of it.
fn extend_lean<T: Copy>(v: &mut Vec<T>, items: &[T]) {
    if v.capacity() - v.len() < items.len() {
        v.reserve_exact(items.len().max(v.len() / 8).max(16));
    }
    v.extend_from_slice(items);
}

/// Sentinel in [`SharedLattice::children`]: the node was never expanded.
const UNEXPANDED: (u32, u32) = (u32::MAX, 0);
/// Sentinel in [`Lattice::local`]: this solve has not met the node yet.
const UNSEEN: u32 = u32::MAX;

/// The cost-independent half of the Fig. 4 lattice: pattern keys, row
/// lists, child lists and parent counts do not depend on the cost
/// function, the budget or the coverage target, so one materialization
/// serves every budget guess of a solve and, parked in a
/// [`LatticeStash`], every later CMC solve on the same instance
/// (DESIGN.md §17).
///
/// Nodes are numbered in the order they were first materialized, by
/// whichever solve grew the lattice; solves never see these numbers (a
/// [`Lattice`] view renumbers them). Everything is flat: no per-node
/// allocation, and no masks, costs or per-solve state.
struct SharedLattice {
    keys: Keys,
    /// Number of parents (= specificity) per node: the pending-parents
    /// gating that implements line 33 without per-check hashing.
    num_parents: Vec<u8>,
    /// All row lists back to back, in node order: the rows of node `g`
    /// are `row_arena[row_starts[g]..row_starts[g + 1]]`. A node's rows
    /// are appended once, when it is first materialized.
    row_arena: Vec<RowId>,
    row_starts: Vec<u32>,
    /// Child-node lists back to back, each in (attribute, value) order.
    child_arena: Vec<u32>,
    /// `(offset, len)` of each node's child list in `child_arena`, or
    /// [`UNEXPANDED`].
    children: Vec<(u32, u32)>,
}

/// Node keys and the key-to-node dedup map. When the space's value
/// domain packs into a `u64` ([`LatticeSpace::packed_key_bits`]), a key
/// is one integer — one `u64` hash per child visit instead of hashing a
/// boxed option-slice, on the hottest lookup of the lattice build.
enum Keys {
    Packed {
        /// `(shift, mask)` of each attribute's field in the key. The
        /// field holds `value + 1` (`0` is the wildcard), so a child key
        /// is `parent_key | (value + 1) << shift` — one OR.
        fields: Vec<(u32, u64)>,
        keys: Vec<u64>,
        ids: KeyTable,
    },
    General {
        patterns: Vec<Pattern>,
        ids: FxHashMap<Pattern, u32>,
    },
}

impl Keys {
    fn new<S: LatticeSpace>(space: &S, root: &Pattern) -> Keys {
        match space.packed_key_bits() {
            Some(bits) => {
                // Field of attr `i` sits above the fields of all later
                // attributes.
                let mut fields = vec![(0u32, 0u64); bits.len()];
                let mut acc = 0;
                for i in (0..bits.len()).rev() {
                    fields[i] = (acc, ((1u128 << bits[i]) - 1) as u64);
                    acc += bits[i];
                }
                // The root is all wildcards: every field, so its key, is 0.
                debug_assert!(root.is_root());
                Keys::Packed {
                    fields,
                    keys: vec![0],
                    ids: KeyTable::with_root(),
                }
            }
            None => Keys::General {
                patterns: vec![root.clone()],
                ids: FxHashMap::from_iter([(root.clone(), 0)]),
            },
        }
    }

    /// The pattern of node `g`.
    fn pattern(&self, g: u32) -> Pattern {
        match self {
            Keys::Packed { fields, keys, .. } => {
                let key = keys[g as usize];
                Pattern::new(
                    fields
                        .iter()
                        .map(|&(shift, mask)| ((key >> shift) & mask).checked_sub(1))
                        .map(|v| v.map(|v| v as u32))
                        .collect(),
                )
            }
            Keys::General { patterns, .. } => patterns[g as usize].clone(),
        }
    }

    /// The packed key of node `g`, when packed keys are in use.
    fn packed(&self, g: u32) -> Option<u64> {
        match self {
            Keys::Packed { keys, .. } => Some(keys[g as usize]),
            Keys::General { .. } => None,
        }
    }

    /// The node of the child reached from `parent_key` by setting `attr`
    /// to `value` (`child` backs the non-packed map), registering it as
    /// node `next` if it is new.
    fn intern_child(
        &mut self,
        parent_key: Option<u64>,
        attr: usize,
        value: u32,
        child: &Pattern,
        next: u32,
    ) -> u32 {
        match self {
            Keys::Packed { fields, keys, ids } => {
                let key = parent_key.expect("packed keys always have a parent key")
                    | ((value as u64 + 1) << fields[attr].0);
                ids.find(keys, key).unwrap_or_else(|slot| {
                    extend_lean(keys, &[key]);
                    ids.insert(keys, slot, next);
                    next
                })
            }
            Keys::General { patterns, ids } => match ids.get(child) {
                Some(&id) => id,
                None => {
                    ids.insert(child.clone(), next);
                    patterns.push(child.clone());
                    next
                }
            },
        }
    }

    fn shrink_to_fit(&mut self) {
        match self {
            Keys::Packed { keys, .. } => keys.shrink_to_fit(),
            Keys::General { patterns, .. } => patterns.shrink_to_fit(),
        }
    }
}

/// The packed-key dedup map: an open-addressing table of node ids, probed
/// linearly and compared through the key array, so a slot is 4 bytes
/// where a `HashMap<u64, u32>` entry takes 17 — 0.26 MB instead of
/// 1.1 MB for a parked 50k-node lattice.
struct KeyTable {
    /// Node ids, [`UNSEEN`] for empty; the length is a power of two.
    slots: Vec<u32>,
    /// `64 - log2(slots.len())`: a key's home slot is the top bits of its
    /// Fibonacci hash.
    shift: u32,
    len: usize,
}

impl KeyTable {
    /// A table holding node 0, the root, whose key 0 hashes to slot 0.
    fn with_root() -> KeyTable {
        let mut slots = vec![UNSEEN; 16];
        slots[0] = 0;
        KeyTable {
            slots,
            shift: 64 - 4,
            len: 1,
        }
    }

    /// The node holding `key`, or the empty slot where it belongs.
    #[inline]
    fn find(&self, keys: &[u64], key: u64) -> Result<u32, usize> {
        let mask = self.slots.len() - 1;
        let mut slot = (key.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> self.shift) as usize;
        loop {
            match self.slots[slot] {
                UNSEEN => return Err(slot),
                id if keys[id as usize] == key => return Ok(id),
                _ => slot = (slot + 1) & mask,
            }
        }
    }

    /// Puts `id` (whose key `keys[id]` is absent) into the empty `slot`
    /// [`find`](KeyTable::find) returned, doubling the table past 7/8
    /// full.
    fn insert(&mut self, keys: &[u64], slot: usize, id: u32) {
        self.slots[slot] = id;
        self.len += 1;
        if self.len * 8 > self.slots.len() * 7 {
            let doubled = vec![UNSEEN; self.slots.len() * 2];
            let old = std::mem::replace(&mut self.slots, doubled);
            self.shift -= 1;
            for id in old.into_iter().filter(|&id| id != UNSEEN) {
                let slot = self.find(keys, keys[id as usize]).expect_err("rehash");
                self.slots[slot] = id;
            }
        }
    }
}

impl SharedLattice {
    /// The lattice with only its all-wildcards root materialized.
    fn new<S: LatticeSpace>(space: &S) -> SharedLattice {
        let root_rows = space.root_rows();
        SharedLattice {
            keys: Keys::new(space, &space.root()),
            num_parents: vec![0],
            row_starts: vec![0, u32::try_from(root_rows.len()).expect("rows fit u32")],
            row_arena: root_rows,
            child_arena: Vec::new(),
            children: vec![UNEXPANDED],
        }
    }

    /// Number of materialized nodes.
    fn len(&self) -> usize {
        self.num_parents.len()
    }

    /// The row list of node `g`.
    #[inline]
    fn rows_of(&self, g: u32) -> &[RowId] {
        let g = g as usize;
        &self.row_arena[self.row_starts[g] as usize..self.row_starts[g + 1] as usize]
    }

    /// The child nodes of expanded node `g`.
    #[inline]
    fn children_of(&self, g: u32) -> &[u32] {
        let (off, len) = self.children[g as usize];
        debug_assert_ne!(off, UNEXPANDED.0, "node {g} is expanded");
        &self.child_arena[off as usize..off as usize + len as usize]
    }

    /// Materializes node `g`'s non-empty children unless an earlier
    /// expansion (of this solve or of an earlier one) already did.
    /// Returns the posting entries the expansion scanned — `g`'s rows
    /// once per wildcard attribute — or `None` when it was cached.
    ///
    /// Children are visited through [`LatticeSpace::for_each_child`], so
    /// key and row storage is allocated only for children seen for the
    /// first time — in a diamond lattice most children are already
    /// cached under another parent. `scratch` holds `g`'s rows during
    /// the walk (the child pushes may reallocate `row_arena`) and the
    /// child list under construction.
    fn expand<S: LatticeSpace>(
        &mut self,
        space: &S,
        g: u32,
        scratch: &mut (Vec<RowId>, Vec<u32>),
    ) -> Option<u64> {
        if self.children[g as usize] != UNEXPANDED {
            return None;
        }
        let parent = self.keys.pattern(g);
        let parent_key = self.keys.packed(g);
        let (parent_rows, kids) = scratch;
        parent_rows.clear();
        parent_rows.extend_from_slice(self.rows_of(g));
        kids.clear();
        space.for_each_child(
            &parent,
            parent_rows,
            &mut |attr, value, child, child_rows| {
                let next = self.num_parents.len() as u32;
                let cid = self.keys.intern_child(parent_key, attr, value, child, next);
                if cid == next {
                    extend_lean(&mut self.num_parents, &[space.num_parents(child) as u8]);
                    extend_lean(&mut self.row_arena, child_rows);
                    let end = u32::try_from(self.row_arena.len()).expect("row arena fits u32");
                    extend_lean(&mut self.row_starts, &[end]);
                    extend_lean(&mut self.children, &[UNEXPANDED]);
                }
                kids.push(cid);
            },
        );
        let off = u32::try_from(self.child_arena.len()).expect("child arena fits u32");
        extend_lean(&mut self.child_arena, kids);
        self.children[g as usize] = (off, kids.len() as u32);
        let wildcards = parent.values().iter().filter(|v| v.is_none()).count();
        Some((parent_rows.len() * wildcards) as u64)
    }

    /// Drops the growth slack of every array, so a parked lattice holds
    /// only its nodes.
    fn shrink_to_fit(&mut self) {
        self.keys.shrink_to_fit();
        self.num_parents.shrink_to_fit();
        self.row_arena.shrink_to_fit();
        self.row_starts.shrink_to_fit();
        self.child_arena.shrink_to_fit();
        self.children.shrink_to_fit();
    }
}

/// Where a [`PatternInstance`](crate::PatternInstance) parks its
/// [`SharedLattice`] between CMC solves (DESIGN.md §17).
///
/// A solve [`take`](LatticeStash::take)s the lattice, grows it as its
/// walk needs, and [`put`](LatticeStash::put)s it back. A concurrent
/// solve that finds the stash empty builds its own; whichever is larger
/// is kept. Solves never share a lattice while running, so the walk
/// needs no locking. The lock is held only to take or to swap the
/// `Option`, which leaves it valid at every step, so a poisoned lock is
/// recovered rather than propagated.
#[derive(Default)]
pub(crate) struct LatticeStash(Mutex<Option<SharedLattice>>);

impl LatticeStash {
    /// Takes the parked lattice, leaving the stash empty.
    fn take(&self) -> Option<SharedLattice> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).take()
    }

    /// Parks `lattice` unless a larger one was parked meanwhile.
    fn put(&self, mut lattice: SharedLattice) {
        lattice.shrink_to_fit();
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.as_ref().is_none_or(|held| held.len() < lattice.len()) {
            *slot = Some(lattice);
        }
    }
}

/// One solve's view of a [`SharedLattice`]: the cost-dependent state
/// (costs, row masks) and the solve's own node ids.
///
/// Ids are assigned in this solve's first-encounter order — the order in
/// which its walk first expands a parent of each node, children in
/// (attribute, value) order — exactly as a fresh materialization numbers
/// them. The heap breaks ties on these ids, so a solve on a lattice an
/// earlier solve grew walks, selects and reports exactly as one on a
/// fresh lattice.
struct Lattice<'a, S: LatticeSpace> {
    space: &'a S,
    shared: SharedLattice,
    /// `global[id]` = the shared node of this solve's id `id`.
    global: Vec<u32>,
    /// `local[g]` = this solve's id of shared node `g`, or [`UNSEEN`].
    local: Vec<u32>,
    costs: Vec<f64>,
    /// Parent count per id, copied from the shared node.
    num_parents: Vec<u8>,
    /// Row bitmasks, for blocked-popcount recounts. Lazy: only the
    /// (few) ids the pruned refresh actually kernels over — popped stale
    /// entries with long row lists — pay the `O(num_rows)` bits.
    masks: FxHashMap<u32, BitSet>,
    /// Set when a guess of this solve panicked: an expansion may have
    /// stopped halfway, so the shared half must not outlive the solve.
    tainted: bool,
    /// Expansion scratch, reused across expansions.
    scratch: (Vec<RowId>, Vec<u32>),
}

impl<'a, S: LatticeSpace> Lattice<'a, S> {
    fn new(space: &'a S, shared: SharedLattice) -> Self {
        let root_cost = space.cost(shared.rows_of(0));
        // A parked lattice holds about what this solve will meet, so the
        // per-id arrays are sized for all of it up front.
        let mut local = vec![UNSEEN; shared.len()];
        local[0] = 0;
        fn sized<T>(first: T, capacity: usize) -> Vec<T> {
            let mut v = Vec::with_capacity(capacity);
            v.push(first);
            v
        }
        let nodes = shared.len();
        Lattice {
            space,
            global: sized(0, nodes),
            local,
            costs: sized(root_cost, nodes),
            num_parents: sized(0, nodes),
            shared,
            masks: FxHashMap::default(),
            tainted: false,
            scratch: (Vec::new(), Vec::new()),
        }
    }

    /// Number of ids this solve has assigned.
    fn len(&self) -> usize {
        self.global.len()
    }

    /// The row list of `id`.
    #[inline]
    fn rows_of(&self, id: u32) -> &[RowId] {
        self.shared.rows_of(self.global[id as usize])
    }

    /// The pattern of `id`.
    fn pattern(&self, id: u32) -> Pattern {
        self.shared.keys.pattern(self.global[id as usize])
    }

    /// The child ids of `id`, which [`expand`](Lattice::expand) has seen.
    fn children_of(&self, id: u32) -> impl Iterator<Item = u32> + '_ {
        self.shared
            .children_of(self.global[id as usize])
            .iter()
            .map(|&g| self.local[g as usize])
    }

    fn mask_of(n: usize, rows: &[RowId]) -> BitSet {
        let mut mask = BitSet::new(n);
        for &r in rows {
            mask.insert(r as usize);
        }
        mask
    }

    /// Row lists shorter than this recount faster through the postings
    /// loop: the blocked kernel always touches ~`num_rows / 64` words,
    /// so it only wins once the list holds a couple of rows per word.
    fn kernel_min_rows(&self) -> usize {
        self.space.num_rows().div_ceil(32)
    }

    /// The row mask of `id`, materialized on first use.
    fn mask(&mut self, id: u32) -> &BitSet {
        let n = self.space.num_rows();
        let rows = self.shared.rows_of(self.global[id as usize]);
        self.masks
            .entry(id)
            .or_insert_with(|| Self::mask_of(n, rows))
    }

    fn root_cost(&self) -> f64 {
        self.costs[0]
    }

    /// Expands `id` in the shared lattice (a no-op when cached there)
    /// and assigns ids to the children this solve meets for the first
    /// time, costing each. Returns the postings a real expansion
    /// scanned.
    fn expand(&mut self, id: u32) -> Option<u64> {
        let g = self.global[id as usize];
        let postings = self.shared.expand(self.space, g, &mut self.scratch);
        self.local.resize(self.shared.len(), UNSEEN);
        for &child in self.shared.children_of(g) {
            let slot = &mut self.local[child as usize];
            if *slot == UNSEEN {
                *slot = self.global.len() as u32;
                self.global.push(child);
                self.costs.push(self.space.cost(self.shared.rows_of(child)));
                self.num_parents
                    .push(self.shared.num_parents[child as usize]);
            }
        }
        postings
    }

    /// Ends the solve: the shared half goes back to `stash` unless a
    /// panic was contained along the way.
    fn park(self, stash: &LatticeStash) {
        if !self.tainted {
            stash.put(self.shared);
        }
    }
}

/// Counts rows of `rows` not yet in `covered`, fanning out over the pool
/// for long row lists (sum-reduction, exact for any chunking).
fn recount(rows: &[RowId], covered: &BitSet, pool: Option<&ThreadPool>) -> usize {
    if let Some(pool) = pool {
        if rows.len() >= PAR_RECOUNT_MIN {
            return pool
                .par_chunks_reduce(
                    rows.len(),
                    |_, range| {
                        Some(
                            rows[range]
                                .iter()
                                .filter(|&&r| !covered.contains(r as usize))
                                .count(),
                        )
                    },
                    |a, b| a + b,
                )
                .unwrap_or(0);
        }
    }
    rows.iter()
        .filter(|&&r| !covered.contains(r as usize))
        .count()
}

/// How one budget guess (Fig. 4 lines 08–35) ended.
enum GuessResult {
    Found(PatternSolution),
    NotFound,
    Expired {
        partial: PatternSolution,
        quotas_exhausted: Vec<usize>,
        reason: DegradeReason,
    },
}

/// One budget guess (Fig. 4 lines 08–35). Consumes one `deadline` work
/// tick per heap pop; under an unbounded deadline (the classic path) the
/// checkpoint can never fail.
#[allow(clippy::too_many_arguments)]
fn run_guess<S: LatticeSpace, O: Observer + ?Sized>(
    lattice: &mut Lattice<'_, S>,
    heap: &mut BucketQueue,
    params: &CmcParams,
    budget: f64,
    target: usize,
    pool: Option<&ThreadPool>,
    deadline: &Deadline,
    obs: &mut O,
) -> GuessResult {
    let n = lattice.space.num_rows();
    let levels = Levels::build(params.schedule, budget, params.k);
    // Report the complete level schedule up front: even if the guess ends
    // early, observers see every (level, quota) pair Fig. 4 line 05 built.
    for level in 0..levels.len() {
        obs.on(&Event::LevelEntered(level, levels.quota(level)));
    }
    let mut counts = vec![0usize; levels.len()]; // lines 15-16
    let mut selected_total = 0usize;
    let max_selections = levels.max_selections();

    let mut covered = BitSet::new(n);
    // Pruned-refresh state: each selection appends the newly covered rows
    // as a mask, so a heap entry computed `epoch - entry.epoch` selections
    // ago refreshes by subtracting exact per-selection intersection counts
    // (the newly sets are disjoint) instead of recounting from scratch.
    let prune = prune_from_env();
    let mut epoch = 0usize;
    let mut newly_masks: Vec<BitSet> = Vec::new();
    // Per-guess per-pattern state, keyed by lattice id (lazily grown).
    let len = lattice.len();
    let mut in_c = vec![false; len];
    let mut visited = vec![false; len];
    let mut selected = vec![false; len];
    // pending[id] = parents of id not yet visited this guess; line 33's
    // "all parents of m are in V" is exactly pending[id] == 0, reached by
    // decrementing when each parent is visited (no hashing per check).
    let mut pending: Vec<u8> = lattice.num_parents[..len].to_vec();

    // Lines 11-13: C = {all-wildcards}.
    in_c[0] = true;
    obs.on(&Event::BenefitComputed(1));

    // Max-queue on (mben, cheaper first, older first), with lazy
    // revalidation: marginal benefits only decrease, so a stale entry is
    // an upper bound and the first fresh pop is the true argmax (line 18).
    // Reset up front so a previous guess that returned early (or
    // panicked under fault injection) cannot leak entries into this one.
    heap.reset(lattice.rows_of(0).len());
    heap.push(HeapEntry {
        mben: lattice.rows_of(0).len(),
        cost_bits: lattice.costs[0].to_bits(),
        id: 0,
        epoch: 0,
    });

    let mut solution = PatternSolution {
        patterns: Vec::new(),
        covered: 0,
        total_cost: 0.0,
    };
    let mut rem = target; // line 14
                          // Expansion scratch, reused across pops: thousands of patterns are
                          // visited per guess, and a fresh Vec pair per visit is pure
                          // allocator traffic.
    let mut eligible: Vec<u32> = Vec::new();
    let mut mbens: Vec<usize> = Vec::new();
    // Per-pop and per-expansion counters, reported as one total each per
    // guess: the guess's event log stays proportional to its expansions
    // that score children, not to its pops.
    let mut postings = 0u64;
    let mut scan_pruned = 0u64;
    let mut bounds_refreshed = 0u64;

    let result = 'walk: {
        while let Some(entry) = heap.pop() {
            if let Err(reason) = deadline.checkpoint() {
                let quotas_exhausted = (0..levels.len())
                    .filter(|&l| counts[l] == levels.quota(l))
                    .collect();
                break 'walk GuessResult::Expired {
                    partial: solution,
                    quotas_exhausted,
                    reason,
                };
            }
            // line 17's ΣΣ guard: once every level quota is full no further
            // selection can happen.
            if selected_total >= max_selections {
                break;
            }
            let id = entry.id as usize;
            if !in_c[id] {
                obs.on(&Event::HeapStalePop);
                continue; // stale duplicate of a removed candidate
            }
            let current = if !prune {
                recount(lattice.rows_of(entry.id), &covered, pool)
            } else if entry.epoch == epoch {
                // Coverage only grows at selections, so an entry pushed this
                // epoch is provably current — skip the recount outright.
                scan_pruned += 1;
                entry.mben
            } else if lattice.rows_of(entry.id).len() < lattice.kernel_min_rows() {
                // Short row list: the postings recount beats every
                // mask-based path, and no mask is ever materialized.
                bounds_refreshed += 1;
                recount(lattice.rows_of(entry.id), &covered, None)
            } else if epoch - entry.epoch <= DELTA_MAX_ROUNDS {
                // Exact delta: the per-selection newly sets are disjoint, so
                // the entry's stale count minus its overlap with each newer
                // selection is the fresh count — no full recount needed.
                let stale = entry.mben;
                let mask = lattice.mask(entry.id);
                let overlap: usize = newly_masks[entry.epoch..epoch]
                    .iter()
                    .map(|nm| mask.intersection_count(nm))
                    .sum();
                scan_pruned += 1;
                stale - overlap
            } else {
                bounds_refreshed += 1;
                lattice.mask(entry.id).difference_count(&covered)
            };
            debug_assert_eq!(
                current,
                recount(lattice.rows_of(entry.id), &covered, None),
                "pruned refresh is exact"
            );
            if current == 0 {
                in_c[id] = false; // lines 28-29 analogue
                obs.on(&Event::CandidatePruned(PruneReason::Exhausted));
                continue;
            }
            if current != entry.mben {
                obs.on(&Event::HeapStalePop);
                heap.push(HeapEntry {
                    mben: current,
                    cost_bits: entry.cost_bits,
                    id: entry.id,
                    epoch,
                });
                continue;
            }

            // Line 19: q leaves C.
            in_c[id] = false;
            let q_cost = lattice.costs[id];
            let level = levels.level_of(q_cost); // line 20

            let selectable = level.is_some_and(|l| counts[l] < levels.quota(l));
            if selectable {
                // Audit the pick before mutating: runners-up are the next heap
                // entries still in C. Their stored scores may be stale upper
                // bounds (lazy revalidation), i.e. optimistic — the ledger
                // notes the heap's view, which is deterministic because the
                // heap order is total and the pop/re-push cycle below restores
                // the heap exactly.
                let mut popped: Vec<HeapEntry> = Vec::with_capacity(audit::RUNNERS_UP);
                while popped.len() < audit::RUNNERS_UP {
                    let Some(e) = heap.pop() else { break };
                    popped.push(e);
                }
                let runners: Vec<audit::AuditCandidate> = popped
                    .iter()
                    .filter(|e| in_c[e.id as usize])
                    .map(|e| audit::AuditCandidate {
                        id: e.id as u64,
                        benefit: e.mben as u64,
                        weight: lattice.costs[e.id as usize],
                    })
                    .collect();
                for e in popped {
                    heap.push(e);
                }
                let winner = audit::AuditCandidate {
                    id: entry.id as u64,
                    benefit: current as u64,
                    weight: q_cost,
                };
                obs.on(&Event::RoundDecided(
                    audit::ORDER_BENEFIT,
                    winner,
                    Cow::Borrowed(&runners),
                ));
                let newly: Vec<u32> = lattice
                    .rows_of(entry.id)
                    .iter()
                    .copied()
                    .filter(|&r| !covered.contains(r as usize))
                    .collect();
                debug_assert_eq!(newly.len(), current, "fresh recount priced exactly");
                obs.on(&Event::PriceCharged(
                    entry.id as u64,
                    Cow::Borrowed(&newly),
                    q_cost,
                ));

                // Lines 21-25: select q.
                let l = level.expect("selectable implies a level");
                counts[l] += 1;
                selected_total += 1;
                selected[id] = true;
                solution.patterns.push(lattice.pattern(entry.id));
                solution.total_cost += q_cost;
                obs.on(&Event::SetSelected(entry.id as u64, current as u64, q_cost));
                for &r in lattice.rows_of(entry.id) {
                    covered.insert(r as usize);
                }
                if prune {
                    let mut nm = BitSet::new(n);
                    for &r in &newly {
                        nm.insert(r as usize);
                    }
                    newly_masks.push(nm);
                    epoch += 1;
                }
                solution.covered = covered.count_ones();
                rem = rem.saturating_sub(current);
                if rem == 0 {
                    break 'walk GuessResult::Found(solution);
                }
                // Lines 26-29 happen lazily at pop time via the recount above.
            } else {
                // Lines 30-35: visit q and expand its children.
                visited[id] = true;
                // Only a first materialization in the shared lattice scans
                // postings: q's row list, once per wildcard attribute.
                postings += lattice.expand(entry.id).unwrap_or(0);
                eligible.clear();
                for child_id in lattice.children_of(entry.id) {
                    let cid = child_id as usize;
                    if pending.len() <= cid {
                        // Newly materialized: extend per-guess state.
                        in_c.resize(cid + 1, false);
                        visited.resize(cid + 1, false);
                        selected.resize(cid + 1, false);
                        let from = pending.len();
                        pending.extend_from_slice(&lattice.num_parents[from..=cid]);
                    }
                    if in_c[cid] || visited[cid] || selected[cid] {
                        continue;
                    }
                    // Line 33: "all parents of m are in V" — the decrement
                    // for this visit of q; zero pending means every parent
                    // has been visited.
                    pending[cid] = pending[cid].saturating_sub(1);
                    if pending[cid] != 0 {
                        continue;
                    }
                    eligible.push(child_id);
                }
                // Line 35: compute Cost(m) and MBen(m) for each eligible
                // child — served from the lattice cache, the benefit recounts
                // fanned out over the pool. Each worker chunk brackets its
                // recounts in a `scan` span recorded into a telemetry shard,
                // replayed here so the spans nest under the open guess span;
                // counter events fire in child order below, identical to
                // scoring inline.
                mbens.clear();
                match pool {
                    Some(pool) if eligible.len() >= PAR_CHILDREN_MIN => {
                        let (shared, global) = (&lattice.shared, &lattice.global);
                        let covered = &covered;
                        let per_chunk = eligible.len().div_ceil(pool.threads());
                        let chunks: Vec<(usize, &[u32])> =
                            eligible.chunks(per_chunk).enumerate().collect();
                        let tls = ThreadLocalTelemetry::new(chunks.len());
                        let scored = pool.par_map(&chunks, |&(idx, chunk)| {
                            let mut shard = tls.shard(idx);
                            let span = PhaseSpan::enter(&mut *shard, PHASE_SCAN);
                            let mbens: Vec<usize> = chunk
                                .iter()
                                .map(|&cid| {
                                    shared
                                        .rows_of(global[cid as usize])
                                        .iter()
                                        .filter(|&&r| !covered.contains(r as usize))
                                        .count()
                                })
                                .collect();
                            span.exit(&mut *shard);
                            mbens
                        });
                        tls.replay(obs);
                        mbens.extend(scored.into_iter().flatten());
                    }
                    _ => mbens.extend(
                        eligible
                            .iter()
                            .map(|&cid| recount(lattice.rows_of(cid), &covered, pool)),
                    ),
                };
                // One "considered" count per eligible child and guess,
                // matching what Fig. 4 would compute.
                if !eligible.is_empty() {
                    obs.on(&Event::BenefitComputed(eligible.len() as u64));
                }
                for (&child_id, &child_mben) in eligible.iter().zip(&mbens) {
                    let cid = child_id as usize;
                    if child_mben == 0 {
                        // Never enters C, so its descendants stay gated behind
                        // an unvisited parent: the whole subtree is skipped.
                        obs.on(&Event::SubtreePruned(PruneReason::Exhausted));
                        continue; // would be dropped by lines 28-29 immediately
                    }
                    in_c[cid] = true;
                    heap.push(HeapEntry {
                        mben: child_mben,
                        cost_bits: lattice.costs[cid].to_bits(),
                        id: child_id,
                        epoch,
                    });
                }
            }
        }
        GuessResult::NotFound
    };
    if postings > 0 {
        obs.on(&Event::PostingScanned(postings));
    }
    if scan_pruned > 0 {
        obs.on(&Event::ScanPruned(scan_pruned));
    }
    if bounds_refreshed > 0 {
        obs.on(&Event::BoundRefreshed(bounds_refreshed));
    }
    result
}

/// Deterministic bucket priority queue over [`HeapEntry`], keyed by the
/// integer marginal benefit (bounded by `n`). Pop order is exactly the
/// binary heap's total order — (mben desc, cost asc, id asc): within
/// one guess a pattern enters the candidate set once and every re-push
/// carries a strictly smaller benefit, so two live entries for one id
/// never share a bucket and the `(cost, id)` min-heaps per bucket
/// complete the order. Both queue ends are near-O(1): the max cursor
/// only descends (the root starts at bucket `n`, re-pushes and child
/// pushes never exceed the popping bucket), and the per-bucket heaps
/// stay tiny compared to one global heap over every candidate. Reused
/// across guesses so bucket capacity amortizes.
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

/// Heap entry: candidate keyed by (mben desc, cost asc, id asc).
///
/// Ids are the solve's own ([`Lattice`]), assigned in first-encounter
/// order, which is itself deterministic (children are expanded in
/// (attribute, value) order), so runs are reproducible whether or not an
/// earlier solve grew the shared lattice.
struct HeapEntry {
    mben: usize,
    /// `f64::to_bits` of a non-negative cost orders like the number.
    cost_bits: u64,
    id: u32,
    /// Selection count when `mben` was computed. NOT part of the ordering
    /// — it only lets the pruned refresh subtract the exact per-selection
    /// coverage deltas instead of recounting from scratch.
    epoch: usize,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}

impl Eq for HeapEntry {}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.mben
            .cmp(&other.mben)
            .then_with(|| other.cost_bits.cmp(&self.cost_bits))
            .then_with(|| other.id.cmp(&self.id))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_fn::CostFn;
    use crate::enumerate::enumerate_all;
    use crate::space::PatternSpace;
    use crate::table::Table;
    use scwsc_core::algorithms::{cmc, CmcOutcome, CMC_COVERAGE_DISCOUNT};
    use scwsc_core::{SetSystem, Stats, Threads};

    /// Unwraps an unbounded solve to its complete value or solve error.
    fn complete<T>(result: Result<SolveOutcome<T>, EngineError>) -> Result<T, SolveError> {
        match result {
            Ok(outcome) => Ok(outcome.expect_complete("unbounded deadline")),
            Err(EngineError::Solve(e)) => Err(e),
            Err(e) => panic!("{e}"),
        }
    }

    /// [`opt_cmc`] on `threads` workers without a deadline.
    fn solve_on(
        space: &PatternSpace<'_>,
        params: &CmcParams,
        threads: usize,
        obs: &mut dyn Observer,
    ) -> Result<PatternSolution, SolveError> {
        let pool = ThreadPool::new(Threads::new(threads));
        complete(opt_cmc(space, params, &pool, &Deadline::unbounded(), obs))
    }

    fn solve(
        space: &PatternSpace<'_>,
        params: &CmcParams,
        obs: &mut dyn Observer,
    ) -> Result<PatternSolution, SolveError> {
        solve_on(space, params, 1, obs)
    }

    /// Fig. 1 CMC over the materialized cube.
    fn solve_unopt(
        system: &SetSystem,
        params: &CmcParams,
        obs: &mut dyn Observer,
    ) -> Result<CmcOutcome, SolveError> {
        let pool = ThreadPool::new(Threads::serial());
        complete(cmc(system, params, &pool, &Deadline::unbounded(), obs))
    }

    fn entities() -> Table {
        let mut b = Table::builder(&["Type", "Location"], "Cost");
        for (t, l, c) in [
            ("A", "West", 10.0),
            ("A", "Northeast", 32.0),
            ("B", "South", 2.0),
            ("A", "North", 4.0),
            ("B", "East", 7.0),
            ("A", "Northwest", 20.0),
            ("B", "West", 4.0),
            ("B", "Southwest", 24.0),
            ("A", "Southwest", 4.0),
            ("B", "Northwest", 4.0),
            ("A", "North", 3.0),
            ("B", "Northeast", 3.0),
            ("B", "South", 1.0),
            ("B", "North", 20.0),
            ("A", "East", 3.0),
            ("A", "South", 96.0),
        ] {
            b.push_row(&[t, l], c).unwrap();
        }
        b.build()
    }

    #[test]
    fn meets_coverage_and_size_bounds() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        for (k, s) in [(2usize, 9.0 / 16.0), (3, 0.5), (2, 1.0), (5, 0.8)] {
            let params = CmcParams::classic(k, s, 1.0);
            let sol = solve(&sp, &params, &mut Stats::new()).unwrap();
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
            let sol = solve(&sp, &params, &mut Stats::new()).unwrap();
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
        let mut opt_stats = Stats::new();
        let params = CmcParams::classic(10, 0.3, 1.0);
        let sol = solve(&sp, &params, &mut opt_stats).unwrap();
        sol.verify(&sp);
        let m = enumerate_all(&t, CostFn::Max);
        let mut unopt_stats = Stats::new();
        let _ = solve_unopt(&m.system, &params, &mut unopt_stats).unwrap();
        assert!(
            opt_stats.considered < unopt_stats.considered,
            "optimized {} >= unoptimized {}",
            opt_stats.considered,
            unopt_stats.considered
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
        let opt = solve(&sp, &params, &mut Stats::new()).unwrap();
        let m = enumerate_all(&t, CostFn::Max);
        let unopt = solve_unopt(&m.system, &params, &mut Stats::new()).unwrap();
        let bound = 2.0 * (2.0 * (2f64).log2().ceil() + 1.0);
        assert!(opt.total_cost <= bound * unopt.solution.total_cost().value() + 1e-9);
        assert!(unopt.solution.total_cost().value() <= bound * opt.total_cost + 1e-9);
    }

    #[test]
    fn zero_k_rejected_and_zero_target_empty() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        assert_eq!(
            solve(&sp, &CmcParams::classic(0, 0.5, 1.0), &mut Stats::new()),
            Err(SolveError::ZeroSizeBound)
        );
        let sol = solve(&sp, &CmcParams::classic(2, 0.0, 1.0), &mut Stats::new()).unwrap();
        assert_eq!(sol.size(), 0);
    }

    #[test]
    fn budget_guesses_increase_with_tight_instances() {
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let mut stats = Stats::new();
        let params = CmcParams::classic(2, 1.0, 1.0);
        let _ = solve(&sp, &params, &mut stats).unwrap();
        assert!(stats.budget_guesses >= 2, "seed budget is tiny by design");
    }

    #[test]
    fn works_with_mean_cost_function() {
        // Mean is not lattice-monotone; the exhaustion bound still holds
        // because budgets also grow past the total weight.
        let t = entities();
        let sp = PatternSpace::new(&t, CostFn::Mean);
        let params = CmcParams::classic(3, 0.6, 1.0);
        let sol = solve(&sp, &params, &mut Stats::new()).unwrap();
        assert!(sol.covered >= coverage_target(16, 0.6 * CMC_COVERAGE_DISCOUNT));
        sol.verify(&sp);
    }

    #[test]
    fn deterministic_across_runs() {
        let t = crate::test_util::skewed_table(300, 3, 5);
        let sp = PatternSpace::new(&t, CostFn::Max);
        let params = CmcParams::classic(5, 0.4, 1.0);
        let a = solve(&sp, &params, &mut Stats::new()).unwrap();
        let b = solve(&sp, &params, &mut Stats::new()).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_recounts_match_serial_exactly() {
        use scwsc_core::MetricsRecorder;
        let t = crate::test_util::skewed_table(600, 4, 7);
        let sp = PatternSpace::new(&t, CostFn::Max);
        let params = CmcParams::classic(8, 0.4, 1.0);
        let mut sm = MetricsRecorder::new();
        let serial = solve(&sp, &params, &mut sm).unwrap();
        for threads in [2, 4] {
            let mut pm = MetricsRecorder::new();
            let par = solve_on(&sp, &params, threads, &mut pm).unwrap();
            assert_eq!(par, serial, "threads={threads}");
            assert_eq!(pm.guesses, sm.guesses, "threads={threads}");
            assert_eq!(pm.selections, sm.selections, "threads={threads}");
            assert_eq!(
                pm.benefits_computed, sm.benefits_computed,
                "threads={threads}"
            );
            assert_eq!(pm.subtrees_pruned, sm.subtrees_pruned, "threads={threads}");
            assert_eq!(pm.heap_stale_pops, sm.heap_stale_pops, "threads={threads}");
            assert_eq!(
                pm.marginal_benefit_hist, sm.marginal_benefit_hist,
                "threads={threads}"
            );
        }
    }

    mod within {
        use super::*;
        use crate::pattern_solution::verify_certificate_in;
        use scwsc_core::MetricsRecorder;

        #[test]
        fn tick_budget_degrades_identically_across_thread_counts() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 1.0, 1.0);
            for budget in [0u64, 3, 10, 25] {
                let run = |threads: usize| {
                    let pool = ThreadPool::new(Threads::new(threads));
                    let deadline = Deadline::unbounded().with_tick_budget(budget);
                    let out = opt_cmc(&sp, &params, &pool, &deadline, &mut MetricsRecorder::new())
                        .unwrap();
                    (out, deadline.ticks())
                };
                let serial = run(1);
                assert_eq!(serial, run(4), "budget {budget}");
                if let SolveOutcome::Degraded(d) = serial.0 {
                    assert_eq!(d.certificate.reason, DegradeReason::TickBudget);
                    let check = verify_certificate_in(&sp, &d.partial, &d.certificate);
                    assert!(check.is_valid(), "budget {budget}: {check:?}");
                }
            }
        }

        #[test]
        fn zero_tick_budget_degrades_empty() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(3, 0.8, 1.0);
            let pool = ThreadPool::new(Threads::serial());
            let deadline = Deadline::unbounded().with_tick_budget(0);
            let out = opt_cmc(&sp, &params, &pool, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("zero ticks must degrade");
            };
            assert_eq!(d.partial.size(), 0);
            assert!(verify_certificate_in(&sp, &d.partial, &d.certificate).is_valid());
        }
    }

    #[cfg(feature = "fault-inject")]
    mod within_faults {
        use super::*;
        use crate::pattern_solution::verify_certificate_in;
        use scwsc_core::engine::FaultPlan;
        use scwsc_core::MetricsRecorder;

        #[test]
        fn one_shot_guess_panic_is_retried_to_completion() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 9.0 / 16.0, 1.0);
            let clean = solve(&sp, &params, &mut Stats::new()).unwrap();
            let pool = ThreadPool::new(Threads::serial());
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().panic_guess_once(1));
            let mut m = MetricsRecorder::new();
            let out = opt_cmc(&sp, &params, &pool, &deadline, &mut m).unwrap();
            assert_eq!(out.expect_complete("retry completes"), clean);
            assert_eq!(m.guesses_retried, 1);
        }

        #[test]
        fn persistent_guess_fault_is_a_structured_error() {
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 0.5, 1.0);
            let pool = ThreadPool::new(Threads::serial());
            let deadline = Deadline::unbounded().with_fault_plan(FaultPlan::new().fail_guess(1));
            let err =
                opt_cmc(&sp, &params, &pool, &deadline, &mut MetricsRecorder::new()).unwrap_err();
            assert!(matches!(err, EngineError::Panicked(_)));
        }

        #[test]
        fn panic_at_tick_degrades_cleanly() {
            // cancel_at_tick (not panic) exercises the cancel path end to end.
            let t = entities();
            let sp = PatternSpace::new(&t, CostFn::Max);
            let params = CmcParams::classic(2, 1.0, 1.0);
            let pool = ThreadPool::new(Threads::serial());
            let deadline =
                Deadline::unbounded().with_fault_plan(FaultPlan::new().cancel_at_tick(4));
            let out = opt_cmc(&sp, &params, &pool, &deadline, &mut MetricsRecorder::new()).unwrap();
            let SolveOutcome::Degraded(d) = out else {
                panic!("cancel at tick 4 must degrade");
            };
            assert!(verify_certificate_in(&sp, &d.partial, &d.certificate).is_valid());
        }
    }
}
