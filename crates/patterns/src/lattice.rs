//! The pattern lattice both optimized algorithms walk (Section V-C).
//!
//! Fig. 3 (optimized CWSC) and Fig. 4 (optimized CMC) expand the same
//! lattice top-down. Its pattern keys, row lists, child lists and parent
//! counts depend on neither the algorithm, the cost function, the budget
//! nor the coverage target, so one [`SharedLattice`] holds them for
//! every solve, and a [`PatternInstance`](crate::PatternInstance) parks
//! it between solves in a [`LatticeStash`] (DESIGN.md §17). Each solve
//! numbers, costs and masks the nodes it meets in one [`View`], in that
//! solve's own order, so a solve on a lattice that earlier solves grew
//! walks, selects and reports exactly as one on a fresh lattice. The
//! walks differ only in when they number a node and in the per-id state
//! they keep beside the view.

use crate::fxhash::FxHashMap;
use crate::pattern::Pattern;
use crate::space::LatticeSpace;
use crate::table::RowId;
use scwsc_core::telemetry::{Event, Observer, PruneReason};
use scwsc_core::{BitSet, BlockSummary};
use std::cmp::Ordering;
use std::sync::{Mutex, PoisonError};

/// Appends `items`, growing `v` by an eighth rather than doubling it: a
/// parked lattice is trimmed to fit, and a later solve that adds a few
/// nodes must not double every array of it.
pub(crate) fn extend_lean<T: Copy>(v: &mut Vec<T>, items: &[T]) {
    if v.capacity() - v.len() < items.len() {
        v.reserve_exact(items.len().max(v.len() / 8).max(16));
    }
    v.extend_from_slice(items);
}

/// Row lists shorter than this recount faster through the postings loop
/// than through a row mask: the blocked kernel always touches
/// ~`num_rows / 64` words, so it only wins once the list holds a couple
/// of rows per word. Both optimized algorithms build a pattern's mask
/// only past this length.
pub(crate) fn kernel_min_rows(num_rows: usize) -> usize {
    num_rows.div_ceil(32)
}

/// The row mask of `rows` over `num_rows` records.
fn mask_of(num_rows: usize, rows: &[RowId]) -> BitSet {
    let mut mask = BitSet::new(num_rows);
    for &r in rows {
        mask.insert(r as usize);
    }
    mask
}

/// Sentinel in [`SharedLattice::children`]: the node was never expanded.
const UNEXPANDED: (u32, u32) = (u32::MAX, 0);
/// Sentinel in a per-solve view's shared-node-to-id map: this solve has
/// not numbered the node yet.
const UNSEEN: u32 = u32::MAX;

/// The cost-independent half of the Fig. 3/Fig. 4 lattice: pattern keys,
/// row lists, child lists and parent counts do not depend on the
/// algorithm, the cost function, the budget or the coverage target, so
/// one materialization serves every round or budget guess of a solve
/// and, parked in a [`LatticeStash`], every later CWSC or CMC solve on
/// the same instance (DESIGN.md §17).
///
/// Nodes are numbered in the order they were first materialized, by
/// whichever solve grew the lattice; solves never see these numbers
/// (each solve's view renumbers them). Everything is flat: no per-node
/// allocation, and no masks, costs or per-solve state.
pub(crate) struct SharedLattice {
    pub(crate) keys: Keys,
    /// Number of parents (= specificity) per node: the pending-parents
    /// gating that implements Fig. 4 line 33 without per-check hashing.
    pub(crate) num_parents: Vec<u8>,
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
pub(crate) enum Keys {
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
    pub(crate) fn pattern(&self, g: u32) -> Pattern {
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

    /// The number of wildcard attributes of node `g`: its zero fields,
    /// under packed keys.
    pub(crate) fn wildcards(&self, g: u32) -> usize {
        match self {
            Keys::Packed { fields, keys, .. } => {
                let key = keys[g as usize];
                let zero = |&&(shift, mask): &&(u32, u64)| (key >> shift) & mask == 0;
                fields.iter().filter(zero).count()
            }
            Keys::General { patterns, .. } => patterns[g as usize]
                .values()
                .iter()
                .filter(|v| v.is_none())
                .count(),
        }
    }

    /// Whether `pred` holds for the node of every parent of node `g`, a
    /// parent the lattice does not hold failing it: Fig. 3 line 16's "all
    /// parents of m are in C", stopping at the first failure. Parents
    /// are visited in attribute order.
    ///
    /// A packed parent key is `g`'s key with one non-zero field cleared
    /// (the contract of [`LatticeSpace::packed_key_bits`]), so the check
    /// allocates nothing; general keys ask `space` for the parents of
    /// the stored pattern.
    pub(crate) fn all_parents<S: LatticeSpace>(
        &self,
        space: &S,
        g: u32,
        mut pred: impl FnMut(u32) -> bool,
    ) -> bool {
        match self {
            Keys::Packed { fields, keys, ids } => {
                let key = keys[g as usize];
                fields.iter().all(|&(shift, mask)| {
                    let field = mask << shift;
                    key & field == 0 || ids.find(keys, key & !field).is_ok_and(&mut pred)
                })
            }
            Keys::General { patterns, ids } => space
                .parents(&patterns[g as usize])
                .iter()
                .all(|p| ids.get(p).is_some_and(|&id| pred(id))),
        }
    }

    /// The node of `pattern`, if the lattice holds it. Packed keys OR the
    /// pattern's fields into its key; general keys look the pattern up.
    #[cfg(test)]
    pub(crate) fn find(&self, pattern: &Pattern) -> Option<u32> {
        match self {
            Keys::Packed { fields, keys, ids } => {
                let mut key = 0;
                for (&(shift, mask), v) in fields.iter().zip(pattern.values()) {
                    let field = v.map_or(0, |v| v as u64 + 1);
                    if field > mask {
                        return None; // outside the packed domain
                    }
                    key |= field << shift;
                }
                ids.find(keys, key).ok()
            }
            Keys::General { ids, .. } => ids.get(pattern).copied(),
        }
    }

    /// A key that orders node `g` among the others as its pattern
    /// orders: the packed key itself, or a clone of the general pattern.
    pub(crate) fn order_key(&self, g: u32) -> OrderKey {
        match self {
            Keys::Packed { keys, .. } => OrderKey::Packed(keys[g as usize]),
            Keys::General { patterns, .. } => OrderKey::General(patterns[g as usize].clone()),
        }
    }

    /// Orders nodes `g` and `h` as their patterns order. A packed key
    /// holds attribute 0 in its top field and the wildcard as field 0,
    /// so the integer order is the pattern order.
    pub(crate) fn cmp(&self, g: u32, h: u32) -> Ordering {
        match self {
            Keys::Packed { keys, .. } => keys[g as usize].cmp(&keys[h as usize]),
            Keys::General { patterns, .. } => patterns[g as usize].cmp(&patterns[h as usize]),
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

/// [`Keys::order_key`]: one lattice's keys are all of one variant, so
/// the derived order is the pattern order.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum OrderKey {
    Packed(u64),
    General(Pattern),
}

/// The packed-key dedup map: an open-addressing table of node ids, probed
/// linearly and compared through the key array, so a slot is 4 bytes
/// where a `HashMap<u64, u32>` entry takes 17 — 0.26 MB instead of
/// 1.1 MB for a parked 50k-node lattice.
pub(crate) struct KeyTable {
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
    pub(crate) fn new<S: LatticeSpace>(space: &S) -> SharedLattice {
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
    pub(crate) fn len(&self) -> usize {
        self.num_parents.len()
    }

    /// The row list of node `g`.
    #[inline]
    pub(crate) fn rows_of(&self, g: u32) -> &[RowId] {
        let g = g as usize;
        &self.row_arena[self.row_starts[g] as usize..self.row_starts[g + 1] as usize]
    }

    /// The child nodes of expanded node `g`.
    #[inline]
    pub(crate) fn children_of(&self, g: u32) -> &[u32] {
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
    pub(crate) fn expand<S: LatticeSpace>(
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
        Some((parent_rows.len() * self.keys.wildcards(g)) as u64)
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

/// What a [`View`] keeps per masked id: the row mask, with whatever a
/// walk derives from it once.
pub(crate) trait RowMask {
    fn of(mask: BitSet) -> Self;
}

impl RowMask for BitSet {
    fn of(mask: BitSet) -> Self {
        mask
    }
}

impl RowMask for (BlockSummary, BitSet) {
    fn of(mask: BitSet) -> Self {
        (BlockSummary::of(&mask), mask)
    }
}

/// One solve's view of a [`SharedLattice`]: the solve's own ids for the
/// nodes it meets, a cost per id and lazy row masks.
///
/// A walk numbers a node by [`assign`](View::assign)ing it the next id
/// when it first needs one: Fig. 4 numbers every child at its parent's
/// first expansion, Fig. 3 a node at its first entry into `C`. The ids follow
/// that order alone, not which nodes earlier solves materialized, so a
/// solve on a lattice that earlier solves grew walks, selects and
/// reports exactly as one on a fresh lattice. Each walk keeps its own
/// per-id state beside the view.
pub(crate) struct View<'a, S: LatticeSpace, M> {
    pub(crate) space: &'a S,
    shared: SharedLattice,
    /// `global[id]` = the shared node of id `id`.
    global: Vec<u32>,
    /// `local[g]` = the id of shared node `g`, or [`UNSEEN`].
    local: Vec<u32>,
    /// The cost of each id, computed when the id is assigned.
    costs: Vec<f64>,
    /// Row masks, for the recount kernels. Lazy: only the (few) ids a
    /// recount kernels over pay the `O(num_rows)` bits.
    pub(crate) masks: FxHashMap<u32, M>,
    /// Expansion scratch, reused across expansions.
    scratch: (Vec<RowId>, Vec<u32>),
    /// Set when the solve contained a panic: an expansion may have
    /// stopped halfway, so the shared lattice must not outlive the solve.
    pub(crate) tainted: bool,
}

impl<'a, S: LatticeSpace, M: RowMask> View<'a, S, M> {
    /// The view, with the root as id 0, over the lattice parked in
    /// `stash` or else a fresh one. A parked lattice holds about what the
    /// solve will meet, so the per-id arrays are sized for all of it up
    /// front.
    pub(crate) fn new(space: &'a S, stash: Option<&LatticeStash>) -> Self {
        let shared = stash
            .and_then(LatticeStash::take)
            .unwrap_or_else(|| SharedLattice::new(space));
        let nodes = shared.len();
        let mut view = View {
            space,
            global: Vec::with_capacity(nodes),
            local: vec![UNSEEN; nodes],
            costs: Vec::with_capacity(nodes),
            shared,
            masks: FxHashMap::default(),
            scratch: (Vec::new(), Vec::new()),
            tainted: false,
        };
        view.assign(0);
        view
    }

    /// Number of ids assigned.
    pub(crate) fn len(&self) -> usize {
        self.global.len()
    }

    /// Number of nodes the shared lattice holds.
    pub(crate) fn nodes(&self) -> usize {
        self.shared.len()
    }

    /// The id of shared node `g`, if this solve numbered it.
    pub(crate) fn id_of(&self, g: u32) -> Option<u32> {
        Some(self.local[g as usize]).filter(|&id| id != UNSEEN)
    }

    /// The id of shared node `g`: the one it holds, or else the next
    /// one, costed now.
    #[inline]
    pub(crate) fn assign(&mut self, g: u32) -> u32 {
        let slot = &mut self.local[g as usize];
        if *slot == UNSEEN {
            *slot = self.global.len() as u32;
            self.global.push(g);
            self.costs.push(self.space.cost(self.shared.rows_of(g)));
        }
        *slot
    }

    /// The shared node of `id`.
    pub(crate) fn node(&self, id: u32) -> u32 {
        self.global[id as usize]
    }

    /// The cost of `id`.
    pub(crate) fn cost(&self, id: u32) -> f64 {
        self.costs[id as usize]
    }

    /// The row list of `id`.
    #[inline]
    pub(crate) fn rows_of(&self, id: u32) -> &[RowId] {
        self.rows_of_node(self.node(id))
    }

    /// The row list of shared node `g`.
    pub(crate) fn rows_of_node(&self, g: u32) -> &[RowId] {
        self.shared.rows_of(g)
    }

    /// The pattern of `id`.
    pub(crate) fn pattern(&self, id: u32) -> Pattern {
        self.shared.keys.pattern(self.node(id))
    }

    /// The parent counts of the ids from `from` on, in id order.
    pub(crate) fn num_parents(&self, from: usize) -> impl Iterator<Item = u8> + '_ {
        let counts = &self.shared.num_parents;
        self.global[from..].iter().map(|&g| counts[g as usize])
    }

    /// The keys of the shared nodes.
    pub(crate) fn keys(&self) -> &Keys {
        &self.shared.keys
    }

    /// The shared child nodes of `id`, which [`expand`](View::expand)
    /// has seen.
    pub(crate) fn children(&self, id: u32) -> &[u32] {
        self.shared.children_of(self.node(id))
    }

    /// The row mask of `id`, built on first use.
    pub(crate) fn mask(&mut self, id: u32) -> &M {
        let n = self.space.num_rows();
        let rows = self.shared.rows_of(self.node(id));
        self.masks
            .entry(id)
            .or_insert_with(|| M::of(mask_of(n, rows)))
    }

    /// Expands `id` in the shared lattice (a no-op when cached there)
    /// and makes room to number the nodes it added. With
    /// `assign_children` (Fig. 4's first-encounter numbering) each child
    /// gets an id, in (attribute, value) order. Returns the postings a
    /// real expansion scanned.
    #[inline]
    pub(crate) fn expand(&mut self, id: u32, assign_children: bool) -> Option<u64> {
        let g = self.node(id);
        let postings = self.shared.expand(self.space, g, &mut self.scratch);
        self.local.resize(self.shared.len(), UNSEEN);
        if assign_children {
            for c in 0..self.shared.children_of(g).len() {
                self.assign(self.shared.children_of(g)[c]);
            }
        }
        postings
    }

    /// Ends the solve: the shared lattice goes back to `stash`, if any,
    /// unless the view is tainted.
    pub(crate) fn park(self, stash: Option<&LatticeStash>) {
        if let Some(stash) = stash.filter(|_| !self.tainted) {
            stash.put(self.shared);
        }
    }
}

/// The work a walk counts per pop, expansion or child, reported as
/// totals: Fig. 4 flushes once per budget guess, Fig. 3 once per round
/// phase. Each walk prunes for one [`PruneReason`].
pub(crate) struct Tally {
    reason: PruneReason,
    /// Patterns whose marginal benefit was computed (Fig. 6's metric).
    pub(crate) benefits: u64,
    /// Posting entries scanned by expansions.
    pub(crate) postings: u64,
    /// Children that never entered `C`, their subtrees with them.
    pub(crate) subtrees_pruned: u64,
    /// Candidates that left `C` without being selected.
    pub(crate) candidates_pruned: u64,
    /// Stale heap entries popped (Fig. 4 only).
    pub(crate) stale_pops: u64,
    /// Recounts the pruned refresh skipped or cut short.
    pub(crate) scan_pruned: u64,
    /// Recounts the pruned refresh completed.
    pub(crate) bounds_refreshed: u64,
}

impl Tally {
    pub(crate) fn new(reason: PruneReason) -> Tally {
        Tally {
            reason,
            benefits: 0,
            postings: 0,
            subtrees_pruned: 0,
            candidates_pruned: 0,
            stale_pops: 0,
            scan_pruned: 0,
            bounds_refreshed: 0,
        }
    }

    /// Emits each nonzero total, always in this order, and zeroes it.
    pub(crate) fn flush<O: Observer + ?Sized>(&mut self, obs: &mut O) {
        let reason = self.reason;
        emit(obs, &mut self.benefits, Event::BenefitComputed);
        emit(obs, &mut self.postings, Event::PostingScanned);
        emit(obs, &mut self.subtrees_pruned, |n| {
            Event::SubtreePruned(reason, n)
        });
        emit(obs, &mut self.candidates_pruned, |n| {
            Event::CandidatePruned(reason, n)
        });
        self.flush_stale_pops(obs);
        emit(obs, &mut self.scan_pruned, Event::ScanPruned);
        emit(obs, &mut self.bounds_refreshed, Event::BoundRefreshed);
    }

    /// Emits and zeroes the stale-pop total alone: Fig. 4 does so before
    /// each selection, so every selection's stale run stays its own.
    pub(crate) fn flush_stale_pops<O: Observer + ?Sized>(&mut self, obs: &mut O) {
        emit(obs, &mut self.stale_pops, Event::HeapStalePop);
    }
}

/// Emits `event(total)` and zeroes `total`, unless it is zero.
fn emit<O: Observer + ?Sized>(obs: &mut O, total: &mut u64, event: impl Fn(u64) -> Event<'static>) {
    if *total > 0 {
        obs.on(&event(std::mem::take(total)));
    }
}

/// Where a [`PatternInstance`](crate::PatternInstance) parks its
/// [`SharedLattice`] between CWSC and CMC solves (DESIGN.md §17).
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
    pub(crate) fn take(&self) -> Option<SharedLattice> {
        self.0.lock().unwrap_or_else(PoisonError::into_inner).take()
    }

    /// Parks `lattice` unless a larger one was parked meanwhile.
    pub(crate) fn put(&self, mut lattice: SharedLattice) {
        lattice.shrink_to_fit();
        let mut slot = self.0.lock().unwrap_or_else(PoisonError::into_inner);
        if slot.as_ref().is_none_or(|held| held.len() < lattice.len()) {
            *slot = Some(lattice);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost_fn::CostFn;
    use crate::space::PatternSpace;
    use crate::table::Table;
    use crate::test_util::{entities, GeneralKeys, XorShift};

    fn random_table(rng: &mut XorShift) -> Table {
        let attrs = 1 + rng.below(4) as usize;
        let card = 1 + rng.below(6);
        let names: Vec<String> = (0..attrs).map(|a| format!("a{a}")).collect();
        let refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let mut b = Table::builder(&refs, "m");
        for _ in 0..1 + rng.below(60) {
            let vals: Vec<String> = (0..attrs)
                .map(|_| format!("v{}", rng.below(card)))
                .collect();
            let vals: Vec<&str> = vals.iter().map(String::as_str).collect();
            b.push_row(&vals, rng.below(40) as f64).unwrap();
        }
        b.build()
    }

    /// Grows a lattice by expanding each node, in id order, with
    /// probability `1/spread` (the root always), so some nodes miss
    /// parents the lattice never materialized.
    fn grow<S: LatticeSpace>(space: &S, rng: &mut XorShift, spread: u64) -> SharedLattice {
        let mut lattice = SharedLattice::new(space);
        let mut scratch = (Vec::new(), Vec::new());
        let mut g = 0;
        while g < lattice.len() as u32 {
            if g == 0 || rng.below(spread) == 0 {
                lattice.expand(space, g, &mut scratch);
            }
            g += 1;
        }
        lattice
    }

    /// Checks every node's key-derived parents, wildcard count and order
    /// key against its pattern; returns how many nodes miss a parent.
    fn check_keys<S: LatticeSpace>(space: &S, lattice: &SharedLattice) -> usize {
        let keys = &lattice.keys;
        let mut orphans = 0;
        for g in 0..lattice.len() as u32 {
            let pattern = keys.pattern(g);
            let expected: Vec<Option<u32>> = space
                .parents(&pattern)
                .iter()
                .map(|p| keys.find(p))
                .collect();
            let mut visited = Vec::new();
            let all = keys.all_parents(space, g, |p| {
                visited.push(p);
                true
            });
            // The walk stops at the first parent the lattice lacks.
            let present: Vec<u32> = expected.iter().map_while(|&p| p).collect();
            assert_eq!(all, present.len() == expected.len(), "node {pattern:?}");
            orphans += usize::from(!all);
            assert_eq!(visited, present, "node {pattern:?}");
            let wildcards = pattern.num_attrs() - pattern.specificity();
            assert_eq!(keys.wildcards(g), wildcards, "node {pattern:?}");
            if g > 0 {
                let by_key = keys.order_key(g - 1).cmp(&keys.order_key(g));
                assert_eq!(by_key, keys.pattern(g - 1).cmp(&pattern));
                assert_eq!(keys.cmp(g - 1, g), by_key);
            }
        }
        orphans
    }

    /// The parents Fig. 3 line 16 derives from a packed key (one field
    /// cleared) are the space's parents, found through the lattice, on
    /// lattices grown whole and in part; general keys agree on the same
    /// growth.
    #[test]
    fn key_derived_parents_are_the_space_parents() {
        let mut rng = XorShift::new(17);
        let mut orphans = 0;
        for round in 0..200 {
            let table = random_table(&mut rng);
            let space = PatternSpace::new(&table, CostFn::Max);
            let spread = 1 + round % 3;
            let packed = grow(&space, &mut rng.clone(), spread);
            assert!(matches!(packed.keys, Keys::Packed { .. }));
            let packed_orphans = check_keys(&space, &packed);
            let unpacked = GeneralKeys(PatternSpace::new(&table, CostFn::Max));
            let general = grow(&unpacked, &mut rng, spread);
            assert!(matches!(general.keys, Keys::General { .. }));
            assert_eq!(general.len(), packed.len(), "same growth, same nodes");
            assert_eq!(check_keys(&unpacked, &general), packed_orphans);
            orphans += packed_orphans;
        }
        assert!(
            orphans > 0,
            "some nodes miss a parent the lattice never grew"
        );
    }

    /// Numbers nodes the way Fig. 4 does (every child at its parent's
    /// first expansion) or the way Fig. 3 does (children the walk picks:
    /// here every other one, last first, which under Fig. 4's order
    /// already hold ids), expanding each id with probability 1/2; returns
    /// each id's pattern and cost.
    fn number<S: LatticeSpace>(
        mut view: View<'_, S, BitSet>,
        mut rng: XorShift,
        at_expansion: bool,
    ) -> Vec<(Pattern, f64)> {
        let mut id = 0;
        while id < view.len() as u32 {
            if id == 0 || rng.below(2) == 0 {
                view.expand(id, at_expansion);
                for child in view.children(id).to_vec().into_iter().rev().step_by(2) {
                    view.assign(child);
                }
            }
            id += 1;
        }
        let ids = 0..view.len() as u32;
        ids.map(|id| (view.pattern(id), view.cost(id))).collect()
    }

    /// A view over a lattice that earlier solves grew assigns each node
    /// the id a view over a fresh lattice does, in both numbering orders;
    /// a tainted view does not park its lattice.
    #[test]
    fn a_view_numbers_a_grown_lattice_as_a_fresh_one() {
        let mut rng = XorShift::new(29);
        let stash = LatticeStash::default();
        for round in 0..100 {
            let table = random_table(&mut rng);
            let space = PatternSpace::new(&table, CostFn::Sum);
            let spread = 1 + round % 3;
            for at_expansion in [true, false] {
                stash.put(grow(&space, &mut rng.clone(), spread));
                let walk = XorShift::new(rng.next_u64());
                let expected = number(View::new(&space, None), walk.clone(), at_expansion);
                let grown = View::new(&space, Some(&stash));
                assert_eq!(number(grown, walk, at_expansion), expected);
            }
        }
        let table = entities();
        let space = PatternSpace::new(&table, CostFn::Max);
        for tainted in [true, false] {
            let mut view: View<'_, _, BitSet> = View::new(&space, None);
            view.tainted = tainted;
            view.park(Some(&stash));
            assert_eq!(stash.take().is_some(), !tainted, "tainted {tainted}");
        }
    }

    /// A node assigned again keeps its id and its cost: Fig. 3's
    /// re-entry into `C`.
    #[test]
    fn reassigning_a_node_keeps_its_id_and_cost() {
        let table = entities();
        let space = PatternSpace::new(&table, CostFn::Max);
        let mut view: View<'_, _, BitSet> = View::new(&space, None);
        view.expand(0, false);
        let child = view.children(0)[0];
        assert_eq!(view.id_of(child), None);
        let id = view.assign(child);
        let cost = view.cost(id);
        assert_eq!(view.assign(child), id, "same id revived");
        assert_eq!((view.len(), view.cost(id)), (2, cost));
    }
}
