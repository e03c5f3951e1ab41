//! The pattern search space: table + inverted index + cost function.
//!
//! [`PatternSpace`] is what the optimized algorithms of Section V-C walk:
//! it hands out the all-wildcards root, computes benefit sets on demand,
//! evaluates pattern weights, and enumerates the *non-empty* children of a
//! pattern by bucketing the parent's benefit set (a child's benefit set is
//! exactly the parent's rows having the child's extra value, so expansion
//! never rescans the table).

use crate::cost_fn::CostFn;
use crate::dictionary::ValueId;
use crate::index::InvertedIndex;
use crate::pattern::Pattern;
use crate::table::{RowId, Table};

/// The `(attribute, value)` specialization step from `parent` to its
/// direct child `child`: the one attribute where a wildcard was filled
/// in — or, in hierarchy-enriched lattices, where an already-set value
/// was refined to a deeper node.
fn child_step(parent: &Pattern, child: &Pattern) -> (usize, ValueId) {
    parent
        .values()
        .iter()
        .zip(child.values())
        .enumerate()
        .find_map(|(attr, (p, c))| match (p, c) {
            (None, Some(v)) => Some((attr, *v)),
            (Some(p), Some(v)) if p != v => Some((attr, *v)),
            _ => None,
        })
        .expect("child refines exactly one parent attribute")
}

/// Callback for [`LatticeSpace::for_each_child`]: receives the
/// `(attribute, value)` step, the child pattern, and its benefit rows.
pub type ChildVisitor<'a> = dyn FnMut(usize, ValueId, &Pattern, &[RowId]) + 'a;

/// The lattice operations the optimized algorithms (Figures 3–4) need.
///
/// Implemented by [`PatternSpace`] (the paper's flat pattern cube) and by
/// [`HierarchicalSpace`](crate::hierarchy::HierarchicalSpace) (the §II
/// tree-hierarchy extension). Requirements on implementors:
///
/// * benefit is anti-monotone: `Ben(child) ⊆ Ben(parent)`;
/// * [`LatticeSpace::children_with_rows`] returns each non-empty child of
///   a pattern exactly once, with its exact benefit rows (sorted), in a
///   deterministic order;
/// * [`LatticeSpace::parents`] returns the patterns whose child the
///   argument is, each of which is non-empty whenever the argument is.
pub trait LatticeSpace {
    /// The underlying table.
    fn table(&self) -> &Table;

    /// Number of records `n = |T|`.
    fn num_rows(&self) -> usize {
        self.table().num_rows()
    }

    /// The all-wildcards pattern (covers every record).
    fn root(&self) -> Pattern;

    /// The root's benefit rows (all of `0..n`).
    fn root_rows(&self) -> Vec<RowId> {
        (0..self.num_rows() as RowId).collect()
    }

    /// `Cost(p)` given its benefit rows.
    fn cost(&self, rows: &[RowId]) -> f64;

    /// The non-empty children of `pattern` with their benefit sets.
    fn children_with_rows(
        &self,
        pattern: &Pattern,
        parent_rows: &[RowId],
    ) -> Vec<(Pattern, Vec<RowId>)>;

    /// Visits each non-empty child with its benefit rows, in exactly the
    /// order `children_with_rows` returns them, without requiring an
    /// owned `Vec` per child. The callback also receives the
    /// `(attribute, value)` step that produced the child from the
    /// parent, letting callers with packed pattern keys derive the
    /// child's key from the parent's in O(1). Lattice caches use this
    /// to skip the row copy for children they already hold: in a
    /// diamond-shaped lattice most children are reached from several
    /// parents, and the `children_with_rows` path materializes (and
    /// then drops) a fresh row vector for every duplicate encounter.
    fn for_each_child(&self, pattern: &Pattern, parent_rows: &[RowId], f: &mut ChildVisitor<'_>) {
        for (child, rows) in self.children_with_rows(pattern, parent_rows) {
            let (attr, value) = child_step(pattern, &child);
            f(attr, value, &child, &rows);
        }
    }

    /// The parents of `pattern` in the lattice.
    fn parents(&self, pattern: &Pattern) -> Vec<Pattern>;

    /// `parents(pattern).len()` without necessarily materializing the
    /// parents. Spaces whose parent count is known in closed form
    /// (both shipped spaces produce exactly one parent per non-wildcard
    /// attribute) override this to skip the allocation — it runs once
    /// per materialized lattice node.
    fn num_parents(&self, pattern: &Pattern) -> usize {
        self.parents(pattern).len()
    }

    /// Per-attribute bit widths under which every pattern of this space
    /// packs injectively into one `u64` (field `value_id + 1`, wildcard
    /// `0`), or `None` when the value domain is unbounded or too wide.
    /// Lattice caches use this to key their dedup maps by integer
    /// instead of hashing boxed pattern slices on every child visit.
    fn packed_key_bits(&self) -> Option<Vec<u32>> {
        None
    }

    /// `Ben(p)` — used by verification and display, not by the solvers
    /// (they only ever bucket parent rows).
    fn benefit(&self, pattern: &Pattern) -> Vec<RowId>;
}

/// Lattice navigation handle over one table.
///
/// The inverted index is behind an [`Arc`](std::sync::Arc) so long-lived holders (the
/// serving layer's `PatternInstance`) can build it once and stamp out a
/// cheap per-query `PatternSpace` — same table, same index, per-query
/// cost function — via [`PatternSpace::with_index`].
pub struct PatternSpace<'a> {
    table: &'a Table,
    index: std::sync::Arc<InvertedIndex>,
    cost_fn: CostFn,
}

impl LatticeSpace for PatternSpace<'_> {
    fn table(&self) -> &Table {
        self.table
    }

    fn root(&self) -> Pattern {
        PatternSpace::root(self)
    }

    fn cost(&self, rows: &[RowId]) -> f64 {
        PatternSpace::cost(self, rows)
    }

    fn children_with_rows(
        &self,
        pattern: &Pattern,
        parent_rows: &[RowId],
    ) -> Vec<(Pattern, Vec<RowId>)> {
        PatternSpace::children_with_rows(self, pattern, parent_rows)
    }

    fn for_each_child(&self, pattern: &Pattern, parent_rows: &[RowId], f: &mut ChildVisitor<'_>) {
        PatternSpace::for_each_child(self, pattern, parent_rows, f)
    }

    fn parents(&self, pattern: &Pattern) -> Vec<Pattern> {
        pattern.parents()
    }

    fn num_parents(&self, pattern: &Pattern) -> usize {
        // One parent per non-wildcard attribute (re-wildcard it).
        pattern.specificity()
    }

    fn packed_key_bits(&self) -> Option<Vec<u32>> {
        let bits: Vec<u32> = (0..self.table.num_attrs())
            .map(|attr| {
                // Field holds value_id + 1 in [1, len]; 0 is the wildcard.
                let len = self.table.dictionary(attr).len() as u64;
                u64::BITS - len.leading_zeros()
            })
            .collect();
        (bits.iter().sum::<u32>() <= u64::BITS).then_some(bits)
    }

    fn benefit(&self, pattern: &Pattern) -> Vec<RowId> {
        PatternSpace::benefit(self, pattern)
    }
}

impl<'a> PatternSpace<'a> {
    /// Builds the inverted index and wraps the table.
    pub fn new(table: &'a Table, cost_fn: CostFn) -> PatternSpace<'a> {
        PatternSpace {
            table,
            index: std::sync::Arc::new(InvertedIndex::build(table)),
            cost_fn,
        }
    }

    /// Wraps the table around an already-built index — O(1), no scan.
    /// The index must have been built from this same table.
    pub fn with_index(
        table: &'a Table,
        index: std::sync::Arc<InvertedIndex>,
        cost_fn: CostFn,
    ) -> PatternSpace<'a> {
        PatternSpace {
            table,
            index,
            cost_fn,
        }
    }

    /// A shareable handle to the inverted index, for constructing further
    /// spaces over the same table without re-indexing.
    pub fn index_handle(&self) -> std::sync::Arc<InvertedIndex> {
        std::sync::Arc::clone(&self.index)
    }

    /// The underlying table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// The cost function in use.
    pub fn cost_fn(&self) -> CostFn {
        self.cost_fn
    }

    /// The all-wildcards pattern (covers every record).
    pub fn root(&self) -> Pattern {
        Pattern::all_wildcards(self.table.num_attrs())
    }

    /// `Ben(p)` as sorted row ids.
    pub fn benefit(&self, pattern: &Pattern) -> Vec<RowId> {
        self.index.benefit(pattern)
    }

    /// `Cost(p)` given its benefit rows (callers always have them at hand).
    pub fn cost(&self, rows: &[RowId]) -> f64 {
        self.cost_fn.evaluate(self.table, rows)
    }

    /// The non-empty children of `pattern` with their benefit sets, in
    /// deterministic `(attribute, value)` order. Builds on
    /// [`PatternSpace::for_each_child`]; callers that cache patterns
    /// (and so mostly re-encounter children they already hold) should
    /// use the visitor directly and skip these per-child allocations.
    pub fn children_with_rows(
        &self,
        pattern: &Pattern,
        parent_rows: &[RowId],
    ) -> Vec<(Pattern, Vec<RowId>)> {
        let mut out = Vec::new();
        self.for_each_child(pattern, parent_rows, &mut |_, _, child, rows| {
            out.push((child.clone(), rows.to_vec()));
        });
        out
    }

    /// Visits the non-empty children of `pattern` with their benefit
    /// rows, computed by partitioning `parent_rows` (which must be
    /// `Ben(pattern)`). Children arrive in deterministic
    /// `(attribute, value)` order; each child's rows stay sorted because
    /// sorting the `(value, row)` pairs orders rows ascending within
    /// each value run — the same order bucketing the (sorted) parent
    /// rows produced. Two reused buffers and one in-place child cursor
    /// replace the per-value hash-map buckets the first version used:
    /// this runs on every lattice expansion, and the per-child
    /// allocations dominated the expansion profile.
    pub fn for_each_child(
        &self,
        pattern: &Pattern,
        parent_rows: &[RowId],
        f: &mut ChildVisitor<'_>,
    ) {
        // Stack offset buffers cover every realistic dictionary; wider
        // domains spill to the heap once per call.
        const STACK_CARD: usize = 256;
        let mut child = pattern.clone(); // reusable cursor
                                         // Counting-sort scratch, reused across attributes: `sorted`
                                         // holds the rows grouped by value, `starts` the exclusive
                                         // prefix offsets, `cursor` the scatter positions.
        let mut sorted: Vec<RowId> = vec![0; parent_rows.len()];
        let mut starts_buf = [0u32; STACK_CARD + 1];
        let mut cursor_buf = [0u32; STACK_CARD];
        let mut starts_heap: Vec<u32> = Vec::new();
        let mut cursor_heap: Vec<u32> = Vec::new();
        for attr in 0..pattern.num_attrs() {
            if pattern.get(attr).is_some() {
                continue; // not a wildcard: cannot specialize here
            }
            let column = self.table.column(attr);
            let card = self.table.dictionary(attr).len();
            let (starts, cursor) = if card <= STACK_CARD {
                starts_buf[..=card].fill(0);
                (&mut starts_buf[..=card], &mut cursor_buf[..card])
            } else {
                starts_heap.clear();
                starts_heap.resize(card + 1, 0);
                cursor_heap.resize(card, 0);
                (&mut starts_heap[..], &mut cursor_heap[..])
            };
            // Group by value in two O(n + card) passes. The scatter walks
            // `parent_rows` in (ascending) order, so each value's run
            // stays sorted — the same order bucketing produced.
            for &row in parent_rows {
                starts[column[row as usize] as usize + 1] += 1;
            }
            for v in 0..card {
                starts[v + 1] += starts[v];
            }
            cursor.copy_from_slice(&starts[..card]);
            for &row in parent_rows {
                let v = column[row as usize] as usize;
                sorted[cursor[v] as usize] = row;
                cursor[v] += 1;
            }
            for value in 0..card {
                let (lo, hi) = (starts[value] as usize, starts[value + 1] as usize);
                if lo == hi {
                    continue; // value absent from the parent: empty child
                }
                child.set(attr, Some(value as u32));
                f(attr, value as u32, &child, &sorted[lo..hi]);
            }
            child.set(attr, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> Table {
        let mut b = Table::builder(&["Type", "Location"], "Cost");
        for (t, l, c) in [
            ("A", "West", 10.0),
            ("B", "South", 2.0),
            ("B", "West", 4.0),
            ("B", "South", 1.0),
        ] {
            b.push_row(&[t, l], c).unwrap();
        }
        b.build()
    }

    #[test]
    fn root_covers_all_rows() {
        let t = table();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let root = sp.root();
        assert!(root.is_root());
        assert_eq!(sp.benefit(&root), vec![0, 1, 2, 3]);
        assert_eq!(sp.cost(&sp.benefit(&root)), 10.0);
    }

    #[test]
    fn children_partition_parent_rows_per_attribute() {
        let t = table();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let root = sp.root();
        let rows = sp.benefit(&root);
        let children = sp.children_with_rows(&root, &rows);
        // Type: A, B; Location: West, South -> 4 children
        assert_eq!(children.len(), 4);
        for (child, child_rows) in &children {
            assert_eq!(child.specificity(), 1);
            assert_eq!(&sp.benefit(child), child_rows, "{}", child.display(&t));
            assert!(child_rows.windows(2).all(|w| w[0] < w[1]), "sorted");
        }
        // Per attribute, the children partition the parent's rows.
        let type_rows: usize = children
            .iter()
            .filter(|(c, _)| c.get(0).is_some())
            .map(|(_, r)| r.len())
            .sum();
        assert_eq!(type_rows, 4);
    }

    #[test]
    fn children_of_specific_pattern_only_fill_wildcards() {
        let t = table();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let b = t.dictionary(0).lookup("B").unwrap();
        let p = Pattern::new(vec![Some(b), None]);
        let rows = sp.benefit(&p);
        assert_eq!(rows, vec![1, 2, 3]);
        let children = sp.children_with_rows(&p, &rows);
        // Only Location can specialize: {B,South} and {B,West}.
        assert_eq!(children.len(), 2);
        assert!(children.iter().all(|(c, _)| c.get(0) == Some(b)));
        let souths: Vec<_> = children
            .iter()
            .filter(|(c, _)| c.display(&t).contains("South"))
            .collect();
        assert_eq!(souths.len(), 1);
        assert_eq!(souths[0].1, vec![1, 3]);
    }

    #[test]
    fn leaf_pattern_has_no_children() {
        let t = table();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let p = Pattern::of_row(&t, 0);
        let rows = sp.benefit(&p);
        assert!(sp.children_with_rows(&p, &rows).is_empty());
    }

    #[test]
    fn cost_uses_configured_function() {
        let t = table();
        let sp = PatternSpace::new(&t, CostFn::Sum);
        let rows = sp.benefit(&sp.root());
        assert_eq!(sp.cost(&rows), 17.0);
        assert_eq!(sp.cost_fn(), CostFn::Sum);
    }

    #[test]
    fn children_order_is_deterministic() {
        let t = table();
        let sp = PatternSpace::new(&t, CostFn::Max);
        let root = sp.root();
        let rows = sp.benefit(&root);
        let a = sp.children_with_rows(&root, &rows);
        let b = sp.children_with_rows(&root, &rows);
        assert_eq!(a, b);
    }
}
