//! Full-cube pattern enumeration — the *unoptimized* path.
//!
//! The general algorithms of Section V expect the whole set collection up
//! front; for patterned sets that means materializing every pattern with a
//! non-empty benefit set (all `2^j` generalizations of every record). This
//! is exactly what the paper's unoptimized CMC/CWSC baselines do and what
//! Figures 5–6 show blowing up — the optimized algorithms in
//! [`crate::opt_cwsc()`]/[`crate::opt_cmc()`] exist to avoid it.

use crate::cost_fn::CostFn;
use crate::fxhash::FxHashMap;
use crate::pattern::Pattern;
use crate::table::{RowId, Table};
use scwsc_core::{SetSystem, Solution};

/// Practical cap on `2^j` enumeration.
const MAX_ATTRS: usize = 16;

/// Every non-empty pattern of a table, materialized as a [`SetSystem`].
///
/// Pattern `i` of [`MaterializedPatterns::patterns`] is set id `i` of
/// [`MaterializedPatterns::system`]; patterns are sorted so ids are stable
/// across runs (and so the core algorithms' id-order tie-breaking matches
/// the optimized algorithms' pattern-order tie-breaking).
#[derive(Debug, Clone)]
pub struct MaterializedPatterns {
    /// All non-empty patterns, sorted.
    pub patterns: Vec<Pattern>,
    /// The corresponding weighted set system over row ids.
    pub system: SetSystem,
}

impl MaterializedPatterns {
    /// Resolves a solution's set ids back to patterns.
    pub fn solution_patterns(&self, solution: &Solution) -> Vec<&Pattern> {
        solution
            .sets()
            .iter()
            .map(|&id| &self.patterns[id as usize])
            .collect()
    }

    /// Number of materialized patterns.
    pub fn num_patterns(&self) -> usize {
        self.patterns.len()
    }

    /// Finds the set id of a pattern, if it is non-empty.
    pub fn id_of(&self, pattern: &Pattern) -> Option<u32> {
        self.patterns.binary_search(pattern).ok().map(|i| i as u32)
    }
}

/// Materializes every pattern with at least one matching record, plus the
/// all-wildcards pattern (so Definition 1's universe-set requirement holds
/// even for an empty table), weighing each with `cost_fn`.
///
/// # Panics
/// Panics if the table has more than 16 pattern attributes (the `2^j`
/// blow-up is the point of the optimized algorithms; 16 is far beyond the
/// paper's 5-attribute workload).
pub fn enumerate_all(table: &Table, cost_fn: CostFn) -> MaterializedPatterns {
    let j = table.num_attrs();
    assert!(
        j <= MAX_ATTRS,
        "full-cube enumeration over {j} attributes would create 2^{j} patterns per record"
    );
    let masks = 1u32 << j;
    let mut ben: FxHashMap<Pattern, Vec<RowId>> = FxHashMap::default();
    let mut scratch: Vec<Option<u32>> = vec![None; j];
    for row in 0..table.num_rows() as RowId {
        for mask in 0..masks {
            for (attr, slot) in scratch.iter_mut().enumerate() {
                *slot = (mask >> attr & 1 == 1).then(|| table.value(row, attr));
            }
            ben.entry(Pattern::new(scratch.clone()))
                .or_default()
                .push(row);
        }
    }
    materialize(table.num_rows(), j, ben, |rows| {
        cost_fn.evaluate(table, rows)
    })
}

/// The tail both full-lattice enumerations share: adds the root (missing
/// only for an empty table) to the benefit sets `ben`, sorts the patterns
/// so set ids are stable, and weighs each with `cost`. Row lists must be
/// sorted and duplicate-free: each record adds each generalization once.
pub(crate) fn materialize(
    num_rows: usize,
    num_attrs: usize,
    mut ben: FxHashMap<Pattern, Vec<RowId>>,
    cost: impl Fn(&[RowId]) -> f64,
) -> MaterializedPatterns {
    ben.entry(Pattern::all_wildcards(num_attrs)).or_default();
    let mut patterns: Vec<Pattern> = ben.keys().cloned().collect();
    patterns.sort_unstable();
    let mut builder = SetSystem::builder(num_rows);
    for p in &patterns {
        let rows = &ben[p];
        builder.add_set(rows.iter().copied(), cost(rows));
    }
    let system = builder
        .build()
        .expect("row ids are in range and costs are finite by construction");
    MaterializedPatterns { patterns, system }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scwsc_core::{algorithms, Deadline, NoopObserver};

    /// 3 rows over 2 attributes with 2 distinct values each.
    fn table() -> Table {
        let mut b = Table::builder(&["Type", "Location"], "Cost");
        b.push_row(&["A", "West"], 10.0).unwrap();
        b.push_row(&["B", "South"], 2.0).unwrap();
        b.push_row(&["B", "West"], 4.0).unwrap();
        b.build()
    }

    #[test]
    fn enumerates_exactly_the_nonempty_patterns() {
        let t = table();
        let m = enumerate_all(&t, CostFn::Max);
        // patterns: root; A*, B*; *West, *South; AW, BS, BW  -> 8
        assert_eq!(m.num_patterns(), 8);
        assert!(m.system.has_universe_set());
        // A/South does not occur
        let a = t.dictionary(0).lookup("A").unwrap();
        let south = t.dictionary(1).lookup("South").unwrap();
        assert!(m.id_of(&Pattern::new(vec![Some(a), Some(south)])).is_none());
    }

    #[test]
    fn benefits_and_costs_match_definitions() {
        let t = table();
        let m = enumerate_all(&t, CostFn::Max);
        let b = t.dictionary(0).lookup("B").unwrap();
        let id = m.id_of(&Pattern::new(vec![Some(b), None])).unwrap();
        assert_eq!(m.system.members(id), &[1, 2]);
        assert_eq!(m.system.cost(id).value(), 4.0);
        let root_id = m.id_of(&Pattern::all_wildcards(2)).unwrap();
        assert_eq!(m.system.members(root_id).len(), 3);
        assert_eq!(m.system.cost(root_id).value(), 10.0);
    }

    #[test]
    fn empty_table_still_has_root() {
        let t = Table::builder(&["X", "Y"], "m").build();
        let m = enumerate_all(&t, CostFn::Max);
        assert_eq!(m.num_patterns(), 1);
        assert!(m.patterns[0].is_root());
        assert_eq!(m.system.cost(0).value(), 0.0);
    }

    #[test]
    fn ids_are_sorted_pattern_order() {
        let m = enumerate_all(&table(), CostFn::Max);
        for w in m.patterns.windows(2) {
            assert!(w[0] < w[1]);
        }
        for (i, p) in m.patterns.iter().enumerate() {
            assert_eq!(m.id_of(p), Some(i as u32));
        }
    }

    #[test]
    fn unoptimized_cwsc_runs_on_materialization() {
        let t = table();
        let m = enumerate_all(&t, CostFn::Max);
        let sol = algorithms::cwsc(&m.system, 2, 1.0, &Deadline::unbounded(), &mut NoopObserver)
            .unwrap()
            .expect_complete("unbounded deadline");
        assert_eq!(sol.covered(), 3);
        assert!(sol.size() <= 2);
        let pats = m.solution_patterns(&sol);
        assert_eq!(pats.len(), sol.size());
    }

    #[test]
    fn duplicate_rows_share_patterns() {
        let mut b = Table::builder(&["X"], "m");
        b.push_row(&["a"], 1.0).unwrap();
        b.push_row(&["a"], 2.0).unwrap();
        let t = b.build();
        let m = enumerate_all(&t, CostFn::Max);
        // root and {a}
        assert_eq!(m.num_patterns(), 2);
        let a = t.dictionary(0).lookup("a").unwrap();
        let id = m.id_of(&Pattern::new(vec![Some(a)])).unwrap();
        assert_eq!(m.system.members(id), &[0, 1]);
        assert_eq!(m.system.cost(id).value(), 2.0);
    }

    #[test]
    #[should_panic(expected = "full-cube")]
    fn too_many_attributes_rejected() {
        let names: Vec<String> = (0..17).map(|i| format!("a{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let t = Table::builder(&name_refs, "m").build();
        enumerate_all(&t, CostFn::Max);
    }
}
