//! Attribute tree hierarchies — the §II extension the paper leaves open
//! ("Attribute tree hierarchies or numerical ranges may be used as well,
//! but are not considered in this paper").
//!
//! A [`Hierarchy`] organizes one attribute's active domain into a tree:
//! leaves are the dictionary's values, internal nodes are named groupings
//! (e.g. `West/Northwest/Southwest → "WestCoast"`), and the implicit root
//! is `ALL`. Patterns may then use internal nodes as values, covering
//! every record whose leaf value descends from the node. Benefit stays
//! anti-monotone along the enriched lattice, so the same candidate-pruning
//! ideas apply; [`HierarchicalSpace`] exposes the enriched
//! root/children/benefit operations, and
//! [`opt_cwsc`](crate::opt_cwsc::opt_cwsc) and
//! [`opt_cmc`](crate::opt_cmc::opt_cmc) run the Figure 3 and Figure 4
//! algorithms over them.
//!
//! Numeric attributes are handled by binning (see [`bin_numeric`]) plus a
//! dyadic range hierarchy over the bins, which realizes the paper's
//! "numerical ranges" remark.

use crate::cost_fn::CostFn;
use crate::dictionary::ValueId;
use crate::pattern::Pattern;
use crate::space::{ChildVisitor, LatticeSpace};
use crate::table::{RowId, Table};
#[cfg(test)]
use scwsc_core::BitSet;

/// Node id within a [`Hierarchy`]. Ids `0..num_leaves` are the attribute's
/// dictionary value ids; higher ids are internal nodes.
pub type NodeId = u32;

/// A tree over one attribute's active domain.
#[derive(Debug, Clone)]
pub struct Hierarchy {
    names: Vec<String>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    num_leaves: usize,
}

/// Errors raised while building a [`Hierarchy`].
#[derive(Debug, Clone, PartialEq)]
pub enum HierarchyError {
    /// A group referenced an unknown member node.
    UnknownMember(String),
    /// A node was assigned two parents.
    AlreadyGrouped(String),
}

impl std::fmt::Display for HierarchyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            HierarchyError::UnknownMember(name) => write!(f, "unknown member {name:?}"),
            HierarchyError::AlreadyGrouped(name) => {
                write!(f, "{name:?} already belongs to a group")
            }
        }
    }
}

impl std::error::Error for HierarchyError {}

impl Hierarchy {
    /// The trivial hierarchy: every leaf sits directly under `ALL`
    /// (equivalent to the paper's flat pattern semantics).
    pub fn flat(leaf_names: &[&str]) -> Hierarchy {
        Hierarchy {
            names: leaf_names.iter().map(|s| (*s).to_owned()).collect(),
            parent: vec![None; leaf_names.len()],
            children: vec![Vec::new(); leaf_names.len()],
            num_leaves: leaf_names.len(),
        }
    }

    /// Adds an internal node grouping existing nodes (leaves or earlier
    /// groups). Members must not already have a parent.
    pub fn add_group(&mut self, name: &str, members: &[&str]) -> Result<NodeId, HierarchyError> {
        let id = self.names.len() as NodeId;
        let mut member_ids = Vec::with_capacity(members.len());
        for m in members {
            let mid = self
                .names
                .iter()
                .position(|n| n == m)
                .ok_or_else(|| HierarchyError::UnknownMember((*m).to_owned()))?
                as NodeId;
            if self.parent[mid as usize].is_some() {
                return Err(HierarchyError::AlreadyGrouped((*m).to_owned()));
            }
            member_ids.push(mid);
        }
        self.names.push(name.to_owned());
        self.parent.push(None);
        self.children.push(member_ids.clone());
        for mid in member_ids {
            self.parent[mid as usize] = Some(id);
        }
        Ok(id)
    }

    /// Number of leaves (= the attribute's active-domain size).
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Total number of nodes (leaves + groups).
    pub fn num_nodes(&self) -> usize {
        self.names.len()
    }

    /// The display name of a node.
    pub fn name(&self, node: NodeId) -> &str {
        &self.names[node as usize]
    }

    /// Direct children of a node (empty for leaves).
    pub fn children(&self, node: NodeId) -> &[NodeId] {
        &self.children[node as usize]
    }

    /// Parent of a node (`None` for nodes directly under `ALL`).
    pub fn parent(&self, node: NodeId) -> Option<NodeId> {
        self.parent[node as usize]
    }

    /// Nodes directly under the implicit `ALL` root.
    pub fn top_nodes(&self) -> Vec<NodeId> {
        (0..self.num_nodes() as NodeId)
            .filter(|&n| self.parent[n as usize].is_none())
            .collect()
    }

    /// Whether `leaf` descends from (or equals) `node`.
    pub fn descends(&self, leaf: ValueId, node: NodeId) -> bool {
        let mut cur = Some(leaf);
        while let Some(c) = cur {
            if c == node {
                return true;
            }
            cur = self.parent[c as usize];
        }
        false
    }

    /// The ancestor of `leaf` that is a **direct child** of `node`, i.e.
    /// the bucket `leaf` falls into when specializing `node` one level.
    /// `node == None` means the `ALL` root. Returns `None` when `leaf`
    /// does not descend through `node`.
    pub fn child_toward(&self, leaf: ValueId, node: Option<NodeId>) -> Option<NodeId> {
        let mut cur = leaf;
        loop {
            match (self.parent[cur as usize], node) {
                (p, Some(target)) if p == Some(target) => return Some(cur),
                (None, None) => return Some(cur),
                (Some(p), _) => cur = p,
                (None, Some(_)) => return None,
            }
        }
    }
}

/// Bins a numeric column into `bins` equi-width buckets, returning the
/// per-row bin labels and a dyadic range [`Hierarchy`] over them — the
/// paper's "numerical ranges" as patterns.
///
/// # Panics
/// Panics if `bins == 0` or the values are empty/non-finite.
pub fn bin_numeric(values: &[f64], bins: usize) -> (Vec<String>, Hierarchy) {
    assert!(bins > 0, "need at least one bin");
    assert!(!values.is_empty(), "need at least one value");
    assert!(
        values.iter().all(|v| v.is_finite()),
        "values must be finite"
    );
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| {
            (lo.min(v), hi.max(v))
        });
    let width = ((max - min) / bins as f64).max(f64::MIN_POSITIVE);
    let labels: Vec<String> = (0..bins)
        .map(|i| {
            format!(
                "[{:.3},{:.3})",
                min + i as f64 * width,
                min + (i + 1) as f64 * width
            )
        })
        .collect();
    let per_row: Vec<String> = values
        .iter()
        .map(|&v| {
            let bin = (((v - min) / width) as usize).min(bins - 1);
            labels[bin].clone()
        })
        .collect();
    // Dyadic merge: pair adjacent nodes level by level.
    let refs: Vec<&str> = labels.iter().map(String::as_str).collect();
    let mut h = Hierarchy::flat(&refs);
    let mut level: Vec<(NodeId, String)> = labels
        .iter()
        .enumerate()
        .map(|(i, l)| (i as NodeId, l.clone()))
        .collect();
    while level.len() > 2 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        for pair in level.chunks(2) {
            if pair.len() == 2 {
                let name = format!("{}∪{}", pair[0].1, pair[1].1);
                let id = h
                    .add_group(&name, &[&pair[0].1, &pair[1].1])
                    .expect("freshly built nodes are ungrouped");
                next.push((id, name));
            } else {
                next.push(pair[0].clone());
            }
        }
        level = next;
    }
    (per_row, h)
}

/// A pattern space enriched with per-attribute hierarchies. Pattern values
/// are [`NodeId`]s (leaves or internal nodes); `None` is still `ALL`.
pub struct HierarchicalSpace<'a> {
    table: &'a Table,
    hierarchies: Vec<Hierarchy>,
    cost_fn: CostFn,
}

impl<'a> HierarchicalSpace<'a> {
    /// Wraps a table with one hierarchy per attribute.
    ///
    /// # Panics
    /// Panics if the hierarchy count or leaf counts do not match the
    /// table's attributes/dictionaries.
    pub fn new(table: &'a Table, hierarchies: Vec<Hierarchy>, cost_fn: CostFn) -> Self {
        assert_eq!(
            hierarchies.len(),
            table.num_attrs(),
            "one hierarchy per attribute"
        );
        for (attr, h) in hierarchies.iter().enumerate() {
            assert_eq!(
                h.num_leaves(),
                table.dictionary(attr).len(),
                "hierarchy leaves must match attribute {attr}'s domain"
            );
        }
        HierarchicalSpace {
            table,
            hierarchies,
            cost_fn,
        }
    }

    /// Flat hierarchies everywhere: behaves exactly like [`PatternSpace`].
    ///
    /// [`PatternSpace`]: crate::space::PatternSpace
    pub fn flat(table: &'a Table, cost_fn: CostFn) -> Self {
        let hierarchies = (0..table.num_attrs())
            .map(|a| {
                let names: Vec<&str> = table.dictionary(a).iter().map(|(_, v)| v).collect();
                Hierarchy::flat(&names)
            })
            .collect();
        HierarchicalSpace::new(table, hierarchies, cost_fn)
    }

    /// The underlying table.
    pub fn table(&self) -> &'a Table {
        self.table
    }

    /// The hierarchy of attribute `attr`.
    pub fn hierarchy(&self, attr: usize) -> &Hierarchy {
        &self.hierarchies[attr]
    }

    /// The all-wildcards pattern.
    pub fn root(&self) -> Pattern {
        Pattern::all_wildcards(self.table.num_attrs())
    }

    /// Whether `row` matches `pattern` (leaf values descend from every
    /// non-wildcard node).
    pub fn matches(&self, pattern: &Pattern, row: RowId) -> bool {
        pattern.values().iter().enumerate().all(|(attr, v)| {
            v.is_none_or(|node| self.hierarchies[attr].descends(self.table.value(row, attr), node))
        })
    }

    /// `Ben(p)` by table scan (hierarchical postings are materialized by
    /// the solver via bucketing, so a scan here is only used for roots,
    /// verification, and tests).
    pub fn benefit(&self, pattern: &Pattern) -> Vec<RowId> {
        (0..self.table.num_rows() as RowId)
            .filter(|&r| self.matches(pattern, r))
            .collect()
    }

    /// `Cost(p)` over its benefit rows.
    pub fn cost(&self, rows: &[RowId]) -> f64 {
        self.cost_fn.evaluate(self.table, rows)
    }

    /// The non-empty children of `pattern` with their benefit sets, in
    /// [`for_each_child`](HierarchicalSpace::for_each_child) order.
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

    /// Visits the non-empty children of `pattern`: each `ALL`
    /// specializes to the hierarchy's top nodes, each internal node to
    /// its children, and leaves do not specialize. Children are bucketed
    /// from the parent's rows (which must be `Ben(pattern)`), so each
    /// comes with its exact benefit set; they arrive attribute by
    /// attribute, in node-id order within one.
    pub fn for_each_child(
        &self,
        pattern: &Pattern,
        parent_rows: &[RowId],
        f: &mut ChildVisitor<'_>,
    ) {
        let mut child = pattern.clone(); // reusable cursor
        for attr in 0..pattern.num_attrs() {
            let h = &self.hierarchies[attr];
            let current = pattern.get(attr);
            if let Some(node) = current {
                if h.children(node).is_empty() {
                    continue; // leaf: fully specialized
                }
            }
            let mut buckets: crate::fxhash::FxHashMap<NodeId, Vec<RowId>> =
                crate::fxhash::FxHashMap::default();
            for &row in parent_rows {
                let leaf = self.table.value(row, attr);
                if let Some(child) = h.child_toward(leaf, current) {
                    buckets.entry(child).or_default().push(row);
                }
            }
            let mut buckets: Vec<(NodeId, Vec<RowId>)> = buckets.into_iter().collect();
            buckets.sort_unstable_by_key(|&(node, _)| node);
            for (node, rows) in buckets {
                child.set(attr, Some(node));
                f(attr, node, &child, &rows);
            }
            child.set(attr, current);
        }
    }

    /// The parents of a pattern in the enriched lattice: each non-`ALL`
    /// node generalizes to its hierarchy parent (or `ALL` for top nodes).
    pub fn parents(&self, pattern: &Pattern) -> Vec<Pattern> {
        let mut out = Vec::new();
        for (attr, v) in pattern.values().iter().enumerate() {
            if let Some(node) = v {
                let mut vals = pattern.values().to_vec();
                vals[attr] = self.hierarchies[attr].parent(*node);
                out.push(Pattern::new(vals));
            }
        }
        out
    }

    /// Renders a pattern with hierarchy node names.
    pub fn display(&self, pattern: &Pattern) -> String {
        let parts: Vec<String> = pattern
            .values()
            .iter()
            .enumerate()
            .map(|(attr, v)| {
                let name = match v {
                    Some(node) => self.hierarchies[attr].name(*node),
                    None => "ALL",
                };
                format!("{}={}", self.table.attr_names()[attr], name)
            })
            .collect();
        format!("{{{}}}", parts.join(", "))
    }
}

/// Materializes every non-empty pattern of the *hierarchical* lattice —
/// the unoptimized path for hierarchy-enriched spaces, used by the
/// differential tests (each record contributes one pattern per combination
/// of its values' ancestor chains, `ALL` included).
pub fn enumerate_hierarchical(
    space: &HierarchicalSpace<'_>,
) -> crate::enumerate::MaterializedPatterns {
    use crate::fxhash::FxHashMap;
    let table = space.table();
    let j = table.num_attrs();
    let mut ben: FxHashMap<Pattern, Vec<RowId>> = FxHashMap::default();
    // Per attribute, per leaf: the generalization chain (leaf, ancestors…, ALL).
    let chains: Vec<Vec<Vec<Option<NodeId>>>> = (0..j)
        .map(|attr| {
            let h = space.hierarchy(attr);
            (0..h.num_leaves() as NodeId)
                .map(|leaf| {
                    let mut chain: Vec<Option<NodeId>> = Vec::new();
                    let mut cur = Some(leaf);
                    while let Some(c) = cur {
                        chain.push(Some(c));
                        cur = h.parent(c);
                    }
                    chain.push(None); // ALL
                    chain
                })
                .collect()
        })
        .collect();
    let mut stack: Vec<Option<NodeId>> = vec![None; j];
    for row in 0..table.num_rows() as RowId {
        // Cartesian product over per-attribute chains, recursively.
        fn recurse(
            attr: usize,
            j: usize,
            row: RowId,
            table: &Table,
            chains: &[Vec<Vec<Option<NodeId>>>],
            stack: &mut Vec<Option<NodeId>>,
            ben: &mut crate::fxhash::FxHashMap<Pattern, Vec<RowId>>,
        ) {
            if attr == j {
                ben.entry(Pattern::new(stack.clone()))
                    .or_default()
                    .push(row);
                return;
            }
            let leaf = table.value(row, attr);
            for &node in &chains[attr][leaf as usize] {
                stack[attr] = node;
                recurse(attr + 1, j, row, table, chains, stack, ben);
            }
        }
        recurse(0, j, row, table, &chains, &mut stack, &mut ben);
    }
    crate::enumerate::materialize(table.num_rows(), j, ben, |rows| space.cost(rows))
}

impl LatticeSpace for HierarchicalSpace<'_> {
    fn table(&self) -> &Table {
        self.table
    }

    fn root(&self) -> Pattern {
        HierarchicalSpace::root(self)
    }

    fn cost(&self, rows: &[RowId]) -> f64 {
        HierarchicalSpace::cost(self, rows)
    }

    fn for_each_child(&self, pattern: &Pattern, parent_rows: &[RowId], f: &mut ChildVisitor<'_>) {
        HierarchicalSpace::for_each_child(self, pattern, parent_rows, f)
    }

    fn parents(&self, pattern: &Pattern) -> Vec<Pattern> {
        HierarchicalSpace::parents(self, pattern)
    }

    fn num_parents(&self, pattern: &Pattern) -> usize {
        // One parent per non-wildcard attribute (step it up one
        // hierarchy level, which may be the wildcard root).
        pattern.specificity()
    }

    fn benefit(&self, pattern: &Pattern) -> Vec<RowId> {
        HierarchicalSpace::benefit(self, pattern)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt_cmc::opt_cmc;
    use crate::opt_cwsc::opt_cwsc;
    use crate::pattern_solution::{verify_certificate_in, PatternSolution};
    use crate::space::PatternSpace;
    use crate::test_util::complete;
    use scwsc_core::algorithms::CmcParams;
    use scwsc_core::{
        Deadline, DegradeReason, MetricsRecorder, NoopObserver, SolveError, SolveOutcome,
    };

    /// Fig. 3 over any lattice, serial and unbounded.
    fn cwsc_in<S: LatticeSpace>(
        space: &S,
        k: usize,
        coverage: f64,
    ) -> Result<PatternSolution, SolveError> {
        complete(opt_cwsc(
            space,
            k,
            coverage,
            &Deadline::unbounded(),
            &mut NoopObserver,
        ))
    }

    /// Fig. 4 over any lattice, serial and unbounded.
    fn cmc_in<S: LatticeSpace>(
        space: &S,
        params: &CmcParams,
    ) -> Result<PatternSolution, SolveError> {
        complete(opt_cmc(
            space,
            params,
            &Deadline::unbounded(),
            &mut NoopObserver,
        ))
    }

    /// Entities-like table with a regional structure over Location.
    fn table() -> Table {
        let mut b = Table::builder(&["Type", "Location"], "Cost");
        for (t, l, c) in [
            ("A", "West", 10.0),
            ("A", "Northwest", 20.0),
            ("B", "Southwest", 24.0),
            ("B", "East", 7.0),
            ("A", "Northeast", 32.0),
            ("B", "Southeast", 3.0),
            ("A", "West", 5.0),
            ("B", "Northwest", 4.0),
        ] {
            b.push_row(&[t, l], c).unwrap();
        }
        b.build()
    }

    fn location_hierarchy(t: &Table) -> Hierarchy {
        let names: Vec<&str> = t.dictionary(1).iter().map(|(_, v)| v).collect();
        let mut h = Hierarchy::flat(&names);
        h.add_group("WestCoast", &["West", "Northwest", "Southwest"])
            .unwrap();
        h.add_group("EastCoast", &["East", "Northeast", "Southeast"])
            .unwrap();
        h
    }

    fn space(t: &Table) -> HierarchicalSpace<'_> {
        let type_names: Vec<&str> = t.dictionary(0).iter().map(|(_, v)| v).collect();
        HierarchicalSpace::new(
            t,
            vec![Hierarchy::flat(&type_names), location_hierarchy(t)],
            CostFn::Max,
        )
    }

    #[test]
    fn hierarchy_structure() {
        let t = table();
        let h = location_hierarchy(&t);
        assert_eq!(h.num_leaves(), 6);
        assert_eq!(h.num_nodes(), 8);
        let west_coast = 6;
        assert_eq!(h.name(west_coast), "WestCoast");
        assert_eq!(h.children(west_coast).len(), 3);
        assert_eq!(h.top_nodes(), vec![6, 7]);
        let west = t.dictionary(1).lookup("West").unwrap();
        assert!(h.descends(west, west_coast));
        assert!(!h.descends(west, 7));
        assert!(h.descends(west, west));
    }

    #[test]
    fn add_group_validation() {
        let mut h = Hierarchy::flat(&["a", "b"]);
        assert!(matches!(
            h.add_group("g", &["zzz"]),
            Err(HierarchyError::UnknownMember(_))
        ));
        h.add_group("g", &["a"]).unwrap();
        assert!(matches!(
            h.add_group("g2", &["a"]),
            Err(HierarchyError::AlreadyGrouped(_))
        ));
    }

    #[test]
    fn child_toward_buckets_correctly() {
        let t = table();
        let h = location_hierarchy(&t);
        let west = t.dictionary(1).lookup("West").unwrap();
        // Under ALL, West buckets into WestCoast (node 6).
        assert_eq!(h.child_toward(west, None), Some(6));
        // Under WestCoast, West buckets into itself (a leaf child).
        assert_eq!(h.child_toward(west, Some(6)), Some(west));
        // West does not descend through EastCoast.
        assert_eq!(h.child_toward(west, Some(7)), None);
    }

    #[test]
    fn hierarchical_pattern_matches_region() {
        let t = table();
        let sp = space(&t);
        let p = Pattern::new(vec![None, Some(6)]); // {ALL, WestCoast}
        let rows = sp.benefit(&p);
        // West(0), Northwest(1), Southwest(2), West(6), Northwest(7)
        assert_eq!(rows, vec![0, 1, 2, 6, 7]);
        assert_eq!(sp.cost(&rows), 24.0);
        assert!(sp.display(&p).contains("Location=WestCoast"));
    }

    #[test]
    fn children_expand_hierarchy_levels() {
        let t = table();
        let sp = space(&t);
        let root = sp.root();
        let rows = sp.benefit(&root);
        let children = sp.children_with_rows(&root, &rows);
        // Type: A, B; Location: WestCoast, EastCoast (top nodes only).
        let names: Vec<String> = children.iter().map(|(p, _)| sp.display(p)).collect();
        assert!(names.iter().any(|n| n.contains("WestCoast")), "{names:?}");
        assert!(names.iter().any(|n| n.contains("EastCoast")), "{names:?}");
        assert!(
            !names.iter().any(|n| n.contains("Location=West,")),
            "leaves appear only below their region: {names:?}"
        );
        // Expanding {ALL, WestCoast} yields the region's leaves.
        let (wc, wc_rows) = children
            .iter()
            .find(|(p, _)| sp.display(p).contains("WestCoast"))
            .unwrap();
        let grand = sp.children_with_rows(wc, wc_rows);
        assert!(grand
            .iter()
            .any(|(p, _)| sp.display(p).contains("Location=West}")));
    }

    #[test]
    fn parents_climb_the_hierarchy() {
        let t = table();
        let sp = space(&t);
        let west = t.dictionary(1).lookup("West").unwrap();
        let p = Pattern::new(vec![None, Some(west)]);
        let parents = sp.parents(&p);
        assert_eq!(parents.len(), 1);
        assert_eq!(parents[0], Pattern::new(vec![None, Some(6)])); // WestCoast
        let q = Pattern::new(vec![None, Some(6)]);
        assert_eq!(sp.parents(&q), vec![Pattern::all_wildcards(2)]);
    }

    #[test]
    fn hier_cwsc_can_use_region_patterns() {
        let t = table();
        let sp = space(&t);
        let sol = cwsc_in(&sp, 2, 0.6).unwrap();
        assert!(sol.size() <= 2);
        assert!(sol.covered >= 5);
        // Recompute coverage/cost independently.
        let mut covered = BitSet::new(t.num_rows());
        let mut cost = 0.0;
        for p in &sol.patterns {
            let rows = sp.benefit(p);
            cost += sp.cost(&rows);
            for r in rows {
                covered.insert(r as usize);
            }
        }
        assert_eq!(covered.count_ones(), sol.covered);
        assert!((cost - sol.total_cost).abs() < 1e-9);
    }

    #[test]
    fn flat_hierarchy_matches_plain_pattern_space() {
        let t = table();
        let flat = HierarchicalSpace::flat(&t, CostFn::Max);
        let plain = PatternSpace::new(&t, CostFn::Max);
        for (k, s) in [(2usize, 0.5f64), (3, 0.8), (1, 1.0)] {
            let a = cwsc_in(&flat, k, s);
            let b = cwsc_in(&plain, k, s);
            match (a, b) {
                (Ok(x), Ok(y)) => {
                    assert_eq!(x.patterns, y.patterns, "k={k} s={s}");
                    assert_eq!(x.covered, y.covered);
                }
                (Err(x), Err(y)) => assert_eq!(x, y),
                (x, y) => panic!("flat {x:?} vs plain {y:?}"),
            }
        }
    }

    #[test]
    fn region_patterns_can_beat_flat_cost() {
        // A region pattern covers several leaves with one (cheap) set; the
        // flat space would need the expensive type-level pattern instead.
        let t = table();
        let sp = space(&t);
        let hier = cwsc_in(&sp, 1, 0.6).unwrap();
        let plain_sp = PatternSpace::new(&t, CostFn::Max);
        let flat = cwsc_in(&plain_sp, 1, 0.6).unwrap();
        assert!(
            hier.total_cost <= flat.total_cost,
            "hierarchy adds options, never removes them: {} vs {}",
            hier.total_cost,
            flat.total_cost
        );
    }

    #[test]
    fn hierarchical_enumeration_contains_region_patterns() {
        let t = table();
        let sp = space(&t);
        let m = enumerate_hierarchical(&sp);
        assert!(m.system.has_universe_set());
        // {ALL, WestCoast} must exist with the scan's benefit set.
        let wc = Pattern::new(vec![None, Some(6)]);
        let id = m.id_of(&wc).expect("region pattern materialized");
        assert_eq!(
            m.system.members(id).to_vec(),
            sp.benefit(&wc),
            "enumerated rows must match the scan"
        );
        // Every enumerated pattern's rows match a scan.
        for (i, p) in m.patterns.iter().enumerate() {
            assert_eq!(m.system.members(i as u32).to_vec(), sp.benefit(p));
        }
        // More patterns than the flat cube (regions add options).
        let flat = crate::enumerate::enumerate_all(&t, CostFn::Max);
        assert!(m.num_patterns() > flat.num_patterns());
    }

    #[test]
    fn hier_cwsc_matches_unoptimized_over_hierarchical_cube() {
        use scwsc_core::algorithms::cwsc;
        let t = table();
        let sp = space(&t);
        let m = enumerate_hierarchical(&sp);
        for (k, s) in [(1usize, 0.5f64), (2, 0.6), (3, 0.9), (2, 1.0)] {
            let opt = cwsc_in(&sp, k, s);
            let unopt = complete(cwsc(
                &m.system,
                k,
                s,
                &Deadline::unbounded(),
                &mut NoopObserver,
            ));
            match (opt, unopt) {
                (Ok(o), Ok(u)) => {
                    let u_patterns: Vec<&Pattern> = m.solution_patterns(&u);
                    assert_eq!(
                        o.patterns.iter().collect::<Vec<_>>(),
                        u_patterns,
                        "k={k} s={s}"
                    );
                    assert_eq!(o.covered, u.covered());
                }
                (Err(a), Err(b)) => assert_eq!(a, b),
                (a, b) => panic!("k={k} s={s}: {a:?} vs {b:?}"),
            }
        }
    }

    #[test]
    fn hier_cmc_meets_bounds_and_verifies() {
        let t = table();
        let sp = space(&t);
        let params = CmcParams {
            discount_coverage: false,
            ..CmcParams::classic(2, 0.6, 1.0)
        };
        let sol = cmc_in(&sp, &params).unwrap();
        assert!(sol.size() <= 10, "5k bound");
        assert!(sol.covered >= 5);
        // Independent recomputation over the hierarchical space.
        let mut covered = BitSet::new(t.num_rows());
        let mut cost = 0.0;
        for p in &sol.patterns {
            let rows = sp.benefit(p);
            cost += sp.cost(&rows);
            for r in rows {
                covered.insert(r as usize);
            }
        }
        assert_eq!(covered.count_ones(), sol.covered);
        assert!((cost - sol.total_cost).abs() < 1e-9);
    }

    #[test]
    fn hier_cmc_flat_matches_plain_opt_cmc() {
        let t = table();
        let flat = HierarchicalSpace::flat(&t, CostFn::Max);
        let plain = PatternSpace::new(&t, CostFn::Max);
        let params = CmcParams::classic(2, 0.7, 1.0);
        let a = cmc_in(&flat, &params).unwrap();
        let b = cmc_in(&plain, &params).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn tick_budgets_degrade_hierarchical_solves_to_verified_prefixes() {
        let t = table();
        let sp = space(&t);
        let params = CmcParams::classic(2, 1.0, 1.0);
        for budget in [0u64, 1, 3] {
            for algorithm in ["opt_cwsc", "opt_cmc"] {
                let deadline = Deadline::unbounded().with_tick_budget(budget);
                let mut m = MetricsRecorder::new();
                let out = match algorithm {
                    "opt_cwsc" => opt_cwsc(&sp, 2, 1.0, &deadline, &mut m),
                    _ => opt_cmc(&sp, &params, &deadline, &mut m),
                }
                .unwrap();
                let SolveOutcome::Degraded(d) = out else {
                    panic!("{algorithm}: {budget} ticks cannot cover every record");
                };
                assert_eq!(d.certificate.reason, DegradeReason::TickBudget);
                let check = verify_certificate_in(&sp, &d.partial, &d.certificate);
                assert!(check.is_valid(), "{algorithm} budget {budget}: {check:?}");
            }
        }
    }

    #[test]
    fn bin_numeric_builds_dyadic_ranges() {
        let values = [1.0, 2.0, 3.5, 9.9, 5.0, 7.2, 0.0, 10.0];
        let (labels, h) = bin_numeric(&values, 8);
        assert_eq!(labels.len(), values.len());
        assert_eq!(h.num_leaves(), 8);
        assert!(h.num_nodes() > 8, "internal range nodes exist");
        // Every leaf reaches a top node.
        for leaf in 0..8u32 {
            assert!(h.child_toward(leaf, None).is_some());
        }
        // Top level has exactly two nodes (the dyadic halves).
        assert_eq!(h.top_nodes().len(), 2);
    }

    #[test]
    #[should_panic(expected = "hierarchy leaves")]
    fn leaf_count_mismatch_panics() {
        let t = table();
        let bad = Hierarchy::flat(&["only-one"]);
        let type_names: Vec<&str> = t.dictionary(0).iter().map(|(_, v)| v).collect();
        HierarchicalSpace::new(&t, vec![Hierarchy::flat(&type_names), bad], CostFn::Max);
    }
}
