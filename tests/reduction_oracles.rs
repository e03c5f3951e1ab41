//! Executable checks of the Section IV complexity constructions: the
//! Lemma 1 reduction ties minimum vertex covers of tripartite graphs to
//! minimum pattern covers, and we verify that correspondence with brute
//! force on small graphs.

use scwsc::patterns::reductions::{lemma1_instance, Lemma1Instance, TripartiteGraph};
use scwsc::prelude::*;

/// Brute-force minimum vertex cover size of a tripartite graph.
fn min_vertex_cover(graph: &TripartiteGraph) -> usize {
    // Enumerate all vertex subsets (vertices flattened across parts).
    let offsets = [
        0,
        graph.part_sizes[0],
        graph.part_sizes[0] + graph.part_sizes[1],
    ];
    let total: usize = graph.part_sizes.iter().sum();
    assert!(total <= 16, "brute force only for tiny graphs");
    let flat = |part: usize, idx: usize| offsets[part] + idx;
    (0u32..1 << total)
        .filter(|mask| {
            graph.edges.iter().all(|&((pa, ia), (pb, ib))| {
                mask & (1 << flat(pa, ia)) != 0 || mask & (1 << flat(pb, ib)) != 0
            })
        })
        .map(|mask| mask.count_ones() as usize)
        .min()
        .expect("the all-vertices set is always a cover")
}

/// Minimum number of patterns with cost ≤ τ covering ≥ the required
/// fraction, via the exact solver over a unit-cost system restricted to
/// affordable patterns (the Lemma 1 objective).
fn min_pattern_cover(inst: &Lemma1Instance) -> Option<usize> {
    let m = enumerate_all(&inst.table, CostFn::Max);
    let target = coverage_target(inst.table.num_rows(), inst.coverage_fraction);
    // Unit-cost copy of the affordable patterns.
    let mut b = SetSystem::builder(inst.table.num_rows());
    let mut any = false;
    for (id, set) in m.system.iter() {
        if set.cost().value() <= inst.tau {
            b.add_set(m.system.members(id).iter().copied(), 1.0);
            any = true;
        }
    }
    if !any {
        return None;
    }
    let unit = b.build().unwrap();
    let sol = scwsc::sets::algorithms::exact_optimal(
        &unit,
        unit.num_sets(),
        target,
        &mut scwsc::sets::NoopObserver,
    )?;
    Some(sol.total_cost().value() as usize)
}

fn check(graph: &TripartiteGraph) {
    let inst = lemma1_instance(graph, 1.0, 50.0).unwrap();
    let vc = min_vertex_cover(graph);
    let pc = min_pattern_cover(&inst).expect("vertex patterns give a feasible cover");
    assert_eq!(
        pc, vc,
        "Lemma 1: min pattern cover must equal min vertex cover"
    );
}

#[test]
fn lemma1_triangle_plus_pendant() {
    check(&TripartiteGraph {
        part_sizes: [2, 1, 1],
        edges: vec![
            ((0, 0), (1, 0)),
            ((1, 0), (2, 0)),
            ((0, 0), (2, 0)),
            ((0, 1), (1, 0)),
        ],
    });
}

#[test]
fn lemma1_star() {
    // b0 touches everything: vertex cover of size 1.
    check(&TripartiteGraph {
        part_sizes: [3, 1, 2],
        edges: vec![
            ((0, 0), (1, 0)),
            ((0, 1), (1, 0)),
            ((0, 2), (1, 0)),
            ((1, 0), (2, 0)),
            ((1, 0), (2, 1)),
        ],
    });
}

#[test]
fn lemma1_matching() {
    // A perfect matching of 3 edges needs 3 vertices.
    check(&TripartiteGraph {
        part_sizes: [3, 3, 0],
        edges: vec![((0, 0), (1, 0)), ((0, 1), (1, 1)), ((0, 2), (1, 2))],
    });
}

#[test]
fn lemma1_complete_bipartite_k22() {
    check(&TripartiteGraph {
        part_sizes: [2, 2, 0],
        edges: vec![
            ((0, 0), (1, 0)),
            ((0, 0), (1, 1)),
            ((0, 1), (1, 0)),
            ((0, 1), (1, 1)),
        ],
    });
}

/// The blocking record `(x, y, z | W)` is never covered by an affordable
/// pattern, which is what forces the coverage fraction `m/(m+1)`.
#[test]
fn lemma1_blocking_record_uncoverable_under_tau() {
    let graph = TripartiteGraph {
        part_sizes: [1, 1, 1],
        edges: vec![((0, 0), (1, 0)), ((1, 0), (2, 0))],
    };
    let inst = lemma1_instance(&graph, 1.0, 9.0).unwrap();
    let m = enumerate_all(&inst.table, CostFn::Max);
    let blocker = (inst.table.num_rows() - 1) as u32;
    for (id, set) in m.system.iter() {
        if set.cost().value() <= inst.tau {
            assert!(
                !m.system.members(id).contains(&blocker),
                "affordable pattern {id} covers the blocking record"
            );
        }
    }
}
