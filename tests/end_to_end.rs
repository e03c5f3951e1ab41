//! End-to-end integration: the full pipeline from workload generation
//! through every solver, plus the future-work extensions, on one seeded
//! synthetic trace.

use scwsc::data::csv::{table_from_csv, table_to_csv};
use scwsc::data::lbl::LblConfig;
use scwsc::data::perturb::{lognormal_rerank, uniform_noise};
use scwsc::prelude::*;
use scwsc::sets::incremental::IncrementalCover;
use scwsc::sets::multiweight::{pareto_sweep, MultiWeightSystem};

/// The complete value of a feasible solve without a deadline.
fn complete<T>(result: Result<SolveOutcome<T>, EngineError>) -> T {
    result
        .expect("feasible")
        .expect_complete("unbounded deadline")
}

fn trace(rows: usize) -> Table {
    LblConfig {
        rows,
        local_hosts: 30,
        remote_hosts: 40,
        ..LblConfig::default()
    }
    .generate()
}

#[test]
fn all_solvers_agree_on_validity() {
    let table = trace(1_500);
    let (k, coverage) = (6, 0.35);
    let pool = ThreadPool::new(Threads::serial());
    let deadline = Deadline::unbounded();
    let target = coverage_target(table.num_rows(), coverage);

    let space = PatternSpace::new(&table, CostFn::Max);
    let m = enumerate_all(&table, CostFn::Max);

    // Optimized and unoptimized CWSC agree exactly.
    let opt = complete(opt_cwsc(
        &space,
        k,
        coverage,
        &pool,
        &deadline,
        &mut Stats::new(),
    ));
    let unopt = complete(cwsc(
        &m.system,
        k,
        coverage,
        &pool,
        &deadline,
        &mut Stats::new(),
    ));
    assert_eq!(
        opt.patterns.iter().collect::<Vec<_>>(),
        m.solution_patterns(&unopt)
    );
    opt.verify(&space);
    assert!(opt.size() <= k && opt.covered >= target);

    // Both CMC paths meet Theorem 4/5 bounds at the undiscounted target.
    let params = CmcParams {
        discount_coverage: false,
        ..CmcParams::epsilon(k, coverage, 1.0, 1.0)
    };
    let opt_c = complete(opt_cmc(
        &space,
        &params,
        &pool,
        &deadline,
        &mut Stats::new(),
    ));
    opt_c.verify(&space);
    assert!(opt_c.covered >= target);
    assert!(opt_c.size() <= 2 * k);
    let unopt_c = complete(cmc(&m.system, &params, &pool, &deadline, &mut Stats::new()));
    assert!(unopt_c.solution.covered() >= target);
    assert!(unopt_c.solution.size() <= 2 * k);

    // Baselines produce verifiable solutions too.
    let wsc = greedy_weighted_set_cover(&m.system, coverage, &mut Stats::new()).unwrap();
    assert!(wsc.covered() >= target);
    let mc = greedy_max_coverage(&m.system, k, &mut Stats::new());
    assert!(mc.size() <= k);
    assert!(
        mc.covered() >= opt.covered,
        "cost-blind max coverage maximizes coverage"
    );
}

#[test]
fn csv_roundtrip_preserves_solutions() {
    let table = trace(400);
    let csv = table_to_csv(&table);
    let back = table_from_csv(&csv).unwrap();
    let pool = ThreadPool::new(Threads::serial());
    let deadline = Deadline::unbounded();
    let a = complete(opt_cwsc(
        &PatternSpace::new(&table, CostFn::Max),
        4,
        0.3,
        &pool,
        &deadline,
        &mut Stats::new(),
    ));
    let b = complete(opt_cwsc(
        &PatternSpace::new(&back, CostFn::Max),
        4,
        0.3,
        &pool,
        &deadline,
        &mut Stats::new(),
    ));
    assert_eq!(a.covered, b.covered);
    assert!((a.total_cost - b.total_cost).abs() < 1e-9);
    assert_eq!(a.patterns.len(), b.patterns.len());
}

#[test]
fn perturbations_keep_problems_solvable() {
    let table = trace(600);
    let pool = ThreadPool::new(Threads::serial());
    let deadline = Deadline::unbounded();
    for t in [
        uniform_noise(&table, 0.5, 1),
        lognormal_rerank(&table, 2.0, 2.0, 1),
    ] {
        let space = PatternSpace::new(&t, CostFn::Max);
        let sol = complete(opt_cwsc(
            &space,
            5,
            0.4,
            &pool,
            &deadline,
            &mut Stats::new(),
        ));
        sol.verify(&space);
        assert!(sol.covered >= coverage_target(t.num_rows(), 0.4));
    }
}

/// The incremental maintainer tracks a growing prefix of the trace and
/// always matches a from-scratch solve's validity.
#[test]
fn incremental_matches_batch_validity() {
    let table = trace(300);
    // Sets = the ten most specific protocol patterns + universe; elements
    // arrive row by row reporting which sets contain them.
    let space = PatternSpace::new(&table, CostFn::Max);
    let root = space.root();
    let root_rows = space.benefit(&root);
    let mut sets: Vec<(Vec<u32>, f64)> = space
        .children_with_rows(&root, &root_rows)
        .into_iter()
        .map(|(_, rows)| {
            let cost = space.cost(&rows);
            (rows, cost)
        })
        .collect();
    sets.push((root_rows.clone(), space.cost(&root_rows)));

    let costs: Vec<f64> = sets.iter().map(|(_, c)| *c).collect();
    let mut inc = IncrementalCover::new(&costs, 4, 0.5).unwrap();
    for row in 0..table.num_rows() as u32 {
        let memberships: Vec<u32> = sets
            .iter()
            .enumerate()
            .filter(|(_, (rows, _))| rows.binary_search(&row).is_ok())
            .map(|(i, _)| i as u32)
            .collect();
        inc.push_element(&memberships).unwrap();
        assert!(inc.covered() >= inc.target());
        assert!(inc.solution().len() <= 4);
    }
    // Final state agrees with a batch solve over the snapshot.
    let snapshot = inc.snapshot();
    let pool = ThreadPool::new(Threads::serial());
    let deadline = Deadline::unbounded();
    let batch = complete(cwsc(&snapshot, 4, 0.5, &pool, &deadline, &mut Stats::new()));
    assert!(batch.covered() >= inc.target());
    assert!(inc.resolves() <= table.num_rows() as u64);
}

#[test]
fn multiweight_scalarization_consistent_with_single_weight() {
    let table = trace(300);
    let m = enumerate_all(&table, CostFn::Max);
    // Duplicate the single weight into two identical criteria: any λ with
    // λ1+λ2 = 1 must reproduce the single-weight solution.
    let mut mw = MultiWeightSystem::new(m.system.num_elements(), 2);
    for (_, set) in m.system.iter() {
        let w = set.cost().value();
        mw.add_set(set.members().iter().copied(), vec![w, w])
            .unwrap();
    }
    let scalar = mw.scalarize(&[0.25, 0.75]).unwrap();
    let pool = ThreadPool::new(Threads::serial());
    let deadline = Deadline::unbounded();
    let a = complete(cwsc(&scalar, 5, 0.4, &pool, &deadline, &mut Stats::new()));
    let b = complete(cwsc(&m.system, 5, 0.4, &pool, &deadline, &mut Stats::new()));
    assert_eq!(a.sets(), b.sets());

    let lambdas = [vec![1.0, 0.0], vec![0.0, 1.0]];
    let frontier = pareto_sweep(&mw, 5, 0.4, &lambdas, &pool, &deadline, &mut NoopObserver)
        .unwrap()
        .expect_complete("unbounded deadline");
    assert_eq!(
        frontier.len(),
        1,
        "identical criteria collapse the frontier"
    );
}
