//! Paper-scale stress tests — `#[ignore]`d by default; run with
//! `cargo test --release --test stress -- --ignored`.
//!
//! These exercise the full 700k-row scale of the paper's LBL workload and
//! the memory-heavy full-cube enumeration. They assert correctness
//! invariants only (no timing), so they are safe on any machine with a
//! few GB of RAM and a few minutes to spare.

use scwsc::data::lbl::LblConfig;
use scwsc::prelude::*;

/// The complete value of a feasible solve without a deadline.
fn complete<T>(result: Result<SolveOutcome<T>, EngineError>) -> T {
    result
        .expect("feasible")
        .expect_complete("unbounded deadline")
}

#[test]
#[ignore = "paper-scale run (~1 minute in release)"]
fn optimized_algorithms_at_700k_rows() {
    let table = LblConfig::default().generate(); // 700k rows, full domains
    assert_eq!(table.num_rows(), 700_000);
    let space = PatternSpace::new(&table, CostFn::Max);
    let pool = ThreadPool::new(Threads::available());
    let deadline = Deadline::unbounded();

    let mut stats = Stats::new();
    let sol = complete(opt_cwsc(&space, 10, 0.3, &pool, &deadline, &mut stats));
    sol.verify(&space);
    assert!(sol.size() <= 10);
    assert!(sol.covered >= coverage_target(700_000, 0.3));

    let params = CmcParams {
        discount_coverage: false,
        ..CmcParams::epsilon(10, 0.3, 1.0, 1.0)
    };
    let sol = complete(opt_cmc(
        &space,
        &params,
        &pool,
        &deadline,
        &mut Stats::new(),
    ));
    sol.verify(&space);
    assert!(sol.size() <= 20);
    assert!(sol.covered >= coverage_target(700_000, 0.3));
}

#[test]
#[ignore = "memory-heavy full-cube enumeration (~2 GB, ~1 minute)"]
fn full_cube_enumeration_at_400k_rows() {
    let table = LblConfig {
        seed: 7,
        ..LblConfig::scaled(400_000)
    }
    .generate();
    let m = enumerate_all(&table, CostFn::Max);
    assert!(m.system.has_universe_set());
    assert!(
        m.num_patterns() > 100_000,
        "cube should be large: {}",
        m.num_patterns()
    );

    // Optimized and unoptimized CWSC still agree exactly at this scale.
    let space = PatternSpace::new(&table, CostFn::Max);
    let pool = ThreadPool::new(Threads::available());
    let deadline = Deadline::unbounded();
    let opt = complete(opt_cwsc(
        &space,
        10,
        0.3,
        &pool,
        &deadline,
        &mut Stats::new(),
    ));
    let unopt = complete(cwsc(
        &m.system,
        10,
        0.3,
        &pool,
        &deadline,
        &mut Stats::new(),
    ));
    assert_eq!(
        opt.patterns.iter().collect::<Vec<_>>(),
        m.solution_patterns(&unopt)
    );
}

#[test]
#[ignore = "long incremental stream (~30s)"]
fn incremental_stream_of_100k_arrivals() {
    use scwsc::sets::incremental::{IncrementalCover, RepairStrategy};
    let costs: Vec<f64> = (0..50)
        .map(|i| 1.0 + f64::from(i))
        .chain([10_000.0])
        .collect();
    let mut inc = IncrementalCover::with_strategy(&costs, 8, 0.5, RepairStrategy::Patch).unwrap();
    let mut state = 0x1234_5678_9abc_def0u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..100_000 {
        let mut sets = vec![50u32];
        for s in 0..50u32 {
            if next() % 11 == 0 {
                sets.push(s);
            }
        }
        inc.push_element(&sets).unwrap();
    }
    assert!(inc.covered() >= inc.target());
    assert!(inc.solution().len() <= 8);
    assert!(inc.resolves() + inc.patches() < 100_000);
}
