//! Summarizing a network trace with a handful of patterns.
//!
//! The paper's experimental workload: TCP connection records with five
//! pattern attributes and the session length as the measure. The task —
//! "describe at least 40% of the traffic with at most 8 patterns, keeping
//! the summary's weight low" — is exactly size-constrained weighted set
//! cover; patterns like `{protocol=proto0, endstate=state2, *}` are the
//! human-readable summary.
//!
//! Run with: `cargo run --release --example network_summarization`

use scwsc::data::lbl::LblConfig;
use scwsc::prelude::*;

fn main() {
    let config = LblConfig {
        rows: 60_000,
        ..LblConfig::scaled(60_000)
    };
    let table = config.generate();
    println!(
        "synthetic LBL-like trace: {} connections, attributes {:?}",
        table.num_rows(),
        table.attr_names()
    );

    let space = PatternSpace::new(&table, CostFn::Max);
    let (k, coverage) = (8, 0.4);

    let (pool, deadline) = (ThreadPool::new(Threads::serial()), Deadline::unbounded());
    let mut stats = Stats::new();
    let summary = opt_cwsc(&space, k, coverage, &pool, &deadline, &mut stats)
        .expect("all-ALL pattern exists")
        .expect_complete("no deadline");
    println!(
        "\nCWSC summary (k={k}, coverage≥{:.0}%): {} patterns, weight {:.2}, covering {} rows",
        coverage * 100.0,
        summary.size(),
        summary.total_cost,
        summary.covered,
    );
    for p in &summary.patterns {
        let rows = space.benefit(p);
        println!(
            "    {:60} covers {:6} connections, weight {:9.2}",
            p.display(&table),
            rows.len(),
            space.cost(&rows)
        );
    }
    println!(
        "(considered {} of the pattern cube while building it)",
        stats.considered
    );

    // Compare against CMC on the same task.
    let params = CmcParams {
        discount_coverage: false,
        ..CmcParams::epsilon(k, coverage, 1.0, 1.0)
    };
    let cmc_summary = opt_cmc(&space, &params, &pool, &deadline, &mut Stats::new())
        .expect("feasible")
        .expect_complete("no deadline");
    println!(
        "\nCMC summary: {} patterns, weight {:.2}, covering {} rows",
        cmc_summary.size(),
        cmc_summary.total_cost,
        cmc_summary.covered
    );

    // And against the cost-blind max-coverage heuristic (Section VI-C):
    // it reaches the coverage with one giant expensive pattern.
    let m = enumerate_all(&table, CostFn::Max);
    let blind = greedy_partial_max_coverage(&m.system, coverage, &mut Stats::new()).unwrap();
    println!(
        "cost-blind max coverage: {} pattern(s), weight {:.2} ({}x CWSC)",
        blind.size(),
        blind.total_cost(),
        (blind.total_cost().value() / summary.total_cost).round()
    );

    summary.verify(&space);
    assert!(summary.size() <= k);
    assert!(summary.covered >= coverage_target(table.num_rows(), coverage));
}
