//! Quickstart: the paper's running example, end to end.
//!
//! Reproduces every number the introduction and Section V derive from the
//! Table I entities data set:
//!
//! * partial weighted set cover at ŝ = 9/16 → 7 patterns, total cost 24;
//! * size-constrained optimum (k = 2) → {P6, P16}, total cost 27;
//! * cheapest two sets ignoring coverage → covers only 3/16;
//! * CWSC's greedy answer → {P16, P3}, total cost 28;
//! * CMC's budget-guessing walkthrough.
//!
//! Run with: `cargo run --release --example quickstart`

use scwsc::data::{entities_table, table2_pattern};
use scwsc::prelude::*;

fn main() {
    let table = entities_table();
    let space = PatternSpace::new(&table, CostFn::Max);
    let coverage = 9.0 / 16.0;
    println!(
        "Table I: {} entities over attributes {:?} with measure {:?}\n",
        table.num_rows(),
        table.attr_names(),
        table.measure_name()
    );

    // The full pattern collection (Table II) as a weighted set system.
    let m = enumerate_all(&table, CostFn::Max);
    println!("Table II: {} candidate patterns\n", m.num_patterns());

    // 1. Partial weighted set cover: cheapest, but 7 patterns.
    let wsc = greedy_weighted_set_cover(&m.system, coverage, &mut NoopObserver)
        .expect("the all-ALL pattern guarantees feasibility");
    println!(
        "weighted set cover (no size bound): {} patterns, cost {}",
        wsc.size(),
        wsc.total_cost()
    );
    for p in m.solution_patterns(&wsc) {
        println!("    {}", p.display(&table));
    }

    // 2. The size-constrained optimum for k = 2: {P6, P16} at cost 27.
    let target = coverage_target(m.system.num_elements(), coverage);
    let opt = exact_optimal(&m.system, 2, target, &mut NoopObserver).expect("feasible");
    println!(
        "\nsize-constrained optimum (k=2): cost {} covering {}/16",
        opt.total_cost(),
        opt.covered()
    );
    for p in m.solution_patterns(&opt) {
        println!("    {}", p.display(&table));
    }
    assert_eq!(opt.total_cost().value(), 27.0);

    // 3. Cheapest two sets with no coverage requirement cover almost nothing.
    let cheap2 = exact_optimal(&m.system, 2, 3, &mut NoopObserver).expect("feasible");
    println!(
        "\ncheapest 2 patterns (coverage requirement dropped to 3/16): cost {} covering {}/16",
        cheap2.total_cost(),
        cheap2.covered()
    );

    // 4. CWSC: at most k patterns, greedy, no cost guarantee — in practice
    //    one unit above the optimum here.
    //    Every solver takes a deadline and an observer; with no deadline
    //    the solve always completes.
    let deadline = Deadline::unbounded();
    let cwsc_sol = opt_cwsc(&space, 2, coverage, &deadline, &mut NoopObserver)
        .expect("feasible")
        .expect_complete("no deadline");
    println!("\nCWSC (k=2): {}", cwsc_sol.display(&space));
    assert_eq!(cwsc_sol.total_cost, 28.0);
    let p16 = table2_pattern(&table, 16).expect("P16 exists");
    assert_eq!(cwsc_sol.patterns[0], p16, "first pick is P16 {{B, ALL}}");

    // 5. CMC: guesses the optimal budget, geometric cost levels.
    let mut metrics = MetricsRecorder::new();
    let params = CmcParams {
        discount_coverage: false, // aim at the same 9/16 as CWSC
        ..CmcParams::classic(2, coverage, 1.0)
    };
    let cmc_sol = opt_cmc(&space, &params, &deadline, &mut metrics)
        .expect("feasible")
        .expect_complete("no deadline");
    println!(
        "CMC  (k=2): {} (after {} budget guesses)",
        cmc_sol.display(&space),
        metrics.guesses
    );
    assert!(cmc_sol.covered >= 9);
    assert!(cmc_sol.size() <= 5 * 2, "Theorem 4 size bound");

    println!("\nAll of the paper's worked-example numbers check out.");
}
