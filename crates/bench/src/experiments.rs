//! One function per figure/table of the paper's Section VI.
//!
//! Each returns structured results; the `src/bin/*` wrappers print them as
//! the same rows/series the paper reports. Absolute numbers differ from
//! the paper's 2015 C++/Opteron setup; the *shapes* (who wins, how curves
//! grow) are what EXPERIMENTS.md records.

use crate::measure::{run, Algo, Measurement, RunParams};
use scwsc_core::algorithms::{
    cmc, cwsc, exact_optimal, greedy_partial_max_coverage, greedy_weighted_set_cover,
};
use scwsc_core::telemetry::audit::{self, DecisionLedger};
use scwsc_core::{
    coverage_target, Deadline, EngineError, NoopObserver, SolveOutcome, Stats, ThreadPool, Threads,
};
use scwsc_data::lbl::LblConfig;
use scwsc_data::perturb::{lognormal_rerank, uniform_noise};
use scwsc_patterns::{enumerate_all, opt_cmc, opt_cwsc, CostFn, PatternSpace, Table};

/// The complete value of a solve with no deadline. Every workload here
/// contains the all-wildcards pattern, so every solve is feasible.
fn feasible<T>(result: Result<SolveOutcome<T>, EngineError>) -> T {
    result
        .expect("the root pattern guarantees feasibility")
        .expect_complete("an unbounded deadline never expires")
}

/// Builds the standard synthetic LBL-like workload for a given size.
pub fn workload(rows: usize, seed: u64) -> Table {
    LblConfig {
        seed,
        ..LblConfig::scaled(rows)
    }
    .generate()
}

/// Figures 5 & 6: all four algorithms across data sizes. Returns one
/// [`Measurement`] per `(size, algorithm)`; the binaries print seconds
/// (Fig. 5) and patterns considered (Fig. 6) from the same data.
pub fn scaling(sizes: &[usize], seed: u64, params: &RunParams) -> Vec<Measurement> {
    let mut out = Vec::with_capacity(sizes.len() * 4);
    for &rows in sizes {
        let table = workload(rows, seed);
        for algo in Algo::ALL {
            out.push(run(algo, &table, params));
        }
    }
    out
}

/// Figure 7: running time vs number of pattern attributes (the paper
/// removes one attribute at a time from the 5-attribute LBL schema).
pub fn attrs_scaling(rows: usize, seed: u64, params: &RunParams) -> Vec<Measurement> {
    let table = workload(rows, seed);
    let mut out = Vec::new();
    for attrs in 1..=table.num_attrs() {
        let keep: Vec<usize> = (0..attrs).collect();
        let projected = table.project(&keep).expect("attribute ids in range");
        for algo in Algo::ALL {
            out.push(run(algo, &projected, params));
        }
    }
    out
}

/// Figure 8: running time vs the size bound `k`.
pub fn k_scaling(rows: usize, seed: u64, ks: &[usize], base: &RunParams) -> Vec<Measurement> {
    let table = workload(rows, seed);
    let mut out = Vec::new();
    for &k in ks {
        let params = RunParams { k, ..*base };
        for algo in Algo::ALL {
            out.push(run(algo, &table, &params));
        }
    }
    out
}

/// Figure 9: running time vs the coverage fraction `ŝ`.
pub fn coverage_scaling(
    rows: usize,
    seed: u64,
    coverages: &[f64],
    base: &RunParams,
) -> Vec<Measurement> {
    let table = workload(rows, seed);
    let mut out = Vec::new();
    for &coverage in coverages {
        let params = RunParams { coverage, ..*base };
        for algo in Algo::ALL {
            out.push(run(algo, &table, &params));
        }
    }
    out
}

/// One row of Tables IV–V: an algorithm configuration across coverages.
#[derive(Debug, Clone)]
pub struct GridRow {
    /// Paper-style label, e.g. `CMC (b=1/2, eps=1)`.
    pub label: String,
    /// One measurement per requested coverage fraction.
    pub cells: Vec<Measurement>,
}

/// Tables IV & V: CWSC vs CMC over the `(b, ε)` grid, for each coverage
/// fraction. Table IV reads the `cost` field, Table V the `seconds` field
/// (runs are sequential so the timings are clean).
pub fn quality_grid(table: &Table, coverages: &[f64], k: usize) -> Vec<GridRow> {
    let grid: [(f64, f64); 6] = [
        (0.5, 1.0),
        (0.5, 2.0),
        (1.0, 1.0),
        (1.0, 2.0),
        (2.0, 1.0),
        (2.0, 2.0),
    ];
    let mut rows = Vec::with_capacity(1 + grid.len());

    let cwsc_cells: Vec<Measurement> = coverages
        .iter()
        .map(|&coverage| {
            run(
                Algo::CwscOpt,
                table,
                &RunParams {
                    k,
                    coverage,
                    ..RunParams::default()
                },
            )
        })
        .collect();
    rows.push(GridRow {
        label: "CWSC".to_owned(),
        cells: cwsc_cells,
    });

    for (b, eps) in grid {
        let cells: Vec<Measurement> = coverages
            .iter()
            .map(|&coverage| {
                run(
                    Algo::CmcOpt,
                    table,
                    &RunParams {
                        k,
                        coverage,
                        b,
                        eps,
                        ..RunParams::default()
                    },
                )
            })
            .collect();
        let b_label = if b == 0.5 {
            "1/2".to_owned()
        } else {
            crate::report::num(b)
        };
        rows.push(GridRow {
            label: format!("CMC (b={b_label}, eps={})", crate::report::num(eps)),
            cells,
        });
    }
    rows
}

/// Table VI: patterns needed by plain greedy partial *weighted set cover*
/// (no size bound) per coverage fraction. Returns `(ŝ, #patterns, cost)`.
pub fn wsc_baseline(table: &Table, coverages: &[f64], cost_fn: CostFn) -> Vec<(f64, usize, f64)> {
    let m = enumerate_all(table, cost_fn);
    coverages
        .iter()
        .map(|&s| {
            let sol = greedy_weighted_set_cover(&m.system, s, &mut Stats::new())
                .expect("universe pattern guarantees feasibility");
            (s, sol.size(), sol.total_cost().value())
        })
        .collect()
}

/// Section VI-C: the partial *maximum coverage* heuristic (cost-blind) vs
/// CWSC. Returns `(ŝ, max-coverage cost, max-coverage size, CWSC cost)`.
pub fn maxcov_comparison(
    table: &Table,
    coverages: &[f64],
    k: usize,
    cost_fn: CostFn,
) -> Vec<(f64, f64, usize, f64)> {
    let m = enumerate_all(table, cost_fn);
    let space = PatternSpace::new(table, cost_fn);
    let (pool, deadline) = (ThreadPool::new(Threads::serial()), Deadline::unbounded());
    coverages
        .iter()
        .map(|&s| {
            let mc = greedy_partial_max_coverage(&m.system, s, &mut Stats::new())
                .expect("universe pattern guarantees feasibility");
            let ours = feasible(opt_cwsc(&space, k, s, &pool, &deadline, &mut Stats::new()));
            (s, mc.total_cost().value(), mc.size(), ours.total_cost)
        })
        .collect()
}

/// One Section VI-B row: a perturbed data set's CWSC cost against the
/// range of CMC costs over the `(b, ε)` grid.
#[derive(Debug, Clone)]
pub struct PerturbRow {
    /// Which perturbation produced the data set.
    pub label: String,
    /// CWSC's solution cost.
    pub cwsc_cost: f64,
    /// Cheapest CMC cost across the grid.
    pub cmc_min: f64,
    /// Most expensive CMC cost across the grid.
    pub cmc_max: f64,
}

/// Section VI-B: CWSC vs CMC on the two groups of synthetic weights
/// (δ-uniform noise; log-normal re-ranked).
pub fn perturbed_quality(
    rows: usize,
    seed: u64,
    k: usize,
    coverage: f64,
    deltas: &[f64],
    sigmas: &[f64],
) -> Vec<PerturbRow> {
    let base = workload(rows, seed);
    let mut out = Vec::new();
    let variants: Vec<(String, Table)> = deltas
        .iter()
        .map(|&d| {
            (
                format!("uniform delta={d}"),
                uniform_noise(&base, d, seed ^ 0xd),
            )
        })
        .chain(sigmas.iter().map(|&s| {
            (
                format!("lognormal sigma={s}"),
                lognormal_rerank(&base, 2.0, s, seed ^ 0x5),
            )
        }))
        .collect();
    let (pool, deadline) = (ThreadPool::new(Threads::serial()), Deadline::unbounded());
    for (label, table) in variants {
        let space = PatternSpace::new(&table, CostFn::Max);
        let cwsc_cost = feasible(opt_cwsc(
            &space,
            k,
            coverage,
            &pool,
            &deadline,
            &mut Stats::new(),
        ))
        .total_cost;
        let mut cmc_min = f64::INFINITY;
        let mut cmc_max = f64::NEG_INFINITY;
        for (b, eps) in [(0.5, 1.0), (1.0, 1.0), (1.0, 2.0), (2.0, 2.0)] {
            let params = RunParams {
                k,
                coverage,
                b,
                eps,
                ..RunParams::default()
            };
            let sol = feasible(opt_cmc(
                &space,
                &params.cmc_params(),
                &pool,
                &deadline,
                &mut Stats::new(),
            ));
            cmc_min = cmc_min.min(sol.total_cost);
            cmc_max = cmc_max.max(sol.total_cost);
        }
        out.push(PerturbRow {
            label,
            cwsc_cost,
            cmc_min,
            cmc_max,
        });
    }
    out
}

/// One Section VI-D row: greedy algorithms against the exact optimum on a
/// small sample.
#[derive(Debug, Clone)]
pub struct OptRow {
    /// Sample size (rows).
    pub rows: usize,
    /// Exact optimal cost (None when the B&B found no feasible solution —
    /// impossible here because the root pattern exists).
    pub optimal: f64,
    /// CWSC cost.
    pub cwsc: f64,
    /// CMC (b=1, ε=1) cost. Note CMC may use up to `(1+ε)k` patterns, so
    /// it can legitimately undercut the `k`-constrained optimum.
    pub cmc: f64,
    /// CMC coverage achieved (the harness runs it at the full target).
    pub cmc_covered: usize,
    /// The common coverage target in records.
    pub target: usize,
    /// Dual-feasible lower bound certified from CWSC's greedy prices.
    pub lower_bound: f64,
    /// Certified ratio `cwsc / lower_bound` (∞ when the bound collapses).
    pub certified: f64,
}

/// Section VI-D: compares CWSC and CMC to the exact optimum on small
/// samples (the paper uses exhaustive search; we use branch and bound).
pub fn vs_optimal(sample_sizes: &[usize], seed: u64, k: usize, coverage: f64) -> Vec<OptRow> {
    let mut out = Vec::new();
    let (pool, deadline) = (ThreadPool::new(Threads::serial()), Deadline::unbounded());
    for &rows in sample_sizes {
        let table = workload(rows, seed);
        let m = enumerate_all(&table, CostFn::Max);
        let target = coverage_target(rows, coverage);
        let optimal = exact_optimal(&m.system, k, target, &mut NoopObserver)
            .expect("root pattern guarantees feasibility")
            .total_cost()
            .value();
        let mut ledger = DecisionLedger::new();
        let cwsc_cost = feasible(cwsc(&m.system, k, coverage, &pool, &deadline, &mut ledger))
            .total_cost()
            .value();
        let cert = audit::certify(&m.system, &ledger.prices(), target);
        let params = RunParams {
            k,
            coverage,
            ..RunParams::default()
        };
        let cmc_sol = feasible(cmc(
            &m.system,
            &params.cmc_params(),
            &pool,
            &deadline,
            &mut Stats::new(),
        ));
        out.push(OptRow {
            rows,
            optimal,
            cwsc: cwsc_cost,
            cmc: cmc_sol.solution.total_cost().value(),
            cmc_covered: cmc_sol.solution.covered(),
            target,
            lower_bound: cert.lower_bound,
            certified: cert.certified_ratio(),
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaling_produces_four_rows_per_size() {
        let ms = scaling(
            &[150, 300],
            7,
            &RunParams {
                k: 5,
                ..RunParams::default()
            },
        );
        assert_eq!(ms.len(), 8);
        assert!(ms.iter().all(|m| m.ok));
        assert_eq!(ms[0].rows, 150);
        assert_eq!(ms[7].rows, 300);
    }

    #[test]
    fn attrs_scaling_covers_one_to_five() {
        let ms = attrs_scaling(
            200,
            7,
            &RunParams {
                k: 4,
                ..RunParams::default()
            },
        );
        assert_eq!(ms.len(), 20);
        assert_eq!(ms[0].attrs, 1);
        assert_eq!(ms[19].attrs, 5);
    }

    #[test]
    fn quality_grid_has_seven_rows() {
        let table = workload(250, 7);
        let rows = quality_grid(&table, &[0.3, 0.5], 5);
        assert_eq!(rows.len(), 7);
        assert_eq!(rows[0].label, "CWSC");
        assert!(rows.iter().all(|r| r.cells.len() == 2));
        assert!(rows.iter().all(|r| r.cells.iter().all(|c| c.ok)));
    }

    #[test]
    fn wsc_baseline_size_grows_with_coverage() {
        let table = workload(400, 7);
        let rows = wsc_baseline(&table, &[0.3, 0.6, 0.9], CostFn::Max);
        assert_eq!(rows.len(), 3);
        assert!(rows[0].1 <= rows[2].1, "{rows:?}");
    }

    #[test]
    fn maxcov_costs_more_than_cwsc() {
        let table = workload(400, 7);
        let rows = maxcov_comparison(&table, &[0.3], 10, CostFn::Max);
        let (_, mc_cost, _, cwsc_cost) = rows[0];
        assert!(
            mc_cost >= cwsc_cost,
            "cost-blind heuristic should not beat CWSC: {mc_cost} vs {cwsc_cost}"
        );
    }

    #[test]
    fn perturbed_rows_cover_both_groups() {
        let rows = perturbed_quality(200, 7, 5, 0.3, &[0.0, 0.5], &[1.0]);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.cwsc_cost.is_finite());
            assert!(r.cmc_min <= r.cmc_max);
        }
    }

    #[test]
    fn vs_optimal_bounds_hold() {
        let rows = vs_optimal(&[25, 40], 7, 4, 0.5);
        for r in &rows {
            assert!(
                r.optimal <= r.cwsc + 1e-9,
                "optimum cannot exceed greedy: {r:?}"
            );
            assert!(
                r.lower_bound <= r.optimal + 1e-9,
                "certified LB must bound the optimum from below: {r:?}"
            );
            assert!(
                r.certified + 1e-9 >= 1.0,
                "certified ratio is at least 1: {r:?}"
            );
            assert!(
                r.cmc_covered >= r.target,
                "harness CMC runs at the full target: {r:?}"
            );
        }
    }
}
