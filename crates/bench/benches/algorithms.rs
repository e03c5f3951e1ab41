//! Criterion benchmarks for the paper's algorithms on a fixed seeded
//! workload — the micro-benchmark companions to the Figure 5 / Table V
//! harness binaries (which sweep parameters; these pin them).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scwsc_bench::measure::RunParams;
use scwsc_core::algorithms::{
    cmc, cwsc, exact_optimal, greedy_max_coverage, greedy_partial_max_coverage,
    greedy_weighted_set_cover,
};
use scwsc_core::{coverage_target, Deadline, NoopObserver, Stats, ThreadPool, Threads};
use scwsc_data::lbl::LblConfig;
use scwsc_patterns::{enumerate_all, opt_cmc, opt_cwsc, CostFn, PatternSpace};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(3))
}

fn bench_algorithms(c: &mut Criterion) {
    let table = LblConfig {
        seed: 7,
        ..LblConfig::scaled(10_000)
    }
    .generate();
    let params = RunParams::default(); // k=10, s=0.3, b=eps=1
    let materialized = enumerate_all(&table, CostFn::Max);
    let cmc_params = params.cmc_params();
    let pool = ThreadPool::new(Threads::serial());
    let deadline = Deadline::unbounded();

    let mut group = c.benchmark_group("fig5_10k_rows");
    group.bench_function("cwsc_unoptimized_presolved_cube", |b| {
        b.iter(|| {
            black_box(cwsc(
                &materialized.system,
                params.k,
                params.coverage,
                &pool,
                &deadline,
                &mut Stats::new(),
            ))
        })
    });
    group.bench_function("cwsc_optimized", |b| {
        b.iter(|| {
            let space = PatternSpace::new(&table, CostFn::Max);
            black_box(opt_cwsc(
                &space,
                params.k,
                params.coverage,
                &pool,
                &deadline,
                &mut Stats::new(),
            ))
        })
    });
    group.bench_function("cmc_unoptimized_presolved_cube", |b| {
        b.iter(|| {
            black_box(cmc(
                &materialized.system,
                &cmc_params,
                &pool,
                &deadline,
                &mut Stats::new(),
            ))
        })
    });
    group.bench_function("cmc_optimized", |b| {
        b.iter(|| {
            let space = PatternSpace::new(&table, CostFn::Max);
            black_box(opt_cmc(
                &space,
                &cmc_params,
                &pool,
                &deadline,
                &mut Stats::new(),
            ))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("baselines_10k_rows");
    group.bench_function("greedy_weighted_set_cover", |b| {
        b.iter(|| {
            black_box(greedy_weighted_set_cover(
                &materialized.system,
                0.3,
                &mut Stats::new(),
            ))
        })
    });
    group.bench_function("greedy_max_coverage_k10", |b| {
        b.iter(|| {
            black_box(greedy_max_coverage(
                &materialized.system,
                10,
                &mut Stats::new(),
            ))
        })
    });
    group.bench_function("greedy_partial_max_coverage", |b| {
        b.iter(|| {
            black_box(greedy_partial_max_coverage(
                &materialized.system,
                0.3,
                &mut Stats::new(),
            ))
        })
    });
    group.finish();

    // Section VI-D scale: the exact solver on a small sample.
    let small = LblConfig {
        seed: 7,
        ..LblConfig::scaled(60)
    }
    .generate();
    let small_m = enumerate_all(&small, CostFn::Max);
    let target = coverage_target(small.num_rows(), 0.5);
    c.benchmark_group("sec6d_exact")
        .sample_size(10)
        .bench_function("branch_and_bound_60_rows_k5", |b| {
            b.iter(|| black_box(exact_optimal(&small_m.system, 5, target, &mut NoopObserver)))
        });
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_algorithms
}
criterion_main!(benches);
