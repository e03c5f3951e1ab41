//! Ablation benchmarks for the design choices DESIGN.md calls out:
//! CMC level schedules (classic vs ε vs generalized), the coverage
//! discount, pattern cost functions, and lazy vs eager greedy selection.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scwsc_core::algorithms::{cmc, CmcParams, LevelSchedule};
use scwsc_core::incremental::{IncrementalCover, RepairStrategy};
use scwsc_core::lazy_greedy::LazyGreedy;
use scwsc_core::{CoverState, Deadline, SetSystem, Stats, ThreadPool, Threads};
use scwsc_data::lbl::LblConfig;
use scwsc_patterns::{enumerate_all, opt_cwsc, CostFn, PatternSpace, Table};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn workload() -> Table {
    LblConfig {
        seed: 7,
        ..LblConfig::scaled(8_000)
    }
    .generate()
}

/// Which level schedule makes CMC cheapest to run / best quality?
fn bench_level_schedules(c: &mut Criterion) {
    let table = workload();
    let m = enumerate_all(&table, CostFn::Max);
    let (pool, deadline) = (ThreadPool::new(Threads::serial()), Deadline::unbounded());
    let mut group = c.benchmark_group("cmc_level_schedule");
    for (name, schedule) in [
        ("classic_5k", LevelSchedule::Classic),
        ("epsilon_0_5", LevelSchedule::Epsilon(0.5)),
        ("epsilon_2", LevelSchedule::Epsilon(2.0)),
        ("generalized_l3", LevelSchedule::Generalized(3)),
    ] {
        let params = CmcParams {
            schedule,
            discount_coverage: false,
            ..CmcParams::classic(10, 0.3, 1.0)
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(cmc(&m.system, &params, &pool, &deadline, &mut Stats::new())))
        });
    }
    group.finish();
}

/// How much work does the (1−1/e) coverage discount save?
fn bench_coverage_discount(c: &mut Criterion) {
    let table = workload();
    let m = enumerate_all(&table, CostFn::Max);
    let (pool, deadline) = (ThreadPool::new(Threads::serial()), Deadline::unbounded());
    let mut group = c.benchmark_group("cmc_coverage_discount");
    for (name, discount) in [("discounted_target", true), ("full_target", false)] {
        let params = CmcParams {
            discount_coverage: discount,
            ..CmcParams::classic(10, 0.5, 1.0)
        };
        group.bench_function(name, |b| {
            b.iter(|| black_box(cmc(&m.system, &params, &pool, &deadline, &mut Stats::new())))
        });
    }
    group.finish();
}

/// Cost-function sensitivity of the optimized CWSC.
fn bench_cost_functions(c: &mut Criterion) {
    let table = workload();
    let (pool, deadline) = (ThreadPool::new(Threads::serial()), Deadline::unbounded());
    let mut group = c.benchmark_group("opt_cwsc_cost_fn");
    for (name, cost_fn) in [
        ("max", CostFn::Max),
        ("sum", CostFn::Sum),
        ("mean", CostFn::Mean),
        ("l2_norm", CostFn::LpNorm(2.0)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let space = PatternSpace::new(&table, cost_fn);
                black_box(opt_cwsc(
                    &space,
                    10,
                    0.3,
                    &pool,
                    &deadline,
                    &mut Stats::new(),
                ))
            })
        });
    }
    group.finish();
}

/// Lazy-greedy heap vs the faithful eager scan for max-k-coverage
/// selection over a materialized system.
fn bench_lazy_vs_eager(c: &mut Criterion) {
    let table = workload();
    let m = enumerate_all(&table, CostFn::Max);
    let k = 40;
    let mut group = c.benchmark_group("greedy_selection");
    group.bench_function("eager_scan", |b| {
        b.iter(|| {
            let mut state = CoverState::new(&m.system);
            let mut picked = 0usize;
            for _ in 0..k {
                let Some(q) = state.argmax_benefit(|_| true) else {
                    break;
                };
                state.select(q);
                picked += 1;
            }
            black_box(picked)
        })
    });
    group.bench_function("lazy_heap", |b| {
        b.iter(|| black_box(lazy_max_coverage(&m.system, k)))
    });
    group.finish();
}

/// Max-k-coverage via the lazy heap (returns how many sets were picked).
fn lazy_max_coverage(system: &SetSystem, k: usize) -> usize {
    let mut covered = scwsc_core::BitSet::new(system.num_elements());
    let mut lg =
        LazyGreedy::with_candidates(system.iter().map(|(id, s)| (id, s.benefit() as f64, 0.0)));
    let mut picked = 0usize;
    for _ in 0..k {
        let popped = lg.pop_max(|id| {
            let mben = covered.count_unset(system.members(id).iter().map(|&e| e as usize));
            (mben > 0).then_some((mben as f64, 0.0))
        });
        let Some((id, _)) = popped else { break };
        for &e in system.members(id) {
            covered.insert(e as usize);
        }
        picked += 1;
        lg.invalidate();
    }
    picked
}

/// Incremental maintenance: full re-solve vs greedy patch repairs
/// (the §VII future-work feature's two strategies).
fn bench_incremental_strategies(c: &mut Criterion) {
    // Pre-generate a deterministic arrival stream over 24 sets + universe.
    let mut rng_state = 0x9e3779b97f4a7c15u64;
    let mut next = move || {
        rng_state ^= rng_state << 13;
        rng_state ^= rng_state >> 7;
        rng_state ^= rng_state << 17;
        rng_state
    };
    let arrivals: Vec<Vec<u32>> = (0..3_000)
        .map(|_| {
            let mut sets = vec![24u32]; // universe
            for s in 0..24u32 {
                if next() % 5 == 0 {
                    sets.push(s);
                }
            }
            sets
        })
        .collect();
    let costs: Vec<f64> = (0..24).map(|i| 2.0 + f64::from(i)).chain([500.0]).collect();

    let mut group = c.benchmark_group("incremental_repair");
    for (name, strategy) in [
        ("resolve", RepairStrategy::Resolve),
        ("patch", RepairStrategy::Patch),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| {
                let mut inc = IncrementalCover::with_strategy(&costs, 6, 0.6, strategy).unwrap();
                for memberships in &arrivals {
                    inc.push_element(memberships).unwrap();
                }
                black_box((inc.resolves(), inc.patches(), inc.solution_cost()))
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_level_schedules, bench_coverage_discount, bench_cost_functions, bench_lazy_vs_eager, bench_incremental_strategies
}
criterion_main!(benches);
