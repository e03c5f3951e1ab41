//! Criterion benchmarks for the parallel execution layer: the chunked
//! masked benefit scan against its serial equivalent on the largest
//! registry workload scale (fig5 rows4000), end-to-end `cwsc` on 1, 2
//! and 4 threads, and the fused bitset kernels the scan is built from
//! (`difference_count` vs a materialized difference,
//! `max_intersection_count` vs a hand-rolled argmax loop).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use scwsc_core::algorithms::cwsc;
use scwsc_core::algorithms::scan::{
    build_masks, masked_argmax, masked_argmax_pruned, PrunedScan, ScanOrder,
};
use scwsc_core::cover_state::benefit_order;
use scwsc_core::{
    BitSet, BlockSummary, Deadline, NoopObserver, SetSystem, ThreadLocalTelemetry, ThreadPool,
    Threads,
};
use scwsc_data::lbl::LblConfig;
use scwsc_patterns::{enumerate_all, CostFn};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

/// The full-cube set system of the largest registry workload's table
/// (`fig5/*/rows4000`): the exact input the unoptimized solvers scan.
fn largest_registry_system() -> SetSystem {
    let table = LblConfig {
        seed: 7,
        ..LblConfig::scaled(4000)
    }
    .generate();
    enumerate_all(&table, CostFn::Max).system
}

/// A half-covered universe: the regime mid-solve where the scan does
/// real `difference_count` work instead of terminating on empty masks.
fn half_covered(num_elements: usize) -> BitSet {
    let mut covered = BitSet::new(num_elements);
    for e in (0..num_elements).step_by(2) {
        covered.insert(e);
    }
    covered
}

fn bench_benefit_scan(c: &mut Criterion) {
    let system = largest_registry_system();
    let covered = half_covered(system.num_elements());
    let mut group = c.benchmark_group("parallel_benefit_scan");
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(Threads::new(threads));
        let masks = build_masks(&pool, &system);
        let tls = ThreadLocalTelemetry::new(pool.threads());
        group.bench_function(&format!("masked_argmax_rows4000_t{threads}"), |b| {
            b.iter(|| {
                let best = masked_argmax(
                    &pool,
                    &tls,
                    &system,
                    &masks,
                    &covered,
                    |_| true,
                    |_| true,
                    benefit_order,
                );
                // Drain the shards so spans don't accumulate across iters.
                tls.replay(&mut NoopObserver);
                black_box(best)
            })
        });
    }
    group.finish();
}

fn bench_cwsc_end_to_end(c: &mut Criterion) {
    let system = largest_registry_system();
    let mut group = c.benchmark_group("parallel_cwsc");
    for threads in [1usize, 2, 4] {
        let pool = ThreadPool::new(Threads::new(threads));
        let name = match threads {
            1 => "cwsc_rows4000_serial".to_string(),
            n => format!("cwsc_rows4000_t{n}"),
        };
        group.bench_function(&name, |b| {
            b.iter(|| {
                let solved = cwsc(
                    &system,
                    10,
                    0.3,
                    &pool,
                    &Deadline::unbounded(),
                    &mut NoopObserver,
                );
                black_box(solved.is_ok())
            })
        });
    }
    group.finish();
}

fn bench_bitset_kernels(c: &mut Criterion) {
    let n = 100_000;
    let mut a = BitSet::new(n);
    let mut covered = BitSet::new(n);
    for i in (0..n).step_by(3) {
        a.insert(i);
    }
    for i in (0..n).step_by(2) {
        covered.insert(i);
    }
    let mut group = c.benchmark_group("bitset_kernels");
    group.bench_function("difference_count_fused_100k", |b| {
        b.iter(|| black_box(a.difference_count(&covered)))
    });
    group.bench_function("difference_count_materialized_100k", |b| {
        b.iter(|| {
            let mut d = a.clone();
            d.difference_with(&covered);
            black_box(d.count_ones())
        })
    });
    let others: Vec<BitSet> = (0..64)
        .map(|s| {
            let mut o = BitSet::new(n);
            for i in (s..n).step_by(17 + s % 7) {
                o.insert(i);
            }
            o
        })
        .collect();
    group.bench_function("max_intersection_count_64x100k", |b| {
        b.iter(|| black_box(a.max_intersection_count(&others)))
    });
    group.bench_function("max_intersection_count_naive_64x100k", |b| {
        b.iter(|| {
            let mut best: Option<(usize, usize)> = None;
            for (i, o) in others.iter().enumerate() {
                let count = a.intersection_count(o);
                if best.is_none_or(|(_, c)| count > c) {
                    best = Some((i, count));
                }
            }
            black_box(best)
        })
    });
    group.finish();
}

/// Reference popcount loop over the raw words: what the blocked 4-wide
/// kernel in `BitSet` replaces. Kept here (not in core) so the baseline
/// cannot drift with the production code.
fn scalar_difference_count(a: &BitSet, b: &BitSet) -> usize {
    a.words()
        .iter()
        .zip(b.words())
        .map(|(x, y)| (x & !y).count_ones() as usize)
        .sum()
}

fn bench_blocked_kernels(c: &mut Criterion) {
    let n = 100_000;
    let mut a = BitSet::new(n);
    let mut covered = BitSet::new(n);
    for i in (0..n).step_by(3) {
        a.insert(i);
    }
    for i in (0..n).step_by(2) {
        covered.insert(i);
    }
    let summary = BlockSummary::of(&a);
    let mut group = c.benchmark_group("blocked_kernels");
    group.bench_function("difference_count_blocked_100k", |b| {
        b.iter(|| black_box(a.difference_count(&covered)))
    });
    group.bench_function("difference_count_scalar_100k", |b| {
        b.iter(|| black_box(scalar_difference_count(&a, &covered)))
    });
    // Early exit: all of `front`'s ones sit in the first 1% of the
    // universe, so the suffix bound collapses after a handful of blocks
    // and an unreachable threshold returns `Short` almost immediately.
    let mut front = BitSet::new(n);
    for i in 0..n / 100 {
        front.insert(i);
    }
    let front_summary = BlockSummary::of(&front);
    group.bench_function("difference_count_limited_exit_100k", |b| {
        b.iter(|| black_box(front.difference_count_limited(&covered, &front_summary, n)))
    });
    group.bench_function("difference_count_limited_full_100k", |b| {
        // Threshold 0 disables the exit: measures the probe's overhead
        // over the plain blocked kernel when it never fires.
        b.iter(|| black_box(a.difference_count_limited(&covered, &summary, 0)))
    });
    group.finish();
}

/// One covered set per coverage density the scan meets over a solve:
/// early rounds (sparse), mid-solve (half), endgame (dense).
fn covered_at_density(num_elements: usize, keep_every: usize, invert: bool) -> BitSet {
    let mut covered = BitSet::new(num_elements);
    if invert {
        covered.fill();
        for e in (0..num_elements).step_by(keep_every) {
            covered.remove(e);
        }
    } else {
        for e in (0..num_elements).step_by(keep_every) {
            covered.insert(e);
        }
    }
    covered
}

fn bench_pruned_vs_exact_scan(c: &mut Criterion) {
    let system = largest_registry_system();
    let pool = ThreadPool::new(Threads::new(1));
    let masks = build_masks(&pool, &system);
    let tls = ThreadLocalTelemetry::new(pool.threads());
    let mut group = c.benchmark_group("pruned_vs_exact_scan");
    for (density, keep_every, invert) in [
        ("sparse10", 10, false),
        ("half50", 2, false),
        ("dense90", 10, true),
    ] {
        let covered = covered_at_density(system.num_elements(), keep_every, invert);
        group.bench_function(&format!("exact_{density}"), |b| {
            b.iter(|| {
                let best = masked_argmax(
                    &pool,
                    &tls,
                    &system,
                    &masks,
                    &covered,
                    |_| true,
                    |_| true,
                    benefit_order,
                );
                tls.replay(&mut NoopObserver);
                black_box(best)
            })
        });
        // Steady state: bounds warmed by one scan at this coverage, the
        // regime every round after the first sees.
        let mut scan = PrunedScan::with_enabled(&masks, true);
        masked_argmax_pruned(
            &pool,
            &tls,
            &system,
            &masks,
            &mut scan,
            &covered,
            |_| true,
            |_| true,
            0,
            ScanOrder::Benefit,
            &mut NoopObserver,
        );
        tls.replay(&mut NoopObserver);
        group.bench_function(&format!("pruned_{density}"), |b| {
            b.iter(|| {
                let best = masked_argmax_pruned(
                    &pool,
                    &tls,
                    &system,
                    &masks,
                    &mut scan,
                    &covered,
                    |_| true,
                    |_| true,
                    0,
                    ScanOrder::Benefit,
                    &mut NoopObserver,
                );
                tls.replay(&mut NoopObserver);
                black_box(best)
            })
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_benefit_scan, bench_cwsc_end_to_end, bench_bitset_kernels,
    bench_blocked_kernels, bench_pruned_vs_exact_scan
}
criterion_main!(benches);
