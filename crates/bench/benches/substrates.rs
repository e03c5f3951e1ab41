//! Criterion micro-benchmarks for the substrate data structures: bitsets,
//! posting-list intersection, full-cube enumeration, dictionary interning,
//! and the workload samplers.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use scwsc_core::BitSet;
use scwsc_data::distributions::{log_normal, Zipf};
use scwsc_data::lbl::LblConfig;
use scwsc_patterns::{enumerate_all, CostFn, InvertedIndex, Pattern, PatternSpace};
use std::time::Duration;

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(300))
        .measurement_time(Duration::from_secs(2))
}

fn bench_bitset(c: &mut Criterion) {
    let mut group = c.benchmark_group("bitset");
    let n = 100_000;
    group.bench_function("insert_100k", |b| {
        b.iter_batched(
            || BitSet::new(n),
            |mut bits| {
                for i in (0..n).step_by(3) {
                    bits.insert(i);
                }
                black_box(bits.count_ones())
            },
            BatchSize::SmallInput,
        )
    });
    let mut a = BitSet::new(n);
    let mut d = BitSet::new(n);
    for i in (0..n).step_by(2) {
        a.insert(i);
    }
    for i in (0..n).step_by(5) {
        d.insert(i);
    }
    group.bench_function("intersection_count_100k", |b| {
        b.iter(|| black_box(a.intersection_count(&d)))
    });
    let ids: Vec<u32> = (0..n as u32).step_by(7).collect();
    group.bench_function("count_unset_marginal_benefit", |b| {
        b.iter(|| black_box(a.count_unset(ids.iter().map(|&x| x as usize))))
    });
    group.finish();
}

fn bench_index(c: &mut Criterion) {
    let table = LblConfig {
        seed: 7,
        ..LblConfig::scaled(20_000)
    }
    .generate();
    let idx = InvertedIndex::build(&table);
    let space = PatternSpace::new(&table, CostFn::Max);
    let mut group = c.benchmark_group("index");
    group.bench_function("build_20k_rows", |b| {
        b.iter(|| black_box(InvertedIndex::build(&table)))
    });
    // A two-attribute pattern: protocol 0 + endstate 0 (both exist).
    let pattern = Pattern::new(vec![Some(0), None, None, Some(0), None]);
    group.bench_function("benefit_two_attr_intersection", |b| {
        b.iter(|| black_box(idx.benefit(&pattern)))
    });
    let root = space.root();
    let rows = space.benefit(&root);
    group.bench_function("children_of_root", |b| {
        b.iter(|| black_box(space.children_with_rows(&root, &rows).len()))
    });
    group.finish();
}

fn bench_enumeration(c: &mut Criterion) {
    let table = LblConfig {
        seed: 7,
        ..LblConfig::scaled(5_000)
    }
    .generate();
    c.benchmark_group("enumerate")
        .sample_size(10)
        .bench_function("full_cube_5k_rows_5_attrs", |b| {
            b.iter(|| black_box(enumerate_all(&table, CostFn::Max).num_patterns()))
        });
}

fn bench_distributions(c: &mut Criterion) {
    let mut group = c.benchmark_group("distributions");
    let zipf = Zipf::new(2_500, 1.1);
    let mut rng = StdRng::seed_from_u64(7);
    group.bench_function("zipf_sample_10k", |b| {
        b.iter(|| {
            let mut acc = 0usize;
            for _ in 0..10_000 {
                acc += zipf.sample(&mut rng);
            }
            black_box(acc)
        })
    });
    group.bench_function("log_normal_10k", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for _ in 0..10_000 {
                acc += log_normal(&mut rng, 2.0, 2.0);
            }
            black_box(acc)
        })
    });
    group.bench_function("uniform_10k_baseline", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for _ in 0..10_000 {
                acc += rng.gen::<f64>();
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_hashing(c: &mut Criterion) {
    use scwsc_patterns::fxhash::FxHashMap;
    use std::collections::HashMap;
    let patterns: Vec<Pattern> = (0..5_000u32)
        .map(|i| {
            Pattern::new(vec![
                Some(i % 13),
                (i % 3 == 0).then_some(i % 7),
                Some(i % 29),
                None,
                Some(i % 5),
            ])
        })
        .collect();
    let mut group = c.benchmark_group("pattern_hashmap");
    group.bench_function("fxhash_insert_lookup", |b| {
        b.iter(|| {
            let mut m: FxHashMap<&Pattern, u32> = FxHashMap::default();
            for (i, p) in patterns.iter().enumerate() {
                m.insert(p, i as u32);
            }
            let mut acc = 0u32;
            for p in &patterns {
                acc = acc.wrapping_add(*m.get(p).unwrap());
            }
            black_box(acc)
        })
    });
    group.bench_function("siphash_insert_lookup", |b| {
        b.iter(|| {
            let mut m: HashMap<&Pattern, u32> = HashMap::new();
            for (i, p) in patterns.iter().enumerate() {
                m.insert(p, i as u32);
            }
            let mut acc = 0u32;
            for p in &patterns {
                acc = acc.wrapping_add(*m.get(p).unwrap());
            }
            black_box(acc)
        })
    });
    group.finish();
}

fn bench_telemetry(c: &mut Criterion) {
    use scwsc_core::algorithms::{cmc, CmcParams};
    use scwsc_core::{Deadline, MetricsRecorder, NoopObserver, Stats, ThreadPool, Threads};
    let table = LblConfig {
        seed: 7,
        ..LblConfig::scaled(2_000)
    }
    .generate();
    let m = enumerate_all(&table, CostFn::Max);
    let params = CmcParams::epsilon(10, 0.3, 1.0, 1.0);
    let pool = ThreadPool::new(Threads::serial());
    let deadline = Deadline::unbounded();
    // The three observer tiers on the same solve: the no-op path should be
    // indistinguishable from the Stats path (static dispatch, an empty
    // `on`), with MetricsRecorder paying only for histogram updates.
    let mut group = c.benchmark_group("telemetry_overhead");
    group.bench_function("cmc_noop_observer", |b| {
        b.iter(|| black_box(cmc(&m.system, &params, &pool, &deadline, &mut NoopObserver).is_ok()))
    });
    group.bench_function("cmc_stats", |b| {
        b.iter(|| {
            let mut stats = Stats::new();
            black_box(cmc(&m.system, &params, &pool, &deadline, &mut stats).is_ok())
        })
    });
    group.bench_function("cmc_metrics_recorder", |b| {
        b.iter(|| {
            let mut metrics = MetricsRecorder::new();
            black_box(cmc(&m.system, &params, &pool, &deadline, &mut metrics).is_ok())
        })
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_bitset, bench_index, bench_enumeration, bench_distributions, bench_hashing,
        bench_telemetry
}
criterion_main!(benches);
