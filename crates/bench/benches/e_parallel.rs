//! e_parallel: sequential vs. parallel execution under one meter.
//!
//! Compares the sequential natural join and acyclic (Yannakakis) solver
//! against their parallel counterparts, whose workers each charge a
//! clone of one `Meter`, at 2, 4, and 8 rayon threads. On a single-core
//! host the parallel paths degrade to sequential execution, so the
//! interesting signal is the overhead of partitioning and per-worker
//! metering, not speedup.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cspdb_bench::e10_chain;
use cspdb_core::budget::Budget;
use cspdb_relalg::{solve_acyclic, solve_acyclic_metered, NamedRelation};
use rayon::ThreadPoolBuilder;

/// Deterministic LCG-filled binary relation over `schema` with `rows`
/// tuples drawn from `[0, domain)`.
fn random_rel(schema: Vec<u32>, rows: usize, domain: u32, seed: u64) -> NamedRelation {
    let mut state = seed.wrapping_mul(6364136223846793005).wrapping_add(1);
    let mut next = move || {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) as u32) % domain
    };
    let width = schema.len();
    NamedRelation::new(
        schema,
        (0..rows).map(|_| (0..width).map(|_| next()).collect::<Vec<u32>>()),
    )
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e_parallel");
    group.sample_size(10);

    // Join workload: R(0,1) |><| S(1,2), large enough to clear the
    // sequential-fallback threshold in natural_join_parallel.
    let r = random_rel(vec![0, 1], 4000, 64, 7);
    let s = random_rel(vec![1, 2], 4000, 64, 11);

    group.bench_function("join/sequential", |b| b.iter(|| r.natural_join(&s)));
    for threads in [2usize, 4, 8] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("join/parallel", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    let mut meter = Budget::unlimited().meter();
                    pool.install(|| r.natural_join_parallel(&s, &mut meter).unwrap())
                })
            },
        );
    }

    // Acyclic-solver workload: a long chain instance solved by the
    // Yannakakis reducer, sequential vs. per-level parallel sweeps.
    let chain = e10_chain(48, 8);

    group.bench_function("yannakakis/sequential", |b| {
        b.iter(|| solve_acyclic(&chain).unwrap())
    });
    for threads in [2usize, 4, 8] {
        let pool = ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .unwrap();
        group.bench_with_input(
            BenchmarkId::new("yannakakis/parallel", threads),
            &threads,
            |b, _| {
                b.iter(|| {
                    let mut meter = Budget::unlimited().meter();
                    pool.install(|| solve_acyclic_metered(&chain, &mut meter, true).unwrap())
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
