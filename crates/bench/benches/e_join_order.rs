//! e_join_order: connectivity-aware planned joins vs. size-only ordering.
//!
//! Two workload families compare [`join_all`] (greedy connected order,
//! reusable hash indexes) against [`join_all_size_ordered`] (the old
//! ascending-length fold):
//!
//! * **chain** — `R_0(0,1) ⋈ R_1(1,2) ⋈ …` with every relation
//!   functional on its chain attributes. The length sort places
//!   attribute-disjoint relations adjacently and materializes cross
//!   products; the planner walks the chain and never does.
//! * **star** — `R_i(0, i)` leaves functional on the shared hub
//!   attribute, where every order is connected and the comparison
//!   isolates ordering plus index reuse overheads.
//!
//! Before timing, the harness asserts the planner's guarantees on every
//! generated workload: no planned cross products, planner peak
//! intermediate cardinality never above the size-only baseline's, and
//! at least one chain workload where the baseline materializes a cross
//! product the planner avoids.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cspdb_core::budget::Meter;
use cspdb_relalg::{join_all, join_all_size_ordered, plan_join_order, NamedRelation};

/// Deterministic xorshift generator so every run (and the CI smoke
/// pass) sees identical workloads.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// `count` distinct values from `0..domain`, shuffled.
    fn subset(&mut self, domain: u32, count: usize) -> Vec<u32> {
        let mut values: Vec<u32> = (0..domain).collect();
        for i in (1..values.len()).rev() {
            values.swap(i, self.range(0, i as u64) as usize);
        }
        values.truncate(count.min(domain as usize));
        values
    }
}

/// A chain `R_0(0,1), …, R_{m-1}(m-1,m)` over domain `d`: the end
/// relations carry distinct inner-attribute values, the middle ones are
/// partial matchings (distinct on both attributes), so connected joins
/// never grow. Sizes are randomized so the ascending-length sort mixes
/// chain-distant relations.
fn chain_workload(rng: &mut XorShift, m: usize, d: u32) -> Vec<NamedRelation> {
    (0..m)
        .map(|i| {
            let count = rng.range(d as u64 / 2, d as u64 * 3 / 4) as usize;
            let rows: Vec<Vec<u32>> = if i == 0 {
                rng.subset(d, count)
                    .into_iter()
                    .map(|w| vec![rng.range(0, d as u64 - 1) as u32, w])
                    .collect()
            } else if i == m - 1 {
                rng.subset(d, count)
                    .into_iter()
                    .map(|w| vec![w, rng.range(0, d as u64 - 1) as u32])
                    .collect()
            } else {
                let keys = rng.subset(d, count);
                let vals = rng.subset(d, d as usize);
                keys.iter()
                    .zip(vals.iter())
                    .map(|(&k, &v)| vec![k, v])
                    .collect()
            };
            let mut rows = rows;
            rows.sort_unstable();
            rows.dedup();
            NamedRelation::new(vec![i as u32, i as u32 + 1], rows)
        })
        .collect()
}

/// A star `R_1(0,1), …, R_m(0,m)`: every leaf holds distinct hub values
/// over domain `h`, so every join order is connected and filtering.
fn star_workload(rng: &mut XorShift, m: usize, h: u32) -> Vec<NamedRelation> {
    (1..=m)
        .map(|i| {
            let count = rng.range(h as u64 / 2, h as u64) as usize;
            let rows: Vec<Vec<u32>> = rng
                .subset(h, count)
                .into_iter()
                .map(|v| vec![v, rng.range(0, 999) as u32])
                .collect();
            NamedRelation::new(vec![0, i as u32], rows)
        })
        .collect()
}

/// Left-deep fold in `order`, returning the peak intermediate size.
fn fold_peak(relations: &[NamedRelation], order: &[usize]) -> u64 {
    let mut acc = relations[order[0]].clone();
    let mut peak = acc.len() as u64;
    for &i in &order[1..] {
        acc = acc.natural_join(&relations[i]);
        peak = peak.max(acc.len() as u64);
    }
    peak
}

/// The ascending-length order [`join_all_size_ordered`] executes.
fn size_order(rels: &[NamedRelation]) -> Vec<usize> {
    let mut by_size: Vec<usize> = (0..rels.len()).collect();
    by_size.sort_by_key(|&i| (rels[i].len(), i));
    by_size
}

/// Counts fold steps in `order` whose next relation shares no attribute
/// with the accumulated schema (materialized cross products).
fn disconnected_steps(rels: &[NamedRelation], order: &[usize]) -> usize {
    let mut attrs: Vec<u32> = rels[order[0]].schema().to_vec();
    let mut count = 0;
    for &i in &order[1..] {
        if !rels[i].schema().iter().any(|a| attrs.contains(a)) {
            count += 1;
        }
        attrs.extend_from_slice(rels[i].schema());
    }
    count
}

/// Checks the planner's acceptance bounds on one workload and returns
/// how many cross products the size-only baseline materializes.
fn assert_planner_dominates(rels: &[NamedRelation], family: &str) -> usize {
    let plan = plan_join_order(rels);
    assert_eq!(
        plan.cross_products(),
        0,
        "{family}: planned a cross product on a connected join graph"
    );
    let planner_peak = fold_peak(rels, &plan.order());
    let baseline_order = size_order(rels);
    let baseline_peak = fold_peak(rels, &baseline_order);
    assert!(
        planner_peak <= baseline_peak,
        "{family}: planner peak {planner_peak} exceeds size-only peak {baseline_peak}"
    );
    disconnected_steps(rels, &baseline_order)
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("e_join_order");
    group.sample_size(10);

    let mut rng = XorShift(0x0dd0_4a11_5eed_0001);
    let chains: Vec<Vec<NamedRelation>> = (0..8).map(|_| chain_workload(&mut rng, 6, 64)).collect();
    let stars: Vec<Vec<NamedRelation>> = (0..8).map(|_| star_workload(&mut rng, 5, 64)).collect();

    let mut baseline_crosses = 0usize;
    for rels in &chains {
        baseline_crosses += assert_planner_dominates(rels, "chain");
    }
    for rels in &stars {
        assert_planner_dominates(rels, "star");
    }
    assert!(
        baseline_crosses > 0,
        "chain family never forced the size-only baseline into a cross product"
    );

    for (label, workloads) in [("chain", &chains), ("star", &stars)] {
        group.bench_with_input(
            BenchmarkId::new("planned", label),
            workloads,
            |b, workloads| {
                b.iter(|| {
                    workloads
                        .iter()
                        .map(|rels| join_all(rels.clone()).len())
                        .sum::<usize>()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("size_ordered", label),
            workloads,
            |b, workloads| {
                b.iter(|| {
                    workloads
                        .iter()
                        .map(|rels| {
                            join_all_size_ordered(rels.clone(), &mut Meter::default())
                                .expect("unlimited budget cannot exhaust")
                                .len()
                        })
                        .sum::<usize>()
                })
            },
        );
    }

    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
