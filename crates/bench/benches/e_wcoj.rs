//! e_wcoj: worst-case-optimal leapfrog joins vs. the binary pipeline.
//!
//! Two cyclic workload families demonstrate the binary-vs-WCOJ
//! crossover the cost gate ([`choose_engine`]) navigates:
//!
//! * **triangle** — `R(0,1) ⋈ S(1,2) ⋈ T(2,0)` over one random digraph
//!   on `V` vertices, swept across edge counts. Sparse graphs
//!   (`N < V^(4/3)`) keep the binary pipeline: its peak intermediate
//!   `≈ N²/V` undercuts the AGM output bound `N^{3/2}`. Dense graphs
//!   flip the inequality and the gate routes to the leapfrog engine,
//!   which materializes only output tuples.
//! * **Loomis–Whitney LW(4)** — four arity-3 relations over four
//!   attributes, every triple of attributes covered. Binary plans must
//!   materialize a large pairwise join before the remaining relations
//!   filter it; the leapfrog engine never does.
//!
//! Before timing, the harness asserts the acceptance criteria on every
//! generated workload: both engines compute identical tuple sets, the
//! gate picks binary on the sparse end and WCOJ on the dense end, and
//! on the dense triangle and LW(4) the leapfrog engine's peak
//! materialization (its output) is strictly below the binary plan's
//! peak intermediate. The measurements double as the machine-readable
//! `BENCH_wcoj.json` at the repo root (consumed by CI and
//! EXPERIMENTS.md).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use cspdb_core::budget::Budget;
use cspdb_relalg::{
    agm_sqrt_bound, choose_engine, plan_join_order, wcoj_join_metered, NamedRelation,
};
use std::collections::BTreeSet;
use std::time::Instant;

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
}

/// `n` distinct loop-free edges of a random digraph on `v` vertices.
fn random_digraph(rng: &mut XorShift, v: u32, n: usize) -> Vec<Vec<u32>> {
    assert!(
        n <= (v as usize) * (v as usize - 1),
        "graph cannot be that dense"
    );
    let mut edges: BTreeSet<(u32, u32)> = BTreeSet::new();
    while edges.len() < n {
        let a = rng.range(0, v as u64 - 1) as u32;
        let b = rng.range(0, v as u64 - 1) as u32;
        if a != b {
            edges.insert((a, b));
        }
    }
    edges.into_iter().map(|(a, b)| vec![a, b]).collect()
}

/// The triangle query `R(0,1) ⋈ S(1,2) ⋈ T(2,0)`, all three relations
/// reading the same edge set — its output is the directed 3-cycles.
fn triangle(edges: &[Vec<u32>]) -> Vec<NamedRelation> {
    vec![
        NamedRelation::new(vec![0, 1], edges.to_vec()),
        NamedRelation::new(vec![1, 2], edges.to_vec()),
        NamedRelation::new(vec![2, 0], edges.to_vec()),
    ]
}

/// A Loomis–Whitney LW(4) instance: four random arity-3 relations, one
/// per 3-subset of the attributes `{0,1,2,3}`, `n` rows each over
/// domain `v`.
fn loomis_whitney(rng: &mut XorShift, v: u32, n: usize) -> Vec<NamedRelation> {
    let schemas: [[u32; 3]; 4] = [[0, 1, 2], [0, 1, 3], [0, 2, 3], [1, 2, 3]];
    schemas
        .iter()
        .map(|schema| {
            let mut rows: BTreeSet<Vec<u32>> = BTreeSet::new();
            while rows.len() < n {
                rows.insert((0..3).map(|_| rng.range(0, v as u64 - 1) as u32).collect());
            }
            NamedRelation::new(schema.to_vec(), rows)
        })
        .collect()
}

/// The canonical (column-order-independent) tuple set of a relation.
fn canonical_rows(rel: &NamedRelation) -> BTreeSet<Vec<u32>> {
    let mut attrs: Vec<u32> = rel.schema().to_vec();
    attrs.sort_unstable();
    rel.project(&attrs).iter().map(<[u32]>::to_vec).collect()
}

/// Executes the binary pipeline in its planned order, returning the
/// result, the peak materialized cardinality (inputs included), and the
/// wall time in microseconds.
fn run_binary(rels: &[NamedRelation]) -> (NamedRelation, u64, u64) {
    let order = plan_join_order(rels).order();
    let started = Instant::now();
    let mut acc = rels[order[0]].clone();
    let mut peak = acc.len() as u64;
    for &i in &order[1..] {
        acc = acc.natural_join(&rels[i]);
        peak = peak.max(acc.len() as u64);
    }
    let micros = started.elapsed().as_micros() as u64;
    (acc, peak, micros)
}

/// Executes the leapfrog engine, returning the result, its peak
/// materialized cardinality (it only ever materializes output tuples),
/// and the wall time in microseconds.
fn run_wcoj(rels: &[NamedRelation]) -> (NamedRelation, u64, u64) {
    let started = Instant::now();
    let mut meter = Budget::unlimited().meter();
    let out = wcoj_join_metered(rels, &mut meter).expect("unlimited budget cannot exhaust");
    let micros = started.elapsed().as_micros() as u64;
    let peak = out.len() as u64;
    (out, peak, micros)
}

/// Runs both engines on one workload, asserts they agree, and returns
/// one JSON record of the comparison.
fn measure(label: &str, detail: &str, rels: &[NamedRelation]) -> (String, String, u64, u64) {
    let choice = choose_engine(rels);
    let engine = choice.engine_name();
    let est_peak = plan_join_order(rels).est_peak();
    let agm = agm_sqrt_bound(rels);
    let (binary, binary_peak, binary_micros) = run_binary(rels);
    let (wcoj, wcoj_peak, wcoj_micros) = run_wcoj(rels);
    assert_eq!(
        canonical_rows(&binary),
        canonical_rows(&wcoj),
        "{label}/{detail}: engines disagree on the answer"
    );
    let record = format!(
        "{{\"workload\":\"{label}\",\"detail\":\"{detail}\",\"engine\":\"{engine}\",\
         \"binary_est_peak\":{est_peak},\"agm_bound\":{agm},\"output_rows\":{out},\
         \"binary_peak\":{binary_peak},\"wcoj_peak\":{wcoj_peak},\
         \"binary_micros\":{binary_micros},\"wcoj_micros\":{wcoj_micros}}}",
        agm = agm.map_or_else(|| "null".to_string(), |b| b.to_string()),
        out = wcoj.len(),
    );
    (record, engine.to_string(), binary_peak, wcoj_peak)
}

fn bench(c: &mut Criterion) {
    let mut rng = XorShift(0x7a1e_57ee_4a11_0007);
    const V: u32 = 64;

    // Density sweep: edge counts straddling the V^(4/3) = 256 crossover.
    // The peak-materialization gap is ~V²/N (binary's length-2 paths
    // N²/V against the ~N³/V³ triangles WCOJ emits), so it widens as
    // the sweep leaves the crossover.
    let sweep: Vec<(usize, Vec<Vec<u32>>)> = [128usize, 256, 512, 1024, 2048]
        .into_iter()
        .map(|n| (n, random_digraph(&mut rng, V, n)))
        .collect();

    let mut records = Vec::new();
    let mut engines = Vec::new();
    let mut dense_gap = None;
    for (n, edges) in &sweep {
        let rels = triangle(edges);
        let detail = format!("v{V}_n{n}");
        let (record, engine, binary_peak, wcoj_peak) = measure("triangle", &detail, &rels);
        records.push(record);
        engines.push(engine);
        dense_gap = Some((binary_peak, wcoj_peak));
    }
    // Acceptance: the gate keeps the binary pipeline on the sparse end
    // and flips to the leapfrog engine on the dense end, where the
    // leapfrog peak materialization is strictly below the binary one.
    assert_eq!(
        engines.first().map(String::as_str),
        Some("binary"),
        "sparse triangle should stay on the binary pipeline"
    );
    assert_eq!(
        engines.last().map(String::as_str),
        Some("wcoj"),
        "dense triangle should route to the leapfrog engine"
    );
    let (binary_peak, wcoj_peak) = dense_gap.expect("sweep is nonempty");
    assert!(
        wcoj_peak < binary_peak,
        "dense triangle: wcoj peak {wcoj_peak} must undercut binary peak {binary_peak}"
    );

    let lw = loomis_whitney(&mut rng, 12, 220);
    let (record, engine, binary_peak, wcoj_peak) = measure("loomis_whitney", "v12_n220", &lw);
    records.push(record);
    assert_eq!(engine, "wcoj", "LW(4) should route to the leapfrog engine");
    assert!(
        wcoj_peak < binary_peak,
        "LW(4): wcoj peak {wcoj_peak} must undercut binary peak {binary_peak}"
    );

    let out = format!(
        "{{\"bench\":\"e_wcoj\",\"runs\":[{}]}}\n",
        records.join(",")
    );
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_wcoj.json");
    std::fs::write(&path, out).expect("write BENCH_wcoj.json");

    let mut group = c.benchmark_group("e_wcoj");
    group.sample_size(10);
    let dense = triangle(&sweep.last().expect("sweep is nonempty").1);
    for (label, rels) in [("triangle_dense", &dense), ("loomis_whitney", &lw)] {
        group.bench_with_input(BenchmarkId::new("binary", label), rels, |b, rels| {
            b.iter(|| run_binary(rels).0.len())
        });
        group.bench_with_input(BenchmarkId::new("wcoj", label), rels, |b, rels| {
            b.iter(|| run_wcoj(rels).0.len())
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
