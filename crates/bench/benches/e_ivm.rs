//! e_ivm: incremental view maintenance vs cache-nuking under a write
//! storm.
//!
//! A single database takes an interleaved stream of reads (renamed
//! variants of one conjunctive query, so the semantic cache can serve
//! them) and writes (random edge toggles). The same logical stream is
//! driven through [`cspdb_service::Server`] twice:
//!
//! * **nuke** — every write re-`put`s the full fact set, the legacy
//!   path: the version bump drops every cached entry and every
//!   maintained view, so the next read of each shape pays a cold
//!   evaluation;
//! * **delta** — every write is a wire-protocol-v2 `insert`/`delete`:
//!   the catalog applies the single-tuple delta, maintained views
//!   refresh incrementally, and the cache is *revalidated* onto the new
//!   version from the view answers, so reads keep hitting.
//!
//! Before anything is timed the harness asserts correctness: both modes
//! return byte-identical answers at every read index, and after the
//! delta-mode storm every maintained view is tuple-for-tuple equal to a
//! from-scratch recomputation (`Server::verify_views`). Then it asserts
//! the headline claim — delta maintenance beats cache-nuking on read
//! p99 by at least 2× — and records p50/p99 for both modes in
//! `BENCH_ivm.json` at the repo root (consumed by EXPERIMENTS.md
//! § E-ivm). A smoke run (`-- --test`, as in CI) checks the same
//! assertions and writes nothing.

use criterion::{criterion_group, criterion_main, Criterion};
use cspdb_service::{Outcome, Request, RequestBody, Server, ServerConfig};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;

struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const NODES: u64 = 48;

/// The base graph: a cycle plus random chords, dense enough that a cold
/// path-3 evaluation visibly out-costs a cache hit.
fn base_edges(rng: &mut XorShift) -> BTreeSet<(u64, u64)> {
    let mut edges: BTreeSet<(u64, u64)> = (0..NODES).map(|i| (i, (i + 1) % NODES)).collect();
    while edges.len() < NODES as usize + 80 {
        edges.insert((rng.below(NODES), rng.below(NODES)));
    }
    edges
}

fn facts_of(edges: &BTreeSet<(u64, u64)>) -> String {
    edges
        .iter()
        .map(|(u, v)| format!("E {u} {v}"))
        .collect::<Vec<_>>()
        .join("\n")
}

/// A fresh variable renaming of the path-3 query: semantically the same
/// view on every read, textually distinct, so only the *semantic* cache
/// (and the maintained view behind it) can serve the stream.
fn render(salt: u64, rot: usize) -> String {
    let mut atoms = [
        format!("E(X{salt},Z{salt})"),
        format!("E(Z{salt},W{salt})"),
        format!("E(W{salt},Y{salt})"),
    ];
    let n = atoms.len();
    atoms.rotate_left(rot % n);
    format!("Q(X{salt},Y{salt}) :- {}", atoms.join(", "))
}

/// One step of the storm, identical across both modes.
enum Op {
    /// Submit this query and time the response.
    Read(String),
    /// Toggle edge (u, v): delete when present, insert when absent.
    Toggle(u64, u64),
}

/// Three reads per write on average — enough writes to keep nuking
/// painful, enough reads that p99 reflects steady-state serving.
fn storm(rng: &mut XorShift, len: usize) -> Vec<Op> {
    (0..len)
        .map(|_| {
            if rng.below(4) == 0 {
                Op::Toggle(rng.below(NODES), rng.below(NODES))
            } else {
                Op::Read(render(rng.below(4), rng.below(3) as usize))
            }
        })
        .collect()
}

fn start_server() -> Arc<Server> {
    Arc::new(Server::start(ServerConfig {
        workers: 2,
        heavy_workers: 1,
        queue_depth: 64,
        ..ServerConfig::default()
    }))
}

fn submit(server: &Server, id: u64, body: RequestBody) -> Outcome {
    server
        .submit(Request::new(id, body))
        .expect("submit")
        .wait()
        .outcome
}

/// Drives the storm; writes go through full re-`put`s when `nuke`,
/// through v2 deltas otherwise. Returns per-read latencies (µs) and the
/// answer rows at every read index, plus the server (so the caller can
/// audit the maintained views while they are still alive).
fn drive(
    ops: &[Op],
    base: &BTreeSet<(u64, u64)>,
    nuke: bool,
) -> (Vec<f64>, Vec<String>, Arc<Server>) {
    let server = start_server();
    let mut edges = base.clone();
    let seeded = submit(
        &server,
        1,
        RequestBody::Put {
            db: "g".into(),
            facts: facts_of(&edges),
        },
    );
    assert!(
        matches!(seeded, Outcome::Put { .. }),
        "seed put failed: {seeded:?}"
    );
    let mut id = 1u64;
    let mut latencies = Vec::new();
    let mut answers = Vec::new();
    for op in ops {
        id += 1;
        match op {
            Op::Read(query) => {
                let start = Instant::now();
                let outcome = submit(
                    &server,
                    id,
                    RequestBody::Cq {
                        db: "g".into(),
                        query: query.clone(),
                    },
                );
                latencies.push(start.elapsed().as_secs_f64() * 1e6);
                match outcome {
                    Outcome::Answers { rows, .. } => answers.push(rows),
                    other => panic!("read {id} failed: {other:?}"),
                }
            }
            Op::Toggle(u, v) => {
                let insert = edges.insert((*u, *v));
                if !insert {
                    edges.remove(&(*u, *v));
                }
                if nuke {
                    let outcome = submit(
                        &server,
                        id,
                        RequestBody::Put {
                            db: "g".into(),
                            facts: facts_of(&edges),
                        },
                    );
                    assert!(
                        matches!(outcome, Outcome::Put { .. }),
                        "put failed: {outcome:?}"
                    );
                } else {
                    let fact = format!("E {u} {v}");
                    let body = if insert {
                        RequestBody::Insert {
                            db: "g".into(),
                            fact,
                        }
                    } else {
                        RequestBody::Delete {
                            db: "g".into(),
                            fact,
                        }
                    };
                    match submit(&server, id, body) {
                        Outcome::Delta { applied: true, .. } => {}
                        other => panic!("delta {id} failed: {other:?}"),
                    }
                }
            }
        }
    }
    (latencies, answers, server)
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn stats(mut latencies: Vec<f64>) -> (f64, f64) {
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (percentile(&latencies, 0.50), percentile(&latencies, 0.99))
}

fn bench(c: &mut Criterion) {
    let mut rng = XorShift(0x1b_5eed_e17a);
    let base = base_edges(&mut rng);
    let ops = storm(&mut rng, 320);
    let reads = ops.iter().filter(|o| matches!(o, Op::Read(_))).count();
    let writes = ops.len() - reads;

    // Acceptance before timing: both modes agree byte-for-byte at every
    // read, and the delta-maintained views equal recomputation.
    let (nuke_lat, nuke_answers, _nuke_server) = drive(&ops, &base, true);
    let (delta_lat, delta_answers, delta_server) = drive(&ops, &base, false);
    assert_eq!(
        nuke_answers, delta_answers,
        "delta-maintained reads diverge from recompute-from-scratch reads"
    );
    let drift = delta_server.verify_views();
    assert!(drift.is_empty(), "maintained views drifted: {drift:?}");
    assert!(
        !delta_server.views().is_empty("g"),
        "no view survived the storm — nothing was maintained"
    );

    let (nuke_p50, nuke_p99) = stats(nuke_lat);
    let (delta_p50, delta_p99) = stats(delta_lat);
    assert!(
        delta_p99 * 2.0 <= nuke_p99,
        "delta maintenance missed the 2x read-p99 target: \
         delta {delta_p99:.1}us vs nuke {nuke_p99:.1}us"
    );

    let out = format!(
        concat!(
            "{{\"bench\":\"e_ivm\",\"reads\":{},\"writes\":{},",
            "\"nuke_read_p50_us\":{:.1},\"nuke_read_p99_us\":{:.1},",
            "\"delta_read_p50_us\":{:.1},\"delta_read_p99_us\":{:.1},",
            "\"p99_speedup\":{:.2}}}\n"
        ),
        reads,
        writes,
        nuke_p50,
        nuke_p99,
        delta_p50,
        delta_p99,
        nuke_p99 / delta_p99.max(1e-9)
    );
    // A smoke run (`--test`) checks the assertions above and leaves the
    // recorded figures alone.
    if !std::env::args().any(|a| a == "--test") {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_ivm.json");
        std::fs::write(&path, out).expect("write BENCH_ivm.json");
    }

    let mut group = c.benchmark_group("e_ivm");
    group.sample_size(10);
    group.bench_function("nuke", |b| b.iter(|| drive(&ops, &base, true).1.len()));
    group.bench_function("delta", |b| b.iter(|| drive(&ops, &base, false).1.len()));
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
