//! `solve_batch`: a fixed, seeded batch of instances run through
//! `Solver::new()` and `evaluate_by_join_budgeted` from one thread, with
//! no service layer in the way. Every family is tagged with the ladder
//! tier that should decide it and carries a planted ground truth.

use crate::spans::{self, Spans};
use crate::util::{self, Rng};
use crate::{layer_table, Ctx, Fault, Metric, Outcome};
use cspdb::Solver;
use cspdb_core::graphs::{clique, undirected};
use cspdb_core::trace::{Recorder, TraceEvent};
use cspdb_core::{is_homomorphism, Answer, Budget, CspInstance, Relation, Structure};
use cspdb_cq::{evaluate_by_join_budgeted, ConjunctiveQuery};
use cspdb_service::{parse_facts, relation_to_json};
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Batch generations per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// The `deadline` family's budget.
const DEADLINE: Duration = Duration::from_millis(10);

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Family {
    Horn,
    TwoSat,
    Xor,
    Acyclic,
    KTree,
    Color3,
    Triangle,
    Lw4,
    Parallel,
    Deadline,
}

impl Family {
    /// Instances per batch.
    const MIX: [(Family, usize); 10] = [
        (Family::Horn, 160),
        (Family::TwoSat, 160),
        (Family::Xor, 160),
        (Family::Acyclic, 160),
        (Family::KTree, 160),
        (Family::Color3, 120),
        (Family::Triangle, 80),
        (Family::Lw4, 80),
        (Family::Parallel, 40),
        (Family::Deadline, 12),
    ];

    fn name(self) -> &'static str {
        match self {
            Family::Horn => "horn",
            Family::TwoSat => "2sat",
            Family::Xor => "xor",
            Family::Acyclic => "acyclic",
            Family::KTree => "ktree",
            Family::Color3 => "color3",
            Family::Triangle => "triangle",
            Family::Lw4 => "lw4",
            Family::Parallel => "parallel",
            Family::Deadline => "deadline",
        }
    }

    /// The tier expected to decide the family (`wcoj` and `join` are
    /// CQ evaluations, not ladder tiers).
    fn tier(self) -> &'static str {
        match self {
            Family::Horn | Family::TwoSat | Family::Xor => "schaefer",
            Family::Acyclic => "yannakakis",
            Family::KTree => "treewidth",
            Family::Color3 | Family::Parallel => "backtracking",
            Family::Triangle | Family::Lw4 => "wcoj",
            Family::Deadline => "unknown",
        }
    }
}

enum Task {
    Csp(CspInstance),
    Hom(Structure, Structure),
    Cq(ConjunctiveQuery, Structure),
}

enum Truth {
    Sat(bool),
    Rows(String),
}

struct Instance {
    family: Family,
    task: Task,
    truth: Truth,
}

/// The ladder tiers, as `PhaseTrace` names start.
const TIERS: [&str; 6] = [
    "schaefer",
    "yannakakis",
    "treewidth",
    "backtracking",
    "arc_consistency",
    "k_consistency",
];
const TIER_SPANS: [&str; 6] = [
    "facade.schaefer",
    "facade.yannakakis",
    "facade.treewidth",
    "facade.backtracking",
    "facade.arc_consistency",
    "facade.k_consistency",
];

/// Index into [`TIERS`] of a phase name such as `treewidth(2)`,
/// `arc-consistency` or `3-consistency`.
fn tier_of(phase: &str) -> Option<usize> {
    let base = phase.split('(').next().unwrap_or(phase);
    if base == "arc-consistency" {
        return Some(4);
    }
    if base.ends_with("-consistency") {
        return Some(5);
    }
    TIERS.iter().position(|t| *t == base)
}

// ---- generators -------------------------------------------------------

/// A CNF (DIMACS-style literals) as a Boolean CSP: one constraint per
/// clause listing the clause's satisfying tuples.
fn cnf_csp(n: usize, clauses: &[Vec<i32>]) -> CspInstance {
    let mut inst = CspInstance::new(n, 2);
    for clause in clauses {
        let mut vars: Vec<u32> = clause.iter().map(|l| l.unsigned_abs() - 1).collect();
        vars.sort_unstable();
        vars.dedup();
        let tuples: Vec<Vec<u32>> = (0u32..1 << vars.len())
            .map(|bits| {
                (0..vars.len())
                    .map(|i| (bits >> i) & 1)
                    .collect::<Vec<u32>>()
            })
            .filter(|t| {
                clause.iter().any(|&lit| {
                    let i = vars
                        .binary_search(&(lit.unsigned_abs() - 1))
                        .expect("clause var");
                    (lit > 0) == (t[i] == 1)
                })
            })
            .collect();
        let rel = Relation::from_tuples(vars.len(), tuples.iter()).expect("clause arity");
        inst.add_constraint(vars, Arc::new(rel))
            .expect("vars in range");
    }
    inst
}

fn distinct(rng: &mut Rng, n: usize, k: usize) -> Vec<usize> {
    let mut out: Vec<usize> = Vec::with_capacity(k);
    while out.len() < k {
        let v = rng.below(n);
        if !out.contains(&v) {
            out.push(v);
        }
    }
    out
}

fn lit(v: usize, positive: bool) -> i32 {
    if positive {
        v as i32 + 1
    } else {
        -(v as i32 + 1)
    }
}

/// Random clauses of width `w` that the planted assignment satisfies.
fn planted_clauses(rng: &mut Rng, a: &[bool], w: usize, m: usize) -> Vec<Vec<i32>> {
    let mut out = Vec::with_capacity(m);
    while out.len() < m {
        let c: Vec<i32> = distinct(rng, a.len(), w)
            .into_iter()
            .map(|v| lit(v, rng.chance(0.5)))
            .collect();
        if c.iter()
            .any(|&l| (l > 0) == a[l.unsigned_abs() as usize - 1])
        {
            out.push(c);
        }
    }
    out
}

fn horn(rng: &mut Rng, sat: bool) -> CspInstance {
    let n = 60;
    let a: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
    let mut clauses: Vec<Vec<i32>> = Vec::new();
    while clauses.len() < 150 {
        let v = distinct(rng, n, 3);
        let c = match rng.below(3) {
            0 if a[v[0]] => vec![lit(v[0], true)],
            1 if !(a[v[0]] && a[v[1]]) => vec![lit(v[0], false), lit(v[1], false)],
            2 if !a[v[0]] || !a[v[1]] || a[v[2]] => {
                vec![lit(v[0], false), lit(v[1], false), lit(v[2], true)]
            }
            _ => continue,
        };
        clauses.push(c);
    }
    if !sat {
        // x0, x0 → x1, ..., x6 → x7, ¬x7: refuted only by propagation.
        let chain = distinct(rng, n, 8);
        clauses.push(vec![lit(chain[0], true)]);
        for w in chain.windows(2) {
            clauses.push(vec![lit(w[0], false), lit(w[1], true)]);
        }
        clauses.push(vec![lit(chain[7], false)]);
    }
    cnf_csp(n, &clauses)
}

fn two_sat(rng: &mut Rng, sat: bool) -> CspInstance {
    let n = 80;
    let a: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
    let mut clauses = planted_clauses(rng, &a, 2, 120);
    if !sat {
        // x → y → ¬x and ¬x → z → x.
        let v = distinct(rng, n, 3);
        let (x, y, z) = (v[0], v[1], v[2]);
        clauses.push(vec![lit(x, false), lit(y, true)]);
        clauses.push(vec![lit(y, false), lit(x, false)]);
        clauses.push(vec![lit(x, true), lit(z, true)]);
        clauses.push(vec![lit(z, false), lit(x, true)]);
    }
    cnf_csp(n, &clauses)
}

fn xor_system(rng: &mut Rng, sat: bool) -> CspInstance {
    let n = 60;
    let a: Vec<u32> = (0..n).map(|_| rng.below(2) as u32).collect();
    let mut eqs: Vec<(Vec<u32>, u32)> = Vec::new();
    for _ in 0..45 {
        let w = 2 + rng.below(2);
        let mut vars: Vec<u32> = distinct(rng, n, w).into_iter().map(|v| v as u32).collect();
        vars.sort_unstable();
        let rhs = vars.iter().map(|&v| a[v as usize]).sum::<u32>() % 2;
        eqs.push((vars, rhs));
    }
    if !sat {
        let (vars, rhs) = eqs[0].clone();
        eqs.push((vars, 1 - rhs));
    }
    let mut inst = CspInstance::new(n, 2);
    for (vars, rhs) in eqs {
        let tuples: Vec<Vec<u32>> = (0u32..1 << vars.len())
            .map(|bits| {
                (0..vars.len())
                    .map(|i| (bits >> i) & 1)
                    .collect::<Vec<u32>>()
            })
            .filter(|t| t.iter().sum::<u32>() % 2 == rhs)
            .collect();
        let rel = Relation::from_tuples(vars.len(), tuples.iter()).expect("xor arity");
        inst.add_constraint(vars, Arc::new(rel))
            .expect("vars in range");
    }
    inst
}

/// A tree of binary constraints (α-acyclic) over 30 variables and 5
/// values. Variables 1 and 2 both hang off variable 0; the unsatisfiable
/// variant gives those two constraints disjoint supports for variable 0.
fn acyclic(rng: &mut Rng, sat: bool) -> CspInstance {
    let (n, d) = (30usize, 5u32);
    let a: Vec<u32> = (0..n).map(|_| rng.below(d as usize) as u32).collect();
    let mut inst = CspInstance::new(n, d as usize);
    for child in 1..n {
        let parent = if child <= 2 { 0 } else { rng.below(child) };
        let mut tuples: Vec<[u32; 2]> = Vec::new();
        for x in 0..d {
            for y in 0..d {
                let planted = sat && x == a[parent] && y == a[child];
                let allowed = match (sat, child) {
                    (false, 1) => x < 2,
                    (false, 2) => x >= 2,
                    _ => true,
                };
                if allowed && (planted || rng.chance(0.35)) {
                    tuples.push([x, y]);
                }
            }
        }
        let rel = Relation::from_tuples(2, tuples).expect("binary");
        inst.add_constraint([parent as u32, child as u32], Arc::new(rel))
            .expect("vars in range");
    }
    inst
}

/// A partial 2-tree on 40 vertices (3-colourable); the unsatisfiable
/// variant adds a disjoint K4 (treewidth 3).
fn ktree(rng: &mut Rng, sat: bool) -> (Structure, Structure) {
    let n = 40u32;
    let mut edges: Vec<(u32, u32)> = vec![(0, 1), (1, 2), (0, 2)];
    let mut cliques: Vec<(u32, u32)> = edges.clone();
    for v in 3..n {
        let (u, w) = cliques[rng.below(cliques.len())];
        edges.push((v, u));
        edges.push((v, w));
        cliques.push((v, u));
        cliques.push((v, w));
    }
    let mut kept: Vec<(u32, u32)> = edges.into_iter().filter(|_| rng.chance(0.85)).collect();
    let mut size = n as usize;
    if !sat {
        for i in 0..4 {
            for j in i + 1..4 {
                kept.push((n + i, n + j));
            }
        }
        size += 4;
    }
    (undirected(size, &kept), clique(3))
}

/// A graph with a planted 3-colouring at average degree 4.6.
fn color3(rng: &mut Rng) -> (Structure, Structure) {
    let n = 50usize;
    let colour: Vec<usize> = (0..n).map(|_| rng.below(3)).collect();
    let mut seen = HashSet::new();
    let mut edges = Vec::new();
    while edges.len() < 115 {
        let (u, v) = (rng.below(n), rng.below(n));
        if u < v && colour[u] != colour[v] && seen.insert((u, v)) {
            edges.push((u as u32, v as u32));
        }
    }
    (undirected(n, &edges), clique(3))
}

fn rows_json(mut rows: Vec<Vec<u32>>) -> String {
    rows.sort_unstable();
    let body: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells: Vec<String> = r.iter().map(u32::to_string).collect();
            format!("[{}]", cells.join(","))
        })
        .collect();
    format!("[{}]", body.join(","))
}

/// Directed triangles of a dense random digraph, with a nested-loop
/// oracle.
fn triangle(rng: &mut Rng) -> (ConjunctiveQuery, Structure, String) {
    let n = 40usize;
    let mut adj = vec![vec![false; n]; n];
    let mut facts = String::new();
    for (u, row) in adj.iter_mut().enumerate() {
        for (v, cell) in row.iter_mut().enumerate() {
            if u != v && rng.chance(0.25) {
                *cell = true;
                facts.push_str(&format!("E {u} {v}\n"));
            }
        }
    }
    let mut rows = Vec::new();
    for (x, row) in adj.iter().enumerate() {
        for (y, _) in row.iter().enumerate().filter(|(_, &e)| e) {
            for (z, _) in adj[y].iter().enumerate().filter(|(_, &e)| e) {
                if adj[z][x] {
                    rows.push(vec![x as u32, y as u32, z as u32]);
                }
            }
        }
    }
    let q = ConjunctiveQuery::parse("Q(X,Y,Z) :- E(X,Y), E(Y,Z), E(Z,X)").expect("triangle query");
    (
        q,
        parse_facts(&facts).expect("triangle facts"),
        rows_json(rows),
    )
}

/// The Loomis–Whitney LW(4) query over four dense ternary relations,
/// with a brute-force oracle.
fn lw4(rng: &mut Rng) -> (ConjunctiveQuery, Structure, String) {
    let d = 8u32;
    let names = ["R", "S", "T", "U"];
    let mut sets: Vec<HashSet<[u32; 3]>> = vec![HashSet::new(); 4];
    let mut facts = String::new();
    for (name, set) in names.iter().zip(sets.iter_mut()) {
        for x in 0..d {
            for y in 0..d {
                for z in 0..d {
                    if rng.chance(0.35) {
                        set.insert([x, y, z]);
                        facts.push_str(&format!("{name} {x} {y} {z}\n"));
                    }
                }
            }
        }
        // The top value makes every relation span the whole domain.
        if set.insert([d - 1, d - 1, d - 1]) {
            facts.push_str(&format!("{name} {0} {0} {0}\n", d - 1));
        }
    }
    let mut rows = Vec::new();
    for a in 0..d {
        for b in 0..d {
            for c in 0..d {
                if !sets[0].contains(&[a, b, c]) {
                    continue;
                }
                for e in 0..d {
                    if sets[1].contains(&[b, c, e])
                        && sets[2].contains(&[a, c, e])
                        && sets[3].contains(&[a, b, e])
                    {
                        rows.push(vec![a, b, c, e]);
                    }
                }
            }
        }
    }
    let q = ConjunctiveQuery::parse("Q(A,B,C,D) :- R(A,B,C), S(B,C,D), T(A,C,D), U(A,B,D)")
        .expect("lw4 query");
    (q, parse_facts(&facts).expect("lw4 facts"), rows_json(rows))
}

/// Planted 3-SAT at clause density 4.26 over 250 variables.
fn hard_3sat(rng: &mut Rng) -> CspInstance {
    let n = 250;
    let a: Vec<bool> = (0..n).map(|_| rng.chance(0.5)).collect();
    cnf_csp(n, &planted_clauses(rng, &a, 3, 1065))
}

/// The batch for `seed`, in a seeded order. Three in four decision
/// instances of the Schaefer, acyclic and treewidth families are
/// satisfiable; the rest are planted unsatisfiable.
fn batch(seed: u64) -> Vec<Instance> {
    let root = Rng::new(seed).fork(3);
    let mut out = Vec::new();
    for (f, (family, count)) in Family::MIX.into_iter().enumerate() {
        let mut rng = root.fork(f as u64);
        for i in 0..count {
            let sat = i % 4 != 3;
            let (task, truth) = match family {
                Family::Horn => (Task::Csp(horn(&mut rng, sat)), Truth::Sat(sat)),
                Family::TwoSat => (Task::Csp(two_sat(&mut rng, sat)), Truth::Sat(sat)),
                Family::Xor => (Task::Csp(xor_system(&mut rng, sat)), Truth::Sat(sat)),
                Family::Acyclic => (Task::Csp(acyclic(&mut rng, sat)), Truth::Sat(sat)),
                Family::KTree => {
                    let (a, b) = ktree(&mut rng, sat);
                    (Task::Hom(a, b), Truth::Sat(sat))
                }
                Family::Color3 | Family::Parallel => {
                    let (a, b) = color3(&mut rng);
                    (Task::Hom(a, b), Truth::Sat(true))
                }
                Family::Triangle => {
                    let (q, db, rows) = triangle(&mut rng);
                    (Task::Cq(q, db), Truth::Rows(rows))
                }
                Family::Lw4 => {
                    let (q, db, rows) = lw4(&mut rng);
                    (Task::Cq(q, db), Truth::Rows(rows))
                }
                Family::Deadline => (Task::Csp(hard_3sat(&mut rng)), Truth::Sat(true)),
            };
            out.push(Instance {
                family,
                task,
                truth,
            });
        }
    }
    let mut order = root.fork(99);
    order.shuffle(&mut out);
    out
}

// ---- running ----------------------------------------------------------

/// What one call returned, reduced to what the checks need.
enum Got {
    Solved(cspdb::GovernedReport),
    Rows(Relation),
}

fn run_one(inst: &Instance, budget: &Budget) -> Result<Got, String> {
    Ok(match &inst.task {
        Task::Csp(c) => {
            let solver = if inst.family == Family::Deadline {
                Solver::new().budget(budget.clone().with_deadline(DEADLINE))
            } else {
                Solver::new().budget(budget.clone())
            };
            Got::Solved(solver.solve_csp(c))
        }
        Task::Hom(a, b) => Got::Solved(
            Solver::new()
                .budget(budget.clone())
                .parallel(inst.family == Family::Parallel)
                .solve(a, b),
        ),
        Task::Cq(q, db) => {
            Got::Rows(evaluate_by_join_budgeted(q, db, budget).map_err(|e| e.to_string())?)
        }
    })
}

/// Checks one result against the planted truth. `Ok(false)` is a
/// wrong-tier `Unknown` (a failure, counted); `Err` is a wrong answer.
fn check(inst: &Instance, got: &Got, corrupt: bool) -> Result<bool, String> {
    let family = inst.family.name();
    match (got, &inst.truth) {
        (Got::Solved(report), Truth::Sat(truth)) => {
            let truth = *truth != corrupt;
            match &report.answer {
                Answer::Sat(w) => {
                    let valid = match &inst.task {
                        Task::Csp(c) => w.len() == c.num_vars() && c.is_solution(w),
                        Task::Hom(a, b) => is_homomorphism(w, a, b),
                        Task::Cq(..) => false,
                    };
                    if !valid {
                        return Err(format!("{family}: the Sat witness is not a homomorphism"));
                    }
                    if !truth {
                        return Err(format!(
                            "{family}: answered Sat on a planted-unsatisfiable instance"
                        ));
                    }
                    Ok(true)
                }
                Answer::Unsat if truth => Err(format!(
                    "{family}: answered Unsat on a planted-satisfiable instance"
                )),
                Answer::Unsat => Ok(true),
                Answer::Unknown(_) => Ok(inst.family == Family::Deadline),
            }
        }
        (Got::Rows(rel), Truth::Rows(want)) => {
            let got = relation_to_json(rel);
            if (got == *want) == corrupt {
                return Err(format!(
                    "{family}: {} answer rows but the oracle lists {} bytes of rows",
                    rel.len(),
                    want.len()
                ));
            }
            Ok(true)
        }
        _ => Err(format!("{family}: result kind does not match the instance")),
    }
}

fn generate(seed: u64) -> (Vec<Instance>, Vec<f64>) {
    let mut setup = Vec::new();
    let mut last = Vec::new();
    for _ in 0..SETUPS {
        drop(std::mem::take(&mut last));
        let t = Instant::now();
        last = batch(seed);
        setup.push(t.elapsed().as_secs_f64());
    }
    (last, setup)
}

/// Per-run tallies.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
    busy_s: f64,
    /// Busy time at which each correct instance completed.
    done_s: Vec<f64>,
    solve_us: Vec<f64>,
    overrun: Vec<f64>,
    tier_mismatch: u64,
    per_family: BTreeMap<&'static str, (u64, f64)>,
}

impl Tally {
    fn add(&mut self, inst: &Instance, got: &Got, secs: f64, corrupt: bool) -> Result<(), String> {
        self.attempted += 1;
        self.busy_s += secs;
        if check(inst, got, corrupt)? {
            self.done_s.push(self.busy_s);
        } else {
            self.failed += 1;
        }
        let e = self.per_family.entry(inst.family.name()).or_default();
        e.0 += 1;
        e.1 += secs;
        if inst.family == Family::Deadline {
            self.overrun.push(secs / DEADLINE.as_secs_f64());
        } else {
            self.solve_us.push(secs * 1e6);
        }
        if let Got::Solved(report) = got {
            let decided = report.strategy.map(|s| s.name()).unwrap_or("unknown");
            if decided != inst.family.tier() {
                self.tier_mismatch += 1;
            }
        }
        Ok(())
    }
}

/// An untraced run.
pub fn run(ctx: &Ctx) -> Result<Outcome, String> {
    let (batch, setup) = generate(ctx.seed);
    let budget = Budget::unlimited();
    let mut tally = Tally::default();
    let limit = Duration::from_secs_f64(ctx.seconds);
    let t0 = Instant::now();
    'outer: loop {
        for (i, inst) in batch.iter().enumerate() {
            if t0.elapsed() >= limit {
                break 'outer;
            }
            let t = Instant::now();
            let got = std::hint::black_box(run_one(inst, &budget)?);
            let secs = t.elapsed().as_secs_f64();
            tally.add(
                inst,
                &got,
                secs,
                ctx.fault == Fault::CorruptOracle && i == 0,
            )?;
        }
    }
    let rss = util::peak_rss_mb(std::process::id());
    let mut report = vec![
        Metric::new("solve_p50_us", util::median(&tally.solve_us), "us", "lower"),
        Metric::new(
            "solve_p99_us",
            util::windowed_p99(&[&tally.solve_us]),
            "us",
            "lower",
        ),
        Metric::new(
            "p99_us",
            util::windowed_p99(&[&tally.solve_us]),
            "us",
            "lower",
        ),
        Metric::new(
            "solve_samples",
            tally.solve_us.len() as f64,
            "count",
            "higher",
        ),
        Metric::new(
            "err_ratio",
            tally.failed as f64 / tally.attempted.max(1) as f64,
            "ratio",
            "lower",
        ),
        Metric::new(
            "deadline_overrun_p99",
            util::quantile(&tally.overrun, 0.99),
            "ratio",
            "lower",
        ),
        Metric::new(
            "tier_mismatches",
            tally.tier_mismatch as f64,
            "count",
            "lower",
        ),
    ];
    for (family, (n, secs)) in &tally.per_family {
        report.push(Metric::new(
            &format!("{family}_mean_us"),
            secs / *n as f64 * 1e6,
            "us",
            "lower",
        ));
    }
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics: vec![
            Metric::new("setup_s", util::median(&setup), "s", "lower"),
            Metric::new(
                "ops_per_s",
                util::windowed_rate(&[&tally.done_s], tally.busy_s),
                "1/s",
                "higher",
            ),
            Metric::new("p50_us", util::median(&tally.solve_us), "us", "lower"),
            Metric::new("peak_rss_mb", rss, "MB", "lower"),
        ],
        report,
    })
}

/// A traced run: the batch without spans for half the run, then the same
/// instances again with a span per call and the facade's own phase
/// trace folded in as child spans.
pub fn run_traced(ctx: &Ctx) -> Result<Outcome, String> {
    let (batch, _) = generate(ctx.seed);
    let plain_budget = Budget::unlimited();
    // One discarded pass over a slice of the batch warms the allocator,
    // so the untraced and traced passes compare like with like.
    for inst in batch.iter().take(batch.len() / 4) {
        std::hint::black_box(run_one(inst, &plain_budget)?);
    }
    let limit = Duration::from_secs_f64(ctx.seconds / 2.0);
    let mut plain = Tally::default();
    let mut n = 0usize;
    let mut plain_ns = 0u128;
    while Duration::from_secs_f64(plain.busy_s) < limit {
        let inst = &batch[n % batch.len()];
        let t = Instant::now();
        let got = std::hint::black_box(run_one(inst, &plain_budget)?);
        plain_ns += t.elapsed().as_nanos();
        plain.add(inst, &got, t.elapsed().as_secs_f64(), false)?;
        n += 1;
    }

    let recorder = Arc::new(Recorder::new());
    let budget = Budget::unlimited().with_trace(recorder.clone());
    let mut sp = Spans::new(true);
    let mut traced = Tally::default();
    let mut traced_ns = 0u128;
    let (mut inter_rows, mut out_rows) = (0u64, 0u64);
    let mut tier_us = [0u64; 6];
    let mut tier_steps = [0u64; 6];
    let (mut solves, mut phase_us, mut solve_ns) = (0u64, 0u64, 0u64);
    for i in 0..n {
        let inst = &batch[i % batch.len()];
        let id = i as u64 + 1;
        let t = Instant::now();
        let name = if matches!(inst.task, Task::Cq(..)) {
            "cq.eval"
        } else {
            "facade.solve"
        };
        let start_ns = sp.clock_ns();
        let got = sp.span(name, id, |sp| {
            let got = run_one(inst, &budget)?;
            if let Got::Solved(report) = &got {
                // The program reports each phase's wall time; lay the
                // phases end to end inside the call's span.
                let mut at = start_ns;
                for phase in &report.trace.phases {
                    if let Some(t) = tier_of(&phase.phase) {
                        sp.record(TIER_SPANS[t], id, at, phase.micros * 1000);
                        tier_us[t] += phase.micros;
                        tier_steps[t] += phase.steps;
                    }
                    at += phase.micros * 1000;
                    phase_us += phase.micros;
                }
            }
            Ok::<Got, String>(got)
        })?;
        let elapsed = t.elapsed();
        traced_ns += elapsed.as_nanos();
        match &got {
            Got::Solved(_) => {
                solves += 1;
                solve_ns += elapsed.as_nanos() as u64;
            }
            Got::Rows(rel) => {
                out_rows += rel.len() as u64;
                for event in recorder.take() {
                    if let TraceEvent::Operator { output_rows, .. } = event {
                        inter_rows += output_rows;
                    }
                }
            }
        }
        recorder.take();
        traced.add(inst, &got, elapsed.as_secs_f64(), false)?;
    }

    let fold = sp.fold();
    let layer_ns: u64 = fold.values().map(|f| f.self_ns).sum();
    let overhead = traced_ns as f64 / plain_ns.max(1) as f64 - 1.0;
    let unaccounted = 1.0 - layer_ns as f64 / traced_ns.max(1) as f64;
    let spans_path = ctx.out.join("spans-solve_batch.jsonl");
    sp.write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    spans::print_table("solve_batch", &fold, traced_ns as u64);
    println!(
        "  solve_batch: trace.overhead_frac {overhead:.4}  solve_batch.unaccounted_frac {unaccounted:.4}  ({n} instances per pass; spans in {})",
        spans_path.display()
    );

    let mut layers = layer_table();
    let per_solve = solves.max(1) as f64;
    for t in 0..TIERS.len() {
        let us = format!("facade.{}_us", TIERS[t]);
        let steps = format!("facade.{}_steps", TIERS[t]);
        for (key, value) in [
            (us, tier_us[t] as f64 / per_solve),
            (steps, tier_steps[t] as f64 / per_solve),
        ] {
            layers
                .get_mut(key.as_str())
                .expect("known per-layer metric")
                .0 = value;
        }
    }
    let mut set = |k: &str, v: f64| layers.get_mut(k).expect("known per-layer metric").0 = v;
    set(
        "facade.unattributed_frac",
        1.0 - phase_us as f64 * 1000.0 / solve_ns.max(1) as f64,
    );
    set(
        "facade.deadline_overrun_p99",
        util::quantile(&plain.overrun, 0.99),
    );
    set("cq.eval_us", spans::mean_us(&fold, "cq.eval"));
    set(
        "relalg.rows_per_output_row",
        inter_rows as f64 / out_rows.max(1) as f64,
    );
    set("trace.overhead_frac", overhead);
    set("trace.unaccounted_frac", unaccounted);
    Ok(Outcome::layers(
        plain.attempted + traced.attempted,
        plain.failed + traced.failed,
        layers,
    ))
}
