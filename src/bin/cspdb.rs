//! `cspdb` — a command-line front end to the constraint-db workspace.
//!
//! ```text
//! cspdb color <k> <edges-file>        k-color a graph (edge list: "0 1" per line)
//! cspdb sat <dimacs-file>             solve CNF via Schaefer's dichotomy
//! cspdb datalog <program> <facts>     run a Datalog program on EDB facts
//! cspdb cq "<query>" <facts>          evaluate a conjunctive query
//! cspdb contain "<q1>" "<q2>"         conjunctive-query containment
//! cspdb minimize "<query>"            minimize a query to its core
//! cspdb rpq "<regex>" <ledges-file>   RPQ over a labeled graph ("0 a 1")
//! cspdb treewidth <edges-file>        exact treewidth (n ≤ 64) + decomposition
//! cspdb serve [--stdin|--listen A]    JSONL request server (see below)
//! cspdb doctor [--requests N]         replay a fault-laden workload, verify invariants
//! ```
//!
//! Resource-governance flags (accepted anywhere after the subcommand,
//! honored by `color`, `sat`, `datalog`, `cq`, `treewidth`, and
//! `serve`, where they form the server's global budget):
//!
//! ```text
//! --timeout-ms <n>   wall-clock budget in milliseconds
//! --steps <n>        solver step budget
//! --tuples <n>       materialized-tuple budget
//! ```
//!
//! Observability flags:
//!
//! ```text
//! --explain          append an EXPLAIN ANALYZE-style plan report
//!                    (for `cq`: the chosen join order with estimated vs
//!                    actual cardinalities and index builds; honored by
//!                    `color`, `sat`, and `cq`)
//! --explain=json     print the full report as one JSON document instead
//! --trace=FILE       append every TraceEvent of the run to FILE as JSON
//!                    lines (any subcommand; composes with --explain)
//! ```
//!
//! Fault injection (off unless the flag is given — the default
//! [`FaultHandle`](cspdb_core::FaultHandle) is inert, a single branch):
//!
//! ```text
//! --faults=SPEC      seeded deterministic fault plan, e.g.
//!                    "seed=7,panic=5,poison=9,slow=11,slow-ms=2,
//!                     truncate=17,corrupt=13,queue-full=6" — each
//!                    site fires once per period. Threaded through the
//!                    budget into `serve`; `doctor` uses it as the
//!                    replay plan.
//! ```
//!
//! Service mode (`cspdb serve`) reads one JSON request object per line
//! from stdin (`--stdin`, the default) or a TCP socket (`--listen
//! ADDR`), executes them on a worker pool with admission control and a
//! semantic result cache, and writes one JSON response per line. See
//! README.md § "Service mode" for the schema and knobs.
//!
//! When a budget runs out the command prints `UNKNOWN (<reason>)` and
//! exits with code 2 instead of hanging.
//!
//! Facts files: one fact per line, `Pred arg1 arg2 ...`; `#` comments.
//! All vertex/argument ids are nonnegative integers.

use constraint_db::core::budget::{Answer, Budget};
use constraint_db::core::trace::{Fanout, JsonLinesSink, Recorder, TraceSink};
use constraint_db::core::{FaultPlan, Structure, VocabularyBuilder};
use constraint_db::service::{
    pump_pipelined, run_doctor, serve_listener, DoctorConfig, DurableStorage, NetConfig, Server,
    ServerConfig, ShutdownMode,
};
use constraint_db::{ExplainReport, GovernedReport, Solver};
use std::io::Write;
use std::process::ExitCode;
use std::sync::Arc;

/// A command either finished (printing its result) or ran out of budget
/// (the payload is the printed `UNKNOWN` reason, mapped to exit code 2).
enum CmdOutcome {
    Done,
    OutOfBudget,
}

/// How `--explain` asks the solver-backed commands to report their plan.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Explain {
    Off,
    Text,
    Json,
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let budget = match extract_budget(&mut args) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let explain = match extract_explain(&mut args) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace = match extract_trace(&mut args) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let faults = match extract_faults(&mut args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    // Attach the file sink to the budget so every budget-honoring
    // subcommand emits its events; explain paths re-compose via Fanout.
    let budget = match &trace {
        Some(sink) => budget.with_trace(sink.clone()),
        None => budget,
    };
    // Thread the fault plan through the budget the same way the tracer
    // rides it: `serve` inherits it via the server's global budget.
    // Armed faults also install the panic-hook filter so injected
    // (caught) panics don't bury real output under backtraces.
    let budget = match &faults {
        Some(plan) => {
            constraint_db::core::silence_injected_panics();
            budget.with_faults(plan.clone())
        }
        None => budget,
    };
    let result = match args.first().map(String::as_str) {
        Some("color") => cmd_color(&args[1..], &budget, explain, &trace),
        Some("sat") => cmd_sat(&args[1..], &budget, explain, &trace),
        Some("datalog") => cmd_datalog(&args[1..], &budget),
        Some("cq") => cmd_cq(&args[1..], &budget, explain, &trace),
        Some("contain") => cmd_contain(&args[1..]).map(|()| CmdOutcome::Done),
        Some("minimize") => cmd_minimize(&args[1..]).map(|()| CmdOutcome::Done),
        Some("rpq") => cmd_rpq(&args[1..]).map(|()| CmdOutcome::Done),
        Some("treewidth") => cmd_treewidth(&args[1..], &budget),
        Some("serve") => cmd_serve(&args[1..], &budget, &trace),
        Some("doctor") => cmd_doctor(&args[1..], faults.clone()),
        Some("help") | Some("--help") | Some("-h") | None => {
            eprintln!("{}", USAGE);
            return ExitCode::SUCCESS;
        }
        Some(other) => Err(format!("unknown subcommand `{other}`\n{USAGE}")),
    };
    match result {
        Ok(CmdOutcome::Done) => ExitCode::SUCCESS,
        Ok(CmdOutcome::OutOfBudget) => ExitCode::from(2),
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  cspdb color <k> <edges-file>
  cspdb sat <dimacs-file>
  cspdb datalog <program-file> <facts-file>
  cspdb cq \"<query>\" <facts-file>
  cspdb contain \"<q1>\" \"<q2>\"
  cspdb minimize \"<query>\"
  cspdb rpq \"<regex>\" <labeled-edges-file>
  cspdb treewidth <edges-file>
  cspdb serve [--stdin | --listen <addr>] [--workers <n>] [--heavy-workers <n>]
              [--queue <n>] [--heavy-queue <n>] [--heavy-threshold <n>]
              [--no-cache] [--once] [--data-dir <dir>] [--shards <n>]
              [--max-conns <n>] [--idle-timeout-ms <n>]
  cspdb doctor [--requests <n>] [--seed <n>] [--data-dir <dir>]
budget flags (color/sat/datalog/cq/treewidth/serve): --timeout-ms <n> --steps <n> --tuples <n>
explain flags (color/sat/cq): --explain --explain=json
trace flag (any subcommand): --trace=<file>
fault flag (serve/doctor): --faults=<spec>  e.g. --faults=seed=7,panic=5,poison=9";

/// Strips `--timeout-ms/--steps/--tuples <n>` from `args` and builds the
/// corresponding [`Budget`] (unlimited when no flag is given).
fn extract_budget(args: &mut Vec<String>) -> Result<Budget, String> {
    let mut budget = Budget::unlimited();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        match flag.as_str() {
            "--timeout-ms" | "--steps" | "--tuples" => {
                if i + 1 >= args.len() {
                    return Err(format!("{flag} requires a value"));
                }
                let v: u64 = args[i + 1].parse().map_err(|e| format!("{flag}: {e}"))?;
                budget = match flag.as_str() {
                    "--timeout-ms" => budget.with_deadline(std::time::Duration::from_millis(v)),
                    "--steps" => budget.with_step_limit(v),
                    _ => budget.with_tuple_limit(v),
                };
                args.drain(i..i + 2);
            }
            _ => i += 1,
        }
    }
    Ok(budget)
}

/// Strips `--explain[=text|json]` from `args`.
fn extract_explain(args: &mut Vec<String>) -> Result<Explain, String> {
    let mut mode = Explain::Off;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--explain" | "--explain=text" => {
                mode = Explain::Text;
                args.remove(i);
            }
            "--explain=json" => {
                mode = Explain::Json;
                args.remove(i);
            }
            other if other.starts_with("--explain=") => {
                return Err(format!(
                    "unknown explain format `{}` (expected text or json)",
                    &other["--explain=".len()..]
                ));
            }
            _ => i += 1,
        }
    }
    Ok(mode)
}

/// Strips `--trace=<file>` / `--trace <file>` from `args` and opens the
/// JSON-lines event sink.
fn extract_trace(args: &mut Vec<String>) -> Result<Option<Arc<dyn TraceSink>>, String> {
    let mut sink: Option<Arc<dyn TraceSink>> = None;
    let open = |path: &str| -> Result<Arc<dyn TraceSink>, String> {
        let file = std::fs::File::create(path).map_err(|e| format!("--trace {path}: {e}"))?;
        Ok(Arc::new(JsonLinesSink::new(file)))
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        if let Some(path) = flag.strip_prefix("--trace=") {
            sink = Some(open(path)?);
            args.remove(i);
        } else if flag == "--trace" {
            if i + 1 >= args.len() {
                return Err("--trace requires a file path".into());
            }
            sink = Some(open(&args[i + 1].clone())?);
            args.drain(i..i + 2);
        } else {
            i += 1;
        }
    }
    Ok(sink)
}

/// Strips `--faults=<spec>` / `--faults <spec>` from `args` and parses
/// the [`FaultPlan`]. `None` (no flag) leaves fault handling compiled
/// down to its inert single-branch default.
fn extract_faults(args: &mut Vec<String>) -> Result<Option<FaultPlan>, String> {
    let mut plan: Option<FaultPlan> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        if let Some(spec) = flag.strip_prefix("--faults=") {
            plan = Some(FaultPlan::parse(spec)?);
            args.remove(i);
        } else if flag == "--faults" {
            if i + 1 >= args.len() {
                return Err("--faults requires a spec".into());
            }
            plan = Some(FaultPlan::parse(&args[i + 1].clone())?);
            args.drain(i..i + 2);
        } else {
            i += 1;
        }
    }
    Ok(plan)
}

/// The sink a run should emit to when `--explain` recorded events and
/// `--trace=FILE` may also be listening: the recorder alone, or a
/// [`Fanout`] over both.
fn compose_sinks(rec: &Arc<Recorder>, trace: &Option<Arc<dyn TraceSink>>) -> Arc<dyn TraceSink> {
    match trace {
        Some(file) => Arc::new(Fanout::new(vec![file.clone(), rec.clone()])),
        None => rec.clone(),
    }
}

/// Runs `solve` under the configured budget, wiring in a [`Recorder`]
/// when `--explain` asked for one, prints the answer via `print_answer`
/// (suppressed in JSON mode, where the report is the whole output), and
/// maps `Unknown` to exit code 2.
fn solve_and_report(
    budget: &Budget,
    explain: Explain,
    trace: &Option<Arc<dyn TraceSink>>,
    solve: impl FnOnce(Solver) -> GovernedReport,
    print_answer: impl FnOnce(&GovernedReport),
) -> CmdOutcome {
    let recorder = (explain != Explain::Off).then(|| Arc::new(Recorder::new()));
    let mut solver = Solver::new().budget(budget.clone());
    if let Some(rec) = &recorder {
        // Solver::trace replaces the budget's sink, so keep the file
        // sink (if any) listening by fanning out to both.
        solver = solver.trace(compose_sinks(rec, trace));
    }
    let report = solve(solver);
    let outcome = if matches!(report.answer, Answer::Unknown(_)) {
        CmdOutcome::OutOfBudget
    } else {
        CmdOutcome::Done
    };
    match (explain, recorder) {
        (Explain::Json, Some(rec)) => {
            println!("{}", ExplainReport::new(report, rec.take()).to_json());
        }
        (Explain::Text, Some(rec)) => {
            print_answer(&report);
            print!("{}", ExplainReport::new(report, rec.take()).render_text());
        }
        _ => print_answer(&report),
    }
    outcome
}

fn read(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))
}

/// Parses "u v" edge lines; returns (max_vertex + 1, edges).
fn parse_edges(src: &str) -> Result<(usize, Vec<(u32, u32)>), String> {
    let mut edges = Vec::new();
    let mut max = 0u32;
    for (ln, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let u: u32 = it
            .next()
            .ok_or(format!("line {}: missing source", ln + 1))?
            .parse()
            .map_err(|e| format!("line {}: {e}", ln + 1))?;
        let v: u32 = it
            .next()
            .ok_or(format!("line {}: missing target", ln + 1))?
            .parse()
            .map_err(|e| format!("line {}: {e}", ln + 1))?;
        max = max.max(u).max(v);
        edges.push((u, v));
    }
    Ok((
        if edges.is_empty() {
            0
        } else {
            max as usize + 1
        },
        edges,
    ))
}

/// Parses a facts file "Pred a1 a2 ..." into a structure.
fn parse_facts(src: &str) -> Result<Structure, String> {
    let mut rows: Vec<(String, Vec<u32>)> = Vec::new();
    let mut max = 0u32;
    for (ln, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let pred = it.next().expect("nonempty line").to_owned();
        let args: Vec<u32> = it
            .map(|a| {
                a.parse::<u32>()
                    .map_err(|e| format!("line {}: {e}", ln + 1))
            })
            .collect::<Result<_, _>>()?;
        for &a in &args {
            max = max.max(a);
        }
        rows.push((pred, args));
    }
    let mut builder = VocabularyBuilder::new();
    for (pred, args) in &rows {
        builder
            .add_or_get(pred, args.len())
            .map_err(|e| e.to_string())?;
    }
    let voc = builder.finish();
    let n = if rows.is_empty() { 0 } else { max as usize + 1 };
    let mut s = Structure::new(voc, n);
    for (pred, args) in &rows {
        s.insert_by_name(pred, args).map_err(|e| e.to_string())?;
    }
    Ok(s)
}

fn cmd_color(
    args: &[String],
    budget: &Budget,
    explain: Explain,
    trace: &Option<Arc<dyn TraceSink>>,
) -> Result<CmdOutcome, String> {
    let [k, path] = args else {
        return Err("usage: cspdb color <k> <edges-file>".into());
    };
    let k: usize = k.parse().map_err(|e| format!("bad k: {e}"))?;
    let (n, edges) = parse_edges(&read(path)?)?;
    let g = constraint_db::core::graphs::undirected(n, &edges);
    let h = constraint_db::core::graphs::clique(k);
    let outcome = solve_and_report(
        budget,
        explain,
        trace,
        |solver| solver.solve(&g, &h),
        |report| match &report.answer {
            Answer::Sat(coloring) => {
                let via = report.strategy.expect("decided");
                println!("{k}-colorable (via {via})");
                for (v, c) in coloring.iter().enumerate() {
                    println!("{v} {c}");
                }
            }
            Answer::Unsat => {
                let via = report.strategy.expect("decided");
                println!("not {k}-colorable (via {via})");
            }
            Answer::Unknown(reason) => {
                println!("UNKNOWN ({reason})");
            }
        },
    );
    Ok(outcome)
}

fn cmd_sat(
    args: &[String],
    budget: &Budget,
    explain: Explain,
    trace: &Option<Arc<dyn TraceSink>>,
) -> Result<CmdOutcome, String> {
    let [path] = args else {
        return Err("usage: cspdb sat <dimacs-file>".into());
    };
    let src = read(path)?;
    let mut num_vars = 0usize;
    let mut clauses: Vec<Vec<i32>> = Vec::new();
    for line in src.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('c') || line.starts_with('%') {
            continue;
        }
        if let Some(rest) = line.strip_prefix("p cnf") {
            let mut it = rest.split_whitespace();
            num_vars = it
                .next()
                .ok_or("p-line missing variable count")?
                .parse()
                .map_err(|e| format!("p-line: {e}"))?;
            continue;
        }
        let mut clause: Vec<i32> = Vec::new();
        for tok in line.split_whitespace() {
            let lit: i32 = tok.parse().map_err(|e| format!("literal {tok}: {e}"))?;
            if lit == 0 {
                break;
            }
            clause.push(lit);
        }
        if !clause.is_empty() {
            clauses.push(clause);
        }
    }
    let mut cnf = cspdb_schaefer::Cnf::new(num_vars);
    for c in clauses {
        cnf.add_clause(c);
    }
    let csp = cspdb_gen::cnf_to_csp(&cnf);
    let outcome = solve_and_report(
        budget,
        explain,
        trace,
        |solver| solver.solve_csp(&csp),
        |report| match &report.answer {
            Answer::Sat(model) => {
                let via = report.strategy.expect("decided");
                println!("SATISFIABLE (via {via})");
                let lits: Vec<String> = model
                    .iter()
                    .enumerate()
                    .map(|(v, &b)| {
                        if b == 1 {
                            format!("{}", v + 1)
                        } else {
                            format!("-{}", v + 1)
                        }
                    })
                    .collect();
                println!("v {} 0", lits.join(" "));
            }
            Answer::Unsat => {
                let via = report.strategy.expect("decided");
                println!("UNSATISFIABLE (via {via})");
            }
            Answer::Unknown(reason) => {
                println!("UNKNOWN ({reason})");
            }
        },
    );
    Ok(outcome)
}

fn cmd_datalog(args: &[String], budget: &Budget) -> Result<CmdOutcome, String> {
    let [program_path, facts_path] = args else {
        return Err("usage: cspdb datalog <program-file> <facts-file>".into());
    };
    let program = cspdb_datalog::parse_program(&read(program_path)?)?;
    let edb = parse_facts(&read(facts_path)?)?;
    let eval = match cspdb_datalog::evaluate_metered(&program, &edb, &mut budget.meter()) {
        Ok(eval) => eval,
        Err(cspdb_datalog::EvalError::Exhausted(reason)) => {
            println!("UNKNOWN ({reason})");
            return Ok(CmdOutcome::OutOfBudget);
        }
        Err(cspdb_datalog::EvalError::Invalid(msg)) => return Err(msg),
    };
    println!(
        "fixpoint after {} iterations, {} facts derived",
        eval.iterations, eval.derived_facts
    );
    let goal = eval
        .relations
        .get(&program.goal)
        .ok_or_else(|| format!("goal {} is not an IDB", program.goal))?;
    println!("goal {}: {} tuples", program.goal, goal.len());
    for t in goal.iter().take(50) {
        println!(
            "{}({})",
            program.goal,
            t.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
        );
    }
    if goal.len() > 50 {
        println!("... ({} more)", goal.len() - 50);
    }
    Ok(CmdOutcome::Done)
}

fn cmd_cq(
    args: &[String],
    budget: &Budget,
    explain: Explain,
    trace: &Option<Arc<dyn TraceSink>>,
) -> Result<CmdOutcome, String> {
    let [query, facts_path] = args else {
        return Err("usage: cspdb cq \"<query>\" <facts-file>".into());
    };
    let q = cspdb_cq::ConjunctiveQuery::parse(query)?;
    let db = parse_facts(&read(facts_path)?)?;
    let rec = Arc::new(Recorder::new());
    let budget = if explain == Explain::Off {
        budget.clone()
    } else {
        budget.clone().with_trace(compose_sinks(&rec, trace))
    };
    let answers = match cspdb_cq::evaluate_by_join_budgeted(&q, &db, &budget) {
        Ok(answers) => answers,
        Err(cspdb_cq::CqEvalError::Exhausted(reason)) => {
            println!("UNKNOWN ({reason})");
            return Ok(CmdOutcome::OutOfBudget);
        }
        Err(cspdb_cq::CqEvalError::Invalid(e)) => return Err(e),
    };
    if q.is_boolean() {
        println!("{}", if answers.is_empty() { "false" } else { "true" });
    } else {
        println!("{} answers", answers.len());
        for t in answers.iter().take(50) {
            println!(
                "({})",
                t.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
            );
        }
    }
    if explain != Explain::Off {
        let events = rec.take();
        match explain {
            Explain::Text => match constraint_db::render_join_plan(&events) {
                Some(plan) => print!("{plan}"),
                None => println!("join plan: none recorded"),
            },
            Explain::Json => {
                let body: Vec<String> = events.iter().map(|e| e.to_json()).collect();
                println!("{{\"events\":[{}]}}", body.join(","));
            }
            Explain::Off => unreachable!(),
        }
    }
    Ok(CmdOutcome::Done)
}

fn cmd_contain(args: &[String]) -> Result<(), String> {
    let [q1, q2] = args else {
        return Err("usage: cspdb contain \"<q1>\" \"<q2>\"".into());
    };
    let q1 = cspdb_cq::ConjunctiveQuery::parse(q1)?;
    let q2 = cspdb_cq::ConjunctiveQuery::parse(q2)?;
    let fwd = cspdb_cq::is_contained_in(&q1, &q2)?;
    let bwd = cspdb_cq::is_contained_in(&q2, &q1)?;
    println!("Q1 ⊆ Q2: {fwd}");
    println!("Q2 ⊆ Q1: {bwd}");
    println!("equivalent: {}", fwd && bwd);
    Ok(())
}

fn cmd_minimize(args: &[String]) -> Result<(), String> {
    let [query] = args else {
        return Err("usage: cspdb minimize \"<query>\"".into());
    };
    let q = cspdb_cq::ConjunctiveQuery::parse(query)?;
    let m = cspdb_cq::minimize(&q);
    println!("{m}");
    println!("({} atoms -> {})", q.atoms.len(), m.atoms.len());
    Ok(())
}

fn cmd_rpq(args: &[String]) -> Result<(), String> {
    let [pattern, path] = args else {
        return Err("usage: cspdb rpq \"<regex>\" <labeled-edges-file>".into());
    };
    let q = cspdb_rpq::Regex::parse(pattern)?;
    // Parse "u label v" lines, label a single alphanumeric char.
    let src = read(path)?;
    let mut edges: Vec<(u32, char, u32)> = Vec::new();
    let mut alphabet: Vec<char> = q.alphabet();
    let mut max = 0u32;
    for (ln, line) in src.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut it = line.split_whitespace();
        let u: u32 = it
            .next()
            .ok_or(format!("line {}: missing source", ln + 1))?
            .parse()
            .map_err(|e| format!("line {}: {e}", ln + 1))?;
        let label = it.next().ok_or(format!("line {}: missing label", ln + 1))?;
        if label.chars().count() != 1 {
            return Err(format!("line {}: label must be one character", ln + 1));
        }
        let label = label.chars().next().expect("checked");
        let v: u32 = it
            .next()
            .ok_or(format!("line {}: missing target", ln + 1))?
            .parse()
            .map_err(|e| format!("line {}: {e}", ln + 1))?;
        max = max.max(u).max(v);
        alphabet.push(label);
        edges.push((u, label, v));
    }
    alphabet.sort_unstable();
    alphabet.dedup();
    let n = if edges.is_empty() {
        0
    } else {
        max as usize + 1
    };
    let mut db = cspdb_rpq::GraphDb::new(n, &alphabet);
    for (u, l, v) in edges {
        db.add_edge(u, l, v);
    }
    let answers = db.answer(&q);
    println!("{} pairs", answers.len());
    for (x, y) in answers.iter().take(100) {
        println!("{x} {y}");
    }
    Ok(())
}

fn cmd_treewidth(args: &[String], budget: &Budget) -> Result<CmdOutcome, String> {
    let [path] = args else {
        return Err("usage: cspdb treewidth <edges-file>".into());
    };
    let (n, edges) = parse_edges(&read(path)?)?;
    if n > 64 {
        return Err("exact treewidth supports at most 64 vertices".into());
    }
    let g = cspdb_decomp::Graph::from_edges(n, edges);
    let (w, order) = match cspdb_decomp::exact_treewidth_metered(&g, &mut budget.meter()) {
        Ok(res) => res,
        Err(reason) => {
            println!("UNKNOWN ({reason})");
            return Ok(CmdOutcome::OutOfBudget);
        }
    };
    let td = cspdb_decomp::from_elimination_order(&g, &order);
    td.validate(&g).map_err(|e| format!("internal: {e}"))?;
    println!("treewidth {w}");
    for (i, bag) in td.bags.iter().enumerate() {
        println!(
            "bag {i}: {{{}}}",
            bag.iter().map(u32::to_string).collect::<Vec<_>>().join(",")
        );
    }
    for (a, b) in &td.edges {
        println!("edge {a} {b}");
    }
    Ok(CmdOutcome::Done)
}

/// `cspdb doctor`: replays a fault-laden workload against an
/// in-process server and verifies the robustness invariants (every
/// request answered exactly once, no wedged lanes, stats add up).
/// Exits 0 when healthy, 1 with the violations listed otherwise.
fn cmd_doctor(args: &[String], faults: Option<FaultPlan>) -> Result<CmdOutcome, String> {
    let mut config = DoctorConfig::default();
    if let Some(plan) = faults {
        config.plan = plan;
    }
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let value = |i: &mut usize| -> Result<u64, String> {
            let v = args
                .get(*i + 1)
                .ok_or(format!("{flag} requires a value"))?
                .parse()
                .map_err(|e| format!("{flag}: {e}"))?;
            *i += 2;
            Ok(v)
        };
        match flag.as_str() {
            "--requests" => config.requests = value(&mut i)? as usize,
            "--seed" => config.seed = value(&mut i)?,
            "--data-dir" => {
                config.data_dir = Some(
                    args.get(i + 1)
                        .ok_or("--data-dir requires a path")?
                        .clone()
                        .into(),
                );
                i += 2;
            }
            other => return Err(format!("unknown doctor flag `{other}`")),
        }
    }
    let report = run_doctor(&config);
    print!("{}", report.render());
    if report.healthy() {
        Ok(CmdOutcome::Done)
    } else {
        Err(format!(
            "doctor found {} invariant violation(s)",
            report.violations.len()
        ))
    }
}

/// `cspdb serve`: a JSONL request server over stdin or TCP.
///
/// Per-request outcomes travel in-band (`"status"` per response line);
/// the process exit code follows the governed-command convention — 2 if
/// any request ended `unknown` or `overloaded`, 0 otherwise. A final
/// `{"stats":...}` line summarises the run (stdin mode) or each
/// cleanly-ended connection (TCP mode, written to the socket).
///
/// TCP mode services up to `--max-conns` connections concurrently
/// (requests pipeline per connection, responses stay in submission
/// order) and drops clients idle longer than `--idle-timeout-ms`.
fn cmd_serve(
    args: &[String],
    budget: &Budget,
    trace: &Option<Arc<dyn TraceSink>>,
) -> Result<CmdOutcome, String> {
    let mut config = ServerConfig {
        global_budget: budget.clone(),
        trace: trace.clone(),
        ..ServerConfig::default()
    };
    let mut listen: Option<String> = None;
    let mut net = NetConfig::default();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].clone();
        let value = |i: &mut usize| -> Result<u64, String> {
            let v = args
                .get(*i + 1)
                .ok_or(format!("{flag} requires a value"))?
                .parse()
                .map_err(|e| format!("{flag}: {e}"))?;
            *i += 2;
            Ok(v)
        };
        match flag.as_str() {
            "--stdin" => {
                listen = None;
                i += 1;
            }
            "--listen" => {
                listen = Some(
                    args.get(i + 1)
                        .ok_or("--listen requires an address")?
                        .clone(),
                );
                i += 2;
            }
            "--workers" => config.workers = value(&mut i)? as usize,
            "--heavy-workers" => config.heavy_workers = value(&mut i)? as usize,
            "--queue" => config.queue_depth = value(&mut i)? as usize,
            "--heavy-queue" => config.heavy_queue_depth = value(&mut i)? as usize,
            "--heavy-threshold" => config.heavy_threshold = value(&mut i)?,
            "--shards" => config.shards = (value(&mut i)? as usize).max(1),
            "--max-conns" => net.max_connections = (value(&mut i)? as usize).max(1),
            "--idle-timeout-ms" => {
                // 0 disables the idle timeout entirely.
                let ms = value(&mut i)?;
                net.idle_timeout = (ms > 0).then(|| std::time::Duration::from_millis(ms));
            }
            "--no-cache" => {
                config.cache_enabled = false;
                i += 1;
            }
            "--data-dir" => {
                let dir = args.get(i + 1).ok_or("--data-dir requires a path")?;
                let store =
                    DurableStorage::open(dir).map_err(|e| format!("--data-dir {dir}: {e}"))?;
                config.storage = Some(Arc::new(store));
                i += 2;
            }
            "--once" => {
                net.once = true;
                i += 1;
            }
            other => return Err(format!("unknown serve flag `{other}`")),
        }
    }
    let server = Arc::new(Server::start(config));
    let bad = match listen {
        None => {
            let stdin = std::io::stdin();
            let stdout = std::io::stdout();
            // The stdin stream is connection 0: the implicit library
            // connection, exempt from idle timeouts and fairness caps.
            let outcome = pump_pipelined(&server, 0, stdin.lock(), stdout);
            server.shutdown(ShutdownMode::Drain);
            // Tolerate a consumer that closed stdout early (e.g. head).
            let _ = writeln!(
                std::io::stdout(),
                "{{\"stats\":{}}}",
                server.stats().to_json()
            );
            outcome.bad
        }
        Some(addr) => {
            let listener =
                std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
            let local = listener.local_addr().map_err(|e| e.to_string())?;
            // Advertise the bound address (port 0 resolves here).
            eprintln!("listening on {local}");
            let summary = serve_listener(&server, listener, &net);
            server.shutdown(ShutdownMode::Drain);
            summary.bad
        }
    };
    Ok(if bad > 0 {
        CmdOutcome::OutOfBudget
    } else {
        CmdOutcome::Done
    })
}
