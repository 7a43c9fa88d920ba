//! End-to-end and per-layer benchmark of the cspdb query service and the
//! `Solver` facade.
//!
//! ```text
//! perfbench --cspdb <path to cspdb> --workload <serve_read|serve_write|solve_batch>
//!           --seed <n> --seconds <s> --trace <0|1>
//! perfbench --cspdb <path to cspdb> --self-test
//! ```
//!
//! `--trace 0` measures the end-to-end metrics; `--trace 1` makes the
//! separate traced run that gives the per-layer metrics. Human-readable
//! lines come first; the last line of standard output is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`. Any wrong answer
//! or lost acknowledged write fails the run (exit code 1).

mod serve;
mod shapes;
mod solve;
mod spans;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

/// The flush policy of the program's durable storage, stated with every
/// result (the benchmark does not change it).
const FLUSH_POLICY: &str = "sync_data per log record (DurableStorage default)";

/// Every per-layer metric, with its unit. Traced runs of every workload
/// report all of them; a layer a workload does not exercise reads 0.
const PER_LAYER: [(&str, &str); 38] = [
    ("net.overhead_p50_us", "us"),
    ("proto.parse_us", "us"),
    ("proto.encode_us", "us"),
    ("server.queue_wait_p50_us", "us"),
    ("server.queue_wait_p99_us", "us"),
    ("server.rejected", "count"),
    ("server.expired", "count"),
    ("cache.key_us", "us"),
    ("cache.lookup_us", "us"),
    ("cache.hit_ratio", "ratio"),
    ("cache.revalidated_ratio", "ratio"),
    ("catalog.get_us", "us"),
    ("catalog.apply_delta_us", "us"),
    ("ivm.apply_delta_us", "us"),
    ("ivm.views", "count"),
    ("storage.append_us", "us"),
    ("storage.compactions", "count"),
    ("storage.write_errors", "count"),
    ("storage.restart_s", "s"),
    ("storage.space_amp", "ratio"),
    ("cq.eval_us", "us"),
    ("relalg.rows_per_output_row", "ratio"),
    ("facade.schaefer_us", "us"),
    ("facade.schaefer_steps", "count"),
    ("facade.yannakakis_us", "us"),
    ("facade.yannakakis_steps", "count"),
    ("facade.treewidth_us", "us"),
    ("facade.treewidth_steps", "count"),
    ("facade.backtracking_us", "us"),
    ("facade.backtracking_steps", "count"),
    ("facade.arc_consistency_us", "us"),
    ("facade.arc_consistency_steps", "count"),
    ("facade.k_consistency_us", "us"),
    ("facade.k_consistency_steps", "count"),
    ("facade.unattributed_frac", "ratio"),
    ("facade.deadline_overrun_p99", "ratio"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unaccounted_frac", "ratio"),
];

/// All per-layer metrics at 0, ready for a traced run to fill in.
pub fn layer_table() -> BTreeMap<&'static str, (f64, &'static str)> {
    PER_LAYER
        .iter()
        .map(|&(name, unit)| (name, (0.0, unit)))
        .collect()
}

/// A deliberate fault, used by the self-test to prove the checks bite.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Fault {
    None,
    /// Corrupt one oracle answer (or planted truth).
    CorruptOracle,
    /// Drop one acknowledged delta from the data directory before the
    /// restart.
    DropDelta,
}

pub struct Ctx {
    pub cspdb: PathBuf,
    /// Where span JSONL files and scratch data directories go.
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub fault: Fault,
}

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

impl Metric {
    pub fn new(name: &str, value: f64, unit: &'static str, better: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            better,
        }
    }
}

pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// The result-line metrics: end-to-end (untraced) or per-layer
    /// (traced).
    pub metrics: Vec<Metric>,
    /// Further figures for the human-readable report.
    pub report: Vec<Metric>,
}

impl Outcome {
    pub fn layers(
        attempted: u64,
        failed: u64,
        layers: BTreeMap<&'static str, (f64, &'static str)>,
    ) -> Outcome {
        Outcome {
            attempted,
            failed,
            metrics: layers
                .into_iter()
                .map(|(name, (value, unit))| Metric::new(name, value, unit, "n/a"))
                .collect(),
            report: Vec::new(),
        }
    }
}

const WORKLOADS: [&str; 3] = ["serve_read", "serve_write", "solve_batch"];

fn run_workload(ctx: &Ctx, workload: &str, trace: bool) -> Result<Outcome, String> {
    match (workload, trace) {
        ("serve_read", false) => serve::run(ctx, &serve::read_plan()),
        ("serve_read", true) => serve::run_traced(ctx, &serve::read_plan()),
        ("serve_write", false) => serve::run(ctx, &serve::write_plan()),
        ("serve_write", true) => serve::run_traced(ctx, &serve::write_plan()),
        ("solve_batch", false) => solve::run(ctx),
        ("solve_batch", true) => solve::run_traced(ctx),
        (other, _) => Err(format!(
            "unknown workload `{other}` (want one of {WORKLOADS:?})"
        )),
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn print_meta(workload: &str, seed: u64, seconds: f64, trace: bool) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "# meta {{\"workload\":\"{workload}\",\"seed\":{seed},\"run_seconds\":{seconds},\"trace\":{},\
         \"git_sha\":\"{}\",\"nproc\":{nproc},\"rustc\":\"{}\",\"flush_policy\":\"{FLUSH_POLICY}\",\
         \"clients\":{}}}",
        u8::from(trace),
        command_output("git", &["rev-parse", "HEAD"]),
        command_output("rustc", &["--version"]),
        serve::CONNS,
    );
}

fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
                m.name,
                util::json_num(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{failed},\"metrics\":{{{}}}}}",
        attempted.max(1),
        body.join(",")
    )
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "metric {:<34} {:>16.4} {:<6} {}",
            m.name,
            m.value,
            m.unit,
            if m.better == "n/a" {
                String::new()
            } else {
                format!("{}-is-better", m.better)
            }
        );
    }
}

/// Runs each workload briefly, untraced and traced, then with each
/// deliberate fault, and checks that exactly the faulty runs fail.
fn self_test(cspdb: PathBuf, out: PathBuf) -> bool {
    let cases: [(&str, bool, Fault); 8] = [
        ("serve_read", false, Fault::None),
        ("serve_write", false, Fault::None),
        ("solve_batch", false, Fault::None),
        ("serve_read", true, Fault::None),
        ("serve_write", true, Fault::None),
        ("solve_batch", true, Fault::None),
        ("serve_read", false, Fault::CorruptOracle),
        ("serve_write", false, Fault::DropDelta),
    ];
    let mut all_ok = true;
    for (workload, trace, fault) in cases {
        let ctx = Ctx {
            cspdb: cspdb.clone(),
            out: out.clone(),
            seed: 7,
            seconds: 2.0,
            fault,
        };
        let result = run_workload(&ctx, workload, trace);
        let expect_fail = fault != Fault::None;
        let ok = result.is_err() == expect_fail;
        all_ok &= ok;
        let what = match &result {
            Ok(o) => format!("passed ({} requests)", o.attempted),
            Err(e) => format!("failed: {e}"),
        };
        println!(
            "self-test {:<5} {workload:<12} trace={} fault={fault:?}: {what}",
            if ok { "ok" } else { "WRONG" },
            u8::from(trace)
        );
    }
    all_ok
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cspdb: Option<PathBuf> = None;
    let mut workload: Option<String> = None;
    let mut seed = 1u64;
    let mut seconds = 10.0f64;
    let mut trace = false;
    let mut self_check = false;
    let mut i = 0;
    while i < args.len() {
        let value = args.get(i + 1).cloned().unwrap_or_default();
        let parsed = match args[i].as_str() {
            "--cspdb" => {
                cspdb = Some(PathBuf::from(value));
                Ok(())
            }
            "--workload" => {
                workload = Some(value);
                Ok(())
            }
            "--seed" => value.parse().map(|v| seed = v).map_err(|e| e.to_string()),
            "--seconds" => value
                .parse()
                .map(|v| seconds = v)
                .map_err(|e| e.to_string()),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    trace = value == "1";
                    Ok(())
                }
                _ => Err("want 0 or 1".to_string()),
            },
            "--self-test" => {
                self_check = true;
                i -= 1;
                Ok(())
            }
            other => Err(format!("unknown argument `{other}`")),
        };
        if let Err(e) = parsed {
            eprintln!("error: {}: {e}", args[i]);
            return ExitCode::from(2);
        }
        i += 2;
    }
    let Some(cspdb) = cspdb else {
        eprintln!("error: --cspdb <path to the cspdb binary> is required");
        return ExitCode::from(2);
    };
    let out = PathBuf::from(".bench_out");
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("error: create {}: {e}", out.display());
        return ExitCode::from(2);
    }
    if self_check {
        return if self_test(cspdb, out) {
            println!("self-test passed");
            ExitCode::SUCCESS
        } else {
            println!("self-test FAILED");
            ExitCode::FAILURE
        };
    }
    let Some(workload) = workload.filter(|w| WORKLOADS.contains(&w.as_str())) else {
        eprintln!("error: --workload must be one of {WORKLOADS:?}");
        return ExitCode::from(2);
    };
    print_meta(&workload, seed, seconds, trace);
    let ctx = Ctx {
        cspdb,
        out,
        seed,
        seconds,
        fault: Fault::None,
    };
    match run_workload(&ctx, &workload, trace) {
        Ok(outcome) => {
            print_metrics(&outcome.metrics);
            print_metrics(&outcome.report);
            println!(
                "{}",
                result_line(true, outcome.attempted, outcome.failed, &outcome.metrics)
            );
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("FAIL: {e}");
            println!("{}", result_line(false, 1, 1, &[]));
            ExitCode::FAILURE
        }
    }
}
