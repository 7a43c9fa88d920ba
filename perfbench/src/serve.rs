//! The two TCP workloads, `serve_read` and `serve_write`.
//!
//! Untraced runs drive a real `cspdb serve --listen` process from
//! [`CONNS`] closed-loop client connections. Traced runs drive an
//! in-process `Server` + `serve_listener` with the same clients (an
//! `exec_hook` timestamps each request's worker start), then replay the
//! same request stream by calling the layer functions in the server's
//! order, once without spans and once with them.

use crate::shapes::{self, Db, Fact, Shape, LABELS};
use crate::spans::{self, Spans};
use crate::util::{self, Rng, Zipf};
use crate::{layer_table, Ctx, Fault, Metric, Outcome};
use cspdb_core::trace::{Recorder, TraceEvent};
use cspdb_core::Budget;
use cspdb_cq::{evaluate_by_join, evaluate_by_join_budgeted, ConjunctiveQuery};
use cspdb_ivm::{Delta, MaterializedView, ViewSet};
use cspdb_service::storage::structure_to_facts;
use cspdb_service::{
    parse_facts, relation_to_json, serve_listener, verify_data_dir, CacheKey, Catalog,
    DurableStorage, ExecHook, NetConfig, Outcome as Reply, PersistedDelta, Request, RequestBody,
    Response, SemanticCache, Server, ServerConfig, ShutdownMode, Storage,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections: one per core of the 2-vCPU machine the bounds in
/// `BENCHMARK.json` were set on.
pub const CONNS: usize = 2;
/// Pipelined `cq` requests each `serve_read` connection keeps in flight.
const READ_WINDOW: usize = 4;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Toggle facts per `serve_write` database.
const TOGGLES: usize = 64;
/// Zipf exponent of the `serve_read` shape popularity.
const ZIPF_S: f64 = 1.1;
/// The databases are one fixed dataset; `--seed` drives the request
/// stream (which database, which shape or toggle, variable names, atom
/// order). Seed-dependent graphs moved view-maintenance cost by a quarter
/// from seed to seed, which would drown the changes this benchmark is
/// meant to resolve.
const DATASET_SEED: u64 = 0xda7a;

/// Which state of the model a read was answered against: database,
/// shape index, and the toggle mask of the database at that moment.
type Key = (u16, u32, u64);

/// What one serve workload runs against.
pub struct Plan {
    pub name: &'static str,
    write: bool,
    dbs: Vec<Db>,
    /// Per database, the facts `serve_write` flips in and out.
    toggles: Vec<Vec<Fact>>,
    /// `serve_read`: the shape space in popularity order;
    /// `serve_write`: the hot shapes.
    shapes: Vec<Shape>,
    zipf: Option<Zipf>,
}

impl Plan {
    fn head_name(&self, shape: u32) -> String {
        if self.write {
            // Distinct head names, so each hot shape registers its own
            // maintained view.
            format!("H{shape}")
        } else {
            "Q".to_string()
        }
    }

    fn model_facts(&self, db: usize, mask: u64) -> Vec<Fact> {
        let mut facts = self.dbs[db].facts.clone();
        for (t, &f) in self.toggles[db].iter().enumerate() {
            if mask & (1 << t) != 0 {
                facts.push(f);
            }
        }
        facts
    }

    fn query(&self, shape: u32) -> String {
        shapes::canonical(&self.shapes[shape as usize], &self.head_name(shape))
    }
}

/// `serve_read`: 8 databases from small cycles to random graphs with
/// thousands of edges; shapes drawn Zipf over a fixed popularity order.
pub fn read_plan() -> Plan {
    let mut rng = Rng::new(DATASET_SEED).fork(1);
    let mut dbs = vec![
        shapes::cycle_db("g0", 6),
        shapes::cycle_db("g1", 9),
        shapes::cycle_db("g2", 12),
    ];
    for (i, (n, m)) in [
        (60, 150),
        (200, 600),
        (500, 1500),
        (1000, 3000),
        (1500, 4500),
    ]
    .into_iter()
    .enumerate()
    {
        dbs.push(shapes::random_db(&format!("g{}", i + 3), n, m, &mut rng));
    }
    // The popularity order is fixed across seeds, so every seed puts the
    // same shapes at the head of the distribution.
    let mut order = shapes::shape_space();
    Rng::new(0x5eed).shuffle(&mut order);
    let zipf = Zipf::new(order.len(), ZIPF_S);
    Plan {
        name: "serve_read",
        write: false,
        toggles: vec![Vec::new(); dbs.len()],
        dbs,
        shapes: order,
        zipf: Some(zipf),
    }
}

/// `serve_write`: 8 random graphs of 600 edges, 32 toggle facts each, 4
/// hot read shapes.
pub fn write_plan() -> Plan {
    let mut rng = Rng::new(DATASET_SEED).fork(2);
    let mut dbs = Vec::new();
    let mut toggles = Vec::new();
    for i in 0..8 {
        let db = shapes::random_db(&format!("w{i}"), 200, 600, &mut rng);
        // Toggle endpoints come from the base facts, so the domain never
        // grows and every toggle is absent from the base.
        let ends: Vec<u32> = db.facts.iter().flat_map(|&(_, u, v)| [u, v]).collect();
        let mut t: Vec<Fact> = Vec::new();
        while t.len() < TOGGLES {
            let f = (
                rng.below(3) as u8,
                ends[rng.below(ends.len())],
                ends[rng.below(ends.len())],
            );
            if f.1 != f.2 && !db.facts.contains(&f) && !t.contains(&f) {
                t.push(f);
            }
        }
        dbs.push(db);
        toggles.push(t);
    }
    let shapes = vec![
        Shape {
            atoms: vec![(0, 0, 1), (1, 1, 2)],
            head: vec![0, 2],
        },
        Shape {
            atoms: vec![(0, 0, 1), (1, 1, 2), (2, 2, 0)],
            head: vec![0],
        },
        Shape {
            atoms: vec![(1, 0, 1), (2, 1, 2), (0, 2, 3)],
            head: vec![0],
        },
        Shape {
            atoms: vec![(0, 0, 1), (2, 0, 2)],
            head: vec![0],
        },
    ];
    Plan {
        name: "serve_write",
        write: true,
        dbs,
        toggles,
        shapes,
        zipf: None,
    }
}

#[derive(Clone, Copy)]
enum Kind {
    Read { db: u16, shape: u32, mask: u64 },
    Write { db: u16, version: u64 },
}

/// One connection's request generator. It also carries the benchmark's
/// model of the databases the connection owns (toggle masks, versions).
pub struct Script {
    rng: Rng,
    dbs: Vec<usize>,
    masks: Vec<u64>,
    versions: Vec<u64>,
}

impl Script {
    fn new(plan: &Plan, seed: u64, conn: usize) -> Script {
        let n = plan.dbs.len();
        let dbs = if plan.write {
            // Each connection owns its half of the databases.
            (conn * n / CONNS..(conn + 1) * n / CONNS).collect()
        } else {
            (0..n).collect()
        };
        Script {
            rng: Rng::new(seed).fork(100 + conn as u64),
            dbs,
            masks: vec![0; n],
            versions: vec![1; n],
        }
    }

    fn next(&mut self, plan: &Plan, id: u64) -> (String, Kind) {
        let db = self.dbs[self.rng.below(self.dbs.len())];
        let name = &plan.dbs[db].name;
        if plan.write && self.rng.chance(0.5) {
            let t = self.rng.below(TOGGLES);
            let insert = self.masks[db] & (1 << t) == 0;
            self.masks[db] ^= 1 << t;
            self.versions[db] += 1;
            let (l, u, v) = plan.toggles[db][t];
            let op = if insert { "insert" } else { "delete" };
            let line = format!(
                "{{\"id\":{id},\"v\":2,\"op\":\"{op}\",\"db\":\"{name}\",\"fact\":\"{} {u} {v}\"}}",
                LABELS[l as usize]
            );
            let kind = Kind::Write {
                db: db as u16,
                version: self.versions[db],
            };
            return (line, kind);
        }
        let shape = match &plan.zipf {
            Some(z) => z.sample(&mut self.rng),
            None => self.rng.below(plan.shapes.len()),
        } as u32;
        // `serve_write` keeps each hot shape's atom order, so the views its
        // first reads register cost the same per delta on every seed.
        let query = shapes::render(
            &plan.shapes[shape as usize],
            &plan.head_name(shape),
            !plan.write,
            &mut self.rng,
        );
        let line = format!("{{\"id\":{id},\"op\":\"cq\",\"db\":\"{name}\",\"query\":\"{query}\"}}");
        let kind = Kind::Read {
            db: db as u16,
            shape,
            mask: self.masks[db],
        };
        (line, kind)
    }
}

struct Client {
    w: TcpStream,
    r: BufReader<TcpStream>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Result<Client, String> {
        let w = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = w.set_nodelay(true);
        let r = BufReader::new(w.try_clone().map_err(|e| e.to_string())?);
        Ok(Client { w, r })
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        let mut buf = Vec::with_capacity(line.len() + 1);
        buf.extend_from_slice(line.as_bytes());
        buf.push(b'\n');
        self.w.write_all(&buf).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.r.read_line(&mut line) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("recv: {e}")),
        }
    }

    fn call(&mut self, line: &str) -> Result<String, String> {
        self.send(line)?;
        self.recv()
    }
}

/// A `cspdb serve --listen` child process, killed when dropped.
struct ServerProc {
    child: Child,
    addr: SocketAddr,
    drain: Option<JoinHandle<()>>,
}

impl ServerProc {
    fn spawn(cspdb: &Path, data_dir: Option<&Path>) -> Result<ServerProc, String> {
        let mut cmd = Command::new(cspdb);
        cmd.args(["serve", "--listen", "127.0.0.1:0"]);
        if let Some(dir) = data_dir {
            cmd.arg("--data-dir").arg(dir);
        }
        cmd.stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped());
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", cspdb.display()))?;
        let mut err = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            if err.read_line(&mut line).unwrap_or(0) == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err("cspdb serve exited before listening".into());
            }
            if let Some(a) = line.trim().strip_prefix("listening on ") {
                break a.parse().map_err(|e| format!("bad address {a}: {e}"))?;
            }
        };
        // Keep reading stderr so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            for line in err.lines().map_while(Result::ok) {
                eprintln!("cspdb: {line}");
            }
        });
        Ok(ServerProc {
            child,
            addr,
            drain: Some(drain),
        })
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(h) = self.drain.take() {
            let _ = h.join();
        }
    }
}

fn put_line(id: u64, db: &Db) -> String {
    let facts = shapes::facts_text(&db.facts).replace('\n', "\\n");
    format!(
        "{{\"id\":{id},\"op\":\"put\",\"db\":\"{}\",\"facts\":\"{facts}\"}}",
        db.name
    )
}

/// Puts every database over one connection and checks each ack.
fn populate(addr: SocketAddr, plan: &Plan) -> Result<(), String> {
    let mut c = Client::connect(addr)?;
    for (i, db) in plan.dbs.iter().enumerate() {
        c.send(&put_line(i as u64 + 1, db))?;
    }
    for db in &plan.dbs {
        let resp = c.recv()?;
        if util::status_of(&resp) != "ok" || util::num_field(&resp, "version") != Some(1) {
            return Err(format!("put {} failed: {resp}", db.name));
        }
    }
    Ok(())
}

/// What one client connection saw.
#[derive(Default)]
struct ConnLog {
    read_us: Vec<f64>,
    write_us: Vec<f64>,
    /// Completion time of each correct reply, in seconds from the start.
    done_s: Vec<f64>,
    /// Round trip minus the server's `micros`, per request.
    net_us: Vec<f64>,
    /// Send time per request id (traced runs).
    sent: Vec<(u64, Instant)>,
    /// First answer seen per model state; later answers must match it.
    answers: HashMap<Key, String>,
    attempted: u64,
    failed: u64,
    cached: u64,
}

impl ConnLog {
    fn read_answer(&mut self, key: Key, answer: &str) -> Result<(), String> {
        match self.answers.get(&key) {
            Some(first) if first != answer => Err(format!(
                "two answers for one query on db {} state {:#x}: {} vs {}",
                key.0,
                key.2,
                clip(first),
                clip(answer)
            )),
            Some(_) => Ok(()),
            None => {
                self.answers.insert(key, answer.to_string());
                Ok(())
            }
        }
    }
}

fn clip(s: &str) -> String {
    if s.len() > 80 {
        format!("{}...({} bytes)", &s[..80], s.len())
    } else {
        s.to_string()
    }
}

/// One closed-loop connection: keeps `window` requests in flight until
/// `until`, then drains. A refused or failed request is recorded with
/// latency `fail_us` (it misses every latency limit).
fn drive(
    addr: SocketAddr,
    plan: &Plan,
    script: &mut Script,
    conn: usize,
    (t0, until): (Instant, Instant),
    keep_sent: bool,
    fail_us: f64,
) -> Result<ConnLog, String> {
    let window = if plan.write { 1 } else { READ_WINDOW };
    let mut c = Client::connect(addr)?;
    let mut log = ConnLog::default();
    let mut inflight: VecDeque<(u64, Instant, Kind)> = VecDeque::new();
    let mut k = 0u64;
    loop {
        while inflight.len() < window && Instant::now() < until {
            k += 1;
            let id = ((conn as u64 + 1) << 32) | k;
            let (line, kind) = script.next(plan, id);
            let t = Instant::now();
            c.send(&line)?;
            if keep_sent {
                log.sent.push((id, t));
            }
            inflight.push_back((id, t, kind));
        }
        let Some((id, t, kind)) = inflight.pop_front() else {
            break;
        };
        let resp = c.recv()?;
        let rtt = t.elapsed().as_secs_f64() * 1e6;
        log.attempted += 1;
        if util::num_field(&resp, "id") != Some(id) {
            return Err(format!(
                "expected the response to request {id}, got {}",
                clip(&resp)
            ));
        }
        let approximate = util::raw_field(&resp, "approximate") == Some("true");
        if util::status_of(&resp) != "ok" || approximate {
            log.failed += 1;
            match kind {
                Kind::Read { .. } => log.read_us.push(fail_us),
                Kind::Write { .. } => log.write_us.push(fail_us),
            }
            continue;
        }
        log.net_us
            .push(rtt - util::num_field(&resp, "micros").unwrap_or(0) as f64);
        log.done_s.push(t0.elapsed().as_secs_f64());
        match kind {
            Kind::Read { db, shape, mask } => {
                let answer = util::raw_field(&resp, "answers")
                    .ok_or_else(|| format!("cq response without answers: {}", clip(&resp)))?;
                log.read_answer((db, shape, mask), answer)?;
                if util::raw_field(&resp, "cached") == Some("true") {
                    log.cached += 1;
                }
                log.read_us.push(rtt);
            }
            Kind::Write { db, version } => {
                if util::raw_field(&resp, "applied") != Some("true")
                    || util::num_field(&resp, "version") != Some(version)
                {
                    return Err(format!(
                        "delta on {} not acknowledged as version {version}: {}",
                        plan.dbs[db as usize].name,
                        clip(&resp)
                    ));
                }
                log.write_us.push(rtt);
            }
        }
    }
    Ok(log)
}

/// Runs one connection per address (cycled) for `seconds`, then drains.
fn run_conns(
    addrs: &[SocketAddr],
    plan: &Plan,
    scripts: &mut [Script],
    seconds: f64,
    keep_sent: bool,
    fail_us: f64,
) -> Result<Vec<ConnLog>, String> {
    let t0 = Instant::now();
    let span = (t0, t0 + Duration::from_secs_f64(seconds));
    std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter_mut()
            .enumerate()
            .map(|(c, script)| {
                let addr = addrs[c % addrs.len()];
                s.spawn(move || drive(addr, plan, script, c, span, keep_sent, fail_us))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    })
}

/// The library's evaluation of each recorded query on the benchmark's
/// model, compared byte for byte with what the server answered.
fn check_answers(
    plan: &Plan,
    maps: &[&HashMap<Key, String>],
    fault: Fault,
) -> Result<usize, String> {
    let mut merged: BTreeMap<Key, &String> = BTreeMap::new();
    for map in maps {
        for (key, answer) in map.iter() {
            if let Some(prev) = merged.insert(*key, answer) {
                if prev != answer {
                    return Err(format!(
                        "connections disagree on db {} state {:#x}: {} vs {}",
                        key.0,
                        key.2,
                        clip(prev),
                        clip(answer)
                    ));
                }
            }
        }
    }
    let keys: Vec<(Key, &String)> = merged.into_iter().collect();
    let half = keys.len().div_ceil(2);
    let results: Vec<Result<(), String>> = std::thread::scope(|s| {
        let handles: Vec<_> = keys
            .chunks(half.max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let mut oracle = Oracle::new(plan);
                    for (key, answer) in chunk {
                        let mut want = oracle.answer(key.0 as usize, key.2, &plan.query(key.1))?;
                        if fault == Fault::CorruptOracle {
                            want.insert_str(1, "[4294967295],");
                        }
                        if want != **answer {
                            return Err(format!(
                                "wrong answer on {} for `{}`: server {} but the model gives {}",
                                plan.dbs[key.0 as usize].name,
                                plan.query(key.1),
                                clip(answer),
                                clip(&want)
                            ));
                        }
                    }
                    Ok(())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("oracle thread panicked".into()))
            })
            .collect()
    });
    results.into_iter().collect::<Result<Vec<()>, String>>()?;
    Ok(keys.len())
}

/// Evaluates queries on model states, memoizing the last structure.
struct Oracle<'a> {
    plan: &'a Plan,
    cached: Option<((usize, u64), cspdb_core::Structure)>,
}

impl<'a> Oracle<'a> {
    fn new(plan: &'a Plan) -> Oracle<'a> {
        Oracle { plan, cached: None }
    }

    fn structure(&mut self, db: usize, mask: u64) -> Result<&cspdb_core::Structure, String> {
        if self.cached.as_ref().map(|(k, _)| *k) != Some((db, mask)) {
            let text = shapes::facts_text(&self.plan.model_facts(db, mask));
            self.cached = Some(((db, mask), parse_facts(&text)?));
        }
        Ok(&self.cached.as_ref().expect("just filled").1)
    }

    fn answer(&mut self, db: usize, mask: u64, query: &str) -> Result<String, String> {
        let q = ConjunctiveQuery::parse(query)?;
        let s = self.structure(db, mask)?;
        Ok(relation_to_json(&evaluate_by_join(&q, s)?))
    }
}

fn cq_line(id: u64, db: &str, query: &str) -> String {
    format!("{{\"id\":{id},\"op\":\"cq\",\"db\":\"{db}\",\"query\":\"{query}\"}}")
}

/// Bytes of the live facts of every database, in canonical facts text.
fn live_fact_bytes(plan: &Plan, masks: &[u64]) -> Result<usize, String> {
    let mut total = 0;
    for (db, &mask) in masks.iter().enumerate() {
        let s = parse_facts(&shapes::facts_text(&plan.model_facts(db, mask)))?;
        total += structure_to_facts(&s).len();
    }
    Ok(total)
}

fn final_masks(plan: &Plan, scripts: &[Script]) -> Vec<u64> {
    let mut masks = vec![0; plan.dbs.len()];
    for s in scripts {
        for &db in &s.dbs {
            masks[db] = s.masks[db];
        }
    }
    masks
}

/// Truncates the last delta record off one database log, as a lost
/// acknowledged write would leave it (the self-test's dropped delta).
fn drop_last_delta(dir: &Path) -> Result<(), String> {
    let mut logs: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| e.to_string())?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| {
            let name = p
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            name.starts_with("db-") && name.ends_with(".log")
        })
        .collect();
    logs.sort();
    for path in logs {
        let bytes = std::fs::read(&path).map_err(|e| e.to_string())?;
        // Frames are [len u32 LE][checksum u64][payload]; payload byte 0
        // is the record tag, 3 for a delta.
        let (mut at, mut last) = (0usize, None);
        while at + 12 <= bytes.len() {
            let len = u32::from_le_bytes(bytes[at..at + 4].try_into().expect("4 bytes")) as usize;
            if at + 12 + len > bytes.len() {
                break;
            }
            if bytes.get(at + 12) == Some(&3) {
                last = Some(at);
            }
            at += 12 + len;
        }
        if let Some(start) = last {
            let f = std::fs::OpenOptions::new()
                .write(true)
                .open(&path)
                .map_err(|e| e.to_string())?;
            f.set_len(start as u64).map_err(|e| e.to_string())?;
            return Ok(());
        }
    }
    Err("no delta record to drop".into())
}

struct Lat {
    p50: f64,
    p90: f64,
    p99: f64,
}

/// Median and windowed p99 of one latency series across connections.
fn lat(streams: &[&[f64]]) -> Lat {
    let all: Vec<f64> = streams.iter().flat_map(|s| s.iter().copied()).collect();
    Lat {
        p50: util::median(&all),
        p90: util::quantile(&all, 0.9),
        p99: util::windowed_p99(streams),
    }
}

/// The share of an untraced `serve_write` run spent in its durable phase.
const DURABLE_SHARE: f64 = 0.25;

/// An untraced run against a `cspdb serve --listen` process.
///
/// `serve_write` has two phases. The timed phase, which gives the result
/// line, runs against a server without a data directory: on a 2-vCPU
/// virtual machine with a shared disk, `fdatasync` latency moved tenfold within
/// minutes (p99 0.15 → 4.5 ms) as other tenants loaded the disk, and every
/// latency and throughput figure of a durable run moved with it (write
/// p99 3.4–15.7 ms over five seeds), so no bound of at most a quarter
/// could hold. The durable phase then runs the same stream against a
/// server on a fresh `--data-dir` with the program's flush policy, kills
/// it, restarts it, times it to the first correct answer and checks
/// every acknowledged delta; its figures are reported beside the result.
pub fn run(ctx: &Ctx, plan: &Plan) -> Result<Outcome, String> {
    let mut setup = Vec::new();
    let mut server: Option<ServerProc> = None;
    for _ in 0..SETUPS {
        drop(server.take());
        let t = Instant::now();
        let proc = ServerProc::spawn(&ctx.cspdb, None)?;
        populate(proc.addr, plan)?;
        setup.push(t.elapsed().as_secs_f64());
        server = Some(proc);
    }
    let proc = server.expect("at least one set-up");
    let timed_s = if plan.write {
        ctx.seconds * (1.0 - DURABLE_SHARE)
    } else {
        ctx.seconds
    };
    let mut scripts: Vec<Script> = (0..CONNS).map(|c| Script::new(plan, ctx.seed, c)).collect();
    let fail_us = ctx.seconds * 1e6;
    let logs = run_conns(&[proc.addr], plan, &mut scripts, timed_s, false, fail_us)?;
    let stats = Client::connect(proc.addr)?.call("{\"id\":0,\"op\":\"stats\"}")?;
    let rss = util::peak_rss_mb(proc.child.id());
    drop(proc);

    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    let cached: u64 = logs.iter().map(|l| l.cached).sum();
    let reads: Vec<&[f64]> = logs.iter().map(|l| l.read_us.as_slice()).collect();
    let writes: Vec<&[f64]> = logs.iter().map(|l| l.write_us.as_slice()).collect();
    let read_lat = lat(&reads);
    let read_samples: usize = reads.iter().map(|s| s.len()).sum();
    let done: Vec<&[f64]> = logs.iter().map(|l| l.done_s.as_slice()).collect();
    let stat = |k: &str| util::num_field(&stats, k).unwrap_or(0) as f64;
    let mut report = vec![
        Metric::new("read_p50_us", read_lat.p50, "us", "lower"),
        Metric::new("read_p99_us", read_lat.p99, "us", "lower"),
        Metric::new("read_samples", read_samples as f64, "count", "higher"),
        Metric::new(
            "err_ratio",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
            "lower",
        ),
        Metric::new("server_rejected", stat("rejected"), "count", "lower"),
        Metric::new("server_expired", stat("expired"), "count", "lower"),
        Metric::new(
            "cached_reads",
            cached as f64 / read_samples.max(1) as f64,
            "ratio",
            "higher",
        ),
    ];
    let mut maps: Vec<&HashMap<Key, String>> = logs.iter().map(|l| &l.answers).collect();
    let durable_logs;
    let primary = if plan.write {
        let w = lat(&writes);
        report.extend([
            Metric::new("write_p50_us", w.p50, "us", "lower"),
            Metric::new("write_p90_us", w.p90, "us", "lower"),
            Metric::new("write_p99_us", w.p99, "us", "lower"),
            Metric::new(
                "write_samples",
                writes.iter().map(|s| s.len()).sum::<usize>() as f64,
                "count",
                "higher",
            ),
        ]);
        let (logs, durable_report) = durable_phase(ctx, plan, ctx.seconds * DURABLE_SHARE)?;
        durable_logs = logs;
        maps.extend(durable_logs.iter().map(|l| &l.answers));
        report.extend(durable_report);
        w
    } else {
        read_lat
    };
    let checked = check_answers(plan, &maps, ctx.fault)?;
    report.extend([
        Metric::new("p99_us", primary.p99, "us", "lower"),
        Metric::new(
            "distinct_answers_checked",
            checked as f64,
            "count",
            "higher",
        ),
    ]);
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            Metric::new("setup_s", util::median(&setup), "s", "lower"),
            Metric::new(
                "ops_per_s",
                util::windowed_rate(&done, timed_s),
                "1/s",
                "higher",
            ),
            Metric::new("p50_us", primary.p50, "us", "lower"),
            Metric::new("peak_rss_mb", rss, "MB", "lower"),
        ],
        report,
    })
}

/// `serve_write`'s durable phase: the workload's stream for `seconds`
/// against `cspdb serve --data-dir` on a fresh directory, then a kill, a
/// timed restart and the durability checks.
fn durable_phase(
    ctx: &Ctx,
    plan: &Plan,
    seconds: f64,
) -> Result<(Vec<ConnLog>, Vec<Metric>), String> {
    let data = ctx.out.join(format!("{}-data", plan.name));
    util::fresh_dir(&data)?;
    let proc = ServerProc::spawn(&ctx.cspdb, Some(&data))?;
    populate(proc.addr, plan)?;
    let mut scripts: Vec<Script> = (0..CONNS).map(|c| Script::new(plan, ctx.seed, c)).collect();
    let logs = run_conns(
        &[proc.addr],
        plan,
        &mut scripts,
        seconds,
        false,
        ctx.seconds * 1e6,
    )?;
    let stats = Client::connect(proc.addr)?.call("{\"id\":0,\"op\":\"stats\"}")?;
    drop(proc);
    let failed: u64 = logs.iter().map(|l| l.failed).sum();
    if failed > 0 {
        return Err(format!("{failed} requests failed on the durable server"));
    }
    let masks = final_masks(plan, &scripts);
    let space_amp = util::dir_bytes(&data) as f64 / live_fact_bytes(plan, &masks)? as f64;
    if ctx.fault == Fault::DropDelta {
        drop_last_delta(&data)?;
    }
    let restart_s = restart_and_verify(ctx, plan, &data, &masks)?;
    let _ = std::fs::remove_dir_all(&data);
    let writes: Vec<&[f64]> = logs.iter().map(|l| l.write_us.as_slice()).collect();
    let w = lat(&writes);
    let stat = |k: &str| util::num_field(&stats, k).unwrap_or(0) as f64;
    let report = vec![
        Metric::new("durable_write_p50_us", w.p50, "us", "lower"),
        Metric::new("durable_write_p99_us", w.p99, "us", "lower"),
        Metric::new(
            "durable_writes",
            writes.iter().map(|s| s.len()).sum::<usize>() as f64,
            "count",
            "higher",
        ),
        Metric::new("restart_s", restart_s, "s", "lower"),
        Metric::new("space_amp", space_amp, "ratio", "lower"),
        Metric::new(
            "storage_write_errors",
            stat("storage_write_errors"),
            "count",
            "lower",
        ),
        Metric::new("log_compactions", stat("log_compactions"), "count", "lower"),
    ];
    Ok((logs, report))
}

/// Restarts `cspdb serve` on `data`, times it to the first correct
/// answer, then checks that every acknowledged delta survived: each
/// relation and each hot shape must match the model, and the directory
/// must pass `verify_data_dir`.
fn restart_and_verify(ctx: &Ctx, plan: &Plan, data: &Path, masks: &[u64]) -> Result<f64, String> {
    let mut oracle = Oracle::new(plan);
    let first_query = plan.query(0);
    let want = oracle.answer(0, masks[0], &first_query)?;
    let t = Instant::now();
    let proc = ServerProc::spawn(&ctx.cspdb, Some(data))?;
    let mut c = Client::connect(proc.addr)?;
    let resp = c.call(&cq_line(1, &plan.dbs[0].name, &first_query))?;
    let restart_s = t.elapsed().as_secs_f64();
    let check = |resp: &str, want: &str, what: &str| -> Result<(), String> {
        if util::raw_field(resp, "answers") != Some(want) {
            return Err(format!(
                "acknowledged write lost: after restart {what} answers {} but the model gives {}",
                clip(resp),
                clip(want)
            ));
        }
        Ok(())
    };
    check(
        &resp,
        &want,
        &format!("{} `{first_query}`", plan.dbs[0].name),
    )?;
    for (db, &mask) in masks.iter().enumerate() {
        let name = &plan.dbs[db].name;
        let mut queries: Vec<String> = (0..LABELS.len() as u8)
            .map(|l| shapes::canonical(&shapes::dump_shape(l), "Q"))
            .collect();
        queries.extend((0..plan.shapes.len() as u32).map(|s| plan.query(s)));
        for q in queries {
            let want = oracle.answer(db, mask, &q)?;
            let resp = c.call(&cq_line(2, name, &q))?;
            check(&resp, &want, &format!("{name} `{q}`"))?;
        }
    }
    drop(c);
    drop(proc);
    let issues = verify_data_dir(data, false).map_err(|e| e.to_string())?;
    if let Some(issue) = issues.first() {
        return Err(format!(
            "data directory fails verify_data_dir: {}: {}",
            issue.file, issue.problem
        ));
    }
    Ok(restart_s)
}

/// Per-request state of the layer replay: the same objects the server
/// holds, opened the way the issue's layer split needs them (the catalog
/// on in-memory storage, so the durable append is timed on its own).
struct ReplayState {
    catalog: Catalog,
    cache: SemanticCache,
    views: ViewSet,
    storage: Option<DurableStorage>,
    budget: Budget,
    recorder: Arc<Recorder>,
    /// Rows produced by relational operators / rows in the answers.
    inter_rows: u64,
    out_rows: u64,
}

struct Replay {
    requests: u64,
    wall_ns: u64,
    spans: Spans,
    answers: HashMap<Key, String>,
    inter_rows: u64,
    out_rows: u64,
    compactions: u64,
    write_errors: u64,
}

/// Replays the workload's request stream through the layer functions,
/// for `seconds` or for exactly `count` requests.
fn replay(
    ctx: &Ctx,
    plan: &Plan,
    traced: bool,
    seconds: f64,
    count: Option<u64>,
) -> Result<Replay, String> {
    let recorder = Arc::new(Recorder::new());
    let budget = if traced {
        Budget::unlimited().with_trace(recorder.clone())
    } else {
        Budget::unlimited()
    };
    let storage = if plan.write {
        let dir = ctx.out.join(format!("{}-replay-data", plan.name));
        util::fresh_dir(&dir)?;
        Some(DurableStorage::open(&dir).map_err(|e| e.to_string())?)
    } else {
        None
    };
    let mut st = ReplayState {
        catalog: Catalog::new(),
        cache: SemanticCache::new(),
        views: ViewSet::new(),
        storage,
        budget,
        recorder,
        inter_rows: 0,
        out_rows: 0,
    };
    for db in &plan.dbs {
        let s = parse_facts(&shapes::facts_text(&db.facts))?;
        if let Some(storage) = &st.storage {
            storage
                .record_put(&db.name, 1, &s)
                .map_err(|e| e.to_string())?;
        }
        st.catalog.put(&db.name, s);
    }
    let mut scripts: Vec<Script> = (0..CONNS).map(|c| Script::new(plan, ctx.seed, c)).collect();
    let mut spans = Spans::new(traced);
    let mut answers: HashMap<Key, String> = HashMap::new();
    let limit = Duration::from_secs_f64(seconds);
    let mut wall = Duration::ZERO;
    let mut n = 0u64;
    loop {
        match count {
            Some(c) if n >= c => break,
            None if wall >= limit => break,
            _ => {}
        }
        let c = (n % CONNS as u64) as usize;
        let id = n + 1;
        let (line, kind) = scripts[c].next(plan, id);
        let t = Instant::now();
        let resp = spans.span("request", id, |sp| serve_one(sp, id, &line, &mut st))?;
        wall += t.elapsed();
        n += 1;
        match kind {
            Kind::Read { db, shape, mask } => {
                let answer = util::raw_field(&resp, "answers")
                    .ok_or_else(|| format!("replay: no answers in {}", clip(&resp)))?;
                answers
                    .entry((db, shape, mask))
                    .or_insert_with(|| answer.to_string());
            }
            Kind::Write { version, .. } => {
                if util::num_field(&resp, "version") != Some(version) {
                    return Err(format!(
                        "replay: delta not applied as version {version}: {resp}"
                    ));
                }
            }
        }
    }
    let stats = st.storage.as_ref().map(|s| s.stats()).unwrap_or_default();
    Ok(Replay {
        requests: n,
        wall_ns: wall.as_nanos() as u64,
        spans,
        answers,
        inter_rows: st.inter_rows,
        out_rows: st.out_rows,
        compactions: stats.log_compactions,
        write_errors: stats.write_errors,
    })
}

/// One request through the layers, in the server's order.
fn serve_one(sp: &mut Spans, id: u64, line: &str, st: &mut ReplayState) -> Result<String, String> {
    let request = sp
        .span("proto.parse", id, |_| Request::parse(line))
        .map_err(|e| e.to_string())?;
    let insert = matches!(request.body, RequestBody::Insert { .. });
    let outcome = match request.body {
        RequestBody::Cq { db, query } => {
            let q = sp.span("cq.parse", id, |_| ConjunctiveQuery::parse(&query))?;
            let (version, structure) = sp
                .span("catalog.get", id, |_| st.catalog.get(&db))
                .ok_or_else(|| format!("replay: no database {db}"))?;
            let key = sp.span("cache.key", id, |_| CacheKey::of(&q));
            match sp.span("cache.lookup", id, |_| st.cache.lookup(&db, version, &key)) {
                Some((rows, _)) => Reply::Answers {
                    rows,
                    cached: true,
                    approximate: false,
                },
                None => {
                    let rel = sp
                        .span("cq.eval", id, |_| {
                            evaluate_by_join_budgeted(&key.core, &structure, &st.budget)
                        })
                        .map_err(|e| e.to_string())?;
                    for event in st.recorder.take() {
                        if let TraceEvent::Operator { output_rows, .. } = event {
                            st.inter_rows += output_rows;
                        }
                    }
                    st.out_rows += rel.len() as u64;
                    sp.span("ivm.register", id, |_| {
                        if st.views.answers(&db, &key.core.name).is_none() {
                            let _ = st.views.register_cq(&db, &key.core, &structure, &st.budget);
                        }
                    });
                    let rows = sp.span("cache.insert", id, |_| {
                        st.cache.insert(&db, version, key, rel)
                    });
                    Reply::Answers {
                        rows,
                        cached: false,
                        approximate: false,
                    }
                }
            }
        }
        RequestBody::Insert { db, fact } | RequestBody::Delete { db, fact } => {
            let mut parts = fact.split_whitespace();
            let rel = parts.next().unwrap_or("").to_string();
            let tuple: Vec<u32> = parts.filter_map(|a| a.parse().ok()).collect();
            let delta = if insert {
                Delta::insert(&rel, &tuple)
            } else {
                Delta::delete(&rel, &tuple)
            };
            let (version, pre, post) = sp
                .span("catalog.apply_delta", id, |_| {
                    st.catalog.apply_delta(&db, &delta)
                })
                .map_err(|e| e.to_string())?;
            sp.span("ivm.apply_delta", id, |_| {
                st.views.apply_delta(&db, &delta, &pre, &post, &st.budget)
            });
            let fresh: Vec<(CacheKey, cspdb_core::Relation)> = sp.span("cache.key", id, |_| {
                st.views
                    .views(&db)
                    .iter()
                    .filter_map(|v| match v {
                        MaterializedView::Cq(cq) => {
                            Some((CacheKey::of(cq.query()), cq.answers().clone()))
                        }
                        _ => None,
                    })
                    .collect()
            });
            sp.span("cache.revalidate", id, |_| {
                st.cache.revalidate_db(&db, version, &fresh)
            });
            if let Some(storage) = &st.storage {
                let persisted = PersistedDelta {
                    db: db.clone(),
                    version,
                    rel,
                    insert,
                    tuple,
                };
                // Failures are counted by the backend's stats.
                let _ = sp.span("storage.append", id, |_| {
                    storage.record_delta(&persisted, &post)
                });
            }
            Reply::Delta {
                db,
                version,
                op: if insert { "insert" } else { "delete" },
                applied: true,
            }
        }
        _ => return Err("replay: unexpected request".into()),
    };
    let response = Response {
        id,
        outcome,
        micros: 0,
    };
    Ok(sp.span("proto.encode", id, |_| response.to_json()))
}

/// A traced run: in-process server over TCP for the wire and queue
/// figures, then the untraced and traced layer replays.
pub fn run_traced(ctx: &Ctx, plan: &Plan) -> Result<Outcome, String> {
    let data = ctx.out.join(format!("{}-traced-data", plan.name));
    let started: Arc<Mutex<Vec<(u64, Instant)>>> = Arc::new(Mutex::new(Vec::new()));
    let hook_log = started.clone();
    let hook: ExecHook = Arc::new(move |r: &Request| {
        if let Ok(mut log) = hook_log.lock() {
            log.push((r.id, Instant::now()));
        }
    });
    let storage: Option<Arc<dyn Storage>> = if plan.write {
        util::fresh_dir(&data)?;
        Some(Arc::new(
            DurableStorage::open(&data).map_err(|e| e.to_string())?,
        ))
    } else {
        None
    };
    let config = ServerConfig {
        exec_hook: Some(hook),
        storage: storage.clone(),
        ..ServerConfig::default()
    };
    let server = Arc::new(Server::start(config));
    for (i, db) in plan.dbs.iter().enumerate() {
        let request = Request::parse(&put_line(i as u64 + 1, db)).map_err(|e| e.to_string())?;
        let response = server.submit(request).map_err(|e| format!("{e:?}"))?.wait();
        if response.status() != "ok" {
            return Err(format!("put {}: {}", db.name, response.to_json()));
        }
    }
    let mut listeners = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..CONNS {
        let l = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        addrs.push(l.local_addr().map_err(|e| e.to_string())?);
        listeners.push(l);
    }
    let net = NetConfig {
        once: true,
        ..NetConfig::default()
    };
    let accept: Vec<JoinHandle<()>> = listeners
        .into_iter()
        .map(|l| {
            let server = server.clone();
            let net = net.clone();
            std::thread::spawn(move || {
                serve_listener(&server, l, &net);
            })
        })
        .collect();
    let mut scripts: Vec<Script> = (0..CONNS).map(|c| Script::new(plan, ctx.seed, c)).collect();
    let tcp_seconds = ctx.seconds / 2.0;
    let logs = run_conns(
        &addrs,
        plan,
        &mut scripts,
        tcp_seconds,
        true,
        tcp_seconds * 1e6,
    )?;
    for h in accept {
        let _ = h.join();
    }
    let stats = server.stats();
    let views: usize = plan.dbs.iter().map(|db| server.views().len(&db.name)).sum();
    server.shutdown(ShutdownMode::Drain);
    drop(server);

    let sent: HashMap<u64, Instant> = logs.iter().flat_map(|l| l.sent.iter().copied()).collect();
    let waits: Vec<f64> = started
        .lock()
        .map_err(|_| "hook log poisoned".to_string())?
        .iter()
        .filter_map(|(id, at)| {
            sent.get(id)
                .map(|s| at.saturating_duration_since(*s).as_secs_f64() * 1e6)
        })
        .collect();
    let net_us: Vec<f64> = logs.iter().flat_map(|l| l.net_us.iter().copied()).collect();
    let attempted: u64 = logs.iter().map(|l| l.attempted).sum();
    let failed: u64 = logs.iter().map(|l| l.failed).sum();

    let mut layers = layer_table();
    let (mut restart_s, mut space_amp) = (0.0, 0.0);
    if plan.write {
        let masks = final_masks(plan, &scripts);
        space_amp = util::dir_bytes(&data) as f64 / live_fact_bytes(plan, &masks)? as f64;
        restart_s = restart_in_process(plan, &data, masks[0])?;
        let _ = std::fs::remove_dir_all(&data);
    }

    // A first, discarded replay warms the allocator and the page cache,
    // so the untraced and traced replays compare like with like.
    replay(ctx, plan, false, ctx.seconds / 8.0, None)?;
    let plain = replay(ctx, plan, false, ctx.seconds / 4.0, None)?;
    let traced = replay(ctx, plan, true, 0.0, Some(plain.requests))?;
    let _ = std::fs::remove_dir_all(ctx.out.join(format!("{}-replay-data", plan.name)));
    let mut maps: Vec<&HashMap<Key, String>> = logs.iter().map(|l| &l.answers).collect();
    maps.push(&traced.answers);
    check_answers(plan, &maps, ctx.fault)?;

    let fold = traced.spans.fold();
    let layer_ns: u64 = fold
        .iter()
        .filter(|(name, _)| **name != "request")
        .map(|(_, f)| f.self_ns)
        .sum();
    let overhead = traced.wall_ns as f64 / plain.wall_ns.max(1) as f64 - 1.0;
    let unaccounted = 1.0 - layer_ns as f64 / traced.wall_ns.max(1) as f64;
    let spans_path = ctx.out.join(format!("spans-{}.jsonl", plan.name));
    traced
        .spans
        .write_jsonl(&spans_path)
        .map_err(|e| format!("write {}: {e}", spans_path.display()))?;
    spans::print_table(plan.name, &fold, traced.wall_ns);
    println!(
        "  {}: trace.overhead_frac {overhead:.4}  {}.unaccounted_frac {unaccounted:.4}  ({} requests per replay; spans in {})",
        plan.name,
        plan.name,
        traced.requests,
        spans_path.display()
    );

    let revalidations = stats.cache_revalidations as f64;
    let lookups = (stats.cache_hits + stats.cache_misses).max(1) as f64;
    let set =
        |layers: &mut BTreeMap<&'static str, (f64, &'static str)>, k: &'static str, v: f64| {
            layers.get_mut(k).expect("known per-layer metric").0 = v;
        };
    set(&mut layers, "net.overhead_p50_us", util::median(&net_us));
    set(
        &mut layers,
        "proto.parse_us",
        spans::mean_us(&fold, "proto.parse"),
    );
    set(
        &mut layers,
        "proto.encode_us",
        spans::mean_us(&fold, "proto.encode"),
    );
    set(
        &mut layers,
        "server.queue_wait_p50_us",
        util::median(&waits),
    );
    set(
        &mut layers,
        "server.queue_wait_p99_us",
        util::quantile(&waits, 0.99),
    );
    set(&mut layers, "server.rejected", stats.rejected as f64);
    set(&mut layers, "server.expired", stats.expired as f64);
    set(
        &mut layers,
        "cache.key_us",
        spans::mean_us(&fold, "cache.key"),
    );
    set(
        &mut layers,
        "cache.lookup_us",
        spans::mean_us(&fold, "cache.lookup"),
    );
    set(
        &mut layers,
        "cache.hit_ratio",
        stats.cache_hits as f64 / lookups,
    );
    set(
        &mut layers,
        "cache.revalidated_ratio",
        revalidations / (revalidations + stats.cache_invalidations as f64).max(1.0),
    );
    set(
        &mut layers,
        "catalog.get_us",
        spans::mean_us(&fold, "catalog.get"),
    );
    set(
        &mut layers,
        "catalog.apply_delta_us",
        spans::mean_us(&fold, "catalog.apply_delta"),
    );
    set(
        &mut layers,
        "ivm.apply_delta_us",
        spans::mean_us(&fold, "ivm.apply_delta"),
    );
    set(&mut layers, "ivm.views", views as f64);
    set(
        &mut layers,
        "storage.append_us",
        spans::mean_us(&fold, "storage.append"),
    );
    set(
        &mut layers,
        "storage.compactions",
        (stats.log_compactions + traced.compactions) as f64,
    );
    set(
        &mut layers,
        "storage.write_errors",
        (stats.storage_write_errors + traced.write_errors) as f64,
    );
    set(&mut layers, "storage.restart_s", restart_s);
    set(&mut layers, "storage.space_amp", space_amp);
    set(&mut layers, "cq.eval_us", spans::mean_us(&fold, "cq.eval"));
    set(
        &mut layers,
        "relalg.rows_per_output_row",
        traced.inter_rows as f64 / traced.out_rows.max(1) as f64,
    );
    set(&mut layers, "trace.overhead_frac", overhead);
    set(&mut layers, "trace.unaccounted_frac", unaccounted);
    Ok(Outcome::layers(attempted, failed, layers))
}

/// Reopens `data` in a fresh in-process server and times it to the
/// first correct answer.
fn restart_in_process(plan: &Plan, data: &Path, mask0: u64) -> Result<f64, String> {
    let want = Oracle::new(plan).answer(0, mask0, &plan.query(0))?;
    let t = Instant::now();
    let storage = DurableStorage::open(data).map_err(|e| e.to_string())?;
    let server = Server::start(ServerConfig {
        storage: Some(Arc::new(storage)),
        ..ServerConfig::default()
    });
    let request = Request::parse(&cq_line(1, &plan.dbs[0].name, &plan.query(0)))
        .map_err(|e| e.to_string())?;
    let response = server.submit(request).map_err(|e| format!("{e:?}"))?.wait();
    let restart_s = t.elapsed().as_secs_f64();
    server.shutdown(ShutdownMode::Drain);
    match response.outcome {
        Reply::Answers { rows, .. } if rows == want => Ok(restart_s),
        _ => Err(format!(
            "acknowledged write lost: after restart {} answers {}",
            plan.dbs[0].name,
            clip(&response.to_json())
        )),
    }
}
