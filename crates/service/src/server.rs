//! The concurrent request executor: two bounded lanes of worker
//! threads over the shared [`Catalog`] and [`SemanticCache`].
//!
//! **Admission control.** Every data-plane request (`cq`, `contain`,
//! `solve`) is classified at submission: conjunctive queries whose
//! planner-estimated peak intermediate cardinality exceeds
//! [`ServerConfig::heavy_threshold`] — and the NP-hard `contain`/`solve`
//! ops always — route to the bounded *heavy* lane, so one expensive
//! request cannot occupy every worker. A full lane rejects with the
//! typed [`Rejection::Overloaded`] instead of queueing unboundedly.
//! Control-plane ops (`put`, `stats`) execute inline at admission and
//! are never rejected.
//!
//! **Budgets.** Each executed request gets a fresh slice of the global
//! budget (`1/total_workers` of every numeric limit — the configured
//! worst-case concurrency) and its own child of the server-wide
//! [`CancelToken`].
//!
//! **Shutdown.** [`Server::shutdown`] stops intake and drains: every
//! queued request still receives a response. In
//! [`ShutdownMode::Cancel`] the server token is cancelled first, which
//! trips the *child* tokens of in-flight work at their next budget
//! checkpoint (and makes drained queue entries answer
//! `unknown (cancelled)` immediately) — the caller's own token, being
//! the server token's *parent*, is never cancelled.

use crate::cache::{CacheKey, SemanticCache};
use crate::catalog::{parse_facts, Catalog};
use crate::proto::{relation_to_json, Outcome, Request, RequestBody, Response};
use crate::storage::{PersistedEntry, Storage};
use cspdb_core::budget::{Budget, CancelToken};
use cspdb_core::faults::{FaultHandle, FaultSite};
use cspdb_core::trace::{TraceEvent, TraceSink, Tracer};
use cspdb_core::{Answer, Relation, Structure, VocabularyBuilder};
use cspdb_cq::{
    atom_relations, evaluate_by_join_budgeted, is_contained_in, ConjunctiveQuery, CqEvalError,
};
use cspdb_ivm::{Delta, IvmError, MaterializedView, ViewSet};
use cspdb_relalg::estimated_join_peak;
use std::collections::{HashMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Instrumentation callback run at the start of each queued request's
/// execution (see [`ServerConfig::exec_hook`]).
pub type ExecHook = Arc<dyn Fn(&Request) + Send + Sync>;

const NORMAL: usize = 0;
const HEAVY: usize = 1;
const LANE_NAMES: [&str; 2] = ["normal", "heavy"];

/// Tuning knobs for [`Server::start`].
#[derive(Clone)]
pub struct ServerConfig {
    /// Worker threads on the normal lane (min 1).
    pub workers: usize,
    /// Worker threads on the heavy lane (min 1).
    pub heavy_workers: usize,
    /// Queue depth bound of the normal lane.
    pub queue_depth: usize,
    /// Queue depth bound of the heavy lane.
    pub heavy_queue_depth: usize,
    /// Planner-estimated peak rows above which a `cq` request routes to
    /// the heavy lane.
    pub heavy_threshold: u64,
    /// Whether the semantic result cache serves repeats.
    pub cache_enabled: bool,
    /// The global budget; each request executes under a
    /// `1/(workers + heavy_workers)` slice of it. Its cancel token (if
    /// any) becomes the *parent* of the server token, so cancelling it
    /// still stops everything — but the server never cancels it.
    pub global_budget: Budget,
    /// Sink for service trace events (admission, cache, shutdown) and
    /// solver events of every request. `None` inherits the global
    /// budget's tracer.
    pub trace: Option<Arc<dyn TraceSink>>,
    /// Instrumentation called at the start of each queued request's
    /// execution, on the worker thread. Tests and benchmarks use it to
    /// hold workers at a barrier; production configs leave it `None`.
    pub exec_hook: Option<ExecHook>,
    /// Durable backend for the catalog and the semantic-cache index.
    /// `None` (the default) keeps everything in memory, exactly the
    /// pre-persistence behaviour. With a backend, startup replays every
    /// persisted database and warm-starts the cache from the entry
    /// index — each entry re-confirmed against the recovered catalog
    /// version and re-keyed from its stored query text, never trusted
    /// blindly.
    pub storage: Option<Arc<dyn Storage>>,
    /// Number of independently locked shards the catalog and the
    /// semantic cache are split into (min 1, routed by database-name
    /// hash). Readers of different databases never contend and a `put`
    /// only locks its own shard.
    pub shards: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 4,
            heavy_workers: 1,
            queue_depth: 64,
            heavy_queue_depth: 8,
            heavy_threshold: 1_000_000,
            cache_enabled: true,
            global_budget: Budget::unlimited(),
            trace: None,
            exec_hook: None,
            storage: None,
            shards: crate::catalog::DEFAULT_SHARDS,
        }
    }
}

/// Why [`Server::submit`] refused a request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Rejection {
    /// The target lane's queue was at its depth bound.
    Overloaded {
        /// The lane that was full.
        lane: &'static str,
        /// Hint: estimated milliseconds until a slot frees up (0 when
        /// the server has no estimate yet).
        retry_after_ms: u64,
    },
    /// The request carried a `deadline_ms` the server estimated it
    /// could not meet, so it was shed at admission instead of queued.
    Expired,
    /// The server is shutting down and no longer accepts requests.
    ShuttingDown,
}

impl Rejection {
    /// The response line a front end should write for the rejected id.
    pub fn into_response(self, id: u64) -> Response {
        let outcome = match self {
            Rejection::Overloaded {
                lane,
                retry_after_ms,
            } => Outcome::Overloaded {
                lane,
                retry_after_ms,
            },
            Rejection::Expired => Outcome::Expired { waited_ms: 0 },
            Rejection::ShuttingDown => Outcome::Error {
                message: "shutting down".into(),
            },
        };
        Response {
            id,
            outcome,
            micros: 0,
        }
    }
}

/// How [`Server::shutdown`] treats in-flight work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShutdownMode {
    /// Let queued and in-flight requests finish normally.
    Drain,
    /// Cancel the server token: in-flight requests unwind as
    /// `unknown (cancelled)` at their next budget checkpoint, queued
    /// requests drain to the same answer immediately. The caller's
    /// token (the server token's parent) is untouched.
    Cancel,
}

/// A handle to one submitted request's eventual response.
#[derive(Debug)]
pub struct Ticket {
    id: u64,
    rx: mpsc::Receiver<Response>,
}

impl Ticket {
    /// Blocks until the response arrives. If the worker died without
    /// answering (the reply channel was dropped), the response is the
    /// typed [`Outcome::WorkerLost`] carrying the original request id —
    /// callers can still correlate it.
    pub fn wait(self) -> Response {
        self.rx.recv().unwrap_or(Response {
            id: self.id,
            outcome: Outcome::WorkerLost,
            micros: 0,
        })
    }

    /// [`Ticket::wait`] with an upper bound: `None` when no response
    /// arrived within `timeout` (the doctor uses this to detect wedged
    /// lanes without hanging itself).
    pub fn wait_timeout(self, timeout: Duration) -> Option<Response> {
        match self.rx.recv_timeout(timeout) {
            Ok(response) => Some(response),
            Err(mpsc::RecvTimeoutError::Disconnected) => Some(Response {
                id: self.id,
                outcome: Outcome::WorkerLost,
                micros: 0,
            }),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
        }
    }
}

/// A point-in-time summary of the server's behaviour.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Stats {
    /// Requests admitted (queued or executed inline).
    pub admitted: u64,
    /// Requests rejected at admission.
    pub rejected: u64,
    /// Requests that received a response.
    pub completed: u64,
    /// Responses with status `unknown` (budget/cancellation).
    pub unknown: u64,
    /// Confirmed semantic-cache hits.
    pub cache_hits: u64,
    /// Semantic-cache misses.
    pub cache_misses: u64,
    /// Median service latency in microseconds (admission→response).
    pub p50_micros: u64,
    /// 99th-percentile service latency in microseconds.
    pub p99_micros: u64,
    /// `cache_hits / (cache_hits + cache_misses)`, 0 when no lookups.
    pub hit_rate: f64,
    /// Worker panics isolated by `catch_unwind` (the worker survived
    /// and the request answered with a typed internal error).
    pub panics: u64,
    /// Poisoned locks recovered (lane/latency/thread-list mutexes plus
    /// cache and catalog recoveries).
    pub poisoned: u64,
    /// Requests shed because their deadline passed (at admission by
    /// estimate or at dequeue by clock).
    pub expired: u64,
    /// Heavy-lane CQ requests degraded to the budget-sliced cheap tier
    /// instead of being rejected.
    pub degraded: u64,
    /// Snapshot files written by the storage backend (0 without one).
    pub snapshots_written: u64,
    /// Valid log records replayed at startup.
    pub log_replayed: u64,
    /// Append logs folded into fresh snapshots.
    pub log_compactions: u64,
    /// Torn or corrupt tails truncated during replay.
    pub torn_truncated: u64,
    /// Failed durable writes (serving continued from memory).
    pub storage_write_errors: u64,
    /// Cache entries warm-started from the persisted index and
    /// re-confirmed against the recovered catalog.
    pub cache_warmed: u64,
    /// Client connections accepted over the server's lifetime (0 when
    /// requests arrive via the library API or stdin only).
    pub connections: u64,
    /// Connections that ended abnormally — an I/O error or idle
    /// timeout mid-stream instead of a clean EOF.
    pub conn_failures: u64,
    /// Requests refused because their connection already held its fair
    /// share of a lane's queue while other connections were waiting.
    pub fair_rejected: u64,
    /// Single-tuple deltas (insert/delete) applied to the catalog
    /// (no-ops and invalid deltas are not counted).
    pub deltas_applied: u64,
    /// Cache entries re-keyed onto a post-delta version with a
    /// maintained view's answers instead of being dropped.
    pub cache_revalidations: u64,
    /// Cache entries dropped by writes — a `put`'s full invalidation
    /// plus delta-time entries no maintained view covered.
    pub cache_invalidations: u64,
}

impl Stats {
    /// Serialises the snapshot as one JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"admitted\":{},\"rejected\":{},\"completed\":{},\"unknown\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"hit_rate\":{:.4},\
             \"p50_micros\":{},\"p99_micros\":{},\
             \"panics\":{},\"poisoned\":{},\"expired\":{},\"degraded\":{},\
             \"snapshots_written\":{},\"log_replayed\":{},\"log_compactions\":{},\
             \"torn_truncated\":{},\"storage_write_errors\":{},\"cache_warmed\":{},\
             \"connections\":{},\"conn_failures\":{},\"fair_rejected\":{},\
             \"deltas_applied\":{},\"cache_revalidations\":{},\"cache_invalidations\":{}}}",
            self.admitted,
            self.rejected,
            self.completed,
            self.unknown,
            self.cache_hits,
            self.cache_misses,
            self.hit_rate,
            self.p50_micros,
            self.p99_micros,
            self.panics,
            self.poisoned,
            self.expired,
            self.degraded,
            self.snapshots_written,
            self.log_replayed,
            self.log_compactions,
            self.torn_truncated,
            self.storage_write_errors,
            self.cache_warmed,
            self.connections,
            self.conn_failures,
            self.fair_rejected,
            self.deltas_applied,
            self.cache_revalidations,
            self.cache_invalidations
        )
    }
}

struct Job {
    request: Request,
    tx: mpsc::Sender<Response>,
    admitted_at: Instant,
    /// Absolute shed point derived from the request's `deadline_ms`.
    deadline: Option<Instant>,
    /// True when the heavy lane was full and this CQ was re-routed to
    /// the normal lane's budget-sliced cheap tier.
    degraded: bool,
    /// Connection the request arrived on (0 for library/stdin callers,
    /// which all share one implicit connection).
    conn: u64,
}

/// A lane's queue plus the per-connection occupancy the fairness check
/// reads — kept under one lock so counts never drift from the queue.
#[derive(Default)]
struct LaneQueue {
    jobs: VecDeque<Job>,
    /// Queued jobs per connection id (entries removed at zero, so
    /// `by_conn.len()` is the number of connections with queued work).
    by_conn: HashMap<u64, usize>,
}

impl LaneQueue {
    fn push(&mut self, job: Job) {
        *self.by_conn.entry(job.conn).or_insert(0) += 1;
        self.jobs.push_back(job);
    }

    fn pop(&mut self) -> Option<Job> {
        let job = self.jobs.pop_front()?;
        if let Some(count) = self.by_conn.get_mut(&job.conn) {
            *count -= 1;
            if *count == 0 {
                self.by_conn.remove(&job.conn);
            }
        }
        Some(job)
    }
}

struct Lane {
    queue: Mutex<LaneQueue>,
    available: Condvar,
    depth: usize,
}

impl Lane {
    fn new(depth: usize) -> Self {
        Self {
            queue: Mutex::new(LaneQueue::default()),
            available: Condvar::new(),
            depth: depth.max(1),
        }
    }
}

#[derive(Default)]
struct Counters {
    admitted: AtomicU64,
    rejected: AtomicU64,
    completed: AtomicU64,
    unknown: AtomicU64,
    panics: AtomicU64,
    poisoned: AtomicU64,
    expired: AtomicU64,
    degraded: AtomicU64,
    connections: AtomicU64,
    conn_failures: AtomicU64,
    fair_rejected: AtomicU64,
    deltas_applied: AtomicU64,
    cache_revalidations: AtomicU64,
    cache_invalidations: AtomicU64,
}

/// Samples the latency ring holds. Large enough for stable p50/p99
/// estimates, small enough that a `stats()` snapshot copies and sorts a
/// bounded slice instead of the whole service history.
const LATENCY_SAMPLES: usize = 1024;

/// A bounded ring of the most recent service latencies. Under
/// sustained traffic the old unbounded `Vec` grew without limit and
/// every stats snapshot cloned and re-sorted the entire history; the
/// ring keeps both the memory and the snapshot cost constant.
#[derive(Default)]
struct LatencyRing {
    samples: Vec<u64>,
    /// Index the next sample overwrites once the ring is full.
    next: usize,
}

impl LatencyRing {
    fn push(&mut self, micros: u64) {
        if self.samples.len() < LATENCY_SAMPLES {
            self.samples.push(micros);
        } else {
            self.samples[self.next] = micros;
        }
        self.next = (self.next + 1) % LATENCY_SAMPLES;
    }

    fn snapshot(&self) -> Vec<u64> {
        self.samples.clone()
    }
}

/// The maintained views, and with each CQ view the cache key of its
/// query, computed once when the view is registered. A delta pairs
/// every surviving CQ view with its key to revalidate cached answers;
/// a view that is replaced or dropped takes its key with it.
#[derive(Default)]
struct Views {
    set: ViewSet,
    /// Per database, the keys of its CQ views: a key belongs to the
    /// view whose query is the key's core.
    keys: HashMap<String, Vec<CacheKey>>,
}

impl Views {
    /// Registers (or replaces) the counting view of `key.core`,
    /// labelled by its name, and keeps `key` with it.
    fn register_cq(
        &mut self,
        db: &str,
        key: CacheKey,
        structure: &Structure,
        budget: &Budget,
    ) -> Result<(), IvmError> {
        self.set.register_cq(db, &key.core, structure, budget)?;
        let keys = self.keys.entry(db.to_owned()).or_default();
        keys.retain(|k| k.core.name != key.core.name);
        keys.push(key);
        Ok(())
    }

    fn drop_db(&mut self, db: &str) {
        self.set.drop_db(db);
        self.keys.remove(db);
    }

    /// Every keyed CQ view of `db` as its key and maintained answers.
    /// Keys whose view is gone (replaced, or dropped after failed
    /// maintenance) are dropped here.
    fn fresh(&mut self, db: &str) -> Vec<(CacheKey, Relation)> {
        let Some(keys) = self.keys.get_mut(db) else {
            return Vec::new();
        };
        let views = self.set.views(db);
        let mut fresh = Vec::with_capacity(keys.len());
        keys.retain(|key| {
            let view = views.iter().find_map(|v| match v {
                MaterializedView::Cq(cq) if *cq.query() == key.core => Some(cq),
                _ => None,
            });
            if let Some(cq) = view {
                fresh.push((key.clone(), cq.answers().clone()));
            }
            view.is_some()
        });
        fresh
    }
}

/// The server's view registry, locked while the guard lives (see
/// [`Server::views`]).
pub struct ViewsGuard<'a>(MutexGuard<'a, Views>);

impl Deref for ViewsGuard<'_> {
    type Target = ViewSet;

    fn deref(&self) -> &ViewSet {
        &self.0.set
    }
}

impl DerefMut for ViewsGuard<'_> {
    fn deref_mut(&mut self) -> &mut ViewSet {
        &mut self.0.set
    }
}

struct Inner {
    catalog: Catalog,
    cache: SemanticCache,
    /// Materialized views maintained under deltas (see
    /// [`Server::views`]). One coarse lock: every delta already
    /// serializes on its catalog shard, and view maintenance is the
    /// dominant cost, not the lock.
    views: Mutex<Views>,
    cache_enabled: bool,
    heavy_threshold: u64,
    lanes: [Lane; 2],
    accepting: AtomicBool,
    stopping: AtomicBool,
    server_token: CancelToken,
    request_budget: Budget,
    tracer: Tracer,
    faults: FaultHandle,
    counters: Counters,
    latencies: Mutex<LatencyRing>,
    /// Exponentially-weighted moving average of service latency in
    /// microseconds (`ewma ← ewma·7/8 + sample/8`); 0 until the first
    /// completion. Drives the admission-time wait estimate and the
    /// `retry_after_ms` hint without sorting the latency vector.
    ewma_micros: AtomicU64,
    inflight: AtomicU64,
    exec_hook: Option<ExecHook>,
    /// Cache entries warm-started (and re-confirmed) at startup.
    cache_warmed: u64,
    /// Connection-id allocator (ids start at 1; 0 is the implicit
    /// library/stdin connection).
    next_conn: AtomicU64,
}

/// Locks `m`, recovering from poison: a worker that panicked while
/// holding the lock leaves the protected data structurally intact (see
/// each call site for why), so we count the event, clear the poison
/// flag, and continue with the guard.
fn lock_recover<'a, T>(m: &'a Mutex<T>, counters: &Counters) -> MutexGuard<'a, T> {
    match m.lock() {
        Ok(guard) => guard,
        Err(poisoned) => {
            counters.poisoned.fetch_add(1, Ordering::Relaxed);
            m.clear_poison();
            poisoned.into_inner()
        }
    }
}

/// The running service. Dropping the server shuts it down in
/// [`ShutdownMode::Drain`].
pub struct Server {
    inner: Arc<Inner>,
    threads: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Spawns the worker pool and returns the running server.
    pub fn start(config: ServerConfig) -> Server {
        let workers = config.workers.max(1);
        let heavy_workers = config.heavy_workers.max(1);
        // The server token is a *child* of the caller's token: caller
        // cancellation propagates in, server shutdown never leaks out.
        let server_token = match &config.global_budget.cancel {
            Some(caller) => caller.child(),
            None => CancelToken::new(),
        };
        let tracer = match &config.trace {
            Some(sink) => Tracer::new(sink.clone()),
            None => config.global_budget.tracer().clone(),
        };
        let request_budget = config
            .global_budget
            .slice(1, (workers + heavy_workers) as u64)
            .with_tracer(tracer.clone());
        let faults = config.global_budget.faults().clone();
        // A storage backend changes startup from "empty" to "recover":
        // replay every persisted database, then warm-start the cache.
        // A backend that cannot even enumerate its directory falls back
        // to a fresh in-memory catalog — the server still serves.
        let shards = config.shards.max(1);
        let catalog = match &config.storage {
            Some(storage) => {
                storage.attach_tracer(tracer.clone());
                Catalog::open_with_shards(storage.clone(), shards)
                    .unwrap_or_else(|_| Catalog::with_shards(shards))
            }
            None => Catalog::with_shards(shards),
        };
        let cache = SemanticCache::with_shards(shards);
        let mut cache_warmed = 0u64;
        if config.cache_enabled {
            if let Some(storage) = &config.storage {
                for e in storage.load_cache_entries().unwrap_or_default() {
                    // Re-confirm, never trust: the database must still
                    // exist at exactly the persisted version, the stored
                    // query must re-parse, and the key is recomputed
                    // from it. Anything stale or unreadable is skipped.
                    let Some((version, _)) = catalog.get(&e.db) else {
                        continue;
                    };
                    if version != e.version {
                        continue;
                    }
                    let Ok(q) = cspdb_cq::ConjunctiveQuery::parse(&e.query) else {
                        continue;
                    };
                    let Ok(rel) = Relation::from_tuples(e.arity, e.rows) else {
                        continue;
                    };
                    cache.insert(&e.db, e.version, CacheKey::of(&q), rel);
                    cache_warmed += 1;
                }
            }
        }
        let inner = Arc::new(Inner {
            catalog,
            cache,
            views: Mutex::default(),
            cache_enabled: config.cache_enabled,
            heavy_threshold: config.heavy_threshold,
            lanes: [
                Lane::new(config.queue_depth),
                Lane::new(config.heavy_queue_depth),
            ],
            accepting: AtomicBool::new(true),
            stopping: AtomicBool::new(false),
            server_token,
            request_budget,
            tracer,
            faults,
            counters: Counters::default(),
            latencies: Mutex::new(LatencyRing::default()),
            ewma_micros: AtomicU64::new(0),
            inflight: AtomicU64::new(0),
            exec_hook: config.exec_hook,
            cache_warmed,
            next_conn: AtomicU64::new(1),
        });
        let mut threads = Vec::with_capacity(workers + heavy_workers);
        for (lane, count) in [(NORMAL, workers), (HEAVY, heavy_workers)] {
            for _ in 0..count {
                let inner = inner.clone();
                threads.push(std::thread::spawn(move || worker_loop(&inner, lane)));
            }
        }
        Server {
            inner,
            threads: Mutex::new(threads),
        }
    }

    /// The server's database catalog (normally mutated via `put`
    /// requests; exposed for inspection).
    pub fn catalog(&self) -> &Catalog {
        &self.inner.catalog
    }

    /// The server's materialized-view registry, locked for the guard's
    /// lifetime. Register Datalog and RPQ views here; `insert`/`delete`
    /// requests maintain them. CQ views belong to
    /// [`Server::register_cq_view`] (they also auto-register on cold
    /// cache misses): only those carry the cache key that lets a delta
    /// re-validate covered cache entries against them.
    pub fn views(&self) -> ViewsGuard<'_> {
        ViewsGuard(lock_recover(&self.inner.views, &self.inner.counters))
    }

    /// Registers (or replaces) a counting-maintained CQ view on `db`,
    /// labelled by the query's name. The view maintains the query's
    /// core, whose cache key is computed here, once.
    ///
    /// # Errors
    ///
    /// A message when the database is unknown, the query does not
    /// parse, or the initial materialization fails.
    pub fn register_cq_view(&self, db: &str, query: &str) -> Result<(), String> {
        let key = CacheKey::of(&ConjunctiveQuery::parse(query)?);
        // Every catalog write commits under the views lock, so the
        // snapshot read under it is the one the view must start from.
        let mut views = self.views();
        let Some((_, structure)) = self.inner.catalog.get(db) else {
            return Err(format!("unknown database \"{db}\""));
        };
        views
            .0
            .register_cq(db, key, &structure, &self.inner.request_budget)
            .map_err(|e| e.to_string())
    }

    /// Verifies every maintained view on every database against
    /// from-scratch recomputation. Empty means each maintained answer
    /// set is tuple-for-tuple identical to recomputation (the doctor's
    /// incremental-equals-recompute invariant).
    pub fn verify_views(&self) -> Vec<String> {
        let views = self.views();
        let mut violations = Vec::new();
        for db in views.databases() {
            match self.inner.catalog.get(db) {
                Some((_, structure)) => {
                    for v in views.verify(db, &structure, &self.inner.request_budget) {
                        violations.push(format!("{db}: {v}"));
                    }
                }
                None => violations.push(format!("{db}: views registered but the database is gone")),
            }
        }
        violations
    }

    /// Submits a request, returning a [`Ticket`] for its response.
    ///
    /// # Errors
    ///
    /// A typed [`Rejection`] when the target lane is full or the server
    /// is shutting down.
    pub fn submit(&self, request: Request) -> Result<Ticket, Rejection> {
        let id = request.id;
        let (tx, rx) = mpsc::channel();
        self.submit_to(request, tx)?;
        Ok(Ticket { id, rx })
    }

    /// [`Server::submit`] with a caller-supplied response channel, so a
    /// front end can multiplex every response onto one stream. Requests
    /// submitted this way share the implicit connection 0 for the
    /// fairness accounting.
    ///
    /// # Errors
    ///
    /// As for [`Server::submit`].
    pub fn submit_to(&self, request: Request, tx: mpsc::Sender<Response>) -> Result<(), Rejection> {
        self.submit_from(request, tx, 0)
    }

    /// [`Server::submit_to`] tagged with the originating connection id
    /// (from [`Server::open_connection`]), which the per-connection
    /// fairness check uses: a connection may hold at most its fair
    /// share — `lane depth / connections with queued work` — of a
    /// lane's queue, so a flooding client is refused with
    /// [`Rejection::Overloaded`] while other connections' requests
    /// still get in.
    ///
    /// # Errors
    ///
    /// As for [`Server::submit`].
    pub fn submit_from(
        &self,
        request: Request,
        tx: mpsc::Sender<Response>,
        conn: u64,
    ) -> Result<(), Rejection> {
        let inner = &self.inner;
        let id = request.id;
        if !inner.accepting.load(Ordering::SeqCst) {
            inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
            inner.tracer.emit_with(|| TraceEvent::RequestRejected {
                id,
                reason: "shutting down".into(),
            });
            return Err(Rejection::ShuttingDown);
        }
        if request.body.is_control() {
            // Control plane: cheap, executed inline, never sheds.
            inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
            inner.tracer.emit_with(|| TraceEvent::RequestAdmitted {
                id,
                lane: "control",
            });
            let start = Instant::now();
            let outcome = run_control(inner, &request.body);
            let response = Response {
                id,
                outcome,
                micros: start.elapsed().as_micros() as u64,
            };
            record_completion(inner, &response, start.elapsed().as_micros() as u64);
            let _ = tx.send(response);
            return Ok(());
        }
        let lane_idx = classify(inner, &request.body);
        let lane_name = LANE_NAMES[lane_idx];
        match try_enqueue(inner, lane_idx, request, tx, false, conn) {
            Ok(()) => {
                inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
                inner.tracer.emit_with(|| TraceEvent::RequestAdmitted {
                    id,
                    lane: lane_name,
                });
                Ok(())
            }
            Err((_, _, Refusal::Expired)) => reject_expired(inner, id),
            Err((request, tx, Refusal::Full)) => {
                // Degrade-don't-reject: when the heavy lane is
                // saturated, CQ work falls back to the normal lane's
                // budget-sliced cheap tier before any typed rejection.
                if lane_idx == HEAVY && matches!(request.body, RequestBody::Cq { .. }) {
                    match try_enqueue(inner, NORMAL, request, tx, true, conn) {
                        Ok(()) => {
                            inner.counters.degraded.fetch_add(1, Ordering::Relaxed);
                            inner.counters.admitted.fetch_add(1, Ordering::Relaxed);
                            inner
                                .tracer
                                .emit_with(|| TraceEvent::RequestDegraded { id });
                            inner.tracer.emit_with(|| TraceEvent::RequestAdmitted {
                                id,
                                lane: LANE_NAMES[NORMAL],
                            });
                            return Ok(());
                        }
                        Err((_, _, Refusal::Expired)) => return reject_expired(inner, id),
                        Err((_, _, Refusal::Full)) => {}
                    }
                }
                inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
                inner.tracer.emit_with(|| TraceEvent::RequestRejected {
                    id,
                    reason: format!("overloaded: {lane_name} lane full"),
                });
                Err(Rejection::Overloaded {
                    lane: lane_name,
                    retry_after_ms: retry_hint(inner),
                })
            }
        }
    }

    /// A point-in-time [`Stats`] snapshot.
    pub fn stats(&self) -> Stats {
        server_stats(&self.inner)
    }

    /// Registers a new client connection, returning its id for
    /// [`Server::submit_from`] (ids start at 1; 0 is the implicit
    /// library/stdin connection).
    pub fn open_connection(&self) -> u64 {
        self.inner
            .counters
            .connections
            .fetch_add(1, Ordering::Relaxed);
        self.inner.next_conn.fetch_add(1, Ordering::Relaxed)
    }

    /// Records the end of a connection opened with
    /// [`Server::open_connection`]. `clean` is false when the stream
    /// died mid-connection (I/O error or idle timeout), which counts
    /// toward [`Stats::conn_failures`].
    pub fn close_connection(&self, clean: bool) {
        if !clean {
            self.inner
                .counters
                .conn_failures
                .fetch_add(1, Ordering::Relaxed);
        }
    }

    /// The server's tracer (shared with the connection layer so wire
    /// events land in the same sink as admission and cache events).
    pub(crate) fn tracer(&self) -> &Tracer {
        &self.inner.tracer
    }

    /// Stops intake, drains the queues, and joins every worker. See
    /// [`ShutdownMode`] for what happens to queued and in-flight work.
    /// Idempotent; concurrent calls race benignly (the first joiner
    /// reaps the threads).
    pub fn shutdown(&self, mode: ShutdownMode) {
        let inner = &self.inner;
        inner.accepting.store(false, Ordering::SeqCst);
        let queued: u64 = inner
            .lanes
            .iter()
            .map(|l| lock_recover(&l.queue, &inner.counters).jobs.len() as u64)
            .sum();
        let inflight = inner.inflight.load(Ordering::SeqCst);
        inner
            .tracer
            .emit_with(|| TraceEvent::ShutdownDrain { queued, inflight });
        if mode == ShutdownMode::Cancel {
            inner.server_token.cancel();
        }
        inner.stopping.store(true, Ordering::SeqCst);
        for lane in &inner.lanes {
            lane.available.notify_all();
        }
        let threads: Vec<JoinHandle<()>> =
            std::mem::take(&mut *lock_recover(&self.threads, &inner.counters));
        for t in threads {
            let _ = t.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown(ShutdownMode::Drain);
    }
}

/// What stopped [`try_enqueue`] from queueing a job.
enum Refusal {
    /// The lane's queue was at its depth bound (or a queue-full fault
    /// fired).
    Full,
    /// The admission-time wait estimate exceeded the request deadline.
    Expired,
}

/// Attempts to queue `request` on lane `lane_idx`, shedding
/// deadline-doomed requests first: if `queued jobs × EWMA service
/// time` already exceeds the request's `deadline_ms`, executing it
/// would only waste a worker on an answer the client has given up on.
/// Then the fairness check: `conn` may hold at most `depth / active
/// connections` queued slots, so one flooding connection saturates its
/// own share, not the whole lane. Refusals hand the request and
/// channel back so the caller can try a degraded placement.
fn try_enqueue(
    inner: &Inner,
    lane_idx: usize,
    request: Request,
    tx: mpsc::Sender<Response>,
    degraded: bool,
    conn: u64,
) -> Result<(), (Request, mpsc::Sender<Response>, Refusal)> {
    let lane = &inner.lanes[lane_idx];
    let mut queue = lock_recover(&lane.queue, &inner.counters);
    if let Some(deadline_ms) = request.deadline_ms {
        // Multiply before dividing: `ewma / 1000` truncates sub-ms
        // service times to 0 and silently disables deadline shedding.
        let ewma = inner.ewma_micros.load(Ordering::Relaxed) as u128;
        let est_wait_ms = u64::try_from(queue.jobs.len() as u128 * ewma / 1000).unwrap_or(u64::MAX);
        if est_wait_ms > deadline_ms {
            drop(queue);
            return Err((request, tx, Refusal::Expired));
        }
    }
    // Fair share: the lane depth divided among the connections that
    // currently have queued work (counting this one). A lone
    // connection still gets the whole queue — fairness only bites when
    // connections actually compete.
    let active = queue.by_conn.len() + usize::from(!queue.by_conn.contains_key(&conn));
    let fair_cap = (lane.depth / active.max(1)).max(1);
    if queue.by_conn.get(&conn).copied().unwrap_or(0) >= fair_cap {
        inner.counters.fair_rejected.fetch_add(1, Ordering::Relaxed);
        drop(queue);
        return Err((request, tx, Refusal::Full));
    }
    if queue.jobs.len() >= lane.depth || inner.faults.fire(FaultSite::QueueFull) {
        drop(queue);
        return Err((request, tx, Refusal::Full));
    }
    let admitted_at = Instant::now();
    let deadline = request
        .deadline_ms
        .map(|ms| admitted_at + Duration::from_millis(ms));
    queue.push(Job {
        request,
        tx,
        admitted_at,
        deadline,
        degraded,
        conn,
    });
    drop(queue);
    lane.available.notify_one();
    Ok(())
}

fn reject_expired(inner: &Inner, id: u64) -> Result<(), Rejection> {
    inner.counters.rejected.fetch_add(1, Ordering::Relaxed);
    inner.counters.expired.fetch_add(1, Ordering::Relaxed);
    inner.tracer.emit_with(|| TraceEvent::RequestExpired {
        id,
        at: "admission",
        waited_micros: 0,
    });
    Err(Rejection::Expired)
}

/// Smallest `retry_after_ms` hint the server ever emits. A 0 hint would
/// make clients that sleep exactly the hinted duration retry in a hot
/// loop against a still-full queue, so overload rejections always carry
/// at least this much.
pub const MIN_RETRY_HINT_MS: u64 = 1;

/// The `retry_after_ms` hint for an overload rejection: one EWMA
/// service time (a queue slot frees up about that often), clamped to
/// [[`MIN_RETRY_HINT_MS`], 1000]ms; 10ms before the first completion
/// gives an estimate.
fn retry_hint(inner: &Inner) -> u64 {
    let ewma = inner.ewma_micros.load(Ordering::Relaxed);
    if ewma == 0 {
        10
    } else {
        (ewma / 1000 + 1).clamp(MIN_RETRY_HINT_MS, 1000)
    }
}

fn worker_loop(inner: &Inner, lane_idx: usize) {
    let lane = &inner.lanes[lane_idx];
    loop {
        let job = {
            let mut queue = lock_recover(&lane.queue, &inner.counters);
            loop {
                if let Some(job) = queue.pop() {
                    break job;
                }
                if inner.stopping.load(Ordering::SeqCst) {
                    return;
                }
                queue = match lane.available.wait(queue) {
                    Ok(guard) => guard,
                    Err(poisoned) => {
                        inner.counters.poisoned.fetch_add(1, Ordering::Relaxed);
                        lane.queue.clear_poison();
                        poisoned.into_inner()
                    }
                };
            }
        };
        inner.inflight.fetch_add(1, Ordering::SeqCst);
        execute(inner, lane_idx, job);
        inner.inflight.fetch_sub(1, Ordering::SeqCst);
    }
}

fn execute(inner: &Inner, lane_idx: usize, job: Job) {
    let id = job.request.id;
    // Dequeue-time deadline re-check: the admission estimate can be
    // wrong; the clock is not. A request whose deadline passed while
    // queued is shed here, never executed late.
    if let Some(deadline) = job.deadline {
        if Instant::now() >= deadline {
            let waited_micros = job.admitted_at.elapsed().as_micros() as u64;
            inner.counters.expired.fetch_add(1, Ordering::Relaxed);
            inner.tracer.emit_with(|| TraceEvent::RequestExpired {
                id,
                at: "dequeue",
                waited_micros,
            });
            let response = Response {
                id,
                outcome: Outcome::Expired {
                    waited_ms: waited_micros / 1000,
                },
                micros: waited_micros,
            };
            record_completion(inner, &response, waited_micros);
            let _ = job.tx.send(response);
            return;
        }
    }
    // Fresh child token per request: server-wide cancellation reaches
    // it, completed requests don't accumulate cancel state. Degraded
    // requests run under an eighth of the per-request slice — the
    // bounded cheap tier.
    let mut budget = if job.degraded {
        inner.request_budget.slice(1, 8)
    } else {
        inner.request_budget.clone()
    };
    let token = inner.server_token.child();
    budget.cancel = Some(token.clone());
    // The budget's wall-clock deadline is clamped to the request's
    // remaining time, so execution observes the deadline too.
    if let Some(deadline) = job.deadline {
        let remaining = deadline.saturating_duration_since(Instant::now());
        budget.deadline = Some(budget.deadline.map_or(remaining, |d| d.min(remaining)));
    }
    let outcome = if token.is_cancelled() {
        // Drained under ShutdownMode::Cancel (or the caller cancelled):
        // answer inconclusively without starting work.
        Outcome::Unknown {
            reason: "cancelled".into(),
        }
    } else {
        // Panic isolation: a panicking request (injected or real, in
        // the hook or the engine) answers with a typed internal error
        // and the worker thread survives for the next job.
        let result = catch_unwind(AssertUnwindSafe(|| {
            if let Some(hook) = &inner.exec_hook {
                hook(&job.request);
            }
            if inner.faults.fire_in(FaultSite::WorkerPanic, lane_idx) {
                panic!("injected worker panic");
            }
            if inner.faults.fire(FaultSite::LockPoison) {
                inner.cache.poison();
            }
            run_data(inner, &job.request.body, &budget, job.degraded)
        }));
        match result {
            Ok(outcome) => outcome,
            Err(payload) => {
                inner.counters.panics.fetch_add(1, Ordering::Relaxed);
                inner.tracer.emit_with(|| TraceEvent::WorkerPanicked {
                    id,
                    lane: LANE_NAMES[lane_idx],
                });
                let message = payload
                    .downcast_ref::<&'static str>()
                    .map(|s| (*s).to_owned())
                    .or_else(|| payload.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "worker panicked".into());
                Outcome::InternalError { message }
            }
        }
    };
    let micros = job.admitted_at.elapsed().as_micros() as u64;
    let response = Response {
        id: job.request.id,
        outcome,
        micros,
    };
    record_completion(inner, &response, micros);
    let _ = job.tx.send(response);
}

fn record_completion(inner: &Inner, response: &Response, micros: u64) {
    inner.counters.completed.fetch_add(1, Ordering::Relaxed);
    if response.status() == "unknown" {
        inner.counters.unknown.fetch_add(1, Ordering::Relaxed);
    }
    let prev = inner.ewma_micros.load(Ordering::Relaxed);
    let next = if prev == 0 {
        micros
    } else {
        prev - prev / 8 + micros / 8
    };
    inner.ewma_micros.store(next.max(1), Ordering::Relaxed);
    lock_recover(&inner.latencies, &inner.counters).push(micros);
}

/// Routes a data-plane request: `contain`/`solve` are NP-hard and
/// always heavy; `cq` is heavy when the planner's estimated peak
/// intermediate cardinality exceeds the threshold. Unparsable requests,
/// and queries that do not fit their database, stay on the normal lane —
/// the worker will produce the error cheaply.
fn classify(inner: &Inner, body: &RequestBody) -> usize {
    match body {
        RequestBody::Contain { .. } | RequestBody::Solve { .. } => HEAVY,
        RequestBody::Cq { db, query } => {
            let Ok(q) = ConjunctiveQuery::parse(query) else {
                return NORMAL;
            };
            let Some((_, structure)) = inner.catalog.get(db) else {
                return NORMAL;
            };
            // The peak under whichever engine the cost gate would pick.
            match atom_relations(&q, &structure) {
                Ok(rels) if estimated_join_peak(&rels) > inner.heavy_threshold => HEAVY,
                _ => NORMAL,
            }
        }
        _ => NORMAL,
    }
}

fn run_control(inner: &Inner, body: &RequestBody) -> Outcome {
    match body {
        RequestBody::Put { db, facts } => match parse_facts(facts) {
            Ok(structure) => {
                // Invalidate before publishing the new version so no
                // reader can pair a stale entry with the new structure.
                // A put replaces the whole structure, so maintained
                // views are dropped too — there is no delta to absorb.
                // The catalog commit happens under the views lock (the
                // lock order is always views → catalog): a cold reader
                // registering a view re-checks the version under the
                // same lock, so it can never install a view built from
                // the structure this put replaces.
                let dropped = inner.cache.invalidate_db(db);
                inner
                    .counters
                    .cache_invalidations
                    .fetch_add(dropped, Ordering::Relaxed);
                let version = {
                    let mut views = lock_recover(&inner.views, &inner.counters);
                    views.drop_db(db);
                    inner.catalog.put(db, structure)
                };
                Outcome::Put {
                    db: db.clone(),
                    version,
                }
            }
            Err(e) => Outcome::Error {
                message: format!("put {db}: {e}"),
            },
        },
        RequestBody::Insert { db, fact } => run_delta(inner, db, fact, true),
        RequestBody::Delete { db, fact } => run_delta(inner, db, fact, false),
        RequestBody::Stats => Outcome::Stats {
            json: server_stats(inner).to_json(),
        },
        _ => unreachable!("only control ops reach run_control"),
    }
}

/// Parses one `Pred a1 a2 ...` fact line (facts-file syntax, `#`
/// comments allowed) into its relation name and tuple.
fn parse_fact(fact: &str) -> Result<(String, Vec<u32>), String> {
    let line = fact.split('#').next().unwrap_or("").trim();
    let mut it = line.split_whitespace();
    let rel = it
        .next()
        .ok_or_else(|| "empty fact".to_string())?
        .to_owned();
    let tuple = it
        .map(|a| {
            a.parse::<u32>()
                .map_err(|_| format!("bad argument \"{a}\" (want a u32)"))
        })
        .collect::<Result<Vec<u32>, String>>()?;
    Ok((rel, tuple))
}

/// Executes one `insert`/`delete` request: applies the delta to the
/// catalog (version bump + durable delta record), maintains every
/// registered view incrementally, and re-validates covered cache
/// entries onto the new version instead of dropping them.
fn run_delta(inner: &Inner, db: &str, fact: &str, insert: bool) -> Outcome {
    let op: &'static str = if insert { "insert" } else { "delete" };
    let (rel, tuple) = match parse_fact(fact) {
        Ok(parsed) => parsed,
        Err(e) => {
            return Outcome::Error {
                message: format!("{op} {db}: {e}"),
            }
        }
    };
    let delta = if insert {
        Delta::insert(&rel, &tuple)
    } else {
        Delta::delete(&rel, &tuple)
    };
    // The views lock is taken *before* the catalog commit and held
    // through maintenance (lock order everywhere: views → catalog).
    // This makes commit + view refresh one atomic step against both
    // concurrent deltas (their maintenance cannot reorder) and cold
    // readers (run_cq's registration re-checks the version under this
    // lock, so a view can never be built from a pre-delta snapshot
    // after the delta committed without it).
    let mut views = lock_recover(&inner.views, &inner.counters);
    let (version, pre, post) = match inner.catalog.apply_delta(db, &delta) {
        Ok(applied) => applied,
        // Duplicate insert / delete of an absent tuple: a typed no-op
        // that burns no version and touches no view.
        Err(IvmError::NoOp(_)) => {
            let version = inner.catalog.get(db).map_or(0, |(v, _)| v);
            inner.tracer.emit_with(|| TraceEvent::DeltaApplied {
                db: db.to_owned(),
                version,
                rel: rel.clone(),
                op,
                applied: false,
            });
            return Outcome::Delta {
                db: db.to_owned(),
                version,
                op,
                applied: false,
            };
        }
        Err(IvmError::Invalid(m)) => {
            return Outcome::Error {
                message: format!("{op} {db}: {m}"),
            }
        }
        Err(IvmError::Exhausted(reason)) => {
            return Outcome::Unknown {
                reason: reason.to_string(),
            }
        }
    };
    inner
        .counters
        .deltas_applied
        .fetch_add(1, Ordering::Relaxed);
    inner.tracer.emit_with(|| TraceEvent::DeltaApplied {
        db: db.to_owned(),
        version,
        rel: rel.clone(),
        op,
        applied: true,
    });
    // Maintain the views, then re-key covered cache entries onto the
    // new version with the maintained answers. Entries no surviving CQ
    // view covers fall back to version-bump invalidation. The view
    // lock is released before touching the cache.
    let _results = views
        .set
        .apply_delta(db, &delta, &pre, &post, &inner.request_budget);
    let fresh = views.fresh(db);
    drop(views);
    if inner.cache_enabled {
        let (revalidated, dropped) = inner.cache.revalidate_db(db, version, &fresh);
        inner
            .counters
            .cache_revalidations
            .fetch_add(revalidated, Ordering::Relaxed);
        inner
            .counters
            .cache_invalidations
            .fetch_add(dropped, Ordering::Relaxed);
    }
    Outcome::Delta {
        db: db.to_owned(),
        version,
        op,
        applied: true,
    }
}

/// Builds the [`Stats`] snapshot from `Inner` (shared by
/// [`Server::stats`] and the inline `stats` op on the admission path).
fn server_stats(inner: &Inner) -> Stats {
    // The ring bounds this to LATENCY_SAMPLES elements — a constant
    // cost per snapshot no matter how long the server has been up.
    let mut latencies = lock_recover(&inner.latencies, &inner.counters).snapshot();
    latencies.sort_unstable();
    let pct = |p: f64| -> u64 {
        if latencies.is_empty() {
            0
        } else {
            latencies[((latencies.len() - 1) as f64 * p).round() as usize]
        }
    };
    let hits = inner.cache.hits();
    let misses = inner.cache.misses();
    let storage = inner.catalog.storage().stats();
    Stats {
        admitted: inner.counters.admitted.load(Ordering::Relaxed),
        rejected: inner.counters.rejected.load(Ordering::Relaxed),
        completed: inner.counters.completed.load(Ordering::Relaxed),
        unknown: inner.counters.unknown.load(Ordering::Relaxed),
        cache_hits: hits,
        cache_misses: misses,
        p50_micros: pct(0.5),
        p99_micros: pct(0.99),
        hit_rate: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        panics: inner.counters.panics.load(Ordering::Relaxed),
        poisoned: inner.counters.poisoned.load(Ordering::Relaxed)
            + inner.cache.poison_recoveries()
            + inner.catalog.recoveries(),
        expired: inner.counters.expired.load(Ordering::Relaxed),
        degraded: inner.counters.degraded.load(Ordering::Relaxed),
        snapshots_written: storage.snapshots_written,
        log_replayed: storage.log_records_replayed,
        log_compactions: storage.log_compactions,
        torn_truncated: storage.torn_tails_truncated,
        storage_write_errors: storage.write_errors,
        cache_warmed: inner.cache_warmed,
        connections: inner.counters.connections.load(Ordering::Relaxed),
        conn_failures: inner.counters.conn_failures.load(Ordering::Relaxed),
        fair_rejected: inner.counters.fair_rejected.load(Ordering::Relaxed),
        deltas_applied: inner.counters.deltas_applied.load(Ordering::Relaxed),
        cache_revalidations: inner.counters.cache_revalidations.load(Ordering::Relaxed),
        cache_invalidations: inner.counters.cache_invalidations.load(Ordering::Relaxed),
    }
}

fn run_data(inner: &Inner, body: &RequestBody, budget: &Budget, degraded: bool) -> Outcome {
    match body {
        RequestBody::Cq { db, query } => run_cq(inner, db, query, budget, degraded),
        RequestBody::Contain { q1, q2 } => run_contain(q1, q2),
        RequestBody::Solve { a, b } => run_solve(inner, a, b, budget),
        _ => unreachable!("control ops never reach the lanes"),
    }
}

fn run_cq(inner: &Inner, db_name: &str, query: &str, budget: &Budget, degraded: bool) -> Outcome {
    let q = match ConjunctiveQuery::parse(query) {
        Ok(q) => q,
        Err(e) => return Outcome::Error { message: e },
    };
    let Some((version, db)) = inner.catalog.get(db_name) else {
        return Outcome::Error {
            message: format!("unknown database \"{db_name}\""),
        };
    };
    if degraded || !inner.cache_enabled {
        // Degraded requests bypass the cache: the cheap tier must not
        // publish answers computed under a truncated budget as the
        // canonical result for the query.
        return match evaluate_by_join_budgeted(&q, &db, budget) {
            Ok(rel) => Outcome::Answers {
                rows: relation_to_json(&rel),
                cached: false,
                approximate: degraded,
            },
            Err(e) => eval_error(e),
        };
    }
    // Minimize → core; the core is the cache key *and* the query we
    // evaluate (it is equivalent and never larger than the original).
    let key = CacheKey::of(&q);
    if let Some((rows, _)) = inner.cache.lookup(db_name, version, &key) {
        inner.tracer.emit_with(|| TraceEvent::CacheHit {
            db: db_name.to_owned(),
            version,
            invariant: key.invariant,
        });
        return Outcome::Answers {
            rows,
            cached: true,
            approximate: false,
        };
    }
    inner.tracer.emit_with(|| TraceEvent::CacheMiss {
        db: db_name.to_owned(),
        version,
        invariant: key.invariant,
    });
    match evaluate_by_join_budgeted(&key.core, &db, budget) {
        Ok(rel) => {
            // Persist the entry (keyed by the core's source text, which
            // round-trips through the query parser on warm-start) before
            // the cache consumes the relation. Failed writes are counted
            // by the backend, never fatal to the request.
            let storage = inner.catalog.storage();
            if storage.persists() {
                let _ = storage.record_cache_entry(&PersistedEntry {
                    db: db_name.to_owned(),
                    version,
                    query: key.core.to_string(),
                    arity: rel.arity(),
                    rows: rel.iter().map(<[u32]>::to_vec).collect(),
                });
            }
            // Auto-register a counting view for the core (labelled by
            // its name) so future deltas maintain this entry instead of
            // nuking it. An existing view with the label is kept — the
            // second distinct query under the same name simply stays on
            // the invalidation fallback. Registration failures (e.g. a
            // tight budget) are non-fatal: the answer still serves.
            //
            // The version re-check under the views lock is load-bearing:
            // every catalog mutation (put, delta) commits while holding
            // this lock, so "version still current" here means no write
            // can have slipped between our snapshot and the registration
            // — a view built from a stale snapshot would silently miss
            // the interleaved delta forever.
            {
                let mut views = lock_recover(&inner.views, &inner.counters);
                let current = inner.catalog.get(db_name).map(|(v, _)| v);
                if current == Some(version) && views.set.answers(db_name, &key.core.name).is_none()
                {
                    let _ = views.register_cq(db_name, key.clone(), &db, budget);
                }
            }
            let rows = inner.cache.insert(db_name, version, key, rel);
            Outcome::Answers {
                rows,
                cached: false,
                approximate: false,
            }
        }
        Err(e) => eval_error(e),
    }
}

fn eval_error(e: CqEvalError) -> Outcome {
    match e {
        CqEvalError::Exhausted(reason) => Outcome::Unknown {
            reason: reason.to_string(),
        },
        CqEvalError::Invalid(message) => Outcome::Error { message },
    }
}

fn run_contain(q1: &str, q2: &str) -> Outcome {
    let parse = |src: &str| ConjunctiveQuery::parse(src);
    let (q1, q2) = match (parse(q1), parse(q2)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return Outcome::Error { message: e },
    };
    match (is_contained_in(&q1, &q2), is_contained_in(&q2, &q1)) {
        (Ok(forward), Ok(backward)) => Outcome::Contains { forward, backward },
        (Err(e), _) | (_, Err(e)) => Outcome::Error { message: e },
    }
}

fn run_solve(inner: &Inner, a: &str, b: &str, budget: &Budget) -> Outcome {
    let fetch = |name: &str| {
        inner
            .catalog
            .get(name)
            .map(|(_, s)| s)
            .ok_or_else(|| format!("unknown database \"{name}\""))
    };
    let (sa, sb) = match (fetch(a), fetch(b)) {
        (Ok(sa), Ok(sb)) => (sa, sb),
        (Err(e), _) | (_, Err(e)) => return Outcome::Error { message: e },
    };
    let Some((ra, rb)) = union_retype(&sa, &sb) else {
        return Outcome::Error {
            message: format!("databases \"{a}\" and \"{b}\" have incompatible predicate arities"),
        };
    };
    let report = cspdb::Solver::new().budget(budget.clone()).solve(&ra, &rb);
    match report.answer {
        Answer::Sat(witness) => Outcome::Solved {
            sat: true,
            witness: Some(witness),
        },
        Answer::Unsat => Outcome::Solved {
            sat: false,
            witness: None,
        },
        Answer::Unknown(reason) => Outcome::Unknown {
            reason: reason.to_string(),
        },
    }
}

/// Rebuilds both structures over the union of their vocabularies
/// (`None` if a shared predicate name has conflicting arities).
fn union_retype(a: &Structure, b: &Structure) -> Option<(Structure, Structure)> {
    let mut builder = VocabularyBuilder::new();
    for s in [a, b] {
        for (id, _) in s.relations() {
            builder
                .add_or_get(s.vocabulary().name(id), s.vocabulary().arity(id))
                .ok()?;
        }
    }
    let voc = builder.finish();
    let retype = |s: &Structure| -> Structure {
        let mut out = Structure::new(voc.clone(), s.domain_size());
        for (id, rel) in s.relations() {
            let new_id = voc
                .id(s.vocabulary().name(id))
                .expect("union vocabulary contains both sides");
            for t in rel.iter() {
                out.insert(new_id, t).expect("tuples were in range");
            }
        }
        out
    };
    Some((retype(a), retype(b)))
}

/// The queue position fairness gives a brand-new connection: used only
/// in tests, exported here to keep the policy's arithmetic in one
/// place.
#[cfg(test)]
fn fair_cap(depth: usize, active_connections: usize) -> usize {
    (depth / active_connections.max(1)).max(1)
}

#[cfg(test)]
mod fairness_tests {
    use super::fair_cap;

    #[test]
    fn fair_cap_splits_depth_and_never_starves() {
        assert_eq!(fair_cap(64, 1), 64, "a lone connection gets the lane");
        assert_eq!(fair_cap(64, 4), 16);
        assert_eq!(fair_cap(8, 3), 2);
        assert_eq!(fair_cap(2, 5), 1, "every connection keeps one slot");
        assert_eq!(fair_cap(0, 0), 1, "degenerate inputs still admit");
    }
}
