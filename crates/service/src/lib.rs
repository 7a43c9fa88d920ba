//! `cspdb_service` — a concurrent query-serving subsystem with
//! admission control and a semantic (core-keyed) result cache.
//!
//! This crate turns the workspace's one-shot solver library into a
//! long-lived, multi-tenant service. Clients submit JSONL requests
//! (`put`, `cq`, `contain`, `solve`, `stats`) against named, versioned
//! databases held in a [`Catalog`]; a pool of worker threads executes
//! them under per-request slices of a global [`Budget`] carved by the
//! [`Server`].
//!
//! Two ideas from the paper do the heavy lifting:
//!
//! * **Semantic caching** ([`SemanticCache`]): by Chandra–Merlin,
//!   conjunctive queries are equivalent iff their marked canonical
//!   databases are homomorphically equivalent, and every query has a
//!   unique minimal equivalent — its *core*. Caching answers under the
//!   core (bucketed by cheap invariants, confirmed by homomorphic
//!   equivalence) makes any renaming, reordering, or redundant-atom
//!   padding of a served query a cache hit, byte-identical to the cold
//!   answer.
//! * **Cost-gated admission** ([`ServerConfig::heavy_threshold`]): the
//!   join planner's cardinality estimate routes expensive queries —
//!   and the always-NP-hard `contain`/`solve` operations — to a small
//!   bounded "heavy" lane, so cheap tractable queries keep flowing
//!   when someone submits a hard instance. Full lanes reject with a
//!   typed [`Rejection::Overloaded`] instead of queueing unboundedly.
//!
//! The service is hardened against the faults
//! [`FaultPlan`](cspdb_core::FaultPlan) can inject (and their
//! real-world counterparts): worker panics are isolated with
//! `catch_unwind` (typed internal error, surviving worker), poisoned
//! locks are recovered and counted, per-request deadlines shed
//! doomed work at admission *and* at dequeue, and a saturated heavy
//! lane degrades CQ requests to a budget-sliced cheap tier before
//! rejecting. The [`doctor`] module replays a fault-laden workload
//! against an in-process server and reports invariant violations.
//!
//! [`Budget`]: cspdb_core::Budget

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cache;
mod catalog;
pub mod doctor;
mod json;
pub mod net;
mod proto;
mod server;
pub mod storage;

pub use cache::{invariant_hash, CacheKey, SemanticCache};
pub use catalog::{parse_facts, Catalog, DEFAULT_SHARDS};
pub use doctor::{run_doctor, DoctorConfig, DoctorReport};
pub use json::{escape, parse_object, JsonValue};
pub use net::{pump_pipelined, serve_listener, NetConfig, NetSummary, PumpOutcome, MAX_LINE_BYTES};
pub use proto::{
    relation_to_json, retry_with_backoff, Outcome, ParseError, Request, RequestBody, Response,
    PROTOCOL_VERSION,
};
pub use server::{
    ExecHook, Rejection, Server, ServerConfig, ShutdownMode, Stats, Ticket, ViewsGuard,
    MIN_RETRY_HINT_MS,
};
pub use storage::{
    verify_data_dir, DurableStorage, IntegrityIssue, MemStorage, PersistedDb, PersistedDelta,
    PersistedEntry, Storage, StorageError, StorageStats,
};
