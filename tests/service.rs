//! Integration tests of the `cspdb_service` subsystem: semantic cache
//! hits with byte-identical answers, version invalidation, typed
//! overload rejection, heavy-lane routing, graceful shutdown (drain and
//! cancel), the stats snapshot, and the fault-tolerance behaviours
//! (panic isolation, deadline shedding, degrade-don't-reject).

use constraint_db::core::budget::{Budget, CancelToken};
use constraint_db::core::trace::{Recorder, TraceEvent};
use constraint_db::core::{FaultPlan, FaultSite};
use constraint_db::service::{
    Outcome, Request, RequestBody, Response, Server, ServerConfig, ShutdownMode,
};
use std::sync::{Arc, Condvar, Mutex};

fn req(id: u64, body: RequestBody) -> Request {
    Request::new(id, body)
}

fn put(id: u64, db: &str, facts: &str) -> Request {
    req(
        id,
        RequestBody::Put {
            db: db.into(),
            facts: facts.into(),
        },
    )
}

fn cq(id: u64, db: &str, query: &str) -> Request {
    req(
        id,
        RequestBody::Cq {
            db: db.into(),
            query: query.into(),
        },
    )
}

/// A gate that holds every executing worker until released — the
/// deterministic way to pin a worker in-flight for overload and
/// shutdown tests. `await_arrivals` lets the test synchronize on a
/// worker actually reaching the gate.
#[derive(Default)]
struct Gate {
    /// (open, number of workers that have reached the gate)
    state: Mutex<(bool, u64)>,
    cv: Condvar,
}

impl Gate {
    fn hold(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.cv.notify_all();
        while !state.0 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn release(&self) {
        self.state.lock().unwrap().0 = true;
        self.cv.notify_all();
    }

    fn await_arrivals(&self, n: u64) {
        let mut state = self.state.lock().unwrap();
        while state.1 < n {
            state = self.cv.wait(state).unwrap();
        }
    }
}

#[test]
fn semantic_cache_hits_are_byte_identical_and_version_scoped() {
    let server = Server::start(ServerConfig::default());
    let p = server
        .submit(put(1, "g", "E 0 1\nE 1 2\nE 2 3"))
        .unwrap()
        .wait();
    assert_eq!(p.status(), "ok");
    let cold = server
        .submit(cq(2, "g", "Q(X,Y) :- E(X,Z), E(Z,Y)"))
        .unwrap()
        .wait();
    // Renamed variables, reordered atoms: must hit, byte-identical.
    let hit = server
        .submit(cq(3, "g", "Q(A,B) :- E(W,B), E(A,W)"))
        .unwrap()
        .wait();
    let (
        Outcome::Answers {
            rows: cold_rows,
            cached: false,
            ..
        },
        Outcome::Answers {
            rows: hit_rows,
            cached: true,
            ..
        },
    ) = (&cold.outcome, &hit.outcome)
    else {
        panic!("expected cold then cached answers, got {cold:?} / {hit:?}");
    };
    assert_eq!(cold_rows, hit_rows, "hit must be byte-identical to cold");
    assert_eq!(cold_rows, "[[0,2],[1,3]]");
    // A redundant atom folds into the same core: also a hit.
    let padded = server
        .submit(cq(4, "g", "Q(X,Y) :- E(X,Z), E(Z,Y), E(X,W)"))
        .unwrap()
        .wait();
    assert!(matches!(
        padded.outcome,
        Outcome::Answers { cached: true, .. }
    ));
    // Version bump invalidates: same query is cold again on v2.
    server.submit(put(5, "g", "E 0 1\nE 1 2")).unwrap().wait();
    let after = server
        .submit(cq(6, "g", "Q(X,Y) :- E(X,Z), E(Z,Y)"))
        .unwrap()
        .wait();
    let Outcome::Answers { rows, cached, .. } = &after.outcome else {
        panic!("expected answers, got {after:?}");
    };
    assert!(!cached, "version bump must invalidate the cache");
    assert_eq!(rows, "[[0,2]]");
    let stats = server.stats();
    assert_eq!(stats.cache_hits, 2);
    assert!(stats.cache_misses >= 2);
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn cache_disabled_never_reports_cached() {
    let server = Server::start(ServerConfig {
        cache_enabled: false,
        ..ServerConfig::default()
    });
    server.submit(put(1, "g", "E 0 1")).unwrap().wait();
    for id in [2, 3] {
        let r = server.submit(cq(id, "g", "Q(X) :- E(X,Y)")).unwrap().wait();
        assert!(matches!(r.outcome, Outcome::Answers { cached: false, .. }));
    }
    assert_eq!(server.stats().cache_hits, 0);
}

#[test]
fn full_lane_rejects_with_typed_overload() {
    let gate = Arc::new(Gate::default());
    let hook_gate = gate.clone();
    let server = Server::start(ServerConfig {
        workers: 1,
        heavy_workers: 1,
        queue_depth: 1,
        exec_hook: Some(Arc::new(move |_req| hook_gate.hold())),
        ..ServerConfig::default()
    });
    server.submit(put(1, "g", "E 0 1")).unwrap().wait();
    // First data request occupies the single worker (held at the gate);
    // once it is pinned in-flight, the second fills the depth-1 queue
    // and the third must be rejected with the lane name.
    let t1 = server.submit(cq(2, "g", "Q(X) :- E(X,Y)")).unwrap();
    gate.await_arrivals(1);
    let t2 = server
        .submit(cq(3, "g", "Q(Y) :- E(X,Y)"))
        .expect("queue has room for exactly one request");
    let rejection = server
        .submit(cq(4, "g", "Q(X) :- E(X,X)"))
        .expect_err("depth-1 queue is full");
    let resp = rejection.into_response(4);
    assert_eq!(resp.status(), "overloaded");
    assert!(resp.to_json().contains("\"lane\":\"normal\""));
    assert!(
        resp.to_json().contains("\"retry_after_ms\":"),
        "overload carries a retry hint: {}",
        resp.to_json()
    );
    // The hint must never be 0: a client sleeping exactly the hinted
    // duration would otherwise hot-spin against a still-full queue.
    let Outcome::Overloaded { retry_after_ms, .. } = resp.outcome else {
        panic!("overloaded rejection expected, got {:?}", resp.outcome);
    };
    assert!(
        retry_after_ms >= constraint_db::service::MIN_RETRY_HINT_MS,
        "retry hint {retry_after_ms} below minimum"
    );
    gate.release();
    assert_eq!(t1.wait().status(), "ok");
    assert_eq!(t2.wait().status(), "ok");
    let stats = server.stats();
    assert!(stats.rejected >= 1, "rejection must be counted");
    server.shutdown(ShutdownMode::Drain);
}

#[test]
fn shutdown_drain_answers_every_queued_request() {
    let server = Server::start(ServerConfig {
        workers: 1,
        heavy_workers: 1,
        ..ServerConfig::default()
    });
    server.submit(put(1, "g", "E 0 1\nE 1 0")).unwrap().wait();
    let tickets: Vec<_> = (0..8)
        .map(|i| server.submit(cq(10 + i, "g", "Q(X,Y) :- E(X,Y)")).unwrap())
        .collect();
    server.shutdown(ShutdownMode::Drain);
    for t in tickets {
        let r = t.wait();
        assert_eq!(r.status(), "ok", "drained request must still be answered");
    }
    // After shutdown, intake is closed.
    assert!(server.submit(cq(99, "g", "Q(X) :- E(X,Y)")).is_err());
}

#[test]
fn shutdown_cancel_answers_queued_as_unknown_and_spares_caller_token() {
    let caller_token = CancelToken::new();
    let gate = Arc::new(Gate::default());
    let hook_gate = gate.clone();
    let server = Arc::new(Server::start(ServerConfig {
        workers: 1,
        heavy_workers: 1,
        queue_depth: 16,
        global_budget: Budget::unlimited().with_cancel(caller_token.clone()),
        exec_hook: Some(Arc::new(move |_req| hook_gate.hold())),
        ..ServerConfig::default()
    }));
    server.submit(put(1, "g", "E 0 1")).unwrap().wait();
    // One request pinned in-flight at the gate, several queued behind it.
    let inflight = server.submit(cq(2, "g", "Q(X) :- E(X,Y)")).unwrap();
    gate.await_arrivals(1);
    let queued: Vec<_> = (0..4)
        .map(|i| server.submit(cq(3 + i, "g", "Q(X) :- E(X,Y)")).unwrap())
        .collect();
    let shutter = {
        let server = server.clone();
        std::thread::spawn(move || server.shutdown(ShutdownMode::Cancel))
    };
    // Wait until shutdown has closed intake (the cancel of the server
    // token follows immediately after), then release the pinned worker
    // so the drain and the join can finish.
    while server.submit(req(99, RequestBody::Stats)).is_ok() {
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    gate.release();
    shutter.join().unwrap();
    // Every request got a response; the queued ones were cancelled
    // before starting and must say so (never silently dropped).
    let _ = inflight.wait();
    for t in queued {
        let r = t.wait();
        assert_eq!(r.status(), "unknown", "queued request must answer unknown");
        assert!(r.to_json().contains("cancelled"), "{}", r.to_json());
    }
    // The caller's token is the server token's PARENT: cancelling the
    // server must not cancel it.
    assert!(
        !caller_token.is_cancelled(),
        "server shutdown leaked into the caller's cancel token"
    );
}

#[test]
fn heavy_lane_routes_hard_and_estimated_expensive_work() {
    let recorder = Arc::new(Recorder::new());
    let server = Server::start(ServerConfig {
        // Threshold 0: every estimable cq counts as heavy.
        heavy_threshold: 0,
        trace: Some(recorder.clone()),
        ..ServerConfig::default()
    });
    server.submit(put(1, "g", "E 0 1\nE 1 2")).unwrap().wait();
    server
        .submit(cq(2, "g", "Q(X,Y) :- E(X,Y)"))
        .unwrap()
        .wait();
    let contain = server
        .submit(req(
            3,
            RequestBody::Contain {
                q1: "Q(X) :- E(X,Y)".into(),
                q2: "Q(X) :- E(X,Y), E(X,Z)".into(),
            },
        ))
        .unwrap()
        .wait();
    let Outcome::Contains { forward, backward } = contain.outcome else {
        panic!("expected containment verdicts, got {contain:?}");
    };
    assert!(forward && backward, "the two queries are equivalent");
    let solve = server
        .submit(req(
            4,
            RequestBody::Solve {
                a: "g".into(),
                b: "g".into(),
            },
        ))
        .unwrap()
        .wait();
    assert!(matches!(solve.outcome, Outcome::Solved { sat: true, .. }));
    server.shutdown(ShutdownMode::Drain);
    let lanes: Vec<(u64, &'static str)> = recorder
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::RequestAdmitted { id, lane } => Some((*id, *lane)),
            _ => None,
        })
        .collect();
    assert!(lanes.contains(&(1, "control")), "{lanes:?}");
    assert!(
        lanes.contains(&(2, "heavy")),
        "cq over threshold: {lanes:?}"
    );
    assert!(
        lanes.contains(&(3, "heavy")),
        "contain is NP-hard: {lanes:?}"
    );
    assert!(lanes.contains(&(4, "heavy")), "solve is NP-hard: {lanes:?}");
    // Cache events were traced too.
    assert!(recorder
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::CacheMiss { .. })));
}

#[test]
fn per_request_budget_exhaustion_answers_unknown() {
    let server = Server::start(ServerConfig {
        workers: 1,
        heavy_workers: 1,
        // Two workers total: each request gets half of a 2-tuple budget,
        // i.e. a 1-tuple slice no join result can fit in.
        global_budget: Budget::unlimited().with_tuple_limit(2),
        ..ServerConfig::default()
    });
    server
        .submit(put(1, "g", "E 0 1\nE 1 2\nE 2 0"))
        .unwrap()
        .wait();
    let r = server
        .submit(cq(2, "g", "Q(X,Y) :- E(X,Z), E(Z,Y)"))
        .unwrap()
        .wait();
    assert_eq!(r.status(), "unknown", "{:?}", r.outcome);
    assert_eq!(server.stats().unknown, 1);
}

#[test]
fn responses_and_errors_stay_in_band() {
    let server = Server::start(ServerConfig::default());
    // Unknown database.
    let r = server
        .submit(cq(1, "nope", "Q(X) :- E(X,Y)"))
        .unwrap()
        .wait();
    assert_eq!(r.status(), "error");
    // Bad query text.
    server.submit(put(2, "g", "E 0 1")).unwrap().wait();
    let r = server
        .submit(cq(3, "g", "this is not a query"))
        .unwrap()
        .wait();
    assert_eq!(r.status(), "error");
    // Bad facts text.
    let r = server.submit(put(4, "h", "E zero one")).unwrap().wait();
    assert_eq!(r.status(), "error");
    // Stats still served, catalog still has only g.
    let s = server.submit(req(5, RequestBody::Stats)).unwrap().wait();
    assert!(matches!(s.outcome, Outcome::Stats { .. }));
    assert_eq!(server.catalog().names(), vec!["g".to_string()]);
}

#[test]
fn drain_answers_every_admitted_request_while_panics_inject() {
    let server = Server::start(ServerConfig {
        workers: 2,
        heavy_workers: 1,
        global_budget: Budget::unlimited().with_faults(
            FaultPlan::default()
                .with_seed(3)
                .with_period(FaultSite::WorkerPanic, 3),
        ),
        ..ServerConfig::default()
    });
    server.submit(put(1, "g", "E 0 1\nE 1 2")).unwrap().wait();
    let tickets: Vec<_> = (0..20)
        .map(|i| server.submit(cq(10 + i, "g", "Q(X,Y) :- E(X,Y)")).unwrap())
        .collect();
    server.shutdown(ShutdownMode::Drain);
    let (mut ok, mut internal) = (0u32, 0u32);
    for (i, t) in tickets.into_iter().enumerate() {
        let r = t.wait();
        assert_eq!(r.id, 10 + i as u64, "response keeps its request id");
        match &r.outcome {
            Outcome::Answers { .. } => ok += 1,
            Outcome::InternalError { message } => {
                assert!(message.contains("injected worker panic"), "{message}");
                internal += 1;
            }
            other => panic!("unexpected outcome {other:?}"),
        }
    }
    assert!(ok >= 1, "workers survive their panics and keep serving");
    assert!(internal >= 1, "the plan must actually have fired");
    let stats = server.stats();
    assert_eq!(stats.admitted, stats.completed, "drain answers everything");
    assert!(stats.panics >= 1);
}

#[test]
fn cancel_under_fault_plan_answers_all_and_spares_caller_token() {
    let caller_token = CancelToken::new();
    let gate = Arc::new(Gate::default());
    let hook_gate = gate.clone();
    let server = Arc::new(Server::start(ServerConfig {
        workers: 1,
        heavy_workers: 1,
        queue_depth: 16,
        global_budget: Budget::unlimited()
            .with_cancel(caller_token.clone())
            .with_faults(
                FaultPlan::default()
                    .with_seed(5)
                    .with_period(FaultSite::WorkerPanic, 2)
                    .with_period(FaultSite::LockPoison, 2),
            ),
        exec_hook: Some(Arc::new(move |_req| hook_gate.hold())),
        ..ServerConfig::default()
    }));
    server.submit(put(1, "g", "E 0 1")).unwrap().wait();
    let inflight = server.submit(cq(2, "g", "Q(X) :- E(X,Y)")).unwrap();
    gate.await_arrivals(1);
    let queued: Vec<_> = (0..4)
        .map(|i| server.submit(cq(3 + i, "g", "Q(X) :- E(X,Y)")).unwrap())
        .collect();
    let shutter = {
        let server = server.clone();
        std::thread::spawn(move || server.shutdown(ShutdownMode::Cancel))
    };
    while server.submit(req(99, RequestBody::Stats)).is_ok() {
        std::thread::yield_now();
    }
    std::thread::sleep(std::time::Duration::from_millis(100));
    gate.release();
    shutter.join().unwrap();
    // Every admitted request answers — cancelled, panicked, or done —
    // and always under its own id.
    assert_eq!(inflight.wait().id, 2);
    for (i, t) in queued.into_iter().enumerate() {
        let r = t.wait();
        assert_eq!(r.id, 3 + i as u64);
        assert_eq!(r.status(), "unknown", "queued request must answer unknown");
    }
    assert!(
        !caller_token.is_cancelled(),
        "server shutdown leaked into the caller's cancel token"
    );
}

#[test]
fn deadline_passed_in_queue_is_shed_at_dequeue_not_executed() {
    let gate = Arc::new(Gate::default());
    let hook_gate = gate.clone();
    let server = Server::start(ServerConfig {
        workers: 1,
        heavy_workers: 1,
        exec_hook: Some(Arc::new(move |_req| hook_gate.hold())),
        ..ServerConfig::default()
    });
    server.submit(put(1, "g", "E 0 1")).unwrap().wait();
    // Pin the single worker, then queue a request that can only wait
    // 1ms: by the time the worker frees up, its deadline has passed and
    // it must be shed (expired), not executed late.
    let blocker = server.submit(cq(2, "g", "Q(X,Y) :- E(X,Y)")).unwrap();
    gate.await_arrivals(1);
    let mut doomed = cq(3, "g", "Q(X,Y) :- E(X,Y)");
    doomed.deadline_ms = Some(1);
    let doomed_ticket = server.submit(doomed).unwrap();
    std::thread::sleep(std::time::Duration::from_millis(20));
    gate.release();
    assert_eq!(blocker.wait().status(), "ok");
    let r = doomed_ticket.wait();
    assert_eq!(r.status(), "expired", "{:?}", r.outcome);
    assert!(matches!(r.outcome, Outcome::Expired { waited_ms } if waited_ms >= 1));
    server.shutdown(ShutdownMode::Drain);
    let stats = server.stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.admitted, stats.completed, "shed still answers");
}

#[test]
fn saturated_heavy_lane_degrades_cq_to_approximate_cheap_tier() {
    let recorder = Arc::new(Recorder::new());
    let gate = Arc::new(Gate::default());
    let hook_gate = gate.clone();
    let server = Server::start(ServerConfig {
        workers: 1,
        heavy_workers: 1,
        heavy_queue_depth: 1,
        // Threshold 0: every estimable cq classifies as heavy.
        heavy_threshold: 0,
        trace: Some(recorder.clone()),
        exec_hook: Some(Arc::new(move |_req| hook_gate.hold())),
        ..ServerConfig::default()
    });
    server.submit(put(1, "g", "E 0 1")).unwrap().wait();
    let contain = |id| {
        req(
            id,
            RequestBody::Contain {
                q1: "Q(X) :- E(X,Y)".into(),
                q2: "Q(X) :- E(X,Y), E(X,Z)".into(),
            },
        )
    };
    // Pin the heavy worker, fill the depth-1 heavy queue, then submit a
    // heavy-classified cq: instead of a rejection it must be degraded
    // onto the normal lane's budget-sliced cheap tier.
    let t1 = server.submit(contain(2)).unwrap();
    gate.await_arrivals(1);
    let t2 = server.submit(contain(3)).unwrap();
    let t3 = server
        .submit(cq(4, "g", "Q(X,Y) :- E(X,Y)"))
        .expect("degraded, not rejected");
    gate.release();
    assert_eq!(t1.wait().status(), "ok");
    assert_eq!(t2.wait().status(), "ok");
    let degraded = t3.wait();
    let Outcome::Answers {
        rows,
        cached,
        approximate,
    } = &degraded.outcome
    else {
        panic!("expected degraded answers, got {degraded:?}");
    };
    assert!(approximate, "degraded answers carry the approximate marker");
    assert!(!cached, "the cheap tier bypasses the cache");
    assert_eq!(rows, "[[0,1]]");
    assert!(degraded.to_json().contains("\"approximate\":true"));
    server.shutdown(ShutdownMode::Drain);
    assert_eq!(server.stats().degraded, 1);
    assert!(recorder
        .events()
        .iter()
        .any(|e| matches!(e, TraceEvent::RequestDegraded { id: 4 })));
}

#[test]
fn injected_poison_recovers_and_service_keeps_answering() {
    let server = Server::start(ServerConfig {
        workers: 1,
        heavy_workers: 1,
        global_budget: Budget::unlimited().with_faults(
            FaultPlan::default()
                .with_seed(11)
                .with_period(FaultSite::LockPoison, 2),
        ),
        ..ServerConfig::default()
    });
    server.submit(put(1, "g", "E 0 1\nE 1 2")).unwrap().wait();
    for id in 2..10 {
        let r = server
            .submit(cq(id, "g", "Q(X,Y) :- E(X,Y)"))
            .unwrap()
            .wait();
        assert_eq!(r.status(), "ok", "{:?}", r.outcome);
        assert!(r.to_json().contains("[[0,1],[1,2]]"), "{}", r.to_json());
    }
    server.shutdown(ShutdownMode::Drain);
    let stats = server.stats();
    assert!(stats.poisoned >= 1, "poison fault must have been recovered");
    assert_eq!(stats.admitted, stats.completed);
}

#[test]
fn wire_protocol_roundtrip() {
    let server = Server::start(ServerConfig::default());
    let lines = [
        r#"{"id":1,"op":"put","db":"g","facts":"E 0 1\nE 1 2"}"#,
        r#"{"id":2,"op":"cq","db":"g","query":"Q(X,Y) :- E(X,Z), E(Z,Y)"}"#,
    ];
    let mut responses: Vec<Response> = Vec::new();
    for line in lines {
        let request = Request::parse(line).unwrap();
        responses.push(server.submit(request).unwrap().wait());
    }
    assert_eq!(
        responses[0].to_json().split(",\"micros\"").next().unwrap(),
        r#"{"id":1,"status":"ok","db":"g","version":1"#
    );
    assert!(responses[1]
        .to_json()
        .contains(r#""cached":false,"answers":[[0,2]]"#));
}

fn delta(id: u64, db: &str, fact: &str, insert: bool) -> Request {
    let (db, fact) = (db.into(), fact.into());
    req(
        id,
        if insert {
            RequestBody::Insert { db, fact }
        } else {
            RequestBody::Delete { db, fact }
        },
    )
}

/// The rows and cache flag of an answer response.
fn answers(response: &Response) -> (&str, bool) {
    match &response.outcome {
        Outcome::Answers { rows, cached, .. } => (rows, *cached),
        other => panic!("expected answers, got {other:?}"),
    }
}

#[test]
fn deltas_revalidate_by_view_key_and_drop_entries_of_replaced_views() {
    let server = Server::start(ServerConfig::default());
    let ask = |id: u64, query: &str| server.submit(cq(id, "g", query)).unwrap().wait();
    server
        .submit(put(1, "g", "E 0 1\nE 1 2\nE 2 3"))
        .unwrap()
        .wait();
    // A cold read caches its answer and registers the view "Q".
    let cold = ask(2, "Q(X,Y) :- E(X,Z), E(Z,Y)");
    assert_eq!(answers(&cold), ("[[0,2],[1,3]]", false));
    // Unreplaced: after a delta, a renamed equivalent read is a
    // confirmed hit serving the maintained answer.
    server.submit(delta(3, "g", "E 3 4", true)).unwrap().wait();
    let hit = ask(4, "Q(A,B) :- E(C,B), E(A,C)");
    assert_eq!(answers(&hit), ("[[0,2],[1,3],[2,4]]", true));
    assert_eq!(server.stats().cache_revalidations, 1);
    // Replacing the label's view with an inequivalent query must drop
    // the old entry at the next delta, not re-key it with the new
    // view's answers.
    server.register_cq_view("g", "Q(X,Y) :- E(X,Y)").unwrap();
    server.submit(delta(5, "g", "E 0 1", false)).unwrap().wait();
    let after = ask(6, "Q(A,B) :- E(A,C), E(C,B)");
    assert_eq!(answers(&after), ("[[1,3],[2,4]]", false));
    let stats = server.stats();
    assert_eq!(stats.cache_revalidations, 1);
    assert!(stats.cache_invalidations >= 1);
    // The replacement view is maintained and keyed: its own shape is
    // revalidated by the next delta.
    let edges = ask(7, "Q(U,V) :- E(U,V)");
    assert_eq!(answers(&edges), ("[[1,2],[2,3],[3,4]]", false));
    server.submit(delta(8, "g", "E 4 0", true)).unwrap().wait();
    let again = ask(9, "Q(S,T) :- E(S,T)");
    assert_eq!(answers(&again), ("[[1,2],[2,3],[3,4],[4,0]]", true));
    assert!(server.verify_views().is_empty());
    server.shutdown(ShutdownMode::Drain);
}
