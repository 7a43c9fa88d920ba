//! The JSONL wire protocol: one request object in, one response object
//! out, matched by client-assigned `id`.
//!
//! Requests (one per line):
//!
//! ```text
//! {"id":1,"op":"put","db":"g","facts":"E 0 1\nE 1 2"}
//! {"id":2,"op":"cq","db":"g","query":"Q(X,Y) :- E(X,Z), E(Z,Y)"}
//! {"id":3,"op":"contain","q1":"Q(X) :- E(X,Y)","q2":"Q(X) :- E(X,Y), E(X,Z)"}
//! {"id":4,"op":"solve","a":"g","b":"h"}
//! {"id":5,"op":"stats"}
//! {"id":6,"v":2,"op":"insert","db":"g","fact":"E 1 2"}
//! {"id":7,"v":2,"op":"delete","db":"g","fact":"E 0 1"}
//! ```
//!
//! Responses carry `"status"` — `ok`, `unknown` (budget exhausted or
//! cancelled; the CLI maps it to exit code 2 like every other governed
//! command), `overloaded` (typed admission rejection), or `error`.

use crate::json::{escape, parse_object, JsonValue};
use cspdb_core::Relation;
use std::fmt;

/// The highest wire-protocol version this server speaks. Requests may
/// carry an optional `"v"` field; when absent, version 1 is implied
/// (every pre-versioning client spoke what is now version 1). Versions
/// 1 through [`PROTOCOL_VERSION`] are accepted; the single-tuple
/// `insert`/`delete` ops are **gated on version 2** — a v1 line using
/// them gets a typed [`ParseError::VersionGated`], so old servers and
/// new clients fail with the real cause instead of a generic parse
/// error.
pub const PROTOCOL_VERSION: u64 = 2;

/// Why a request line failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// Bad JSON, an unknown `"op"`, or a missing/mistyped field.
    Malformed(String),
    /// The line carried a `"v"` the server does not speak. Typed so
    /// servers answer with a dedicated `unsupported_version` error
    /// (naming both versions) instead of a generic parse failure.
    UnsupportedVersion {
        /// The version the client asked for.
        got: u64,
    },
    /// The op exists but needs a newer protocol version than the line
    /// declared (e.g. `insert`/`delete` on a v1 line).
    VersionGated {
        /// The op that was gated.
        op: String,
        /// The version the op first appears in.
        needs: u64,
        /// The version the line declared (or implied).
        got: u64,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Malformed(m) => f.write_str(m),
            ParseError::UnsupportedVersion { got } => write!(
                f,
                "unsupported protocol version {got} (server speaks {PROTOCOL_VERSION})"
            ),
            ParseError::VersionGated { op, needs, got } => write!(
                f,
                "op \"{op}\" requires protocol version {needs}, line speaks {got}"
            ),
        }
    }
}

impl std::error::Error for ParseError {}

/// What a request asks the server to do.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestBody {
    /// Create or replace the named database (bumps its version).
    Put {
        /// Database name.
        db: String,
        /// Facts source, one `Pred a1 a2 ...` per line.
        facts: String,
    },
    /// Evaluate a conjunctive query against a named database.
    Cq {
        /// Database name.
        db: String,
        /// Query source, e.g. `Q(X,Y) :- E(X,Z), E(Z,Y)`.
        query: String,
    },
    /// Decide containment `q1 ⊆ q2` (and the reverse) between two
    /// queries given inline.
    Contain {
        /// Left query source.
        q1: String,
        /// Right query source.
        q2: String,
    },
    /// Decide homomorphism existence between two *named* databases via
    /// the governed [`Solver`](cspdb::Solver) facade.
    Solve {
        /// Source structure's database name.
        a: String,
        /// Target structure's database name.
        b: String,
    },
    /// Insert one tuple into a relation of a named database (protocol
    /// v2; bumps the version, maintains registered views).
    Insert {
        /// Database name.
        db: String,
        /// The fact, facts-file syntax: `Pred a1 a2 ...`.
        fact: String,
    },
    /// Delete one tuple from a relation of a named database (protocol
    /// v2; bumps the version, maintains registered views). Deleting a
    /// tuple that was never inserted is a typed no-op, not an error.
    Delete {
        /// Database name.
        db: String,
        /// The fact, facts-file syntax: `Pred a1 a2 ...`.
        fact: String,
    },
    /// Snapshot the server's [`Stats`](crate::Stats).
    Stats,
}

impl RequestBody {
    /// True for the cheap control-plane operations the server executes
    /// inline at admission (never queued, never subject to overload).
    pub fn is_control(&self) -> bool {
        matches!(
            self,
            RequestBody::Put { .. }
                | RequestBody::Insert { .. }
                | RequestBody::Delete { .. }
                | RequestBody::Stats
        )
    }
}

/// One parsed request line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Client-assigned id, echoed in the response.
    pub id: u64,
    /// The operation.
    pub body: RequestBody,
    /// Optional client deadline in milliseconds, measured from
    /// admission. The server sheds requests it cannot serve in time
    /// (at admission by estimate, at dequeue by clock) with status
    /// `expired` instead of executing them late.
    pub deadline_ms: Option<u64>,
}

impl Request {
    /// A request with no deadline.
    pub fn new(id: u64, body: RequestBody) -> Request {
        Request {
            id,
            body,
            deadline_ms: None,
        }
    }

    /// Parses one JSONL request line.
    ///
    /// # Errors
    ///
    /// [`ParseError::Malformed`] for bad JSON, an unknown `"op"`, or a
    /// missing/mistyped field; [`ParseError::UnsupportedVersion`] when
    /// the optional `"v"` field names a version other than
    /// [`PROTOCOL_VERSION`] (absent `"v"` implies version 1).
    pub fn parse(line: &str) -> Result<Request, ParseError> {
        let map = parse_object(line).map_err(ParseError::Malformed)?;
        let version = match map.get("v") {
            None => 1,
            Some(JsonValue::Num(got)) if (1..=PROTOCOL_VERSION).contains(got) => *got,
            Some(JsonValue::Num(got)) => {
                return Err(ParseError::UnsupportedVersion { got: *got });
            }
            Some(_) => {
                return Err(ParseError::Malformed(
                    "\"v\" must be a nonnegative integer".into(),
                ));
            }
        };
        let id = match map.get("id") {
            Some(JsonValue::Num(n)) => *n,
            Some(_) => {
                return Err(ParseError::Malformed(
                    "\"id\" must be a nonnegative integer".into(),
                ))
            }
            None => return Err(ParseError::Malformed("missing \"id\"".into())),
        };
        let deadline_ms = match map.get("deadline_ms") {
            Some(JsonValue::Num(n)) => Some(*n),
            Some(_) => {
                return Err(ParseError::Malformed(
                    "\"deadline_ms\" must be a nonnegative integer".into(),
                ))
            }
            None => None,
        };
        let get = |key: &str| -> Result<String, ParseError> {
            map.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_owned)
                .ok_or_else(|| ParseError::Malformed(format!("missing string field \"{key}\"")))
        };
        let op = get("op")?;
        let body = match op.as_str() {
            "put" => RequestBody::Put {
                db: get("db")?,
                facts: get("facts")?,
            },
            "cq" => RequestBody::Cq {
                db: get("db")?,
                query: get("query")?,
            },
            "contain" => RequestBody::Contain {
                q1: get("q1")?,
                q2: get("q2")?,
            },
            "solve" => RequestBody::Solve {
                a: get("a")?,
                b: get("b")?,
            },
            "insert" | "delete" => {
                if version < 2 {
                    return Err(ParseError::VersionGated {
                        op,
                        needs: 2,
                        got: version,
                    });
                }
                let db = get("db")?;
                let fact = get("fact")?;
                if op == "insert" {
                    RequestBody::Insert { db, fact }
                } else {
                    RequestBody::Delete { db, fact }
                }
            }
            "stats" => RequestBody::Stats,
            other => return Err(ParseError::Malformed(format!("unknown op \"{other}\""))),
        };
        Ok(Request {
            id,
            body,
            deadline_ms,
        })
    }
}

/// The operation-specific payload of a response.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// A CQ answer relation, pre-serialized (`[[0,2],[1,3]]`, rows
    /// sorted). Cache hits reuse the stored string verbatim, which is
    /// what makes the byte-identical-answers guarantee checkable.
    Answers {
        /// Sorted JSON rows.
        rows: String,
        /// True when served from the semantic cache.
        cached: bool,
        /// True when the heavy lane was saturated and the server
        /// degraded the request to a budget-sliced cheap tier: the
        /// evaluation was bounded, so the answer may be incomplete.
        approximate: bool,
    },
    /// Containment verdicts for a `contain` request.
    Contains {
        /// `q1 ⊆ q2`.
        forward: bool,
        /// `q2 ⊆ q1`.
        backward: bool,
    },
    /// A decided `solve` request.
    Solved {
        /// True if a homomorphism exists.
        sat: bool,
        /// The witness homomorphism, when sat.
        witness: Option<Vec<u32>>,
    },
    /// A successful `put`.
    Put {
        /// Database name.
        db: String,
        /// New version (1 for a fresh name).
        version: u64,
    },
    /// An executed `insert`/`delete`.
    Delta {
        /// Database name.
        db: String,
        /// Database version after the delta (unchanged when not
        /// applied).
        version: u64,
        /// `"insert"` or `"delete"`.
        op: &'static str,
        /// False when the delta was a typed no-op — a delete of a
        /// tuple that was never inserted, or an insert of a tuple
        /// already present. No version is burned, no state changes.
        applied: bool,
    },
    /// A `stats` snapshot, pre-serialized by [`Stats`](crate::Stats).
    Stats {
        /// The snapshot JSON object.
        json: String,
    },
    /// The request's budget ran out or it was cancelled — inconclusive,
    /// the governed-command analogue of CLI exit code 2.
    Unknown {
        /// The exhaustion or cancellation reason.
        reason: String,
    },
    /// Typed admission rejection: the target lane's queue was full.
    Overloaded {
        /// Which lane rejected it (`"normal"`/`"heavy"`).
        lane: &'static str,
        /// Server hint: how long to wait before retrying, in
        /// milliseconds. The server always emits at least
        /// [`MIN_RETRY_HINT_MS`](crate::MIN_RETRY_HINT_MS); 0 (no hint,
        /// omitted from the JSON) is still accepted on the wire, and
        /// [`retry_with_backoff`] falls back to exponential backoff for
        /// it rather than hot-spinning.
        retry_after_ms: u64,
    },
    /// The request's deadline passed before it could be executed; it
    /// was shed (at admission by estimate or at dequeue by clock)
    /// rather than served late.
    Expired {
        /// How long the request had waited when it was shed, in
        /// milliseconds.
        waited_ms: u64,
    },
    /// The worker executing the request panicked; the panic was
    /// isolated and the worker survived.
    InternalError {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// The worker dropped the reply channel without answering (it
    /// died in a way panic isolation could not catch).
    WorkerLost,
    /// The request named a wire-protocol version the server does not
    /// speak (see [`PROTOCOL_VERSION`]).
    UnsupportedVersion {
        /// The version the client asked for.
        got: u64,
    },
    /// The request could not be executed (parse error, unknown
    /// database, predicate mismatch, shutdown, ...).
    Error {
        /// Human-readable description.
        message: String,
    },
}

/// One response line.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The request's id (0 when the request line had no parsable id).
    pub id: u64,
    /// The payload.
    pub outcome: Outcome,
    /// Wall-clock service time in microseconds (admission to
    /// completion; 0 for rejections).
    pub micros: u64,
}

impl Response {
    /// The coarse `"status"` field value.
    pub fn status(&self) -> &'static str {
        match self.outcome {
            Outcome::Unknown { .. } => "unknown",
            Outcome::Overloaded { .. } => "overloaded",
            Outcome::Expired { .. } => "expired",
            Outcome::Error { .. }
            | Outcome::InternalError { .. }
            | Outcome::WorkerLost
            | Outcome::UnsupportedVersion { .. } => "error",
            _ => "ok",
        }
    }

    /// Serialises the response as one JSON object.
    pub fn to_json(&self) -> String {
        let mut s = format!("{{\"id\":{},\"status\":\"{}\"", self.id, self.status());
        match &self.outcome {
            Outcome::Answers {
                rows,
                cached,
                approximate,
            } => {
                s.push_str(&format!(",\"cached\":{cached},\"answers\":{rows}"));
                if *approximate {
                    s.push_str(",\"approximate\":true");
                }
            }
            Outcome::Contains { forward, backward } => {
                s.push_str(&format!(
                    ",\"forward\":{forward},\"backward\":{backward},\"equivalent\":{}",
                    *forward && *backward
                ));
            }
            Outcome::Solved { sat, witness } => {
                s.push_str(&format!(",\"sat\":{sat}"));
                if let Some(w) = witness {
                    let body: Vec<String> = w.iter().map(u32::to_string).collect();
                    s.push_str(&format!(",\"witness\":[{}]", body.join(",")));
                }
            }
            Outcome::Put { db, version } => {
                s.push_str(&format!(",\"db\":\"{}\",\"version\":{version}", escape(db)));
            }
            Outcome::Delta {
                db,
                version,
                op,
                applied,
            } => {
                s.push_str(&format!(
                    ",\"db\":\"{}\",\"version\":{version},\"op\":\"{op}\",\"applied\":{applied}",
                    escape(db)
                ));
            }
            Outcome::Stats { json } => {
                s.push_str(&format!(",\"stats\":{json}"));
            }
            Outcome::Unknown { reason } => {
                s.push_str(&format!(",\"reason\":\"{}\"", escape(reason)));
            }
            Outcome::Overloaded {
                lane,
                retry_after_ms,
            } => {
                s.push_str(&format!(",\"lane\":\"{}\"", escape(lane)));
                if *retry_after_ms > 0 {
                    s.push_str(&format!(",\"retry_after_ms\":{retry_after_ms}"));
                }
            }
            Outcome::Expired { waited_ms } => {
                s.push_str(&format!(",\"waited_ms\":{waited_ms}"));
            }
            Outcome::InternalError { message } => {
                s.push_str(&format!(
                    ",\"kind\":\"internal\",\"message\":\"{}\"",
                    escape(message)
                ));
            }
            Outcome::WorkerLost => {
                s.push_str(",\"kind\":\"worker_lost\",\"message\":\"worker dropped the request\"");
            }
            Outcome::UnsupportedVersion { got } => {
                s.push_str(&format!(
                    ",\"kind\":\"unsupported_version\",\"got\":{got},\"speaks\":{PROTOCOL_VERSION}"
                ));
            }
            Outcome::Error { message } => {
                s.push_str(&format!(",\"message\":\"{}\"", escape(message)));
            }
        }
        if self.micros > 0 {
            s.push_str(&format!(",\"micros\":{}", self.micros));
        }
        s.push('}');
        s
    }
}

/// Client-side retry loop for `overloaded` responses.
///
/// Calls `attempt` up to `max_attempts` times. Any response other than
/// [`Outcome::Overloaded`] is returned immediately. On overload the
/// helper waits via `sleep` — honouring the server's `retry_after_ms`
/// hint when present, falling back to exponential backoff
/// (10ms · 2^attempt) when the server gave none — and tries again. The
/// final overloaded response is returned when every attempt was
/// rejected. `sleep` is injectable so tests (and the doctor harness)
/// can run the policy without real waiting.
pub fn retry_with_backoff(
    mut attempt: impl FnMut() -> Response,
    max_attempts: u32,
    mut sleep: impl FnMut(std::time::Duration),
) -> Response {
    let mut last = attempt();
    for tried in 1..max_attempts {
        let hint = match last.outcome {
            Outcome::Overloaded { retry_after_ms, .. } => retry_after_ms,
            _ => return last,
        };
        let wait_ms = if hint > 0 {
            hint
        } else {
            10u64.saturating_mul(1 << tried.min(10))
        };
        sleep(std::time::Duration::from_millis(wait_ms));
        last = attempt();
    }
    last
}

/// Serialises an answer relation as a deterministic JSON array of rows:
/// rows sorted lexicographically — the order a [`Relation`] keeps them
/// in — so equal relations always produce byte-identical strings
/// regardless of which engine (or cache entry) supplied them. Written
/// into one pre-sized buffer.
pub fn relation_to_json(rel: &Relation) -> String {
    let mut out = String::with_capacity(2 + rel.len() * (2 + rel.arity() * 5));
    out.push('[');
    for (i, row) in rel.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push('[');
        for (j, &x) in row.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            push_decimal(&mut out, x);
        }
        out.push(']');
    }
    out.push(']');
    out
}

/// Appends `x` in decimal.
fn push_decimal(out: &mut String, mut x: u32) {
    let mut digits = [0u8; 10];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (x % 10) as u8;
        x /= 10;
        if x == 0 {
            break;
        }
    }
    out.extend(digits[at..].iter().map(|&d| char::from(d)));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relation_json_golden_strings() {
        let rel = |arity: usize, rows: &[&[u32]]| Relation::from_tuples(arity, rows).unwrap();
        assert_eq!(relation_to_json(&Relation::empty(0)), "[]");
        assert_eq!(relation_to_json(&rel(0, &[&[]])), "[[]]");
        assert_eq!(relation_to_json(&Relation::empty(2)), "[]");
        assert_eq!(
            relation_to_json(&rel(1, &[&[10], &[7], &[0]])),
            "[[0],[7],[10]]"
        );
        assert_eq!(
            relation_to_json(&rel(2, &[&[123, 4], &[9, 4_294_967_295], &[9, 80]])),
            "[[9,80],[9,4294967295],[123,4]]"
        );
        assert_eq!(
            relation_to_json(&rel(3, &[&[1, 20, 300], &[0, 0, 0]])),
            "[[0,0,0],[1,20,300]]"
        );
    }

    #[test]
    fn parses_every_op() {
        let put = Request::parse(r#"{"id":1,"op":"put","db":"g","facts":"E 0 1"}"#).unwrap();
        assert_eq!(
            put.body,
            RequestBody::Put {
                db: "g".into(),
                facts: "E 0 1".into()
            }
        );
        assert!(put.body.is_control());
        let cq = Request::parse(r#"{"id":2,"op":"cq","db":"g","query":"Q(X) :- E(X,Y)"}"#).unwrap();
        assert!(!cq.body.is_control());
        assert!(Request::parse(r#"{"id":5,"op":"stats"}"#).unwrap().body == RequestBody::Stats);
        assert!(Request::parse(r#"{"op":"stats"}"#).is_err(), "id required");
        assert!(Request::parse(r#"{"id":1,"op":"nope"}"#).is_err());
        assert!(Request::parse(r#"{"id":1,"op":"cq","db":"g"}"#).is_err());
    }

    #[test]
    fn responses_serialise_with_status() {
        let ok = Response {
            id: 3,
            outcome: Outcome::Answers {
                rows: "[[0,2]]".into(),
                cached: true,
                approximate: false,
            },
            micros: 42,
        };
        assert_eq!(
            ok.to_json(),
            r#"{"id":3,"status":"ok","cached":true,"answers":[[0,2]],"micros":42}"#
        );
        let over = Response {
            id: 9,
            outcome: Outcome::Overloaded {
                lane: "heavy",
                retry_after_ms: 0,
            },
            micros: 0,
        };
        assert_eq!(
            over.to_json(),
            r#"{"id":9,"status":"overloaded","lane":"heavy"}"#
        );
        let unk = Response {
            id: 1,
            outcome: Outcome::Unknown {
                reason: "cancelled".into(),
            },
            micros: 0,
        };
        assert_eq!(unk.status(), "unknown");
    }

    #[test]
    fn robustness_outcomes_serialise() {
        let hinted = Response {
            id: 9,
            outcome: Outcome::Overloaded {
                lane: "heavy",
                retry_after_ms: 25,
            },
            micros: 0,
        };
        assert_eq!(
            hinted.to_json(),
            r#"{"id":9,"status":"overloaded","lane":"heavy","retry_after_ms":25}"#
        );
        let approx = Response {
            id: 4,
            outcome: Outcome::Answers {
                rows: "[]".into(),
                cached: false,
                approximate: true,
            },
            micros: 0,
        };
        assert_eq!(
            approx.to_json(),
            r#"{"id":4,"status":"ok","cached":false,"answers":[],"approximate":true}"#
        );
        let expired = Response {
            id: 7,
            outcome: Outcome::Expired { waited_ms: 12 },
            micros: 0,
        };
        assert_eq!(
            expired.to_json(),
            r#"{"id":7,"status":"expired","waited_ms":12}"#
        );
        let internal = Response {
            id: 8,
            outcome: Outcome::InternalError {
                message: "boom".into(),
            },
            micros: 0,
        };
        assert_eq!(
            internal.to_json(),
            r#"{"id":8,"status":"error","kind":"internal","message":"boom"}"#
        );
        let lost = Response {
            id: 2,
            outcome: Outcome::WorkerLost,
            micros: 0,
        };
        assert_eq!(
            lost.to_json(),
            r#"{"id":2,"status":"error","kind":"worker_lost","message":"worker dropped the request"}"#
        );
    }

    #[test]
    fn protocol_version_is_checked_when_present() {
        // Absent "v" implies version 1; explicit versions 1 and 2 are
        // accepted.
        assert!(Request::parse(r#"{"id":1,"op":"stats"}"#).is_ok());
        assert!(Request::parse(r#"{"id":1,"v":1,"op":"stats"}"#).is_ok());
        assert!(Request::parse(r#"{"id":1,"v":2,"op":"stats"}"#).is_ok());
        // Unknown versions get the typed error, not a generic message.
        assert_eq!(
            Request::parse(r#"{"id":1,"v":3,"op":"stats"}"#),
            Err(ParseError::UnsupportedVersion { got: 3 })
        );
        assert_eq!(
            Request::parse(r#"{"id":1,"v":0,"op":"stats"}"#),
            Err(ParseError::UnsupportedVersion { got: 0 })
        );
        // Even an otherwise-broken line reports the version first, so
        // old servers talking to new clients fail with the real cause.
        assert_eq!(
            Request::parse(r#"{"v":9}"#),
            Err(ParseError::UnsupportedVersion { got: 9 })
        );
        assert!(matches!(
            Request::parse(r#"{"id":1,"v":"one","op":"stats"}"#),
            Err(ParseError::Malformed(_))
        ));
        let resp = Response {
            id: 1,
            outcome: Outcome::UnsupportedVersion { got: 3 },
            micros: 0,
        };
        assert_eq!(
            resp.to_json(),
            r#"{"id":1,"status":"error","kind":"unsupported_version","got":3,"speaks":2}"#
        );
    }

    #[test]
    fn insert_and_delete_are_gated_on_version_2() {
        let ins =
            Request::parse(r#"{"id":1,"v":2,"op":"insert","db":"g","fact":"E 0 1"}"#).unwrap();
        assert_eq!(
            ins.body,
            RequestBody::Insert {
                db: "g".into(),
                fact: "E 0 1".into()
            }
        );
        assert!(ins.body.is_control());
        let del =
            Request::parse(r#"{"id":2,"v":2,"op":"delete","db":"g","fact":"E 0 1"}"#).unwrap();
        assert_eq!(
            del.body,
            RequestBody::Delete {
                db: "g".into(),
                fact: "E 0 1".into()
            }
        );
        assert!(del.body.is_control());
        // A v1 line (explicit or implied) gets the typed gate error.
        assert_eq!(
            Request::parse(r#"{"id":3,"op":"insert","db":"g","fact":"E 0 1"}"#),
            Err(ParseError::VersionGated {
                op: "insert".into(),
                needs: 2,
                got: 1
            })
        );
        assert_eq!(
            Request::parse(r#"{"id":3,"v":1,"op":"delete","db":"g","fact":"E 0 1"}"#),
            Err(ParseError::VersionGated {
                op: "delete".into(),
                needs: 2,
                got: 1
            })
        );
        // Missing fields are still plain malformed.
        assert!(matches!(
            Request::parse(r#"{"id":4,"v":2,"op":"insert","db":"g"}"#),
            Err(ParseError::Malformed(_))
        ));
    }

    #[test]
    fn delta_outcomes_serialise() {
        let applied = Response {
            id: 6,
            outcome: Outcome::Delta {
                db: "g".into(),
                version: 4,
                op: "insert",
                applied: true,
            },
            micros: 0,
        };
        assert_eq!(
            applied.to_json(),
            r#"{"id":6,"status":"ok","db":"g","version":4,"op":"insert","applied":true}"#
        );
        let noop = Response {
            id: 7,
            outcome: Outcome::Delta {
                db: "g".into(),
                version: 4,
                op: "delete",
                applied: false,
            },
            micros: 0,
        };
        assert_eq!(
            noop.to_json(),
            r#"{"id":7,"status":"ok","db":"g","version":4,"op":"delete","applied":false}"#
        );
    }

    #[test]
    fn deadlines_parse_and_default_to_none() {
        let r = Request::parse(r#"{"id":1,"op":"stats","deadline_ms":250}"#).unwrap();
        assert_eq!(r.deadline_ms, Some(250));
        let r = Request::parse(r#"{"id":1,"op":"stats"}"#).unwrap();
        assert_eq!(r.deadline_ms, None);
        assert!(Request::parse(r#"{"id":1,"op":"stats","deadline_ms":"soon"}"#).is_err());
    }

    #[test]
    fn retry_honours_hint_then_falls_back_to_exponential() {
        let overloaded = |hint: u64| Response {
            id: 1,
            outcome: Outcome::Overloaded {
                lane: "normal",
                retry_after_ms: hint,
            },
            micros: 0,
        };
        let ok = Response {
            id: 1,
            outcome: Outcome::Stats { json: "{}".into() },
            micros: 1,
        };
        // Hinted overload, unhinted overload, then success: the sleeps
        // must be the hint (25ms) then the exponential fallback (40ms
        // for attempt 2).
        let script = vec![overloaded(25), overloaded(0), ok.clone()];
        let mut calls = script.into_iter();
        let mut slept = Vec::new();
        let got = retry_with_backoff(
            || calls.next().unwrap(),
            5,
            |d| slept.push(d.as_millis() as u64),
        );
        assert_eq!(got, ok);
        assert_eq!(slept, vec![25, 40]);
        // Persistent overload: exactly max_attempts calls, final
        // overloaded response returned.
        let mut count = 0;
        let got = retry_with_backoff(
            || {
                count += 1;
                overloaded(1)
            },
            3,
            |_| {},
        );
        assert_eq!(count, 3);
        assert!(matches!(got.outcome, Outcome::Overloaded { .. }));
        // A non-overloaded response returns immediately, no sleeping.
        let mut count = 0;
        let got = retry_with_backoff(
            || {
                count += 1;
                ok.clone()
            },
            5,
            |_| panic!("must not sleep"),
        );
        assert_eq!(count, 1);
        assert_eq!(got, ok);
    }

    #[test]
    fn relation_serialisation_is_sorted_and_deterministic() {
        let a = Relation::from_tuples(2, [[1u32, 3], [0, 2]]).unwrap();
        let b = Relation::from_tuples(2, [[0u32, 2], [1, 3]]).unwrap();
        assert_eq!(relation_to_json(&a), "[[0,2],[1,3]]");
        assert_eq!(relation_to_json(&a), relation_to_json(&b));
        assert_eq!(relation_to_json(&Relation::empty(2)), "[]");
        // A Boolean (arity-0) "true" relation is the unit row.
        let unit = Relation::from_tuples(0, [Vec::<u32>::new()]).unwrap();
        assert_eq!(relation_to_json(&unit), "[[]]");
    }
}
