//! # cspdb-ivm
//!
//! Incremental view maintenance: materialized CQ/Datalog/RPQ views
//! registered against a named database and maintained under first-class
//! single-tuple deltas instead of from-scratch re-evaluation.
//!
//! The per-query machinery elsewhere in the workspace recomputes every
//! answer set when its database changes; under sustained read traffic a
//! hot write stream turns every read into a cold multi-way join. This
//! crate closes that gap with the three classical maintenance
//! disciplines:
//!
//! * **Counting** for non-recursive conjunctive queries ([`CqView`]):
//!   every answer tuple carries its derivation count, so an insert adds
//!   exactly the new derivations (semi-naive delta expansion over the
//!   body atoms) and a delete *decrements* instead of recomputing — a
//!   tuple dies only when its last derivation does.
//! * **DRed** (delete-and-rederive) for recursive Datalog
//!   ([`DatalogView`]): deletions over-delete everything transitively
//!   supported by the removed fact, then re-derive the survivors from
//!   alternative support; insertions continue the semi-naive fixpoint
//!   from the delta.
//! * **Template reuse** for RPQ certain answers ([`RpqView`]): the
//!   exponential constraint template of Theorem 7.5 depends only on the
//!   query and view definitions, so a delta re-solves the (polynomial)
//!   CSP side against the prebuilt template.
//!
//! Every maintenance path is metered, traced
//! ([`TraceEvent::DeltaApplied`](cspdb_core::TraceEvent),
//! `ViewRefreshed`, `ViewRederived`), and budget-abortable like every
//! other engine in the workspace. [`ViewSet`] is the registry the
//! service layer drives: it owns views per named database, applies
//! deltas to all of them, and can verify each maintained answer set
//! byte-identically against from-scratch recomputation.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cq_view;
mod datalog_view;
mod delta;
mod registry;
mod rpq_view;

pub use cq_view::CqView;
pub use datalog_view::DatalogView;
pub use delta::{structure_with_delta, Delta, DeltaOp, IvmError, Refresh};
pub use registry::{MaterializedView, ViewSet};
pub use rpq_view::RpqView;
