//! # cspdb-core
//!
//! Core data model for *constraint-db*, a Rust reproduction of
//! Moshe Y. Vardi, **"Constraint Satisfaction and Database Theory: a
//! Tutorial"**, PODS 2000.
//!
//! This crate implements Section 2 of the paper:
//!
//! * [`Vocabulary`] — relational signatures;
//! * [`Relation`] — finite relations (sorted tuple sets over `u32`);
//! * [`Structure`] — finite relational structures;
//! * [`is_homomorphism`] / [`PartialHom`] — (partial) homomorphisms, the
//!   central notion tying CSP to database theory;
//! * [`CspInstance`] — the traditional AI formulation `(V, D, C)` with
//!   conversions to and from the homomorphism formulation
//!   ([`CspInstance::to_homomorphism`], [`CspInstance::from_homomorphism`]);
//! * [`sum`] — the `A + B` pair encoding over `σ1 + σ2` of Section 4;
//! * [`graphs`] — clique/cycle/path constructors (`CSP(K_k)` is
//!   k-colorability).
//!
//! Higher crates build everything else on these types: join evaluation
//! (`cspdb-relalg`), conjunctive queries (`cspdb-cq`), search
//! (`cspdb-solver`), pebble games and consistency (`cspdb-consistency`),
//! Datalog (`cspdb-datalog`), Schaefer's dichotomy (`cspdb-schaefer`),
//! decompositions (`cspdb-decomp`), and regular path queries
//! (`cspdb-rpq`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod budget;
mod csp;
mod error;
pub mod faults;
pub mod graphs;
mod homomorphism;
mod relation;
mod structure;
pub mod sum;
pub mod trace;
mod vocabulary;

pub use budget::{Answer, Budget, CancelToken, ExhaustionReason, Meter, ResourceUsage};
pub use csp::{is_coherent, make_coherent, Constraint, CspInstance};
pub use error::{CoreError, Result};
pub use faults::{silence_injected_panics, FaultHandle, FaultInjector, FaultPlan, FaultSite};
pub use homomorphism::{compose, is_homomorphism, PartialHom};
pub use relation::Relation;
pub use structure::Structure;
pub use trace::{
    Fanout, JsonLinesSink, NullSink, OperatorKind, Recorder, TraceEvent, TraceSink, Tracer,
};
pub use vocabulary::{RelId, Vocabulary, VocabularyBuilder};
