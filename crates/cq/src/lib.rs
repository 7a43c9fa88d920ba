//! # cspdb-cq
//!
//! Conjunctive queries and the Chandra–Merlin correspondence — the
//! database side of Section 2 of the paper, plus the bounded-variable
//! machinery of Section 6.
//!
//! * [`ConjunctiveQuery`] — rule-form queries with a parser;
//! * [`canonical_database`] / [`canonical_query`] — `D^Q` and `φ_A`,
//!   the two translations of Propositions 2.2 and 2.3;
//! * [`evaluate_by_search`] / [`evaluate_by_join`] — two independent
//!   evaluation engines (homomorphism enumeration vs relational joins);
//! * [`is_contained_in`] / [`is_contained_in_by_eval`] /
//!   [`are_equivalent`] — containment both ways of Proposition 2.2;
//! * [`minimize`] / [`core_retract`] — query cores;
//! * [`BoundedFormula`] / [`sentence_from_decomposition`] /
//!   [`theorem_6_2_decide`] — Proposition 6.1's `∃FO^{k+1}` compilation
//!   of bounded-treewidth canonical queries and its memoized polynomial
//!   evaluation (the literal proof of Theorem 6.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bounded;
mod canonical;
mod containment;
mod core_query;
mod eval;
mod query;

pub use bounded::{
    evaluate_sentence, sentence_from_decomposition, theorem_6_2_decide, BoundedFormula,
};
pub use canonical::{canonical_database, canonical_query, CanonicalDatabase};
pub use containment::{are_equivalent, is_contained_in, is_contained_in_by_eval};
pub use core_query::{are_hom_equivalent, core_retract, minimize, structure_core};
pub use eval::{
    boolean_holds, evaluate_by_join, evaluate_by_join_budgeted, evaluate_by_search,
    evaluate_by_search_metered, CqEvalError,
};
pub use query::{ConjunctiveQuery, QueryAtom};
