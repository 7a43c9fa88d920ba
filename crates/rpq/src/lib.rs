//! # cspdb-rpq
//!
//! Regular path queries over semistructured data and view-based query
//! processing — Section 7 of the paper, where the tutorial's direction
//! reverses: constraint satisfaction is applied *to* database theory.
//!
//! * [`Regex`] / [`Nfa`] / [`Dfa`] / [`EpsilonFreeNfa`] — regular
//!   expressions and automata (Thompson construction, subset
//!   construction, state-elimination back to regexes);
//! * [`GraphDb`] — edge-labeled graph databases with product-automaton
//!   RPQ evaluation ([`GraphDb::answer`]);
//! * [`certain_answer`] — view-based query answering via the
//!   **constraint template** of Theorem 7.5 (domain `2^S`), validated
//!   against the canonical-database ground truth
//!   [`certain_answer_bruteforce`];
//! * [`csp_to_views`] / [`extensions_for_digraph`] /
//!   [`csp_via_view_answering`] — Theorem 7.3's converse reduction:
//!   certain answering is as hard as `CSP(B)` for digraph templates;
//! * [`maximal_rewriting`] — the maximal RPQ rewriting of a query using
//!   views (\[8\]), whose evaluation is sound for (but in general weaker
//!   than) the perfect rewriting, matching Theorem 7.2's message that
//!   perfect rewritings are co-NP functions;
//! * [`ArcConsistencyRewriting`] — the paper's closing remark made
//!   executable: a sound, PTIME, Datalog-style (2-pebble / arc
//!   consistency) under-approximation of certain answers via the
//!   Section 4 connection.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod automata;
mod datalog_rewriting;
mod graphdb;
mod regex;
mod rewriting;
mod views;

pub use automata::{Dfa, EpsilonFreeNfa, Nfa};
pub use datalog_rewriting::ArcConsistencyRewriting;
pub use graphdb::GraphDb;
pub use regex::Regex;
pub use rewriting::{maximal_rewriting, Rewriting};
pub use views::{
    certain_answer, certain_answer_bruteforce, constraint_template, csp_to_views,
    csp_via_view_answering, extension_size, extension_structure, extensions_for_digraph,
    CertainAnswering, ConstraintTemplate, CspAsViews, Extensions, View,
};
