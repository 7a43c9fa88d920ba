//! # cspdb-consistency
//!
//! Existential k-pebble games and local consistency — Sections 4 and 5 of
//! the paper, the bridge between Datalog and constraint propagation.
//!
//! * [`largest_winning_strategy`] — computes `H^k(A,B)` / the
//!   configuration set `W^k(A,B)` of Theorem 4.5 by greatest fixpoint;
//!   [`duplicator_wins`] / [`spoiler_wins`] decide the game in polynomial
//!   time for fixed `k`.
//! * [`is_i_consistent`] / [`is_strongly_k_consistent`] — Definition 5.2,
//!   implemented through the pebble-game recast of Proposition 5.3;
//!   [`ac3`] is the classic binary arc-consistency algorithm (2-consistency).
//! * [`establish_strong_k_consistency`] — Theorem 5.6: possible iff the
//!   Duplicator wins; the output re-formats the largest winning strategy
//!   into the largest coherent instance establishing strong k-consistency
//!   ([`verify_definition_5_4`] checks all four conditions of Definition
//!   5.4 against the original instance; [`dominates`] checks maximality).
//! * [`k_consistency_refutes`] — the uniform algorithm behind Theorems
//!   4.6/4.7 and 5.7: a Spoiler win soundly refutes homomorphism
//!   existence, and is *complete* exactly for templates whose complement
//!   is k-Datalog-expressible (2-SAT, Horn, 2-colorability, ...).
//! * [`solve_tree_csp`] — Freuder's backtrack-free pipeline for
//!   tree-structured instances (Section 5's "solution via backtrack-free
//!   search"): arc consistency, then greedy root-to-leaf extension with
//!   provably zero dead ends.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod establish;
mod freuder;
mod game;
mod local;

pub use establish::{
    dominates, establish_from_strategy, establish_strong_k_consistency, established_is_coherent,
    k_consistency_refutes, k_consistency_refutes_metered, verify_definition_5_4, Established,
};
pub use freuder::{greedy_extend, is_tree_instance, solve_tree_csp, tree_order};
pub use game::{
    duplicator_wins, largest_winning_strategy, largest_winning_strategy_metered, spoiler_wins,
    spoiler_wins_metered, wk_table_bound, WinningStrategy,
};
pub use local::{
    ac3, ac3_metered, csp_is_strongly_k_consistent, is_i_consistent, is_strongly_k_consistent,
    partial_homomorphisms,
};
