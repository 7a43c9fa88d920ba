//! # cspdb-decomp
//!
//! Structural decompositions for *constraint-db* (Section 6 of the paper):
//!
//! * [`Graph`] — simple graphs, Gaifman (primal) and incidence graphs of
//!   structures;
//! * [`Hypergraph`] / [`JoinTree`] — hypergraphs of structures/queries,
//!   the GYO ear-removal reduction, α-acyclicity, join trees;
//! * [`TreeDecomposition`] — tree decompositions with independent
//!   validation, min-degree/min-fill heuristics, and exact treewidth by
//!   branch-and-bound over elimination orders (the practical stand-in for
//!   Bodlaender's galactic linear-time recognition — see DESIGN.md);
//! * [`solve_with_decomposition`] / [`solve_by_treewidth`] — the
//!   Theorem 6.2 algorithm: homomorphism testing in time `O(n · |B|^{k+1})`
//!   for structures of treewidth `k`, by dynamic programming over bags
//!   (equivalently: evaluation of the `∃FO^{k+1}` form of the canonical
//!   query `φ_A`, cf. Proposition 6.1 implemented in `cspdb-cq`);
//! * [`HypertreeDecomposition`] — generalized hypertree decompositions
//!   with a greedy heuristic; acyclic hypergraphs get exact width 1;
//! * [`NiceDecomposition`] / [`make_nice`] — nice tree decompositions
//!   (Leaf/Introduce/Forget/Join) of the same width;
//! * [`count_by_treewidth`] — the counting strengthening of Theorem 6.2
//!   by DP over a nice decomposition;
//! * [`QueryDecomposition`] — Chekuri–Rajaraman query decompositions,
//!   constructed from incidence-graph tree decompositions (the paper's
//!   "incidence treewidth bounds querywidth" remark).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod counting;
mod csp_dp;
mod graph;
mod hypergraph;
mod hypertree;
mod nice;
mod querydecomp;
mod treewidth;

pub use counting::{count_by_treewidth, count_with_decomposition};
pub use csp_dp::{
    bag_table_bound, solve_by_treewidth, solve_by_treewidth_metered, solve_with_decomposition,
    solve_with_decomposition_metered, DecompSolveError,
};
pub use graph::Graph;
pub use hypergraph::{Hypergraph, JoinTree};
pub use hypertree::{hypertree_heuristic, HypertreeDecomposition};
pub use nice::{make_nice, nice_validate_structure, NiceDecomposition, NiceNode};
pub use querydecomp::{atoms_of, query_decomposition_from_incidence, QueryDecomposition};
pub use treewidth::{
    exact_treewidth, exact_treewidth_metered, from_elimination_order, heuristic_decomposition,
    heuristic_decomposition_metered, min_degree_order, min_fill_order, min_fill_order_metered,
    order_width, TreeDecomposition,
};
