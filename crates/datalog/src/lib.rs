//! # cspdb-datalog
//!
//! A Datalog engine for *constraint-db* — the database-theoretic side of
//! the paper's central tractability story (Section 4): *expressibility of
//! `¬CSP(B)` in Datalog is a sufficient condition for tractability*,
//! because bottom-up evaluation reaches the least fixpoint in
//! polynomially many steps.
//!
//! * [`Program`] / [`Rule`] / [`Atom`] / [`Term`] — abstract syntax with
//!   safety checking and the k-Datalog bounded-variable test
//!   ([`Program::is_k_datalog`]);
//! * [`parse_program`] — a small rule-syntax parser (the paper's
//!   Non-2-Colorability program parses verbatim);
//! * [`evaluate`] / [`goal_holds`] — semi-naive bottom-up evaluation over
//!   a [`cspdb_core::Structure`] EDB;
//! * [`programs`] — the paper's Section 4 example program and the
//!   2-SAT / Horn refutation programs whose equivalence with existential
//!   pebble games (Theorem 4.6) the workspace tests verify.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod ast;
mod eval;
mod parser;
pub mod programs;

pub use ast::{Atom, Program, Rule, Term};
pub use eval::{evaluate, evaluate_metered, goal_holds, goal_holds_metered, EvalError, Evaluation};
pub use parser::parse_program;

#[cfg(test)]
mod theorem_4_6_tests {
    //! Computational witnesses for Theorem 4.6: for templates whose
    //! complement is k-Datalog-expressible, the Datalog goal, the
    //! Spoiler's pebble-game win, and the non-existence of a
    //! homomorphism all coincide.

    use crate::eval::goal_holds;
    use crate::programs::non_2_colorability;
    use cspdb_consistency::spoiler_wins;
    use cspdb_core::graphs::{clique, complete_bipartite, cycle, path, two_coloring};

    #[test]
    fn datalog_equals_game_equals_semantics_for_2col() {
        let graphs = [
            cycle(3),
            cycle(4),
            cycle(5),
            cycle(6),
            cycle(7),
            path(5),
            clique(3),
            complete_bipartite(2, 2),
        ];
        let program = non_2_colorability();
        let k2 = clique(2);
        for g in graphs {
            let datalog_says_no = goal_holds(&program, &g).unwrap();
            // Odd-cycle walking needs only 3 pebbles; the program uses 4
            // variables. Both levels agree with the semantics.
            let game3_says_no = spoiler_wins(&g, &k2, 3);
            let truth_no = two_coloring(&g).is_none();
            assert_eq!(datalog_says_no, truth_no, "datalog vs truth on {g}");
            assert_eq!(game3_says_no, truth_no, "3-pebble game vs truth on {g}");
        }
    }
}
