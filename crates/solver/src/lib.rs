//! # cspdb-solver
//!
//! The generic backtracking homomorphism/CSP solver of *constraint-db*.
//!
//! Constraint satisfaction in full generality is NP-complete (Section 1 of
//! the paper); this crate is the honest NP-side baseline: chronological
//! backtracking with configurable variable ordering (lexicographic, MRV,
//! MRV+degree) and propagation (backward checking, generalized forward
//! checking, full GAC / "maintaining arc consistency"). Every
//! polynomial-time special case in the workspace — Datalog/consistency
//! algorithms, bounded-treewidth dynamic programming, Schaefer's class
//! solvers, Yannakakis — is tested against this solver and raced against
//! it in the benchmark suite.
//!
//! ## Quick start
//!
//! ```
//! use cspdb_core::graphs::{clique, cycle};
//! use cspdb_solver::{find_homomorphism, count_homomorphisms};
//!
//! // A 5-cycle is 3-colorable (30 ways) but not 2-colorable.
//! assert!(find_homomorphism(&cycle(5), &clique(3)).is_some());
//! assert_eq!(count_homomorphisms(&cycle(5), &clique(3)), 30);
//! assert!(find_homomorphism(&cycle(5), &clique(2)).is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod problem;
mod search;

pub use domain::DomainSet;
pub use problem::{Problem, TableConstraint};
pub use search::{
    gac_fixpoint, gac_fixpoint_metered, Config, Outcome, Propagation, Search, Stats, VarOrder,
};

use cspdb_core::budget::{Answer, Meter, ResourceUsage};
use cspdb_core::{CoreError, CspInstance, PartialHom, Structure};
use std::ops::ControlFlow;

/// Result of a budgeted solve: three-valued [`Answer`] plus search
/// statistics and resource consumption.
///
/// Soundness contract: `answer` is [`Answer::Sat`]/[`Answer::Unsat`]
/// only when an unbudgeted run would return the same verdict;
/// exhaustion yields [`Answer::Unknown`], never a wrong answer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BudgetedRun {
    /// The (possibly inconclusive) verdict.
    pub answer: Answer,
    /// Search counters (nodes, backtracks, revisions, solutions).
    pub stats: Stats,
    /// Budget resources consumed.
    pub usage: ResourceUsage,
}

fn run_metered(p: &Problem, config: Config, meter: &mut Meter) -> BudgetedRun {
    let mut search = Search::with_meter(p, config, meter);
    let mut found = None;
    let outcome = search.run(None, |sol| {
        found = Some(sol.to_vec());
        ControlFlow::Break(())
    });
    let answer = match (found, outcome) {
        (Some(witness), _) => Answer::Sat(witness),
        (None, Outcome::Exhausted) => Answer::Unsat,
        (None, Outcome::BudgetExhausted(reason)) => Answer::Unknown(reason),
        (None, Outcome::NodeLimit) => {
            Answer::Unknown(cspdb_core::ExhaustionReason::StepLimitExceeded)
        }
        // Unreachable: the callback only breaks after recording a witness.
        (None, Outcome::Stopped) => Answer::Unsat,
    };
    BudgetedRun {
        answer,
        stats: search.stats(),
        usage: search.usage(),
    }
}

/// Solves a CSP instance under a [`Meter`]: `Sat` with a witness, a
/// definite `Unsat`, or `Unknown` if the budget ran out first.
///
/// The search charges `meter` itself, so the run's resource usage (and
/// the tracer carried by the meter) stays observable afterwards — the
/// `Solver` facade's per-phase trace summaries are built on this. Any
/// other handle of the meter tripping, or the budget's
/// [`cspdb_core::budget::CancelToken`] firing, stops this search at its
/// next checkpoint with [`Answer::Unknown`].
pub fn solve_csp_metered(instance: &CspInstance, meter: &mut Meter) -> BudgetedRun {
    run_metered(&Problem::from_csp(instance), Config::default(), meter)
}

/// Decides `A -> B` under a [`Meter`] (see [`solve_csp_metered`]).
pub fn find_homomorphism_metered(a: &Structure, b: &Structure, meter: &mut Meter) -> BudgetedRun {
    run_metered(&Problem::from_structures(a, b), Config::default(), meter)
}

/// Finds a homomorphism `A -> B` with the default configuration
/// (MRV+degree, full GAC), or `None` if none exists.
pub fn find_homomorphism(a: &Structure, b: &Structure) -> Option<Vec<u32>> {
    find_homomorphism_with(a, b, Config::default()).0
}

/// Finds a homomorphism with an explicit configuration, returning search
/// statistics alongside the result.
pub fn find_homomorphism_with(
    a: &Structure,
    b: &Structure,
    config: Config,
) -> (Option<Vec<u32>>, Stats) {
    let p = Problem::from_structures(a, b);
    let mut search = Search::new(&p, config);
    let mut found = None;
    search.run(None, |sol| {
        found = Some(sol.to_vec());
        ControlFlow::Break(())
    });
    (found, search.stats())
}

/// True if some homomorphism `A -> B` exists.
pub fn homomorphism_exists(a: &Structure, b: &Structure) -> bool {
    find_homomorphism(a, b).is_some()
}

/// Counts all homomorphisms `A -> B` by exhaustive (propagation-pruned)
/// enumeration.
pub fn count_homomorphisms(a: &Structure, b: &Structure) -> u64 {
    let p = Problem::from_structures(a, b);
    let mut search = Search::new(&p, Config::default());
    search.run(None, |_| ControlFlow::Continue(()));
    search.stats().solutions
}

/// Enumerates up to `limit` homomorphisms `A -> B`.
pub fn enumerate_homomorphisms(a: &Structure, b: &Structure, limit: usize) -> Vec<Vec<u32>> {
    let p = Problem::from_structures(a, b);
    let mut search = Search::new(&p, Config::default());
    let mut out = Vec::new();
    search.run(None, |sol| {
        out.push(sol.to_vec());
        if out.len() >= limit {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    out
}

/// Finds a homomorphism `A -> B` extending the given partial map, or
/// `Ok(None)` if no extension exists. This solves the *extension
/// problem* used by conjunctive-query evaluation with distinguished
/// variables and by core computation.
///
/// # Errors
///
/// [`CoreError::VariableOutOfRange`] / [`CoreError::ElementOutOfRange`]
/// if `fixed` maps outside the domains of `a` / `b`.
pub fn find_extension(
    a: &Structure,
    b: &Structure,
    fixed: &PartialHom,
) -> Result<Option<Vec<u32>>, CoreError> {
    let p = Problem::from_structures(a, b);
    let mut seeds = p.initial_domains.clone();
    for (x, y) in fixed.iter() {
        if (x as usize) >= a.domain_size() {
            return Err(CoreError::VariableOutOfRange {
                variable: x,
                num_vars: a.domain_size(),
            });
        }
        if (y as usize) >= b.domain_size() {
            return Err(CoreError::ElementOutOfRange {
                element: y,
                domain_size: b.domain_size(),
            });
        }
        seeds[x as usize].assign(y);
    }
    let mut search = Search::new(&p, Config::default());
    let mut found = None;
    search.run(Some(seeds), |sol| {
        found = Some(sol.to_vec());
        ControlFlow::Break(())
    });
    Ok(found)
}

/// Finds a homomorphism `A -> B` where each variable is restricted to the
/// provided candidate list (`restrictions[v]`); an empty slice for `v`
/// means "unrestricted".
///
/// # Errors
///
/// [`CoreError::ScopeArityMismatch`] if `restrictions` does not have
/// exactly one candidate list per element of `a`.
pub fn find_restricted(
    a: &Structure,
    b: &Structure,
    restrictions: &[Vec<u32>],
) -> Result<Option<Vec<u32>>, CoreError> {
    if restrictions.len() != a.domain_size() {
        return Err(CoreError::ScopeArityMismatch {
            scope_len: restrictions.len(),
            arity: a.domain_size(),
        });
    }
    let p = Problem::from_structures(a, b);
    let mut seeds = p.initial_domains.clone();
    for (v, allowed) in restrictions.iter().enumerate() {
        if !allowed.is_empty() {
            let keep = DomainSet::from_values(b.domain_size(), allowed.iter().copied());
            seeds[v].intersect_with(&keep);
        }
    }
    let mut search = Search::new(&p, Config::default());
    let mut found = None;
    search.run(Some(seeds), |sol| {
        found = Some(sol.to_vec());
        ControlFlow::Break(())
    });
    Ok(found)
}

/// Solves a classical CSP instance; returns a satisfying assignment or
/// `None`.
pub fn solve_csp(instance: &CspInstance) -> Option<Vec<u32>> {
    solve_csp_with(instance, Config::default()).0
}

/// Solves a CSP instance with an explicit configuration.
pub fn solve_csp_with(instance: &CspInstance, config: Config) -> (Option<Vec<u32>>, Stats) {
    let p = Problem::from_csp(instance);
    let mut search = Search::new(&p, config);
    let mut found = None;
    search.run(None, |sol| {
        found = Some(sol.to_vec());
        ControlFlow::Break(())
    });
    (found, search.stats())
}

/// Counts the solutions of a CSP instance.
pub fn count_csp_solutions(instance: &CspInstance) -> u64 {
    let p = Problem::from_csp(instance);
    let mut search = Search::new(&p, Config::default());
    search.run(None, |_| ControlFlow::Continue(()));
    search.stats().solutions
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::graphs::{clique, cycle, path, undirected};
    use cspdb_core::{is_homomorphism, Relation};
    use std::sync::Arc;

    #[test]
    fn found_homomorphisms_verify() {
        let a = cycle(6);
        let b = clique(2);
        let h = find_homomorphism(&a, &b).unwrap();
        assert!(is_homomorphism(&h, &a, &b));
    }

    #[test]
    fn extension_respects_fixed_points() {
        let a = path(3);
        let b = clique(2);
        let fixed = PartialHom::from_pairs([(0, 1)]).unwrap();
        let h = find_extension(&a, &b, &fixed).unwrap().unwrap();
        assert_eq!(h[0], 1);
        assert!(is_homomorphism(&h, &a, &b));
        // Over-constrained: fix both endpoints of an edge to one color.
        let fixed = PartialHom::from_pairs([(0, 1), (1, 1)]).unwrap();
        assert!(find_extension(&a, &b, &fixed).unwrap().is_none());
        // Out-of-range fixed points are errors, not panics.
        let fixed = PartialHom::from_pairs([(9, 0)]).unwrap();
        assert!(find_extension(&a, &b, &fixed).is_err());
        let fixed = PartialHom::from_pairs([(0, 9)]).unwrap();
        assert!(find_extension(&a, &b, &fixed).is_err());
    }

    #[test]
    fn restricted_search() {
        let a = path(3);
        let b = clique(3);
        // Restrict middle vertex to color 2; endpoints to {0,1}.
        let h = find_restricted(&a, &b, &[vec![0, 1], vec![2], vec![0, 1]])
            .unwrap()
            .unwrap();
        assert_eq!(h[1], 2);
        assert!(h[0] < 2 && h[2] < 2);
        // Empty restriction list means unrestricted.
        assert!(find_restricted(&a, &b, &[vec![], vec![], vec![]])
            .unwrap()
            .is_some());
        // Wrong number of lists is an error, not a panic.
        assert!(find_restricted(&a, &b, &[vec![], vec![]]).is_err());
    }

    #[test]
    fn csp_frontend_agrees_with_brute_force() {
        // Petersen graph 3-colorability (true) via CSP interface.
        let petersen = undirected(
            10,
            &[
                (0, 1),
                (1, 2),
                (2, 3),
                (3, 4),
                (4, 0),
                (5, 7),
                (7, 9),
                (9, 6),
                (6, 8),
                (8, 5),
                (0, 5),
                (1, 6),
                (2, 7),
                (3, 8),
                (4, 9),
            ],
        );
        let csp = CspInstance::from_homomorphism(&petersen, &clique(3)).unwrap();
        let sol = solve_csp(&csp).unwrap();
        assert!(csp.is_solution(&sol));
        // And 2 colors fail.
        let csp2 = CspInstance::from_homomorphism(&petersen, &clique(2)).unwrap();
        assert!(solve_csp(&csp2).is_none());
    }

    #[test]
    fn count_matches_brute_force_on_random_small_instances() {
        // Deterministic pseudo-random small instances, cross-checked
        // against the core brute-force oracle.
        let mut state = 0x243F6A8885A308D3u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..25 {
            let n = 3 + (next() % 3) as usize; // 3..5 vars
            let d = 2 + (next() % 2) as usize; // 2..3 values
            let mut csp = CspInstance::new(n, d);
            let m = 2 + (next() % 4) as usize;
            for _ in 0..m {
                let x = (next() % n as u64) as u32;
                let mut y = (next() % n as u64) as u32;
                if y == x {
                    y = (y + 1) % n as u32;
                }
                let tuples: Vec<[u32; 2]> = (0..d as u32)
                    .flat_map(|i| (0..d as u32).map(move |j| [i, j]))
                    .filter(|_| next() % 2 == 0)
                    .collect();
                let rel = Relation::from_tuples(2, tuples).unwrap();
                csp.add_constraint([x, y], Arc::new(rel)).unwrap();
            }
            assert_eq!(
                count_csp_solutions(&csp),
                csp.count_solutions_brute_force(),
                "mismatch on {csp:?}"
            );
        }
    }

    #[test]
    fn enumerate_respects_limit() {
        let sols = enumerate_homomorphisms(&path(3), &clique(3), 5);
        assert_eq!(sols.len(), 5);
        let all = enumerate_homomorphisms(&path(3), &clique(3), 1000);
        assert_eq!(all.len() as u64, count_homomorphisms(&path(3), &clique(3)));
    }

    #[test]
    fn empty_a_has_unique_trivial_homomorphism() {
        let voc = cspdb_core::graphs::graph_vocabulary();
        let a = cspdb_core::Structure::new(voc.clone(), 0);
        let b = clique(2);
        assert_eq!(find_homomorphism(&a, &b), Some(vec![]));
        assert_eq!(count_homomorphisms(&a, &b), 1);
    }

    #[test]
    fn empty_b_blocks_nonempty_a() {
        let voc = cspdb_core::graphs::graph_vocabulary();
        let a = path(2);
        let b = cspdb_core::Structure::new(voc, 0);
        assert!(find_homomorphism(&a, &b).is_none());
    }
}
