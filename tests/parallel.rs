//! Parallel-execution integration tests: the parallel paths
//! (partitioned joins, per-level Yannakakis sweeps, parallel tree-DP,
//! the portfolio racer) must agree with their sequential counterparts,
//! and cancellation through a forked `Meter` must stop work with bounded
//! latency.

use constraint_db::core::budget::{Budget, CancelToken, ExhaustionReason, CHECK_INTERVAL};
use constraint_db::core::{CspInstance, Relation};
use constraint_db::decomp::{solve_by_treewidth, solve_by_treewidth_metered};
use constraint_db::relalg::{solve_acyclic, solve_acyclic_metered, NamedRelation};
use constraint_db::{SolveStrategy, Solver};
use proptest::prelude::*;
use rayon::ThreadPoolBuilder;
use std::sync::Arc;

/// Strategy: a named binary relation over `schema` with tuples in `0..d`.
fn named_rel(schema: [u32; 2], d: u32, max_tuples: usize) -> impl Strategy<Value = NamedRelation> {
    prop::collection::vec((0..d, 0..d), 0..=max_tuples).prop_map(move |rows| {
        NamedRelation::new(schema.to_vec(), rows.into_iter().map(|(a, b)| vec![a, b]))
    })
}

/// Strategy: a small chain CSP (acyclic by construction).
fn chain_csp() -> impl Strategy<Value = CspInstance> {
    (
        2usize..6,
        2usize..4,
        prop::collection::vec(
            prop::collection::vec((0u32..4, 0u32..4), 0..10usize),
            1..6usize,
        ),
    )
        .prop_map(|(n, d, edges)| {
            let mut p = CspInstance::new(n, d);
            for (i, tuples) in edges.into_iter().enumerate() {
                let x = (i % (n - 1)) as u32;
                let tuples: Vec<[u32; 2]> = tuples
                    .into_iter()
                    .map(|(a, b)| [a % d as u32, b % d as u32])
                    .collect();
                let rel = Relation::from_tuples(2, tuples.iter()).unwrap();
                p.add_constraint(vec![x, x + 1], Arc::new(rel)).unwrap();
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Partitioned parallel hash joins are byte-identical to the
    /// sequential join, at every thread count, including sub-threshold
    /// inputs that take the sequential fallback.
    #[test]
    fn parallel_join_equals_sequential(
        a in named_rel([0, 1], 4, 24),
        b in named_rel([1, 2], 4, 24),
    ) {
        let expected = a.natural_join(&b);
        for threads in [1usize, 2, 4] {
            let pool = ThreadPoolBuilder::new().num_threads(threads).build().unwrap();
            let mut meter = Budget::unlimited().meter();
            let got = pool.install(|| a.natural_join_parallel(&b, &mut meter)).unwrap();
            prop_assert_eq!(&got, &expected);
        }
    }

    /// The per-level parallel Yannakakis reducer decides exactly the
    /// instances the sequential reducer decides, with valid witnesses.
    #[test]
    fn shared_yannakakis_agrees_with_sequential(p in chain_csp()) {
        let expected = solve_acyclic(&p).unwrap();
        let mut meter = Budget::unlimited().meter();
        let got = solve_acyclic_metered(&p, &mut meter, true).unwrap();
        prop_assert_eq!(got.is_some(), expected.is_some());
        if let Some(w) = got {
            prop_assert!(p.is_solution(&w));
        }
    }

    /// The portfolio racer under an ample budget reaches the same
    /// verdict as the default ladder dispatch, with valid witnesses.
    #[test]
    fn portfolio_agrees_with_ladder_dispatch(p in chain_csp()) {
        let truth = Solver::new().solve_csp(&p).answer.is_sat();
        let report = Solver::new().strategy(SolveStrategy::Portfolio).solve_csp(&p);
        prop_assert_eq!(report.answer.is_sat(), truth);
        prop_assert_eq!(report.answer.is_unsat(), !truth);
        if let Some(w) = report.answer.witness() {
            prop_assert!(p.is_solution(w));
        }
    }
}

/// The parallel tree-decomposition DP agrees with the sequential one on
/// graph-coloring instances spanning sat and unsat.
#[test]
fn shared_treewidth_dp_agrees_with_sequential() {
    use constraint_db::core::graphs::{clique, complete_bipartite, cycle};
    let cases = [
        (cycle(5), clique(3)),
        (cycle(5), clique(2)),
        (complete_bipartite(3, 3), clique(2)),
        (cycle(6), clique(2)),
    ];
    for (a, b) in &cases {
        let (w_seq, seq) = solve_by_treewidth(a, b);
        let mut meter = Budget::unlimited().meter();
        let (w_par, par) = solve_by_treewidth_metered(a, b, &mut meter, true)
            .expect("shared treewidth DP exhausted on an unlimited budget");
        assert_eq!(w_seq, w_par, "widths diverged");
        assert_eq!(seq.is_some(), par.is_some(), "verdicts diverged");
    }
}

/// Cancelling through a forked `Meter` stops a ticking worker within one
/// amortized checkpoint window (`CHECK_INTERVAL` ticks), not "eventually".
#[test]
fn cloned_meter_cancellation_latency_is_bounded() {
    let token = CancelToken::new();
    let budget = Budget::unlimited().with_cancel(token.clone());
    let mut meter = budget.meter();
    let mut worker = meter.fork();

    // Warm up past the first checkpoint so the next one is a clean probe.
    for _ in 0..CHECK_INTERVAL {
        worker.tick().unwrap();
    }
    token.cancel();

    let mut survived: u64 = 0;
    let tripped = loop {
        match worker.tick() {
            Ok(()) => survived += 1,
            Err(reason) => break reason,
        }
        assert!(
            survived <= CHECK_INTERVAL,
            "worker survived {survived} ticks after cancellation"
        );
    };
    assert_eq!(tripped, ExhaustionReason::Cancelled);
}

/// A chain CSP over `n` variables with domain `d`: neighbours differ,
/// and the last variable is pinned to `last` values.
fn chain_of_differences(n: usize, d: u32, last: u32) -> CspInstance {
    let mut p = CspInstance::new(n, d as usize);
    let differ: Vec<[u32; 2]> = (0..d)
        .flat_map(|x| (0..d).filter(move |&y| y != x).map(move |y| [x, y]))
        .collect();
    let differ = Arc::new(Relation::from_tuples(2, differ.iter()).unwrap());
    for x in 0..n as u32 - 1 {
        p.add_constraint(vec![x, x + 1], Arc::clone(&differ))
            .unwrap();
    }
    let pinned: Vec<[u32; 1]> = (0..last).map(|v| [v]).collect();
    let pinned = Relation::from_tuples(1, pinned.iter()).unwrap();
    p.add_constraint(vec![n as u32 - 1], Arc::new(pinned))
        .unwrap();
    p
}

/// Under a step limit that covers the run, the parallel bag DP and the
/// parallel Yannakakis sweep decide exactly as they do unlimited: the
/// parent plans before it forks its workers and must not keep quota
/// they need.
#[test]
fn parallel_kernels_decide_under_a_limit_that_covers_the_run() {
    use constraint_db::core::graphs::{clique, complete_bipartite, cycle};
    let pool = ThreadPoolBuilder::new().num_threads(4).build().unwrap();
    let cases = [
        (cycle(6), clique(3)),
        (cycle(5), clique(3)),
        (cycle(5), clique(2)),
        (complete_bipartite(3, 3), clique(2)),
    ];
    for (a, b) in &cases {
        let mut seq_meter = Budget::unlimited().meter();
        let seq = solve_by_treewidth_metered(a, b, &mut seq_meter, false).unwrap();
        let mut par_meter = Budget::unlimited().meter();
        pool.install(|| solve_by_treewidth_metered(a, b, &mut par_meter, true))
            .unwrap();
        let steps = seq_meter.usage().steps.max(par_meter.usage().steps);
        let mut meter = Budget::new().with_step_limit(steps).meter();
        let par = pool.install(|| solve_by_treewidth_metered(a, b, &mut meter, true));
        assert_eq!(
            par,
            Ok(seq.clone()),
            "treewidth DP on {a} under {steps} steps"
        );
        let mut meter = Budget::new().with_step_limit(steps).meter();
        let seq_limited = solve_by_treewidth_metered(a, b, &mut meter, false);
        assert_eq!(
            seq_limited,
            Ok(seq),
            "sequential DP on {a} under {steps} steps"
        );
    }
    for p in [
        chain_of_differences(40, 3, 3),
        chain_of_differences(40, 2, 0),
    ] {
        let mut seq_meter = Budget::unlimited().meter();
        let seq = solve_acyclic_metered(&p, &mut seq_meter, false).unwrap();
        let mut par_meter = Budget::unlimited().meter();
        pool.install(|| solve_acyclic_metered(&p, &mut par_meter, true))
            .unwrap();
        let steps = seq_meter.usage().steps.max(par_meter.usage().steps);
        let mut meter = Budget::new().with_step_limit(steps).meter();
        let par = pool.install(|| solve_acyclic_metered(&p, &mut meter, true));
        assert_eq!(
            par.map(|w| w.is_some()).ok(),
            Some(seq.is_some()),
            "Yannakakis under {steps} steps"
        );
    }
}

/// With `parallel(true)` and a small step limit, the ladder decides a
/// treewidth-tier instance exactly as the sequential ladder does.
#[test]
fn parallel_ladder_decides_like_the_sequential_one_under_a_step_limit() {
    use constraint_db::core::graphs::{clique, cycle};
    let (a, b) = (cycle(6), clique(3));
    for steps in [1024, 4096] {
        let budget = Budget::new().with_step_limit(steps);
        let seq = Solver::new().budget(budget.clone()).solve(&a, &b);
        let par = Solver::new().budget(budget).parallel(true).solve(&a, &b);
        assert!(
            seq.answer.is_decided(),
            "sequential ladder under {steps} steps"
        );
        assert_eq!(par.answer, seq.answer, "under {steps} steps");
        assert_eq!(par.strategy, seq.strategy, "under {steps} steps");
    }
}
