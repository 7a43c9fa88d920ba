//! Observability-layer property tests:
//!
//! 1. attaching a `NullSink` never changes an answer — runs are
//!    byte-identical to untraced runs (witness vectors compare equal);
//! 2. trace accounting — the join/semijoin `Operator` events recorded
//!    during an acyclic solve report exactly the tuple count the meter
//!    charged (`output_rows` sums to `usage().tuples`).

use constraint_db::core::budget::Budget;
use constraint_db::core::trace::{NullSink, Recorder, TraceEvent};
use constraint_db::core::{CspInstance, Relation};
use constraint_db::relalg::solve_acyclic_metered;
use constraint_db::{SolveStrategy, Solver};
use proptest::prelude::*;
use std::sync::Arc;

/// Strategy: a small chain CSP (acyclic by construction, non-Boolean
/// domains so the ladder reaches past Schaefer).
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

/// Strategy: a small arbitrary binary CSP, cyclic constraint graphs
/// included, so the ladder exercises treewidth and backtracking tiers.
fn small_csp() -> impl Strategy<Value = CspInstance> {
    (
        3usize..6,
        2usize..4,
        prop::collection::vec(
            (
                0u32..16,
                0u32..16,
                prop::collection::vec((0u32..4, 0u32..4), 0..10usize),
            ),
            1..6usize,
        ),
    )
        .prop_map(|(n, d, raw)| {
            let mut p = CspInstance::new(n, d);
            for (x, y, tuples) in raw {
                let x = x % n as u32;
                let mut y = y % n as u32;
                if x == y {
                    y = (y + 1) % n as u32;
                }
                let tuples: Vec<[u32; 2]> = tuples
                    .into_iter()
                    .map(|(a, b)| [a % d as u32, b % d as u32])
                    .collect();
                let rel = Relation::from_tuples(2, tuples).expect("arity 2");
                p.add_constraint([x, y], Arc::new(rel)).expect("in range");
            }
            p
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property (1): a `NullSink` trace is free of observable effect.
    /// Both answers — including the exact witness bytes — must be equal,
    /// and so must the per-phase meter counters, across every dispatch
    /// strategy.
    #[test]
    fn null_sink_runs_are_byte_identical(p in small_csp()) {
        for strategy in [SolveStrategy::Direct, SolveStrategy::Ladder] {
            let plain = Solver::new().strategy(strategy).solve_csp(&p);
            let traced = Solver::new()
                .strategy(strategy)
                .trace(Arc::new(NullSink))
                .solve_csp(&p);
            prop_assert_eq!(&plain.answer, &traced.answer, "strategy {:?}", strategy);
            prop_assert_eq!(plain.trace.phases.len(), traced.trace.phases.len());
            for (a, b) in plain.trace.phases.iter().zip(traced.trace.phases.iter()) {
                prop_assert_eq!(&a.phase, &b.phase);
                prop_assert_eq!(a.steps, b.steps, "steps diverged in {}", a.phase);
                prop_assert_eq!(a.tuples, b.tuples, "tuples diverged in {}", a.phase);
            }
        }
    }

    /// Property (2): trace accounting. Every tuple the meter charges
    /// during an acyclic solve is reported by exactly one join/semijoin
    /// `Operator` event, so the recorded `output_rows` sum to the
    /// meter's `usage().tuples`.
    #[test]
    fn operator_cardinalities_equal_metered_tuples(p in chain_csp()) {
        let rec = Arc::new(Recorder::new());
        let budget = Budget::unlimited().with_trace(rec.clone());
        let mut meter = budget.meter();
        let result = solve_acyclic_metered(&p, &mut meter, false);
        prop_assert!(result.is_ok(), "unlimited budget cannot exhaust");
        let recorded: u64 = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Operator { output_rows, .. } => Some(*output_rows),
                _ => None,
            })
            .sum();
        prop_assert_eq!(
            recorded,
            meter.usage().tuples,
            "operator events disagree with the meter"
        );
    }
}

/// The same accounting invariant holds on the parallel Yannakakis path,
/// where operator events come from worker partitions.
#[test]
fn operator_cardinalities_equal_shared_tuples() {
    use constraint_db::core::graphs::{clique, undirected};
    let star = undirected(6, &[(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]);
    let p = CspInstance::from_homomorphism(&star, &clique(3)).unwrap();
    let rec = Arc::new(Recorder::new());
    let budget = Budget::unlimited().with_trace(rec.clone());
    let mut meter = budget.meter();
    let result = solve_acyclic_metered(&p, &mut meter, true);
    assert!(result.expect("acyclic").is_some(), "star is 3-colorable");
    let recorded: u64 = rec
        .events()
        .iter()
        .filter_map(|e| match e {
            TraceEvent::Operator { output_rows, .. } => Some(*output_rows),
            _ => None,
        })
        .sum();
    assert_eq!(recorded, meter.usage().tuples);
}
