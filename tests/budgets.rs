//! Resource-governance tests: budgeted runs never contradict unbudgeted
//! ground truth, budgets are monotone, cancellation is prompt, and the
//! degradation ladder answers `Unknown` on out-of-budget hard instances
//! instead of hanging.

use constraint_db::core::budget::{Answer, Budget, CancelToken, ExhaustionReason};
use constraint_db::core::{CspInstance, Relation};
use constraint_db::solver::{self, solve_csp_metered};
use constraint_db::Solver;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Strategy: a small binary CSP (n ≤ 5 variables, d ≤ 3 values) whose
/// ground truth the brute-force oracle can check instantly.
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

    // A budgeted answer may be Unknown but must never contradict the
    // unbudgeted ground truth — the tentpole soundness contract.
    #[test]
    fn budgeted_search_agrees_with_ground_truth(p in small_csp(), steps in 1u64..2000) {
        let truth = p.solve_brute_force().is_some();
        let run = solve_csp_metered(&p, &mut Budget::new().with_step_limit(steps).meter());
        prop_assert!(run.answer.agrees_with(truth), "answer {} vs truth {}", run.answer, truth);
        if let Some(w) = run.answer.witness() {
            prop_assert!(p.is_solution(w));
        }
        prop_assert!(run.usage.steps <= steps);
    }

    // Monotonicity: growing the budget can only turn Unknown into a
    // definite answer, never flip a definite answer.
    #[test]
    fn larger_budgets_only_refine(p in small_csp(), steps in 1u64..500) {
        let small = solve_csp_metered(&p, &mut Budget::new().with_step_limit(steps).meter());
        let large = solve_csp_metered(&p, &mut Budget::new().with_step_limit(steps * 4 + 64).meter());
        if small.answer.is_decided() {
            prop_assert!(large.answer.is_decided());
            prop_assert_eq!(small.answer.is_sat(), large.answer.is_sat());
        }
    }

    // The full degradation ladder upholds the same contract.
    #[test]
    fn governed_ladder_agrees_with_ground_truth(p in small_csp(), steps in 1u64..3000) {
        let truth = p.solve_brute_force().is_some();
        let report = Solver::new().budget(Budget::new().with_step_limit(steps)).solve_csp(&p);
        prop_assert!(report.answer.agrees_with(truth), "answer {} vs truth {}", report.answer, truth);
        prop_assert_eq!(report.answer.is_decided(), report.strategy.is_some());
        if let Some(w) = report.answer.witness() {
            prop_assert!(p.is_solution(w));
        }
        // Unlimited budgets always decide.
        let unlimited = Solver::new().solve_csp(&p);
        prop_assert!(unlimited.answer.is_decided());
        prop_assert_eq!(unlimited.answer.is_sat(), truth);
    }
}

/// Hard random 3-SAT at the satisfiability threshold (ratio 4.26).
fn hard_3sat(n: usize, seed: u64) -> CspInstance {
    let m = (n as f64 * 4.26).round() as usize;
    cspdb_gen::cnf_to_csp(&cspdb_gen::random_3sat(n, m, seed))
}

#[test]
fn prompt_cancellation_returns_unknown_cancelled() {
    let p = hard_3sat(120, 7);
    let token = CancelToken::new();
    token.cancel();
    let t0 = Instant::now();
    let run = solve_csp_metered(&p, &mut Budget::new().with_cancel(token.clone()).meter());
    assert_eq!(run.answer, Answer::Unknown(ExhaustionReason::Cancelled));
    let report = Solver::new()
        .budget(Budget::new().with_cancel(token))
        .solve_csp(&p);
    assert_eq!(report.answer, Answer::Unknown(ExhaustionReason::Cancelled));
    assert!(
        t0.elapsed() < Duration::from_secs(2),
        "cancellation was not prompt: {:?}",
        t0.elapsed()
    );
}

// The ISSUE acceptance scenario: a 10 ms budget on hard random 3-SAT
// (n = 200, m ≈ 852) must come back `Unknown(DeadlineExceeded)` without
// hanging or panicking. The wall-clock assertion is generous because
// this test also runs under the debug profile.
#[test]
fn ten_ms_deadline_on_hard_3sat_degrades_to_unknown() {
    let p = hard_3sat(200, 42);
    let budget = Budget::new().with_deadline(Duration::from_millis(10));
    let t0 = Instant::now();
    let report = Solver::new().budget(budget).solve_csp(&p);
    let elapsed = t0.elapsed();
    assert_eq!(
        report.answer,
        Answer::Unknown(ExhaustionReason::DeadlineExceeded),
        "attempts: {:?}",
        report.attempts
    );
    assert!(report.strategy.is_none());
    assert!(!report.attempts.is_empty());
    assert!(elapsed < Duration::from_millis(500), "took {elapsed:?}");
}

#[test]
fn tuple_caps_bound_join_materialization() {
    // A cross-product-heavy instance: joining without a cap materializes
    // d^n rows; a small tuple cap must abort instead.
    let mut p = CspInstance::new(8, 4);
    let all: Vec<[u32; 2]> = (0..4u32)
        .flat_map(|a| (0..4u32).map(move |b| [a, b]))
        .collect();
    let rel = Arc::new(Relation::from_tuples(2, all).unwrap());
    for v in 0..7u32 {
        p.add_constraint([v, v + 1], rel.clone()).unwrap();
    }
    let res = constraint_db::relalg::solve_by_join_metered(
        &p,
        &mut Budget::new().with_tuple_limit(100).meter(),
    );
    assert_eq!(res, Err(ExhaustionReason::TupleLimitExceeded));
    // With room to breathe the same join succeeds.
    let ok = constraint_db::relalg::solve_by_join_metered(
        &p,
        &mut Budget::new().with_tuple_limit(200_000).meter(),
    );
    assert!(ok.expect("fits").is_some());
}

#[test]
fn step_limited_gac_is_inconclusive_not_wrong() {
    // gac_fixpoint_metered: an exhausted run reports Err, never a bogus
    // wipeout.
    let p = hard_3sat(60, 3);
    let problem = solver::Problem::from_csp(&p);
    match solver::gac_fixpoint_metered(&problem, &mut Budget::new().with_step_limit(1).meter()) {
        Err(ExhaustionReason::StepLimitExceeded) => {}
        other => panic!("expected step exhaustion, got {other:?}"),
    }
}
