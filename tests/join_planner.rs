//! Join-planner property tests:
//!
//! 1. the connectivity-aware planned join computes the *same set of
//!    tuples* as the size-only left-deep baseline on arbitrary relation
//!    sets (schema column order may differ — both sides are projected
//!    onto the sorted attribute union before comparing);
//! 2. trace accounting survives planning — the `Operator` events
//!    recorded during a planned multiway join report exactly the tuple
//!    count the meter charged;
//! 3. on connected chain and star join graphs the planner's peak
//!    intermediate cardinality never exceeds the size-only baseline's
//!    (the baseline can be tricked into a cross product between
//!    chain-distant relations; the planner, by construction, cannot).

use constraint_db::core::budget::Budget;
use constraint_db::core::trace::{Recorder, TraceEvent};
use constraint_db::relalg::{
    join_all_metered, join_all_size_ordered, plan_join_order, wcoj_join_metered, NamedRelation,
};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: up to five relations over a tiny attribute space, so join
/// graphs of every shape (connected, disconnected, self-overlapping)
/// are generated.
fn arbitrary_relations() -> impl Strategy<Value = Vec<NamedRelation>> {
    prop::collection::vec(
        (
            prop::collection::vec(0u32..5, 1..3usize),
            prop::collection::vec(prop::collection::vec(0u32..3, 3), 0..8usize),
        ),
        1..5usize,
    )
    .prop_map(|raw| {
        raw.into_iter()
            .map(|(mut attrs, rows)| {
                attrs.sort_unstable();
                attrs.dedup();
                let width = attrs.len();
                NamedRelation::new(attrs, rows.into_iter().map(|r| r[..width].to_vec()))
            })
            .collect()
    })
}

/// Strategy: random triangle queries `R(0,1) ⋈ S(1,2) ⋈ T(2,0)` — the
/// canonical cyclic join core the worst-case-optimal engine exists for.
fn cyclic_triangle_relations() -> impl Strategy<Value = Vec<NamedRelation>> {
    let edges = || prop::collection::vec(prop::collection::vec(0u32..4, 2), 0..12usize);
    (edges(), edges(), edges()).prop_map(|(r, s, t)| {
        vec![
            NamedRelation::new(vec![0, 1], r),
            NamedRelation::new(vec![1, 2], s),
            NamedRelation::new(vec![2, 0], t),
        ]
    })
}

/// A tiny deterministic xorshift generator for the workload-family
/// tests below: the same seed yields the same workloads on every run,
/// so the empirically verified dominance bounds are stable.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform draw from `lo..=hi`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next() % (hi - lo + 1)
    }

    /// A random subset of `lo..=hi` values from `0..domain`, shuffled.
    fn subset(&mut self, domain: u32, lo: u64, hi: u64) -> Vec<u32> {
        let mut values: Vec<u32> = (0..domain).collect();
        for i in (1..values.len()).rev() {
            values.swap(i, self.range(0, i as u64) as usize);
        }
        values.truncate(self.range(lo, hi.min(domain as u64)) as usize);
        values
    }
}

/// A connected chain `R_0(0,1), R_1(1,2), …` where every relation is
/// *functional on both join attributes* (distinct values on the shared
/// chain attributes), so no connected join can grow its input. The
/// planner's peak is then exactly its starting relation's size; the
/// size-only baseline starts from the same smallest relation but its
/// length sort routinely puts attribute-disjoint relations adjacently,
/// materializing cross products the planner never needs.
fn chain_workload(rng: &mut XorShift) -> Vec<NamedRelation> {
    const D: u32 = 8;
    let m = rng.range(4, 6) as usize;
    (0..m)
        .map(|i| {
            let rows: Vec<Vec<u32>> = if i == 0 {
                // Distinct values on the inner attribute 1.
                rng.subset(D, 4, 6)
                    .into_iter()
                    .map(|w| vec![rng.range(0, D as u64 - 1) as u32, w])
                    .collect()
            } else if i == m - 1 {
                // Distinct values on the inner attribute m-1.
                rng.subset(D, 4, 6)
                    .into_iter()
                    .map(|w| vec![w, rng.range(0, D as u64 - 1) as u32])
                    .collect()
            } else {
                // A partial matching: distinct on both attributes.
                let keys = rng.subset(D, 3, 6);
                let vals = rng.subset(D, D as u64, D as u64);
                keys.iter()
                    .zip(vals.iter())
                    .map(|(&k, &v)| vec![k, v])
                    .collect()
            };
            let mut rows = rows;
            rows.sort_unstable();
            rows.dedup();
            NamedRelation::new(vec![i as u32, i as u32 + 1], rows)
        })
        .collect()
}

/// A star — every relation `R_i(0, i)` shares the hub attribute `0`, so
/// every join order is connected. Each leaf carries distinct hub values
/// (functional on the join attribute), so star joins only filter; the
/// planner's peak is its starting relation's size and the size-only
/// baseline, starting from the same relation, can never beat it.
fn star_workload(rng: &mut XorShift) -> Vec<NamedRelation> {
    const H: u32 = 4;
    let m = rng.range(3, 5) as usize;
    (0..m)
        .map(|i| {
            let rows: Vec<Vec<u32>> = rng
                .subset(H, 2, 4)
                .into_iter()
                .map(|h| vec![h, rng.range(0, 7) as u32])
                .collect();
            NamedRelation::new(vec![0, i as u32 + 1], rows)
        })
        .collect()
}

/// The tuple set of a relation projected onto its sorted attribute
/// list — the canonical, column-order-independent form.
fn canonical_rows(rel: &NamedRelation) -> BTreeSet<Vec<u32>> {
    let mut attrs: Vec<u32> = rel.schema().to_vec();
    attrs.sort_unstable();
    rel.project(&attrs).rows().iter().cloned().collect()
}

/// Left-deep fold in the given order, tracking the peak intermediate
/// cardinality (inputs included — a cross-product blowup counts even if
/// a later join shrinks it away).
fn fold_peak(relations: &[NamedRelation], order: &[usize]) -> (NamedRelation, u64) {
    let mut acc = relations[order[0]].clone();
    let mut peak = acc.len() as u64;
    for &i in &order[1..] {
        acc = acc.natural_join(&relations[i]);
        peak = peak.max(acc.len() as u64);
    }
    (acc, peak)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Property (1): planning changes the evaluation order, never the
    /// answer. The planned multiway join and the size-only baseline
    /// produce identical tuple sets over arbitrary relation sets.
    #[test]
    fn planned_join_equals_size_ordered_baseline(rels in arbitrary_relations()) {
        let mut meter = Budget::unlimited().meter();
        let planned = join_all_metered(&rels, &mut meter)
            .expect("unlimited budget cannot exhaust");
        let baseline = join_all_size_ordered(rels, &mut Budget::unlimited().meter()).unwrap();
        prop_assert_eq!(
            canonical_rows(&planned),
            canonical_rows(&baseline),
            "planned and size-ordered joins disagree"
        );
    }

    /// Property (2): trace accounting. The `Operator` events recorded
    /// during a planned join report exactly the tuples the meter
    /// charged; `plan_chosen`/`index_built` events never distort the sum.
    #[test]
    fn planned_join_trace_accounts_for_every_tuple(rels in arbitrary_relations()) {
        let rec = Recorder::new();
        let rec = std::sync::Arc::new(rec);
        let budget = Budget::unlimited().with_trace(rec.clone());
        let mut meter = budget.meter();
        let _ = join_all_metered(&rels, &mut meter).expect("unlimited");
        let recorded: u64 = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Operator { output_rows, .. } => Some(*output_rows),
                _ => None,
            })
            .sum();
        prop_assert_eq!(recorded, meter.usage().tuples, "trace/meter drift");
    }

    /// Property (4a): the worst-case-optimal leapfrog engine is a drop-in
    /// replacement — on arbitrary relation sets (acyclic, cyclic,
    /// disconnected, empty) it computes the same tuple set as the
    /// size-only left-deep baseline, and its trace events account for
    /// exactly the tuples the meter charged.
    #[test]
    fn wcoj_equals_size_ordered_on_arbitrary_relations(rels in arbitrary_relations()) {
        let rec = std::sync::Arc::new(Recorder::new());
        let budget = Budget::unlimited().with_trace(rec.clone());
        let mut meter = budget.meter();
        let wcoj = wcoj_join_metered(&rels, &mut meter)
            .expect("unlimited budget cannot exhaust");
        let baseline = join_all_size_ordered(rels, &mut Budget::unlimited().meter()).unwrap();
        prop_assert_eq!(
            canonical_rows(&wcoj),
            canonical_rows(&baseline),
            "wcoj and size-ordered joins disagree"
        );
        let recorded: u64 = rec
            .events()
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Operator { output_rows, .. } => Some(*output_rows),
                _ => None,
            })
            .sum();
        prop_assert_eq!(recorded, meter.usage().tuples, "wcoj trace/meter drift");
    }

    /// Property (4b): on the cyclic triangle family the engines still
    /// agree, and the per-level trace cardinalities are internally
    /// consistent — the deepest level's surviving-binding count is
    /// exactly the output cardinality the meter charged.
    #[test]
    fn wcoj_equals_size_ordered_on_cyclic_triangles(rels in cyclic_triangle_relations()) {
        let rec = std::sync::Arc::new(Recorder::new());
        let budget = Budget::unlimited().with_trace(rec.clone());
        let mut meter = budget.meter();
        let wcoj = wcoj_join_metered(&rels, &mut meter)
            .expect("unlimited budget cannot exhaust");
        let baseline = join_all_size_ordered(rels, &mut Budget::unlimited().meter()).unwrap();
        prop_assert_eq!(
            canonical_rows(&wcoj),
            canonical_rows(&baseline),
            "wcoj disagrees with the baseline on a triangle"
        );
        let events = rec.events();
        // Levels are emitted only when the trie recursion actually ran
        // (an empty input short-circuits the engine without levels).
        let deepest = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::WcojLevel { level: 2, matches, .. } => Some(*matches),
                _ => None,
            })
            .next();
        if let Some(matches) = deepest {
            prop_assert_eq!(
                matches,
                wcoj.len() as u64,
                "deepest-level matches must equal the output cardinality"
            );
        }
        let recorded: u64 = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Operator { output_rows, .. } => Some(*output_rows),
                _ => None,
            })
            .sum();
        prop_assert_eq!(recorded, meter.usage().tuples, "wcoj trace/meter drift");
    }

}

/// The size-only baseline's order: ascending length, ties by index —
/// exactly what [`join_all_size_ordered`] executes.
fn size_order(rels: &[NamedRelation]) -> Vec<usize> {
    let mut by_size: Vec<usize> = (0..rels.len()).collect();
    by_size.sort_by_key(|&i| (rels[i].len(), i));
    by_size
}

/// Counts the fold steps in `order` where the accumulated schema shares
/// no attribute with the next relation — i.e. cross products actually
/// materialized by a left-deep fold in that order.
fn disconnected_steps(rels: &[NamedRelation], order: &[usize]) -> usize {
    let mut attrs: BTreeSet<u32> = rels[order[0]].schema().iter().copied().collect();
    let mut count = 0;
    for &i in &order[1..] {
        if !rels[i].schema().iter().any(|a| attrs.contains(a)) {
            count += 1;
        }
        attrs.extend(rels[i].schema().iter().copied());
    }
    count
}

/// Property (3a): on connected chains the planner never resorts to a
/// cross product and its peak intermediate never exceeds the size-only
/// baseline's — which *does* routinely materialize cross products when
/// the length sort puts attribute-disjoint relations adjacently.
/// Deterministic workloads; bounds verified per case.
#[test]
fn chain_planner_peak_bounded_by_size_ordered() {
    let mut rng = XorShift(0x1234_5678_9abc_def1);
    let mut baseline_crosses = 0usize;
    let mut strict_wins = 0usize;
    for case in 0..200 {
        let rels = chain_workload(&mut rng);
        let plan = plan_join_order(&rels);
        assert_eq!(
            plan.cross_products(),
            0,
            "case {case}: chains are connected"
        );
        let (planned, planner_peak) = fold_peak(&rels, &plan.order());

        let by_size = size_order(&rels);
        baseline_crosses += disconnected_steps(&rels, &by_size);
        let (baseline, baseline_peak) = fold_peak(&rels, &by_size);

        assert_eq!(
            canonical_rows(&planned),
            canonical_rows(&baseline),
            "case {case}: orders disagree on the answer"
        );
        assert!(
            planner_peak <= baseline_peak,
            "case {case}: planner peak {planner_peak} exceeds size-only peak {baseline_peak}"
        );
        if planner_peak < baseline_peak {
            strict_wins += 1;
        }
    }
    // The family is not vacuous: the baseline really does materialize
    // cross products the planner avoids, and the planner's peak is
    // strictly smaller on a solid share of the workloads.
    assert!(
        baseline_crosses >= 50,
        "family too tame: only {baseline_crosses} baseline cross products in 200 cases"
    );
    assert!(
        strict_wins >= 50,
        "family too tame: only {strict_wins} strict planner wins in 200 cases"
    );
}

/// Property (3b): the same per-case bound on star joins, where every
/// order is connected and the leaves are functional on the hub
/// attribute, so the planner's peak is pinned to its (smallest)
/// starting relation and the baseline can at best tie it.
#[test]
fn star_planner_peak_bounded_by_size_ordered() {
    let mut rng = XorShift(0xfeed_beef_cafe_0001);
    for case in 0..200 {
        let rels = star_workload(&mut rng);
        let plan = plan_join_order(&rels);
        assert_eq!(plan.cross_products(), 0, "case {case}: stars are connected");
        let (planned, planner_peak) = fold_peak(&rels, &plan.order());
        let (baseline, baseline_peak) = fold_peak(&rels, &size_order(&rels));
        assert_eq!(
            canonical_rows(&planned),
            canonical_rows(&baseline),
            "case {case}: orders disagree on the answer"
        );
        assert!(
            planner_peak <= baseline_peak,
            "case {case}: planner peak {planner_peak} exceeds size-only peak {baseline_peak}"
        );
    }
}

/// Regression (budget metering hole): the size-ordered baseline used to
/// join unmetered, so a tuple budget that stops the planned join sailed
/// straight through `join_all_size_ordered`. The metered variant must
/// charge every materialized tuple and report exhaustion.
#[test]
fn size_ordered_baseline_respects_tuple_budgets() {
    use constraint_db::core::budget::ExhaustionReason;
    // Two 8-row relations sharing one attribute: the join materializes
    // well over 4 tuples.
    let left = NamedRelation::new(
        vec![0, 1],
        (0..8u32).map(|i| vec![i % 2, i]).collect::<Vec<_>>(),
    );
    let right = NamedRelation::new(
        vec![1, 2],
        (0..8u32).map(|i| vec![i, i + 10]).collect::<Vec<_>>(),
    );
    let rels = vec![left, right];

    let tight = Budget::unlimited().with_tuple_limit(4);
    let mut meter = tight.meter();
    assert_eq!(
        join_all_size_ordered(rels.clone(), &mut meter),
        Err(ExhaustionReason::TupleLimitExceeded),
        "baseline must observe the tuple budget"
    );

    // Unlimited metering agrees with the unmetered wrapper, and the
    // meter charged exactly the tuples the join materialized.
    let mut free = Budget::unlimited().meter();
    let metered =
        join_all_size_ordered(rels.clone(), &mut free).expect("unlimited budget cannot exhaust");
    let plain = join_all_size_ordered(rels, &mut Budget::unlimited().meter()).unwrap();
    assert_eq!(canonical_rows(&metered), canonical_rows(&plain));
    assert!(
        free.usage().tuples >= metered.len() as u64,
        "meter must charge at least the output tuples"
    );
}
