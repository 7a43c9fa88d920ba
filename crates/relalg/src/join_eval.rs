//! Proposition 2.1: a CSP instance is solvable iff the natural join of
//! its constraint relations is nonempty.
//!
//! This module implements the join-evaluation view of CSP. Constraints
//! become [`NamedRelation`]s whose attributes are the CSP variables; the
//! instance is solvable iff `⋈_{(t,R) ∈ C} R ≠ ∅`, and each row of the
//! join restricted to the variables is a solution. Join order matters
//! enormously in practice; every entry point here runs the
//! connectivity-aware greedy planner ([`crate::plan_join_order`]), which
//! only joins relations sharing an attribute with the prefix (estimated
//! cardinality breaks ties) and falls back to explicit, traced cross
//! products when the join graph is disconnected. The historical
//! size-only ordering survives as [`join_all_size_ordered`] — the
//! baseline the `e_join_order` benchmark measures the planner against.

use crate::named::NamedRelation;
use crate::planner::{common_attrs, IndexCache, JoinOrder, INDEX_CACHE_CAPACITY};
use crate::wcoj::{choose_engine, wcoj_join_with_order, EngineChoice};
use cspdb_core::budget::{ExhaustionReason, Meter};
use cspdb_core::CspInstance;

/// Lowers each constraint to a named relation over its scope.
///
/// The instance is normalized first (scopes with repeated variables are
/// rewritten by select+project, constraints on the same scope are
/// intersected), exactly as Section 2 of the paper prescribes.
pub fn constraint_relations(instance: &CspInstance) -> Vec<NamedRelation> {
    let normalized = instance.normalize_distinct().consolidate();
    normalized
        .constraints()
        .iter()
        .map(|c| NamedRelation::from_relation(c.scope().to_vec(), c.relation().as_ref().clone()))
        .collect()
}

/// Evaluates the full natural join of the constraint relations in the
/// order chosen by the connectivity-aware planner. The result's schema
/// covers every constrained variable (column order follows the plan).
pub fn join_all(relations: Vec<NamedRelation>) -> NamedRelation {
    join_all_metered(&relations, &mut Meter::default()).expect("unlimited budget cannot exhaust")
}

/// [`join_all`] under a [`Meter`], with cost-based engine choice: the
/// binary System-R plan is compared against the worst-case-optimal
/// leapfrog engine ([`wcoj_join_metered`](crate::wcoj_join_metered)) and
/// the winner runs. The choice, order, and rationale are traced
/// ([`TraceEvent::PlanChosen`](cspdb_core::trace::TraceEvent)). On the
/// binary path each build side is indexed once through a per-call
/// [`IndexCache`] and every intermediate row is charged against the
/// tuple cap, so runaway intermediate results abort instead of
/// exhausting memory; the WCOJ path materializes nothing but output
/// rows, each charged as it is produced.
pub fn join_all_metered(
    relations: &[NamedRelation],
    meter: &mut Meter,
) -> Result<NamedRelation, ExhaustionReason> {
    match choose_engine(relations) {
        EngineChoice::Binary { plan, reason } => {
            meter
                .tracer()
                .emit_with(|| plan.trace_event_for("binary", reason.clone()));
            join_binary_planned(relations, &plan, meter)
        }
        EngineChoice::Wcoj {
            plan,
            attr_order,
            reason,
            ..
        } => {
            meter
                .tracer()
                .emit_with(|| plan.trace_event_for("wcoj", reason.clone()));
            wcoj_join_with_order(relations, &attr_order, meter)
        }
    }
}

/// The binary engine: executes `plan`'s left-deep hash-join pipeline.
fn join_binary_planned(
    relations: &[NamedRelation],
    plan: &JoinOrder,
    meter: &mut Meter,
) -> Result<NamedRelation, ExhaustionReason> {
    let mut cache = IndexCache::new(INDEX_CACHE_CAPACITY);
    let mut acc: Option<NamedRelation> = None;
    for step in &plan.steps {
        let r = &relations[step.relation];
        let next = match acc {
            None => r.clone(),
            Some(a) => {
                let common = common_attrs(&a, r);
                debug_assert_eq!(
                    common.is_empty(),
                    step.cross_product,
                    "planner must flag exactly the disconnected joins"
                );
                if common.is_empty() {
                    // Explicit cross product (disconnected join graph).
                    a.natural_join_metered(r, meter)?
                } else {
                    let index = cache.get_or_build(step.relation, 0, r, &common, meter)?;
                    a.natural_join_with_index(r, &index, meter)?
                }
            }
        };
        if next.is_empty() {
            return Ok(next);
        }
        acc = Some(next);
    }
    Ok(acc.unwrap_or_else(NamedRelation::unit))
}

/// The historical size-only join order: ascending cardinality, blind to
/// connectivity — it happily cross-products two relations sharing no
/// attributes. Kept as the measurable baseline for the planner
/// (`e_join_order` benchmark, property tests); not used by any solver
/// path. Every intermediate row is charged through the same metered
/// join kernel, so baseline-vs-planner comparisons run under identical
/// budgets.
pub fn join_all_size_ordered(
    mut relations: Vec<NamedRelation>,
    meter: &mut Meter,
) -> Result<NamedRelation, ExhaustionReason> {
    relations.sort_by_key(NamedRelation::len);
    let mut acc = NamedRelation::unit();
    for r in relations {
        acc = acc.natural_join_metered(&r, meter)?;
        if acc.is_empty() {
            return Ok(acc);
        }
    }
    Ok(acc)
}

/// [`solve_by_join`] under a [`Meter`]: `Err` when the budget ran out
/// mid-join (inconclusive), otherwise the unbudgeted contract.
pub fn solve_by_join_metered(
    instance: &CspInstance,
    meter: &mut Meter,
) -> Result<Option<Vec<u32>>, ExhaustionReason> {
    if instance.num_vars() > 0 && instance.num_values() == 0 {
        return Ok(None);
    }
    let relations = constraint_relations(instance);
    let joined = join_all_metered(&relations, meter)?;
    if joined.is_empty() {
        return Ok(None);
    }
    let row = joined.relation().row(0);
    let mut solution = vec![0u32; instance.num_vars()];
    for (i, &attr) in joined.schema().iter().enumerate() {
        solution[attr as usize] = row[i];
    }
    debug_assert!(instance.is_solution(&solution));
    Ok(Some(solution))
}

/// Proposition 2.1, decision + witness: returns a solution of the CSP
/// instance obtained from a row of the join (unconstrained variables get
/// value 0), or `None` if the join is empty.
///
/// Returns `None` also when the instance has variables but no values.
pub fn solve_by_join(instance: &CspInstance) -> Option<Vec<u32>> {
    solve_by_join_metered(instance, &mut Meter::default()).expect("unlimited budget cannot exhaust")
}

/// Counts solutions of the instance via the join (unconstrained
/// variables multiply the count by `num_values`). Saturates at
/// `u64::MAX` instead of overflowing on huge free-variable blocks.
pub fn count_by_join(instance: &CspInstance) -> u64 {
    if instance.num_vars() > 0 && instance.num_values() == 0 {
        return 0;
    }
    let relations = constraint_relations(instance);
    let joined = join_all(relations);
    let constrained: std::collections::HashSet<u32> = joined.schema().iter().copied().collect();
    let free = instance.num_vars() - constrained.len();
    let free_combinations = (instance.num_values() as u64)
        .checked_pow(free as u32)
        .unwrap_or(u64::MAX);
    (joined.len() as u64).saturating_mul(free_combinations)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::{CspInstance, Relation};
    use std::sync::Arc;

    fn neq(d: usize) -> Arc<Relation> {
        Arc::new(
            Relation::from_tuples(
                2,
                (0..d as u32)
                    .flat_map(|i| (0..d as u32).filter_map(move |j| (i != j).then_some([i, j]))),
            )
            .unwrap(),
        )
    }

    fn coloring(n: usize, edges: &[(u32, u32)], colors: usize) -> CspInstance {
        let mut p = CspInstance::new(n, colors);
        let r = neq(colors);
        for &(u, v) in edges {
            p.add_constraint([u, v], r.clone()).unwrap();
        }
        p
    }

    #[test]
    fn proposition_2_1_on_triangle() {
        let tri = [(0u32, 1u32), (1, 2), (0, 2)];
        // Solvable with 3 colors, join nonempty.
        let p3 = coloring(3, &tri, 3);
        let sol = solve_by_join(&p3).expect("3-colorable");
        assert!(p3.is_solution(&sol));
        // Unsolvable with 2 colors, join empty.
        assert!(solve_by_join(&coloring(3, &tri, 2)).is_none());
    }

    #[test]
    fn join_count_matches_brute_force() {
        let tri = [(0u32, 1u32), (1, 2), (0, 2)];
        let p = coloring(3, &tri, 3);
        assert_eq!(count_by_join(&p), p.count_solutions_brute_force());
        // Chain with a free variable.
        let chain = coloring(4, &[(0, 1), (1, 2)], 2);
        assert_eq!(count_by_join(&chain), chain.count_solutions_brute_force());
    }

    #[test]
    fn repeated_variable_scopes_are_normalized() {
        // Constraint R(x, x) with R = {(0,1),(1,1)} forces x = 1.
        let mut p = CspInstance::new(2, 2);
        let r = Relation::from_tuples(2, [[0u32, 1], [1, 1]]).unwrap();
        p.add_constraint([0, 0], Arc::new(r)).unwrap();
        let sol = solve_by_join(&p).expect("x=1 solves it");
        assert_eq!(sol[0], 1);
        assert_eq!(count_by_join(&p), p.count_solutions_brute_force());
    }

    #[test]
    fn unconstrained_instance() {
        let p = CspInstance::new(3, 2);
        assert!(solve_by_join(&p).is_some());
        assert_eq!(count_by_join(&p), 8);
    }

    #[test]
    fn empty_value_domain() {
        let p = CspInstance::new(2, 0);
        assert!(solve_by_join(&p).is_none());
        assert_eq!(count_by_join(&p), 0);
    }

    #[test]
    fn agreement_with_brute_force_on_pseudorandom_instances() {
        let mut state = 0xDEADBEEFCAFEBABEu64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..20 {
            let n = 3 + (next() % 3) as usize;
            let d = 2 + (next() % 2) as usize;
            let mut p = CspInstance::new(n, d);
            for _ in 0..(2 + next() % 4) {
                let x = (next() % n as u64) as u32;
                let mut y = (next() % n as u64) as u32;
                if x == y {
                    y = (y + 1) % n as u32;
                }
                let tuples: Vec<[u32; 2]> = (0..d as u32)
                    .flat_map(|i| (0..d as u32).map(move |j| [i, j]))
                    .filter(|_| next() % 3 != 0)
                    .collect();
                p.add_constraint([x, y], Arc::new(Relation::from_tuples(2, tuples).unwrap()))
                    .unwrap();
            }
            assert_eq!(count_by_join(&p), p.count_solutions_brute_force());
            assert_eq!(solve_by_join(&p).is_some(), p.solve_brute_force().is_some());
        }
    }
}
