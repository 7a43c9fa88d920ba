//! Local consistency notions (Section 5, Definitions 5.2 and
//! Proposition 5.3), plus classic AC-3 arc consistency.
//!
//! *i-consistency*: every partial solution on `i-1` variables extends to
//! any i-th variable. *Strong k-consistency*: i-consistent for all
//! `i ≤ k`. Proposition 5.3 recasts both in pebble-game terms: the
//! instance is strongly k-consistent iff the family of **all** ≤k partial
//! homomorphisms is a winning strategy for the Duplicator.

use cspdb_core::budget::{ExhaustionReason, Meter};
use cspdb_core::trace::TraceEvent;
use cspdb_core::{CspInstance, PartialHom, Structure};

/// Enumerates all partial homomorphisms `A -> B` with exactly `size`
/// elements in their domain. Exponential in `size`; meant for fixed small
/// `size`.
pub fn partial_homomorphisms(a: &Structure, b: &Structure, size: usize) -> Vec<PartialHom> {
    let n = a.domain_size() as u32;
    let d = b.domain_size() as u32;
    let mut out = Vec::new();
    let mut frontier = vec![PartialHom::empty()];
    for _ in 0..size {
        let mut next = Vec::new();
        for f in &frontier {
            let min_x = f.sources().max().map(|m| m + 1).unwrap_or(0);
            for x in min_x..n {
                for y in 0..d {
                    let g = f.extended(x, y).expect("x fresh");
                    if g.is_partial_homomorphism(a, b) {
                        next.push(g);
                    }
                }
            }
        }
        frontier = next;
    }
    out.extend(frontier);
    out
}

/// Definition 5.2 via Proposition 5.3: the instance `(A, B)` is
/// *i-consistent* iff the family of partial homomorphisms with `i-1`
/// elements has the i-forth property — every such map extends to any
/// further element as a partial homomorphism.
///
/// # Panics
///
/// Panics if `i == 0`.
pub fn is_i_consistent(a: &Structure, b: &Structure, i: usize) -> bool {
    assert!(i >= 1, "i-consistency is defined for i >= 1");
    let n = a.domain_size() as u32;
    let d = b.domain_size() as u32;
    for f in partial_homomorphisms(a, b, i - 1) {
        for x in 0..n {
            if f.is_defined_on(x) {
                continue;
            }
            let extendable = (0..d).any(|y| {
                f.extended(x, y)
                    .map(|g| g.is_partial_homomorphism(a, b))
                    .unwrap_or(false)
            });
            if !extendable {
                return false;
            }
        }
    }
    true
}

/// Strong k-consistency: i-consistent for every `i ≤ k` (Definition
/// 5.2).
pub fn is_strongly_k_consistent(a: &Structure, b: &Structure, k: usize) -> bool {
    (1..=k).all(|i| is_i_consistent(a, b, i))
}

/// Convenience: strong k-consistency of a classical CSP instance,
/// through its homomorphism form.
pub fn csp_is_strongly_k_consistent(instance: &CspInstance, k: usize) -> bool {
    let (a, b) = instance.to_homomorphism();
    is_strongly_k_consistent(&a, &b, k)
}

/// AC-3 arc consistency over the *binary* constraints of a CSP instance:
/// returns per-variable surviving value lists, or `None` on a domain
/// wipeout (which proves unsatisfiability). Non-binary constraints are
/// ignored by this classic algorithm — use the solver's GAC for those.
pub fn ac3(instance: &CspInstance) -> Option<Vec<Vec<u32>>> {
    ac3_metered(instance, &mut Meter::default()).expect("unlimited budget cannot exhaust")
}

/// [`ac3`] under a [`Meter`], ticking one step per arc revision:
/// `Err` when the budget ran out mid-propagation (inconclusive),
/// `Ok(None)` a *sound* wipeout refutation, `Ok(Some(domains))` the
/// arc-consistent domains. The caller keeps the meter, so resource
/// usage (and the tracer it carries) stays readable afterwards. Emits one
/// [`TraceEvent::Propagation`] per completed run with the revision and
/// removal counts.
pub fn ac3_metered(
    instance: &CspInstance,
    meter: &mut Meter,
) -> Result<Option<Vec<Vec<u32>>>, ExhaustionReason> {
    let mut revisions = 0u64;
    let mut removals = 0u64;
    let emit = |meter: &mut Meter, revisions: u64, removals: u64, wipeout: bool| {
        meter.tracer().emit_with(|| TraceEvent::Propagation {
            algorithm: "ac3",
            revisions,
            removals,
            wipeout,
        });
    };
    let n = instance.num_vars();
    let d = instance.num_values();
    let mut domains: Vec<Vec<bool>> = vec![vec![true; d]; n];
    // Apply unary constraints directly.
    for c in instance.constraints() {
        if c.scope().len() == 1 {
            let v = c.scope()[0] as usize;
            for (val, slot) in domains[v].iter_mut().enumerate() {
                if *slot && !c.relation().contains(&[val as u32]) {
                    *slot = false;
                }
            }
        }
    }
    // Directed arcs from binary constraints, both directions.
    let mut arcs: Vec<(usize, usize, usize, bool)> = Vec::new(); // (ci, x, y, flipped)
    for (ci, c) in instance.constraints().iter().enumerate() {
        if c.scope().len() == 2 && c.scope()[0] != c.scope()[1] {
            let (x, y) = (c.scope()[0] as usize, c.scope()[1] as usize);
            arcs.push((ci, x, y, false));
            arcs.push((ci, y, x, true));
        }
    }
    let mut queue: Vec<usize> = (0..arcs.len()).collect();
    let mut queued = vec![true; arcs.len()];
    while let Some(ai) = queue.pop() {
        meter.tick()?;
        queued[ai] = false;
        revisions += 1;
        let (ci, x, y, flipped) = arcs[ai];
        let rel = instance.constraints()[ci].relation();
        let mut revised = false;
        for vx in 0..d as u32 {
            if !domains[x][vx as usize] {
                continue;
            }
            let supported = (0..d as u32).any(|vy| {
                domains[y][vy as usize]
                    && if flipped {
                        rel.contains(&[vy, vx])
                    } else {
                        rel.contains(&[vx, vy])
                    }
            });
            if !supported {
                domains[x][vx as usize] = false;
                removals += 1;
                revised = true;
            }
        }
        if revised {
            if domains[x].iter().all(|&s| !s) {
                emit(meter, revisions, removals, true);
                return Ok(None);
            }
            for (aj, &(_, _, ty, _)) in arcs.iter().enumerate() {
                if ty == x && !queued[aj] && aj != ai {
                    queued[aj] = true;
                    queue.push(aj);
                }
            }
        }
    }
    emit(meter, revisions, removals, false);
    Ok(Some(
        domains
            .into_iter()
            .map(|row| {
                row.iter()
                    .enumerate()
                    .filter_map(|(v, &s)| s.then_some(v as u32))
                    .collect()
            })
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::game::duplicator_wins;
    use cspdb_core::graphs::{clique, cycle, path};
    use cspdb_core::Relation;
    use std::sync::Arc;

    #[test]
    fn proposition_5_3_strong_consistency_iff_all_partials_win() {
        // For several instances: strong k-consistency (checked by
        // definition) matches "the family of all <=k partial homs is a
        // winning strategy" — equivalently here, forth holds everywhere.
        let pairs = [
            (cycle(4), clique(2)),
            (cycle(5), clique(3)),
            (path(4), clique(2)),
            (clique(3), clique(3)),
        ];
        for (a, b) in pairs {
            for k in 1..=3usize {
                let strong = is_strongly_k_consistent(&a, &b, k);
                // Direct re-check of the winning-strategy form: all
                // partial homs of size <= k, forth property at < k.
                let all_forth = (1..=k).all(|i| is_i_consistent(&a, &b, i));
                assert_eq!(strong, all_forth);
                // A strongly k-consistent nonempty instance means the
                // Duplicator wins (the family witnesses it).
                if strong && a.domain_size() > 0 && b.domain_size() > 0 {
                    assert!(duplicator_wins(&a, &b, k));
                }
            }
        }
    }

    #[test]
    fn odd_cycle_k2_is_2_consistent_but_not_3_consistent() {
        // C5 vs K2 is arc (2-)consistent yet not 3-consistent:
        // a partial solution on two vertices at odd distance cannot
        // always extend... more precisely some pair + third vertex fails.
        let a = cycle(5);
        let b = clique(2);
        assert!(is_i_consistent(&a, &b, 1));
        assert!(is_i_consistent(&a, &b, 2));
        assert!(!is_strongly_k_consistent(&a, &b, 3));
    }

    #[test]
    fn even_cycle_k2_is_strongly_3_consistent() {
        let a = cycle(6);
        let b = clique(2);
        assert!(is_strongly_k_consistent(&a, &b, 2));
        // 2-colorable: all levels of consistency achievable... note
        // 3-consistency can still fail for bipartite graphs when two
        // pebbles sit at even distance on a 6-cycle; verify whatever the
        // truth is against the game (coincidence of Prop 5.3 forms).
        let three = is_i_consistent(&a, &b, 3);
        let game_all = partial_homomorphisms(&a, &b, 2).iter().all(|f| {
            (0..6u32).all(|x| {
                f.is_defined_on(x)
                    || (0..2u32).any(|y| {
                        f.extended(x, y)
                            .map(|g| g.is_partial_homomorphism(&a, &b))
                            .unwrap_or(false)
                    })
            })
        });
        assert_eq!(three, game_all);
    }

    #[test]
    fn ac3_prunes_and_detects_wipeout() {
        // x != y with a unary constraint forcing x = 0 prunes y to {1}.
        let mut p = CspInstance::new(2, 2);
        let neq = Relation::from_tuples(2, [[0u32, 1], [1, 0]]).unwrap();
        p.add_constraint([0, 1], Arc::new(neq)).unwrap();
        p.add_constraint([0], Arc::new(Relation::from_tuples(1, [[0u32]]).unwrap()))
            .unwrap();
        let domains = ac3(&p).expect("consistent");
        assert_eq!(domains[0], vec![0]);
        assert_eq!(domains[1], vec![1]);
        // Force x = 0 and y = 0 with x != y: wipeout.
        let mut q = CspInstance::new(2, 2);
        let neq = Relation::from_tuples(2, [[0u32, 1], [1, 0]]).unwrap();
        q.add_constraint([0, 1], Arc::new(neq)).unwrap();
        q.add_constraint([0], Arc::new(Relation::from_tuples(1, [[0u32]]).unwrap()))
            .unwrap();
        q.add_constraint([1], Arc::new(Relation::from_tuples(1, [[0u32]]).unwrap()))
            .unwrap();
        assert!(ac3(&q).is_none());
    }

    #[test]
    fn ac3_is_sound_never_removes_solution_values() {
        let a = cycle(6);
        let b = clique(2);
        let p = CspInstance::from_homomorphism(&a, &b).unwrap();
        let domains = ac3(&p).expect("bipartite stays consistent");
        // Both 2-colorings survive in every domain.
        for dom in &domains {
            assert_eq!(dom.len(), 2);
        }
    }

    #[test]
    fn partial_homomorphism_enumeration_counts() {
        // path(2) = single edge both directions; into K2.
        let a = path(2);
        let b = clique(2);
        assert_eq!(partial_homomorphisms(&a, &b, 0).len(), 1);
        // size 1: each of 2 vertices x 2 values = 4.
        assert_eq!(partial_homomorphisms(&a, &b, 1).len(), 4);
        // size 2: must differ on the edge: 2 valid of 4.
        assert_eq!(partial_homomorphisms(&a, &b, 2).len(), 2);
    }
}
