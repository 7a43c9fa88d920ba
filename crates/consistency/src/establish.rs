//! Establishing strong k-consistency (Definition 5.4, Theorem 5.6).
//!
//! Theorem 5.6: strong k-consistency can be established for `(A, B)` iff
//! the Duplicator wins the existential k-pebble game — iff
//! `W^k(A, B) ≠ ∅`. When it can, re-formatting the largest winning
//! strategy as constraints produces the *largest coherent instance*
//! establishing strong k-consistency:
//!
//! 1. compute `W^k(A, B)`;
//! 2. for every tuple `ā ∈ A^i`, `i ≤ k`, form
//!    `R_ā = { b̄ : (ā, b̄) ∈ W^k(A, B) }`;
//! 3. the CSP instance with constraints `(ā, R_ā)` is the output; its
//!    homomorphism form is `(A', B')`.
//!
//! Implementation note: we instantiate step 2 over tuples of *distinct*
//! elements. Tuples with repeats carry no extra information — their
//! configurations are determined by the underlying partial function
//! (`h_{ā,b̄}` ignores multiplicity), so the distinct-tuple instance has
//! exactly the same k-partial homomorphisms and solutions; this keeps the
//! construction at `O(n^k · d^k)` instead of gratuitously larger.

use crate::game::{largest_winning_strategy, WinningStrategy};
use cspdb_core::{CspInstance, Relation, Structure};

/// The result of establishing strong k-consistency: the paper's
/// `(A', B')` plus the strategy it came from.
#[derive(Debug, Clone)]
pub struct Established {
    /// The new "variable" structure `A'`.
    pub a_prime: Structure,
    /// The new "value" structure `B'`.
    pub b_prime: Structure,
    /// The CSP form: variables = domain of **A**, values = domain of
    /// **B**, one constraint `(ā, R_ā)` per distinct-element tuple with
    /// nonempty `R_ā`.
    pub csp: CspInstance,
}

/// Establishes strong k-consistency for `(A, B)` per Theorem 5.6, or
/// returns `None` when impossible (the Spoiler wins the game).
pub fn establish_strong_k_consistency(
    a: &Structure,
    b: &Structure,
    k: usize,
) -> Option<Established> {
    let w = largest_winning_strategy(a, b, k);
    establish_from_strategy(a, b, &w)
}

/// Same as [`establish_strong_k_consistency`] but reusing an
/// already-computed strategy.
pub fn establish_from_strategy(
    a: &Structure,
    b: &Structure,
    w: &WinningStrategy,
) -> Option<Established> {
    if w.is_empty() {
        return None;
    }
    let k = w.k();
    let n = a.domain_size();
    let mut csp = CspInstance::new(n, b.domain_size());
    // Group strategy members by their source tuple (ascending order —
    // one canonical representative per distinct-element set; we emit the
    // ascending tuple as the constraint scope).
    use std::collections::HashMap;
    let mut by_scope: HashMap<Vec<u32>, Vec<Vec<u32>>> = HashMap::new();
    for f in w.iter() {
        if f.is_empty() {
            continue;
        }
        let scope: Vec<u32> = f.sources().collect();
        let image: Vec<u32> = f.iter().map(|(_, y)| y).collect();
        by_scope.entry(scope).or_default().push(image);
    }
    let mut scopes: Vec<Vec<u32>> = by_scope.keys().cloned().collect();
    scopes.sort();
    for scope in scopes {
        let images = &by_scope[&scope];
        let rel =
            Relation::from_tuples(scope.len(), images.iter()).expect("images have scope arity");
        csp.add_constraint(scope.into_boxed_slice(), rel)
            .expect("strategy members are in range");
    }
    // Also: elements with NO surviving singleton would make the
    // instance unsatisfiable, but w nonempty + forth guarantees every
    // element has a surviving singleton (extend the empty map) whenever
    // k >= 1 — asserted here.
    debug_assert!(
        (0..n as u32).all(|x| w.iter().any(|f| f.len() == 1 && f.is_defined_on(x)) || n == 0),
        "forth property guarantees singletons"
    );
    let _ = k;
    let (a_prime, b_prime) = csp.to_homomorphism();
    Some(Established {
        a_prime,
        b_prime,
        csp,
    })
}

/// Verifies the four conditions of Definition 5.4 for an established
/// instance, against the originals. Exponential checks (condition 4
/// enumerates all `|B|^|A|` functions) — test-sized inputs only.
pub fn verify_definition_5_4(
    a: &Structure,
    b: &Structure,
    est: &Established,
    k: usize,
) -> Result<(), String> {
    // Condition 1: domains match.
    if est.a_prime.domain_size() != a.domain_size() {
        return Err("A' domain differs from A".into());
    }
    if est.b_prime.domain_size() != b.domain_size() {
        return Err("B' domain differs from B".into());
    }
    if !est.a_prime.vocabulary().is_k_ary(k) {
        return Err("A' vocabulary is not k-ary".into());
    }
    // Condition 2: CSP(A', B') is strongly k-consistent.
    if !crate::local::is_strongly_k_consistent(&est.a_prime, &est.b_prime, k) {
        return Err("established instance is not strongly k-consistent".into());
    }
    // Condition 3: k-partial homs of (A', B') are k-partial homs of (A, B).
    for size in 0..=k {
        for f in crate::local::partial_homomorphisms(&est.a_prime, &est.b_prime, size) {
            if !f.is_partial_homomorphism(a, b) {
                return Err(format!("partial hom {f:?} of (A',B') fails on (A,B)"));
            }
        }
    }
    // Condition 4: total functions are homomorphisms A->B iff A'->B'.
    let n = a.domain_size();
    let d = b.domain_size();
    let total = (d as f64).powi(n as i32);
    if total > 1e6 {
        return Err("condition-4 check too large".into());
    }
    if n > 0 && d == 0 {
        return Ok(());
    }
    let mut h = vec![0u32; n];
    loop {
        let on_orig = cspdb_core::is_homomorphism(&h, a, b);
        let on_new = cspdb_core::is_homomorphism(&h, &est.a_prime, &est.b_prime);
        if on_orig != on_new {
            return Err(format!("function {h:?}: original {on_orig}, new {on_new}"));
        }
        let mut i = n;
        loop {
            if i == 0 {
                return Ok(());
            }
            i -= 1;
            h[i] += 1;
            if (h[i] as usize) < d {
                break;
            }
            h[i] = 0;
        }
    }
}

/// The uniform polynomial-time decision procedure of Theorems 4.6/4.7 and
/// 5.7: runs the existential k-pebble game and reports
///
/// * `Some(false)` — the Spoiler wins, hence **no** homomorphism exists
///   (always sound);
/// * `None` — the Duplicator wins: inconclusive in general, but a
///   definitive **yes** whenever `¬CSP(B)` is expressible in k-Datalog
///   (Theorem 5.7), e.g. 2-colorability with k = 3 or Horn templates.
pub fn k_consistency_refutes(a: &Structure, b: &Structure, k: usize) -> Option<bool> {
    if crate::game::spoiler_wins(a, b, k) {
        Some(false)
    } else {
        None
    }
}

/// [`k_consistency_refutes`] under a
/// [`Meter`](cspdb_core::budget::Meter): the outer `Err` means the game
/// computation itself ran out of resources, so not even the sound
/// refutation check completed. The caller keeps the meter, so resource
/// usage (and the tracer it carries) stays readable afterwards.
pub fn k_consistency_refutes_metered(
    a: &Structure,
    b: &Structure,
    k: usize,
    meter: &mut cspdb_core::budget::Meter,
) -> Result<Option<bool>, cspdb_core::budget::ExhaustionReason> {
    if crate::game::spoiler_wins_metered(a, b, k, meter)? {
        Ok(Some(false))
    } else {
        Ok(None)
    }
}

/// A coherence check for the established instance: every constraint
/// tuple's correspondence is a partial homomorphism of `(A', B')` — the
/// property Theorem 5.6 guarantees ("largest coherent instance").
pub fn established_is_coherent(est: &Established) -> bool {
    cspdb_core::is_coherent(&est.a_prime, &est.b_prime)
}

/// Maximality (Theorem 5.6, final clause), checked against another
/// coherent establishing instance given as a CSP: every constraint
/// `(ā, R)` of the other instance must satisfy `R ⊆ R_ā`.
pub fn dominates(est: &Established, other: &CspInstance) -> bool {
    for c in other.constraints() {
        // Find est's constraint on the same (sorted) scope.
        let mut scope = c.scope().to_vec();
        let perm: Vec<usize> = {
            let mut idx: Vec<usize> = (0..scope.len()).collect();
            idx.sort_by_key(|&i| scope[i]);
            idx
        };
        scope.sort_unstable();
        let mine = est
            .csp
            .constraints()
            .iter()
            .find(|mc| mc.scope() == scope.as_slice());
        let mine = match mine {
            Some(m) => m,
            None => return c.relation().is_empty(),
        };
        for t in c.relation().iter() {
            let sorted_t: Vec<u32> = perm.iter().map(|&i| t[i]).collect();
            if !mine.relation().contains(&sorted_t) {
                return false;
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::graphs::{clique, cycle, path};

    #[test]
    fn theorem_5_6_iff_duplicator_wins() {
        let cases = [
            (cycle(4), clique(2), 2, true),
            (cycle(5), clique(2), 3, false),
            (cycle(5), clique(3), 3, true),
            (path(4), clique(2), 2, true),
            (clique(3), clique(2), 3, false),
        ];
        for (a, b, k, expect) in cases {
            let est = establish_strong_k_consistency(&a, &b, k);
            assert_eq!(est.is_some(), expect, "on {a} -> {b} with k={k}");
        }
    }

    #[test]
    fn established_instance_satisfies_definition_5_4() {
        let cases = [
            (cycle(4), clique(2), 2),
            (path(4), clique(2), 2),
            (cycle(5), clique(3), 2),
            (cycle(3), clique(3), 3),
        ];
        for (a, b, k) in cases {
            let est = establish_strong_k_consistency(&a, &b, k).expect("duplicator wins these");
            verify_definition_5_4(&a, &b, &est, k).expect("definition 5.4 holds");
        }
    }

    #[test]
    fn established_instance_is_coherent() {
        let a = cycle(4);
        let b = clique(2);
        let est = establish_strong_k_consistency(&a, &b, 2).unwrap();
        assert!(established_is_coherent(&est));
    }

    #[test]
    fn maximality_dominates_original_constraints_restricted_to_strategy() {
        // The established instance dominates any coherent establishing
        // instance; in particular, re-establishing from itself changes
        // nothing.
        let a = cycle(5);
        let b = clique(3);
        let est = establish_strong_k_consistency(&a, &b, 2).unwrap();
        let est2 = establish_strong_k_consistency(&est.a_prime, &est.b_prime, 2).unwrap();
        assert!(dominates(&est, &est2.csp));
        assert!(dominates(&est2, &est.csp));
    }

    #[test]
    fn refutation_is_sound_and_complete_for_2col_with_k3() {
        // Theorem 5.7 instance: ¬CSP(K2) is expressible in k-Datalog
        // (odd-cycle program of Section 4), so 3-consistency decides
        // 2-colorability exactly.
        for n in 3..9 {
            let g = cycle(n);
            let refuted = k_consistency_refutes(&g, &clique(2), 3) == Some(false);
            let colorable = cspdb_core::graphs::two_coloring(&g).is_some();
            assert_eq!(refuted, !colorable, "cycle of length {n}");
        }
    }

    #[test]
    fn three_consistency_does_not_decide_3col() {
        // For K4 -> K3 (no homomorphism), does the Duplicator win the
        // 3-pebble game? K4 vs K3: Spoiler pebbles 3 distinct K4 vertices;
        // Duplicator must answer with 3 distinct K3 vertices; then
        // Spoiler moves one pebble to the 4th vertex — adjacent to both
        // remaining — forcing a repeat... any two K3 values differ from
        // the two pinned ones? The two pinned are distinct; third must
        // differ from both: exactly one choice; it exists! So Duplicator
        // survives: 3 pebbles do NOT refute K4 -> K3.
        assert_eq!(k_consistency_refutes(&clique(4), &clique(3), 3), None);
        // While 4 pebbles do.
        assert_eq!(
            k_consistency_refutes(&clique(4), &clique(3), 4),
            Some(false)
        );
    }

    #[test]
    fn establish_on_instance_with_homomorphism_keeps_solutions() {
        let a = path(3);
        let b = clique(2);
        let est = establish_strong_k_consistency(&a, &b, 2).unwrap();
        // Def 5.4 condition 4 checked in detail elsewhere; spot-check a
        // known solution survives.
        assert!(cspdb_core::is_homomorphism(
            &[0, 1, 0],
            &est.a_prime,
            &est.b_prime
        ));
        assert!(!cspdb_core::is_homomorphism(
            &[0, 0, 0],
            &est.a_prime,
            &est.b_prime
        ));
    }
}
