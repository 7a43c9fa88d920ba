//! The existential k-pebble game (Section 4 of the paper).
//!
//! The Duplicator wins the existential k-pebble game on `(A, B)` iff
//! there is a *winning strategy*: a nonempty family of partial
//! homomorphisms of size ≤ k, closed under subfunctions, with the
//! *k-forth property* (every member of size < k extends to any further
//! element of **A**). By Proposition 5.1 the union of winning strategies
//! is itself one — the **largest winning strategy** `H^k(A,B)`, whose
//! graph is the configuration set `W^k(A,B)` of Theorem 4.5.
//!
//! We compute `H^k(A,B)` as a greatest fixpoint, dually to the least
//! fixpoint of Theorem 4.5(1): start from all coherent configurations
//! (partial homomorphisms of size ≤ k) and delete any member that loses
//! a subfunction or fails the forth property, until stable. The paper's
//! `O(n^{2k})` bound shows up as the size of the candidate set — this is
//! what Experiment E5 measures.

use cspdb_core::budget::{ExhaustionReason, Meter};
use cspdb_core::trace::TraceEvent;
use cspdb_core::{PartialHom, Structure};
use std::collections::HashMap;

/// The largest winning strategy for the Duplicator, `H^k(A, B)`.
///
/// Empty iff the Spoiler wins the game.
#[derive(Debug, Clone)]
pub struct WinningStrategy {
    k: usize,
    maps: Vec<PartialHom>,
    index: HashMap<PartialHom, usize>,
}

impl WinningStrategy {
    /// The pebble count the strategy was computed for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of partial homomorphisms in the strategy.
    pub fn len(&self) -> usize {
        self.maps.len()
    }

    /// True iff the strategy is empty, i.e. the Spoiler wins.
    pub fn is_empty(&self) -> bool {
        self.maps.is_empty()
    }

    /// Membership test.
    pub fn contains(&self, f: &PartialHom) -> bool {
        self.index.contains_key(f)
    }

    /// Iterates over the member partial homomorphisms.
    pub fn iter(&self) -> impl Iterator<Item = &PartialHom> + '_ {
        self.maps.iter()
    }

    /// Checks the defining properties against the instance — used by
    /// tests and by `establish`: nonempty ⇒ (all members are partial
    /// homomorphisms ≤ k, closed under subfunctions, k-forth).
    pub fn is_winning_for(&self, a: &Structure, b: &Structure) -> bool {
        if self.maps.is_empty() {
            return false;
        }
        let n = a.domain_size() as u32;
        let d = b.domain_size() as u32;
        for f in &self.maps {
            if f.len() > self.k || !f.is_partial_homomorphism(a, b) {
                return false;
            }
            for r in f.drop_each() {
                if !self.contains(&r) {
                    return false;
                }
            }
            if f.len() < self.k {
                for x in 0..n {
                    if f.is_defined_on(x) {
                        continue;
                    }
                    let extended = (0..d)
                        .any(|y| f.extended(x, y).map(|g| self.contains(&g)).unwrap_or(false));
                    if !extended {
                        return false;
                    }
                }
            }
        }
        true
    }
}

/// Computes the largest winning strategy `H^k(A, B)` for the Duplicator
/// in the existential k-pebble game.
///
/// # Panics
///
/// Panics if `k == 0` or the vocabularies differ.
pub fn largest_winning_strategy(a: &Structure, b: &Structure, k: usize) -> WinningStrategy {
    largest_winning_strategy_metered(a, b, k, &mut Meter::default())
        .expect("unlimited budget cannot exhaust")
}

/// Checked upper bound on the candidate table of the k-pebble game
/// computation: `Σ_{i ≤ k} n^i · d^i` partial maps. Returns `None` on
/// `u64` overflow — in which case the table certainly does not fit in
/// memory and a caller planning a budgeted run should skip this
/// algorithm entirely.
pub fn wk_table_bound(n: usize, d: usize, k: usize) -> Option<u64> {
    let n = n as u64;
    let d = d as u64;
    let mut total: u64 = 0;
    let mut layer: u64 = 1; // n^i * d^i
    for _ in 0..=k {
        total = total.checked_add(layer)?;
        layer = layer.checked_mul(n)?.checked_mul(d)?;
        if layer == 0 {
            break;
        }
    }
    Some(total)
}

/// [`largest_winning_strategy`] under a [`Meter`]: `Err` when the
/// budget ran out mid-computation. Steps are ticked per candidate
/// extension and per fixpoint re-check; each stored candidate is charged
/// against the tuple cap (the `O(n^k d^k)` table is this algorithm's
/// memory hazard). The caller keeps the meter, so resource usage (and
/// the tracer it carries) stays readable afterwards. Emits one [`TraceEvent::KConsistency`] per
/// completed run with the candidate-table and greatest-fixpoint
/// survivor counts.
pub fn largest_winning_strategy_metered(
    a: &Structure,
    b: &Structure,
    k: usize,
    meter: &mut Meter,
) -> Result<WinningStrategy, ExhaustionReason> {
    assert!(k >= 1, "the game needs at least one pebble");
    assert_eq!(a.vocabulary(), b.vocabulary(), "vocabulary mismatch");
    let n = a.domain_size() as u32;
    let d = b.domain_size() as u32;

    // Candidate generation: all partial homomorphisms of size <= k.
    let mut maps: Vec<PartialHom> = Vec::new();
    let mut index: HashMap<PartialHom, usize> = HashMap::new();
    {
        // BFS by size: extensions of size-i partial homs by a larger
        // element index keep combinations canonical (sources ascending).
        let mut frontier = vec![PartialHom::empty()];
        index.insert(PartialHom::empty(), 0);
        maps.push(PartialHom::empty());
        meter.charge_tuples(1)?;
        for _size in 0..k {
            let mut next_frontier = Vec::new();
            for f in &frontier {
                let min_x = f.sources().max().map(|m| m + 1).unwrap_or(0);
                for x in min_x..n {
                    for y in 0..d {
                        meter.tick()?;
                        let g = f.extended(x, y).expect("x fresh");
                        if g.is_partial_homomorphism(a, b) {
                            meter.charge_tuples(1)?;
                            index.insert(g.clone(), maps.len());
                            maps.push(g.clone());
                            next_frontier.push(g);
                        }
                    }
                }
            }
            frontier = next_frontier;
        }
    }

    // Greatest fixpoint: delete members violating closure or forth.
    let mut alive = vec![true; maps.len()];
    let mut changed = true;
    while changed {
        changed = false;
        for i in 0..maps.len() {
            if !alive[i] {
                continue;
            }
            meter.tick()?;
            let f = &maps[i];
            // Downward closure: every 1-smaller restriction alive.
            let closure_ok = f
                .drop_each()
                .all(|r| index.get(&r).map(|&j| alive[j]).unwrap_or(false));
            let forth_ok = closure_ok
                && (f.len() == k
                    || (0..n).all(|x| {
                        if f.is_defined_on(x) {
                            return true;
                        }
                        (0..d).any(|y| {
                            f.extended(x, y)
                                .and_then(|g| index.get(&g).copied())
                                .map(|j| alive[j])
                                .unwrap_or(false)
                        })
                    }));
            if !forth_ok {
                alive[i] = false;
                changed = true;
            }
        }
    }

    let candidates = maps.len() as u64;
    let surviving: Vec<PartialHom> = maps
        .into_iter()
        .zip(alive)
        .filter_map(|(f, keep)| keep.then_some(f))
        .collect();
    meter.tracer().emit_with(|| TraceEvent::KConsistency {
        k,
        candidates,
        survivors: surviving.len() as u64,
    });
    let index = surviving
        .iter()
        .enumerate()
        .map(|(i, f)| (f.clone(), i))
        .collect();
    Ok(WinningStrategy {
        k,
        maps: surviving,
        index,
    })
}

/// True iff the Duplicator wins the existential k-pebble game on
/// `(A, B)` (Theorem 4.5 gives the polynomial-time bound).
pub fn duplicator_wins(a: &Structure, b: &Structure, k: usize) -> bool {
    !largest_winning_strategy(a, b, k).is_empty()
}

/// True iff the Spoiler wins the existential k-pebble game on `(A, B)`.
pub fn spoiler_wins(a: &Structure, b: &Structure, k: usize) -> bool {
    !duplicator_wins(a, b, k)
}

/// [`spoiler_wins`] under a [`Meter`]; `Err` means the
/// game computation ran out of resources (inconclusive either way).
pub fn spoiler_wins_metered(
    a: &Structure,
    b: &Structure,
    k: usize,
    meter: &mut Meter,
) -> Result<bool, ExhaustionReason> {
    Ok(largest_winning_strategy_metered(a, b, k, meter)?.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::graphs::{clique, cycle, path};
    use cspdb_core::PartialHom;

    #[test]
    fn homomorphism_implies_duplicator_wins_every_k() {
        // C4 -> K2 exists, so the Duplicator wins for k = 1, 2, 3.
        let a = cycle(4);
        let b = clique(2);
        for k in 1..=3 {
            assert!(duplicator_wins(&a, &b, k), "k = {k}");
        }
    }

    #[test]
    fn odd_cycle_vs_k2_needs_three_pebbles() {
        // C5 -> K2 has no homomorphism. Two pebbles (arc consistency)
        // cannot see it: the Duplicator survives. Three pebbles walk the
        // cycle and catch the parity contradiction: the Spoiler wins.
        let a = cycle(5);
        let b = clique(2);
        assert!(duplicator_wins(&a, &b, 2));
        assert!(spoiler_wins(&a, &b, 3));
    }

    #[test]
    fn k3_vs_k2_spoiler_wins_with_three_pebbles() {
        let a = clique(3);
        let b = clique(2);
        assert!(duplicator_wins(&a, &b, 2));
        assert!(spoiler_wins(&a, &b, 3));
    }

    #[test]
    fn strategy_satisfies_its_definition() {
        let a = cycle(4);
        let b = clique(2);
        let w = largest_winning_strategy(&a, &b, 2);
        assert!(w.is_winning_for(&a, &b));
        assert!(w.contains(&PartialHom::empty()));
        // Losing game yields empty strategy.
        let w = largest_winning_strategy(&cycle(5), &b, 3);
        assert!(w.is_empty());
        assert!(!w.is_winning_for(&cycle(5), &b));
    }

    #[test]
    fn strategy_is_largest() {
        // Any singleton {total hom restriction family} is a winning
        // strategy; the largest must contain all its members. Check that
        // the restrictions of an actual homomorphism all appear.
        let a = path(3); // 0-1-2
        let b = clique(2);
        let hom = [0u32, 1, 0];
        let w = largest_winning_strategy(&a, &b, 2);
        for i in 0..3u32 {
            for j in 0..3u32 {
                if i == j {
                    continue;
                }
                let f =
                    PartialHom::from_pairs([(i, hom[i as usize]), (j, hom[j as usize])]).unwrap();
                assert!(w.contains(&f), "missing restriction {f:?}");
            }
        }
    }

    #[test]
    fn one_pebble_game_checks_unary_compatibility() {
        // With one pebble only unary facts matter. A has P(0); B has no
        // P-fact: the Spoiler places on 0 and wins.
        let voc = cspdb_core::Vocabulary::new([("P", 1)]).unwrap();
        let mut a = cspdb_core::Structure::new(voc.clone(), 1);
        a.insert_by_name("P", &[0]).unwrap();
        let b = cspdb_core::Structure::new(voc, 1);
        assert!(spoiler_wins(&a, &b, 1));
        // Give B the fact: the Duplicator wins.
        let mut b2 = cspdb_core::Structure::new(a.vocabulary().clone(), 1);
        b2.insert_by_name("P", &[0]).unwrap();
        assert!(duplicator_wins(&a, &b2, 1));
    }

    #[test]
    fn empty_b_with_nonempty_a_loses() {
        let a = path(2);
        let voc = a.vocabulary().clone();
        let b = cspdb_core::Structure::new(voc, 0);
        assert!(spoiler_wins(&a, &b, 2));
    }

    #[test]
    fn game_monotone_in_k() {
        // If the Spoiler wins with k pebbles he wins with k+1.
        let pairs = [
            (cycle(5), clique(2)),
            (clique(3), clique(2)),
            (cycle(4), clique(2)),
            (clique(4), clique(3)),
        ];
        for (a, b) in pairs {
            let mut prev_spoiler = false;
            for k in 1..=4 {
                let s = spoiler_wins(&a, &b, k);
                assert!(!prev_spoiler || s, "monotonicity violated at k={k}");
                prev_spoiler = s;
            }
        }
    }

    #[test]
    fn spoiler_win_is_sound_for_nonexistence() {
        // Soundness: Spoiler winning implies no homomorphism.
        let pairs = [
            (cycle(5), clique(2)),
            (cycle(7), clique(2)),
            (clique(4), clique(3)),
        ];
        for (a, b) in pairs {
            for k in 1..=3 {
                if spoiler_wins(&a, &b, k) {
                    assert!(
                        cspdb_core::CspInstance::from_homomorphism(&a, &b)
                            .unwrap()
                            .solve_brute_force()
                            .is_none(),
                        "spoiler won but a homomorphism exists"
                    );
                }
            }
        }
    }
}
