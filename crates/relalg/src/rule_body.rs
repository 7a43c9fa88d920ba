//! One rule-body kernel: conjunctive rule bodies lowered onto the
//! leapfrog engine.
//!
//! A CSP, a join and the body of a conjunctive query or Datalog rule
//! are one problem (Proposition 2.1), so every body is evaluated here:
//! counting view maintenance, DRed and semi-naive Datalog all stream
//! their valuations from [`for_each_body_valuation`]. An atom's constants
//! and repeated variables are lowered by selection, its distinct
//! variables are projected into the caller's variable order, and the
//! resulting trie views are intersected by the leapfrog core that
//! [`wcoj_join_with_order`](crate::wcoj_join_with_order) also runs.
//! Leapfrog over every body variable enumerates exactly the
//! valuations, so two derivations of one head tuple are two callbacks —
//! what counting maintenance needs — and no valuation is ever
//! materialized.

use crate::wcoj::{leapfrog, TrieView};
use cspdb_core::budget::{ExhaustionReason, Meter};
use cspdb_core::Relation;
use std::collections::HashMap;

/// A body term after name resolution: a variable slot or a constant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BodyTerm {
    /// Index into the valuation.
    Var(usize),
    /// A fixed domain element.
    Const(u32),
}

/// One body atom together with the relation it ranges over.
#[derive(Debug, Clone, Copy)]
pub struct BodyAtom<'a> {
    /// The atom's arguments, one per column of `rel`.
    pub terms: &'a [BodyTerm],
    /// The relation the atom ranges over.
    pub rel: &'a Relation,
    /// The name under which a trie view built for this atom may be
    /// kept in the [`TrieCache`]: set it only for a relation that does
    /// not change while the cache lives.
    pub cache_as: Option<&'a str>,
}

/// How one column of an atom lowers into its trie view: a constant the
/// column is selected on, or the trie column its variable lands in.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Lowered {
    Const(u32),
    Col(usize),
}

/// Trie views kept across calls of [`for_each_body_valuation`], by
/// relation name and lowering, so a relation that stays fixed over many
/// calls (the EDB of a semi-naive fixpoint) is selected and sorted once,
/// and one that changes a tuple at a time (under a maintained view) is
/// patched instead of rebuilt.
#[derive(Debug, Clone, Default)]
pub struct TrieCache {
    by_name: HashMap<String, HashMap<Vec<Lowered>, Relation>>,
}

impl TrieCache {
    /// An empty cache.
    pub fn new() -> Self {
        TrieCache::default()
    }

    /// Forgets every trie view kept under `name`; call it when that
    /// relation changes.
    pub fn forget(&mut self, name: &str) {
        self.by_name.remove(name);
    }

    /// Builds and keeps the trie views that [`for_each_body_valuation`]
    /// reads for the atoms with a cache name, under `order`: one tick
    /// per row scanned.
    ///
    /// # Errors
    ///
    /// Propagates meter exhaustion.
    pub fn prepare(
        &mut self,
        atoms: &[BodyAtom],
        order: &[usize],
        meter: &mut Meter,
    ) -> Result<(), ExhaustionReason> {
        let level_of = levels_of(order);
        for atom in atoms {
            let (shape, levels) = lower(atom.terms, &level_of);
            self.build(atom, &shape, levels.len(), meter)?;
        }
        Ok(())
    }

    /// Inserts `tuple` into (or, when `insert` is false, removes it
    /// from) every trie view kept under `name`, so they follow that
    /// relation through a one-tuple change: one tick per view patched.
    ///
    /// # Errors
    ///
    /// Propagates meter exhaustion.
    pub fn apply_delta(
        &mut self,
        name: &str,
        tuple: &[u32],
        insert: bool,
        meter: &mut Meter,
    ) -> Result<(), ExhaustionReason> {
        for (shape, trie) in self.by_name.get_mut(name).into_iter().flatten() {
            meter.tick()?;
            let source = sources(shape, trie.arity());
            if selects(shape, &source, tuple) {
                let row: Vec<u32> = source.iter().map(|&c| tuple[c]).collect();
                if insert {
                    trie.insert(&row).expect("row has the trie's arity");
                } else {
                    trie.remove(&row);
                }
            }
        }
        Ok(())
    }

    fn get(&self, name: &str, shape: &[Lowered]) -> Option<&Relation> {
        self.by_name.get(name)?.get(shape)
    }

    /// Builds the trie view of `atom` lowered to `shape` unless the
    /// atom has no cache name, reads its relation as it is, or the view
    /// is kept already.
    fn build(
        &mut self,
        atom: &BodyAtom,
        shape: &[Lowered],
        width: usize,
        meter: &mut Meter,
    ) -> Result<(), ExhaustionReason> {
        let Some(name) = atom.cache_as else {
            return Ok(());
        };
        if is_identity(shape) || self.get(name, shape).is_some() {
            return Ok(());
        }
        let rows = select_project(atom.rel, shape, width, meter)?;
        self.by_name
            .entry(name.to_owned())
            .or_default()
            .insert(shape.to_vec(), rows);
        Ok(())
    }
}

/// A variable order for a body whose slots are `0..num_vars`, every
/// one of them occurring in some atom: atom `first`'s variables come
/// first (the smallest relation's when `None`), in column order. Then,
/// atom by atom, come the new variables of the atom sharing the most
/// variables with those already ordered, with the smaller relation and
/// then the earlier atom winning ties. Binding a pinned delta atom
/// first turns every other atom into seeks on bound columns.
pub fn body_variable_order(
    atoms: &[BodyAtom],
    first: Option<usize>,
    num_vars: usize,
) -> Vec<usize> {
    let mut order = Vec::with_capacity(num_vars);
    let mut placed = vec![false; num_vars];
    let mut done = vec![false; atoms.len()];
    let mut next = first.or_else(|| (0..atoms.len()).min_by_key(|&i| atoms[i].rel.len()));
    while let Some(i) = next {
        done[i] = true;
        for term in atoms[i].terms {
            if let BodyTerm::Var(v) = *term {
                if !placed[v] {
                    placed[v] = true;
                    order.push(v);
                }
            }
        }
        let shared = |a: &BodyAtom| {
            a.terms
                .iter()
                .filter(|t| matches!(t, BodyTerm::Var(v) if placed[*v]))
                .count()
        };
        next = (0..atoms.len())
            .filter(|&j| !done[j])
            .min_by_key(|&j| (std::cmp::Reverse(shared(&atoms[j])), atoms[j].rel.len(), j));
    }
    debug_assert_eq!(order.len(), num_vars, "every variable occurs in an atom");
    order
}

/// Streams every valuation of a conjunctive body: `emit` is called once
/// per assignment of the variable slots `order` lists (a permutation of
/// `0..order.len()`) under which every atom's instantiated tuple is in
/// its relation, with the values indexed by slot. Variables are bound
/// in `order`, outermost first. Returns how many bindings each level of
/// `order` matched.
///
/// Metered like the leapfrog join: one tick per row scanned to build a
/// trie view (an atom whose variables are distinct and already in
/// order reads its relation as it is and builds nothing), one per seek,
/// and one tuple charge per valuation.
///
/// # Panics
///
/// Panics if a variable of the body is missing from `order`, or a
/// slot in `order` occurs in no atom.
pub fn for_each_body_valuation(
    atoms: &[BodyAtom],
    order: &[usize],
    tries: &mut TrieCache,
    meter: &mut Meter,
    emit: &mut dyn FnMut(&[u32]),
) -> Result<Vec<u64>, ExhaustionReason> {
    let level_of = levels_of(order);
    let lowered: Vec<(Vec<Lowered>, Vec<usize>)> =
        atoms.iter().map(|a| lower(a.terms, &level_of)).collect();
    // Build the trie views that are neither the relation itself nor
    // kept in the cache.
    let mut built: Vec<Option<Relation>> = Vec::with_capacity(atoms.len());
    for (atom, (shape, levels)) in atoms.iter().zip(&lowered) {
        built.push(if atom.cache_as.is_some() {
            tries.build(atom, shape, levels.len(), meter)?;
            None
        } else if is_identity(shape) {
            None
        } else {
            Some(select_project(atom.rel, shape, levels.len(), meter)?)
        });
    }
    let mut views = Vec::with_capacity(atoms.len());
    for ((atom, (shape, levels)), trie) in atoms.iter().zip(&lowered).zip(&built) {
        let rows = match (trie, atom.cache_as) {
            (Some(rows), _) => rows,
            (None, Some(name)) if !is_identity(shape) => {
                tries.get(name, shape).expect("built above")
            }
            (None, _) => atom.rel,
        };
        if rows.is_empty() {
            return Ok(vec![0; order.len()]); // nothing satisfies this atom
        }
        if !levels.is_empty() {
            views.push(TrieView::new(rows, levels, order.len()));
        }
    }
    let mut valuation = vec![0u32; order.len()];
    leapfrog(&views, order.len(), meter, &mut |binding| {
        for (&v, &x) in order.iter().zip(binding) {
            valuation[v] = x;
        }
        emit(&valuation);
    })
}

/// The lowering of one atom under `level_of`: per column, its constant
/// or the trie column of its variable (the atom's distinct variables
/// sorted by level), and the levels those trie columns bind.
fn lower(terms: &[BodyTerm], level_of: &[usize]) -> (Vec<Lowered>, Vec<usize>) {
    let mut levels: Vec<usize> = terms
        .iter()
        .filter_map(|t| match *t {
            BodyTerm::Var(v) => Some(level_of[v]),
            BodyTerm::Const(_) => None,
        })
        .collect();
    levels.sort_unstable();
    levels.dedup();
    let shape = terms
        .iter()
        .map(|t| match *t {
            BodyTerm::Const(c) => Lowered::Const(c),
            BodyTerm::Var(v) => {
                Lowered::Col(levels.binary_search(&level_of[v]).expect("level listed"))
            }
        })
        .collect();
    (shape, levels)
}

/// True when the trie view is the relation itself: distinct variables
/// already in level order, nothing to select.
fn is_identity(shape: &[Lowered]) -> bool {
    shape.iter().enumerate().all(|(i, l)| *l == Lowered::Col(i))
}

/// The level of each variable slot under `order`.
fn levels_of(order: &[usize]) -> Vec<usize> {
    let mut level_of = vec![usize::MAX; order.len()];
    for (level, &v) in order.iter().enumerate() {
        level_of[v] = level;
    }
    level_of
}

/// For each of the `width` trie columns of `shape`, the first atom
/// column carrying its variable.
fn sources(shape: &[Lowered], width: usize) -> Vec<usize> {
    let mut source = vec![usize::MAX; width];
    for (c, l) in shape.iter().enumerate().rev() {
        if let Lowered::Col(k) = *l {
            source[k] = c;
        }
    }
    source
}

/// True when tuple `t` agrees with `shape`'s constants and repeated
/// variables.
fn selects(shape: &[Lowered], source: &[usize], t: &[u32]) -> bool {
    shape.iter().zip(t).all(|(l, &x)| match *l {
        Lowered::Const(c) => x == c,
        Lowered::Col(k) => x == t[source[k]],
    })
}

/// Selects the rows of `rel` that agree with `shape`, projected onto
/// its `width` trie columns (one tick per row scanned).
fn select_project(
    rel: &Relation,
    shape: &[Lowered],
    width: usize,
    meter: &mut Meter,
) -> Result<Relation, ExhaustionReason> {
    let source = sources(shape, width);
    let (mut rows, mut data) = (0, Vec::new());
    for t in rel.iter() {
        meter.tick()?;
        if selects(shape, &source, t) {
            data.extend(source.iter().map(|&c| t[c]));
            rows += 1;
        }
    }
    Ok(Relation::from_flat(width, rows, data))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::Budget;
    use BodyTerm::{Const, Var};

    fn rel(ts: &[[u32; 2]]) -> Relation {
        Relation::from_tuples(2, ts.iter()).unwrap()
    }

    fn atom<'a>(terms: &'a [BodyTerm], rel: &'a Relation) -> BodyAtom<'a> {
        BodyAtom {
            terms,
            rel,
            cache_as: None,
        }
    }

    /// Every valuation of `atoms` in the default order, sorted.
    fn valuations(atoms: &[BodyAtom], num_vars: usize) -> Vec<Vec<u32>> {
        let order = body_variable_order(atoms, None, num_vars);
        let mut meter = Budget::unlimited().meter();
        let mut out = Vec::new();
        for_each_body_valuation(atoms, &order, &mut TrieCache::new(), &mut meter, &mut |v| {
            out.push(v.to_vec())
        })
        .unwrap();
        out.sort();
        out
    }

    #[test]
    fn counts_every_valuation_not_just_distinct_results() {
        // E(x,z), E(z,y) over a diamond: 0->1->3 and 0->2->3 are two
        // derivations of (0,3).
        let e = rel(&[[0, 1], [0, 2], [1, 3], [2, 3]]);
        let body = [atom(&[Var(0), Var(2)], &e), atom(&[Var(2), Var(1)], &e)];
        assert_eq!(valuations(&body, 3), vec![vec![0, 3, 1], vec![0, 3, 2]]);
    }

    #[test]
    fn repeated_variables_and_constants_select() {
        let e = rel(&[[0, 0], [0, 1], [1, 1], [2, 0]]);
        // E(x,x): the diagonal only.
        assert_eq!(
            valuations(&[atom(&[Var(0), Var(0)], &e)], 1),
            vec![vec![0], vec![1]]
        );
        // E(0,y): a constant in the first column.
        assert_eq!(
            valuations(&[atom(&[Const(0), Var(0)], &e)], 1),
            vec![vec![0], vec![1]]
        );
        // E(y,0), E(0,y): a constant and a column out of order.
        let body = [atom(&[Var(0), Const(0)], &e), atom(&[Const(0), Var(0)], &e)];
        assert_eq!(valuations(&body, 1), vec![vec![0]]);
        // No variables: one empty valuation when the fact holds.
        assert_eq!(
            valuations(&[atom(&[Const(2), Const(0)], &e)], 0),
            vec![vec![]]
        );
        assert!(valuations(&[atom(&[Const(2), Const(2)], &e)], 0).is_empty());
    }

    #[test]
    fn every_order_and_cached_trie_agree() {
        let e = rel(&[[0, 1], [1, 2], [2, 0], [0, 2], [2, 2]]);
        let triangle = [
            atom(&[Var(0), Var(1)], &e),
            atom(&[Var(1), Var(2)], &e),
            atom(&[Var(2), Var(0)], &e),
        ];
        let want = valuations(&triangle, 3);
        assert!(!want.is_empty());
        let mut tries = TrieCache::new();
        for first in 0..3 {
            let cached: Vec<BodyAtom> = triangle
                .iter()
                .map(|a| BodyAtom {
                    cache_as: Some("E"),
                    ..*a
                })
                .collect();
            let order = body_variable_order(&cached, Some(first), 3);
            assert_eq!(order.len(), 3);
            let mut got = Vec::new();
            let mut meter = Budget::unlimited().meter();
            for_each_body_valuation(&cached, &order, &mut tries, &mut meter, &mut |v| {
                got.push(v.to_vec())
            })
            .unwrap();
            got.sort();
            assert_eq!(got, want, "first atom {first}");
        }
        tries.forget("E");
        assert!(tries.by_name.is_empty());
    }

    /// A cache prepared for E(y,x) (a transpose) and E(x,x) (the
    /// diagonal) over `e`.
    fn prepared(e: &Relation) -> TrieCache {
        let (transposed, diagonal) = ([Var(1), Var(0)], [Var(0), Var(0)]);
        let atoms = [&transposed, &diagonal].map(|terms| BodyAtom {
            terms,
            rel: e,
            cache_as: Some("E"),
        });
        let mut tries = TrieCache::new();
        tries
            .prepare(&atoms, &[0, 1], &mut Budget::unlimited().meter())
            .unwrap();
        tries
    }

    #[test]
    fn patched_cache_matches_a_rebuilt_one() {
        let before = rel(&[[0, 1], [1, 1], [2, 0]]);
        let after = rel(&[[0, 1], [1, 1], [2, 0], [2, 2]]);
        let mut meter = Budget::unlimited().meter();
        let mut tries = prepared(&before);
        assert_eq!(tries.by_name["E"].len(), 2);
        tries.apply_delta("E", &[2, 2], true, &mut meter).unwrap();
        assert_eq!(tries.by_name, prepared(&after).by_name);
        tries.apply_delta("E", &[2, 2], false, &mut meter).unwrap();
        tries.apply_delta("F", &[0, 0], true, &mut meter).unwrap();
        assert_eq!(tries.by_name, prepared(&before).by_name);
    }

    #[test]
    fn pinned_atom_binds_first_and_seeks_the_rest() {
        // A pinned single tuple against a long chain: the other atom is
        // sought on its bound column, never scanned.
        let chain: Vec<[u32; 2]> = (0..1000u32).map(|i| [i, i + 1]).collect();
        let e = rel(&chain);
        let pinned = rel(&[[500, 501]]);
        let body = [
            atom(&[Var(0), Var(1)], &e),
            atom(&[Var(1), Var(2)], &pinned),
        ];
        let order = body_variable_order(&body, Some(1), 3);
        assert_eq!(order, vec![1, 2, 0]);
        let mut meter = Budget::unlimited().meter();
        let mut got = Vec::new();
        for_each_body_valuation(&body, &order, &mut TrieCache::new(), &mut meter, &mut |v| {
            got.push(v.to_vec())
        })
        .unwrap();
        assert_eq!(got, vec![vec![499, 500, 501]]);
        // The chain atom is transposed (1000 rows scanned), then a
        // handful of seeks — not a scan per pinned binding.
        assert!(meter.usage().steps < 1100, "{:?}", meter.usage());
        assert_eq!(meter.usage().tuples, 1);
    }

    #[test]
    fn budget_aborts_enumeration() {
        let e = rel(&[[0, 1], [1, 2], [2, 3]]);
        let body = [atom(&[Var(0), Var(2)], &e), atom(&[Var(2), Var(1)], &e)];
        let order = body_variable_order(&body, None, 3);
        let mut meter = Budget::unlimited().with_step_limit(2).meter();
        let result = for_each_body_valuation(
            &body,
            &order,
            &mut TrieCache::new(),
            &mut meter,
            &mut |_| {},
        );
        assert!(result.is_err());
    }
}
