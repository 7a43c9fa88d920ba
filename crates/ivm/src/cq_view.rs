//! Counting-based maintenance for non-recursive conjunctive queries.
//!
//! Every answer tuple carries its *derivation count*: the number of
//! valuations of the query body that project to it. An insert adds the
//! derivations that use the new tuple at least once (the standard delta
//! expansion: for each occurrence of the changed predicate, pin that
//! atom to the delta tuple); a delete subtracts the same sum. A tuple
//! leaves the answer set exactly when its count reaches zero, so
//! deletions never recompute.
//!
//! Bodies run on the rule-body kernel
//! ([`cspdb_relalg::for_each_body_valuation`]). A delta binds its pinned
//! atom's variables first, so every other atom is read by seeks on
//! bound columns. The trie views those seeks need are built when the
//! view registers and patched one tuple per delta, so a delta never
//! rescans a relation.

use crate::delta::{Delta, DeltaOp, IvmError, Refresh};
use cspdb_core::budget::{ExhaustionReason, Meter};
use cspdb_core::{Budget, Relation, Structure, TraceEvent};
use cspdb_cq::ConjunctiveQuery;
use cspdb_relalg::{body_variable_order, for_each_body_valuation, BodyAtom, BodyTerm, TrieCache};
use std::borrow::Cow;
use std::collections::{HashMap, HashSet};

/// A materialized conjunctive-query view maintained by derivation
/// counting.
#[derive(Debug, Clone)]
pub struct CqView {
    query: ConjunctiveQuery,
    /// Resolved body: per atom, its variables as slots of
    /// `query.variables()`.
    body: Vec<Vec<BodyTerm>>,
    /// The slot of each distinguished variable, in head order.
    head: Vec<usize>,
    /// Per atom, the variable order of a delta pinned to it, fixed at
    /// registration.
    orders: Vec<Vec<usize>>,
    /// The trie views those orders read, kept current with the
    /// database state that holds the delta tuple (see [`CqView::apply`]).
    tries: TrieCache,
    /// Number of variable slots.
    num_vars: usize,
    /// Derivation count per answer tuple. Invariant: every count > 0.
    counts: HashMap<Box<[u32]>, u64>,
    /// The current answer set (keys of `counts`), kept materialized.
    answers: Relation,
}

impl CqView {
    /// Registers the view: resolves the query against `db`'s vocabulary,
    /// computes the initial derivation counts with one full enumeration
    /// and builds the trie views its deltas will read.
    ///
    /// # Errors
    ///
    /// [`IvmError::Invalid`] when the query does not fit the database
    /// (unknown predicate, arity mismatch, distinguished variable
    /// missing from the body); [`IvmError::Exhausted`] when the budget
    /// runs out mid-enumeration.
    pub fn new(
        query: &ConjunctiveQuery,
        db: &Structure,
        budget: &Budget,
    ) -> Result<Self, IvmError> {
        let vars = query.variables();
        let slot = |v: &str| vars.iter().position(|x| *x == v).expect("a query variable");
        for d in &query.distinguished {
            if !query.atoms.iter().any(|a| a.args.iter().any(|x| x == d)) {
                return Err(IvmError::Invalid(format!(
                    "distinguished variable {d} does not occur in the body"
                )));
            }
        }
        let mut body = Vec::with_capacity(query.atoms.len());
        let mut rels = Vec::with_capacity(query.atoms.len());
        for atom in &query.atoms {
            let rel = db
                .relation_by_name(&atom.predicate)
                .map_err(|e| IvmError::Invalid(e.to_string()))?;
            if rel.arity() != atom.args.len() {
                return Err(IvmError::Invalid(format!(
                    "atom {} has {} arguments but relation arity is {}",
                    atom.predicate,
                    atom.args.len(),
                    rel.arity()
                )));
            }
            body.push(atom.args.iter().map(|v| BodyTerm::Var(slot(v))).collect());
            rels.push(rel);
        }
        let mut view = CqView {
            query: query.clone(),
            body,
            head: query.distinguished.iter().map(|d| slot(d)).collect(),
            orders: Vec::new(),
            tries: TrieCache::new(),
            num_vars: vars.len(),
            counts: HashMap::new(),
            answers: Relation::empty(query.distinguished.len()),
        };
        let mut meter = budget.meter();
        let mut counts = HashMap::new();
        view.count(
            &mut TrieCache::new(),
            &rels,
            None,
            &[],
            &[],
            &mut meter,
            &mut counts,
        )
        .map_err(IvmError::Exhausted)?;
        view.answers = Relation::from_tuples_named(&query.name, view.head.len(), counts.keys())
            .map_err(|e| IvmError::Invalid(e.to_string()))?;
        view.counts = counts;
        let mut tries = TrieCache::new();
        for pinned in 0..view.body.len() {
            let mut atoms = view.atoms(&rels);
            let order = body_variable_order(&atoms, Some(pinned), view.num_vars);
            atoms[pinned].cache_as = None; // a delta replaces it
            tries
                .prepare(&atoms, &order, &mut meter)
                .map_err(IvmError::Exhausted)?;
            view.orders.push(order);
        }
        view.tries = tries;
        Ok(view)
    }

    /// The body atoms over `rels`, each cached under its predicate.
    fn atoms<'a>(&'a self, rels: &[&'a Relation]) -> Vec<BodyAtom<'a>> {
        self.body
            .iter()
            .zip(&self.query.atoms)
            .zip(rels)
            .map(|((terms, atom), &rel)| BodyAtom {
                terms,
                rel,
                cache_as: Some(atom.predicate.as_str()),
            })
            .collect()
    }

    /// Adds one derivation to `counts` per valuation of the body, atom
    /// `i` ranging over `rels[i]`, that instantiates none of the atoms
    /// in `distinct` to `tuple`. With `pinned`, that atom ranges over a
    /// delta and is read as it is, under the order fixed for it; the
    /// other atoms read their trie views from `tries`.
    #[allow(clippy::too_many_arguments)]
    fn count(
        &self,
        tries: &mut TrieCache,
        rels: &[&Relation],
        pinned: Option<usize>,
        distinct: &[usize],
        tuple: &[u32],
        meter: &mut Meter,
        counts: &mut HashMap<Box<[u32]>, u64>,
    ) -> Result<(), ExhaustionReason> {
        let mut atoms = self.atoms(rels);
        let order = match pinned {
            Some(p) => {
                atoms[p].cache_as = None;
                Cow::Borrowed(&self.orders[p])
            }
            None => Cow::Owned(body_variable_order(&atoms, None, self.num_vars)),
        };
        let mut key = Vec::with_capacity(self.head.len());
        for_each_body_valuation(&atoms, &order, tries, meter, &mut |valuation| {
            let instantiates_to_tuple = |j: usize| {
                self.body[j]
                    .iter()
                    .zip(tuple)
                    .all(|(term, &x)| match *term {
                        BodyTerm::Var(v) => valuation[v] == x,
                        BodyTerm::Const(c) => c == x,
                    })
            };
            if distinct.iter().any(|&j| instantiates_to_tuple(j)) {
                return;
            }
            key.clear();
            key.extend(self.head.iter().map(|&v| valuation[v]));
            match counts.get_mut(key.as_slice()) {
                Some(n) => *n += 1,
                None => {
                    counts.insert(key.as_slice().into(), 1);
                }
            }
        })?;
        Ok(())
    }

    /// The derivations that use `delta`'s tuple t at least once, by
    /// answer tuple. Occurrence k of the changed predicate pins its atom
    /// to {t} while every other atom ranges over the state that holds t
    /// (`post` for an insert, `pre` for a delete). A derivation with t
    /// at several occurrences is counted once: at the last of them for
    /// an insert and at the first for a delete, which is the classic
    /// expansion where earlier occurrences see the new relation and
    /// later ones the old. `tries` follows the same state: t is
    /// inserted before counting and removed after.
    fn delta_counts(
        &self,
        tries: &mut TrieCache,
        delta: &Delta,
        occurrences: &[usize],
        state: &Structure,
        meter: &mut Meter,
    ) -> Result<HashMap<Box<[u32]>, u64>, ExhaustionReason> {
        let insert = delta.op == DeltaOp::Insert;
        let single = Relation::from_flat(delta.tuple.len(), 1, delta.tuple.clone());
        let mut rels: Vec<&Relation> = self
            .query
            .atoms
            .iter()
            .map(|a| {
                state
                    .relation_by_name(&a.predicate)
                    .expect("validated at registration")
            })
            .collect();
        if insert {
            tries.apply_delta(&delta.rel, &delta.tuple, true, meter)?;
        }
        let mut counts = HashMap::new();
        for (k, &pinned) in occurrences.iter().enumerate() {
            let unpinned = std::mem::replace(&mut rels[pinned], &single);
            let distinct = if insert {
                &occurrences[k + 1..]
            } else {
                &occurrences[..k]
            };
            self.count(
                tries,
                &rels,
                Some(pinned),
                distinct,
                &delta.tuple,
                meter,
                &mut counts,
            )?;
            rels[pinned] = unpinned;
        }
        if !insert {
            tries.apply_delta(&delta.rel, &delta.tuple, false, meter)?;
        }
        Ok(counts)
    }

    /// The query this view materializes.
    pub fn query(&self) -> &ConjunctiveQuery {
        &self.query
    }

    /// The maintained answer set.
    pub fn answers(&self) -> &Relation {
        &self.answers
    }

    /// The derivation count of one answer tuple (0 when absent).
    pub fn derivations(&self, tuple: &[u32]) -> u64 {
        self.counts.get(tuple).copied().unwrap_or(0)
    }

    /// Absorbs one delta. `pre` and `post` are the database before and
    /// after the delta (the delta must actually separate them — no-op
    /// deltas are rejected upstream by [`crate::structure_with_delta`]),
    /// and `pre` must be the state the view last saw: the state it
    /// registered on, or the `post` of its previous delta.
    ///
    /// # Errors
    ///
    /// [`IvmError::Exhausted`] when the budget runs out; the view is
    /// then stale and must be dropped or rebuilt.
    pub fn apply(
        &mut self,
        delta: &Delta,
        pre: &Structure,
        post: &Structure,
        budget: &Budget,
    ) -> Result<Refresh, IvmError> {
        let occurrences: Vec<usize> = self
            .query
            .atoms
            .iter()
            .enumerate()
            .filter(|(_, a)| a.predicate == delta.rel)
            .map(|(i, _)| i)
            .collect();
        if occurrences.is_empty() {
            return Ok(Refresh::default());
        }
        if delta.tuple.len() != self.query.atoms[occurrences[0]].args.len() {
            return Err(IvmError::Invalid(format!(
                "delta tuple {:?} does not fit relation {}",
                delta.tuple, delta.rel
            )));
        }
        let mut meter = budget.meter();
        let state = match delta.op {
            DeltaOp::Insert => post,
            DeltaOp::Delete => pre,
        };
        let mut tries = std::mem::take(&mut self.tries);
        let counted = self.delta_counts(&mut tries, delta, &occurrences, state, &mut meter);
        self.tries = tries;
        let delta_counts = counted.map_err(IvmError::Exhausted)?;
        // The same expansion serves both directions: for an insert the
        // counted derivations are exactly the ones that exist now and
        // use t (added); for a delete, exactly the ones that existed
        // before and used t (removed) — each counted once, at the
        // first occurrence where t appears.
        let mut refresh = Refresh::default();
        match delta.op {
            DeltaOp::Insert => {
                for (key, n) in delta_counts {
                    if let Some(count) = self.counts.get_mut(&key) {
                        *count += n;
                        continue;
                    }
                    self.answers
                        .insert(&key)
                        .map_err(|e| IvmError::Invalid(e.to_string()))?;
                    self.counts.insert(key, n);
                    refresh.added += 1;
                }
            }
            DeltaOp::Delete => {
                let mut gone: HashSet<Box<[u32]>> = HashSet::new();
                for (key, n) in delta_counts {
                    match self.counts.get_mut(&key) {
                        Some(entry) if *entry > n => *entry -= n,
                        Some(_) => {
                            self.counts.remove(&key);
                            gone.insert(key);
                        }
                        None => {
                            return Err(IvmError::Invalid(format!(
                                "count underflow for {:?}: view out of sync",
                                key
                            )))
                        }
                    }
                }
                if !gone.is_empty() {
                    self.answers = self.answers.filter(|t| !gone.contains(t));
                    refresh.removed = gone.len() as u64;
                }
            }
        }
        meter.tracer().emit_with(|| TraceEvent::ViewRefreshed {
            view: self.query.name.clone(),
            added: refresh.added,
            removed: refresh.removed,
            total: self.answers.len() as u64,
        });
        Ok(refresh)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::structure_with_delta;
    use cspdb_core::Vocabulary;
    use cspdb_cq::evaluate_by_join;

    fn graph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let voc = Vocabulary::new([("E", 2)]).unwrap();
        let mut s = Structure::new(voc, n);
        for &(u, v) in edges {
            s.insert_by_name("E", &[u, v]).unwrap();
        }
        s
    }

    #[test]
    fn counting_view_tracks_recompute_through_deltas() {
        let q = ConjunctiveQuery::parse("Q(X,Y) :- E(X,Z), E(Z,Y)").unwrap();
        let mut db = graph(5, &[(0, 1), (1, 2), (2, 3)]);
        let budget = Budget::unlimited();
        let mut view = CqView::new(&q, &db, &budget).unwrap();
        assert_eq!(view.answers(), &evaluate_by_join(&q, &db).unwrap());
        let deltas = [
            Delta::insert("E", &[3, 4]),
            Delta::insert("E", &[1, 3]),
            Delta::delete("E", &[1, 2]),
            Delta::insert("E", &[2, 2]),
            Delta::delete("E", &[0, 1]),
        ];
        for delta in &deltas {
            let post = structure_with_delta(&db, delta).unwrap();
            view.apply(delta, &db, &post, &budget).unwrap();
            db = post;
            assert_eq!(
                view.answers(),
                &evaluate_by_join(&q, &db).unwrap(),
                "after {delta:?}"
            );
        }
    }

    #[test]
    fn delete_decrements_instead_of_removing_multiply_derived() {
        // Diamond: (0,3) has two derivations; deleting one leg keeps it.
        let q = ConjunctiveQuery::parse("Q(X,Y) :- E(X,Z), E(Z,Y)").unwrap();
        let db = graph(4, &[(0, 1), (0, 2), (1, 3), (2, 3)]);
        let budget = Budget::unlimited();
        let mut view = CqView::new(&q, &db, &budget).unwrap();
        assert_eq!(view.derivations(&[0, 3]), 2);
        let delta = Delta::delete("E", &[0, 1]);
        let post = structure_with_delta(&db, &delta).unwrap();
        let refresh = view.apply(&delta, &db, &post, &budget).unwrap();
        assert_eq!(refresh.removed, 0, "still derivable via the other leg");
        assert_eq!(view.derivations(&[0, 3]), 1);
        assert!(view.answers().contains(&[0, 3]));
    }

    #[test]
    fn self_join_deltas_count_mixed_derivations_once() {
        // E(X,Z), E(Z,Y) with a self-loop insert: the new tuple can
        // occupy both atoms at once; the expansion must count (2,2)
        // exactly the right number of times.
        let q = ConjunctiveQuery::parse("Q(X,Y) :- E(X,Z), E(Z,Y)").unwrap();
        let db = graph(3, &[(1, 2), (2, 0)]);
        let budget = Budget::unlimited();
        let mut view = CqView::new(&q, &db, &budget).unwrap();
        let delta = Delta::insert("E", &[2, 2]);
        let post = structure_with_delta(&db, &delta).unwrap();
        view.apply(&delta, &db, &post, &budget).unwrap();
        assert_eq!(view.answers(), &evaluate_by_join(&q, &post).unwrap());
        // And removing it again restores the original view exactly.
        let rm = Delta::delete("E", &[2, 2]);
        let back = structure_with_delta(&post, &rm).unwrap();
        view.apply(&rm, &post, &back, &budget).unwrap();
        assert_eq!(view.answers(), &evaluate_by_join(&q, &db).unwrap());
    }

    #[test]
    fn unaffected_predicate_is_a_cheap_noop() {
        let voc = Vocabulary::new([("E", 2), ("F", 2)]).unwrap();
        let mut s = Structure::new(voc, 3);
        s.insert_by_name("E", &[0, 1]).unwrap();
        let q = ConjunctiveQuery::parse("Q(X,Y) :- E(X,Y)").unwrap();
        let budget = Budget::unlimited();
        let mut view = CqView::new(&q, &s, &budget).unwrap();
        let delta = Delta::insert("F", &[1, 2]);
        let post = structure_with_delta(&s, &delta).unwrap();
        let refresh = view.apply(&delta, &s, &post, &budget).unwrap();
        assert_eq!(refresh, Refresh::default());
    }
}
