//! DRed (delete-and-rederive) maintenance for recursive Datalog views.
//!
//! Insertions continue the semi-naive fixpoint from the delta: each
//! round fires every rule with one body atom pinned to the newly
//! derived facts, so no old derivation is revisited. Deletions run the
//! classical two-phase DRed cycle: first *over-delete* every IDB fact
//! with some derivation that (transitively) uses the removed tuple,
//! then *re-derive* the over-deleted facts that still have alternative
//! support in the reduced database.

use crate::delta::{Delta, DeltaOp, IvmError, Refresh};
use cspdb_core::budget::Meter;
use cspdb_core::{Budget, Relation, Structure, TraceEvent};
use cspdb_datalog::{evaluate_metered, fire_rules, saturate, CompiledRule, Program};
use cspdb_relalg::TrieCache;
use std::collections::HashMap;

/// A materialized recursive Datalog view maintained by DRed.
#[derive(Debug, Clone)]
pub struct DatalogView {
    name: String,
    program: Program,
    rules: Vec<CompiledRule>,
    /// Current IDB relations; every IDB predicate has an entry.
    idb: HashMap<String, Relation>,
}

impl DatalogView {
    /// Registers the view: validates the program against `edb` and
    /// materializes the initial least fixpoint (via the workspace's
    /// semi-naive evaluator).
    ///
    /// # Errors
    ///
    /// [`IvmError::Invalid`] for malformed programs,
    /// [`IvmError::Exhausted`] when the initial fixpoint runs out of
    /// budget.
    pub fn new(
        name: impl Into<String>,
        program: &Program,
        edb: &Structure,
        budget: &Budget,
    ) -> Result<Self, IvmError> {
        let eval = evaluate_metered(program, edb, &mut budget.meter())?;
        let rules = program
            .rules
            .iter()
            .map(CompiledRule::new)
            .collect::<Result<Vec<_>, _>>()
            .map_err(IvmError::Invalid)?;
        Ok(DatalogView {
            name: name.into(),
            program: program.clone(),
            rules,
            // The evaluation holds every IDB predicate, derived or not.
            idb: eval.relations,
        })
    }

    /// The view's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The maintained program.
    pub fn program(&self) -> &Program {
        &self.program
    }

    /// The maintained goal relation.
    pub fn answers(&self) -> &Relation {
        self.idb
            .get(&self.program.goal)
            .expect("goal is an IDB with an entry")
    }

    /// All maintained IDB relations.
    pub fn relations(&self) -> &HashMap<String, Relation> {
        &self.idb
    }

    /// Absorbs one EDB delta. `pre`/`post` are the EDB before and after.
    ///
    /// # Errors
    ///
    /// [`IvmError::Invalid`] when the delta targets an IDB predicate;
    /// [`IvmError::Exhausted`] when maintenance runs out of budget (the
    /// view is then stale and must be dropped or rebuilt).
    pub fn apply(
        &mut self,
        delta: &Delta,
        pre: &Structure,
        post: &Structure,
        budget: &Budget,
    ) -> Result<Refresh, IvmError> {
        if self.idb.contains_key(&delta.rel) {
            return Err(IvmError::Invalid(format!(
                "{} is an IDB predicate; deltas may only touch the EDB",
                delta.rel
            )));
        }
        let touches = self
            .rules
            .iter()
            .any(|r| r.body_preds.iter().any(|p| p == &delta.rel));
        if !touches {
            return Ok(Refresh::default());
        }
        let goal_before = self.answers().len() as u64;
        let mut meter = budget.meter();
        match delta.op {
            DeltaOp::Insert => self.apply_insert(delta, post, &mut meter)?,
            DeltaOp::Delete => self.apply_delete(delta, pre, post, &mut meter)?,
        }
        let goal_after = self.answers().len() as u64;
        Ok(Refresh {
            added: goal_after.saturating_sub(goal_before),
            removed: goal_before.saturating_sub(goal_after),
        })
    }

    /// Semi-naive continuation from the inserted tuple.
    fn apply_insert(
        &mut self,
        delta: &Delta,
        post: &Structure,
        meter: &mut Meter,
    ) -> Result<(), IvmError> {
        let single = Relation::from_flat(delta.tuple.len(), 1, delta.tuple.clone());
        let new = HashMap::from([(delta.rel.clone(), single)]);
        let mut added = 0u64;
        let (rules, idb) = (&self.rules, &mut self.idb);
        saturate(
            rules,
            post,
            idb,
            new,
            &mut TrieCache::new(),
            meter,
            &mut |n| added += n as u64,
        )?;
        let name = self.name.clone();
        let total: u64 = self.idb.values().map(|r| r.len() as u64).sum();
        meter.tracer().emit_with(|| TraceEvent::ViewRefreshed {
            view: name,
            added,
            removed: 0,
            total,
        });
        Ok(())
    }

    /// The DRed cycle: over-delete against the pre-delta state, then
    /// re-derive from the reduced database.
    fn apply_delete(
        &mut self,
        delta: &Delta,
        pre: &Structure,
        post: &Structure,
        meter: &mut Meter,
    ) -> Result<(), IvmError> {
        // Phase 1: over-delete. A fact is suspect if some derivation
        // against the *old* state uses a deleted fact at one position.
        // The IDBs stay fixed until phase 2, so their trie views too.
        let single = Relation::from_flat(delta.tuple.len(), 1, delta.tuple.clone());
        let mut deleted = HashMap::from([(delta.rel.clone(), single)]);
        let mut overdeleted: HashMap<String, Relation> = self
            .idb
            .iter()
            .map(|(p, r)| (p.clone(), Relation::empty(r.arity())))
            .collect();
        let mut tries = TrieCache::new();
        while !deleted.is_empty() {
            let derived = fire_rules(
                &self.rules,
                pre,
                &self.idb,
                Some(&deleted),
                &mut tries,
                meter,
            )?;
            deleted.clear();
            for (pred, facts) in derived {
                let gone = &overdeleted[&pred];
                let suspects = facts.filter(|t| self.idb[&pred].contains(t) && !gone.contains(t));
                if !suspects.is_empty() {
                    let all = gone.union(&suspects).expect("same arity");
                    overdeleted.insert(pred.clone(), all);
                    deleted.insert(pred, suspects);
                }
            }
        }
        let overdeleted_total: u64 = overdeleted.values().map(|r| r.len() as u64).sum();
        // Phase 2: remove the suspects.
        for (pred, gone) in &overdeleted {
            if !gone.is_empty() {
                let rel = self.idb.get_mut(pred).expect("IDB entry exists");
                *rel = rel.filter(|t| !gone.contains(t));
            }
        }
        // Phase 3: re-derive suspects that still have support in the
        // reduced database, to fixpoint (a re-derived fact may support
        // further re-derivations).
        let mut missing = overdeleted;
        let mut rederived_total = 0u64;
        let mut tries = TrieCache::new();
        loop {
            let active = self
                .rules
                .iter()
                .filter(|r| !missing[&r.head_pred].is_empty());
            let derived = fire_rules(active, post, &self.idb, None, &mut tries, meter)?;
            let mut changed = false;
            for (pred, facts) in derived {
                let still = missing.get_mut(&pred).expect("entry exists");
                let back = facts.filter(|t| still.remove(t));
                if !back.is_empty() {
                    let rel = self.idb.get_mut(&pred).expect("entry exists");
                    *rel = rel.union(&back).expect("same arity");
                    tries.forget(&pred);
                    rederived_total += back.len() as u64;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        let name = self.name.clone();
        let total: u64 = self.idb.values().map(|r| r.len() as u64).sum();
        meter.tracer().emit_with(|| TraceEvent::ViewRederived {
            view: name,
            overdeleted: overdeleted_total,
            rederived: rederived_total,
            total,
        });
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::structure_with_delta;
    use cspdb_core::Vocabulary;
    use cspdb_datalog::parse_program;

    fn graph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let voc = Vocabulary::new([("E", 2)]).unwrap();
        let mut s = Structure::new(voc, n);
        for &(u, v) in edges {
            s.insert_by_name("E", &[u, v]).unwrap();
        }
        s
    }

    fn tc_program() -> Program {
        parse_program(
            "T(X,Y) :- E(X,Y).\n\
             T(X,Y) :- E(X,Z), T(Z,Y).\n\
             % goal: T",
        )
        .unwrap()
    }

    fn recompute(program: &Program, edb: &Structure) -> Relation {
        let eval = cspdb_datalog::evaluate(program, edb).unwrap();
        eval.relations
            .get(&program.goal)
            .cloned()
            .unwrap_or_else(|| Relation::empty(2))
    }

    #[test]
    fn transitive_closure_tracks_recompute_through_deltas() {
        let program = tc_program();
        let mut db = graph(6, &[(0, 1), (1, 2), (3, 4)]);
        let budget = Budget::unlimited();
        let mut view = DatalogView::new("tc", &program, &db, &budget).unwrap();
        assert_eq!(view.answers(), &recompute(&program, &db));
        let deltas = [
            Delta::insert("E", &[2, 3]),
            Delta::insert("E", &[4, 5]),
            Delta::delete("E", &[1, 2]),
            Delta::insert("E", &[5, 0]),
            Delta::delete("E", &[2, 3]),
            Delta::delete("E", &[0, 1]),
        ];
        for delta in &deltas {
            let post = structure_with_delta(&db, delta).unwrap();
            view.apply(delta, &db, &post, &budget).unwrap();
            db = post;
            assert_eq!(view.answers(), &recompute(&program, &db), "after {delta:?}");
        }
    }

    #[test]
    fn delete_with_alternative_support_rederives() {
        // Two paths 0->2: direct edge and via 1. Deleting the direct
        // edge over-deletes T(0,2) but re-derivation restores it.
        let program = tc_program();
        let db = graph(3, &[(0, 1), (1, 2), (0, 2)]);
        let budget = Budget::unlimited();
        let mut view = DatalogView::new("tc", &program, &db, &budget).unwrap();
        let delta = Delta::delete("E", &[0, 2]);
        let post = structure_with_delta(&db, &delta).unwrap();
        view.apply(&delta, &db, &post, &budget).unwrap();
        assert!(view.answers().contains(&[0, 2]), "alternative support");
        assert_eq!(view.answers(), &recompute(&program, &post));
    }

    #[test]
    fn delta_on_idb_predicate_is_invalid() {
        let program = tc_program();
        let db = graph(3, &[(0, 1)]);
        let budget = Budget::unlimited();
        let mut view = DatalogView::new("tc", &program, &db, &budget).unwrap();
        let delta = Delta::insert("T", &[0, 1]);
        assert!(matches!(
            view.apply(&delta, &db, &db, &budget),
            Err(IvmError::Invalid(_))
        ));
    }

    #[test]
    fn cyclic_support_is_fully_deleted() {
        // A 2-cycle: deleting one edge must not let T facts keep each
        // other alive through circular "support".
        let program = tc_program();
        let db = graph(2, &[(0, 1), (1, 0)]);
        let budget = Budget::unlimited();
        let mut view = DatalogView::new("tc", &program, &db, &budget).unwrap();
        let delta = Delta::delete("E", &[1, 0]);
        let post = structure_with_delta(&db, &delta).unwrap();
        view.apply(&delta, &db, &post, &budget).unwrap();
        assert_eq!(view.answers(), &recompute(&program, &post));
        assert!(!view.answers().contains(&[1, 1]));
        assert!(!view.answers().contains(&[0, 0]));
    }
}
