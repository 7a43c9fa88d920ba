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
use crate::join::{for_each_valuation, BodyAtom, Tm};
use cspdb_core::budget::Meter;
use cspdb_core::{Budget, Relation, Structure, TraceEvent};
use cspdb_datalog::{evaluate_metered, EvalError, Program, Term};
use std::collections::{BTreeSet, HashMap, HashSet};

/// A rule with names resolved to per-rule variable slots.
#[derive(Debug, Clone)]
struct ResolvedRule {
    head_pred: String,
    head_terms: Vec<Tm>,
    body_preds: Vec<String>,
    body: Vec<BodyAtom>,
    num_vars: usize,
}

/// A materialized recursive Datalog view maintained by DRed.
#[derive(Debug, Clone)]
pub struct DatalogView {
    name: String,
    program: Program,
    rules: Vec<ResolvedRule>,
    /// IDB predicate -> arity (inferred from the rules).
    idb_arity: HashMap<String, usize>,
    /// Current IDB relations; every IDB predicate has an entry.
    idb: HashMap<String, Relation>,
}

fn resolve_rules(program: &Program) -> Result<Vec<ResolvedRule>, IvmError> {
    let mut out = Vec::with_capacity(program.rules.len());
    for rule in &program.rules {
        if !rule.is_safe() {
            return Err(IvmError::Invalid(format!(
                "unsafe rule: head variables must occur in the body ({})",
                rule.head.predicate
            )));
        }
        let mut index: HashMap<String, usize> = HashMap::new();
        fn resolve(terms: &[Term], index: &mut HashMap<String, usize>) -> Vec<Tm> {
            terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => Tm::Const(*c),
                    Term::Var(v) => {
                        let next = index.len();
                        Tm::Var(*index.entry(v.clone()).or_insert(next))
                    }
                })
                .collect()
        }
        let body: Vec<BodyAtom> = rule
            .body
            .iter()
            .map(|a| BodyAtom {
                terms: resolve(&a.terms, &mut index),
            })
            .collect();
        let head_terms = resolve(&rule.head.terms, &mut index);
        out.push(ResolvedRule {
            head_pred: rule.head.predicate.clone(),
            head_terms,
            body_preds: rule.body.iter().map(|a| a.predicate.clone()).collect(),
            body,
            num_vars: index.len(),
        });
    }
    Ok(out)
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
        let eval = evaluate_metered(program, edb, &mut budget.meter()).map_err(|e| match e {
            EvalError::Invalid(m) => IvmError::Invalid(m),
            EvalError::Exhausted(r) => IvmError::Exhausted(r),
        })?;
        let rules = resolve_rules(program)?;
        let idb_names: BTreeSet<String> = program
            .idb_predicates()
            .into_iter()
            .map(str::to_owned)
            .collect();
        let mut idb_arity = HashMap::new();
        for rule in &rules {
            idb_arity
                .entry(rule.head_pred.clone())
                .or_insert(rule.head_terms.len());
        }
        let mut idb = HashMap::new();
        for pred in &idb_names {
            let arity = *idb_arity
                .get(pred)
                .ok_or_else(|| IvmError::Invalid(format!("IDB {pred} has no rule")))?;
            let rel = eval
                .relations
                .get(pred)
                .cloned()
                .unwrap_or_else(|| Relation::empty(arity));
            idb.insert(pred.clone(), rel);
        }
        Ok(DatalogView {
            name: name.into(),
            program: program.clone(),
            rules,
            idb_arity,
            idb,
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

    /// Looks up the relation a body atom ranges over: IDB from the
    /// working map, EDB from the structure.
    fn full<'a>(
        idb: &'a HashMap<String, Relation>,
        edb: &'a Structure,
        pred: &str,
    ) -> Result<&'a Relation, IvmError> {
        if let Some(rel) = idb.get(pred) {
            return Ok(rel);
        }
        edb.relation_by_name(pred)
            .map_err(|e| IvmError::Invalid(e.to_string()))
    }

    /// Fires one rule with body position `pinned` ranging over
    /// `delta_rel` (or fully, when `pinned` is `None`), emitting head
    /// tuples.
    fn fire(
        rule: &ResolvedRule,
        idb: &HashMap<String, Relation>,
        edb: &Structure,
        pinned: Option<(usize, &Relation)>,
        meter: &mut Meter,
        emit: &mut dyn FnMut(Vec<u32>),
    ) -> Result<(), IvmError> {
        let mut rels: Vec<&Relation> = Vec::with_capacity(rule.body.len());
        for (i, pred) in rule.body_preds.iter().enumerate() {
            match pinned {
                Some((p, delta_rel)) if p == i => rels.push(delta_rel),
                _ => rels.push(Self::full(idb, edb, pred)?),
            }
        }
        let head_terms = &rule.head_terms;
        for_each_valuation(&rule.body, &rels, rule.num_vars, meter, &mut |binding| {
            let tuple: Vec<u32> = head_terms
                .iter()
                .map(|t| match *t {
                    Tm::Const(c) => c,
                    Tm::Var(v) => binding[v].expect("safe rule: head vars bound by body"),
                })
                .collect();
            emit(tuple);
        })
        .map_err(IvmError::Exhausted)
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
        let single = Relation::from_tuples(delta.tuple.len(), [delta.tuple.as_slice()])
            .map_err(|e| IvmError::Invalid(e.to_string()))?;
        let mut delta_rels: HashMap<String, Relation> = HashMap::new();
        delta_rels.insert(delta.rel.clone(), single);
        let mut added_total = 0u64;
        loop {
            let mut new_facts: HashMap<String, Vec<Vec<u32>>> = HashMap::new();
            for rule in &self.rules {
                for (i, pred) in rule.body_preds.iter().enumerate() {
                    let Some(delta_rel) = delta_rels.get(pred) else {
                        continue;
                    };
                    let idb = &self.idb;
                    let mut emitted: Vec<Vec<u32>> = Vec::new();
                    Self::fire(rule, idb, post, Some((i, delta_rel)), meter, &mut |t| {
                        emitted.push(t)
                    })?;
                    let bucket = new_facts.entry(rule.head_pred.clone()).or_default();
                    for t in emitted {
                        if !self.idb[&rule.head_pred].contains(&t) {
                            bucket.push(t);
                        }
                    }
                }
            }
            let mut next: HashMap<String, Relation> = HashMap::new();
            for (pred, tuples) in new_facts {
                let arity = self.idb_arity[&pred];
                let mut fresh = Relation::empty(arity);
                let rel = self.idb.get_mut(&pred).expect("IDB entry exists");
                for t in tuples {
                    if rel
                        .insert(&t)
                        .map_err(|e| IvmError::Invalid(e.to_string()))?
                    {
                        fresh
                            .insert(&t)
                            .map_err(|e| IvmError::Invalid(e.to_string()))?;
                        added_total += 1;
                    }
                }
                if !fresh.is_empty() {
                    next.insert(pred, fresh);
                }
            }
            if next.is_empty() {
                break;
            }
            delta_rels = next;
        }
        let name = self.name.clone();
        let total: u64 = self.idb.values().map(|r| r.len() as u64).sum();
        meter.tracer().emit_with(|| TraceEvent::ViewRefreshed {
            view: name,
            added: added_total,
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
        let single = Relation::from_tuples(delta.tuple.len(), [delta.tuple.as_slice()])
            .map_err(|e| IvmError::Invalid(e.to_string()))?;
        // Phase 1: over-delete. A fact is suspect if some derivation
        // against the *old* state uses a deleted fact at one position.
        let mut deleted: HashMap<String, Relation> = HashMap::new();
        deleted.insert(delta.rel.clone(), single);
        let mut overdeleted: HashMap<String, Relation> = self
            .idb_arity
            .iter()
            .map(|(p, &a)| (p.clone(), Relation::empty(a)))
            .collect();
        loop {
            let mut fresh: HashMap<String, Relation> = HashMap::new();
            for rule in &self.rules {
                for (i, pred) in rule.body_preds.iter().enumerate() {
                    let Some(delta_rel) = deleted.get(pred) else {
                        continue;
                    };
                    let idb = &self.idb;
                    let mut emitted: Vec<Vec<u32>> = Vec::new();
                    Self::fire(rule, idb, pre, Some((i, delta_rel)), meter, &mut |t| {
                        emitted.push(t)
                    })?;
                    for t in emitted {
                        if self.idb[&rule.head_pred].contains(&t)
                            && !overdeleted[&rule.head_pred].contains(&t)
                        {
                            overdeleted
                                .get_mut(&rule.head_pred)
                                .expect("entry exists")
                                .insert(&t)
                                .map_err(|e| IvmError::Invalid(e.to_string()))?;
                            fresh
                                .entry(rule.head_pred.clone())
                                .or_insert_with(|| Relation::empty(t.len()))
                                .insert(&t)
                                .map_err(|e| IvmError::Invalid(e.to_string()))?;
                        }
                    }
                }
            }
            if fresh.is_empty() {
                break;
            }
            deleted = fresh;
        }
        let overdeleted_total: u64 = overdeleted.values().map(|r| r.len() as u64).sum();
        // Phase 2: remove the suspects.
        for (pred, gone) in &overdeleted {
            if gone.is_empty() {
                continue;
            }
            let rel = self.idb.get_mut(pred).expect("IDB entry exists");
            *rel = rel.filter(|t| !gone.contains(t));
        }
        // Phase 3: re-derive suspects that still have support in the
        // reduced database, to fixpoint (a re-derived fact may support
        // further re-derivations).
        let mut missing: HashMap<String, HashSet<Vec<u32>>> = overdeleted
            .iter()
            .map(|(p, r)| (p.clone(), r.iter().map(<[u32]>::to_vec).collect()))
            .collect();
        let mut rederived_total = 0u64;
        loop {
            let mut changed = false;
            for rule in &self.rules {
                if missing[&rule.head_pred].is_empty() {
                    continue;
                }
                let idb = &self.idb;
                let mut emitted: Vec<Vec<u32>> = Vec::new();
                Self::fire(rule, idb, post, None, meter, &mut |t| emitted.push(t))?;
                for t in emitted {
                    let still = missing.get_mut(&rule.head_pred).expect("entry exists");
                    if still.remove(t.as_slice()) {
                        self.idb
                            .get_mut(&rule.head_pred)
                            .expect("entry exists")
                            .insert(&t)
                            .map_err(|e| IvmError::Invalid(e.to_string()))?;
                        rederived_total += 1;
                        changed = true;
                    }
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
