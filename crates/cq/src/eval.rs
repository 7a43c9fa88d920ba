//! Conjunctive-query evaluation — two independent engines.
//!
//! Evaluating `Q` on a database `D` is the same problem as enumerating
//! homomorphisms `D^Q → D` projected to the distinguished variables
//! (Proposition 2.2), and also the same as joining the body atoms and
//! projecting (Proposition 2.1's view). Both routes are implemented and
//! cross-checked: [`evaluate_by_search`] goes through the backtracking
//! homomorphism solver, [`evaluate_by_join`] through the relational
//! algebra.

use crate::canonical::canonical_database;
use crate::query::ConjunctiveQuery;
use cspdb_core::budget::{Budget, ExhaustionReason, Meter};
use cspdb_core::{Relation, Structure};
use cspdb_relalg::NamedRelation;
use std::collections::{HashMap, HashSet};
use std::ops::ControlFlow;

/// Why a budget-governed evaluation produced no answer relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CqEvalError {
    /// The query does not fit the database (missing predicate, arity
    /// mismatch) — evaluation cannot start.
    Invalid(String),
    /// The budget ran out mid-evaluation — inconclusive.
    Exhausted(ExhaustionReason),
}

impl std::fmt::Display for CqEvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CqEvalError::Invalid(m) => f.write_str(m),
            CqEvalError::Exhausted(r) => write!(f, "budget exhausted: {r}"),
        }
    }
}

impl std::error::Error for CqEvalError {}

/// Evaluates `Q` on `db` by homomorphism search from the canonical
/// database: returns the answer relation over the distinguished
/// variables (for Boolean queries: nonempty = true).
///
/// # Errors
///
/// Returns a message if a query predicate is missing from `db` or used
/// with the wrong arity.
pub fn evaluate_by_search(q: &ConjunctiveQuery, db: &Structure) -> Result<Relation, String> {
    evaluate_by_search_metered(q, db, &mut Meter::default()).map_err(|e| e.to_string())
}

/// [`evaluate_by_search`] under a [`Meter`]. The search enumerates
/// homomorphisms, but never more than the answer needs: a Boolean query
/// (no distinguished variables) stops at the first witness, and a
/// non-Boolean query tracks the projected tuples already seen in a
/// `HashSet` so a high-multiplicity database cannot make it buffer
/// exponentially many duplicates.
///
/// # Errors
///
/// [`CqEvalError::Invalid`] if the query does not fit the database,
/// [`CqEvalError::Exhausted`] if the budget ran out (inconclusive).
pub fn evaluate_by_search_metered(
    q: &ConjunctiveQuery,
    db: &Structure,
    meter: &mut Meter,
) -> Result<Relation, CqEvalError> {
    let canon = canonical_database(q, false);
    check_compatible(q, db).map_err(CqEvalError::Invalid)?;
    // Rebuild the canonical structure over db's vocabulary so the solver
    // sees one shared signature.
    let a = retype(&canon.structure, db).map_err(CqEvalError::Invalid)?;
    let dist_elems: Vec<u32> = q
        .distinguished
        .iter()
        .map(|v| canon.element_of_var[v])
        .collect();
    let problem = cspdb_solver::Problem::from_structures(&a, db);
    let mut search =
        cspdb_solver::Search::with_meter(&problem, cspdb_solver::Config::default(), meter);
    let boolean = q.is_boolean();
    let mut answers: HashSet<Vec<u32>> = HashSet::new();
    let outcome = search.run(None, |h| {
        answers.insert(dist_elems.iter().map(|&e| h[e as usize]).collect());
        if boolean {
            // One witness decides a Boolean query; enumerating the rest
            // of the homomorphisms would be pure waste.
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    });
    if let cspdb_solver::Outcome::BudgetExhausted(reason) = outcome {
        return Err(CqEvalError::Exhausted(reason));
    }
    Relation::from_tuples_named(&q.name, dist_elems.len(), answers.iter())
        .map_err(|e| CqEvalError::Invalid(e.to_string()))
}

/// Evaluates `Q` on `db` through the relational algebra: one
/// [`NamedRelation`] per atom (repeated variables filtered), naturally
/// joined, projected to the distinguished variables.
///
/// # Errors
///
/// Returns a message if a query predicate is missing from `db` or used
/// with the wrong arity, or if a Boolean query's empty projection is
/// requested on an empty join (handled: returns the empty relation).
pub fn evaluate_by_join(q: &ConjunctiveQuery, db: &Structure) -> Result<Relation, String> {
    evaluate_by_join_budgeted(q, db, &Budget::unlimited()).map_err(|e| e.to_string())
}

/// [`evaluate_by_join`] under a [`Budget`]: the atom relations run
/// through the planner-ordered, index-backed join pipeline
/// ([`cspdb_relalg::join_all_metered`]), charging every intermediate row
/// against the tuple cap. Attach a trace sink to the budget to observe
/// the chosen join order
/// ([`TraceEvent::PlanChosen`](cspdb_core::trace::TraceEvent)) and the
/// per-operator cardinalities — this is what `cspdb cq --explain`
/// surfaces.
///
/// # Errors
///
/// [`CqEvalError::Invalid`] if the query does not fit the database,
/// [`CqEvalError::Exhausted`] if the budget ran out (inconclusive).
pub fn evaluate_by_join_budgeted(
    q: &ConjunctiveQuery,
    db: &Structure,
    budget: &Budget,
) -> Result<Relation, CqEvalError> {
    let relations = atom_relations(q, db).map_err(CqEvalError::Invalid)?;
    let mut meter = budget.meter();
    let joined =
        cspdb_relalg::join_all_metered(&relations, &mut meter).map_err(CqEvalError::Exhausted)?;
    let vars = q.variables();
    let dist_attrs: Vec<u32> = q
        .distinguished
        .iter()
        .map(|d| vars.iter().position(|v| v == d).expect("query variable") as u32)
        .collect();
    if joined.is_empty() {
        return Ok(Relation::empty(dist_attrs.len()));
    }
    Ok(joined.project(&dist_attrs).into_relation())
}

/// Lowers each atom of `q` to a [`NamedRelation`] over `db`, attribute
/// `i` being the `i`-th of [`ConjunctiveQuery::variables`]. An atom that
/// repeats a variable keeps the tuples that agree on it, in one column.
///
/// # Errors
///
/// Returns a message if a query predicate is missing from `db` or used
/// with the wrong arity.
pub fn atom_relations(q: &ConjunctiveQuery, db: &Structure) -> Result<Vec<NamedRelation>, String> {
    check_compatible(q, db)?;
    let vars = q.variables();
    let var_index: HashMap<&str, u32> = vars
        .iter()
        .enumerate()
        .map(|(i, &v)| (v, i as u32))
        .collect();
    let mut relations = Vec::with_capacity(q.atoms.len());
    for atom in &q.atoms {
        let rel = db
            .relation_by_name(&atom.predicate)
            .map_err(|e| e.to_string())?;
        // `first[i]`: the argument where the variable at argument `i`
        // first occurs.
        let first: Vec<usize> = (0..atom.args.len())
            .map(|i| {
                atom.args
                    .iter()
                    .position(|w| *w == atom.args[i])
                    .unwrap_or(i)
            })
            .collect();
        let columns: Vec<usize> = (0..first.len()).filter(|&i| first[i] == i).collect();
        let schema = columns.iter().map(|&i| var_index[atom.args[i].as_str()]);
        let lowered = if columns.len() == first.len() {
            rel.clone()
        } else {
            rel.filter(|t| first.iter().enumerate().all(|(i, &f)| t[i] == t[f]))
                .project(&columns)
        };
        relations.push(NamedRelation::from_relation(schema.collect(), lowered));
    }
    Ok(relations)
}

/// True if the Boolean query holds on `db` (via the join engine).
///
/// # Errors
///
/// Propagates evaluation errors.
pub fn boolean_holds(q: &ConjunctiveQuery, db: &Structure) -> Result<bool, String> {
    Ok(!evaluate_by_join(q, db)?.is_empty())
}

fn check_compatible(q: &ConjunctiveQuery, db: &Structure) -> Result<(), String> {
    for a in &q.atoms {
        let rel = db
            .relation_by_name(&a.predicate)
            .map_err(|_| format!("predicate {} missing from database", a.predicate))?;
        if rel.arity() != a.args.len() {
            return Err(format!(
                "predicate {}: query arity {}, database arity {}",
                a.predicate,
                a.args.len(),
                rel.arity()
            ));
        }
    }
    Ok(())
}

/// Rebuilds `a` over `db`'s vocabulary (matching predicates by name) so
/// the homomorphism solver can run on a shared signature.
fn retype(a: &Structure, db: &Structure) -> Result<Structure, String> {
    let voc = db.vocabulary().clone();
    let mut out = Structure::new(voc.clone(), a.domain_size());
    for (id, rel) in a.relations() {
        let name = a.vocabulary().name(id);
        let new_id = voc.id(name).map_err(|e| e.to_string())?;
        for t in rel.iter() {
            out.insert(new_id, t).map_err(|e| e.to_string())?;
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::graphs::{cycle, digraph, directed_path};

    #[test]
    fn path_query_on_directed_path() {
        // Q(X,Y) :- E(X,Z), E(Z,Y): pairs at distance 2.
        let q = ConjunctiveQuery::parse("Q(X,Y) :- E(X,Z), E(Z,Y)").unwrap();
        let db = directed_path(4);
        let by_search = evaluate_by_search(&q, &db).unwrap();
        let by_join = evaluate_by_join(&q, &db).unwrap();
        assert_eq!(by_search, by_join);
        assert_eq!(by_search.len(), 2);
        assert!(by_search.contains(&[0, 2]));
        assert!(by_search.contains(&[1, 3]));
    }

    #[test]
    fn boolean_triangle_query() {
        let q = ConjunctiveQuery::parse("Q :- E(X,Y), E(Y,Z), E(Z,X)").unwrap();
        assert!(boolean_holds(&q, &cycle(3)).unwrap());
        // Directed 3-cycle needed in a directed graph.
        assert!(!boolean_holds(&q, &directed_path(5)).unwrap());
        assert!(boolean_holds(&q, &digraph(3, &[(0, 1), (1, 2), (2, 0)])).unwrap());
    }

    #[test]
    fn engines_agree_on_pseudorandom_inputs() {
        let mut state = 0xC0FFEE123456789u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let queries = [
            "Q(X) :- E(X,Y), E(Y,X)",
            "Q(X,Y) :- E(X,Z), E(Z,W), E(W,Y)",
            "Q :- E(X,Y), E(Y,Z), E(X,Z)",
            "Q(X) :- E(X,X)",
        ];
        for qsrc in queries {
            let q = ConjunctiveQuery::parse(qsrc).unwrap();
            for _ in 0..8 {
                let n = 3 + (next() % 4) as usize;
                let mut edges = Vec::new();
                for u in 0..n as u32 {
                    for v in 0..n as u32 {
                        if next() % 3 == 0 {
                            edges.push((u, v));
                        }
                    }
                }
                let db = digraph(n, &edges);
                assert_eq!(
                    evaluate_by_search(&q, &db).unwrap(),
                    evaluate_by_join(&q, &db).unwrap(),
                    "query {qsrc}"
                );
            }
        }
    }

    #[test]
    fn repeated_variable_atom() {
        let q = ConjunctiveQuery::parse("Q(X) :- E(X,X)").unwrap();
        let db = digraph(3, &[(0, 0), (1, 2)]);
        let ans = evaluate_by_join(&q, &db).unwrap();
        assert_eq!(ans.len(), 1);
        assert!(ans.contains(&[0]));
    }

    #[test]
    fn missing_predicate_is_error() {
        let q = ConjunctiveQuery::parse("Q :- F(X,Y)").unwrap();
        assert!(evaluate_by_join(&q, &cycle(3)).is_err());
        assert!(evaluate_by_search(&q, &cycle(3)).is_err());
    }

    /// The complete digraph on `n` vertices (all n² edges): every
    /// variable assignment is a homomorphism, the worst case for an
    /// enumerate-everything search.
    fn complete_digraph(n: u32) -> cspdb_core::Structure {
        let edges: Vec<(u32, u32)> = (0..n).flat_map(|u| (0..n).map(move |v| (u, v))).collect();
        digraph(n as usize, &edges)
    }

    #[test]
    fn boolean_search_stops_at_first_witness() {
        use cspdb_core::trace::{Recorder, TraceEvent};
        use std::sync::Arc;

        // On K12 every one of the 12³ = 1728 assignments of {X,Y,Z} is a
        // homomorphism; a search that enumerates them all expands at
        // least that many nodes. The Boolean early exit must stop after
        // the first witness.
        let db = complete_digraph(12);
        let q = ConjunctiveQuery::parse("Q :- E(X,Y), E(Y,Z)").unwrap();
        let rec = Arc::new(Recorder::new());
        let budget = Budget::unlimited().with_trace(rec.clone());
        let ans = evaluate_by_search_metered(&q, &db, &mut budget.meter()).unwrap();
        assert!(!ans.is_empty(), "K12 satisfies the query");
        let nodes = rec
            .events()
            .iter()
            .find_map(|e| match e {
                TraceEvent::Search { nodes, .. } => Some(*nodes),
                _ => None,
            })
            .expect("search emits its stats");
        assert!(
            nodes < 100,
            "Boolean query must stop at the first witness, expanded {nodes} nodes"
        );
    }

    #[test]
    fn high_multiplicity_projection_deduplicates() {
        // Q(X) :- E(X,Y) on K9: every X has 9 matching Y's; the search
        // engine must not buffer the duplicates, and both engines agree.
        let db = complete_digraph(9);
        let q = ConjunctiveQuery::parse("Q(X) :- E(X,Y)").unwrap();
        let by_search = evaluate_by_search(&q, &db).unwrap();
        let by_join = evaluate_by_join(&q, &db).unwrap();
        assert_eq!(by_search, by_join);
        assert_eq!(by_search.len(), 9);
    }

    #[test]
    fn budgeted_join_eval_reports_exhaustion() {
        let db = complete_digraph(10);
        let q = ConjunctiveQuery::parse("Q(X,Y) :- E(X,Z), E(Z,Y)").unwrap();
        let tiny = Budget::unlimited().with_tuple_limit(5);
        match evaluate_by_join_budgeted(&q, &db, &tiny) {
            Err(CqEvalError::Exhausted(ExhaustionReason::TupleLimitExceeded)) => {}
            other => panic!("expected tuple exhaustion, got {other:?}"),
        }
    }
}
