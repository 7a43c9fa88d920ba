//! Bottom-up semi-naive Datalog evaluation.
//!
//! Datalog queries are computable in polynomial time because the
//! bottom-up evaluation of the least fixpoint terminates within a
//! polynomial number of steps in the size of the EDBs (Section 4 of the
//! paper) — expressibility in Datalog is the paper's unifying
//! *sufficient condition for tractability*. This module implements the
//! standard semi-naive refinement: each iteration joins every rule with
//! at least one "delta" (newly derived) atom, so no derivation is
//! recomputed.

use crate::ast::{Program, Rule, Term};
use cspdb_core::budget::{ExhaustionReason, Meter};
use cspdb_core::trace::TraceEvent;
use cspdb_core::{Relation, Structure};
use std::collections::HashMap;

/// Error from budgeted evaluation: either the program/EDB pair is
/// malformed, or the budget ran out before the fixpoint (inconclusive —
/// the partial IDBs are sound but possibly incomplete).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The program is inconsistent with the EDB structure.
    Invalid(String),
    /// The budget was exhausted before reaching the least fixpoint.
    Exhausted(ExhaustionReason),
}

impl std::fmt::Display for EvalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EvalError::Invalid(msg) => write!(f, "{msg}"),
            EvalError::Exhausted(r) => write!(f, "budget exhausted: {r}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<ExhaustionReason> for EvalError {
    fn from(r: ExhaustionReason) -> Self {
        EvalError::Exhausted(r)
    }
}

/// The result of evaluating a program on an EDB structure.
#[derive(Debug, Clone)]
pub struct Evaluation {
    /// Final IDB relations by predicate name.
    pub relations: HashMap<String, Relation>,
    /// Number of semi-naive iterations until fixpoint.
    pub iterations: usize,
    /// Total facts derived.
    pub derived_facts: usize,
}

impl Evaluation {
    /// The relation computed for a predicate (empty if never derived).
    pub fn relation(&self, predicate: &str) -> Option<&Relation> {
        self.relations.get(predicate)
    }
}

/// Evaluates `program` on the given EDB structure to the least fixpoint.
///
/// EDB predicates are looked up by name in the structure's vocabulary;
/// IDB arities are inferred from the rules.
///
/// # Errors
///
/// Returns a message when an EDB predicate is missing from the structure,
/// arities are inconsistent, or a constant exceeds the domain.
pub fn evaluate(program: &Program, edb: &Structure) -> Result<Evaluation, String> {
    evaluate_metered(program, edb, &mut Meter::default()).map_err(|e| match e {
        EvalError::Invalid(msg) => msg,
        EvalError::Exhausted(_) => unreachable!("unlimited budget cannot exhaust"),
    })
}

/// [`evaluate`] under a [`Meter`]: one step is ticked per EDB/IDB tuple
/// scanned while matching rule bodies, and every newly derived fact is
/// charged against the tuple cap, so both runaway recursion and runaway
/// materialization abort instead of hanging. The caller keeps the
/// meter, so resource usage (and the tracer it carries) stays readable
/// afterwards. Emits one [`TraceEvent::DatalogIteration`] per semi-naive
/// round with the delta and cumulative fact counts.
///
/// # Errors
///
/// [`EvalError::Invalid`] mirrors [`evaluate`]'s error cases;
/// [`EvalError::Exhausted`] means the fixpoint was not reached.
pub fn evaluate_metered(
    program: &Program,
    edb: &Structure,
    meter: &mut Meter,
) -> Result<Evaluation, EvalError> {
    let domain = edb.domain_size() as u32;
    // Infer predicate arities.
    let mut arity: HashMap<&str, usize> = HashMap::new();
    let idb: std::collections::BTreeSet<&str> = program.idb_predicates();
    for rule in &program.rules {
        for atom in std::iter::once(&rule.head).chain(rule.body.iter()) {
            match arity.entry(atom.predicate.as_str()) {
                std::collections::hash_map::Entry::Occupied(e) => {
                    if *e.get() != atom.terms.len() {
                        return Err(EvalError::Invalid(format!(
                            "predicate {} used with arities {} and {}",
                            atom.predicate,
                            e.get(),
                            atom.terms.len()
                        )));
                    }
                }
                std::collections::hash_map::Entry::Vacant(e) => {
                    e.insert(atom.terms.len());
                }
            }
            for t in &atom.terms {
                if let Term::Const(c) = t {
                    if *c >= domain {
                        return Err(EvalError::Invalid(format!(
                            "constant {c} exceeds EDB domain of size {domain}"
                        )));
                    }
                }
            }
        }
    }
    // Resolve EDB relations.
    let mut edb_rels: HashMap<&str, &Relation> = HashMap::new();
    for pred in program.edb_predicates() {
        let rel = edb.relation_by_name(pred).map_err(|_| {
            EvalError::Invalid(format!("EDB predicate {pred} missing from structure"))
        })?;
        if rel.arity() != arity[pred] {
            return Err(EvalError::Invalid(format!(
                "EDB predicate {pred}: structure arity {} vs program arity {}",
                rel.arity(),
                arity[pred]
            )));
        }
        edb_rels.insert(pred, rel);
    }
    // IDB state.
    let mut full: HashMap<String, Relation> = idb
        .iter()
        .map(|&p| (p.to_owned(), Relation::empty(arity[p])))
        .collect();
    let mut delta: HashMap<String, Relation> = full.clone();

    // Iteration 0: all rules against (empty) IDBs — fires EDB-only rules.
    let mut derived_facts = 0usize;
    for rule in &program.rules {
        let before = derived_facts;
        fire_rule(rule, &edb_rels, &full, None, meter, &mut |pred, tuple| {
            let rel = delta.get_mut(pred).expect("head is IDB");
            if rel.insert(tuple).expect("arity checked") {
                derived_facts += 1;
            }
        })?;
        meter.charge_tuples((derived_facts - before) as u64)?;
    }
    for (p, d) in &delta {
        let merged = full[p].union(d).expect("same arity");
        full.insert(p.clone(), merged);
    }
    meter.tracer().emit_with(|| TraceEvent::DatalogIteration {
        iteration: 0,
        delta_facts: derived_facts as u64,
        total_facts: derived_facts as u64,
    });

    let mut iterations = 1usize;
    loop {
        let before_iter = derived_facts;
        let mut new_delta: HashMap<String, Relation> = idb
            .iter()
            .map(|&p| (p.to_owned(), Relation::empty(arity[p])))
            .collect();
        let mut any = false;
        for rule in &program.rules {
            // Positions of IDB atoms in the body.
            let idb_positions: Vec<usize> = rule
                .body
                .iter()
                .enumerate()
                .filter(|(_, a)| idb.contains(a.predicate.as_str()))
                .map(|(i, _)| i)
                .collect();
            for &pos in &idb_positions {
                let delta_rel = &delta[rule.body[pos].predicate.as_str()];
                if delta_rel.is_empty() {
                    continue;
                }
                let before = derived_facts;
                fire_rule(
                    rule,
                    &edb_rels,
                    &full,
                    Some((pos, delta_rel)),
                    meter,
                    &mut |pred, tuple| {
                        if !full[pred].contains(tuple) {
                            let rel = new_delta.get_mut(pred).expect("head is IDB");
                            if rel.insert(tuple).expect("arity checked") {
                                derived_facts += 1;
                                any = true;
                            }
                        }
                    },
                )?;
                meter.charge_tuples((derived_facts - before) as u64)?;
            }
        }
        if !any {
            break;
        }
        for (p, d) in &new_delta {
            let merged = full[p].union(d).expect("same arity");
            full.insert(p.clone(), merged);
        }
        delta = new_delta;
        meter.tracer().emit_with(|| TraceEvent::DatalogIteration {
            iteration: iterations as u64,
            delta_facts: (derived_facts - before_iter) as u64,
            total_facts: derived_facts as u64,
        });
        iterations += 1;
    }
    Ok(Evaluation {
        relations: full,
        iterations,
        derived_facts,
    })
}

/// True iff the goal predicate derives at least one fact.
///
/// # Errors
///
/// Propagates [`evaluate`] errors; also errors if the goal predicate is
/// not an IDB of the program.
pub fn goal_holds(program: &Program, edb: &Structure) -> Result<bool, String> {
    let eval = evaluate(program, edb)?;
    eval.relations
        .get(&program.goal)
        .map(|r| !r.is_empty())
        .ok_or_else(|| format!("goal predicate {} is not an IDB", program.goal))
}

/// [`goal_holds`] under a [`Meter`]. Note the one-sidedness: because
/// bottom-up evaluation only ever derives facts that *do* hold, a `true`
/// answer needs no completed fixpoint, but `false` does — so exhaustion
/// is reported as [`EvalError::Exhausted`] rather than a (possibly
/// unsound) `false`.
pub fn goal_holds_metered(
    program: &Program,
    edb: &Structure,
    meter: &mut Meter,
) -> Result<bool, EvalError> {
    let eval = evaluate_metered(program, edb, meter)?;
    eval.relations
        .get(&program.goal)
        .map(|r| !r.is_empty())
        .ok_or_else(|| EvalError::Invalid(format!("goal predicate {} is not an IDB", program.goal)))
}

/// Enumerates all satisfying bindings of a single rule, invoking `emit`
/// with the head predicate and the instantiated head tuple.
fn fire_rule(
    rule: &Rule,
    edb: &HashMap<&str, &Relation>,
    full: &HashMap<String, Relation>,
    delta_at: Option<(usize, &Relation)>,
    meter: &mut Meter,
    emit: &mut impl FnMut(&str, &[u32]),
) -> Result<(), ExhaustionReason> {
    let mut bindings: HashMap<&str, u32> = HashMap::new();
    let mut head_tuple = vec![0u32; rule.head.terms.len()];
    search(
        rule,
        0,
        edb,
        full,
        delta_at,
        &mut bindings,
        meter,
        &mut |b| {
            for (i, t) in rule.head.terms.iter().enumerate() {
                head_tuple[i] = match t {
                    Term::Var(v) => b[v.as_str()],
                    Term::Const(c) => *c,
                };
            }
            emit(&rule.head.predicate, &head_tuple);
        },
    )
}

#[allow(clippy::too_many_arguments)]
fn search<'r>(
    rule: &'r Rule,
    idx: usize,
    edb: &HashMap<&str, &Relation>,
    full: &HashMap<String, Relation>,
    delta_at: Option<(usize, &Relation)>,
    bindings: &mut HashMap<&'r str, u32>,
    meter: &mut Meter,
    found: &mut impl FnMut(&HashMap<&'r str, u32>),
) -> Result<(), ExhaustionReason> {
    if idx == rule.body.len() {
        found(bindings);
        return Ok(());
    }
    let atom = &rule.body[idx];
    let relation: &Relation = match delta_at {
        Some((pos, d)) if pos == idx => d,
        _ => match full.get(atom.predicate.as_str()) {
            Some(r) => r,
            None => edb[atom.predicate.as_str()],
        },
    };
    'tuples: for tuple in relation.iter() {
        meter.tick()?;
        let mut newly_bound: Vec<&str> = Vec::new();
        for (t, &value) in atom.terms.iter().zip(tuple.iter()) {
            match t {
                Term::Const(c) => {
                    if *c != value {
                        for v in newly_bound.drain(..) {
                            bindings.remove(v);
                        }
                        continue 'tuples;
                    }
                }
                Term::Var(v) => match bindings.get(v.as_str()) {
                    Some(&bound) => {
                        if bound != value {
                            for v in newly_bound.drain(..) {
                                bindings.remove(v);
                            }
                            continue 'tuples;
                        }
                    }
                    None => {
                        bindings.insert(v.as_str(), value);
                        newly_bound.push(v.as_str());
                    }
                },
            }
        }
        let deep = search(rule, idx + 1, edb, full, delta_at, bindings, meter, found);
        for v in newly_bound {
            bindings.remove(v);
        }
        deep?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;
    use cspdb_core::graphs::{digraph, directed_path};

    #[test]
    fn transitive_closure() {
        let p = parse_program(
            "T(X,Y) :- E(X,Y).\n\
             T(X,Y) :- T(X,Z), E(Z,Y).",
        )
        .unwrap();
        let g = directed_path(4);
        let eval = evaluate(&p, &g).unwrap();
        let t = eval.relation("T").unwrap();
        assert_eq!(t.len(), 6); // all i<j pairs
        assert!(t.contains(&[0, 3]));
        assert!(!t.contains(&[3, 0]));
    }

    #[test]
    fn semi_naive_iterates_logarithmically_or_linearly() {
        // Linear rule: ~n iterations on a path.
        let p = parse_program(
            "T(X,Y) :- E(X,Y).\n\
             T(X,Y) :- T(X,Z), E(Z,Y).",
        )
        .unwrap();
        let g = directed_path(9);
        let eval = evaluate(&p, &g).unwrap();
        assert!(eval.iterations <= 10);
        assert_eq!(eval.relation("T").unwrap().len(), 36);
    }

    #[test]
    fn goal_with_constants() {
        let p =
            parse_program("Q :- T(0, 3).\nT(X,Y) :- E(X,Y).\nT(X,Y) :- T(X,Z), E(Z,Y).\n% goal: Q")
                .unwrap();
        assert!(goal_holds(&p, &directed_path(4)).unwrap());
        // Same domain size, but no path from 0 to 3.
        assert!(!goal_holds(&p, &digraph(4, &[(0, 1), (2, 3)])).unwrap());
        // A domain too small for the constant is an error, not `false`.
        assert!(goal_holds(&p, &directed_path(3)).is_err());
    }

    #[test]
    fn facts_and_nullary_goals() {
        let p = parse_program("Q :- E(X,X).").unwrap();
        assert!(!goal_holds(&p, &digraph(2, &[(0, 1)])).unwrap());
        assert!(goal_holds(&p, &digraph(2, &[(0, 1), (1, 1)])).unwrap());
    }

    #[test]
    fn missing_edb_is_an_error() {
        let p = parse_program("Q :- F(X,X).").unwrap();
        assert!(evaluate(&p, &digraph(1, &[])).is_err());
    }

    #[test]
    fn arity_conflicts_detected() {
        let p = parse_program("P(X) :- E(X,Y).\nQ :- P(X,X).").unwrap();
        assert!(evaluate(&p, &digraph(2, &[(0, 1)])).is_err());
    }

    #[test]
    fn constant_out_of_domain_detected() {
        let p = parse_program("Q :- E(X, 9).").unwrap();
        assert!(evaluate(&p, &digraph(2, &[(0, 1)])).is_err());
    }

    #[test]
    fn same_generation_style_recursion() {
        // Mutual recursion through two IDBs.
        let p = parse_program(
            "Odd(X,Y) :- E(X,Y).\n\
             Odd(X,Y) :- Even(X,Z), E(Z,Y).\n\
             Even(X,Y) :- Odd(X,Z), E(Z,Y).\n\
             % goal: Even",
        )
        .unwrap();
        let g = directed_path(5);
        let eval = evaluate(&p, &g).unwrap();
        let even = eval.relation("Even").unwrap();
        assert!(even.contains(&[0, 2]));
        assert!(even.contains(&[0, 4]));
        assert!(!even.contains(&[0, 1]));
        let odd = eval.relation("Odd").unwrap();
        assert!(odd.contains(&[0, 1]));
        assert!(odd.contains(&[0, 3]));
    }
}
