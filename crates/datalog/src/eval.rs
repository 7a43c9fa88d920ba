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
use cspdb_relalg::{body_variable_order, for_each_body_valuation, BodyAtom, BodyTerm, TrieCache};
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

/// [`evaluate`] under a [`Meter`]: rule bodies run on the rule-body
/// kernel, which ticks one step per trie row built and per seek and
/// charges one tuple per valuation — every derivation, so at least one
/// per derived fact — so both runaway recursion and runaway
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
    // Check the EDB relations.
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
    }
    let rules = program
        .rules
        .iter()
        .map(CompiledRule::new)
        .collect::<Result<Vec<_>, _>>()
        .map_err(EvalError::Invalid)?;
    let mut full: HashMap<String, Relation> = idb
        .iter()
        .map(|&p| (p.to_owned(), Relation::empty(arity[p])))
        .collect();
    // Iteration 0: every rule against the EDB and the empty IDBs, which
    // fires the EDB-only rules; semi-naive rounds continue from there.
    let mut tries = TrieCache::new();
    let derived = fire_rules(&rules, edb, &full, None, &mut tries, meter)?;
    let delta = absorb(&mut full, derived, &mut tries);
    let mut derived_facts: usize = delta.values().map(Relation::len).sum();
    meter.tracer().emit_with(|| TraceEvent::DatalogIteration {
        iteration: 0,
        delta_facts: derived_facts as u64,
        total_facts: derived_facts as u64,
    });
    let mut iterations = 1usize;
    let tracer = meter.tracer().clone();
    saturate(
        &rules,
        edb,
        &mut full,
        delta,
        &mut tries,
        meter,
        &mut |new| {
            derived_facts += new;
            tracer.emit_with(|| TraceEvent::DatalogIteration {
                iteration: iterations as u64,
                delta_facts: new as u64,
                total_facts: derived_facts as u64,
            });
            iterations += 1;
        },
    )?;
    Ok(Evaluation {
        relations: full,
        iterations,
        derived_facts,
    })
}

/// Runs semi-naive rounds from `delta` to the least fixpoint. Each round
/// fires every rule once per body atom over a predicate with new facts,
/// pinned to them ([`fire_rules`]), and adds the derived facts missing
/// from `idb` to it; they are the next round's `delta`. `delta` starts
/// as any EDB or IDB facts new to the fixpoint that `idb` holds.
/// `on_round` receives each productive round's count of new facts.
///
/// # Errors
///
/// As [`fire_rules`].
pub fn saturate(
    rules: &[CompiledRule],
    edb: &Structure,
    idb: &mut HashMap<String, Relation>,
    mut delta: HashMap<String, Relation>,
    tries: &mut TrieCache,
    meter: &mut Meter,
    on_round: &mut dyn FnMut(usize),
) -> Result<(), EvalError> {
    while !delta.is_empty() {
        let derived = fire_rules(rules, edb, idb, Some(&delta), tries, meter)?;
        delta = absorb(idb, derived, tries);
        if !delta.is_empty() {
            on_round(delta.values().map(Relation::len).sum());
        }
    }
    Ok(())
}

/// One round of rule firings: each rule fires once (`delta` `None`), or
/// once per body atom over a predicate of `delta`, pinned to its facts.
/// The other atoms range over `idb` for IDB predicates and `edb`
/// otherwise, and their trie views are kept in `tries` under the
/// predicate's name: whoever changes a relation forgets its views.
/// Returns the derived head facts by predicate.
///
/// # Errors
///
/// [`EvalError::Invalid`] when a body predicate is in neither `idb` nor
/// `edb`; [`EvalError::Exhausted`] when the meter runs out.
pub fn fire_rules<'r>(
    rules: impl IntoIterator<Item = &'r CompiledRule>,
    edb: &Structure,
    idb: &HashMap<String, Relation>,
    delta: Option<&HashMap<String, Relation>>,
    tries: &mut TrieCache,
    meter: &mut Meter,
) -> Result<HashMap<String, Relation>, EvalError> {
    let mut derived: HashMap<&str, (usize, usize, Vec<u32>)> = HashMap::new();
    for rule in rules {
        let mut sources = Vec::with_capacity(rule.body_preds.len());
        for pred in &rule.body_preds {
            let rel = match idb.get(pred) {
                Some(rel) => rel,
                None => edb.relation_by_name(pred).map_err(|_| {
                    EvalError::Invalid(format!("EDB predicate {pred} missing from structure"))
                })?,
            };
            sources.push((rel, Some(pred.as_str())));
        }
        let (_, rows, data) =
            derived
                .entry(&rule.head_pred)
                .or_insert((rule.head.len(), 0, Vec::new()));
        let mut collect = |t: &[u32]| {
            data.extend_from_slice(t);
            *rows += 1;
        };
        let Some(delta) = delta else {
            rule.fire(&sources, None, tries, meter, &mut collect)?;
            continue;
        };
        for pos in 0..sources.len() {
            let Some(new) = delta.get(&rule.body_preds[pos]) else {
                continue;
            };
            let unpinned = std::mem::replace(&mut sources[pos], (new, None));
            rule.fire(&sources, Some(pos), tries, meter, &mut collect)?;
            sources[pos] = unpinned;
        }
    }
    Ok(derived
        .into_iter()
        .map(|(pred, (arity, rows, data))| {
            (pred.to_owned(), Relation::from_flat(arity, rows, data))
        })
        .collect())
}

/// Adds the `derived` facts missing from `idb` to it, forgets the trie
/// views of every IDB that changed, and returns the added facts by
/// predicate (only non-empty ones).
fn absorb(
    idb: &mut HashMap<String, Relation>,
    derived: HashMap<String, Relation>,
    tries: &mut TrieCache,
) -> HashMap<String, Relation> {
    let mut added = HashMap::new();
    for (pred, facts) in derived {
        let known = &idb[&pred];
        let new = facts.filter(|t| !known.contains(t));
        if !new.is_empty() {
            idb.insert(pred.clone(), known.union(&new).expect("same arity"));
            tries.forget(&pred);
            added.insert(pred, new);
        }
    }
    added
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

/// A rule with its variables resolved to the slots of the rule-body
/// kernel, body variables first.
#[derive(Debug, Clone)]
pub struct CompiledRule {
    /// The head predicate.
    pub head_pred: String,
    head: Vec<BodyTerm>,
    /// The predicate of each body atom.
    pub body_preds: Vec<String>,
    body: Vec<Vec<BodyTerm>>,
    num_vars: usize,
}

impl CompiledRule {
    /// Resolves `rule`'s variable names to slots.
    ///
    /// # Errors
    ///
    /// A message when the rule is unsafe: some head variable does not
    /// occur in the body.
    pub fn new(rule: &Rule) -> Result<CompiledRule, String> {
        if !rule.is_safe() {
            return Err(format!(
                "unsafe rule: head variables must occur in the body ({})",
                rule.head.predicate
            ));
        }
        fn resolve<'r>(terms: &'r [Term], slots: &mut HashMap<&'r str, usize>) -> Vec<BodyTerm> {
            terms
                .iter()
                .map(|t| match t {
                    Term::Const(c) => BodyTerm::Const(*c),
                    Term::Var(v) => {
                        let next = slots.len();
                        BodyTerm::Var(*slots.entry(v.as_str()).or_insert(next))
                    }
                })
                .collect()
        }
        let mut slots = HashMap::new();
        let body: Vec<Vec<BodyTerm>> = rule
            .body
            .iter()
            .map(|a| resolve(&a.terms, &mut slots))
            .collect();
        let head = resolve(&rule.head.terms, &mut slots);
        Ok(CompiledRule {
            head_pred: rule.head.predicate.clone(),
            head,
            body_preds: rule.body.iter().map(|a| a.predicate.clone()).collect(),
            body,
            num_vars: slots.len(),
        })
    }

    /// Fires the rule through the rule-body kernel: body atom `i`
    /// ranges over `sources[i]`, a relation and the name its trie views
    /// may be cached under in `tries`. The `pinned` atom's variables are
    /// bound first. `emit` receives the head tuple of every valuation.
    fn fire(
        &self,
        sources: &[(&Relation, Option<&str>)],
        pinned: Option<usize>,
        tries: &mut TrieCache,
        meter: &mut Meter,
        emit: &mut dyn FnMut(&[u32]),
    ) -> Result<(), ExhaustionReason> {
        let atoms: Vec<BodyAtom> = self
            .body
            .iter()
            .zip(sources)
            .map(|(terms, &(rel, cache_as))| BodyAtom {
                terms,
                rel,
                cache_as,
            })
            .collect();
        let order = body_variable_order(&atoms, pinned, self.num_vars);
        let mut head = vec![0u32; self.head.len()];
        for_each_body_valuation(&atoms, &order, tries, meter, &mut |valuation| {
            for (slot, term) in head.iter_mut().zip(&self.head) {
                *slot = match *term {
                    BodyTerm::Var(v) => valuation[v],
                    BodyTerm::Const(c) => c,
                };
            }
            emit(&head);
        })?;
        Ok(())
    }
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
