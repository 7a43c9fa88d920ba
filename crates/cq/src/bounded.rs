//! Bounded-variable formulas: Proposition 6.1 and the proof of
//! Theorem 6.2 as code.
//!
//! If **A** has treewidth `k`, its canonical query `φ_A` is expressible
//! in `∃FO^{k+1}_{∧,+}` — the conjunctive fragment with at most `k + 1`
//! *variable names* ("registers"), re-used under nested quantification.
//! This module constructs that formula from a tree decomposition (the
//! paper's "parse trees") and evaluates it on a structure **B** with
//! memoization, realizing the polynomial combined complexity of bounded-
//! variable evaluation that Theorem 6.2's proof invokes. The dynamic
//! program in `cspdb-decomp` computes the same thing from the other
//! direction; tests confirm they agree.

use cspdb_core::{RelId, Structure};
use cspdb_decomp::{from_elimination_order, min_fill_order, Graph, TreeDecomposition};
use std::collections::HashMap;

/// A formula of `∃FO^{r}_{∧,+}` over register indices `0..r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BoundedFormula {
    /// An atom `R(regs...)`.
    Atom {
        /// Relation symbol (of the shared vocabulary).
        rel: RelId,
        /// Register indices, one per column.
        regs: Vec<u8>,
    },
    /// Conjunction.
    And(Vec<BoundedFormula>),
    /// Existential quantification over one register.
    Exists {
        /// The quantified register.
        reg: u8,
        /// The body.
        body: Box<BoundedFormula>,
    },
    /// The true formula.
    True,
}

impl BoundedFormula {
    /// Number of distinct registers mentioned (bound or free) — the
    /// "k+1" of Proposition 6.1.
    pub fn register_count(&self) -> usize {
        let mut used = std::collections::BTreeSet::new();
        self.collect_registers(&mut used);
        used.len()
    }

    fn collect_registers(&self, used: &mut std::collections::BTreeSet<u8>) {
        match self {
            BoundedFormula::Atom { regs, .. } => used.extend(regs.iter().copied()),
            BoundedFormula::And(fs) => {
                for f in fs {
                    f.collect_registers(used);
                }
            }
            BoundedFormula::Exists { reg, body } => {
                used.insert(*reg);
                body.collect_registers(used);
            }
            BoundedFormula::True => {}
        }
    }

    /// Free registers of the formula.
    pub fn free_registers(&self) -> Vec<u8> {
        let mut free = std::collections::BTreeSet::new();
        self.collect_free(&mut free, &mut Vec::new());
        free.into_iter().collect()
    }

    fn collect_free(&self, free: &mut std::collections::BTreeSet<u8>, bound: &mut Vec<u8>) {
        match self {
            BoundedFormula::Atom { regs, .. } => {
                for r in regs {
                    if !bound.contains(r) {
                        free.insert(*r);
                    }
                }
            }
            BoundedFormula::And(fs) => {
                for f in fs {
                    f.collect_free(free, bound);
                }
            }
            BoundedFormula::Exists { reg, body } => {
                bound.push(*reg);
                body.collect_free(free, bound);
                bound.pop();
            }
            BoundedFormula::True => {}
        }
    }
}

/// Builds the `∃FO^{w+1}` sentence equivalent to `φ_A` from a tree
/// decomposition of **A** of width `w`, assigning domain elements to
/// registers scope-locally so that at most `w + 1` registers exist.
///
/// # Errors
///
/// Returns a message if the decomposition is invalid for **A**.
pub fn sentence_from_decomposition(
    a: &Structure,
    td: &TreeDecomposition,
) -> Result<BoundedFormula, String> {
    td.validate_structure(a)?;
    if a.domain_size() == 0 {
        return Ok(BoundedFormula::True);
    }
    let width_plus_1 = td.bags.iter().map(Vec::len).max().unwrap_or(1);
    // Assign each fact of A to one covering bag.
    let mut bag_facts: Vec<Vec<(RelId, Vec<u32>)>> = vec![Vec::new(); td.bags.len()];
    for (id, rel) in a.relations() {
        'fact: for t in rel.iter() {
            for (bi, bag) in td.bags.iter().enumerate() {
                if t.iter().all(|x| bag.binary_search(x).is_ok()) {
                    bag_facts[bi].push((id, t.to_vec()));
                    continue 'fact;
                }
            }
            unreachable!("validated coverage");
        }
    }
    // Root at 0; DFS to build the formula.
    let adj = td.adjacency();
    let nb = td.bags.len();
    let mut visited = vec![false; nb];
    visited[0] = true;
    // Register allocation: per recursion, elements of the current bag
    // hold registers; a child's fresh elements grab registers unused by
    // the shared (bag ∩ child-bag) elements.
    let root_regs: HashMap<u32, u8> = td.bags[0]
        .iter()
        .enumerate()
        .map(|(i, &e)| (e, i as u8))
        .collect();
    let body = build_node(
        a,
        td,
        &adj,
        &bag_facts,
        0,
        &root_regs,
        &mut visited,
        width_plus_1 as u8,
    );
    // Quantify the root bag's registers.
    let mut formula = body;
    for (_, &r) in root_regs.iter() {
        formula = BoundedFormula::Exists {
            reg: r,
            body: Box::new(formula),
        };
    }
    debug_assert!(formula.register_count() <= width_plus_1);
    debug_assert!(formula.free_registers().is_empty());
    Ok(formula)
}

#[allow(clippy::too_many_arguments, clippy::only_used_in_recursion)]
fn build_node(
    a: &Structure,
    td: &TreeDecomposition,
    adj: &[Vec<usize>],
    bag_facts: &[Vec<(RelId, Vec<u32>)>],
    node: usize,
    regs: &HashMap<u32, u8>,
    visited: &mut Vec<bool>,
    num_regs: u8,
) -> BoundedFormula {
    let mut conjuncts = Vec::new();
    for (rel, t) in &bag_facts[node] {
        conjuncts.push(BoundedFormula::Atom {
            rel: *rel,
            regs: t.iter().map(|e| regs[e]).collect(),
        });
    }
    let children: Vec<usize> = adj[node].iter().copied().filter(|&c| !visited[c]).collect();
    for c in children {
        visited[c] = true;
        // Shared elements keep their registers; fresh elements get
        // registers not used by shared ones.
        let shared: Vec<u32> = td.bags[c]
            .iter()
            .copied()
            .filter(|e| regs.contains_key(e) && td.bags[node].binary_search(e).is_ok())
            .collect();
        let mut child_regs: HashMap<u32, u8> = shared.iter().map(|e| (*e, regs[e])).collect();
        let taken: std::collections::BTreeSet<u8> = child_regs.values().copied().collect();
        let mut free_regs = (0..num_regs).filter(|r| !taken.contains(r));
        let mut fresh: Vec<u8> = Vec::new();
        for &e in &td.bags[c] {
            if let std::collections::hash_map::Entry::Vacant(e) = child_regs.entry(e) {
                let r = free_regs.next().expect("bag size <= num_regs");
                e.insert(r);
                fresh.push(r);
            }
        }
        let mut sub = build_node(a, td, adj, bag_facts, c, &child_regs, visited, num_regs);
        for r in fresh {
            sub = BoundedFormula::Exists {
                reg: r,
                body: Box::new(sub),
            };
        }
        conjuncts.push(sub);
    }
    match conjuncts.len() {
        0 => BoundedFormula::True,
        1 => conjuncts.pop().expect("len 1"),
        _ => BoundedFormula::And(conjuncts),
    }
}

/// Memo table: (subformula identity, live-register environment) -> value.
type EvalMemo = HashMap<(usize, Vec<(u8, u32)>), bool>;

/// Evaluates a bounded-variable *sentence* (no free registers) on **B**
/// with memoization on `(subformula, live-register environment)` — the
/// polynomial-time combined-complexity evaluation of `∃FO^k` cited from
/// \[58\] in the proof of Theorem 6.2.
pub fn evaluate_sentence(formula: &BoundedFormula, b: &Structure) -> bool {
    let mut env: Vec<Option<u32>> = vec![None; 256];
    let mut memo: EvalMemo = HashMap::new();
    eval(formula, b, &mut env, &mut memo)
}

fn eval(
    f: &BoundedFormula,
    b: &Structure,
    env: &mut Vec<Option<u32>>,
    memo: &mut EvalMemo,
) -> bool {
    match f {
        BoundedFormula::True => true,
        BoundedFormula::Atom { rel, regs } => {
            let tuple: Vec<u32> = regs
                .iter()
                .map(|&r| env[r as usize].expect("atom registers are in scope"))
                .collect();
            b.relation(*rel).contains(&tuple)
        }
        BoundedFormula::And(fs) => fs.iter().all(|g| eval(g, b, env, memo)),
        BoundedFormula::Exists { reg, body } => {
            // Memo key: identity of this subformula + restriction of the
            // environment to its free registers.
            let key_regs: Vec<(u8, u32)> = f
                .free_registers()
                .iter()
                .map(|&r| (r, env[r as usize].expect("free register in scope")))
                .collect();
            let key = (f as *const BoundedFormula as usize, key_regs);
            if let Some(&v) = memo.get(&key) {
                return v;
            }
            let saved = env[*reg as usize];
            let mut result = false;
            for value in 0..b.domain_size() as u32 {
                env[*reg as usize] = Some(value);
                if eval(body, b, env, memo) {
                    result = true;
                    break;
                }
            }
            env[*reg as usize] = saved;
            memo.insert(key, result);
            result
        }
    }
}

/// End-to-end Theorem 6.2 pipeline: decompose **A** (min-fill), build the
/// `∃FO^{w+1}` sentence, evaluate it on **B**. Returns
/// `(registers used, answer)`.
pub fn theorem_6_2_decide(a: &Structure, b: &Structure) -> (usize, bool) {
    if a.domain_size() == 0 {
        return (0, true);
    }
    if b.domain_size() == 0 {
        return (0, false);
    }
    let g = Graph::gaifman(a);
    let order = min_fill_order(&g);
    let td = from_elimination_order(&g, &order);
    let sentence = sentence_from_decomposition(a, &td).expect("constructed decomposition");
    let regs = sentence.register_count();
    (regs, evaluate_sentence(&sentence, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::graphs::{clique, cycle, path};

    #[test]
    fn proposition_6_1_register_bound() {
        // Cycles have treewidth 2: 3 registers suffice.
        let a = cycle(7);
        let (regs, _) = theorem_6_2_decide(&a, &clique(3));
        assert!(regs <= 3, "used {regs} registers");
        // Paths have treewidth 1: 2 registers.
        let p = path(6);
        let (regs, _) = theorem_6_2_decide(&p, &clique(2));
        assert!(regs <= 2, "used {regs} registers");
    }

    #[test]
    fn theorem_6_2_agrees_with_semantics() {
        let cases = [
            (cycle(5), clique(3), true),
            (cycle(5), clique(2), false),
            (cycle(6), clique(2), true),
            (cycle(3), clique(3), true),
            (cycle(3), clique(2), false),
            (path(5), clique(2), true),
        ];
        for (a, b, expected) in cases {
            let (_, ans) = theorem_6_2_decide(&a, &b);
            assert_eq!(ans, expected, "on {a}");
        }
    }

    #[test]
    fn agrees_with_decomposition_dp() {
        let mut state = 0xFACEB00C12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _ in 0..10 {
            let n = 4 + (next() % 4) as usize;
            let voc = cspdb_core::graphs::graph_vocabulary();
            let mut a = cspdb_core::Structure::new(voc, n);
            for i in 1..n as u32 {
                let u = (next() % i as u64) as u32;
                a.insert_by_name("E", &[i, u]).unwrap();
                a.insert_by_name("E", &[u, i]).unwrap();
                if next() % 2 == 0 && i >= 2 {
                    let w = (next() % i as u64) as u32;
                    a.insert_by_name("E", &[i, w]).unwrap();
                    a.insert_by_name("E", &[w, i]).unwrap();
                }
            }
            for b in [clique(2), clique(3)] {
                let (_, via_formula) = theorem_6_2_decide(&a, &b);
                let (_, via_dp) = cspdb_decomp::solve_by_treewidth(&a, &b);
                assert_eq!(via_formula, via_dp.is_some());
            }
        }
    }

    #[test]
    fn empty_structures() {
        let voc = cspdb_core::graphs::graph_vocabulary();
        let empty = cspdb_core::Structure::new(voc.clone(), 0);
        assert!(theorem_6_2_decide(&empty, &clique(2)).1);
        let a = path(2);
        let empty_b = cspdb_core::Structure::new(voc, 0);
        assert!(!theorem_6_2_decide(&a, &empty_b).1);
    }

    #[test]
    fn formula_structure_is_well_formed() {
        let a = path(4);
        let g = Graph::gaifman(&a);
        let order = min_fill_order(&g);
        let td = from_elimination_order(&g, &order);
        let f = sentence_from_decomposition(&a, &td).unwrap();
        assert!(f.free_registers().is_empty());
        assert!(f.register_count() <= 2);
    }

    #[test]
    fn invalid_decomposition_rejected() {
        let a = cycle(4);
        let td = TreeDecomposition {
            bags: vec![vec![0, 1]],
            edges: vec![],
        };
        assert!(sentence_from_decomposition(&a, &td).is_err());
    }
}
