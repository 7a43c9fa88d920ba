//! View-based query answering and the two reductions tying it to
//! constraint satisfaction (Theorems 7.3 and 7.5 of the paper).
//!
//! * [`certain_answer`] decides `(c, d) ∈ cert(Q, V)` through the
//!   **constraint template** of Theorem 7.5: a structure **B** with
//!   domain `2^S` (subsets of the query automaton's states), binary
//!   relations per view, and unary markers `U_c`, `U_d`; the pair is NOT
//!   certain iff `CSP(A, B)` is solvable, where **A** encodes the view
//!   extensions.
//! * [`certain_answer_bruteforce`] is the independent ground truth: a
//!   counterexample database, if one exists, can be taken *canonical* —
//!   disjoint witness paths, one per view fact — so enumerating word
//!   choices up to a length bound and model-checking `Q` is sound (and
//!   complete for witnesses within the bound).
//! * [`csp_to_views`] / [`extensions_for_digraph`] implement the converse
//!   reduction of Theorem 7.3: for every template digraph **B** there are
//!   `Q` and view definitions, *independent of the input*, such that
//!   certain answering decides `CSP(·, B)`.

use crate::automata::Nfa;
use crate::graphdb::GraphDb;
use crate::regex::Regex;
use cspdb_core::budget::{Answer, ExhaustionReason, Meter};
use cspdb_core::trace::TraceEvent;
use cspdb_core::{Structure, Vocabulary};
use std::collections::VecDeque;
use std::sync::Arc;

/// A named view with an RPQ definition.
#[derive(Debug, Clone)]
pub struct View {
    /// View name (used for display only).
    pub name: String,
    /// The RPQ `def(V_i)`.
    pub definition: Regex,
}

/// Extensions `ext(V)`: per-view sets of object pairs, over objects
/// `0..num_objects`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Extensions {
    /// Number of objects in `D_V`.
    pub num_objects: usize,
    /// `pairs[i]` = `ext(V_i)`.
    pub pairs: Vec<Vec<(u32, u32)>>,
}

/// The constraint template **B** of `Q` w.r.t. `V` (Theorem 7.5),
/// together with the vocabulary shared with extension encodings.
#[derive(Debug, Clone)]
pub struct ConstraintTemplate {
    /// The template structure **B** (domain `2^S` as bitmask-indexed
    /// elements).
    pub template: Structure,
    /// The shared vocabulary: `V_i/2` then `Uc/1`, `Ud/1`.
    pub vocabulary: Arc<Vocabulary>,
    /// Number of query-automaton states `|S|`.
    pub num_states: usize,
}

/// Builds the constraint template of `Q` w.r.t. the views over the given
/// data alphabet Σ (Theorem 7.5):
///
/// * domain `B = 2^S`;
/// * `(σ1, σ2) ∈ V_i^B` iff some `w ∈ L(def(V_i))` has `ρ(σ1,w) ⊆ σ2`;
/// * `σ ∈ U_c^B` iff `S0 ⊆ σ`; `σ ∈ U_d^B` iff `σ ∩ F = ∅`.
///
/// # Panics
///
/// Panics if the (trimmed) query automaton has more than 12 states — the
/// template has domain `2^S`, so larger queries are not laptop-sized.
pub fn constraint_template(q: &Regex, views: &[View], alphabet: &[char]) -> ConstraintTemplate {
    let aq = Nfa::from_regex(q, alphabet).epsilon_free_trimmed().reduce();
    let s = aq.num_states;
    assert!(
        s <= 12,
        "query automaton too large for the 2^S template ({s} states)"
    );
    let domain = 1usize << s;
    let mut builder = cspdb_core::VocabularyBuilder::new();
    for (i, _) in views.iter().enumerate() {
        builder.add(format!("V{i}"), 2).expect("fresh names");
    }
    builder.add("Uc", 1).expect("fresh");
    builder.add("Ud", 1).expect("fresh");
    let voc = builder.finish();
    let mut b = Structure::new(voc.clone(), domain);

    // Precompute per-state, per-symbol successor masks so subset images
    // are a fold of ORs.
    let num_symbols = aq.alphabet.len();
    let mut step_mask: Vec<Vec<usize>> = vec![vec![0usize; num_symbols]; s];
    for (q, row) in aq.step.iter().enumerate() {
        for (sym, targets) in row.iter().enumerate() {
            step_mask[q][sym] = targets.iter().fold(0usize, |m, &t| m | (1 << t));
        }
    }
    let image_mask = |mask: usize, sym: usize| -> usize {
        let mut out = 0usize;
        let mut rest = mask;
        while rest != 0 {
            let q = rest.trailing_zeros() as usize;
            rest &= rest - 1;
            out |= step_mask[q][sym];
        }
        out
    };

    // Per view: for each σ1, collect the images T reachable at
    // view-accepting moments; then (σ1, σ2) ∈ V^B iff some T ⊆ σ2.
    for (i, view) in views.iter().enumerate() {
        let vid = voc.id(&format!("V{i}")).expect("declared");
        let vnfa = Nfa::from_regex(&view.definition, alphabet);
        let vdfa = vnfa.determinize();
        let vn = vdfa.num_states();
        for sigma1 in 0..domain {
            // BFS over (image mask, view-DFA state), dense visited array.
            let mut seen = vec![false; domain * vn];
            seen[sigma1 * vn + vdfa.start] = true;
            let mut queue = VecDeque::from([(sigma1, vdfa.start)]);
            let mut witnesses: Vec<usize> = Vec::new();
            while let Some((mask, vstate)) = queue.pop_front() {
                if vdfa.accepting[vstate] {
                    witnesses.push(mask);
                }
                for sym in 0..num_symbols {
                    let next = (image_mask(mask, sym), vdfa.transitions[vstate][sym]);
                    let key = next.0 * vn + next.1;
                    if !seen[key] {
                        seen[key] = true;
                        queue.push_back(next);
                    }
                }
            }
            witnesses.sort_unstable();
            witnesses.dedup();
            // Keep inclusion-minimal witnesses only.
            let minimal: Vec<usize> = witnesses
                .iter()
                .copied()
                .filter(|&t| !witnesses.iter().any(|&u| u != t && u & !t == 0))
                .collect();
            for sigma2 in 0..domain {
                if minimal.iter().any(|&t| t & !sigma2 == 0) {
                    b.insert(vid, &[sigma1 as u32, sigma2 as u32])
                        .expect("in range");
                }
            }
        }
    }
    let s0_mask: usize = aq.start.iter().fold(0, |m, &q| m | (1 << q));
    let f_mask: usize = (0..s)
        .filter(|&q| aq.accepting[q])
        .fold(0, |m, q| m | (1 << q));
    let uc = voc.id("Uc").expect("declared");
    let ud = voc.id("Ud").expect("declared");
    for sigma in 0..domain {
        if s0_mask & !sigma == 0 {
            b.insert(uc, &[sigma as u32]).expect("in range");
        }
        if sigma & f_mask == 0 {
            b.insert(ud, &[sigma as u32]).expect("in range");
        }
    }
    ConstraintTemplate {
        template: b,
        vocabulary: voc,
        num_states: s,
    }
}

/// Encodes view extensions plus the distinguished pair as the structure
/// **A** over the template's vocabulary.
///
/// # Panics
///
/// Panics if object ids are out of range or view counts differ.
pub fn extension_structure(
    template: &ConstraintTemplate,
    exts: &Extensions,
    c: u32,
    d: u32,
) -> Structure {
    let voc = &template.vocabulary;
    let mut a = Structure::new(voc.clone(), exts.num_objects);
    for (i, pairs) in exts.pairs.iter().enumerate() {
        let vid = voc.id(&format!("V{i}")).expect("template vocabulary");
        for &(x, y) in pairs {
            a.insert(vid, &[x, y]).expect("in range");
        }
    }
    a.insert(voc.id("Uc").expect("declared"), &[c])
        .expect("in range");
    a.insert(voc.id("Ud").expect("declared"), &[d])
        .expect("in range");
    a
}

/// A reusable certain-answer oracle: the constraint template depends
/// only on `Q` and `def(V)` (not on the extensions), so build it once
/// and answer many `(ext, c, d)` questions against it.
#[derive(Debug, Clone)]
pub struct CertainAnswering {
    template: ConstraintTemplate,
}

impl CertainAnswering {
    /// Builds the oracle (constructs the Theorem 7.5 template).
    pub fn new(q: &Regex, views: &[View], alphabet: &[char]) -> Self {
        CertainAnswering {
            template: constraint_template(q, views, alphabet),
        }
    }

    /// The underlying template.
    pub fn template(&self) -> &ConstraintTemplate {
        &self.template
    }

    /// Decides `(c, d) ∈ cert(Q, V)`: certain iff `CSP(A, B)` has no
    /// solution.
    pub fn is_certain(&self, exts: &Extensions, c: u32, d: u32) -> bool {
        let a = extension_structure(&self.template, exts, c, d);
        cspdb_solver::find_homomorphism(&a, &self.template.template).is_none()
    }

    /// [`Self::is_certain`] under a [`Meter`] on the underlying CSP
    /// solve. The polarity flips through the reduction: the CSP is
    /// satisfiable iff the pair is **not** certain, so `Sat` maps to
    /// `Ok(false)`, `Unsat` to `Ok(true)`, and exhaustion stays
    /// inconclusive (`Err`).
    pub fn is_certain_metered(
        &self,
        exts: &Extensions,
        c: u32,
        d: u32,
        meter: &mut Meter,
    ) -> Result<bool, ExhaustionReason> {
        let a = extension_structure(&self.template, exts, c, d);
        let run = cspdb_solver::find_homomorphism_metered(&a, &self.template.template, meter);
        match run.answer {
            Answer::Sat(_) => Ok(false),
            Answer::Unsat => Ok(true),
            Answer::Unknown(reason) => Err(reason),
        }
    }

    /// The full certain-answer set `cert(Q, V) ⊆ D_V × D_V`.
    pub fn certain_answers(&self, exts: &Extensions) -> Vec<(u32, u32)> {
        let n = exts.num_objects as u32;
        let mut out = Vec::new();
        for c in 0..n {
            for d in 0..n {
                if self.is_certain(exts, c, d) {
                    out.push((c, d));
                }
            }
        }
        out
    }

    /// [`Self::certain_answers`] under a [`Meter`]: every one of the
    /// `n²` candidate pairs charges the same meter, so the budget bounds
    /// the whole sweep. The first pair that exhausts it aborts the sweep
    /// (inconclusive).
    pub fn certain_answers_metered(
        &self,
        exts: &Extensions,
        meter: &mut Meter,
    ) -> Result<Vec<(u32, u32)>, ExhaustionReason> {
        let n = exts.num_objects as u32;
        let pairs = (n as u64) * (n as u64);
        let mut out = Vec::new();
        for c in 0..n {
            for d in 0..n {
                if self.is_certain_metered(exts, c, d, meter)? {
                    out.push((c, d));
                }
            }
        }
        meter.tracer().emit_with(|| TraceEvent::RpqCertain {
            pairs,
            certain: out.len() as u64,
        });
        Ok(out)
    }
}

/// Decides `(c, d) ∈ cert(Q, V)` via the Theorem 7.5 reduction:
/// certain iff `CSP(A, B)` has **no** solution. For repeated queries
/// against the same `Q`/`def(V)`, build a [`CertainAnswering`] once.
pub fn certain_answer(
    q: &Regex,
    views: &[View],
    alphabet: &[char],
    exts: &Extensions,
    c: u32,
    d: u32,
) -> bool {
    CertainAnswering::new(q, views, alphabet).is_certain(exts, c, d)
}

/// Ground-truth certain answering by canonical counterexample
/// enumeration: for each view fact choose a witness word of length ≤
/// `max_word_len` from the view's language, build the disjoint-path
/// canonical database, and check whether `Q` misses `(c, d)`. Sound
/// always; complete when counterexample witnesses of bounded length
/// suffice (true for the small tests this backs).
///
/// Returns `true` iff `(c, d)` is certain w.r.t. the bounded search.
pub fn certain_answer_bruteforce(
    q: &Regex,
    views: &[View],
    alphabet: &[char],
    exts: &Extensions,
    c: u32,
    d: u32,
    max_word_len: usize,
) -> bool {
    // Enumerate, per view, the words of length <= max_word_len.
    let words_per_view: Vec<Vec<Vec<usize>>> = views
        .iter()
        .map(|v| {
            let nfa = Nfa::from_regex(&v.definition, alphabet);
            let mut words = Vec::new();
            let k = alphabet.len();
            for len in 0..=max_word_len {
                let mut w = vec![0usize; len];
                loop {
                    if nfa.accepts(&w) {
                        words.push(w.clone());
                    }
                    let mut i = len;
                    let done = loop {
                        if i == 0 {
                            break true;
                        }
                        i -= 1;
                        w[i] += 1;
                        if w[i] < k {
                            break false;
                        }
                        w[i] = 0;
                    };
                    if done {
                        break;
                    }
                }
            }
            words
        })
        .collect();
    // Collect all (view, pair) facts; each picks a word index.
    let facts: Vec<(usize, u32, u32)> = exts
        .pairs
        .iter()
        .enumerate()
        .flat_map(|(i, ps)| ps.iter().map(move |&(x, y)| (i, x, y)))
        .collect();
    // If some view fact has NO witness word within the bound, no
    // canonical database exists within the bound; fall back to "certain"
    // conservatively only if the view language is empty entirely (then
    // no consistent database exists at all and cert is vacuously true).
    for &(i, _, _) in &facts {
        if words_per_view[i].is_empty() {
            return true;
        }
    }
    let mut choice = vec![0usize; facts.len()];
    'choices: loop {
        // Build the canonical database for this choice.
        let extra: usize = facts
            .iter()
            .enumerate()
            .map(|(fi, _)| {
                words_per_view[facts[fi].0][choice[fi]]
                    .len()
                    .saturating_sub(1)
            })
            .sum();
        let mut db = GraphDb::new(exts.num_objects + extra, alphabet);
        let mut fresh = exts.num_objects as u32;
        for (fi, &(vi, x, y)) in facts.iter().enumerate() {
            let word = &words_per_view[vi][choice[fi]];
            if word.is_empty() {
                // ε-witness: only a loop pair (x, x) can be realized by
                // the empty word under the unique name assumption; for
                // x != y this choice yields no consistent database.
                if x != y {
                    if !advance(&mut choice, &facts, &words_per_view) {
                        return true;
                    }
                    continue 'choices;
                }
                continue;
            }
            let mut at = x;
            for (j, &sym) in word.iter().enumerate() {
                let next = if j + 1 == word.len() {
                    y
                } else {
                    let n = fresh;
                    fresh += 1;
                    n
                };
                db.add_edge(at, db.symbol(sym), next);
                at = next;
            }
        }
        if !db.answers_pair(q, c, d) {
            return false; // counterexample database found
        }
        if !advance(&mut choice, &facts, &words_per_view) {
            return true;
        }
    }
}

fn advance(
    choice: &mut [usize],
    facts: &[(usize, u32, u32)],
    words_per_view: &[Vec<Vec<usize>>],
) -> bool {
    let mut i = choice.len();
    loop {
        if i == 0 {
            return false;
        }
        i -= 1;
        choice[i] += 1;
        if choice[i] < words_per_view[facts[i].0].len() {
            return true;
        }
        choice[i] = 0;
    }
}

/// The output of the Theorem 7.3 reduction: a query and view definitions
/// depending only on the template digraph **B**.
#[derive(Debug, Clone)]
pub struct CspAsViews {
    /// The RPQ `Q`.
    pub query: Regex,
    /// The views: `V0` = start marker `s`, `V1` = vertex coloring
    /// `(0|1|...)`, `V2` = adjacency marker `b`, `V3` = end marker `t`.
    pub views: Vec<View>,
    /// The data alphabet Σ.
    pub alphabet: Vec<char>,
    /// Number of template nodes.
    pub num_template_nodes: usize,
}

/// Theorem 7.3: builds `Q` and `def(V)` from a template digraph **B**
/// (an `{E/2}` structure) such that for every digraph **A**,
/// `(c, d) ∉ cert(Q, V)` over [`extensions_for_digraph`]`(A)` iff
/// `CSP(A, B)` is solvable.
///
/// The word shapes of `L(Q)` are `s · i · b · j · t` for every non-edge
/// `(i, j)` of **B**: a consistent database must color every vertex of
/// **A** (view `V1`), and the query scans for a monochromatic violation.
///
/// # Panics
///
/// Panics if **B** has more than 10 nodes (node letters are digits) or
/// is empty.
pub fn csp_to_views(b: &Structure) -> CspAsViews {
    let m = b.domain_size();
    assert!(m >= 1, "template must be nonempty");
    assert!(m <= 10, "template nodes are encoded as digit letters");
    let node_char = |i: u32| char::from_digit(i, 10).expect("m <= 10");
    let mut alphabet: Vec<char> = (0..m as u32).map(node_char).collect();
    alphabet.extend(['s', 'b', 't']);
    let eb = b.relation_by_name("E").expect("template is a digraph");
    let mut bad_patterns = Vec::new();
    for i in 0..m as u32 {
        for j in 0..m as u32 {
            if !eb.contains(&[i, j]) {
                bad_patterns.push(Regex::sequence(vec![
                    Regex::Literal(node_char(i)),
                    Regex::Literal('b'),
                    Regex::Literal(node_char(j)),
                ]));
            }
        }
    }
    let query = Regex::sequence(vec![
        Regex::Literal('s'),
        Regex::any_of(bad_patterns),
        Regex::Literal('t'),
    ]);
    let views = vec![
        View {
            name: "Vs".into(),
            definition: Regex::Literal('s'),
        },
        View {
            name: "Vcolor".into(),
            definition: Regex::any_of(
                (0..m as u32)
                    .map(|i| Regex::Literal(node_char(i)))
                    .collect(),
            ),
        },
        View {
            name: "Vadj".into(),
            definition: Regex::Literal('b'),
        },
        View {
            name: "Vt".into(),
            definition: Regex::Literal('t'),
        },
    ];
    CspAsViews {
        query,
        views,
        alphabet,
        num_template_nodes: m,
    }
}

/// Builds the view extensions and distinguished pair for an input
/// digraph **A** under the [`csp_to_views`] reduction. Objects: vertices
/// `0..n`, companions `n..2n`, then `c = 2n`, `d = 2n + 1`.
///
/// # Panics
///
/// Panics if **A** has no vertices (the reduction needs `c`, `d` to
/// appear in extensions).
pub fn extensions_for_digraph(a: &Structure) -> (Extensions, u32, u32) {
    let n = a.domain_size();
    assert!(n >= 1, "input digraph must have at least one vertex");
    let c = 2 * n as u32;
    let d = c + 1;
    let ea = a.relation_by_name("E").expect("input is a digraph");
    let vs: Vec<(u32, u32)> = (0..n as u32).map(|x| (c, x)).collect();
    let vcolor: Vec<(u32, u32)> = (0..n as u32).map(|x| (x, x + n as u32)).collect();
    let vadj: Vec<(u32, u32)> = ea.iter().map(|t| (t[0] + n as u32, t[1])).collect();
    let vt: Vec<(u32, u32)> = (0..n as u32).map(|y| (y + n as u32, d)).collect();
    (
        Extensions {
            num_objects: 2 * n + 2,
            pairs: vec![vs, vcolor, vadj, vt],
        },
        c,
        d,
    )
}

/// End-to-end Theorem 7.3 ∘ Theorem 7.5 round trip: decides `CSP(A, B)`
/// for digraphs by translating to view-based answering and back to CSP.
pub fn csp_via_view_answering(a: &Structure, b: &Structure) -> bool {
    let reduction = csp_to_views(b);
    let (exts, c, d) = extensions_for_digraph(a);
    !certain_answer(
        &reduction.query,
        &reduction.views,
        &reduction.alphabet,
        &exts,
        c,
        d,
    )
}

/// Data-complexity measure helper: the size of the extensions (total
/// pairs), the quantity Theorem 7.1's co-NP bound is measured in.
pub fn extension_size(exts: &Extensions) -> usize {
    exts.pairs.iter().map(Vec::len).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::graphs::{clique, cycle, digraph};

    fn simple_views() -> (Regex, Vec<View>, Vec<char>) {
        // Q = ab over Σ = {a, b}; one view per letter.
        let q = Regex::parse("ab").unwrap();
        let views = vec![
            View {
                name: "Va".into(),
                definition: Regex::parse("a").unwrap(),
            },
            View {
                name: "Vb".into(),
                definition: Regex::parse("b").unwrap(),
            },
        ];
        (q, views, vec!['a', 'b'])
    }

    #[test]
    fn certain_answer_on_a_forced_chain() {
        let (q, views, alphabet) = simple_views();
        // ext: Va(0,1), Vb(1,2): every consistent DB has a-edge 0->1 and
        // b-edge 1->2, so (0,2) is certain.
        let exts = Extensions {
            num_objects: 3,
            pairs: vec![vec![(0, 1)], vec![(1, 2)]],
        };
        assert!(certain_answer(&q, &views, &alphabet, &exts, 0, 2));
        // (0,1) is not certain (no ab-path forced to end at 1).
        assert!(!certain_answer(&q, &views, &alphabet, &exts, 0, 1));
        // (1,2) is not certain for Q=ab.
        assert!(!certain_answer(&q, &views, &alphabet, &exts, 1, 2));
    }

    #[test]
    fn brute_force_agrees_on_forced_chain() {
        let (q, views, alphabet) = simple_views();
        let exts = Extensions {
            num_objects: 3,
            pairs: vec![vec![(0, 1)], vec![(1, 2)]],
        };
        for (c, d, _) in [(0, 2, true), (0, 1, false), (1, 2, false)] {
            assert_eq!(
                certain_answer(&q, &views, &alphabet, &exts, c, d),
                certain_answer_bruteforce(&q, &views, &alphabet, &exts, c, d, 3),
                "pair ({c},{d})"
            );
        }
    }

    #[test]
    fn disjunctive_views_are_not_certain() {
        // View Vab with def a|b; Q = a. A consistent DB may realize the
        // pair with b, so (0,1) is not certain.
        let q = Regex::parse("a").unwrap();
        let views = vec![View {
            name: "Vab".into(),
            definition: Regex::parse("a|b").unwrap(),
        }];
        let exts = Extensions {
            num_objects: 2,
            pairs: vec![vec![(0, 1)]],
        };
        assert!(!certain_answer(&q, &views, &['a', 'b'], &exts, 0, 1));
        assert!(!certain_answer_bruteforce(
            &q,
            &views,
            &['a', 'b'],
            &exts,
            0,
            1,
            2
        ));
        // But with Q = a|b it IS certain.
        let q2 = Regex::parse("a|b").unwrap();
        assert!(certain_answer(&q2, &views, &['a', 'b'], &exts, 0, 1));
        assert!(certain_answer_bruteforce(
            &q2,
            &views,
            &['a', 'b'],
            &exts,
            0,
            1,
            2
        ));
    }

    #[test]
    fn kleene_view_certainty() {
        // View V with def a+ and Q = a*: any witness word is a-only, so
        // (0,1) is certain for Q = a* (actually a+ ⊆ a*).
        let q = Regex::parse("a*").unwrap();
        let views = vec![View {
            name: "V".into(),
            definition: Regex::parse("a+").unwrap(),
        }];
        let exts = Extensions {
            num_objects: 2,
            pairs: vec![vec![(0, 1)]],
        };
        assert!(certain_answer(&q, &views, &['a'], &exts, 0, 1));
        assert!(certain_answer_bruteforce(
            &q,
            &views,
            &['a'],
            &exts,
            0,
            1,
            3
        ));
        // Q = aa is not certain (witness could be a single a).
        let q2 = Regex::parse("aa").unwrap();
        assert!(!certain_answer(&q2, &views, &['a'], &exts, 0, 1));
        assert!(!certain_answer_bruteforce(
            &q2,
            &views,
            &['a'],
            &exts,
            0,
            1,
            3
        ));
    }

    #[test]
    fn theorem_7_3_reduction_on_colorability() {
        // Template K2: CSP(A, K2) = 2-colorability.
        let k2 = clique(2);
        for (a, expect) in [
            (cycle(4), true),
            (cycle(5), false),
            (cycle(3), false),
            (digraph(2, &[(0, 1)]), true),
        ] {
            assert_eq!(
                csp_via_view_answering(&a, &k2),
                expect,
                "2-colorability of {a}"
            );
        }
    }

    #[test]
    fn theorem_7_3_reduction_matches_solver_on_random_digraphs() {
        let mut state = 0xABCDEF0123456789u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        // Template: directed 2-cycle plus loop structure.
        let b = digraph(2, &[(0, 1), (1, 0), (1, 1)]);
        for _ in 0..8 {
            let n = 2 + (next() % 3) as usize;
            let mut edges = Vec::new();
            for u in 0..n as u32 {
                for v in 0..n as u32 {
                    if next() % 3 == 0 {
                        edges.push((u, v));
                    }
                }
            }
            let a = digraph(n, &edges);
            let direct = cspdb_solver::find_homomorphism(&a, &b).is_some();
            assert_eq!(csp_via_view_answering(&a, &b), direct, "on {a}");
        }
    }

    #[test]
    fn template_shape() {
        let (q, views, alphabet) = simple_views();
        let t = constraint_template(&q, &views, &alphabet);
        // ab trimmed automaton: 3 states; domain 8.
        assert_eq!(t.num_states, 3);
        assert_eq!(t.template.domain_size(), 8);
        // Uc: supersets of S0 (1 start state): 4 of 8.
        assert_eq!(t.template.relation_by_name("Uc").unwrap().len(), 4);
        // Ud: sets avoiding F (1 accepting state): 4 of 8.
        assert_eq!(t.template.relation_by_name("Ud").unwrap().len(), 4);
    }

    #[test]
    fn empty_extension_views() {
        // With no view facts at all, c and d still appear via Uc/Ud...
        // they must be objects; certain answers require every consistent
        // DB to connect them — the empty DB is consistent, so nothing is
        // certain.
        let (q, views, alphabet) = simple_views();
        let exts = Extensions {
            num_objects: 2,
            pairs: vec![vec![], vec![]],
        };
        assert!(!certain_answer(&q, &views, &alphabet, &exts, 0, 1));
    }
}
