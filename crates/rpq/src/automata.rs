//! Nondeterministic and deterministic finite automata: Thompson
//! construction, subset construction, and the subset-image computations
//! used by the Section 7 constraint template.

use crate::regex::Regex;
use std::collections::{BTreeSet, HashMap, VecDeque};

/// An NFA with ε-transitions over a symbol alphabet.
#[derive(Debug, Clone)]
pub struct Nfa {
    /// The alphabet (sorted symbols).
    pub alphabet: Vec<char>,
    /// Per-state transitions: `(symbol index or None for ε, target)`.
    pub transitions: Vec<Vec<(Option<usize>, usize)>>,
    /// Start state.
    pub start: usize,
    /// Accepting states.
    pub accepting: Vec<bool>,
}

impl Nfa {
    /// Thompson construction from a regex; the alphabet may be widened
    /// beyond the symbols occurring in the pattern by passing `alphabet`
    /// (must contain every pattern symbol).
    ///
    /// # Panics
    ///
    /// Panics if the pattern uses a symbol outside `alphabet`.
    pub fn from_regex(r: &Regex, alphabet: &[char]) -> Nfa {
        let alphabet: Vec<char> = {
            let mut a = alphabet.to_vec();
            a.sort_unstable();
            a.dedup();
            a
        };
        let mut nfa = Nfa {
            alphabet: alphabet.clone(),
            transitions: Vec::new(),
            start: 0,
            accepting: Vec::new(),
        };
        let (s, t) = build(&mut nfa, r);
        nfa.start = s;
        nfa.accepting = vec![false; nfa.transitions.len()];
        nfa.accepting[t] = true;
        nfa
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    fn symbol_index(&self, c: char) -> usize {
        self.alphabet.binary_search(&c).expect("symbol in alphabet")
    }

    /// ε-closure of a set of states.
    pub fn epsilon_closure(&self, states: &BTreeSet<usize>) -> BTreeSet<usize> {
        let mut out = states.clone();
        let mut queue: VecDeque<usize> = states.iter().copied().collect();
        while let Some(q) = queue.pop_front() {
            for &(label, target) in &self.transitions[q] {
                if label.is_none() && out.insert(target) {
                    queue.push_back(target);
                }
            }
        }
        out
    }

    /// One-symbol image: ε-closure of the targets of `symbol`-transitions
    /// from `states` (which should already be ε-closed).
    pub fn step(&self, states: &BTreeSet<usize>, symbol: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for &q in states {
            for &(label, target) in &self.transitions[q] {
                if label == Some(symbol) {
                    out.insert(target);
                }
            }
        }
        self.epsilon_closure(&out)
    }

    /// The ε-closed start set.
    pub fn start_set(&self) -> BTreeSet<usize> {
        self.epsilon_closure(&std::iter::once(self.start).collect())
    }

    /// True if the word (symbol indices) is accepted.
    pub fn accepts(&self, word: &[usize]) -> bool {
        let mut current = self.start_set();
        for &s in word {
            current = self.step(&current, s);
            if current.is_empty() {
                return false;
            }
        }
        current.iter().any(|&q| self.accepting[q])
    }

    /// True if the word of characters is accepted.
    pub fn accepts_chars(&self, word: &str) -> bool {
        let symbols: Option<Vec<usize>> = word
            .chars()
            .map(|c| self.alphabet.binary_search(&c).ok())
            .collect();
        match symbols {
            Some(w) => self.accepts(&w),
            None => false,
        }
    }

    /// Subset construction.
    #[allow(clippy::needless_range_loop)] // index drives two parallel tables
    pub fn determinize(&self) -> Dfa {
        let start = self.start_set();
        let mut index: HashMap<BTreeSet<usize>, usize> = HashMap::new();
        let mut sets: Vec<BTreeSet<usize>> = vec![start.clone()];
        index.insert(start, 0);
        let mut transitions: Vec<Vec<usize>> = Vec::new();
        let mut queue = VecDeque::from([0usize]);
        while let Some(i) = queue.pop_front() {
            while transitions.len() <= i {
                transitions.push(vec![usize::MAX; self.alphabet.len()]);
            }
            for s in 0..self.alphabet.len() {
                let next = self.step(&sets[i].clone(), s);
                let j = *index.entry(next.clone()).or_insert_with(|| {
                    sets.push(next);
                    queue.push_back(sets.len() - 1);
                    sets.len() - 1
                });
                transitions[i][s] = j;
            }
        }
        while transitions.len() < sets.len() {
            transitions.push(vec![usize::MAX; self.alphabet.len()]);
        }
        let accepting: Vec<bool> = sets
            .iter()
            .map(|set| set.iter().any(|&q| self.accepting[q]))
            .collect();
        Dfa {
            alphabet: self.alphabet.clone(),
            transitions,
            start: 0,
            accepting,
        }
    }
}

fn build(nfa: &mut Nfa, r: &Regex) -> (usize, usize) {
    let new_state = |nfa: &mut Nfa| -> usize {
        nfa.transitions.push(Vec::new());
        nfa.transitions.len() - 1
    };
    match r {
        Regex::Empty => {
            let s = new_state(nfa);
            let t = new_state(nfa);
            (s, t)
        }
        Regex::Epsilon => {
            let s = new_state(nfa);
            let t = new_state(nfa);
            nfa.transitions[s].push((None, t));
            (s, t)
        }
        Regex::Literal(c) => {
            let s = new_state(nfa);
            let t = new_state(nfa);
            let idx = nfa.symbol_index(*c);
            nfa.transitions[s].push((Some(idx), t));
            (s, t)
        }
        Regex::Concat(a, b) => {
            let (sa, ta) = build(nfa, a);
            let (sb, tb) = build(nfa, b);
            nfa.transitions[ta].push((None, sb));
            (sa, tb)
        }
        Regex::Alt(a, b) => {
            let s = new_state(nfa);
            let t = new_state(nfa);
            let (sa, ta) = build(nfa, a);
            let (sb, tb) = build(nfa, b);
            nfa.transitions[s].push((None, sa));
            nfa.transitions[s].push((None, sb));
            nfa.transitions[ta].push((None, t));
            nfa.transitions[tb].push((None, t));
            (s, t)
        }
        Regex::Star(a) => {
            let s = new_state(nfa);
            let t = new_state(nfa);
            let (sa, ta) = build(nfa, a);
            nfa.transitions[s].push((None, sa));
            nfa.transitions[s].push((None, t));
            nfa.transitions[ta].push((None, sa));
            nfa.transitions[ta].push((None, t));
            (s, t)
        }
    }
}

/// An ε-free NFA with possibly several start states, trimmed to useful
/// (reachable and co-reachable) states — the `A_Q = (Σ, S, S0, ρ, F)`
/// form that Section 7's constraint template construction consumes.
#[derive(Debug, Clone)]
pub struct EpsilonFreeNfa {
    /// The alphabet, sorted.
    pub alphabet: Vec<char>,
    /// Number of states.
    pub num_states: usize,
    /// Start states `S0`.
    pub start: BTreeSet<usize>,
    /// Accepting states `F`.
    pub accepting: Vec<bool>,
    /// `step[state][symbol]` = successor set.
    pub step: Vec<Vec<BTreeSet<usize>>>,
}

impl EpsilonFreeNfa {
    /// Collapses forward-bisimilar states (same acceptance and, per
    /// symbol, the same set of successor blocks) by partition
    /// refinement. Preserves the language and shrinks the state count —
    /// which matters quadratically-exponentially for the Section 7
    /// template whose domain is `2^S`.
    #[allow(clippy::needless_range_loop)] // symbol indices drive parallel tables
    pub fn reduce(&self) -> EpsilonFreeNfa {
        let n = self.num_states;
        if n == 0 {
            return self.clone();
        }
        let k = self.alphabet.len();
        // Initial partition by acceptance; refinement only ever splits
        // blocks (signatures include the old block id), so the loop
        // terminates when the block count stops growing.
        let mut block: Vec<usize> = self.accepting.iter().map(|&a| usize::from(a)).collect();
        let mut count = block.iter().copied().max().unwrap_or(0) + 1;
        loop {
            let mut sig_index: HashMap<(usize, Vec<Vec<usize>>), usize> = HashMap::new();
            let mut new_block = vec![0usize; n];
            for q in 0..n {
                let sig: Vec<Vec<usize>> = (0..k)
                    .map(|s| {
                        let mut bs: Vec<usize> =
                            self.step[q][s].iter().map(|&t| block[t]).collect();
                        bs.sort_unstable();
                        bs.dedup();
                        bs
                    })
                    .collect();
                let next = sig_index.len();
                let id = *sig_index.entry((block[q], sig)).or_insert(next);
                new_block[q] = id;
            }
            let new_count = sig_index.len();
            block = new_block;
            if new_count == count {
                break;
            }
            count = new_count;
        }
        let num_blocks = block.iter().copied().max().unwrap_or(0) + 1;
        let mut out = EpsilonFreeNfa {
            alphabet: self.alphabet.clone(),
            num_states: num_blocks,
            start: self.start.iter().map(|&q| block[q]).collect(),
            accepting: vec![false; num_blocks],
            step: vec![vec![BTreeSet::new(); k]; num_blocks],
        };
        for q in 0..n {
            if self.accepting[q] {
                out.accepting[block[q]] = true;
            }
            for s in 0..k {
                for &t in &self.step[q][s] {
                    out.step[block[q]][s].insert(block[t]);
                }
            }
        }
        out
    }

    /// Subset image `ρ(σ, a)`.
    pub fn image(&self, states: &BTreeSet<usize>, symbol: usize) -> BTreeSet<usize> {
        let mut out = BTreeSet::new();
        for &q in states {
            out.extend(self.step[q][symbol].iter().copied());
        }
        out
    }

    /// True if the word (symbol indices) is accepted.
    pub fn accepts(&self, word: &[usize]) -> bool {
        let mut current = self.start.clone();
        for &s in word {
            current = self.image(&current, s);
        }
        current.iter().any(|&q| self.accepting[q])
    }
}

impl Nfa {
    /// Converts to an ε-free NFA and trims to useful states (reachable
    /// from the start and co-reachable to acceptance). The language is
    /// preserved; the state count shrinks substantially versus the raw
    /// Thompson automaton, which matters because the Section 7 template
    /// has domain `2^S`.
    #[allow(clippy::needless_range_loop)] // symbol indices drive parallel tables
    pub fn epsilon_free_trimmed(&self) -> EpsilonFreeNfa {
        let n = self.num_states();
        let k = self.alphabet.len();
        // ε-free over original states.
        let closure_of = |q: usize| self.epsilon_closure(&std::iter::once(q).collect());
        let mut step: Vec<Vec<BTreeSet<usize>>> = vec![vec![BTreeSet::new(); k]; n];
        let mut accepting = vec![false; n];
        for q in 0..n {
            let cl = closure_of(q);
            accepting[q] = cl.iter().any(|&x| self.accepting[x]);
            for s in 0..k {
                let mut targets = BTreeSet::new();
                for &x in &cl {
                    for &(label, t) in &self.transitions[x] {
                        if label == Some(s) {
                            targets.insert(t);
                        }
                    }
                }
                step[q][s] = targets;
            }
        }
        let start: BTreeSet<usize> = std::iter::once(self.start).collect();
        // Reachable states.
        let mut reachable = vec![false; n];
        let mut queue: VecDeque<usize> = start.iter().copied().collect();
        for &q in &start {
            reachable[q] = true;
        }
        while let Some(q) = queue.pop_front() {
            for s in 0..k {
                for &t in &step[q][s] {
                    if !reachable[t] {
                        reachable[t] = true;
                        queue.push_back(t);
                    }
                }
            }
        }
        // Co-reachable states (reverse BFS from accepting).
        let mut rev: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (q, row) in step.iter().enumerate() {
            for targets in row {
                for &t in targets {
                    rev[t].push(q);
                }
            }
        }
        let mut co = vec![false; n];
        let mut queue: VecDeque<usize> = (0..n).filter(|&q| accepting[q]).collect();
        for q in queue.iter() {
            co[*q] = true;
        }
        while let Some(q) = queue.pop_front() {
            for &p in &rev[q] {
                if !co[p] {
                    co[p] = true;
                    queue.push_back(p);
                }
            }
        }
        let useful: Vec<usize> = (0..n).filter(|&q| reachable[q] && co[q]).collect();
        let remap: HashMap<usize, usize> =
            useful.iter().enumerate().map(|(i, &q)| (q, i)).collect();
        let m = useful.len();
        let mut out = EpsilonFreeNfa {
            alphabet: self.alphabet.clone(),
            num_states: m,
            start: start.iter().filter_map(|q| remap.get(q).copied()).collect(),
            accepting: useful.iter().map(|&q| accepting[q]).collect(),
            step: vec![vec![BTreeSet::new(); k]; m],
        };
        for (i, &q) in useful.iter().enumerate() {
            for s in 0..k {
                out.step[i][s] = step[q][s]
                    .iter()
                    .filter_map(|t| remap.get(t).copied())
                    .collect();
            }
        }
        out
    }
}

/// A complete DFA (every state has a transition on every symbol; the
/// dead state is an ordinary state produced by determinization).
#[derive(Debug, Clone)]
pub struct Dfa {
    /// The alphabet (sorted symbols).
    pub alphabet: Vec<char>,
    /// `transitions[state][symbol] = state`.
    pub transitions: Vec<Vec<usize>>,
    /// Start state.
    pub start: usize,
    /// Accepting states.
    pub accepting: Vec<bool>,
}

impl Dfa {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.transitions.len()
    }

    /// Runs the DFA on a word of symbol indices.
    pub fn run(&self, word: &[usize]) -> usize {
        let mut q = self.start;
        for &s in word {
            q = self.transitions[q][s];
        }
        q
    }

    /// True if the word is accepted.
    pub fn accepts(&self, word: &[usize]) -> bool {
        self.accepting[self.run(word)]
    }

    /// Complements the DFA (flips acceptance; requires completeness,
    /// which [`Nfa::determinize`] guarantees).
    pub fn complement(&self) -> Dfa {
        Dfa {
            alphabet: self.alphabet.clone(),
            transitions: self.transitions.clone(),
            start: self.start,
            accepting: self.accepting.iter().map(|&a| !a).collect(),
        }
    }

    /// True if the language is empty.
    pub fn is_empty(&self) -> bool {
        // BFS from start over all symbols.
        let mut seen = vec![false; self.num_states()];
        let mut queue = VecDeque::from([self.start]);
        seen[self.start] = true;
        while let Some(q) = queue.pop_front() {
            if self.accepting[q] {
                return false;
            }
            for &t in &self.transitions[q] {
                if !seen[t] {
                    seen[t] = true;
                    queue.push_back(t);
                }
            }
        }
        true
    }

    /// Extracts a regular expression for the DFA's language by state
    /// elimination. Exponential in the worst case; used to present
    /// rewritings (Section 7 / \[8\]) in readable form.
    #[allow(clippy::needless_range_loop)] // GNFA matrix indexing
    pub fn to_regex(&self) -> Regex {
        // Generalized NFA: matrix of regexes between states 0..n+1
        // (n = start', n+1 = accept').
        let n = self.num_states();
        let mut m: Vec<Vec<Regex>> = vec![vec![Regex::Empty; n + 2]; n + 2];
        for (q, row) in self.transitions.iter().enumerate() {
            for (s, &t) in row.iter().enumerate() {
                let lit = Regex::Literal(self.alphabet[s]);
                let cur = std::mem::replace(&mut m[q][t], Regex::Empty);
                m[q][t] = simplify_alt(cur, lit);
            }
        }
        m[n][self.start] = Regex::Epsilon;
        for (q, &acc) in self.accepting.iter().enumerate() {
            if acc {
                m[q][n + 1] = Regex::Epsilon;
            }
        }
        // Eliminate states 0..n.
        for k in 0..n {
            let loop_k = m[k][k].clone();
            let star = match &loop_k {
                Regex::Empty => Regex::Epsilon,
                r => r.clone().star(),
            };
            let sources: Vec<usize> = (0..n + 2)
                .filter(|&i| i != k && m[i][k] != Regex::Empty)
                .collect();
            let targets: Vec<usize> = (0..n + 2)
                .filter(|&j| j != k && m[k][j] != Regex::Empty)
                .collect();
            for &i in &sources {
                for &j in &targets {
                    let through = simplify_concat(
                        simplify_concat(m[i][k].clone(), star.clone()),
                        m[k][j].clone(),
                    );
                    let cur = std::mem::replace(&mut m[i][j], Regex::Empty);
                    m[i][j] = simplify_alt(cur, through);
                }
            }
            for i in 0..n + 2 {
                m[i][k] = Regex::Empty;
                m[k][i] = Regex::Empty;
            }
        }
        m[n][n + 1].clone()
    }
}

fn simplify_alt(a: Regex, b: Regex) -> Regex {
    match (a, b) {
        (Regex::Empty, r) | (r, Regex::Empty) => r,
        (a, b) if a == b => a,
        (a, b) => a.alt(b),
    }
}

fn simplify_concat(a: Regex, b: Regex) -> Regex {
    match (a, b) {
        (Regex::Empty, _) | (_, Regex::Empty) => Regex::Empty,
        (Regex::Epsilon, r) | (r, Regex::Epsilon) => r,
        (a, b) => a.concat(b),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nfa(pattern: &str) -> Nfa {
        let r = Regex::parse(pattern).unwrap();
        let alphabet = r.alphabet();
        Nfa::from_regex(&r, &alphabet)
    }

    #[test]
    fn basic_acceptance() {
        let a = nfa("a(b|c)*d");
        assert!(a.accepts_chars("ad"));
        assert!(a.accepts_chars("abcbd"));
        assert!(!a.accepts_chars("a"));
        assert!(!a.accepts_chars("abca"));
        assert!(!a.accepts_chars("xyz"));
    }

    #[test]
    fn dfa_agrees_with_nfa_on_all_short_words() {
        for pattern in ["a(b|c)*d", "(ab)*", "a+b?", "a|bc", "(a|b)*abb"] {
            let n = nfa(pattern);
            let d = n.determinize();
            let k = n.alphabet.len();
            // All words of length <= 5.
            for len in 0..=5usize {
                let mut word = vec![0usize; len];
                loop {
                    assert_eq!(n.accepts(&word), d.accepts(&word), "{pattern} on {word:?}");
                    let mut i = len;
                    let done = loop {
                        if i == 0 {
                            break true;
                        }
                        i -= 1;
                        word[i] += 1;
                        if word[i] < k {
                            break false;
                        }
                        word[i] = 0;
                    };
                    if done {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn complement_and_emptiness() {
        let d = nfa("a*").determinize();
        assert!(!d.is_empty());
        let c = d.complement();
        // Complement of a* over {a}: empty (every a-word matches a*).
        assert!(c.is_empty());
        let d2 = nfa("ab").determinize();
        assert!(!d2.complement().is_empty());
    }

    #[test]
    fn empty_regex_rejects_everything() {
        let n = Nfa::from_regex(&Regex::Empty, &['a']);
        assert!(!n.accepts(&[]));
        assert!(!n.accepts(&[0]));
        assert!(n.determinize().is_empty());
    }

    #[test]
    fn to_regex_preserves_language() {
        for pattern in ["(ab)*", "a(b|c)d", "a*", "ab|ba"] {
            let n = nfa(pattern);
            let d = n.determinize();
            let back = d.to_regex();
            let n2 = Nfa::from_regex(&back, &n.alphabet);
            let k = n.alphabet.len();
            for len in 0..=4usize {
                let mut word = vec![0usize; len];
                loop {
                    assert_eq!(
                        n.accepts(&word),
                        n2.accepts(&word),
                        "{pattern} -> {back} on {word:?}"
                    );
                    let mut i = len;
                    let done = loop {
                        if i == 0 {
                            break true;
                        }
                        i -= 1;
                        word[i] += 1;
                        if word[i] < k {
                            break false;
                        }
                        word[i] = 0;
                    };
                    if done {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn widened_alphabet() {
        let r = Regex::parse("a").unwrap();
        let n = Nfa::from_regex(&r, &['a', 'b', 'c']);
        assert_eq!(n.alphabet.len(), 3);
        assert!(n.accepts_chars("a"));
        assert!(!n.accepts_chars("b"));
    }
}

#[cfg(test)]
mod eps_free_tests {
    use super::*;
    use crate::regex::Regex;

    #[test]
    fn epsilon_free_preserves_language_and_shrinks() {
        for pattern in ["a(b|c)*d", "(ab)*", "a+b?", "ab|ba", "a*"] {
            let r = Regex::parse(pattern).unwrap();
            let alphabet = r.alphabet();
            let nfa = Nfa::from_regex(&r, &alphabet);
            let ef = nfa.epsilon_free_trimmed();
            assert!(ef.num_states <= nfa.num_states());
            let k = alphabet.len();
            for len in 0..=4usize {
                let mut word = vec![0usize; len];
                loop {
                    assert_eq!(
                        nfa.accepts(&word),
                        ef.accepts(&word),
                        "{pattern} on {word:?}"
                    );
                    let mut i = len;
                    let done = loop {
                        if i == 0 {
                            break true;
                        }
                        i -= 1;
                        word[i] += 1;
                        if word[i] < k {
                            break false;
                        }
                        word[i] = 0;
                    };
                    if done {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn empty_language_trims_to_nothing() {
        let nfa = Nfa::from_regex(&Regex::Empty, &['a']);
        let ef = nfa.epsilon_free_trimmed();
        assert_eq!(ef.num_states, 0);
        assert!(!ef.accepts(&[]));
    }
}

#[cfg(test)]
mod reduce_tests {
    use super::*;
    use crate::regex::Regex;

    #[test]
    fn reduce_preserves_language_and_never_grows() {
        for pattern in ["a(b|c)*d", "(ab)*", "s(aba|bab)t", "a|aa|aaa"] {
            let r = Regex::parse(pattern).unwrap();
            let alphabet = r.alphabet();
            let ef = Nfa::from_regex(&r, &alphabet).epsilon_free_trimmed();
            let red = ef.reduce();
            assert!(red.num_states <= ef.num_states);
            let k = alphabet.len();
            for len in 0..=6usize {
                let mut word = vec![0usize; len];
                loop {
                    assert_eq!(
                        ef.accepts(&word),
                        red.accepts(&word),
                        "{pattern} on {word:?}"
                    );
                    let mut i = len;
                    let done = loop {
                        if i == 0 {
                            break true;
                        }
                        i -= 1;
                        word[i] += 1;
                        if word[i] < k {
                            break false;
                        }
                        word[i] = 0;
                    };
                    if done {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn reduce_merges_parallel_branches() {
        // s(0b0|1b1)t-style query: the branch tails are distinct but the
        // shared prefix/suffix states merge.
        let r = Regex::parse("s(aba|bab)t").unwrap();
        let alphabet = r.alphabet();
        let ef = Nfa::from_regex(&r, &alphabet).epsilon_free_trimmed();
        let red = ef.reduce();
        assert!(
            red.num_states < ef.num_states,
            "{} vs {}",
            red.num_states,
            ef.num_states
        );
    }
}
