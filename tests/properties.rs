//! Property-based tests (proptest) for the core invariants of the
//! workspace: relation algebra laws, homomorphism facts, consistency
//! soundness, automata agreement, and the solver-vs-oracle contracts.

use constraint_db::core::{is_homomorphism, CspInstance, PartialHom, Relation};
use constraint_db::relalg::NamedRelation;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Strategy: a relation of the given arity over values `0..d`.
fn relation(arity: usize, d: u32, max_tuples: usize) -> impl Strategy<Value = Relation> {
    prop::collection::vec(prop::collection::vec(0..d, arity), 0..=max_tuples)
        .prop_map(move |ts| Relation::from_tuples(arity, ts.iter()).unwrap())
}

/// Strategy: a small undirected graph as a structure.
fn graph(n: usize) -> impl Strategy<Value = constraint_db::core::Structure> {
    prop::collection::vec((0..n as u32, 0..n as u32), 0..(n * 2)).prop_map(move |edges| {
        let filtered: Vec<(u32, u32)> = edges.into_iter().filter(|(u, v)| u != v).collect();
        constraint_db::core::graphs::undirected(n, &filtered)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // ---- Relation algebra laws ----

    #[test]
    fn intersect_is_lower_bound(a in relation(2, 3, 8), b in relation(2, 3, 8)) {
        let i = a.intersect(&b).unwrap();
        prop_assert!(i.is_subset_of(&a));
        prop_assert!(i.is_subset_of(&b));
        prop_assert_eq!(a.intersect(&b).unwrap(), b.intersect(&a).unwrap());
    }

    #[test]
    fn union_is_upper_bound(a in relation(2, 3, 8), b in relation(2, 3, 8)) {
        let u = a.union(&b).unwrap();
        prop_assert!(a.is_subset_of(&u));
        prop_assert!(b.is_subset_of(&u));
        prop_assert_eq!(u.len() + a.intersect(&b).unwrap().len(), a.len() + b.len());
    }

    #[test]
    fn natural_join_commutes(
        ra in relation(2, 3, 8),
        rb in relation(2, 3, 8),
    ) {
        let a = NamedRelation::new(vec![0, 1], ra.iter().map(|t| t.to_vec()));
        let b = NamedRelation::new(vec![1, 2], rb.iter().map(|t| t.to_vec()));
        let ab = a.natural_join(&b);
        let ba = b.natural_join(&a).project(&[0, 1, 2]);
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn join_is_associative(
        ra in relation(2, 2, 6),
        rb in relation(2, 2, 6),
        rc in relation(2, 2, 6),
    ) {
        let a = NamedRelation::new(vec![0, 1], ra.iter().map(|t| t.to_vec()));
        let b = NamedRelation::new(vec![1, 2], rb.iter().map(|t| t.to_vec()));
        let c = NamedRelation::new(vec![2, 3], rc.iter().map(|t| t.to_vec()));
        let left = a.natural_join(&b).natural_join(&c).project(&[0, 1, 2, 3]);
        let right = a.natural_join(&b.natural_join(&c)).project(&[0, 1, 2, 3]);
        prop_assert_eq!(left, right);
    }

    #[test]
    fn semijoin_is_a_filter(
        ra in relation(2, 3, 8),
        rb in relation(2, 3, 8),
    ) {
        let a = NamedRelation::new(vec![0, 1], ra.iter().map(|t| t.to_vec()));
        let b = NamedRelation::new(vec![1, 2], rb.iter().map(|t| t.to_vec()));
        let s = a.semijoin(&b);
        prop_assert!(s.len() <= a.len());
        // Semijoin equals projection of the join onto a's schema.
        let join_proj = a.natural_join(&b).project(&[0, 1]);
        let s_rows: std::collections::BTreeSet<_> = s.iter().map(<[u32]>::to_vec).collect();
        let j_rows: std::collections::BTreeSet<_> =
            join_proj.iter().map(<[u32]>::to_vec).collect();
        prop_assert_eq!(s_rows, j_rows);
    }

    // ---- Homomorphisms ----

    #[test]
    fn homomorphic_image_is_homomorphism(g in graph(5), map in prop::collection::vec(0..3u32, 5)) {
        let image = g.map_domain(&map, 3).unwrap();
        prop_assert!(is_homomorphism(&map, &g, &image));
    }

    #[test]
    fn partial_hom_roundtrip(pairs in prop::collection::vec((0..6u32, 0..6u32), 0..6)) {
        if let Some(f) = PartialHom::from_pairs(pairs.clone()) {
            for (a, b) in f.iter() {
                prop_assert_eq!(f.get(a), Some(b));
            }
            // Restrictions are subfunctions.
            for r in f.drop_each() {
                prop_assert!(r.is_subfunction_of(&f));
            }
        }
    }

    // ---- Solver vs oracle ----

    #[test]
    fn solver_matches_brute_force(
        seed in 0..500u64,
    ) {
        let p = cspdb_gen::random_binary_csp(5, 3, 6, 0.45, seed);
        let fast = constraint_db::solver::solve_csp(&p);
        let slow = p.solve_brute_force();
        prop_assert_eq!(fast.is_some(), slow.is_some());
        if let Some(w) = fast {
            prop_assert!(p.is_solution(&w));
        }
    }

    #[test]
    fn ac3_never_removes_solutions(seed in 0..300u64) {
        let p = cspdb_gen::random_binary_csp(5, 3, 6, 0.4, seed);
        let solutions: Vec<Vec<u32>> = {
            // Enumerate all via search.
            let mut out = Vec::new();
            let problem = constraint_db::solver::Problem::from_csp(&p);
            let mut s = constraint_db::solver::Search::new(
                &problem,
                constraint_db::solver::Config::default(),
            );
            s.run(None, |w| {
                out.push(w.to_vec());
                std::ops::ControlFlow::Continue(())
            });
            out
        };
        match constraint_db::consistency::ac3(&p) {
            None => prop_assert!(solutions.is_empty(), "AC-3 wipeout on satisfiable instance"),
            Some(domains) => {
                for sol in &solutions {
                    for (v, &val) in sol.iter().enumerate() {
                        prop_assert!(
                            domains[v].contains(&val),
                            "AC-3 removed a solution value"
                        );
                    }
                }
            }
        }
    }

    // ---- Pebble games ----

    #[test]
    fn spoiler_win_refutes_soundly(seed in 0..200u64) {
        let g = cspdb_gen::gnp(6, 0.4, seed);
        let b = constraint_db::core::graphs::clique(2);
        for k in 2..=3usize {
            if constraint_db::consistency::spoiler_wins(&g, &b, k) {
                let csp = CspInstance::from_homomorphism(&g, &b).unwrap();
                prop_assert!(csp.solve_brute_force().is_none());
            }
        }
    }

    #[test]
    fn largest_strategy_is_winning_when_nonempty(seed in 0..100u64) {
        let g = cspdb_gen::gnp(5, 0.5, seed);
        let b = constraint_db::core::graphs::clique(3);
        let w = constraint_db::consistency::largest_winning_strategy(&g, &b, 2);
        if !w.is_empty() {
            prop_assert!(w.is_winning_for(&g, &b));
        }
    }

    // ---- Schaefer ----

    #[test]
    fn dichotomy_driver_matches_oracle(seed in 0..300u64) {
        let f = cspdb_gen::random_2sat(5, 8, seed);
        let csp = cspdb_gen::cnf_to_csp(&f);
        let (_, fast) = constraint_db::schaefer::solve_boolean(&csp);
        prop_assert_eq!(fast.is_some(), f.solve_brute_force().is_some());
    }

    #[test]
    fn classification_is_sound_for_closures(r in relation(2, 2, 10)) {
        use constraint_db::schaefer::{is_horn_relation, is_affine_relation};
        // If closed under AND, then the AND of any two tuples is present
        // (direct re-check of the definition).
        if is_horn_relation(&r) {
            for a in r.iter() {
                for b in r.iter() {
                    let and: Vec<u32> =
                        a.iter().zip(b.iter()).map(|(&x, &y)| x & y).collect();
                    prop_assert!(r.contains(&and));
                }
            }
        }
        // Affine relations have |R| a power of two (coset of a linear
        // space) when nonempty.
        if is_affine_relation(&r) && !r.is_empty() {
            prop_assert!(r.len().is_power_of_two());
        }
    }

    // ---- Decompositions ----

    #[test]
    fn elimination_orders_give_valid_decompositions(g in graph(7)) {
        let gg = constraint_db::decomp::Graph::gaifman(&g);
        let order = constraint_db::decomp::min_fill_order(&gg);
        let td = constraint_db::decomp::from_elimination_order(&gg, &order);
        prop_assert!(td.validate(&gg).is_ok());
        prop_assert_eq!(td.width(), constraint_db::decomp::order_width(&gg, &order));
    }

    #[test]
    fn dp_matches_search_on_random_graphs(g in graph(6)) {
        let b = constraint_db::core::graphs::clique(2);
        let (_, dp) = constraint_db::decomp::solve_by_treewidth(&g, &b);
        let s = constraint_db::solver::find_homomorphism(&g, &b);
        prop_assert_eq!(dp.is_some(), s.is_some());
    }

    // ---- Automata ----

    #[test]
    fn dfa_nfa_eps_free_agree(words in prop::collection::vec(prop::collection::vec(0..2usize, 0..6), 0..10)) {
        for pattern in ["a(b|a)*", "(ab)*a?", "b|aa"] {
            let r = constraint_db::rpq::Regex::parse(pattern).unwrap();
            let nfa = constraint_db::rpq::Nfa::from_regex(&r, &['a', 'b']);
            let dfa = nfa.determinize();
            let ef = nfa.epsilon_free_trimmed();
            for w in &words {
                let expect = nfa.accepts(w);
                prop_assert_eq!(dfa.accepts(w), expect);
                prop_assert_eq!(ef.accepts(w), expect);
            }
        }
    }

    // ---- CSP instance conversions ----

    #[test]
    fn csp_hom_roundtrip_preserves(seed in 0..200u64) {
        let p = cspdb_gen::random_binary_csp(4, 3, 5, 0.4, seed).consolidate();
        let (a, b) = p.to_homomorphism();
        let q = CspInstance::from_homomorphism(&a, &b).unwrap();
        prop_assert_eq!(
            p.count_solutions_brute_force(),
            q.count_solutions_brute_force()
        );
    }

    // ---- Products and the homomorphism order ----

    #[test]
    fn product_has_the_universal_property(x in graph(4), a in graph(3), b in graph(3)) {
        // hom(X, A×B) iff hom(X, A) and hom(X, B).
        let p = a.product(&b).unwrap();
        let into_p = constraint_db::solver::homomorphism_exists(&x, &p);
        let into_a = constraint_db::solver::homomorphism_exists(&x, &a);
        let into_b = constraint_db::solver::homomorphism_exists(&x, &b);
        prop_assert_eq!(into_p, into_a && into_b);
    }

    #[test]
    fn disjoint_union_is_coproduct(a in graph(3), b in graph(3)) {
        // hom(A+B, C) iff hom(A, C) and hom(B, C); take C = K3.
        let c = constraint_db::core::graphs::clique(3);
        let u = a.disjoint_union(&b).unwrap();
        let from_u = constraint_db::solver::homomorphism_exists(&u, &c);
        let from_a = constraint_db::solver::homomorphism_exists(&a, &c);
        let from_b = constraint_db::solver::homomorphism_exists(&b, &c);
        prop_assert_eq!(from_u, from_a && from_b);
    }

    // ---- Counting DP ----

    #[test]
    fn counting_dp_matches_enumeration(g in graph(6)) {
        for colors in 2..=3usize {
            let b = constraint_db::core::graphs::clique(colors);
            prop_assert_eq!(
                constraint_db::decomp::count_by_treewidth(&g, &b),
                constraint_db::solver::count_homomorphisms(&g, &b)
            );
        }
    }

    // ---- Structure cores ----

    #[test]
    fn cores_are_hom_equivalent_retracts(g in graph(5)) {
        let core = constraint_db::cq::structure_core(&g);
        prop_assert!(core.domain_size() <= g.domain_size());
        if g.domain_size() > 0 {
            prop_assert!(constraint_db::cq::are_hom_equivalent(&g, &core));
        }
    }

    // ---- Freuder tree pipeline ----

    #[test]
    fn tree_pipeline_matches_oracle(seed in 0..200u64) {
        use constraint_db::core::{CspInstance, Relation};
        let mut s = seed.wrapping_mul(0x2545F4914F6CDD1D) | 1;
        let mut next = move || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        let n = 6usize;
        let d = 3usize;
        let mut p = CspInstance::new(n, d);
        for v in 1..n as u32 {
            let u = (next() % v as u64) as u32;
            let tuples: Vec<[u32; 2]> = (0..d as u32)
                .flat_map(|i| (0..d as u32).map(move |j| [i, j]))
                .filter(|_| next() % 3 != 0)
                .collect();
            p.add_constraint(
                [u, v],
                Arc::new(Relation::from_tuples(2, tuples).unwrap()),
            )
            .unwrap();
        }
        prop_assert!(constraint_db::consistency::is_tree_instance(&p));
        let fast = constraint_db::consistency::solve_tree_csp(&p);
        let slow = p.solve_brute_force();
        prop_assert_eq!(fast.is_some(), slow.is_some());
    }

    #[test]
    fn consolidate_and_normalize_preserve_satisfiability(seed in 0..200u64) {
        let mut p = cspdb_gen::random_binary_csp(4, 2, 6, 0.4, seed);
        // Inject a repeated-variable constraint.
        let r = Arc::new(Relation::from_tuples(2, [[0u32, 0], [1, 1]]).unwrap());
        p.add_constraint([2, 2], r).unwrap();
        let q = p.normalize_distinct().consolidate();
        prop_assert_eq!(
            p.solve_brute_force().is_some(),
            q.solve_brute_force().is_some()
        );
    }
}

// ---- Relation against a set-of-rows model, at arities 0–4 ----

/// The model a [`Relation`] must agree with: a set of rows.
type Model = BTreeSet<Vec<u32>>;

/// Strategy: up to 8 raw rows of width 4 over `0..3`; a test cuts each
/// row to the arity it is checking, so duplicates are common.
fn raw_rows() -> impl Strategy<Value = Vec<Vec<u32>>> {
    prop::collection::vec(prop::collection::vec(0..3u32, 4), 0..=8)
}

/// The raw rows cut to `arity`, in generation order.
fn cut(arity: usize, raw: &[Vec<u32>]) -> Vec<Vec<u32>> {
    raw.iter().map(|r| r[..arity].to_vec()).collect()
}

/// `rel` has exactly the model's rows: same count, same lexicographic
/// iteration order, membership of each, and the `{(a,b), ...}` text.
fn agrees(rel: &Relation, model: &Model) -> Result<(), TestCaseError> {
    prop_assert_eq!(rel.len(), model.len());
    prop_assert_eq!(rel.is_empty(), model.is_empty());
    let rows: Vec<Vec<u32>> = rel.iter().map(<[u32]>::to_vec).collect();
    prop_assert_eq!(&rows, &model.iter().cloned().collect::<Vec<_>>());
    for t in model {
        prop_assert!(rel.contains(t), "missing {:?}", t);
    }
    let shown: Vec<String> = model
        .iter()
        .map(|t| {
            let vals: Vec<String> = t.iter().map(u32::to_string).collect();
            format!("({})", vals.join(","))
        })
        .collect();
    prop_assert_eq!(rel.to_string(), format!("{{{}}}", shown.join(", ")));
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn relation_agrees_with_set_model(
        arity in 0..5usize,
        ra in raw_rows(),
        rb in raw_rows(),
        probe in prop::collection::vec(0..3u32, 4),
    ) {
        let (ta, tb) = (cut(arity, &ra), cut(arity, &rb));
        let ma: Model = ta.iter().cloned().collect();
        let mb: Model = tb.iter().cloned().collect();
        let a = Relation::from_tuples(arity, &ta).unwrap();
        let b = Relation::from_tuples(arity, &tb).unwrap();
        agrees(&a, &ma)?;
        agrees(&b, &mb)?;
        prop_assert_eq!(a == b, ma == mb);
        prop_assert_eq!(a.contains(&probe[..arity]), ma.contains(&probe[..arity]));

        let mut grown = a.clone();
        let mut model = ma.clone();
        for t in &tb {
            prop_assert_eq!(grown.insert(t).unwrap(), model.insert(t.clone()));
        }
        agrees(&grown, &model)?;
        agrees(&a.union(&b).unwrap(), &(&ma | &mb))?;
        agrees(&a.intersect(&b).unwrap(), &(&ma & &mb))?;
        prop_assert_eq!(a.is_subset_of(&b), ma.is_subset(&mb));

        // Columns reversed, then the first column again; none at arity 0.
        let cols: Vec<usize> = (0..arity).rev().chain((arity > 0).then_some(0)).collect();
        let projected: Model = ma.iter().map(|t| cols.iter().map(|&c| t[c]).collect()).collect();
        agrees(&a.project(&cols), &projected)?;
        let nullary: Model = ma.iter().map(|_| Vec::new()).collect();
        agrees(&a.project(&[]), &nullary)?;
        if arity >= 2 {
            let diagonal: Model = ma.iter().filter(|t| t[0] == t[arity - 1]).cloned().collect();
            agrees(&a.select_eq(0, arity - 1), &diagonal)?;
        }
        let even = |t: &[u32]| t.iter().sum::<u32>() % 2 == 0;
        let kept: Model = ma.iter().filter(|t| even(t)).cloned().collect();
        agrees(&a.filter(even), &kept)?;
    }
}

#[test]
fn nullary_false_and_true_stay_distinct() {
    let hash = |r: &Relation| {
        let mut h = DefaultHasher::new();
        r.hash(&mut h);
        h.finish()
    };
    let (f, t) = (Relation::empty(0), Relation::full(0, 2));
    assert_eq!((f.len(), t.len()), (0, 1));
    assert_ne!(f, t);
    assert_ne!(hash(&f), hash(&t));
    assert_eq!((f.to_string(), t.to_string()), ("{}".into(), "{()}".into()));
    assert_eq!(NamedRelation::unit().relation(), &t);
    assert_eq!(NamedRelation::empty(vec![]).relation(), &f);
}
