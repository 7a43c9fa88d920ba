//! Property tests for incremental view maintenance: under random
//! insert/delete interleavings, every maintenance discipline must stay
//! tuple-for-tuple identical to from-scratch recomputation —
//! counting for non-recursive CQs, DRed for recursive Datalog,
//! template-reuse for RPQ certain answers — and a delete of a
//! never-inserted tuple must be a *typed* no-op, not an error and not
//! a state change. Counting maintenance must also be cheap: a
//! single-tuple delta costs a small fraction of registering the view,
//! whatever the atom order the view was registered with.

use constraint_db::core::Relation;
use constraint_db::core::{Budget, Structure, Vocabulary};
use constraint_db::cq::{evaluate_by_join, ConjunctiveQuery};
use constraint_db::datalog::{evaluate_metered, parse_program};
use constraint_db::ivm::{structure_with_delta, CqView, DatalogView, Delta, IvmError, RpqView};
use constraint_db::rpq::{Regex, View};
use constraint_db::service::Catalog;
use proptest::prelude::*;

fn graph(n: usize, edges: &[(u32, u32)]) -> Structure {
    let voc = Vocabulary::new([("E", 2)]).unwrap();
    let mut s = Structure::new(voc, n);
    for &(u, v) in edges {
        s.insert_by_name("E", &[u, v]).unwrap();
    }
    s
}

/// A structure with two binary relations `a`/`b` (RPQ view extensions).
fn labeled(n: usize, a: &[(u32, u32)], b: &[(u32, u32)]) -> Structure {
    let voc = Vocabulary::new([("a", 2), ("b", 2)]).unwrap();
    let mut s = Structure::new(voc, n);
    for &(u, v) in a {
        s.insert_by_name("a", &[u, v]).unwrap();
    }
    for &(u, v) in b {
        s.insert_by_name("b", &[u, v]).unwrap();
    }
    s
}

/// A seeded random graph on `n` vertices with `m` distinct edges, each
/// labelled `A`, `B` or `C` (the first three take one label each).
fn labelled_random_graph(n: u32, m: usize, seed: u64) -> Structure {
    let mut state = seed;
    let mut below = |k: u32| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % u64::from(k)) as u32
    };
    let voc = Vocabulary::new([("A", 2), ("B", 2), ("C", 2)]).unwrap();
    let mut s = Structure::new(voc, n as usize);
    let mut edges = 0;
    while edges < m {
        let label = if edges < 3 { edges as u32 } else { below(3) };
        let (u, v) = (below(n), below(n));
        if u != v
            && s.insert_by_name(["A", "B", "C"][label as usize], &[u, v])
                .unwrap()
        {
            edges += 1;
        }
    }
    s
}

/// The meter steps `run` needs: the smallest step limit under which it
/// completes. `run` must be deterministic.
fn steps_needed(run: impl Fn(&Budget) -> bool) -> u64 {
    let fits = |limit: u64| run(&Budget::unlimited().with_step_limit(limit));
    let mut hi = 1;
    while !fits(hi) {
        hi *= 2;
    }
    let mut lo = hi / 2;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    hi
}

/// One insert of an absent tuple and one delete of a present tuple on
/// `rel`, chosen by `pick` from the vertices `0..n`.
fn insert_and_delete(db: &Structure, rel: &str, n: u32, pick: u64) -> [Delta; 2] {
    let present = db.relation_by_name(rel).unwrap();
    let row = present.row(pick as usize % present.len()).to_vec();
    let mut k = pick;
    let absent = loop {
        let t = [(k % u64::from(n)) as u32, (k / 7 % u64::from(n)) as u32];
        if !present.contains(&t) {
            break t;
        }
        k += 1;
    };
    [Delta::insert(rel, &absent), Delta::delete(rel, &row)]
}

/// The meter steps `view` needs to absorb `delta` against `db`.
fn delta_steps(view: &CqView, delta: &Delta, db: &Structure) -> u64 {
    let post = structure_with_delta(db, delta).unwrap();
    steps_needed(|budget| view.clone().apply(delta, db, &post, budget).is_ok())
}

// A single-tuple delta on a 3- or 4-atom path view costs at most a
// tenth of registering the view, on every label and in both
// directions — including a delta on the last atom, where a nested loop
// over the atoms in query order scans the product of the others.
#[test]
fn cq_delta_costs_a_tenth_of_registration_on_paths() {
    let db = labelled_random_graph(1500, 4500, 0x9e37_79b9_7f4a_7c15);
    for query in [
        "Q(X,Y) :- A(X,P), B(P,R), C(R,Y)",
        "Q(X,Y) :- A(X,P), B(P,R), C(R,S), A(S,Y)",
    ] {
        let q = ConjunctiveQuery::parse(query).unwrap();
        let register = steps_needed(|budget| CqView::new(&q, &db, budget).is_ok());
        let view = CqView::new(&q, &db, &Budget::unlimited()).unwrap();
        for (i, rel) in ["A", "B", "C"].into_iter().enumerate() {
            for delta in insert_and_delete(&db, rel, 1500, 977 * (i as u64 + 1)) {
                let steps = delta_steps(&view, &delta, &db);
                assert!(
                    steps * 10 <= register,
                    "{query}: {delta:?} took {steps} steps, registration {register}"
                );
            }
        }
    }
}

// The registering atom order does not decide a delta's cost: the
// triangle of the write benchmark, registered in two rotations, pays
// within 1.5x for the same delta on its last relation.
#[test]
fn cq_delta_cost_does_not_depend_on_atom_rotation() {
    let db = labelled_random_graph(200, 600, 0x2545_f491_4f6c_dd1d);
    let views: Vec<CqView> = [
        "Q(X) :- A(X,Y), B(Y,Z), C(Z,X)",
        "Q(X) :- C(Z,X), A(X,Y), B(Y,Z)",
    ]
    .iter()
    .map(|q| {
        CqView::new(
            &ConjunctiveQuery::parse(q).unwrap(),
            &db,
            &Budget::unlimited(),
        )
        .unwrap()
    })
    .collect();
    assert_eq!(views[0].answers(), views[1].answers());
    for pick in [5u64, 61, 113] {
        for delta in insert_and_delete(&db, "C", 200, pick) {
            let a = delta_steps(&views[0], &delta, &db);
            let b = delta_steps(&views[1], &delta, &db);
            assert!(
                a.max(b) * 2 <= a.min(b) * 3,
                "{delta:?}: {a} steps against {b} in the other rotation"
            );
        }
    }
}

/// Applies one random delta: feeds it through the view when it
/// separates the states, and asserts the typed no-op when it does not
/// (duplicate insert / delete of an absent tuple). Returns the new
/// database state.
fn step<F: FnMut(&Delta, &Structure, &Structure)>(
    db: Structure,
    delta: &Delta,
    mut apply: F,
) -> Structure {
    match structure_with_delta(&db, delta) {
        Ok(post) => {
            apply(delta, &db, &post);
            post
        }
        Err(IvmError::NoOp(_)) => db,
        Err(e) => panic!("unexpected delta error: {e}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    // Counting-maintained CQ: the self-join makes the delta expansion
    // earn its keep (one delta tuple can occupy several atoms).
    #[test]
    fn cq_incremental_equals_recompute(
        edges in prop::collection::vec((0..5u32, 0..5u32), 0..10),
        deltas in prop::collection::vec((any::<bool>(), 0..5u32, 0..5u32), 1..12),
    ) {
        let q = ConjunctiveQuery::parse("Q(X,Y) :- E(X,Z), E(Z,Y)").unwrap();
        let mut db = graph(5, &edges);
        let budget = Budget::unlimited();
        let mut view = CqView::new(&q, &db, &budget).unwrap();
        for (insert, u, v) in deltas {
            let delta = if insert {
                Delta::insert("E", &[u, v])
            } else {
                Delta::delete("E", &[u, v])
            };
            db = step(db, &delta, |d, pre, post| {
                view.apply(d, pre, post, &budget).unwrap();
            });
            prop_assert_eq!(view.answers(), &evaluate_by_join(&q, &db).unwrap());
        }
    }

    // DRed-maintained recursive Datalog: transitive closure, whose
    // deletes cascade and whose cycles need the re-derivation phase.
    #[test]
    fn datalog_incremental_equals_recompute(
        edges in prop::collection::vec((0..5u32, 0..5u32), 0..8),
        deltas in prop::collection::vec((any::<bool>(), 0..5u32, 0..5u32), 1..10),
    ) {
        let program = parse_program(
            "T(X,Y) :- E(X,Y).\n\
             T(X,Y) :- E(X,Z), T(Z,Y).\n\
             % goal: T",
        )
        .unwrap();
        let mut db = graph(5, &edges);
        let budget = Budget::unlimited();
        let mut view = DatalogView::new("tc", &program, &db, &budget).unwrap();
        for (insert, u, v) in deltas {
            let delta = if insert {
                Delta::insert("E", &[u, v])
            } else {
                Delta::delete("E", &[u, v])
            };
            db = step(db, &delta, |d, pre, post| {
                view.apply(d, pre, post, &budget).unwrap();
            });
            let eval = evaluate_metered(&program, &db, &mut budget.meter()).unwrap();
            let want = eval
                .relations
                .get("T")
                .cloned()
                .unwrap_or_else(|| Relation::empty(2));
            prop_assert_eq!(view.answers(), &want);
        }
    }

    // Template-reuse RPQ: the certain answers of `a·b` over views
    // `a`, `b` must track every extension delta.
    #[test]
    fn rpq_incremental_equals_recompute(
        a in prop::collection::vec((0..4u32, 0..4u32), 0..5),
        b in prop::collection::vec((0..4u32, 0..4u32), 0..5),
        deltas in prop::collection::vec((any::<bool>(), any::<bool>(), 0..4u32, 0..4u32), 1..8),
    ) {
        let query = Regex::parse("ab").unwrap();
        let views = [
            View { name: "a".into(), definition: Regex::parse("a").unwrap() },
            View { name: "b".into(), definition: Regex::parse("b").unwrap() },
        ];
        let mut db = labeled(4, &a, &b);
        let budget = Budget::unlimited();
        let mut view = RpqView::new("q", &query, &views, &['a', 'b'], &db, &budget).unwrap();
        for (insert, on_a, u, v) in deltas {
            let rel = if on_a { "a" } else { "b" };
            let delta = if insert {
                Delta::insert(rel, &[u, v])
            } else {
                Delta::delete(rel, &[u, v])
            };
            db = step(db, &delta, |d, pre, post| {
                view.apply(d, pre, post, &budget).unwrap();
            });
            prop_assert_eq!(view.answers(), &view.recompute(&db, &budget).unwrap());
        }
    }

    // Deleting a tuple that is not present (or never was) is a typed
    // no-op at every layer: the delta kernel reports it and the
    // catalog burns no version on it.
    #[test]
    fn delete_of_absent_tuple_is_a_typed_noop(
        edges in prop::collection::vec((0..4u32, 0..4u32), 0..6),
        u in 0..4u32,
        v in 0..4u32,
    ) {
        let db = graph(4, &edges);
        let present = edges.contains(&(u, v));
        let delta = Delta::delete("E", &[u, v]);
        match structure_with_delta(&db, &delta) {
            Ok(_) => prop_assert!(present, "delete of absent tuple must not apply"),
            Err(IvmError::NoOp(_)) => prop_assert!(!present, "delete of present tuple must apply"),
            Err(e) => panic!("unexpected error: {e}"),
        }
        let catalog = Catalog::new();
        let version = catalog.put("g", db);
        if !present {
            let err = catalog.apply_delta("g", &delta).unwrap_err();
            prop_assert!(matches!(err, IvmError::NoOp(_)), "got {err}");
            prop_assert_eq!(catalog.get("g").unwrap().0, version, "no-op burned a version");
        } else {
            let (bumped, _, _) = catalog.apply_delta("g", &delta).unwrap();
            prop_assert_eq!(bumped, version + 1);
        }
    }
}
