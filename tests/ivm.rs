//! Property tests for incremental view maintenance: under random
//! insert/delete interleavings, every maintenance discipline must stay
//! tuple-for-tuple identical to from-scratch recomputation —
//! counting for non-recursive CQs, DRed for recursive Datalog,
//! template-reuse for RPQ certain answers — and a delete of a
//! never-inserted tuple must be a *typed* no-op, not an error and not
//! a state change.

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
