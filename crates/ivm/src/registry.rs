//! The view registry the service layer drives: materialized views of
//! any discipline, grouped per named database, applied as a set under
//! each delta and verifiable against from-scratch recomputation.

use crate::cq_view::CqView;
use crate::datalog_view::DatalogView;
use crate::delta::{Delta, IvmError, Refresh};
use crate::rpq_view::RpqView;
use cspdb_core::{Budget, Relation, Structure};
use cspdb_cq::{evaluate_by_join_budgeted, ConjunctiveQuery};
use cspdb_datalog::{evaluate_metered, Program};
use cspdb_rpq::{Regex, View};
use std::collections::HashMap;

/// A materialized view of any of the three maintenance disciplines.
#[derive(Debug, Clone)]
pub enum MaterializedView {
    /// Counting-maintained non-recursive CQ.
    Cq(CqView),
    /// DRed-maintained recursive Datalog.
    Datalog(DatalogView),
    /// Template-reuse RPQ certain answers.
    Rpq(RpqView),
}

impl MaterializedView {
    /// The view's label (unique per database).
    pub fn label(&self) -> &str {
        match self {
            MaterializedView::Cq(v) => &v.query().name,
            MaterializedView::Datalog(v) => v.name(),
            MaterializedView::Rpq(v) => v.name(),
        }
    }

    /// The maintained answer relation.
    pub fn answers(&self) -> &Relation {
        match self {
            MaterializedView::Cq(v) => v.answers(),
            MaterializedView::Datalog(v) => v.answers(),
            MaterializedView::Rpq(v) => v.answers(),
        }
    }

    /// Absorbs one delta.
    ///
    /// # Errors
    ///
    /// Propagates the discipline's [`IvmError`]; after an error the
    /// view is stale and must be dropped or rebuilt.
    pub fn apply(
        &mut self,
        delta: &Delta,
        pre: &Structure,
        post: &Structure,
        budget: &Budget,
    ) -> Result<Refresh, IvmError> {
        match self {
            MaterializedView::Cq(v) => v.apply(delta, pre, post, budget),
            MaterializedView::Datalog(v) => v.apply(delta, pre, post, budget),
            MaterializedView::Rpq(v) => v.apply(delta, pre, post, budget),
        }
    }

    /// Recomputes the view's answers from scratch against `db` and
    /// compares with the maintained relation. Returns `None` when they
    /// agree tuple-for-tuple, otherwise a human-readable mismatch.
    ///
    /// # Errors
    ///
    /// Propagates recomputation failures (budget exhaustion, a database
    /// the view no longer fits).
    pub fn verify(&self, db: &Structure, budget: &Budget) -> Result<Option<String>, IvmError> {
        let recomputed = match self {
            MaterializedView::Cq(v) => evaluate_by_join_budgeted(v.query(), db, budget)
                .map_err(|e| IvmError::Invalid(e.to_string()))?,
            MaterializedView::Datalog(v) => {
                let eval = evaluate_metered(v.program(), db, &mut budget.meter())?;
                eval.relations
                    .get(&v.program().goal)
                    .cloned()
                    .unwrap_or_else(|| Relation::empty(v.answers().arity()))
            }
            MaterializedView::Rpq(v) => v.recompute(db, budget)?,
        };
        if &recomputed == self.answers() {
            Ok(None)
        } else {
            Ok(Some(format!(
                "view {}: maintained {} answers, recomputed {}",
                self.label(),
                self.answers().len(),
                recomputed.len()
            )))
        }
    }
}

/// Materialized views grouped per named database.
#[derive(Debug, Clone, Default)]
pub struct ViewSet {
    by_db: HashMap<String, Vec<MaterializedView>>,
}

impl ViewSet {
    /// An empty registry.
    pub fn new() -> Self {
        ViewSet::default()
    }

    fn register(&mut self, db: &str, view: MaterializedView) {
        let views = self.by_db.entry(db.to_string()).or_default();
        views.retain(|v| v.label() != view.label());
        views.push(view);
    }

    /// Registers (or replaces) a counting-maintained CQ view, labelled
    /// by the query's name.
    ///
    /// # Errors
    ///
    /// Propagates [`CqView::new`] failures.
    pub fn register_cq(
        &mut self,
        db: &str,
        query: &ConjunctiveQuery,
        structure: &Structure,
        budget: &Budget,
    ) -> Result<(), IvmError> {
        let view = CqView::new(query, structure, budget)?;
        self.register(db, MaterializedView::Cq(view));
        Ok(())
    }

    /// Registers (or replaces) a DRed-maintained Datalog view.
    ///
    /// # Errors
    ///
    /// Propagates [`DatalogView::new`] failures.
    pub fn register_datalog(
        &mut self,
        db: &str,
        name: &str,
        program: &Program,
        structure: &Structure,
        budget: &Budget,
    ) -> Result<(), IvmError> {
        let view = DatalogView::new(name, program, structure, budget)?;
        self.register(db, MaterializedView::Datalog(view));
        Ok(())
    }

    /// Registers (or replaces) a template-reuse RPQ certain-answer view.
    ///
    /// # Errors
    ///
    /// Propagates [`RpqView::new`] failures.
    #[allow(clippy::too_many_arguments)]
    pub fn register_rpq(
        &mut self,
        db: &str,
        name: &str,
        query: &Regex,
        views: &[View],
        alphabet: &[char],
        structure: &Structure,
        budget: &Budget,
    ) -> Result<(), IvmError> {
        let view = RpqView::new(name, query, views, alphabet, structure, budget)?;
        self.register(db, MaterializedView::Rpq(view));
        Ok(())
    }

    /// Number of views registered against `db`.
    pub fn len(&self, db: &str) -> usize {
        self.by_db.get(db).map_or(0, Vec::len)
    }

    /// True when `db` has no registered views.
    pub fn is_empty(&self, db: &str) -> bool {
        self.len(db) == 0
    }

    /// The views registered against `db` (empty slice when none).
    pub fn views(&self, db: &str) -> &[MaterializedView] {
        self.by_db.get(db).map_or(&[], Vec::as_slice)
    }

    /// The maintained answers of the view labelled `label` on `db`.
    pub fn answers(&self, db: &str, label: &str) -> Option<&Relation> {
        self.by_db
            .get(db)?
            .iter()
            .find(|v| v.label() == label)
            .map(MaterializedView::answers)
    }

    /// Applies one delta to every view registered against `db`. Views
    /// whose maintenance fails (budget exhaustion, shape mismatch) are
    /// **dropped** from the set — a stale materialization must never
    /// serve reads — and reported with their error.
    pub fn apply_delta(
        &mut self,
        db: &str,
        delta: &Delta,
        pre: &Structure,
        post: &Structure,
        budget: &Budget,
    ) -> Vec<(String, Result<Refresh, IvmError>)> {
        let Some(views) = self.by_db.get_mut(db) else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(views.len());
        let mut keep = Vec::with_capacity(views.len());
        for mut view in views.drain(..) {
            let label = view.label().to_string();
            match view.apply(delta, pre, post, budget) {
                Ok(refresh) => {
                    keep.push(view);
                    out.push((label, Ok(refresh)));
                }
                Err(e) => out.push((label, Err(e))),
            }
        }
        *views = keep;
        out
    }

    /// Drops every view registered against `db`, returning how many.
    pub fn drop_db(&mut self, db: &str) -> usize {
        self.by_db.remove(db).map_or(0, |v| v.len())
    }

    /// Verifies every view on `db` against from-scratch recomputation.
    /// Returns one violation string per disagreeing (or unverifiable)
    /// view; empty means all maintained answer sets are identical to
    /// recomputation.
    pub fn verify(&self, db: &str, structure: &Structure, budget: &Budget) -> Vec<String> {
        let Some(views) = self.by_db.get(db) else {
            return Vec::new();
        };
        let mut violations = Vec::new();
        for view in views {
            match view.verify(structure, budget) {
                Ok(None) => {}
                Ok(Some(msg)) => violations.push(msg),
                Err(e) => {
                    violations.push(format!("view {}: verification failed: {e}", view.label()))
                }
            }
        }
        violations
    }

    /// The databases with at least one registered view.
    pub fn databases(&self) -> impl Iterator<Item = &str> {
        self.by_db
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(k, _)| k.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::structure_with_delta;
    use cspdb_core::Vocabulary;
    use cspdb_cq::QueryAtom;
    use cspdb_datalog::parse_program;

    fn graph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let voc = Vocabulary::new([("E", 2)]).unwrap();
        let mut s = Structure::new(voc, n);
        for &(u, v) in edges {
            s.insert_by_name("E", &[u, v]).unwrap();
        }
        s
    }

    fn path2_query() -> ConjunctiveQuery {
        ConjunctiveQuery {
            name: "path2".into(),
            distinguished: vec!["x".into(), "y".into()],
            atoms: vec![
                QueryAtom {
                    predicate: "E".into(),
                    args: vec!["x".into(), "z".into()],
                },
                QueryAtom {
                    predicate: "E".into(),
                    args: vec!["z".into(), "y".into()],
                },
            ],
        }
    }

    #[test]
    fn set_applies_deltas_to_all_views_and_verifies() {
        let mut db = graph(5, &[(0, 1), (1, 2)]);
        let budget = Budget::unlimited();
        let mut set = ViewSet::new();
        set.register_cq("g", &path2_query(), &db, &budget).unwrap();
        let program = parse_program(
            "T(X,Y) :- E(X,Y).\n\
             T(X,Y) :- E(X,Z), T(Z,Y).\n\
             % goal: T",
        )
        .unwrap();
        set.register_datalog("g", "tc", &program, &db, &budget)
            .unwrap();
        assert_eq!(set.len("g"), 2);
        assert!(set.verify("g", &db, &budget).is_empty());

        for delta in [
            Delta::insert("E", &[2, 3]),
            Delta::delete("E", &[1, 2]),
            Delta::insert("E", &[1, 2]),
        ] {
            let post = structure_with_delta(&db, &delta).unwrap();
            let results = set.apply_delta("g", &delta, &db, &post, &budget);
            assert_eq!(results.len(), 2);
            assert!(results.iter().all(|(_, r)| r.is_ok()));
            db = post;
            assert!(set.verify("g", &db, &budget).is_empty(), "after {delta:?}");
        }
        assert!(set.answers("g", "path2").is_some());
        assert!(set.answers("g", "tc").is_some());
    }

    #[test]
    fn failing_view_is_dropped_not_served_stale() {
        let db = graph(4, &[(0, 1), (1, 2), (2, 3)]);
        let budget = Budget::unlimited();
        let mut set = ViewSet::new();
        set.register_cq("g", &path2_query(), &db, &budget).unwrap();
        // A starvation budget: maintenance will exhaust.
        let starved = Budget::unlimited().with_step_limit(1);
        let delta = Delta::insert("E", &[3, 0]);
        let post = structure_with_delta(&db, &delta).unwrap();
        let results = set.apply_delta("g", &delta, &db, &post, &starved);
        assert!(matches!(results[0].1, Err(IvmError::Exhausted(_))));
        assert!(set.is_empty("g"), "stale view must be dropped");
    }

    #[test]
    fn replacing_a_view_keeps_one_per_label() {
        let db = graph(3, &[(0, 1)]);
        let budget = Budget::unlimited();
        let mut set = ViewSet::new();
        set.register_cq("g", &path2_query(), &db, &budget).unwrap();
        set.register_cq("g", &path2_query(), &db, &budget).unwrap();
        assert_eq!(set.len("g"), 1);
        assert_eq!(set.drop_db("g"), 1);
        assert_eq!(set.drop_db("g"), 0);
    }
}
