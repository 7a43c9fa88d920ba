//! Template-reuse maintenance for RPQ certain-answer views.
//!
//! The expensive half of view-based certain answering is the Theorem
//! 7.5 constraint template — exponential in the query automaton but
//! independent of the view *extensions*. A materialized [`RpqView`]
//! builds the template once at registration; each delta to a view
//! extension re-solves only the polynomial CSP side
//! ([`CertainAnswering::certain_answers_metered`]) against the
//! prebuilt template.

use crate::delta::{Delta, DeltaOp, IvmError, Refresh};
use cspdb_core::{Budget, Relation, Structure, TraceEvent};
use cspdb_rpq::{CertainAnswering, Extensions, Regex, View};

/// A materialized certain-answer set `cert(Q, V)` maintained by
/// re-solving against a prebuilt constraint template.
#[derive(Debug, Clone)]
pub struct RpqView {
    name: String,
    views: Vec<View>,
    answering: CertainAnswering,
    answers: Relation,
}

impl RpqView {
    /// Registers the view: builds the Theorem 7.5 template for
    /// `query`/`views` over `alphabet`, reads each view's extension
    /// from the like-named binary relation of `db`, and materializes
    /// the initial certain answers.
    ///
    /// # Errors
    ///
    /// [`IvmError::Invalid`] when a view name is not a binary relation
    /// of `db`; [`IvmError::Exhausted`] when the initial sweep runs out
    /// of budget.
    pub fn new(
        name: impl Into<String>,
        query: &Regex,
        views: &[View],
        alphabet: &[char],
        db: &Structure,
        budget: &Budget,
    ) -> Result<Self, IvmError> {
        let name = name.into();
        let exts = Self::extensions(views, db)?;
        let answering = CertainAnswering::new(query, views, alphabet);
        let pairs = answering
            .certain_answers_metered(&exts, &mut budget.meter())
            .map_err(IvmError::Exhausted)?;
        let answers = Self::pairs_to_relation(&name, &pairs)?;
        Ok(RpqView {
            name,
            views: views.to_vec(),
            answering,
            answers,
        })
    }

    /// The view's label.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The maintained certain-answer relation (binary).
    pub fn answers(&self) -> &Relation {
        &self.answers
    }

    fn pairs_to_relation(name: &str, pairs: &[(u32, u32)]) -> Result<Relation, IvmError> {
        Relation::from_tuples_named(name, 2, pairs.iter().map(|&(c, d)| [c, d]))
            .map_err(|e| IvmError::Invalid(e.to_string()))
    }

    /// Reads `ext(V_i)` for every view out of the like-named binary
    /// relations of `db`.
    fn extensions(views: &[View], db: &Structure) -> Result<Extensions, IvmError> {
        let mut pairs = Vec::with_capacity(views.len());
        for view in views {
            let rel = db
                .relation_by_name(&view.name)
                .map_err(|e| IvmError::Invalid(e.to_string()))?;
            if rel.arity() != 2 {
                return Err(IvmError::Invalid(format!(
                    "view extension {} must be binary, has arity {}",
                    view.name,
                    rel.arity()
                )));
            }
            pairs.push(rel.iter().map(|t| (t[0], t[1])).collect::<Vec<_>>());
        }
        Ok(Extensions {
            num_objects: db.domain_size(),
            pairs,
        })
    }

    /// Recomputes the certain answers from scratch against `db` (used
    /// by registry verification).
    ///
    /// # Errors
    ///
    /// Propagates extension-shape and budget failures like [`Self::new`].
    pub fn recompute(&self, db: &Structure, budget: &Budget) -> Result<Relation, IvmError> {
        let exts = Self::extensions(&self.views, db)?;
        let pairs = self
            .answering
            .certain_answers_metered(&exts, &mut budget.meter())
            .map_err(IvmError::Exhausted)?;
        Self::pairs_to_relation(&self.name, &pairs)
    }

    /// Absorbs one delta: when it touches a view extension, re-solves
    /// the CSP side against the prebuilt template; otherwise a cheap
    /// no-op.
    ///
    /// # Errors
    ///
    /// [`IvmError::Exhausted`] when the re-solve runs out of budget
    /// (the view is then stale and must be dropped or rebuilt).
    pub fn apply(
        &mut self,
        delta: &Delta,
        _pre: &Structure,
        post: &Structure,
        budget: &Budget,
    ) -> Result<Refresh, IvmError> {
        if !self.views.iter().any(|v| v.name == delta.rel) {
            return Ok(Refresh::default());
        }
        let exts = Self::extensions(&self.views, post)?;
        let pairs = self
            .answering
            .certain_answers_metered(&exts, &mut budget.meter())
            .map_err(IvmError::Exhausted)?;
        let fresh = Self::pairs_to_relation(&self.name, &pairs)?;
        let added = fresh.iter().filter(|t| !self.answers.contains(t)).count() as u64;
        let removed = self.answers.iter().filter(|t| !fresh.contains(t)).count() as u64;
        let old_total = self.answers.len() as u64;
        let total = fresh.len() as u64;
        let name = self.name.clone();
        match delta.op {
            DeltaOp::Insert => budget.tracer().emit_with(|| TraceEvent::ViewRefreshed {
                view: name,
                added,
                removed,
                total,
            }),
            // A delete conceptually over-deletes the whole answer set
            // and re-derives what the template still certifies.
            DeltaOp::Delete => budget.tracer().emit_with(|| TraceEvent::ViewRederived {
                view: name,
                overdeleted: old_total,
                rederived: total - added,
                total,
            }),
        }
        self.answers = fresh;
        Ok(Refresh { added, removed })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::structure_with_delta;
    use cspdb_core::Vocabulary;
    use cspdb_rpq::certain_answer;

    /// Q = a·b answered through views V0 = a, V1 = b.
    fn setup() -> (Regex, Vec<View>, Vec<char>) {
        let q = Regex::parse("ab").unwrap();
        let views = vec![
            View {
                name: "V0".into(),
                definition: Regex::parse("a").unwrap(),
            },
            View {
                name: "V1".into(),
                definition: Regex::parse("b").unwrap(),
            },
        ];
        (q, views, vec!['a', 'b'])
    }

    fn ext_db(n: usize, v0: &[(u32, u32)], v1: &[(u32, u32)]) -> Structure {
        let voc = Vocabulary::new([("V0", 2), ("V1", 2)]).unwrap();
        let mut s = Structure::new(voc, n);
        for &(x, y) in v0 {
            s.insert_by_name("V0", &[x, y]).unwrap();
        }
        for &(x, y) in v1 {
            s.insert_by_name("V1", &[x, y]).unwrap();
        }
        s
    }

    fn recompute_pairs(
        q: &Regex,
        views: &[View],
        alphabet: &[char],
        db: &Structure,
    ) -> Vec<(u32, u32)> {
        let exts = RpqView::extensions(views, db).unwrap();
        let n = exts.num_objects as u32;
        let mut out = Vec::new();
        for c in 0..n {
            for d in 0..n {
                if certain_answer(q, views, alphabet, &exts, c, d) {
                    out.push((c, d));
                }
            }
        }
        out
    }

    #[test]
    fn tracks_recompute_through_deltas() {
        let (q, views, alphabet) = setup();
        let mut db = ext_db(3, &[(0, 1)], &[(1, 2)]);
        let budget = Budget::unlimited();
        let mut view = RpqView::new("cert", &q, &views, &alphabet, &db, &budget).unwrap();
        assert!(view.answers().contains(&[0, 2]), "a then b: (0,2) certain");
        let deltas = [
            Delta::delete("V1", &[1, 2]),
            Delta::insert("V1", &[1, 0]),
            Delta::insert("V0", &[2, 1]),
            Delta::delete("V0", &[0, 1]),
        ];
        for delta in &deltas {
            let post = structure_with_delta(&db, delta).unwrap();
            view.apply(delta, &db, &post, &budget).unwrap();
            db = post;
            let expect = recompute_pairs(&q, &views, &alphabet, &db);
            let expect = RpqView::pairs_to_relation("cert", &expect).unwrap();
            assert_eq!(view.answers(), &expect, "after {delta:?}");
        }
    }

    #[test]
    fn delete_drops_certain_answer() {
        let (q, views, alphabet) = setup();
        let db = ext_db(3, &[(0, 1)], &[(1, 2)]);
        let budget = Budget::unlimited();
        let mut view = RpqView::new("cert", &q, &views, &alphabet, &db, &budget).unwrap();
        let delta = Delta::delete("V1", &[1, 2]);
        let post = structure_with_delta(&db, &delta).unwrap();
        let refresh = view.apply(&delta, &db, &post, &budget).unwrap();
        assert!(refresh.removed >= 1);
        assert!(!view.answers().contains(&[0, 2]));
    }

    #[test]
    fn unrelated_relation_is_a_cheap_noop() {
        let (q, views, alphabet) = setup();
        let voc = Vocabulary::new([("V0", 2), ("V1", 2), ("E", 2)]).unwrap();
        let mut db = Structure::new(voc, 3);
        db.insert_by_name("V0", &[0, 1]).unwrap();
        db.insert_by_name("V1", &[1, 2]).unwrap();
        let budget = Budget::unlimited();
        let mut view = RpqView::new("cert", &q, &views, &alphabet, &db, &budget).unwrap();
        let before = view.answers().clone();
        let delta = Delta::insert("E", &[0, 2]);
        let post = structure_with_delta(&db, &delta).unwrap();
        let refresh = view.apply(&delta, &db, &post, &budget).unwrap();
        assert_eq!(refresh, Refresh::default());
        assert_eq!(view.answers(), &before);
    }
}
