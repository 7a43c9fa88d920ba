//! First-class deltas: a single-tuple insert or delete against a named
//! relation of a [`Structure`], plus the typed error vocabulary shared
//! by every maintenance path.

use cspdb_core::budget::ExhaustionReason;
use cspdb_core::{Relation, Structure};
use cspdb_datalog::EvalError;
use std::fmt;

/// Which way a [`Delta`] moves a tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaOp {
    /// Add the tuple to the relation.
    Insert,
    /// Remove the tuple from the relation.
    Delete,
}

impl DeltaOp {
    /// Stable lower-case name (`"insert"`/`"delete"`), used in traces
    /// and wire responses.
    pub fn name(self) -> &'static str {
        match self {
            DeltaOp::Insert => "insert",
            DeltaOp::Delete => "delete",
        }
    }
}

impl fmt::Display for DeltaOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A single-tuple change to one relation of a database.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delta {
    /// Relation name the tuple moves in or out of.
    pub rel: String,
    /// The tuple.
    pub tuple: Vec<u32>,
    /// Insert or delete.
    pub op: DeltaOp,
}

impl Delta {
    /// An insert delta.
    pub fn insert(rel: impl Into<String>, tuple: &[u32]) -> Self {
        Delta {
            rel: rel.into(),
            tuple: tuple.to_vec(),
            op: DeltaOp::Insert,
        }
    }

    /// A delete delta.
    pub fn delete(rel: impl Into<String>, tuple: &[u32]) -> Self {
        Delta {
            rel: rel.into(),
            tuple: tuple.to_vec(),
            op: DeltaOp::Delete,
        }
    }
}

/// Typed failure of a view registration or maintenance step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IvmError {
    /// The delta or view definition does not fit the database
    /// (unknown relation, arity mismatch, unsafe rule, ...).
    Invalid(String),
    /// The delta is a no-op: a delete of a tuple that was never
    /// inserted (or already deleted), or an insert of a tuple already
    /// present. No state changed.
    NoOp(String),
    /// The maintenance budget ran out; the view was left on its
    /// pre-delta answers (inconsistent with the new database state —
    /// callers must drop or rebuild it).
    Exhausted(ExhaustionReason),
}

impl fmt::Display for IvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IvmError::Invalid(m) => f.write_str(m),
            IvmError::NoOp(m) => write!(f, "no-op: {m}"),
            IvmError::Exhausted(r) => write!(f, "budget exhausted: {r}"),
        }
    }
}

impl std::error::Error for IvmError {}

impl From<EvalError> for IvmError {
    fn from(e: EvalError) -> Self {
        match e {
            EvalError::Invalid(m) => IvmError::Invalid(m),
            EvalError::Exhausted(r) => IvmError::Exhausted(r),
        }
    }
}

/// What one delta did to one view's answer set.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Refresh {
    /// Answer tuples the delta added.
    pub added: u64,
    /// Answer tuples the delta removed.
    pub removed: u64,
}

/// Applies `delta` to a structure, returning the changed copy.
///
/// Inserts may grow the domain (the structure is re-domained through
/// the identity map); the relation itself must already exist in the
/// vocabulary.
///
/// # Errors
///
/// [`IvmError::Invalid`] for an unknown relation or arity mismatch;
/// [`IvmError::NoOp`] when the tuple is already present (insert) or
/// absent (delete) — the returned state would equal the input, so no
/// structure is returned and no version should be burned.
pub fn structure_with_delta(s: &Structure, delta: &Delta) -> Result<Structure, IvmError> {
    let rel_id = s
        .vocabulary()
        .id(&delta.rel)
        .map_err(|e| IvmError::Invalid(e.to_string()))?;
    let arity = s.vocabulary().arity(rel_id);
    if delta.tuple.len() != arity {
        return Err(IvmError::Invalid(format!(
            "relation {} has arity {}, delta tuple has {}",
            delta.rel,
            arity,
            delta.tuple.len()
        )));
    }
    match delta.op {
        DeltaOp::Insert => {
            if s.relation(rel_id).contains(&delta.tuple) {
                return Err(IvmError::NoOp(format!(
                    "{}({:?}) already present",
                    delta.rel, delta.tuple
                )));
            }
            let need = delta
                .tuple
                .iter()
                .map(|&x| x as usize + 1)
                .max()
                .unwrap_or(0);
            let mut out = if need > s.domain_size() {
                let identity: Vec<u32> = (0..s.domain_size() as u32).collect();
                s.map_domain(&identity, need)
                    .map_err(|e| IvmError::Invalid(e.to_string()))?
            } else {
                s.clone()
            };
            out.insert(rel_id, &delta.tuple)
                .map_err(|e| IvmError::Invalid(e.to_string()))?;
            Ok(out)
        }
        DeltaOp::Delete => {
            if !s.relation(rel_id).contains(&delta.tuple) {
                return Err(IvmError::NoOp(format!(
                    "{}({:?}) was never inserted",
                    delta.rel, delta.tuple
                )));
            }
            let mut out = s.clone();
            let keep: Relation = s.relation(rel_id).filter(|t| t != delta.tuple.as_slice());
            out.set_relation(rel_id, keep)
                .map_err(|e| IvmError::Invalid(e.to_string()))?;
            Ok(out)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cspdb_core::Vocabulary;

    fn graph(n: usize, edges: &[(u32, u32)]) -> Structure {
        let voc = Vocabulary::new([("E", 2)]).unwrap();
        let mut s = Structure::new(voc, n);
        for &(u, v) in edges {
            s.insert_by_name("E", &[u, v]).unwrap();
        }
        s
    }

    #[test]
    fn insert_delete_round_trip() {
        let s = graph(3, &[(0, 1)]);
        let s2 = structure_with_delta(&s, &Delta::insert("E", &[1, 2])).unwrap();
        assert!(s2.relation_by_name("E").unwrap().contains(&[1, 2]));
        let s3 = structure_with_delta(&s2, &Delta::delete("E", &[1, 2])).unwrap();
        assert_eq!(s3, s);
    }

    #[test]
    fn insert_grows_domain() {
        let s = graph(2, &[(0, 1)]);
        let s2 = structure_with_delta(&s, &Delta::insert("E", &[1, 7])).unwrap();
        assert_eq!(s2.domain_size(), 8);
        assert!(s2.relation_by_name("E").unwrap().contains(&[0, 1]));
    }

    #[test]
    fn delete_of_never_inserted_is_typed_noop() {
        let s = graph(3, &[(0, 1)]);
        match structure_with_delta(&s, &Delta::delete("E", &[2, 2])) {
            Err(IvmError::NoOp(_)) => {}
            other => panic!("expected NoOp, got {other:?}"),
        }
        // Duplicate insert too.
        match structure_with_delta(&s, &Delta::insert("E", &[0, 1])) {
            Err(IvmError::NoOp(_)) => {}
            other => panic!("expected NoOp, got {other:?}"),
        }
    }

    #[test]
    fn unknown_relation_and_arity_are_invalid() {
        let s = graph(3, &[(0, 1)]);
        assert!(matches!(
            structure_with_delta(&s, &Delta::insert("F", &[0, 1])),
            Err(IvmError::Invalid(_))
        ));
        assert!(matches!(
            structure_with_delta(&s, &Delta::insert("E", &[0])),
            Err(IvmError::Invalid(_))
        ));
    }
}
