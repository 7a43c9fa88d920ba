//! Finite relations: sorted, deduplicated tuple stores.
//!
//! A [`Relation`] is a set of tuples of fixed arity over domain elements
//! encoded as `u32`. The rows live in one arity-strided `Vec<u32>`,
//! sorted lexicographically and deduplicated, so membership is a binary
//! search, set equality is a slice comparison, and a clone is one buffer
//! copy. This module is the only code that knows the layout: relational
//! structures ([`crate::Structure`]), CSP constraint relations and the
//! named relations of the relational algebra all read rows through
//! [`Relation::iter`], [`Relation::row`] and [`Relation::partition_point`].

use crate::error::{CoreError, Result};
use std::fmt;
use std::ops::Range;

/// A finite relation of fixed arity over `u32`-encoded domain elements.
///
/// Invariants: `data` holds `len` rows of `arity` values each, sorted
/// lexicographically, with no duplicates. The row count is stored
/// explicitly because a nullary relation has no values: `len` alone
/// tells the empty relation (`false`) from `{()}` (`true`).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Relation {
    arity: usize,
    len: usize,
    data: Vec<u32>,
}

impl Relation {
    /// Creates an empty relation of the given arity.
    pub fn empty(arity: usize) -> Self {
        Relation {
            arity,
            len: 0,
            data: Vec::new(),
        }
    }

    /// Builds a relation from an iterator of tuples, sorting and
    /// deduplicating.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] if any tuple has the wrong
    /// length (the symbol name in the error is a placeholder `_`; use
    /// [`Relation::from_tuples_named`] when the relation symbol is
    /// known).
    pub fn from_tuples<I, T>(arity: usize, tuples: I) -> Result<Self>
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u32]>,
    {
        Self::from_tuples_named("_", arity, tuples)
    }

    /// [`Relation::from_tuples`] with the real relation symbol threaded
    /// into any [`CoreError::ArityMismatch`], so errors name the
    /// offending relation instead of the placeholder `_`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] naming `symbol` if any
    /// tuple has the wrong length.
    pub fn from_tuples_named<I, T>(symbol: &str, arity: usize, tuples: I) -> Result<Self>
    where
        I: IntoIterator<Item = T>,
        T: AsRef<[u32]>,
    {
        let (mut rows, mut data) = (0, Vec::new());
        for t in tuples {
            let t = t.as_ref();
            if t.len() != arity {
                return Err(CoreError::ArityMismatch {
                    symbol: symbol.into(),
                    expected: arity,
                    got: t.len(),
                });
            }
            data.extend_from_slice(t);
            rows += 1;
        }
        Ok(Relation::from_flat(arity, rows, data))
    }

    /// Builds a relation from `rows` rows of `arity` values each, stored
    /// back to back in `data` in any order, sorting and deduplicating.
    /// Input that is already sorted and duplicate-free is kept as is.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != arity * rows`.
    pub fn from_flat(arity: usize, rows: usize, data: Vec<u32>) -> Self {
        assert_eq!(data.len(), arity * rows, "flat buffer must hold whole rows");
        let rows_of = || data.chunks_exact(arity);
        let (len, data) = if arity == 0 {
            // Every nullary row is the empty tuple.
            (rows.min(1), data)
        } else if rows_of().zip(rows_of().skip(1)).all(|(a, b)| a < b) {
            (rows, data)
        } else {
            let mut sorted: Vec<&[u32]> = rows_of().collect();
            sorted.sort_unstable();
            sorted.dedup();
            (sorted.len(), sorted.concat())
        };
        Relation { arity, len, data }
    }

    /// The full relation `D^arity` over a domain of the given size.
    ///
    /// Used for "no constraint" relations and for test oracles; beware the
    /// size is `domain_size^arity`.
    pub fn full(arity: usize, domain_size: usize) -> Self {
        // Row `k` spells `k` in base `domain_size`, most significant digit
        // first. At arity 0 that is the single empty tuple: the nullary
        // "true" relation.
        let len = domain_size.pow(arity as u32);
        let mut data = Vec::with_capacity(len * arity);
        for k in 0..len {
            let digit = |p: u32| (k / domain_size.pow(p) % domain_size) as u32;
            data.extend((0..arity as u32).rev().map(digit));
        }
        Relation { arity, len, data }
    }

    /// Arity of the relation.
    #[inline]
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Number of tuples.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the relation has no tuples.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The `i`-th tuple in lexicographic order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.len()`.
    #[inline]
    pub fn row(&self, i: usize) -> &[u32] {
        assert!(i < self.len, "row index out of range");
        &self.data[i * self.arity..(i + 1) * self.arity]
    }

    /// Binary search over the rows in `rows`: the index of the first
    /// one that fails `pred`, which must hold on a prefix of the range
    /// and fail on the rest (as `row < key` does, rows being sorted).
    pub fn partition_point(&self, mut rows: Range<usize>, pred: impl Fn(&[u32]) -> bool) -> usize {
        while rows.start < rows.end {
            let mid = rows.start + (rows.end - rows.start) / 2;
            if pred(self.row(mid)) {
                rows.start = mid + 1;
            } else {
                rows.end = mid;
            }
        }
        rows.start
    }

    /// `Ok(i)` if `tuple` is row `i`, otherwise `Err(i)` where `i` is the
    /// row it would be inserted at.
    fn search(&self, tuple: &[u32]) -> std::result::Result<usize, usize> {
        let i = self.partition_point(0..self.len, |row| row < tuple);
        if i < self.len && self.row(i) == tuple {
            Ok(i)
        } else {
            Err(i)
        }
    }

    /// Membership test (binary search).
    #[inline]
    pub fn contains(&self, tuple: &[u32]) -> bool {
        debug_assert_eq!(tuple.len(), self.arity);
        self.search(tuple).is_ok()
    }

    /// Inserts a tuple, keeping the sorted/dedup invariant.
    ///
    /// Returns `true` if the tuple was new.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ArityMismatch`] on wrong tuple length.
    pub fn insert(&mut self, tuple: &[u32]) -> Result<bool> {
        if tuple.len() != self.arity {
            return Err(CoreError::ArityMismatch {
                symbol: "_".into(),
                expected: self.arity,
                got: tuple.len(),
            });
        }
        match self.search(tuple) {
            Ok(_) => Ok(false),
            Err(pos) => {
                let at = pos * self.arity;
                self.data.splice(at..at, tuple.iter().copied());
                self.len += 1;
                Ok(true)
            }
        }
    }

    /// Removes a tuple, keeping the sorted/dedup invariant.
    ///
    /// Returns `true` if the tuple was present. A tuple of the wrong
    /// length is never present.
    pub fn remove(&mut self, tuple: &[u32]) -> bool {
        if tuple.len() != self.arity {
            return false;
        }
        match self.search(tuple) {
            Ok(pos) => {
                self.data.drain(pos * self.arity..(pos + 1) * self.arity);
                self.len -= 1;
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over tuples in lexicographic order.
    #[inline]
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u32]> + '_ {
        // A nullary relation has no values to chunk, so its (at most one)
        // empty row is cut from a one-element stand-in instead.
        let (a, data) = match self.arity {
            0 => (0, &[0][..self.len]),
            a => (a, self.data.as_slice()),
        };
        data.chunks_exact(a.max(1)).map(move |row| &row[..a])
    }

    /// Maximum element mentioned in any tuple, or `None` if empty/nullary.
    pub fn max_element(&self) -> Option<u32> {
        self.data.iter().copied().max()
    }

    /// Set intersection with another relation of the same arity.
    ///
    /// This implements the constraint-consolidation step of Section 2 of
    /// the paper: multiple constraints on the same scope intersect.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ScopeArityMismatch`] if arities differ.
    pub fn intersect(&self, other: &Relation) -> Result<Relation> {
        if self.arity != other.arity {
            return Err(CoreError::ScopeArityMismatch {
                scope_len: self.arity,
                arity: other.arity,
            });
        }
        // Membership in `other` of each row of `self`, in sorted order.
        Ok(self.filter(|t| other.contains(t)))
    }

    /// Set union with another relation of the same arity.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ScopeArityMismatch`] if arities differ.
    pub fn union(&self, other: &Relation) -> Result<Relation> {
        if self.arity != other.arity {
            return Err(CoreError::ScopeArityMismatch {
                scope_len: self.arity,
                arity: other.arity,
            });
        }
        // Both sides are sorted and duplicate-free: merge them.
        let mut out = Relation::empty(self.arity);
        out.data.reserve(self.data.len() + other.data.len());
        let (mut a, mut b) = (self.iter().peekable(), other.iter().peekable());
        loop {
            let row = match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if x < y => a.next(),
                (Some(x), Some(y)) if x > y => b.next(),
                (Some(_), Some(_)) => {
                    b.next();
                    a.next()
                }
                (Some(_), None) => a.next(),
                (None, _) => b.next(),
            };
            let Some(row) = row else { break };
            out.data.extend_from_slice(row);
            out.len += 1;
        }
        Ok(out)
    }

    /// Projects the relation onto the given column indices (in the given
    /// order, duplicates allowed), deduplicating the result.
    ///
    /// # Panics
    ///
    /// Panics if a column index is out of range.
    pub fn project(&self, columns: &[usize]) -> Relation {
        let mut data = Vec::with_capacity(self.len * columns.len());
        for t in self.iter() {
            data.extend(columns.iter().map(|&c| t[c]));
        }
        Relation::from_flat(columns.len(), self.len, data)
    }

    /// Keeps only tuples where columns `i` and `j` agree.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn select_eq(&self, i: usize, j: usize) -> Relation {
        assert!(i < self.arity && j < self.arity, "column out of range");
        self.filter(|t| t[i] == t[j])
    }

    /// Keeps only tuples satisfying the predicate.
    pub fn filter(&self, mut keep: impl FnMut(&[u32]) -> bool) -> Relation {
        let mut out = Relation::empty(self.arity);
        for t in self.iter().filter(|t| keep(t)) {
            out.data.extend_from_slice(t);
            out.len += 1;
        }
        out
    }

    /// True if `self ⊆ other` (same arity assumed).
    pub fn is_subset_of(&self, other: &Relation) -> bool {
        self.iter().all(|t| other.contains(t))
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, t) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "(")?;
            for (j, x) in t.iter().enumerate() {
                if j > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{x}")?;
            }
            write!(f, ")")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(arity: usize, ts: &[&[u32]]) -> Relation {
        Relation::from_tuples(arity, ts.iter().copied()).unwrap()
    }

    #[test]
    fn from_tuples_sorts_and_dedups() {
        let r = rel(2, &[&[1, 0], &[0, 1], &[1, 0]]);
        assert_eq!(r.len(), 2);
        let ts: Vec<_> = r.iter().collect();
        assert_eq!(ts, vec![&[0u32, 1][..], &[1, 0]]);
    }

    #[test]
    fn arity_mismatch_rejected() {
        assert!(Relation::from_tuples(2, [&[1u32, 2, 3][..]]).is_err());
        let mut r = Relation::empty(2);
        assert!(r.insert(&[1]).is_err());
    }

    #[test]
    fn arity_mismatch_names_the_symbol() {
        let err = Relation::from_tuples_named("Edge", 2, [&[1u32][..]]).unwrap_err();
        match &err {
            CoreError::ArityMismatch {
                symbol,
                expected,
                got,
            } => {
                assert_eq!(symbol, "Edge");
                assert_eq!((*expected, *got), (2, 1));
            }
            other => panic!("expected ArityMismatch, got {other:?}"),
        }
        assert!(err.to_string().contains("Edge"));
        // The unnamed constructor still reports the placeholder.
        let err = Relation::from_tuples(2, [&[1u32][..]]).unwrap_err();
        assert!(err.to_string().contains('_'));
    }

    #[test]
    fn contains_and_insert() {
        let mut r = Relation::empty(2);
        assert!(!r.contains(&[0, 1]));
        assert!(r.insert(&[0, 1]).unwrap());
        assert!(!r.insert(&[0, 1]).unwrap());
        assert!(r.contains(&[0, 1]));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn remove_keeps_rows_sorted() {
        let mut r = rel(2, &[&[0, 1], &[1, 0], &[2, 2]]);
        assert!(r.remove(&[1, 0]));
        assert!(!r.remove(&[1, 0]));
        assert!(!r.remove(&[2]));
        assert_eq!(r, rel(2, &[&[0, 1], &[2, 2]]));
        let mut unit = Relation::full(0, 1);
        assert!(unit.remove(&[]));
        assert!(unit.is_empty());
    }

    #[test]
    fn full_relation_has_expected_size() {
        let r = Relation::full(2, 3);
        assert_eq!(r.len(), 9);
        assert!(r.contains(&[2, 2]));
        assert!(r.contains(&[0, 0]));
        let r = Relation::full(3, 2);
        assert_eq!(r.len(), 8);
        // degenerate cases
        assert_eq!(Relation::full(0, 5).len(), 1);
        assert_eq!(Relation::full(2, 0).len(), 0);
    }

    #[test]
    fn intersect_is_set_intersection() {
        let a = rel(2, &[&[0, 0], &[0, 1], &[1, 1]]);
        let b = rel(2, &[&[0, 1], &[1, 0], &[1, 1]]);
        let c = a.intersect(&b).unwrap();
        assert_eq!(c, rel(2, &[&[0, 1], &[1, 1]]));
        assert!(a.intersect(&Relation::empty(3)).is_err());
    }

    #[test]
    fn union_is_set_union() {
        let a = rel(1, &[&[0], &[2]]);
        let b = rel(1, &[&[1], &[2]]);
        assert_eq!(a.union(&b).unwrap(), rel(1, &[&[0], &[1], &[2]]));
        let c = rel(2, &[&[0, 5], &[3, 1], &[3, 4]]);
        let d = rel(2, &[&[0, 5], &[1, 1], &[3, 2], &[9, 0]]);
        let both = rel(2, &[&[0, 5], &[1, 1], &[3, 1], &[3, 2], &[3, 4], &[9, 0]]);
        assert_eq!(c.union(&d).unwrap(), both);
        assert_eq!(d.union(&c).unwrap(), both);
        let unit = Relation::full(0, 1);
        assert_eq!(unit.union(&Relation::empty(0)).unwrap(), unit);
        assert_eq!(unit.union(&unit).unwrap(), unit);
    }

    #[test]
    fn project_reorders_and_dedups() {
        let r = rel(3, &[&[0, 1, 2], &[0, 1, 3], &[4, 5, 6]]);
        let p = r.project(&[1, 0]);
        assert_eq!(p, rel(2, &[&[1, 0], &[5, 4]]));
        let dup = r.project(&[0, 0]);
        assert_eq!(dup, rel(2, &[&[0, 0], &[4, 4]]));
    }

    #[test]
    fn select_eq_keeps_diagonal() {
        let r = rel(2, &[&[0, 0], &[0, 1], &[1, 1]]);
        assert_eq!(r.select_eq(0, 1), rel(2, &[&[0, 0], &[1, 1]]));
    }

    #[test]
    fn subset_check() {
        let a = rel(1, &[&[0]]);
        let b = rel(1, &[&[0], &[1]]);
        assert!(a.is_subset_of(&b));
        assert!(!b.is_subset_of(&a));
        assert!(Relation::empty(1).is_subset_of(&a));
    }

    #[test]
    fn max_element() {
        assert_eq!(rel(2, &[&[0, 7], &[3, 1]]).max_element(), Some(7));
        assert_eq!(Relation::empty(2).max_element(), None);
    }

    #[test]
    fn nullary_false_and_true_differ() {
        let f = Relation::empty(0);
        let t = Relation::full(0, 3);
        assert_eq!((f.len(), t.len()), (0, 1));
        assert_ne!(f, t);
        assert_eq!((f.to_string(), t.to_string()), ("{}".into(), "{()}".into()));
        assert_eq!(t.iter().collect::<Vec<_>>(), vec![&[] as &[u32]]);
        assert_eq!(Relation::from_flat(0, 5, vec![]), t);
        let mut g = f.clone();
        assert!(g.insert(&[]).unwrap());
        assert_eq!(g, t);
        assert_eq!(t.project(&[]), t);
        assert_eq!(rel(2, &[]).project(&[]), f);
    }

    #[test]
    fn from_flat_sorts_and_dedups() {
        let r = Relation::from_flat(2, 3, vec![1, 0, 0, 1, 1, 0]);
        assert_eq!(r, rel(2, &[&[0, 1], &[1, 0]]));
        assert_eq!(r.row(1), &[1, 0]);
    }

    #[test]
    fn display_format() {
        let r = rel(2, &[&[0, 1], &[1, 0]]);
        assert_eq!(r.to_string(), "{(0,1), (1,0)}");
    }
}
