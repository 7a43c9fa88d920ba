//! The semantic result cache: answers keyed by the *core* of the query.
//!
//! Chandra–Merlin (Propositions 2.2/2.3 of the paper) makes CQ
//! equivalence decidable by homomorphisms: two queries have identical
//! answers on **every** database iff their marked canonical databases
//! are homomorphically equivalent (the unary `@dist{i}` markers pin the
//! distinguished variables, so equivalence respects head order). The
//! core of a minimized query is therefore a sound cache key — any
//! renaming, atom reordering, or redundant-atom padding of a cached
//! query hits the same entry.
//!
//! Lookup is two-staged, mirroring how hash tables treat hash
//! collisions:
//!
//! 1. **bucket** by cheap invariants of the core — per-predicate atom
//!    counts, variable count, head arity — hashed to a `u64`;
//! 2. **confirm** every candidate in the bucket by homomorphic
//!    equivalence of the marked canonical structures.
//!
//! Invariant collisions are thus *checked, never trusted*: a false
//! bucket match costs two homomorphism tests and is then rejected.

use crate::proto::relation_to_json;
use cspdb_core::{Relation, Structure, VocabularyBuilder};
use cspdb_cq::{are_hom_equivalent, canonical_database, minimize, ConjunctiveQuery};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The semantic identity of a query: its core plus the artifacts needed
/// to bucket and confirm equivalence.
#[derive(Debug, Clone)]
pub struct CacheKey {
    /// The minimized query (evaluated instead of the original — it is
    /// equivalent and never larger).
    pub core: ConjunctiveQuery,
    /// Canonical database of the core *with* distinguished-variable
    /// markers; hom-equivalence of these structures is query
    /// equivalence.
    pub marked: Structure,
    /// Cheap invariant hash of the core (the bucket key).
    pub invariant: u64,
}

impl CacheKey {
    /// Computes the key: minimize to the core, build the marked
    /// canonical database, hash the invariants. This is the
    /// expensive-but-reusable part of serving a query; the cache exists
    /// to amortize everything that comes after it.
    pub fn of(q: &ConjunctiveQuery) -> CacheKey {
        let core = minimize(q);
        let marked = canonical_database(&core, true).structure;
        let invariant = invariant_hash(&core);
        CacheKey {
            core,
            marked,
            invariant,
        }
    }

    /// True iff the two keys denote equivalent queries: equal invariant
    /// hashes *and* either identical cores or homomorphically equivalent
    /// marked canonical structures. The last check is what makes equal
    /// keys imply set-equal answers on every database; identical cores
    /// build identical structures, so they skip it.
    pub fn matches(&self, other: &CacheKey) -> bool {
        self.invariant == other.invariant
            && (self.core == other.core || marked_equivalent(&self.marked, &other.marked))
    }
}

/// FNV-1a over the core's cheap invariants: sorted per-predicate
/// `(name, arity, atom count)` triples, variable count, head arity.
/// Equivalent cores agree on all of these (a core is unique up to
/// isomorphism), so equivalent queries always land in the same bucket.
pub fn invariant_hash(core: &ConjunctiveQuery) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn byte(h: &mut u64, b: u8) {
        *h ^= b as u64;
        *h = h.wrapping_mul(PRIME);
    }
    fn word(h: &mut u64, w: u64) {
        for b in w.to_le_bytes() {
            byte(h, b);
        }
    }
    let mut h = OFFSET;
    let mut per_pred: Vec<(String, usize, u64)> = Vec::new();
    for a in &core.atoms {
        match per_pred
            .iter_mut()
            .find(|(p, ar, _)| p == &a.predicate && *ar == a.args.len())
        {
            Some(entry) => entry.2 += 1,
            None => per_pred.push((a.predicate.clone(), a.args.len(), 1)),
        }
    }
    per_pred.sort();
    for (pred, arity, count) in &per_pred {
        for b in pred.bytes() {
            byte(&mut h, b);
        }
        byte(&mut h, 0);
        word(&mut h, *arity as u64);
        word(&mut h, *count);
    }
    word(&mut h, core.variables().len() as u64);
    word(&mut h, core.distinguished.len() as u64);
    h
}

/// Homomorphic equivalence of two marked canonical structures over
/// possibly different vocabularies: both are retyped onto the union
/// vocabulary first (a predicate absent from one side becomes an empty
/// relation there, correctly blocking any homomorphism from the side
/// that has facts in it). Incompatible arities mean the queries cannot
/// be equivalent.
fn marked_equivalent(a: &Structure, b: &Structure) -> bool {
    let mut builder = VocabularyBuilder::new();
    for s in [a, b] {
        for (id, _) in s.relations() {
            let name = s.vocabulary().name(id);
            let arity = s.vocabulary().arity(id);
            if builder.add_or_get(name, arity).is_err() {
                return false;
            }
        }
    }
    let voc = builder.finish();
    let retype = |s: &Structure| -> Structure {
        let mut out = Structure::new(voc.clone(), s.domain_size());
        for (id, rel) in s.relations() {
            let new_id = voc
                .id(s.vocabulary().name(id))
                .expect("union vocabulary contains both sides");
            for t in rel.iter() {
                out.insert(new_id, t).expect("tuples were in range");
            }
        }
        out
    };
    are_hom_equivalent(&retype(a), &retype(b))
}

/// One cached answer.
#[derive(Debug)]
struct Entry {
    key: CacheKey,
    /// The serialized answer (rows sorted) — hits return this string
    /// verbatim, which is the byte-identical-answers guarantee.
    answers_json: String,
    /// The answer relation itself, for library callers.
    answers: Relation,
}

type BucketMap = HashMap<(String, u64, u64), Vec<Entry>>;

/// A concurrent core-keyed result cache, sharded by database name.
///
/// Entries are bucketed by `(database name, database version,
/// invariant hash)`; within a bucket, candidates are confirmed by
/// [`CacheKey::matches`]. A version bump strands the old version's
/// buckets, which [`SemanticCache::invalidate_db`] purges eagerly on
/// every `put`.
///
/// The bucket map is split into independently locked shards routed by
/// the same name hash as the [`Catalog`](crate::Catalog): lookups and
/// inserts for different databases never contend, and invalidating one
/// database only locks its shard.
#[derive(Debug)]
pub struct SemanticCache {
    shards: Box<[Mutex<BucketMap>]>,
    hits: AtomicU64,
    misses: AtomicU64,
    recoveries: AtomicU64,
}

impl Default for SemanticCache {
    fn default() -> Self {
        SemanticCache::with_shards(crate::catalog::DEFAULT_SHARDS)
    }
}

impl SemanticCache {
    /// An empty cache with the default shard count.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty cache split into `shards` shards (min 1).
    pub fn with_shards(shards: usize) -> Self {
        SemanticCache {
            shards: (0..shards.max(1)).map(|_| Mutex::default()).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            recoveries: AtomicU64::new(0),
        }
    }

    /// Locks one shard's bucket map, recovering from poison: a thread
    /// that panicked while holding the lock may have left a bucket
    /// half-updated, so recovery discards the shard's entries — that
    /// slice of the cache restarts cold, which is always correct (it
    /// only ever serves confirmed equivalents) — counts the event, and
    /// continues. Other shards are untouched.
    fn lock_shard<'a>(&self, shard: &'a Mutex<BucketMap>) -> MutexGuard<'a, BucketMap> {
        match shard.lock() {
            Ok(guard) => guard,
            Err(poisoned) => {
                self.recoveries.fetch_add(1, Ordering::Relaxed);
                shard.clear_poison();
                let mut guard = poisoned.into_inner();
                guard.clear();
                guard
            }
        }
    }

    /// The shard holding `db`'s buckets.
    fn shard_for(&self, db: &str) -> &Mutex<BucketMap> {
        &self.shards[crate::catalog::shard_of(db, self.shards.len())]
    }

    /// Looks up an equivalent query's answer computed against `(db,
    /// version)`. Returns the stored `(serialized, relation)` pair on a
    /// confirmed hit.
    pub fn lookup(&self, db: &str, version: u64, key: &CacheKey) -> Option<(String, Relation)> {
        let buckets = self.lock_shard(self.shard_for(db));
        let found = buckets
            .get(&(db.to_owned(), version, key.invariant))
            .and_then(|bucket| bucket.iter().find(|e| e.key.matches(key)))
            .map(|e| (e.answers_json.clone(), e.answers.clone()));
        if found.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Stores an answer computed against `(db, version)`. The
    /// serialized form is derived here so every entry is consistent
    /// with [`relation_to_json`]. Duplicate keys (two racing misses)
    /// keep the first entry — both computed the same answer.
    pub fn insert(&self, db: &str, version: u64, key: CacheKey, answers: Relation) -> String {
        let answers_json = relation_to_json(&answers);
        let mut buckets = self.lock_shard(self.shard_for(db));
        let bucket = buckets
            .entry((db.to_owned(), version, key.invariant))
            .or_default();
        if !bucket.iter().any(|e| e.key.matches(&key)) {
            bucket.push(Entry {
                key,
                answers_json: answers_json.clone(),
                answers,
            });
        }
        answers_json
    }

    /// Drops every entry for `db` (all versions), locking only `db`'s
    /// shard. Called on `put`, so replaced databases free their
    /// stranded entries immediately instead of waiting for the process
    /// to exit. Returns how many entries were dropped.
    pub fn invalidate_db(&self, db: &str) -> u64 {
        let mut dropped = 0u64;
        self.lock_shard(self.shard_for(db))
            .retain(|(name, _, _), bucket| {
                if name == db {
                    dropped += bucket.len() as u64;
                    false
                } else {
                    true
                }
            });
        dropped
    }

    /// Delta-aware invalidation: after a single-tuple delta bumped `db`
    /// to `new_version`, entries whose query matches one of the
    /// maintained views in `fresh` are *re-keyed* onto the new version
    /// with the view's incrementally maintained answers — they keep
    /// serving hits without recomputation. Entries no view covers fall
    /// back to plain invalidation (dropped, exactly as a version bump
    /// would strand them). Each view's answers are serialized at most
    /// once. Returns `(revalidated, dropped)`.
    pub fn revalidate_db(
        &self,
        db: &str,
        new_version: u64,
        fresh: &[(CacheKey, Relation)],
    ) -> (u64, u64) {
        let mut buckets = self.lock_shard(self.shard_for(db));
        let mut drained: Vec<Entry> = Vec::new();
        buckets.retain(|(name, _, _), bucket| {
            if name == db {
                drained.append(bucket);
                false
            } else {
                true
            }
        });
        let mut revalidated = 0u64;
        let mut dropped = 0u64;
        let mut json: Vec<Option<String>> = vec![None; fresh.len()];
        for entry in drained {
            match fresh.iter().position(|(k, _)| k.matches(&entry.key)) {
                Some(i) => {
                    let answers = &fresh[i].1;
                    let answers_json = json[i]
                        .get_or_insert_with(|| relation_to_json(answers))
                        .clone();
                    buckets
                        .entry((db.to_owned(), new_version, entry.key.invariant))
                        .or_default()
                        .push(Entry {
                            key: entry.key,
                            answers_json,
                            answers: answers.clone(),
                        });
                    revalidated += 1;
                }
                None => dropped += 1,
            }
        }
        (revalidated, dropped)
    }

    /// Confirmed hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Times a poisoned shard lock was recovered (each recovery
    /// restarts that shard cold).
    pub fn poison_recoveries(&self) -> u64 {
        self.recoveries.load(Ordering::Relaxed)
    }

    /// Poisons every shard lock by panicking while holding it (the
    /// panics are caught here). Fault injection uses this to exercise
    /// the poison-recovery path; real code never calls it.
    #[doc(hidden)]
    pub fn poison(&self) {
        for shard in self.shards.iter() {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _guard = shard.lock();
                panic!("injected lock poison");
            }));
        }
    }

    /// Number of stored entries across all shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| self.lock_shard(s).values().map(Vec::len).sum::<usize>())
            .sum()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(src: &str) -> ConjunctiveQuery {
        ConjunctiveQuery::parse(src).unwrap()
    }

    #[test]
    fn renamed_and_padded_queries_share_a_key() {
        let base = CacheKey::of(&q("Q(X,Y) :- E(X,Z), E(Z,Y)"));
        // Renamed variables, reordered atoms.
        let renamed = CacheKey::of(&q("Q(A,B) :- E(W,B), E(A,W)"));
        // A redundant atom the core folds away.
        let padded = CacheKey::of(&q("Q(X,Y) :- E(X,Z), E(Z,Y), E(X,W)"));
        assert_eq!(base.invariant, renamed.invariant);
        assert!(base.matches(&renamed));
        assert!(renamed.matches(&base));
        assert!(base.matches(&padded));
    }

    #[test]
    fn identical_cores_match_without_a_hom_test() {
        let key = CacheKey::of(&q("Q(X,Y) :- E(X,Z), E(Z,Y)"));
        // A key whose marked structure disagrees with its core is never
        // built; it shows that identical cores skip the hom test.
        let mut stale = key.clone();
        stale.marked = CacheKey::of(&q("Q(X,Y) :- E(X,Y)")).marked;
        assert!(key.matches(&stale));
        // A renamed core is not identical: the hom test decides.
        let renamed = CacheKey::of(&q("Q(A,B) :- E(A,C), E(C,B)"));
        assert!(!renamed.matches(&stale));
        assert!(renamed.matches(&key));
    }

    #[test]
    fn inequivalent_queries_do_not_match() {
        let path2 = CacheKey::of(&q("Q(X,Y) :- E(X,Z), E(Z,Y)"));
        let path3 = CacheKey::of(&q("Q(X,Y) :- E(X,Z), E(Z,W), E(W,Y)"));
        assert!(!path2.matches(&path3));
        // Same shape, different head order: markers must distinguish.
        let fwd = CacheKey::of(&q("Q(X,Y) :- E(X,Y)"));
        let rev = CacheKey::of(&q("Q(Y,X) :- E(X,Y)"));
        assert_eq!(fwd.invariant, rev.invariant, "cheap invariants collide");
        assert!(!fwd.matches(&rev), "hom confirmation rejects the collision");
    }

    #[test]
    fn lookup_confirms_and_versions_isolate() {
        let cache = SemanticCache::new();
        let key = CacheKey::of(&q("Q(X) :- E(X,Y)"));
        let ans = Relation::from_tuples(1, [[0u32], [1]]).unwrap();
        assert!(cache.lookup("g", 1, &key).is_none());
        let json = cache.insert("g", 1, key.clone(), ans);
        assert_eq!(json, "[[0],[1]]");
        let renamed = CacheKey::of(&q("Q(A) :- E(A,B)"));
        let (hit_json, hit_rel) = cache.lookup("g", 1, &renamed).expect("semantic hit");
        assert_eq!(hit_json, json);
        assert_eq!(hit_rel.len(), 2);
        // Other version or database: miss.
        assert!(cache.lookup("g", 2, &renamed).is_none());
        assert!(cache.lookup("h", 1, &renamed).is_none());
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 3);
        cache.invalidate_db("g");
        assert!(cache.is_empty());
    }

    #[test]
    fn revalidation_rekeys_covered_entries_and_drops_the_rest() {
        let cache = SemanticCache::new();
        let covered = CacheKey::of(&q("Q(X) :- E(X,Y)"));
        let uncovered = CacheKey::of(&q("R(X,Y) :- E(X,Z), E(Z,Y)"));
        cache.insert(
            "g",
            1,
            covered.clone(),
            Relation::from_tuples(1, [[0u32]]).unwrap(),
        );
        cache.insert(
            "g",
            1,
            uncovered.clone(),
            Relation::from_tuples(2, [[0u32, 1]]).unwrap(),
        );
        // A delta bumped g to version 2; a maintained view covers the
        // first query (renamed — semantic match, not textual).
        let view_key = CacheKey::of(&q("Q(A) :- E(A,B)"));
        let maintained = Relation::from_tuples(1, [[0u32], [2]]).unwrap();
        let (revalidated, dropped) = cache.revalidate_db("g", 2, &[(view_key, maintained)]);
        assert_eq!((revalidated, dropped), (1, 1));
        // The covered entry now serves the maintained answers at v2.
        let (json, rel) = cache.lookup("g", 2, &covered).expect("revalidated hit");
        assert_eq!(json, "[[0],[2]]");
        assert_eq!(rel.len(), 2);
        // The uncovered entry is gone at every version.
        assert!(cache.lookup("g", 1, &uncovered).is_none());
        assert!(cache.lookup("g", 2, &uncovered).is_none());
        // Counting invalidation still works and reports its size.
        assert_eq!(cache.invalidate_db("g"), 1);
        assert!(cache.is_empty());
    }

    #[test]
    fn poisoned_lock_recovers_to_a_cold_cache() {
        let cache = SemanticCache::new();
        let key = CacheKey::of(&q("Q(X) :- E(X,Y)"));
        let ans = || Relation::from_tuples(1, [[0u32]]).unwrap();
        cache.insert("g", 1, key.clone(), ans());
        assert_eq!(cache.len(), 1);
        cache.poison();
        // The first access after poisoning recovers to a cold cache
        // and counts the event.
        assert!(cache.lookup("g", 1, &key).is_none());
        assert_eq!(cache.poison_recoveries(), 1);
        assert!(cache.is_empty());
        // The cache keeps working afterwards.
        cache.insert("g", 1, key.clone(), ans());
        assert!(cache.lookup("g", 1, &key).is_some());
    }
}
