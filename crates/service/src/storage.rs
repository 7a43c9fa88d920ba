//! Durable storage for named databases and the semantic-cache index.
//!
//! The [`Storage`] trait is the seam behind [`Catalog`](crate::Catalog):
//! the in-memory [`MemStorage`] keeps today's test behaviour (nothing
//! survives the process), while [`DurableStorage`] persists every named
//! database as a **versioned snapshot file plus an append log of
//! `put`s** under a data directory:
//!
//! ```text
//! <dir>/db-<hex(name)>.snap   one checksummed record: the structure at
//!                             the last compaction's version
//! <dir>/db-<hex(name)>.log    one checksummed record per `put` since
//! <dir>/cache.log             one checksummed record per cached answer
//! ```
//!
//! Every record is framed `[len u32][fnv64 checksum][payload]`; a
//! record is *committed* iff its frame is complete and its checksum
//! matches. Startup replay walks each file record by record and
//! **truncates the first torn or corrupt tail** it finds — a process
//! killed mid-append therefore recovers to exactly the committed
//! prefix, inventing no tuples. A `put` replaces the whole database,
//! so such a record carries a complete structure; a single-tuple
//! `insert`/`delete` instead appends a small **delta record**
//! ([`PersistedDelta`]) that replay folds, in version order, onto the
//! preceding base state. Once the log grows past the compaction
//! threshold ([`DurableStorage::with_compact_threshold`]) in records
//! (puts and deltas alike), it is folded into a fresh snapshot and emptied
//! ([`TraceEvent::LogCompacted`]).
//!
//! The cache index is warm-start *hints*, never trusted blindly: each
//! entry names the database version it was computed against, and the
//! server re-confirms (version must still match after catalog replay,
//! and the cache key is recomputed from the stored query source) before
//! an entry serves a hit.

use cspdb_core::trace::{TraceEvent, Tracer};
use cspdb_core::{Relation, Structure, VocabularyBuilder};
use std::collections::HashMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Record framing: `[payload_len: u32 LE][fnv64(payload): u64 LE]`.
const FRAME_LEN: usize = 12;
/// Refuse absurd lengths when decoding (a corrupt length field must
/// not allocate gigabytes).
const MAX_RECORD_LEN: usize = 1 << 30;

/// Payload tag of a database (snapshot or log) record.
const TAG_DB: u8 = 1;
/// Payload tag of a cache-index record.
const TAG_CACHE: u8 = 2;
/// Payload tag of a single-tuple delta log record.
const TAG_DELTA: u8 = 3;

/// What went wrong talking to a storage backend.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying filesystem operation failed.
    Io(String),
    /// A record or payload failed to decode (framing, tag, or field).
    Corrupt(String),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "storage io: {e}"),
            StorageError::Corrupt(e) => write!(f, "storage corrupt: {e}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> Self {
        StorageError::Io(e.to_string())
    }
}

/// One recovered named database.
#[derive(Debug, Clone)]
pub struct PersistedDb {
    /// Database name.
    pub name: String,
    /// Recovered version (the catalog resumes counting from here).
    pub version: u64,
    /// The structure at that version.
    pub structure: Structure,
}

/// One persisted semantic-cache entry (a warm-start *hint*; the server
/// re-confirms version and recomputes the key before trusting it).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistedEntry {
    /// Database name the answer was computed against.
    pub db: String,
    /// Database version the answer was computed against.
    pub version: u64,
    /// Source text of the query core (re-parsed and re-keyed on load).
    pub query: String,
    /// Head arity of the answer relation.
    pub arity: usize,
    /// Answer rows, each of length `arity`.
    pub rows: Vec<Vec<u32>>,
}

/// One persisted single-tuple delta: instead of re-logging the whole
/// database on every write, an `insert`/`delete` appends this small
/// record and startup replay folds it onto the preceding base state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersistedDelta {
    /// Database name the delta applies to.
    pub db: String,
    /// The database version the delta *produces*.
    pub version: u64,
    /// Relation name the tuple moves in or out of.
    pub rel: String,
    /// True for insert, false for delete.
    pub insert: bool,
    /// The tuple.
    pub tuple: Vec<u32>,
}

/// Durability counters a backend exposes for `Stats` and the doctor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StorageStats {
    /// Snapshot files written (first write and compactions).
    pub snapshots_written: u64,
    /// Valid log records replayed at startup.
    pub log_records_replayed: u64,
    /// Append logs folded into fresh snapshots.
    pub log_compactions: u64,
    /// Torn or corrupt tails truncated during replay.
    pub torn_tails_truncated: u64,
    /// Failed durable writes (the in-memory catalog stays correct; the
    /// failure is surfaced here and by the doctor).
    pub write_errors: u64,
}

/// The persistence seam behind [`Catalog`](crate::Catalog).
///
/// Implementations must be shareable across worker threads.
pub trait Storage: Send + Sync + fmt::Debug {
    /// Recovers every named database (replaying logs, truncating torn
    /// tails, compacting oversized logs).
    ///
    /// # Errors
    ///
    /// Only on environmental failure (e.g. the data directory is
    /// unreadable); individual corrupt records are skipped and counted,
    /// never fatal.
    fn load(&self) -> Result<Vec<PersistedDb>, StorageError>;

    /// Records a `put` of `structure` as `name`'s version `version`.
    ///
    /// # Errors
    ///
    /// On a failed durable write. Callers may continue serving from
    /// memory; the failure is also counted in [`Storage::stats`].
    fn record_put(
        &self,
        name: &str,
        version: u64,
        structure: &Structure,
    ) -> Result<(), StorageError>;

    /// Records a single-tuple delta producing `delta.version`; `post`
    /// is the resulting structure, handed over so a backend can fold
    /// an oversized log into a snapshot without replaying it.
    ///
    /// Default: a no-op (non-durable backends keep deltas in memory
    /// only).
    ///
    /// # Errors
    ///
    /// On a failed durable write.
    fn record_delta(&self, delta: &PersistedDelta, post: &Structure) -> Result<(), StorageError> {
        let _ = (delta, post);
        Ok(())
    }

    /// Loads the persisted cache-entry index (hints only — the caller
    /// must re-confirm each entry before serving from it).
    ///
    /// # Errors
    ///
    /// Only on environmental failure; corrupt entries are skipped.
    fn load_cache_entries(&self) -> Result<Vec<PersistedEntry>, StorageError>;

    /// Appends one cache entry to the persisted index.
    ///
    /// # Errors
    ///
    /// On a failed durable write.
    fn record_cache_entry(&self, entry: &PersistedEntry) -> Result<(), StorageError>;

    /// True when this backend actually writes records — callers use it
    /// to skip building persistence payloads on the in-memory path.
    fn persists(&self) -> bool {
        false
    }

    /// Durability counters (all zero for non-durable backends).
    fn stats(&self) -> StorageStats {
        StorageStats::default()
    }

    /// Installs the tracer durability events are emitted through.
    /// Default: ignored (non-durable backends emit nothing).
    fn attach_tracer(&self, _tracer: Tracer) {}
}

/// The non-durable backend: loads nothing, records nothing. This is
/// the pre-existing in-memory behaviour, kept for tests and for
/// `serve` without `--data-dir`.
#[derive(Debug, Default, Clone, Copy)]
pub struct MemStorage;

impl Storage for MemStorage {
    fn load(&self) -> Result<Vec<PersistedDb>, StorageError> {
        Ok(Vec::new())
    }

    fn record_put(&self, _: &str, _: u64, _: &Structure) -> Result<(), StorageError> {
        Ok(())
    }

    fn load_cache_entries(&self) -> Result<Vec<PersistedEntry>, StorageError> {
        Ok(Vec::new())
    }

    fn record_cache_entry(&self, _: &PersistedEntry) -> Result<(), StorageError> {
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Record framing and payload encoding
// ---------------------------------------------------------------------

/// FNV-1a over `bytes` — the per-record checksum.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Frames `payload` as one record: `[len][fnv64][payload]`.
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_LEN + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&fnv64(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The result of replaying a record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Replay {
    /// Committed payloads, in file order.
    pub payloads: Vec<Vec<u8>>,
    /// Bytes of the longest committed prefix. Anything past this is a
    /// torn or corrupt tail and must be truncated before appending.
    pub valid_len: usize,
    /// True when the stream ended in a torn or corrupt tail.
    pub torn: bool,
}

/// Decodes a stream of framed records, stopping at the first torn
/// (incomplete frame or payload) or corrupt (checksum mismatch) record.
/// Total: any byte string yields a `Replay`, never a panic.
pub fn decode_records(bytes: &[u8]) -> Replay {
    let mut payloads = Vec::new();
    let mut offset = 0usize;
    while offset < bytes.len() {
        let rest = &bytes[offset..];
        if rest.len() < FRAME_LEN {
            return Replay {
                payloads,
                valid_len: offset,
                torn: true,
            };
        }
        let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
        let sum = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
        if len > MAX_RECORD_LEN || rest.len() < FRAME_LEN + len {
            return Replay {
                payloads,
                valid_len: offset,
                torn: true,
            };
        }
        let payload = &rest[FRAME_LEN..FRAME_LEN + len];
        if fnv64(payload) != sum {
            return Replay {
                payloads,
                valid_len: offset,
                torn: true,
            };
        }
        payloads.push(payload.to_vec());
        offset += FRAME_LEN + len;
    }
    Replay {
        payloads,
        valid_len: offset,
        torn: false,
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Cursor<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], StorageError> {
        let end = self
            .at
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| StorageError::Corrupt("payload truncated".into()))?;
        let s = &self.bytes[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8, StorageError> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, StorageError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, StorageError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    fn str(&mut self) -> Result<String, StorageError> {
        let len = self.u32()? as usize;
        if len > MAX_RECORD_LEN {
            return Err(StorageError::Corrupt("string length out of range".into()));
        }
        String::from_utf8(self.take(len)?.to_vec())
            .map_err(|_| StorageError::Corrupt("string not utf-8".into()))
    }

    fn done(&self) -> Result<(), StorageError> {
        if self.at == self.bytes.len() {
            Ok(())
        } else {
            Err(StorageError::Corrupt("trailing bytes in payload".into()))
        }
    }
}

/// Encodes a full database state (one `put`) as a record payload.
pub fn encode_db_payload(name: &str, version: u64, structure: &Structure) -> Vec<u8> {
    let mut out = vec![TAG_DB];
    out.extend_from_slice(&version.to_le_bytes());
    put_str(&mut out, name);
    out.extend_from_slice(&(structure.domain_size() as u64).to_le_bytes());
    let voc = structure.vocabulary();
    out.extend_from_slice(&(voc.len() as u32).to_le_bytes());
    for (id, rel) in structure.relations() {
        put_str(&mut out, voc.name(id));
        out.extend_from_slice(&(rel.arity() as u32).to_le_bytes());
        out.extend_from_slice(&(rel.len() as u64).to_le_bytes());
        for t in rel.iter() {
            for &x in t {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    out
}

/// Decodes a database record payload back to `(name, version,
/// structure)` — the exact inverse of [`encode_db_payload`].
///
/// # Errors
///
/// [`StorageError::Corrupt`] on any framing, tag, or field violation.
/// Total over arbitrary bytes.
pub fn decode_db_payload(payload: &[u8]) -> Result<(String, u64, Structure), StorageError> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    if c.u8()? != TAG_DB {
        return Err(StorageError::Corrupt("not a database record".into()));
    }
    let version = c.u64()?;
    let name = c.str()?;
    let domain_size = c.u64()? as usize;
    let nrels = c.u32()? as usize;
    let mut rels: Vec<(String, Relation)> = Vec::new();
    let mut builder = VocabularyBuilder::new();
    for _ in 0..nrels {
        let rel_name = c.str()?;
        let arity = c.u32()? as usize;
        let nrows = c.u64()? as usize;
        // Bound the claimed row count by the bytes actually present.
        if arity.saturating_mul(nrows).saturating_mul(4) > payload.len() {
            return Err(StorageError::Corrupt("row count exceeds payload".into()));
        }
        let mut data = Vec::with_capacity(arity * nrows);
        for _ in 0..arity * nrows {
            data.push(c.u32()?);
        }
        // The encoder writes each relation once, under its unique name.
        if rels.iter().any(|(n, _)| *n == rel_name) {
            return Err(StorageError::Corrupt(format!(
                "relation {rel_name} recorded twice"
            )));
        }
        builder
            .add_or_get(&rel_name, arity)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        rels.push((rel_name, Relation::from_flat(arity, nrows, data)));
    }
    c.done()?;
    let voc = builder.finish();
    let mut s = Structure::new(voc.clone(), domain_size);
    for (rel_name, rel) in rels {
        let id = voc
            .id(&rel_name)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        s.set_relation(id, rel)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
    }
    Ok((name, version, s))
}

/// Encodes one cache entry as a record payload.
pub fn encode_cache_payload(entry: &PersistedEntry) -> Vec<u8> {
    let mut out = vec![TAG_CACHE];
    put_str(&mut out, &entry.db);
    out.extend_from_slice(&entry.version.to_le_bytes());
    put_str(&mut out, &entry.query);
    out.extend_from_slice(&(entry.arity as u32).to_le_bytes());
    out.extend_from_slice(&(entry.rows.len() as u64).to_le_bytes());
    for row in &entry.rows {
        for &x in row {
            out.extend_from_slice(&x.to_le_bytes());
        }
    }
    out
}

/// Decodes a cache record payload — the inverse of
/// [`encode_cache_payload`].
///
/// # Errors
///
/// [`StorageError::Corrupt`] on any violation. Total over arbitrary
/// bytes.
pub fn decode_cache_payload(payload: &[u8]) -> Result<PersistedEntry, StorageError> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    if c.u8()? != TAG_CACHE {
        return Err(StorageError::Corrupt("not a cache record".into()));
    }
    let db = c.str()?;
    let version = c.u64()?;
    let query = c.str()?;
    let arity = c.u32()? as usize;
    let nrows = c.u64()? as usize;
    if arity.saturating_mul(nrows).saturating_mul(4) > payload.len() {
        return Err(StorageError::Corrupt("row count exceeds payload".into()));
    }
    let mut rows = Vec::with_capacity(nrows);
    for _ in 0..nrows {
        let mut row = Vec::with_capacity(arity);
        for _ in 0..arity {
            row.push(c.u32()?);
        }
        rows.push(row);
    }
    c.done()?;
    Ok(PersistedEntry {
        db,
        version,
        query,
        arity,
        rows,
    })
}

/// Encodes one single-tuple delta as a record payload.
pub fn encode_delta_payload(delta: &PersistedDelta) -> Vec<u8> {
    let mut out = vec![TAG_DELTA];
    out.extend_from_slice(&delta.version.to_le_bytes());
    put_str(&mut out, &delta.db);
    put_str(&mut out, &delta.rel);
    out.push(u8::from(!delta.insert));
    out.extend_from_slice(&(delta.tuple.len() as u32).to_le_bytes());
    for &x in &delta.tuple {
        out.extend_from_slice(&x.to_le_bytes());
    }
    out
}

/// Decodes a delta record payload — the inverse of
/// [`encode_delta_payload`].
///
/// # Errors
///
/// [`StorageError::Corrupt`] on any framing, tag, or field violation.
/// Total over arbitrary bytes.
pub fn decode_delta_payload(payload: &[u8]) -> Result<PersistedDelta, StorageError> {
    let mut c = Cursor {
        bytes: payload,
        at: 0,
    };
    if c.u8()? != TAG_DELTA {
        return Err(StorageError::Corrupt("not a delta record".into()));
    }
    let version = c.u64()?;
    let db = c.str()?;
    let rel = c.str()?;
    let insert = match c.u8()? {
        0 => true,
        1 => false,
        op => return Err(StorageError::Corrupt(format!("unknown delta op {op}"))),
    };
    let arity = c.u32()? as usize;
    if arity.saturating_mul(4) > payload.len() {
        return Err(StorageError::Corrupt("arity exceeds payload".into()));
    }
    let mut tuple = Vec::with_capacity(arity);
    for _ in 0..arity {
        tuple.push(c.u32()?);
    }
    c.done()?;
    Ok(PersistedDelta {
        db,
        version,
        rel,
        insert,
        tuple,
    })
}

/// Folds one persisted delta onto a structure during replay.
/// Idempotence-tolerant: re-inserting a present tuple or re-deleting an
/// absent one is fine (a record can be replayed against a state that
/// already includes it after a compaction race).
///
/// # Errors
///
/// [`StorageError::Corrupt`] when the delta names an unknown relation
/// or the tuple has the wrong arity.
fn apply_persisted_delta(
    structure: &Structure,
    delta: &PersistedDelta,
) -> Result<Structure, StorageError> {
    let rel_id = structure
        .vocabulary()
        .id(&delta.rel)
        .map_err(|e| StorageError::Corrupt(e.to_string()))?;
    if structure.vocabulary().arity(rel_id) != delta.tuple.len() {
        return Err(StorageError::Corrupt(format!(
            "delta arity {} does not match relation {}",
            delta.tuple.len(),
            delta.rel
        )));
    }
    if delta.insert {
        let need = delta
            .tuple
            .iter()
            .map(|&x| x as usize + 1)
            .max()
            .unwrap_or(0);
        let mut out = if need > structure.domain_size() {
            let identity: Vec<u32> = (0..structure.domain_size() as u32).collect();
            structure
                .map_domain(&identity, need)
                .map_err(|e| StorageError::Corrupt(e.to_string()))?
        } else {
            structure.clone()
        };
        out.insert(rel_id, &delta.tuple)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        Ok(out)
    } else {
        let keep = structure
            .relation(rel_id)
            .filter(|t| t != delta.tuple.as_slice());
        let mut out = structure.clone();
        out.set_relation(rel_id, keep)
            .map_err(|e| StorageError::Corrupt(e.to_string()))?;
        Ok(out)
    }
}

/// Hex-encodes a database name for use as a filename stem (names are
/// arbitrary strings; the hex form is filesystem-safe and injective).
fn hex_name(name: &str) -> String {
    name.bytes().map(|b| format!("{b:02x}")).collect()
}

fn unhex_name(stem: &str) -> Option<String> {
    if !stem.len().is_multiple_of(2) {
        return None;
    }
    let mut bytes = Vec::with_capacity(stem.len() / 2);
    for i in (0..stem.len()).step_by(2) {
        bytes.push(u8::from_str_radix(stem.get(i..i + 2)?, 16).ok()?);
    }
    String::from_utf8(bytes).ok()
}

// ---------------------------------------------------------------------
// DurableStorage
// ---------------------------------------------------------------------

/// The file-backed [`Storage`]: versioned snapshot + checksummed append
/// log per named database, plus a persisted cache index. See the module
/// docs for the on-disk layout and recovery semantics.
pub struct DurableStorage {
    dir: PathBuf,
    compact_threshold: usize,
    tracer: Mutex<Tracer>,
    /// Per-database log record count, maintained so `record_put` knows
    /// when to compact without re-reading the file.
    log_lens: Mutex<HashMap<String, usize>>,
    snapshots_written: AtomicU64,
    log_records_replayed: AtomicU64,
    compactions: AtomicU64,
    torn_truncated: AtomicU64,
    write_errors: AtomicU64,
}

impl fmt::Debug for DurableStorage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DurableStorage")
            .field("dir", &self.dir)
            .field("compact_threshold", &self.compact_threshold)
            .finish()
    }
}

/// Log records per database before the log is folded into a fresh
/// snapshot.
pub const DEFAULT_COMPACT_THRESHOLD: usize = 16;

impl DurableStorage {
    /// Opens (creating if needed) a data directory.
    ///
    /// # Errors
    ///
    /// When the directory cannot be created.
    pub fn open(dir: impl Into<PathBuf>) -> Result<DurableStorage, StorageError> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(DurableStorage {
            dir,
            compact_threshold: DEFAULT_COMPACT_THRESHOLD,
            tracer: Mutex::new(Tracer::disabled()),
            log_lens: Mutex::new(HashMap::new()),
            snapshots_written: AtomicU64::new(0),
            log_records_replayed: AtomicU64::new(0),
            compactions: AtomicU64::new(0),
            torn_truncated: AtomicU64::new(0),
            write_errors: AtomicU64::new(0),
        })
    }

    /// Overrides the compaction threshold (log records per database).
    #[must_use]
    pub fn with_compact_threshold(mut self, threshold: usize) -> DurableStorage {
        self.compact_threshold = threshold.max(1);
        self
    }

    /// The data directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The append-log path for database `name` (exposed so the doctor
    /// and tests can simulate kills mid-append against the real file).
    pub fn log_file(&self, name: &str) -> PathBuf {
        self.log_path(name)
    }

    /// The snapshot path for database `name`.
    pub fn snapshot_file(&self, name: &str) -> PathBuf {
        self.snap_path(name)
    }

    fn snap_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("db-{}.snap", hex_name(name)))
    }

    fn log_path(&self, name: &str) -> PathBuf {
        self.dir.join(format!("db-{}.log", hex_name(name)))
    }

    fn cache_path(&self) -> PathBuf {
        self.dir.join("cache.log")
    }

    fn emit(&self, f: impl FnOnce() -> TraceEvent) {
        match self.tracer.lock() {
            Ok(t) => t.emit_with(f),
            Err(poisoned) => poisoned.into_inner().emit_with(f),
        }
    }

    /// Appends one framed record to `path`, flushing to the OS.
    fn append(&self, path: &Path, record: &[u8]) -> Result<(), StorageError> {
        let result = (|| -> Result<(), StorageError> {
            let mut f = OpenOptions::new().create(true).append(true).open(path)?;
            f.write_all(record)?;
            f.sync_data()?;
            Ok(())
        })();
        if result.is_err() {
            self.write_errors.fetch_add(1, Ordering::Relaxed);
        }
        result
    }

    /// Writes a fresh snapshot atomically (tmp file + rename) and
    /// empties the log.
    fn write_snapshot(
        &self,
        name: &str,
        version: u64,
        structure: &Structure,
    ) -> Result<u64, StorageError> {
        let record = encode_record(&encode_db_payload(name, version, structure));
        let bytes = record.len() as u64;
        let result = (|| -> Result<(), StorageError> {
            let tmp = self.dir.join(format!("db-{}.snap.tmp", hex_name(name)));
            {
                let mut f = File::create(&tmp)?;
                f.write_all(&record)?;
                f.sync_data()?;
            }
            fs::rename(&tmp, self.snap_path(name))?;
            // Empty the log *after* the snapshot is durable: a crash
            // between the two leaves stale log records whose versions
            // the replay discards (≤ snapshot version).
            File::create(self.log_path(name))?.sync_data()?;
            Ok(())
        })();
        match result {
            Ok(()) => {
                self.snapshots_written.fetch_add(1, Ordering::Relaxed);
                self.emit(|| TraceEvent::SnapshotWritten {
                    db: name.to_owned(),
                    version,
                    bytes,
                });
                Ok(bytes)
            }
            Err(e) => {
                self.write_errors.fetch_add(1, Ordering::Relaxed);
                Err(e)
            }
        }
    }

    /// Truncates `path` to its longest committed prefix.
    fn truncate_torn(&self, path: &Path, valid_len: usize) -> Result<(), StorageError> {
        let f = OpenOptions::new().write(true).open(path)?;
        f.set_len(valid_len as u64)?;
        f.sync_data()?;
        self.torn_truncated.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Replays one database's snapshot + log. Returns `None` when no
    /// valid record exists at all.
    fn load_db(&self, name: &str) -> Result<Option<PersistedDb>, StorageError> {
        let mut best: Option<(u64, Structure)> = None;
        let snap_path = self.snap_path(name);
        if let Ok(bytes) = fs::read(&snap_path) {
            let replay = decode_records(&bytes);
            if replay.torn {
                // A crash mid-snapshot-write cannot happen (tmp +
                // rename), but a corrupt disk can: drop the tail and
                // fall back to whatever the log still holds.
                self.truncate_torn(&snap_path, replay.valid_len)?;
            }
            for payload in &replay.payloads {
                if let Ok((n, v, s)) = decode_db_payload(payload) {
                    if n == name && best.as_ref().is_none_or(|(bv, _)| v > *bv) {
                        best = Some((v, s));
                    }
                }
            }
        }
        let snapshot_version = best.as_ref().map_or(0, |(v, _)| *v);
        let log_path = self.log_path(name);
        let mut log_records = 0usize;
        let mut torn = false;
        if let Ok(bytes) = fs::read(&log_path) {
            let replay = decode_records(&bytes);
            if replay.torn {
                self.truncate_torn(&log_path, replay.valid_len)?;
                torn = true;
            }
            for payload in &replay.payloads {
                if payload.first() == Some(&TAG_DELTA) {
                    // A delta folds onto the base state accumulated so
                    // far; one with no base (or a stale version) is
                    // skipped, inventing no tuples.
                    let Ok(delta) = decode_delta_payload(payload) else {
                        continue;
                    };
                    if delta.db != name {
                        continue;
                    }
                    let Some((bv, base)) = best.as_ref() else {
                        continue;
                    };
                    if delta.version <= *bv || delta.version <= snapshot_version {
                        continue;
                    }
                    if let Ok(next) = apply_persisted_delta(base, &delta) {
                        best = Some((delta.version, next));
                        log_records += 1;
                    }
                } else if let Ok((n, v, s)) = decode_db_payload(payload) {
                    if n != name || v <= snapshot_version {
                        continue;
                    }
                    log_records += 1;
                    if best.as_ref().is_none_or(|(bv, _)| v > *bv) {
                        best = Some((v, s));
                    }
                }
            }
        }
        self.log_records_replayed
            .fetch_add(log_records as u64, Ordering::Relaxed);
        let Some((version, structure)) = best else {
            return Ok(None);
        };
        self.emit(|| TraceEvent::LogReplayed {
            db: name.to_owned(),
            version,
            records: log_records as u64,
            torn_truncated: torn,
        });
        if log_records >= self.compact_threshold {
            self.write_snapshot(name, version, &structure)?;
            self.compactions.fetch_add(1, Ordering::Relaxed);
            self.emit(|| TraceEvent::LogCompacted {
                db: name.to_owned(),
                version,
                folded: log_records as u64,
            });
            log_records = 0;
        }
        match self.log_lens.lock() {
            Ok(mut lens) => {
                lens.insert(name.to_owned(), log_records);
            }
            Err(poisoned) => {
                poisoned.into_inner().insert(name.to_owned(), log_records);
            }
        }
        Ok(Some(PersistedDb {
            name: name.to_owned(),
            version,
            structure,
        }))
    }

    /// Every database name with a snapshot or log file in the data
    /// directory.
    fn db_names(&self) -> Result<Vec<String>, StorageError> {
        let mut names = Vec::new();
        for entry in fs::read_dir(&self.dir)? {
            let entry = entry?;
            let file = entry.file_name();
            let Some(file) = file.to_str() else { continue };
            let stem = file
                .strip_prefix("db-")
                .and_then(|s| s.strip_suffix(".snap").or_else(|| s.strip_suffix(".log")));
            if let Some(name) = stem.and_then(unhex_name) {
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }
}

impl Storage for DurableStorage {
    fn load(&self) -> Result<Vec<PersistedDb>, StorageError> {
        let mut out = Vec::new();
        for name in self.db_names()? {
            if let Some(db) = self.load_db(&name)? {
                out.push(db);
            }
        }
        Ok(out)
    }

    fn record_put(
        &self,
        name: &str,
        version: u64,
        structure: &Structure,
    ) -> Result<(), StorageError> {
        let record = encode_record(&encode_db_payload(name, version, structure));
        self.append(&self.log_path(name), &record)?;
        let log_len = {
            let mut lens = match self.log_lens.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let len = lens.entry(name.to_owned()).or_insert(0);
            *len += 1;
            *len
        };
        if log_len >= self.compact_threshold {
            self.write_snapshot(name, version, structure)?;
            self.compactions.fetch_add(1, Ordering::Relaxed);
            self.emit(|| TraceEvent::LogCompacted {
                db: name.to_owned(),
                version,
                folded: log_len as u64,
            });
            match self.log_lens.lock() {
                Ok(mut lens) => {
                    lens.insert(name.to_owned(), 0);
                }
                Err(poisoned) => {
                    poisoned.into_inner().insert(name.to_owned(), 0);
                }
            }
        }
        Ok(())
    }

    fn record_delta(&self, delta: &PersistedDelta, post: &Structure) -> Result<(), StorageError> {
        let record = encode_record(&encode_delta_payload(delta));
        self.append(&self.log_path(&delta.db), &record)?;
        let log_len = {
            let mut lens = match self.log_lens.lock() {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
            let len = lens.entry(delta.db.clone()).or_insert(0);
            *len += 1;
            *len
        };
        if log_len >= self.compact_threshold {
            self.write_snapshot(&delta.db, delta.version, post)?;
            self.compactions.fetch_add(1, Ordering::Relaxed);
            self.emit(|| TraceEvent::LogCompacted {
                db: delta.db.clone(),
                version: delta.version,
                folded: log_len as u64,
            });
            match self.log_lens.lock() {
                Ok(mut lens) => {
                    lens.insert(delta.db.clone(), 0);
                }
                Err(poisoned) => {
                    poisoned.into_inner().insert(delta.db.clone(), 0);
                }
            }
        }
        Ok(())
    }

    fn load_cache_entries(&self) -> Result<Vec<PersistedEntry>, StorageError> {
        let path = self.cache_path();
        let Ok(bytes) = fs::read(&path) else {
            return Ok(Vec::new());
        };
        let replay = decode_records(&bytes);
        if replay.torn {
            self.truncate_torn(&path, replay.valid_len)?;
        }
        Ok(replay
            .payloads
            .iter()
            .filter_map(|p| decode_cache_payload(p).ok())
            .collect())
    }

    fn record_cache_entry(&self, entry: &PersistedEntry) -> Result<(), StorageError> {
        let record = encode_record(&encode_cache_payload(entry));
        self.append(&self.cache_path(), &record)
    }

    fn persists(&self) -> bool {
        true
    }

    fn stats(&self) -> StorageStats {
        StorageStats {
            snapshots_written: self.snapshots_written.load(Ordering::Relaxed),
            log_records_replayed: self.log_records_replayed.load(Ordering::Relaxed),
            log_compactions: self.compactions.load(Ordering::Relaxed),
            torn_tails_truncated: self.torn_truncated.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }

    fn attach_tracer(&self, tracer: Tracer) {
        match self.tracer.lock() {
            Ok(mut t) => *t = tracer,
            Err(poisoned) => *poisoned.into_inner() = tracer,
        }
    }
}

/// Renders a structure as canonical sorted facts text (`Pred a b`
/// lines, predicates then rows in lexicographic order) — the
/// byte-identical form the doctor compares recovered databases with.
pub fn structure_to_facts(structure: &Structure) -> String {
    let voc = structure.vocabulary();
    let mut preds: Vec<(String, Vec<String>)> = structure
        .relations()
        .map(|(id, rel)| {
            let name = voc.name(id).to_owned();
            let rows = rel
                .iter()
                .map(|t| {
                    let cells: Vec<String> = t.iter().map(u32::to_string).collect();
                    format!("{name} {}", cells.join(" "))
                })
                .collect();
            (name, rows)
        })
        .collect();
    preds.sort();
    let mut out = String::new();
    for (_, rows) in preds {
        for row in rows {
            out.push_str(&row);
            out.push('\n');
        }
    }
    out
}

/// One finding of [`verify_data_dir`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntegrityIssue {
    /// The file the issue was found in.
    pub file: String,
    /// What is wrong.
    pub problem: String,
}

/// A read-only on-disk integrity check over a data directory: record
/// checksums, payload decodability, and snapshot/log version agreement
/// (log record versions strictly increase and exceed the snapshot's).
/// A cleanly-truncatable torn tail on a *log* is reported as an issue
/// only when `strict` — replay handles it — while a snapshot that
/// decodes to nothing and checksum mismatches always are.
///
/// # Errors
///
/// Only when the directory itself cannot be read.
pub fn verify_data_dir(dir: &Path, strict: bool) -> Result<Vec<IntegrityIssue>, StorageError> {
    let mut issues = Vec::new();
    let mut push = |file: &Path, problem: String| {
        issues.push(IntegrityIssue {
            file: file
                .file_name()
                .map(|f| f.to_string_lossy().into_owned())
                .unwrap_or_default(),
            problem,
        });
    };
    let mut entries: Vec<PathBuf> = fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    let mut snap_versions: HashMap<String, u64> = HashMap::new();
    // Snapshots first so log version agreement can be checked against
    // them.
    for pass in [".snap", ".log"] {
        for path in &entries {
            let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
                continue;
            };
            if !file.ends_with(pass) || !file.starts_with("db-") {
                continue;
            }
            let bytes = match fs::read(path) {
                Ok(b) => b,
                Err(e) => {
                    push(path, format!("unreadable: {e}"));
                    continue;
                }
            };
            let replay = decode_records(&bytes);
            let is_snap = pass == ".snap";
            if replay.torn && (strict || is_snap) {
                push(
                    path,
                    format!(
                        "torn/corrupt tail at byte {} of {}",
                        replay.valid_len,
                        bytes.len()
                    ),
                );
            }
            let name = file
                .strip_prefix("db-")
                .and_then(|s| s.strip_suffix(pass))
                .and_then(unhex_name);
            let Some(name) = name else {
                push(path, "filename is not hex-encoded".into());
                continue;
            };
            let mut last_version = if is_snap {
                0
            } else {
                snap_versions.get(&name).copied().unwrap_or(0)
            };
            if is_snap && replay.payloads.len() > 1 {
                push(path, format!("{} records, want 1", replay.payloads.len()));
            }
            for payload in &replay.payloads {
                if payload.first() == Some(&TAG_DELTA) {
                    match decode_delta_payload(payload) {
                        Ok(d) => {
                            if is_snap {
                                push(path, "delta record in a snapshot".into());
                            } else if d.db != name {
                                push(
                                    path,
                                    format!("delta names \"{}\", file names \"{name}\"", d.db),
                                );
                            } else if d.version <= last_version {
                                push(
                                    path,
                                    format!(
                                        "delta version {} not above predecessor {last_version}",
                                        d.version
                                    ),
                                );
                            } else {
                                last_version = d.version;
                            }
                        }
                        Err(e) => push(path, format!("undecodable delta record: {e}")),
                    }
                    continue;
                }
                match decode_db_payload(payload) {
                    Ok((n, v, _)) => {
                        if n != name {
                            push(path, format!("record names \"{n}\", file names \"{name}\""));
                        }
                        if is_snap {
                            snap_versions.insert(name.clone(), v);
                        } else if v <= last_version {
                            push(
                                path,
                                format!("version {v} not above predecessor {last_version}"),
                            );
                        } else {
                            last_version = v;
                        }
                    }
                    Err(e) => push(path, format!("undecodable record: {e}")),
                }
            }
        }
    }
    let cache = dir.join("cache.log");
    if let Ok(bytes) = fs::read(&cache) {
        let replay = decode_records(&bytes);
        if replay.torn && strict {
            push(
                &cache,
                format!(
                    "torn/corrupt tail at byte {} of {}",
                    replay.valid_len,
                    bytes.len()
                ),
            );
        }
        for payload in &replay.payloads {
            if let Err(e) = decode_cache_payload(payload) {
                push(&cache, format!("undecodable cache record: {e}"));
            }
        }
    }
    Ok(issues)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::parse_facts;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "cspdb-storage-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn db_payload_round_trips() {
        let s = parse_facts("E 0 1\nE 1 2\nP 2\n").unwrap();
        let payload = encode_db_payload("graph", 7, &s);
        let (name, version, back) = decode_db_payload(&payload).unwrap();
        assert_eq!((name.as_str(), version), ("graph", 7));
        assert_eq!(structure_to_facts(&back), structure_to_facts(&s));
        assert_eq!(back.domain_size(), s.domain_size());
    }

    /// A database payload holding the given `(name, arity, values)`
    /// relation records, written field by field.
    fn raw_db_payload(domain: u64, rels: &[(&str, u32, &[u32])]) -> Vec<u8> {
        let mut out = vec![TAG_DB];
        out.extend_from_slice(&1u64.to_le_bytes());
        put_str(&mut out, "g");
        out.extend_from_slice(&domain.to_le_bytes());
        out.extend_from_slice(&(rels.len() as u32).to_le_bytes());
        for &(name, arity, values) in rels {
            put_str(&mut out, name);
            out.extend_from_slice(&arity.to_le_bytes());
            out.extend_from_slice(&((values.len() as u32 / arity.max(1)) as u64).to_le_bytes());
            for v in values {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    #[test]
    fn db_payload_decodes_unsorted_rows_and_rejects_bad_records() {
        let (_, _, s) = decode_db_payload(&raw_db_payload(4, &[("E", 2, &[3, 0, 1, 2, 3, 0])]))
            .expect("unsorted rows with a repeat decode");
        assert_eq!(structure_to_facts(&s), "E 1 2\nE 3 0\n");
        let corrupt = |payload: Vec<u8>| {
            assert!(matches!(
                decode_db_payload(&payload),
                Err(StorageError::Corrupt(_))
            ))
        };
        // The same relation twice is rejected, not merged.
        corrupt(raw_db_payload(4, &[("E", 2, &[0, 1]), ("E", 2, &[1, 2])]));
        corrupt(raw_db_payload(4, &[("E", 2, &[0, 1]), ("E", 1, &[1])]));
        // A value outside the domain.
        corrupt(raw_db_payload(2, &[("E", 2, &[0, 2])]));
        // More rows claimed than bytes present.
        let mut short = raw_db_payload(4, &[("E", 2, &[0, 1])]);
        short.truncate(short.len() - 4);
        corrupt(short);
    }

    #[test]
    fn record_stream_survives_torn_and_corrupt_tails() {
        let a = encode_record(b"alpha");
        let b = encode_record(b"beta");
        let mut stream = a.clone();
        stream.extend_from_slice(&b);
        let replay = decode_records(&stream);
        assert!(!replay.torn);
        assert_eq!(replay.payloads, vec![b"alpha".to_vec(), b"beta".to_vec()]);
        // Torn: cut the second record anywhere (a cut exactly at the
        // boundary is just a clean shorter stream) — first still
        // commits.
        for cut in a.len() + 1..stream.len() {
            let replay = decode_records(&stream[..cut]);
            assert!(replay.torn, "cut at {cut}");
            assert_eq!(replay.payloads, vec![b"alpha".to_vec()]);
            assert_eq!(replay.valid_len, a.len());
        }
        // Corrupt: flip a payload byte of the second record.
        let mut corrupt = stream.clone();
        let last = corrupt.len() - 1;
        corrupt[last] ^= 0xff;
        let replay = decode_records(&corrupt);
        assert!(replay.torn);
        assert_eq!(replay.payloads.len(), 1);
    }

    #[test]
    fn durable_storage_replays_puts_and_truncates_torn_appends() {
        let dir = tmp_dir("replay");
        let v1 = parse_facts("E 0 1\n").unwrap();
        let v2 = parse_facts("E 0 1\nE 1 2\n").unwrap();
        {
            let store = DurableStorage::open(&dir).unwrap();
            store.record_put("g", 1, &v1).unwrap();
            store.record_put("g", 2, &v2).unwrap();
            // Simulate a kill mid-append: half of a record reaches disk.
            let torn = encode_record(&encode_db_payload("g", 3, &v1));
            let mut f = OpenOptions::new()
                .append(true)
                .open(store.log_path("g"))
                .unwrap();
            f.write_all(&torn[..torn.len() / 2]).unwrap();
        }
        let store = DurableStorage::open(&dir).unwrap();
        let dbs = store.load().unwrap();
        assert_eq!(dbs.len(), 1);
        assert_eq!(dbs[0].version, 2, "torn version-3 record must not count");
        assert_eq!(
            structure_to_facts(&dbs[0].structure),
            structure_to_facts(&v2)
        );
        assert_eq!(store.stats().torn_tails_truncated, 1);
        assert_eq!(store.stats().log_records_replayed, 2);
        // After truncation the directory verifies clean even strictly.
        assert_eq!(verify_data_dir(&dir, true).unwrap(), Vec::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_folds_the_log_into_a_snapshot() {
        let dir = tmp_dir("compact");
        let store = DurableStorage::open(&dir)
            .unwrap()
            .with_compact_threshold(4);
        let mut last = None;
        for v in 1..=9u64 {
            let s = parse_facts(&format!("E 0 {v}\n")).unwrap();
            store.record_put("g", v, &s).unwrap();
            last = Some(s);
        }
        let stats = store.stats();
        assert!(stats.snapshots_written >= 2, "{stats:?}");
        assert!(stats.log_compactions >= 2, "{stats:?}");
        // A fresh open recovers the latest version from snapshot + log.
        let store2 = DurableStorage::open(&dir).unwrap();
        let dbs = store2.load().unwrap();
        assert_eq!(dbs[0].version, 9);
        assert_eq!(
            structure_to_facts(&dbs[0].structure),
            structure_to_facts(&last.unwrap())
        );
        assert_eq!(verify_data_dir(&dir, true).unwrap(), Vec::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_payload_round_trips() {
        for delta in [
            PersistedDelta {
                db: "g".into(),
                version: 4,
                rel: "E".into(),
                insert: true,
                tuple: vec![0, 7],
            },
            PersistedDelta {
                db: "db with spaces".into(),
                version: u64::MAX,
                rel: "P".into(),
                insert: false,
                tuple: vec![3],
            },
            PersistedDelta {
                db: String::new(),
                version: 0,
                rel: "N".into(),
                insert: true,
                tuple: Vec::new(),
            },
        ] {
            let payload = encode_delta_payload(&delta);
            assert_eq!(decode_delta_payload(&payload).unwrap(), delta);
        }
    }

    #[test]
    fn durable_storage_replays_deltas_onto_the_base_state() {
        let dir = tmp_dir("deltas");
        let base = parse_facts("E 0 1\nE 1 2\n").unwrap();
        {
            let store = DurableStorage::open(&dir).unwrap();
            store.record_put("g", 1, &base).unwrap();
            let d2 = PersistedDelta {
                db: "g".into(),
                version: 2,
                rel: "E".into(),
                insert: true,
                tuple: vec![2, 3],
            };
            let after2 = apply_persisted_delta(&base, &d2).unwrap();
            store.record_delta(&d2, &after2).unwrap();
            let d3 = PersistedDelta {
                db: "g".into(),
                version: 3,
                rel: "E".into(),
                insert: false,
                tuple: vec![0, 1],
            };
            let after3 = apply_persisted_delta(&after2, &d3).unwrap();
            store.record_delta(&d3, &after3).unwrap();
        }
        let store = DurableStorage::open(&dir).unwrap();
        let dbs = store.load().unwrap();
        assert_eq!(dbs.len(), 1);
        assert_eq!(dbs[0].version, 3);
        let expect = parse_facts("E 1 2\nE 2 3\n").unwrap();
        assert_eq!(
            structure_to_facts(&dbs[0].structure),
            structure_to_facts(&expect)
        );
        assert_eq!(verify_data_dir(&dir, true).unwrap(), Vec::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_delta_tail_recovers_committed_prefix() {
        let dir = tmp_dir("deltatorn");
        let base = parse_facts("E 0 1\n").unwrap();
        {
            let store = DurableStorage::open(&dir).unwrap();
            store.record_put("g", 1, &base).unwrap();
            let d2 = PersistedDelta {
                db: "g".into(),
                version: 2,
                rel: "E".into(),
                insert: true,
                tuple: vec![1, 2],
            };
            let after2 = apply_persisted_delta(&base, &d2).unwrap();
            store.record_delta(&d2, &after2).unwrap();
            // Kill mid-append: half a version-3 delta record.
            let torn = encode_record(&encode_delta_payload(&PersistedDelta {
                db: "g".into(),
                version: 3,
                rel: "E".into(),
                insert: false,
                tuple: vec![0, 1],
            }));
            let mut f = OpenOptions::new()
                .append(true)
                .open(store.log_path("g"))
                .unwrap();
            f.write_all(&torn[..torn.len() - 3]).unwrap();
        }
        let store = DurableStorage::open(&dir).unwrap();
        let dbs = store.load().unwrap();
        assert_eq!(dbs[0].version, 2, "torn version-3 delta must not count");
        let expect = parse_facts("E 0 1\nE 1 2\n").unwrap();
        assert_eq!(
            structure_to_facts(&dbs[0].structure),
            structure_to_facts(&expect)
        );
        assert_eq!(store.stats().torn_tails_truncated, 1);
        assert_eq!(verify_data_dir(&dir, true).unwrap(), Vec::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn delta_records_count_toward_compaction() {
        let dir = tmp_dir("deltacompact");
        let store = DurableStorage::open(&dir)
            .unwrap()
            .with_compact_threshold(3);
        let mut state = parse_facts("E 0 1\n").unwrap();
        store.record_put("g", 1, &state).unwrap();
        for v in 2..=7u64 {
            let delta = PersistedDelta {
                db: "g".into(),
                version: v,
                rel: "E".into(),
                insert: true,
                tuple: vec![0, v as u32],
            };
            state = apply_persisted_delta(&state, &delta).unwrap();
            store.record_delta(&delta, &state).unwrap();
        }
        assert!(store.stats().log_compactions >= 1);
        let store2 = DurableStorage::open(&dir).unwrap();
        let dbs = store2.load().unwrap();
        assert_eq!(dbs[0].version, 7);
        assert_eq!(
            structure_to_facts(&dbs[0].structure),
            structure_to_facts(&state)
        );
        assert_eq!(verify_data_dir(&dir, true).unwrap(), Vec::new());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_entries_round_trip_through_the_index() {
        let dir = tmp_dir("cache");
        let entry = PersistedEntry {
            db: "g".into(),
            version: 3,
            query: "Q(X,Y) :- E(X,Z), E(Z,Y)".into(),
            arity: 2,
            rows: vec![vec![0, 2], vec![1, 3]],
        };
        {
            let store = DurableStorage::open(&dir).unwrap();
            store.record_cache_entry(&entry).unwrap();
        }
        let store = DurableStorage::open(&dir).unwrap();
        assert_eq!(store.load_cache_entries().unwrap(), vec![entry]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshot_recovers_from_the_log() {
        let dir = tmp_dir("snapcorrupt");
        let v5 = parse_facts("E 0 1\nE 3 4\n").unwrap();
        let snap_path;
        {
            let store = DurableStorage::open(&dir)
                .unwrap()
                .with_compact_threshold(2);
            for v in 1..=4u64 {
                let s = parse_facts(&format!("E 0 {v}\n")).unwrap();
                store.record_put("g", v, &s).unwrap();
            }
            store.record_put("g", 5, &v5).unwrap();
            snap_path = store.snap_path("g");
        }
        // Corrupt the snapshot: flip a byte inside its payload.
        let mut bytes = fs::read(&snap_path).unwrap();
        let mid = bytes.len() - 1;
        bytes[mid] ^= 0x01;
        fs::write(&snap_path, &bytes).unwrap();
        let store = DurableStorage::open(&dir).unwrap();
        let dbs = store.load().unwrap();
        // The log still holds version 5 (written after the last
        // compaction at version 4), so the latest state survives.
        assert_eq!(dbs[0].version, 5);
        assert_eq!(
            structure_to_facts(&dbs[0].structure),
            structure_to_facts(&v5)
        );
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn hex_names_round_trip() {
        for name in ["g", "graph/1", "../sneaky", "db with spaces", "ü"] {
            assert_eq!(unhex_name(&hex_name(name)).as_deref(), Some(name));
            assert!(!hex_name(name).contains('/'));
        }
        assert_eq!(unhex_name("zz"), None);
        assert_eq!(unhex_name("abc"), None);
    }
}
