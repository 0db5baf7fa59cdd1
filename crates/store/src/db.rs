//! The database: named collections in one map under one lock, durably
//! persisted through a checksummed write-ahead log plus JSONL snapshots.
//!
//! ## Concurrency
//!
//! Every collection lives in one `RwLock<HashMap<String, Collection>>`:
//! reads share it, a write holds it exclusively for one in-memory
//! mutation. Each [`Collection`] owns its id allocator and its indexes,
//! so there is no other collection-level state to keep in step.
//!
//! ## Durability
//!
//! Mutations apply to memory first (under the collections write lock),
//! then are logged to the WAL ([`crate::wal`]) — individually, or as
//! one record per [`Database::batch`] scope. [`Database::save`] doubles as
//! *compaction*: it writes one `<collection>.jsonl` snapshot per
//! collection (temp file + `sync_all` + rename + directory `fsync`) and
//! then truncates the log; the log also auto-compacts once it crosses
//! [`StoreOptions::compact_threshold`]. [`Database::open`] recovers
//! deterministically: remove orphan temp files, load snapshots
//! (quarantining corrupt files as `<name>.jsonl.corrupt` instead of
//! failing the open), then replay the WAL — truncating a torn tail —
//! and report it all in a [`RecoveryReport`].
//!
//! A database directory supports one writer at a time; concurrent
//! writers through separate `Database` handles would interleave
//! appends on independent file cursors and corrupt the log.

use std::collections::HashMap;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use sintel_common::json::{from_json, to_json, Doc};

use crate::collection::Collection;
use crate::query::Filter;
use crate::wal::{crash_point, encode_batch, fsync_dir, Wal, WalOp};
use crate::{Result, StoreError};

/// Log target for store observability events.
const TARGET: &str = "sintel::store";

fn io_err(e: impl std::fmt::Display) -> StoreError {
    StoreError::Io(e.to_string())
}

/// How eagerly committed writes reach the disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Durability {
    /// No write-ahead log: data persists only on explicit
    /// [`Database::save`] (the pre-WAL behaviour, with the snapshot
    /// writer's fsync bugs fixed). A crash loses everything since the
    /// last save.
    Snapshot,
    /// Every mutation is appended to the WAL but `fsync` is left to the
    /// OS page cache: a process crash loses nothing, a power failure
    /// may lose the cache tail.
    Wal,
    /// Every WAL append is `sync_data`'d before the mutation returns:
    /// committed means durable. The default.
    WalSync,
}

impl Durability {
    /// Parse a CLI-flavoured label (`snapshot` | `wal` | `wal-sync`).
    pub fn parse(s: &str) -> Option<Durability> {
        match s {
            "snapshot" => Some(Durability::Snapshot),
            "wal" => Some(Durability::Wal),
            "wal-sync" => Some(Durability::WalSync),
            _ => None,
        }
    }

    /// The label [`Durability::parse`] accepts.
    pub fn label(self) -> &'static str {
        match self {
            Durability::Snapshot => "snapshot",
            Durability::Wal => "wal",
            Durability::WalSync => "wal-sync",
        }
    }
}

/// Tunables for [`Database::open_with`].
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Write durability level.
    pub durability: Durability,
    /// WAL size (bytes) beyond which a commit triggers auto-compaction
    /// into fresh snapshots. `u64::MAX` disables auto-compaction.
    pub compact_threshold: u64,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self { durability: Durability::WalSync, compact_threshold: 4 * 1024 * 1024 }
    }
}

/// What [`Database::open`] found and repaired on the way up.
#[derive(Debug, Clone, Default)]
pub struct RecoveryReport {
    /// Snapshot files that failed to load and were quarantined with a
    /// `.corrupt` suffix ([`StoreError::Corrupt`] each).
    pub corrupt: Vec<StoreError>,
    /// Orphan `.tmp` files (compaction crash debris) that were removed.
    pub orphans_removed: Vec<String>,
    /// Committed WAL batches replayed over the snapshots.
    pub wal_replayed_batches: usize,
    /// Individual operations inside those batches.
    pub wal_replayed_ops: usize,
    /// Byte offset the WAL was truncated at when a torn tail was found.
    pub wal_truncated_at: Option<u64>,
}

impl RecoveryReport {
    /// True when recovery found nothing to repair.
    pub fn is_clean(&self) -> bool {
        self.corrupt.is_empty()
            && self.orphans_removed.is_empty()
            && self.wal_truncated_at.is_none()
    }
}

/// Writes buffered during an open [`BatchScope`], committed as one WAL
/// record. `depth` counts nested scopes.
struct PendingBatch {
    depth: usize,
    ops: Vec<WalOp>,
}

/// An embedded multi-collection document database.
///
/// Thread-safe: the collections sit in one map behind one `RwLock`, so
/// readers run together and each write is serialised. When opened with
/// a directory path, every mutation is logged to a checksummed
/// write-ahead log and [`Database::save`] compacts the log into one
/// `<collection>.jsonl` snapshot per collection; [`Database::open`]
/// replays log over snapshots, repairing crash debris (see
/// [`RecoveryReport`]).
///
/// ```
/// use sintel_store::{Database, Doc, Filter};
///
/// let db = Database::in_memory();
/// db.insert("events", Doc::obj().with("signal", "S-1").with("severity", 0.9))?;
/// let hits = db.find("events", &Filter::eq("signal", "S-1"));
/// assert_eq!(hits.len(), 1);
/// # Ok::<(), sintel_store::StoreError>(())
/// ```
pub struct Database {
    /// Collection name -> collection (its documents, indexes and id
    /// allocator).
    collections: RwLock<HashMap<String, Collection>>,
    /// The write-ahead log; `None` for in-memory and snapshot-only DBs.
    wal: Mutex<Option<Wal>>,
    /// Open batch scope, if any.
    pending: Mutex<Option<PendingBatch>>,
    path: Option<PathBuf>,
    opts: StoreOptions,
    recovery: RecoveryReport,
}

impl Database {
    // ---- lock helpers (poisoned locks are recovered, not propagated:
    // collection state is valid after any completed mutation) ----------

    fn read(&self) -> RwLockReadGuard<'_, HashMap<String, Collection>> {
        self.collections.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write(&self) -> RwLockWriteGuard<'_, HashMap<String, Collection>> {
        self.collections.write().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_wal(&self) -> MutexGuard<'_, Option<Wal>> {
        self.wal.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_pending(&self) -> MutexGuard<'_, Option<PendingBatch>> {
        self.pending.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn empty(path: Option<PathBuf>, opts: StoreOptions) -> Self {
        Self {
            collections: RwLock::new(HashMap::new()),
            wal: Mutex::new(None),
            pending: Mutex::new(None),
            path,
            opts,
            recovery: RecoveryReport::default(),
        }
    }

    /// Volatile in-memory database.
    pub fn in_memory() -> Self {
        Self::empty(None, StoreOptions::default())
    }

    /// Open (creating if needed) a database persisted under `dir`, with
    /// default options ([`Durability::WalSync`]).
    pub fn open(dir: &Path) -> Result<Self> {
        Self::open_with(dir, StoreOptions::default())
    }

    /// Open (creating if needed) a database persisted under `dir`.
    ///
    /// Recovery sequence, in order: remove orphan compaction temp
    /// files; load every `<name>.jsonl` snapshot (a file with a corrupt
    /// line is renamed to `<name>.jsonl.corrupt` and reported rather
    /// than failing the open); replay the write-ahead log over the
    /// snapshots, truncating a torn tail. The outcome is readable via
    /// [`Database::recovery`] — this never panics on crash debris.
    pub fn open_with(dir: &Path, opts: StoreOptions) -> Result<Self> {
        std::fs::create_dir_all(dir).map_err(io_err)?;
        let mut db = Self::empty(Some(dir.to_path_buf()), opts);
        let mut report = RecoveryReport::default();

        // 1. Orphan temp files: debris of a crash mid-compaction. The
        // WAL still holds whatever the interrupted compaction was
        // flushing, so the orphans are pure garbage.
        let mut snapshots = Vec::new();
        for entry in std::fs::read_dir(dir).map_err(io_err)? {
            let path = entry.map_err(io_err)?.path();
            if !path.is_file() {
                continue;
            }
            let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("").to_string();
            if name.ends_with(".tmp") {
                std::fs::remove_file(&path).map_err(io_err)?;
                sintel_obs::warn!(
                    TARGET,
                    "removed orphan temp file left by an interrupted compaction",
                    file = name.as_str(),
                );
                sintel_obs::counter_add("sintel_store_orphans_removed_total", 1);
                report.orphans_removed.push(name);
            } else if path.extension().and_then(|e| e.to_str()) == Some("jsonl") {
                snapshots.push(path);
            }
        }
        snapshots.sort();

        // 2. Snapshots. A corrupt file is quarantined whole: half a
        // collection silently loaded would be worse than none, and the
        // bytes stay on disk (renamed) for manual inspection.
        for path in snapshots {
            let name = path
                .file_stem()
                .and_then(|s| s.to_str())
                .ok_or_else(|| StoreError::Io(format!("bad file name {path:?}")))?
                .to_string();
            match load_snapshot(&path) {
                Ok(docs) => {
                    // Even an empty snapshot names a collection that
                    // must exist (and persist) after reopen.
                    let mut col = Collection::new();
                    for (id, doc) in docs {
                        col.put(id, doc);
                    }
                    db.write().insert(name, col);
                }
                Err(err) => {
                    let quarantine = path.with_extension("jsonl.corrupt");
                    std::fs::rename(&path, &quarantine).map_err(io_err)?;
                    sintel_obs::warn!(
                        TARGET,
                        format!("quarantined corrupt snapshot: {err}"),
                        collection = name.as_str(),
                    );
                    sintel_obs::counter_add("sintel_store_corrupt_collections_total", 1);
                    report.corrupt.push(err);
                }
            }
        }

        // 3. The log: replay every committed batch, truncate torn tails.
        let t0 = Instant::now();
        let sync = db.opts.durability == Durability::WalSync;
        let (mut wal, replay) = Wal::open(dir, sync)?;
        report.wal_replayed_batches = replay.batches.len();
        report.wal_truncated_at = replay.truncated_at;
        for batch in replay.batches {
            for op in batch {
                report.wal_replayed_ops += 1;
                db.apply_replayed(op);
            }
        }
        if let Some(offset) = replay.truncated_at {
            sintel_obs::warn!(
                TARGET,
                "truncated torn tail of write-ahead log",
                offset = offset,
            );
            sintel_obs::counter_add("sintel_store_wal_truncations_total", 1);
        }
        sintel_obs::counter_add(
            "sintel_store_wal_replayed_batches_total",
            report.wal_replayed_batches as u64,
        );
        sintel_obs::observe_duration("sintel_store_wal_replay_seconds", t0.elapsed());

        if db.opts.durability == Durability::Snapshot {
            // Snapshot-only mode keeps no log. Fold anything a previous
            // WAL-mode run left in it into fresh snapshots *now*, then
            // truncate — a stale log must never resurrect over
            // snapshots written later by this mode's explicit saves.
            if report.wal_replayed_batches > 0 || report.wal_truncated_at.is_some() {
                db.snapshot_all(dir)?;
            }
            if wal.size() > 0 {
                wal.reset()?;
            }
        } else {
            *db.lock_wal() = Some(wal);
        }
        db.recovery = report;
        Ok(db)
    }

    /// What recovery found when this database was opened (empty report
    /// for in-memory databases).
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// The durability level this database runs at.
    pub fn durability(&self) -> Durability {
        self.opts.durability
    }

    /// Current size of the write-ahead log in bytes (0 without a WAL).
    pub fn wal_size(&self) -> u64 {
        self.lock_wal().as_ref().map(Wal::size).unwrap_or(0)
    }

    // ---- persistence -------------------------------------------------

    /// Persist every collection and truncate the write-ahead log (a
    /// no-op for in-memory databases). This is also *compaction*: the
    /// log's contents are folded into `<collection>.jsonl` snapshots
    /// (temp file, `sync_all`, rename, directory `fsync` — the full
    /// crash-safe sequence), after which the log restarts empty.
    pub fn save(&self) -> Result<()> {
        let Some(dir) = self.path.clone() else { return Ok(()) };
        let t0 = Instant::now();
        let mut wal_guard = self.lock_wal();
        self.snapshot_all(&dir)?;
        if let Some(wal) = wal_guard.as_mut() {
            wal.reset()?;
        }
        drop(wal_guard);
        sintel_obs::counter_add("sintel_store_compactions_total", 1);
        sintel_obs::observe_duration("sintel_store_compaction_seconds", t0.elapsed());
        Ok(())
    }

    /// Write one JSONL snapshot per collection under `dir`, from a
    /// consistent view (the collections read lock held). The caller
    /// decides what happens to the WAL.
    fn snapshot_all(&self, dir: &Path) -> Result<()> {
        let collections = self.read();
        // Every collection that ever existed gets a file — including
        // ones that are currently empty or only had an index declared —
        // so a reopened database sees the same collection set.
        let mut sorted: Vec<(&String, &Collection)> = collections.iter().collect();
        sorted.sort_by_key(|(name, _)| *name);
        for (name, col) in sorted {
            let final_path = dir.join(format!("{name}.jsonl"));
            let tmp_path = dir.join(format!(".{name}.jsonl.tmp"));
            {
                let file = File::create(&tmp_path).map_err(io_err)?;
                let mut out = BufWriter::new(file);
                for (_, doc) in col.iter() {
                    writeln!(out, "{}", to_json(doc)).map_err(io_err)?;
                }
                out.flush().map_err(io_err)?;
                // A rename is only atomic *and durable* if the new
                // bytes are on disk first.
                out.get_ref().sync_all().map_err(io_err)?;
            }
            crash_point!(MidCompaction, Err);
            std::fs::rename(&tmp_path, &final_path).map_err(io_err)?;
        }
        // ...and the renames themselves live in the directory entry.
        fsync_dir(dir)
    }

    // ---- write path --------------------------------------------------

    fn apply_replayed(&self, op: WalOp) {
        let mut collections = self.write();
        match op {
            WalOp::Put { collection, id, doc } => {
                collections.entry(collection).or_default().put(id, doc);
            }
            WalOp::Delete { collection, id } => {
                if let Some(col) = collections.get_mut(&collection) {
                    // Deleting a doc the snapshot already lacks is fine:
                    // the snapshot was written after this op committed.
                    let _ = col.delete(id);
                }
            }
        }
    }

    /// Route one committed operation to the WAL — directly, or into the
    /// open batch scope.
    fn log_op(&self, op: WalOp) -> Result<()> {
        {
            let mut pending = self.lock_pending();
            if let Some(batch) = pending.as_mut() {
                batch.ops.push(op);
                return Ok(());
            }
        }
        self.commit_ops(vec![op])
    }

    /// Append a batch of operations as one WAL record.
    fn commit_ops(&self, ops: Vec<WalOp>) -> Result<()> {
        if ops.is_empty() {
            return Ok(());
        }
        let mut wal_guard = self.lock_wal();
        let Some(wal) = wal_guard.as_mut() else { return Ok(()) };
        let payload = encode_batch(&ops);
        let t0 = Instant::now();
        match wal.append(&payload) {
            Ok(()) => {
                sintel_obs::counter_add("sintel_store_wal_appends_total", 1);
                sintel_obs::counter_add(
                    "sintel_store_wal_appended_bytes_total",
                    payload.len() as u64 + 8,
                );
                if wal.synced() {
                    sintel_obs::counter_add("sintel_store_wal_fsyncs_total", 1);
                }
                sintel_obs::observe_duration("sintel_store_wal_append_seconds", t0.elapsed());
                let compact = wal.size() >= self.opts.compact_threshold;
                drop(wal_guard);
                if compact {
                    // Auto-compaction failing is not a commit failure:
                    // the data is durable in the log; only the fold
                    // into snapshots is deferred.
                    if let Err(e) = self.save() {
                        sintel_obs::warn!(
                            TARGET,
                            format!("auto-compaction failed, will retry on next commit: {e}"),
                        );
                    }
                }
                Ok(())
            }
            Err(e) => {
                sintel_obs::counter_add("sintel_store_wal_append_errors_total", 1);
                Err(e)
            }
        }
    }

    /// Open a batch scope: every mutation until the scope commits (or
    /// drops) is buffered and appended as **one** WAL record — one
    /// fsync per batch instead of per write. Scopes nest (inner scopes
    /// just deepen the outer one), and while one is open, writes from
    /// *all* threads join the buffer, so batches are for serial
    /// sections (the benchmark fold) or single-writer phases.
    pub fn batch(&self) -> BatchScope<'_> {
        let mut pending = self.lock_pending();
        match pending.as_mut() {
            Some(batch) => batch.depth += 1,
            None => *pending = Some(PendingBatch { depth: 1, ops: Vec::new() }),
        }
        BatchScope { db: self, committed: false }
    }

    fn batch_end(&self) -> Result<()> {
        let ops = {
            let mut pending = self.lock_pending();
            match pending.as_mut() {
                Some(batch) if batch.depth > 1 => {
                    batch.depth -= 1;
                    return Ok(());
                }
                Some(_) => pending.take().map(|b| b.ops).unwrap_or_default(),
                None => return Ok(()),
            }
        };
        self.commit_ops(ops)
    }

    // ---- public mutations --------------------------------------------
    //
    // Each write applies to memory, then logs to the WAL or the open
    // batch scope. A failed append returns `Err` with the write still
    // applied in memory.

    /// Insert into a collection (created on first use); returns the new id.
    pub fn insert(&self, collection: &str, mut doc: Doc) -> Result<u64> {
        let id = {
            let mut collections = self.write();
            let col = collections.entry(collection.to_string()).or_default();
            let id = col.next_id();
            doc.set("_id", id);
            col.put(id, doc.clone());
            id
        };
        self.log_op(WalOp::Put { collection: collection.to_string(), id, doc })?;
        Ok(id)
    }

    /// Replace a document (`NotFound` when `id` is absent).
    pub fn update(&self, collection: &str, id: u64, mut doc: Doc) -> Result<()> {
        doc.set("_id", id);
        {
            let mut collections = self.write();
            let col = collections
                .get_mut(collection)
                .filter(|col| col.get(id).is_some())
                .ok_or(StoreError::NotFound(id))?;
            col.put(id, doc.clone());
        }
        self.log_op(WalOp::Put { collection: collection.to_string(), id, doc })
    }

    /// Merge fields into a document. The WAL records the merged
    /// *post-image*, so replay needs no patch semantics.
    pub fn patch(&self, collection: &str, id: u64, fields: &[(&str, Doc)]) -> Result<()> {
        let post = {
            let mut collections = self.write();
            let col = collections.get_mut(collection).ok_or(StoreError::NotFound(id))?;
            col.patch(id, fields)?;
            col.get(id).cloned().ok_or(StoreError::NotFound(id))?
        };
        self.log_op(WalOp::Put { collection: collection.to_string(), id, doc: post })
    }

    /// Delete a document.
    pub fn delete(&self, collection: &str, id: u64) -> Result<()> {
        self.write().get_mut(collection).ok_or(StoreError::NotFound(id))?.delete(id)?;
        self.log_op(WalOp::Delete { collection: collection.to_string(), id })
    }

    /// Create a secondary index on a collection field, creating the
    /// collection if it is absent: an index-only collection is listed
    /// by [`Database::collection_names`] and persisted by a save.
    pub fn create_index(&self, collection: &str, field: &str) {
        self.write().entry(collection.to_string()).or_default().create_index(field);
    }

    // ---- reads -------------------------------------------------------

    /// Fetch one document by id (cloned out of the lock).
    pub fn get(&self, collection: &str, id: u64) -> Option<Doc> {
        self.read().get(collection)?.get(id).cloned()
    }

    /// Find matching documents (cloned), in `_id` order.
    pub fn find(&self, collection: &str, filter: &Filter) -> Vec<Doc> {
        self.read()
            .get(collection)
            .map(|col| col.find(filter).into_iter().cloned().collect())
            .unwrap_or_default()
    }

    /// First match in `_id` order (cloned).
    pub fn find_one(&self, collection: &str, filter: &Filter) -> Option<Doc> {
        self.read().get(collection).and_then(|col| col.find_one(filter).cloned())
    }

    /// Count matches.
    pub fn count(&self, collection: &str, filter: &Filter) -> usize {
        self.read().get(collection).map_or(0, |col| col.count(filter))
    }

    /// Names of known collections (sorted), including empty ones and
    /// ones with only an index declared.
    pub fn collection_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.read().keys().cloned().collect();
        names.sort();
        names
    }
}

/// RAII handle for a group-commit scope opened by [`Database::batch`].
///
/// [`BatchScope::commit`] appends the buffered writes as one WAL record
/// and surfaces any append failure; dropping the scope commits too, but
/// can only log a failure.
#[must_use = "dropping a BatchScope commits it with errors only logged; call commit() to observe them"]
pub struct BatchScope<'a> {
    db: &'a Database,
    committed: bool,
}

impl BatchScope<'_> {
    /// Close the scope, appending its writes as one WAL record.
    pub fn commit(mut self) -> Result<()> {
        self.committed = true;
        self.db.batch_end()
    }
}

impl Drop for BatchScope<'_> {
    fn drop(&mut self) {
        if !self.committed {
            if let Err(e) = self.db.batch_end() {
                sintel_obs::warn!(
                    TARGET,
                    format!("batch scope dropped without commit and the append failed: {e}"),
                );
            }
        }
    }
}

/// Load one snapshot file into `(id, doc)` pairs; any malformed line
/// fails the whole file with a structured [`StoreError::Corrupt`].
fn load_snapshot(path: &Path) -> Result<Vec<(u64, Doc)>> {
    let collection = path
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or("<unknown>")
        .to_string();
    let corrupt = |line: usize, cause: String| StoreError::Corrupt {
        collection: collection.clone(),
        line,
        cause,
    };
    let file = File::open(path).map_err(io_err)?;
    let mut docs = Vec::new();
    for (lineno, line) in BufReader::new(file).lines().enumerate() {
        let line = line.map_err(|e| corrupt(lineno + 1, e.to_string()))?;
        if line.trim().is_empty() {
            continue;
        }
        let doc = from_json(&line).map_err(|e| corrupt(lineno + 1, e.to_string()))?;
        let id = doc
            .get("_id")
            .and_then(Doc::as_i64)
            .filter(|id| *id >= 0)
            .ok_or_else(|| corrupt(lineno + 1, "persisted doc lacks _id".to_string()))?;
        docs.push((id as u64, doc));
    }
    Ok(docs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "sintel-db-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn in_memory_crud() {
        let db = Database::in_memory();
        let id = db.insert("events", Doc::obj().with("signal", "S-1")).unwrap();
        assert_eq!(db.get("events", id).unwrap().get("signal").unwrap().as_str(), Some("S-1"));
        db.patch("events", id, &[("status", Doc::from("confirmed"))]).unwrap();
        assert_eq!(db.count("events", &Filter::eq("status", "confirmed")), 1);
        db.delete("events", id).unwrap();
        assert_eq!(db.count("events", &Filter::All), 0);
        assert!(db.get("events", id).is_none());
        assert!(db.find_one("missing", &Filter::All).is_none());
    }

    #[test]
    fn save_and_reopen_roundtrip() {
        let dir = tmpdir("roundtrip");
        {
            let db = Database::open(&dir).unwrap();
            db.insert("signals", Doc::obj().with("name", "S-1").with("len", 100i64)).unwrap();
            db.insert("signals", Doc::obj().with("name", "S-2").with("len", 200i64)).unwrap();
            db.insert("events", Doc::obj().with("signal", "S-1").with("score", 0.9)).unwrap();
            db.save().unwrap();
        }
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.count("signals", &Filter::All), 2);
        assert_eq!(db.count("events", &Filter::All), 1);
        let s2 = db.find_one("signals", &Filter::eq("name", "S-2")).unwrap();
        assert_eq!(s2.get("len").unwrap().as_i64(), Some(200));
        // Ids continue monotonically after reload.
        let id = db.insert("signals", Doc::obj().with("name", "S-3")).unwrap();
        assert_eq!(id, 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unsaved_writes_survive_reopen_through_wal() {
        let dir = tmpdir("wal-survives");
        {
            let db = Database::open(&dir).unwrap();
            db.insert("events", Doc::obj().with("signal", "S-1")).unwrap();
            db.insert("events", Doc::obj().with("signal", "S-2")).unwrap();
            // No save(): the WAL alone must carry these.
        }
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.count("events", &Filter::All), 2);
        assert_eq!(db.recovery().wal_replayed_batches, 2);
        assert_eq!(db.recovery().wal_replayed_ops, 2);
        // Replay continues id allocation correctly.
        assert_eq!(db.insert("events", Doc::obj().with("signal", "S-3")).unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn updates_deletes_replay_over_snapshot() {
        let dir = tmpdir("replay-mix");
        {
            let db = Database::open(&dir).unwrap();
            let a = db.insert("events", Doc::obj().with("signal", "S-1")).unwrap();
            let b = db.insert("events", Doc::obj().with("signal", "S-2")).unwrap();
            db.save().unwrap(); // snapshot holds both, log now empty
            db.patch("events", a, &[("status", Doc::from("confirmed"))]).unwrap();
            db.delete("events", b).unwrap();
        }
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.count("events", &Filter::All), 1);
        let a = db.find_one("events", &Filter::eq("signal", "S-1")).unwrap();
        assert_eq!(a.get("status").unwrap().as_str(), Some("confirmed"));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_is_atomic_no_tmp_left_behind() {
        let dir = tmpdir("atomic");
        let db = Database::open(&dir).unwrap();
        db.insert("events", Doc::obj().with("a", 1i64)).unwrap();
        db.save().unwrap();
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().ends_with(".tmp"))
            .collect();
        assert!(leftovers.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn save_truncates_the_wal() {
        let dir = tmpdir("compact");
        let db = Database::open(&dir).unwrap();
        db.insert("events", Doc::obj().with("a", 1i64)).unwrap();
        assert!(db.wal_size() > 0);
        db.save().unwrap();
        assert_eq!(db.wal_size(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn auto_compaction_at_threshold() {
        let dir = tmpdir("auto-compact");
        let opts = StoreOptions { compact_threshold: 256, ..StoreOptions::default() };
        let db = Database::open_with(&dir, opts).unwrap();
        for i in 0..20 {
            db.insert("events", Doc::obj().with("i", i as i64)).unwrap();
        }
        // The log crossed 256 bytes long ago and must have compacted.
        assert!(db.wal_size() < 256, "wal stayed at {} bytes", db.wal_size());
        assert!(dir.join("events.jsonl").exists());
        let reopened = Database::open(&dir).unwrap();
        assert_eq!(reopened.count("events", &Filter::All), 20);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_durability_keeps_no_wal() {
        let dir = tmpdir("snapshot-mode");
        let opts = StoreOptions { durability: Durability::Snapshot, ..StoreOptions::default() };
        {
            let db = Database::open_with(&dir, opts.clone()).unwrap();
            db.insert("events", Doc::obj().with("a", 1i64)).unwrap();
            assert_eq!(db.wal_size(), 0);
            db.save().unwrap();
            db.insert("events", Doc::obj().with("a", 2i64)).unwrap(); // lost: not saved
        }
        let db = Database::open_with(&dir, opts).unwrap();
        assert_eq!(db.count("events", &Filter::All), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_mode_folds_in_stale_wal_from_wal_mode_run() {
        let dir = tmpdir("mode-switch");
        {
            let db = Database::open(&dir).unwrap(); // wal-sync
            db.insert("events", Doc::obj().with("a", 1i64)).unwrap();
            // No save: the write lives only in the log.
        }
        let opts = StoreOptions { durability: Durability::Snapshot, ..StoreOptions::default() };
        {
            let db = Database::open_with(&dir, opts.clone()).unwrap();
            assert_eq!(db.count("events", &Filter::All), 1, "stale wal replayed");
            db.insert("events", Doc::obj().with("a", 2i64)).unwrap();
            db.save().unwrap();
        }
        // The stale log was folded and truncated: it cannot resurrect.
        let db = Database::open_with(&dir, opts).unwrap();
        assert_eq!(db.count("events", &Filter::All), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_not_fatal() {
        let dir = tmpdir("quarantine");
        {
            let db = Database::open(&dir).unwrap();
            db.insert("events", Doc::obj().with("a", 1i64)).unwrap();
            db.insert("signals", Doc::obj().with("name", "S-1")).unwrap();
            db.save().unwrap();
        }
        // Mangle one collection's snapshot.
        let victim = dir.join("events.jsonl");
        std::fs::write(&victim, "{\"_id\":1,\"a\":1}\nnot json at all\n").unwrap();
        let db = Database::open(&dir).unwrap();
        // The intact collection loads; the corrupt one is quarantined.
        assert_eq!(db.count("signals", &Filter::All), 1);
        assert_eq!(db.count("events", &Filter::All), 0);
        assert_eq!(db.recovery().corrupt.len(), 1);
        match &db.recovery().corrupt[0] {
            StoreError::Corrupt { collection, line, .. } => {
                assert_eq!(collection, "events");
                assert_eq!(*line, 2);
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
        assert!(!victim.exists());
        assert!(dir.join("events.jsonl.corrupt").exists());
        // A second open must not trip over the quarantined file.
        let again = Database::open(&dir).unwrap();
        assert!(again.recovery().corrupt.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn orphan_tmp_files_are_removed_on_open() {
        let dir = tmpdir("orphans");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(".events.jsonl.tmp"), "debris").unwrap();
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.recovery().orphans_removed, vec![".events.jsonl.tmp".to_string()]);
        assert!(!dir.join(".events.jsonl.tmp").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn batch_commits_one_wal_record() {
        let dir = tmpdir("batch");
        let db = Database::open(&dir).unwrap();
        let size_empty = db.wal_size();
        let scope = db.batch();
        db.insert("events", Doc::obj().with("a", 1i64)).unwrap();
        db.insert("events", Doc::obj().with("a", 2i64)).unwrap();
        assert_eq!(db.wal_size(), size_empty, "writes buffer until commit");
        scope.commit().unwrap();
        assert!(db.wal_size() > size_empty);
        // Reopen: the whole batch is one committed record.
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.recovery().wal_replayed_batches, 1);
        assert_eq!(db.recovery().wal_replayed_ops, 2);
        assert_eq!(db.count("events", &Filter::All), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn nested_batches_commit_once_at_outermost() {
        let dir = tmpdir("batch-nest");
        let db = Database::open(&dir).unwrap();
        let outer = db.batch();
        db.insert("events", Doc::obj().with("a", 1i64)).unwrap();
        {
            let inner = db.batch();
            db.insert("events", Doc::obj().with("a", 2i64)).unwrap();
            inner.commit().unwrap();
        }
        assert_eq!(db.wal_size(), 0, "inner commit must not flush the outer scope");
        outer.commit().unwrap();
        drop(db);
        let db = Database::open(&dir).unwrap();
        assert_eq!(db.recovery().wal_replayed_batches, 1);
        assert_eq!(db.recovery().wal_replayed_ops, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_inserts_are_serialised() {
        let db = std::sync::Arc::new(Database::in_memory());
        let mut handles = Vec::new();
        for t in 0..8 {
            let db = db.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..50 {
                    db.insert("events", Doc::obj().with("thread", t as i64).with("i", i as i64))
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(db.count("events", &Filter::All), 400);
        // Ids are unique.
        let docs = db.find("events", &Filter::All);
        let mut ids: Vec<i64> =
            docs.iter().map(|d| d.get("_id").unwrap().as_i64().unwrap()).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 400);
    }

    #[test]
    fn indexed_find_through_db() {
        let db = Database::in_memory();
        db.create_index("events", "signal");
        for i in 0..30 {
            db.insert("events", Doc::obj().with("signal", format!("S-{}", i % 3))).unwrap();
        }
        assert_eq!(db.find("events", &Filter::eq("signal", "S-1")).len(), 10);
    }

    #[test]
    fn index_declared_after_load_covers_old_and_new_docs() {
        let db = Database::in_memory();
        for i in 0..64 {
            db.insert("events", Doc::obj().with("signal", format!("S-{}", i % 4))).unwrap();
        }
        db.create_index("events", "signal");
        assert_eq!(db.find("events", &Filter::eq("signal", "S-2")).len(), 16);
        // Documents inserted after the declaration are indexed too.
        for i in 64..128 {
            db.insert("events", Doc::obj().with("signal", format!("S-{}", i % 4))).unwrap();
        }
        assert_eq!(db.find("events", &Filter::eq("signal", "S-2")).len(), 32);
    }

    #[test]
    fn empty_indexed_collection_persists_in_snapshot() {
        let dir = tmpdir("empty-indexed");
        {
            let db = Database::open(&dir).unwrap();
            db.create_index("events", "signal");
            db.save().unwrap();
        }
        assert!(dir.join("events.jsonl").exists());
        let db = Database::open(&dir).unwrap();
        assert!(db.collection_names().contains(&"events".to_string()));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
