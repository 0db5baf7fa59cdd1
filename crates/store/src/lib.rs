#![warn(missing_docs)]

//! # sintel-store
//!
//! The persistent knowledge base (paper §3.5) — an embedded document
//! database standing in for the MongoDB instance the Python Sintel stack
//! uses (see DESIGN.md §2).
//!
//! Layers, bottom-up:
//!
//! * [`doc::Doc`] — a JSON-like document value with an in-repo JSON
//!   serializer/parser ([`json`]);
//! * [`query::Filter`] — MongoDB-flavoured filters (eq/ne/gt/lt/in/
//!   exists/and/or) evaluated against documents;
//! * [`collection::Collection`] — id-keyed document storage (ids are
//!   allocated by the database) with secondary hash indexes used to
//!   accelerate equality filters;
//! * [`wal`] — an append-only, CRC32-checksummed write-ahead log with
//!   torn-tail recovery and (behind the `faulty` feature) crash-point
//!   fault injection;
//! * [`db::Database`] — collections sharded across per-shard locks
//!   ([`db::NUM_SHARDS`]), every mutation logged to the WAL and
//!   compacted into JSONL snapshots; [`db::Database::open`] replays the
//!   log over the snapshots and repairs crash debris deterministically
//!   (see [`db::RecoveryReport`]);
//! * [`schema`] — the Sintel entity schema of Figure 6 (datasets,
//!   signals, templates, pipelines, experiments, signalruns, events,
//!   annotations, users) as typed helpers over the generic layers.
//!
//! There is one write path. [`Database`] has one method per write verb
//! (`insert`, `update`, `patch`, `delete`) and every [`SintelDb`]
//! writer returns [`Result`]. A write applies to memory, then appends to
//! the WAL; if the append fails the write stays applied in memory and
//! the call returns the error, so no caller is told a write is durable
//! when it is not.

pub mod collection;
pub mod db;
pub mod doc;
pub mod json;
pub mod query;
pub mod schema;
pub mod wal;

pub use collection::Collection;
pub use db::{
    shard_of, BatchScope, Database, Durability, RecoveryReport, StoreOptions, NUM_SHARDS,
};
pub use doc::Doc;
pub use query::Filter;
pub use schema::SintelDb;

/// Errors produced by the document store.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// JSON parsing failed.
    Parse {
        /// Byte offset of the failure.
        offset: usize,
        /// What went wrong.
        message: String,
    },
    /// Filesystem failure during persistence.
    Io(String),
    /// Document id not found.
    NotFound(u64),
    /// Schema-level validation failure.
    Schema(String),
    /// A persisted collection snapshot failed to load and was
    /// quarantined (renamed to `<collection>.jsonl.corrupt`) so the
    /// rest of the database could open.
    Corrupt {
        /// Collection whose snapshot was corrupt.
        collection: String,
        /// 1-based line number of the first bad line.
        line: usize,
        /// What was wrong with it.
        cause: String,
    },
    /// A write-ahead-log record failed its framing checks (short
    /// header, impossible length, checksum mismatch, non-UTF-8
    /// payload): the signature of a crash mid-append.
    TornRecord {
        /// Byte offset of the record in the log.
        offset: usize,
        /// Which framing check failed.
        cause: &'static str,
    },
    /// A crash injected by the `faulty` fault-injection layer
    /// ([`wal::fault`]); carries the crash-point label. Test-only.
    #[cfg(feature = "faulty")]
    Injected(&'static str),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Parse { offset, message } => {
                write!(f, "json parse error at byte {offset}: {message}")
            }
            StoreError::Io(m) => write!(f, "io error: {m}"),
            StoreError::NotFound(id) => write!(f, "document {id} not found"),
            StoreError::Schema(m) => write!(f, "schema error: {m}"),
            StoreError::Corrupt { collection, line, cause } => {
                write!(f, "corrupt snapshot for '{collection}' at line {line}: {cause}")
            }
            StoreError::TornRecord { offset, cause } => {
                write!(f, "torn wal record at byte {offset}: {cause}")
            }
            #[cfg(feature = "faulty")]
            StoreError::Injected(point) => write!(f, "injected crash at {point}"),
        }
    }
}

impl std::error::Error for StoreError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StoreError>;
