#![warn(missing_docs)]

//! # sintel-serve
//!
//! The long-running, multi-tenant streaming serving tier (DESIGN.md
//! §4g). Tenants stream `(tenant, signal, timestamp, value)` events in;
//! the engine buffers them per signal in bounded sliding windows, runs
//! detection passes (one fit run over the window that returns its own
//! anomalies, [`sintel_pipeline::Pipeline::fit_and_detect`]), and emits
//! seq-numbered [`event::AnomalyEvent`]s with bounded latency and memory.
//!
//! Robustness machinery, layer by layer:
//!
//! * [`queue::TenantQueue`] — bounded per-tenant ingest queues; the
//!   admission protocol ([`event::Admission`]) reports backpressure
//!   (`Retry`) and load shedding (`Shed`, by tenant priority once the
//!   aggregate backlog passes the high-water mark);
//! * [`breaker::Breaker`] — a per-tenant circuit breaker (closed → open
//!   on consecutive pass failures → half-open probe) over the pipeline
//!   subsystem's [`sintel_pipeline::policy`] failure taxonomy, with the
//!   benchmark's 2-strike quarantine as the terminal state;
//! * [`session::TenantSession`] — per-tenant sliding-window buffers and
//!   detection passes. Emissions are a pure function of the accepted
//!   event sequence (never of tick boundaries or thread count), which is
//!   what makes crash recovery and the chaos suite's bitwise assertions
//!   possible;
//! * [`engine::ServeEngine`] — admission, deterministic parallel pass
//!   execution over tenants, and group-committed checkpoints: every tick
//!   persists session state and newly detected events in one
//!   [`sintel_store::Database::batch`] record, so `kill -9` loses at
//!   most one uncommitted tick and never duplicates a committed event.
//!
//! Before any of that machinery runs, [`analysis::analyze_deployment`]
//! statically checks the whole deployment — config domains, tenant
//! roster, fallback compatibility with the serve window, shedding and
//! breaker reachability, and the fallback-cheaper-than-primary cost
//! invariant — through `sintel-analyze`'s coded diagnostics
//! (SA008/SA010–SA014); [`ServeEngine::open`] refuses deployments whose
//! report has errors.
//!
//! With the `faulty` feature, `fault` adds serve-level crash points
//! (e.g. between checkpoint commit and emission) on top of the faulty
//! primitive family and the store's WAL crash points.
//!
//! Live introspection (DESIGN.md §4h) rides on top without touching
//! the determinism boundary:
//!
//! * [`slo`] — per-tick [`slo::TickWideEvent`] records (persisted to
//!   the `serve_ticks` collection inside each tick's group commit), the
//!   engine's [`slo::TickWindow`] of its last 64 ticks derived from
//!   them, and the immutable [`slo::StatusSnapshot`] the engine
//!   publishes;
//! * [`http::StatusServer`] — a zero-dependency HTTP endpoint serving
//!   `/metrics`, `/healthz`, `/tenants` and `/trace` from published
//!   snapshots and the global registry, read-only by construction;
//! * [`selfmon`] — the engine feeds its own per-tick operational
//!   streams through a fallback-template detection pass under the
//!   reserved [`selfmon::SELF_TENANT`] tenant.

pub mod analysis;
pub mod breaker;
pub mod engine;
pub mod event;
#[cfg(feature = "faulty")]
pub mod fault;
pub mod http;
pub mod queue;
pub mod selfmon;
pub mod session;
pub mod slo;

pub use analysis::analyze_deployment;
pub use breaker::{Breaker, BreakerEvent, BreakerState};
pub use engine::{ServeConfig, ServeEngine, ServeStats, TenantSpec, TenantStats};
pub use event::{Admission, AnomalyEvent, IngestEvent};
pub use http::StatusServer;
pub use queue::TenantQueue;
pub use selfmon::{SelfMonitor, SELF_TENANT};
pub use session::{CheckpointSlot, TenantSession};
pub use slo::{
    Readiness, SharedStatus, StatusSnapshot, TenantSlo, TenantTickStats, TickWideEvent,
    VOLATILE_TICK_FIELDS,
};

/// Errors produced by the serving tier.
#[derive(Debug)]
pub enum ServeError {
    /// Invalid [`engine::ServeConfig`].
    Config(String),
    /// An event was offered for a tenant that was never registered.
    UnknownTenant(String),
    /// The knowledge-base layer failed.
    Store(sintel_store::StoreError),
    /// A persisted session checkpoint could not be decoded.
    Checkpoint(String),
    /// A crash injected by [`fault`]; carries the crash-point label.
    /// Test-only.
    #[cfg(feature = "faulty")]
    Injected(&'static str),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Config(m) => write!(f, "config error: {m}"),
            ServeError::UnknownTenant(t) => write!(f, "unknown tenant '{t}'"),
            ServeError::Store(e) => write!(f, "store error: {e}"),
            ServeError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            #[cfg(feature = "faulty")]
            ServeError::Injected(point) => write!(f, "injected crash at {point}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<sintel_store::StoreError> for ServeError {
    fn from(e: sintel_store::StoreError) -> Self {
        ServeError::Store(e)
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, ServeError>;
