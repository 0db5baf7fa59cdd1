#![warn(missing_docs)]

//! # sintel — the framework core
//!
//! The main entry point of the Sintel reproduction (paper §3.1):
//!
//! * [`Sintel`] — the coherent end-to-end API of Figure 4a:
//!   `Sintel::new("lstm_dynamic_threshold")`, `fit`, `detect`,
//!   `evaluate`, plus the AutoML entry point `tune` (Figure 4b) in both
//!   supervised and unsupervised settings (Figure 5);
//! * [`mod@benchmark`] — the standardized benchmarking suite of §3.4
//!   (Figure 4c): quality (overlapping / weighted segment scores per
//!   pipeline per dataset) and computational performance (training time,
//!   pipeline latency, memory);
//! * [`tune`] — the bridge between pipeline templates' joint
//!   hyperparameter spaces and the GP tuner;
//! * [`policy`] — the fault-isolation layer ([`RunPolicy`], watchdog
//!   execution, retries, the typed failure taxonomy) that every runner
//!   above routes pipeline executions through;
//! * [`api`] — a RESTful-style request/response layer over the
//!   knowledge base, standing in for the `sintel-api` web service;
//! * [`features`] — the Table 1 capability matrix;
//! * [`alloc`] — the byte-exact allocation tracker the benchmark
//!   binaries install to measure peak memory;
//! * [`forecast`] — the forecasting sister task (paper §7), reusing the
//!   ARIMA / Holt–Winters substrates behind the same fit-then-act API.

pub mod alloc;
pub mod api;
pub mod benchmark;
pub mod features;
pub mod forecast;
pub mod sintel;
pub mod tune;

// The fault-isolation policy layer moved down into `sintel-pipeline`
// (the serving tier reuses it without depending on the framework core);
// `sintel::policy` remains the canonical path for core callers.
pub use sintel_pipeline::policy;

pub use crate::sintel::Sintel;
pub use benchmark::{
    benchmark, benchmark_report, benchmark_report_with_db, benchmark_with_db,
    render_perf_table, render_table, BenchmarkConfig, BenchmarkReport, BenchmarkRow,
    MetricKind,
};
pub use policy::{FailureBreakdown, FailureKind, RunPolicy};
pub use tune::{TuneReport, TuneSetting};

/// Errors produced by the framework core.
#[derive(Debug, Clone, PartialEq)]
pub enum SintelError {
    /// Pipeline-layer failure.
    Pipeline(String),
    /// Tuning failure.
    Tuning(String),
    /// Knowledge-base failure.
    Store(String),
    /// Invalid user input.
    Invalid(String),
}

impl std::fmt::Display for SintelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SintelError::Pipeline(m) => write!(f, "pipeline: {m}"),
            SintelError::Tuning(m) => write!(f, "tuning: {m}"),
            SintelError::Store(m) => write!(f, "store: {m}"),
            SintelError::Invalid(m) => write!(f, "invalid input: {m}"),
        }
    }
}

impl std::error::Error for SintelError {}

impl From<sintel_pipeline::PipelineError> for SintelError {
    fn from(e: sintel_pipeline::PipelineError) -> Self {
        SintelError::Pipeline(e.to_string())
    }
}

impl From<sintel_store::StoreError> for SintelError {
    fn from(e: sintel_store::StoreError) -> Self {
        SintelError::Store(e.to_string())
    }
}

impl From<sintel_tuner::TunerError> for SintelError {
    fn from(e: sintel_tuner::TunerError) -> Self {
        SintelError::Tuning(e.to_string())
    }
}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, SintelError>;
