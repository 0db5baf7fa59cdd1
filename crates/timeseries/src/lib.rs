#![warn(missing_docs)]

//! # sintel-timeseries
//!
//! Time-series substrate for the Sintel reproduction.
//!
//! Defines the input standard of the framework — a [`Signal`] is a sequence
//! of `(timestamp, values)` samples with one or more channels — plus the
//! interval algebra used to describe variable-length anomalies
//! ([`Interval`], [`ScoredInterval`]), equi-spaced aggregation
//! ([`resample::time_segments_aggregate`]), rolling-window extraction used
//! by every model, and CSV I/O matching the `(timestamp, value)` files the
//! paper's datasets ship as.

pub mod csvio;
pub mod interval;
pub mod resample;
pub mod signal;
pub mod window;

pub use interval::{merge_overlapping, Interval, ScoredInterval};
pub use resample::{time_segments_aggregate, Aggregation};
pub use signal::Signal;
pub use window::{rolling_windows, WindowSet};

/// Errors produced by the time-series substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TimeSeriesError {
    /// The signal is structurally invalid (unsorted/duplicate timestamps,
    /// ragged channels, zero channels…).
    InvalidSignal(String),
    /// An interval has `end < start` or falls outside the signal.
    InvalidInterval(String),
    /// A parameter was out of range for the operation.
    InvalidParameter(String),
    /// A file or directory could not be opened, created or written.
    Io(String),
    /// A CSV file was rejected (see [`csvio::CsvError`]).
    Csv(csvio::CsvError),
    /// Work was cancelled by a watchdog (`sintel_common::cancel`): the
    /// run budget expired and a long extraction loop bailed out early.
    Cancelled,
}

impl std::fmt::Display for TimeSeriesError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TimeSeriesError::InvalidSignal(m) => write!(f, "invalid signal: {m}"),
            TimeSeriesError::InvalidInterval(m) => write!(f, "invalid interval: {m}"),
            TimeSeriesError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            TimeSeriesError::Io(m) => write!(f, "io error: {m}"),
            TimeSeriesError::Csv(e) => write!(f, "{e}"),
            TimeSeriesError::Cancelled => write!(f, "cancelled by run budget"),
        }
    }
}

impl std::error::Error for TimeSeriesError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, TimeSeriesError>;
