#![warn(missing_docs)]

//! # sintel-stats
//!
//! Statistical modeling substrate for the Sintel reproduction:
//!
//! * [`arima`] — an ARIMA(p, d, q) forecaster fitted with the
//!   Hannan–Rissanen two-stage regression, powering the `arima` pipeline
//!   (Pena et al. \[37\]).
//! * [`fft`](mod@fft) — an in-repo radix-2 complex FFT.
//! * [`spectral`] — the spectral-residual saliency detector of Ren et
//!   al. (KDD 2019), the published algorithm behind the Microsoft Azure
//!   Anomaly Detector service; this is the local stand-in for the
//!   paper's `azure` pipeline (see DESIGN.md §2).
//! * [`threshold`] — the nonparametric dynamic error threshold of
//!   Hundman et al. (KDD 2018) used by the `find_anomalies`
//!   postprocessing primitive, plus a fixed k·σ baseline for ablation.
//! * [`decompose`](mod@decompose) — seasonal-trend decomposition and change-point
//!   detection, the §5 "distribution shift" preprocessing toolkit.
//! * [`matrix_profile`](mod@matrix_profile) — nearest-neighbour subsequence distances (the
//!   Stumpy comparator), an extension pipeline in the hub.
//! * [`holt_winters`] — additive triple exponential smoothing, the
//!   second forecaster of the paper's reference \[37\].

pub mod arima;
pub mod decompose;
pub mod fft;
pub mod holt_winters;
pub mod matrix_profile;
pub mod spectral;
pub mod threshold;

pub use arima::Arima;
pub use decompose::{change_points, decompose, estimate_period, Decomposition};
pub use fft::{fft, ifft, Complex};
pub use holt_winters::HoltWinters;
pub use matrix_profile::{matrix_profile, MatrixProfile};
pub use spectral::spectral_residual_saliency;
pub use threshold::{dynamic_threshold, fixed_threshold, AnomalySpan, ThresholdParams};

/// Errors produced by statistical models.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StatsError {
    /// Not enough data for the requested model order / operation.
    InsufficientData {
        /// Minimum sample count required.
        needed: usize,
        /// Samples actually available.
        got: usize,
    },
    /// Invalid configuration value.
    InvalidParameter(String),
    /// Underlying linear algebra failure (singular design, etc.).
    Numerical(String),
    /// Work was cancelled by a watchdog (`sintel_common::cancel`): the
    /// run budget expired and a recursion loop bailed out early.
    Cancelled,
}

impl std::fmt::Display for StatsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StatsError::InsufficientData { needed, got } => {
                write!(f, "insufficient data: needed {needed}, got {got}")
            }
            StatsError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            StatsError::Numerical(m) => write!(f, "numerical failure: {m}"),
            StatsError::Cancelled => write!(f, "cancelled by run budget"),
        }
    }
}

impl std::error::Error for StatsError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, StatsError>;
