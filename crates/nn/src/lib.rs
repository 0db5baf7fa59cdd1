#![warn(missing_docs)]
// Hot kernels iterate, they don't index-by-range: a `for i in 0..n`
// over a single slice defeats bounds-check elision and hides the
// access pattern from the vectorizer. Verified by `scripts/verify.sh`.
#![deny(clippy::needless_range_loop)]

//! # sintel-nn
//!
//! From-scratch neural-network substrate for the Sintel reproduction —
//! the stand-in for the Keras/TensorFlow models the Python stack uses
//! (see DESIGN.md §2).
//!
//! The crate provides exactly what the paper's pipeline hub needs:
//!
//! * [`dense::Dense`] — fully-connected layer with hand-derived backprop;
//! * [`lstm::Lstm`] — an LSTM layer with full backpropagation-through-time
//!   (validated against numerical gradients in the test suite);
//! * [`adam::Adam`] — the Adam optimiser;
//! * [`models`] — the four deep architectures of the evaluation:
//!   [`models::LstmRegressor`] (LSTM DT \[24\]),
//!   [`models::LstmAutoencoder`] (LSTM AE \[34\]),
//!   [`models::DenseAutoencoder`] (Dense AE), and
//!   [`models::TadGan`] (TadGAN \[21\], adversarial reconstruction with
//!   Wasserstein critics).
//!
//! Everything is `f64`, deterministic from a seed, and sized for CPU
//! training; relative compute/quality orderings of the paper are
//! preserved (TadGAN slowest, reconstruction models heavier than
//! prediction ones).

pub mod activation;
pub mod adam;
pub mod dense;
pub mod loss;
pub mod lstm;
pub mod models;

pub use activation::Activation;
pub use adam::Adam;
pub use dense::Dense;
pub use lstm::{HiddenGrad, Lstm, LstmState, LstmTape, Seq};
pub use models::{DenseAutoencoder, LstmAutoencoder, LstmRegressor, TadGan, TrainConfig};

/// Errors produced by model training / inference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NnError {
    /// Shape mismatch between data and the network configuration.
    ShapeMismatch {
        /// What the network was configured for.
        expected: String,
        /// What the data provided.
        got: String,
    },
    /// Not enough training data for the requested configuration.
    InsufficientData {
        /// Minimum sample count required.
        needed: usize,
        /// Samples actually available.
        got: usize,
    },
    /// Invalid hyperparameter.
    InvalidParameter(String),
    /// Training was cancelled by a watchdog (`sintel_common::cancel`):
    /// the run budget expired and the epoch loop bailed out early.
    Cancelled,
}

impl std::fmt::Display for NnError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NnError::ShapeMismatch { expected, got } => {
                write!(f, "shape mismatch: expected {expected}, got {got}")
            }
            NnError::InsufficientData { needed, got } => {
                write!(f, "insufficient data: needed {needed}, got {got}")
            }
            NnError::InvalidParameter(m) => write!(f, "invalid parameter: {m}"),
            NnError::Cancelled => write!(f, "training cancelled by run budget"),
        }
    }
}

impl std::error::Error for NnError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, NnError>;
