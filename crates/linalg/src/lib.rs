#![warn(missing_docs)]
// Dense kernels index by construction-checked dimensions; every routine
// that does so carries a function-level allow with its invariant spelled
// out. New indexing must either use checked access or justify an allow.
#![deny(clippy::indexing_slicing)]
// Hot kernels iterate, they don't index-by-range: a `for i in 0..n`
// over a single slice defeats bounds-check elision and hides the
// access pattern from the vectorizer. Verified by `scripts/verify.sh`.
#![deny(clippy::needless_range_loop)]

//! # sintel-linalg
//!
//! Minimal dense linear algebra substrate for the Sintel reproduction.
//!
//! The Python Sintel stack leans on NumPy/SciPy; this crate provides the
//! subset the Rust port actually needs: a row-major [`Matrix`] with the
//! usual arithmetic, matrix–vector and matrix–matrix products, Gaussian
//! elimination with partial pivoting ([`Matrix::solve`]) for ARIMA least
//! squares (rows streamed through [`NormalEquations`]), and a Cholesky factorisation ([`cholesky`] / [`solve_spd`])
//! for the Gaussian-process hyperparameter tuner.
//!
//! The implementation favours clarity and testability over SIMD tricks —
//! every routine is exercised by unit and property tests.

pub mod matrix;
pub mod normal;
pub mod solve;

pub use matrix::Matrix;
pub use normal::NormalEquations;
pub use solve::{cholesky, solve_lower, solve_spd, solve_upper};

/// Errors produced by linear-algebra routines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinalgError {
    /// Dimensions of the operands are incompatible for the operation.
    DimensionMismatch {
        /// What the operation required.
        expected: String,
        /// What it was given.
        got: String,
    },
    /// A factorisation failed (singular or non positive-definite input).
    NotPositiveDefinite,
    /// A solve hit a (numerically) singular pivot.
    Singular,
}

impl std::fmt::Display for LinalgError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinalgError::DimensionMismatch { expected, got } => {
                write!(f, "dimension mismatch: expected {expected}, got {got}")
            }
            LinalgError::NotPositiveDefinite => {
                write!(f, "matrix is not positive definite")
            }
            LinalgError::Singular => write!(f, "matrix is singular"),
        }
    }
}

impl std::error::Error for LinalgError {}

/// Convenience result alias for this crate.
pub type Result<T> = std::result::Result<T, LinalgError>;

/// Dot product of two equal-length slices.
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len(), "dot: length mismatch");
    a.iter().zip(b).map(|(x, y)| x * y).sum()
}

/// Euclidean norm of a slice.
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm2(&[3.0, 4.0]), 5.0);
        assert_eq!(dot(&[], &[]), 0.0);
    }
}
