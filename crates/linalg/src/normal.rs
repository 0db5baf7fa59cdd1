//! Streaming normal equations for ridge least squares.
//!
//! [`NormalEquations`] takes the rows of a design matrix one at a time
//! and accumulates `XᵀX` and `Xᵀb` in place, so a caller that can
//! generate its rows (a lag regression reads them straight off the
//! series) never builds the design matrix, its transpose or the
//! product.
//!
//! The accumulation order is a contract (DESIGN.md §4j): the result is
//! bitwise equal to `Xᵀ·X` by [`Matrix::matmul`] and `Xᵀ·b` by
//! [`Matrix::matvec`] on the materialized design —
//!
//! - `XᵀX[i][j]` sums `row[i] * row[j]` over rows in ascending order,
//!   starting from `+0.0` and skipping rows where `row[i] == 0.0` (the
//!   matmul skip);
//! - `Xᵀb[i]` sums `row[i] * b` over rows in ascending order, starting
//!   from `-0.0` with no skip (the `Iterator::sum` in [`crate::dot`]).
//!
//! Each row is folded into the full square as it arrives, so the order
//! holds for any regressor, `±inf` and NaN included.

use crate::{Matrix, Result};

/// Row-at-a-time accumulator for the ridge normal equations
/// `(XᵀX + ridge·I) x = Xᵀb`.
#[derive(Debug, Clone)]
pub struct NormalEquations {
    xtx: Matrix,
    xtb: Vec<f64>,
}

impl NormalEquations {
    /// Empty accumulator for a design with `cols` columns.
    pub fn new(cols: usize) -> Self {
        // `Xᵀb` starts at -0.0, the identity `Iterator::sum` folds from,
        // so a sum of only -0.0 terms stays -0.0 as in `dot`.
        Self { xtx: Matrix::zeros(cols, cols), xtb: vec![-0.0; cols] }
    }

    /// Add one design row and its target. Panics if `row.len()` is not
    /// the `cols` given to [`Self::new`] (a programmer error, like a
    /// ragged matrix).
    pub fn push_row(&mut self, row: &[f64], target: f64) {
        let cols = self.xtb.len();
        assert_eq!(row.len(), cols, "push_row: row length mismatch");
        // `max(1)`: a zero-column design has no rows to chunk.
        let out_rows = self.xtx.as_mut_slice().chunks_exact_mut(cols.max(1));
        for ((&a, xtb), out) in row.iter().zip(&mut self.xtb).zip(out_rows) {
            *xtb += a * target;
            if a == 0.0 {
                continue;
            }
            for (o, &b) in out.iter_mut().zip(row) {
                *o += a * b;
            }
        }
    }

    /// The accumulated system: `(XᵀX + ridge·I, Xᵀb)`.
    pub fn into_system(mut self, ridge: f64) -> (Matrix, Vec<f64>) {
        let cols = self.xtb.len();
        for diag in self.xtx.as_mut_slice().iter_mut().step_by(cols + 1) {
            *diag += ridge;
        }
        (self.xtx, self.xtb)
    }

    /// Solve `(XᵀX + ridge·I) x = Xᵀb` with [`Matrix::solve`].
    pub fn solve(self, ridge: f64) -> Result<Vec<f64>> {
        let (xtx, xtb) = self.into_system(ridge);
        xtx.solve(&xtb)
    }
}
