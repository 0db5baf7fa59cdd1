//! Row-major dense matrix.

use crate::{LinalgError, Result};

/// A dense, row-major `rows x cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// All-zeros matrix.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Build from a flat row-major buffer. Panics if sizes disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "from_vec: buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Build from a slice of rows. All rows must share one length.
    // The `rows[0]` access is guarded by the `is_empty` early return.
    #[allow(clippy::indexing_slicing)]
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        if rows.is_empty() {
            return Self::zeros(0, 0);
        }
        let cols = rows[0].len();
        assert!(rows.iter().all(|r| r.len() == cols), "from_rows: ragged rows");
        let mut data = Vec::with_capacity(rows.len() * cols);
        for r in rows {
            data.extend_from_slice(r);
        }
        Self { rows: rows.len(), cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Borrow a row as a slice.
    // `data.len() == rows * cols` by construction; `i < rows` is the
    // caller's contract, matching slice semantics (panic on violation).
    #[allow(clippy::indexing_slicing)]
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrow a row.
    // Same invariant as `row`.
    #[allow(clippy::indexing_slicing)]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copy out a column.
    pub fn col(&self, j: usize) -> Vec<f64> {
        (0..self.rows).map(|i| self[(i, j)]).collect()
    }

    /// Iterate over the rows as slices (no allocation). A matrix with
    /// zero columns yields no rows.
    pub fn row_iter(&self) -> impl Iterator<Item = &[f64]> {
        self.data.chunks_exact(self.cols.max(1))
    }

    /// Flat row-major view of the data.
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Flat mutable row-major view.
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out[(j, i)] = self[(i, j)];
            }
        }
        out
    }

    /// Number of manual accumulator lanes held in registers by the
    /// vectorized kernel. Each lane owns one output column of the
    /// current row, so the lane count never changes any per-element
    /// reduction order — it only decides how many columns are carried
    /// through the `k` loop at once.
    pub const MATMUL_LANES: usize = 8;

    /// Scalar reference kernel: compute output rows `range` of
    /// `self * other` into `out_rows` in the plain i-k-j order.
    ///
    /// This loop nest is the *specification* of the reduction order
    /// (DESIGN.md §4j): element `(i, j)` is `Σ_k A[i,k] * B[k,j]`,
    /// accumulated with `k` ascending and terms with `A[i,k] == 0.0`
    /// skipped (which also suppresses `0 * ±inf -> NaN` and keeps
    /// `-0.0` contributions out of the sum). The vectorized kernel
    /// must stay bitwise-identical to this one; the property suite
    /// enforces it.
    // Row arithmetic is in range: `out_rows.len() == range.len() * cols`
    // by the caller's contract and `k < self.cols == other.rows`.
    #[doc(hidden)]
    #[allow(clippy::indexing_slicing)]
    pub fn matmul_rows_scalar_into(
        &self,
        other: &Matrix,
        range: std::ops::Range<usize>,
        out_rows: &mut [f64],
    ) {
        let out_cols = other.cols;
        for (local, i) in range.enumerate() {
            let out_row = &mut out_rows[local * out_cols..(local + 1) * out_cols];
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                let other_row = other.row(k);
                for (o, &b) in out_row.iter_mut().zip(other_row) {
                    *o += a * b;
                }
            }
        }
    }

    /// Vectorized kernel: compute output rows `range` of `self * other`
    /// into `out_rows` with [`Self::MATMUL_LANES`] manual accumulators.
    ///
    /// Register blocking over output columns: each group of
    /// `MATMUL_LANES` columns is carried through the whole `k` loop in
    /// a stack array, so the inner loop is a fixed-width unrolled
    /// multiply-add with no load/store of the output row per `k` step.
    /// Every accumulator owns exactly one output element, accumulated
    /// with `k` ascending and the same `A[i,k] == 0.0` skip — so the
    /// reduction order per element is *identical* to
    /// [`Self::matmul_rows_scalar_into`] and the results are bitwise
    /// equal by construction, not by tolerance.
    // Slicing is in range: `out_rows.len() == range.len() * out_cols`
    // by the caller's contract, `j` advances in lock-step with the
    // exact chunks of `out_row`, and `k < self.cols == other.rows`.
    #[doc(hidden)]
    #[allow(clippy::indexing_slicing)]
    pub fn matmul_rows_into(
        &self,
        other: &Matrix,
        range: std::ops::Range<usize>,
        out_rows: &mut [f64],
    ) {
        const LANES: usize = Matrix::MATMUL_LANES;
        let out_cols = other.cols;
        for (local, i) in range.enumerate() {
            let a_row = self.row(i);
            let out_row = &mut out_rows[local * out_cols..(local + 1) * out_cols];
            let mut chunks = out_row.chunks_exact_mut(LANES);
            let mut j = 0usize;
            for out_chunk in &mut chunks {
                let mut acc = [0.0f64; LANES];
                for (k, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b = &other.row(k)[j..j + LANES];
                    for (acc_l, &b_l) in acc.iter_mut().zip(b) {
                        *acc_l += a * b_l;
                    }
                }
                out_chunk.copy_from_slice(&acc);
                j += LANES;
            }
            // Remainder lanes (out_cols % LANES): same k-ascending
            // reduction over a short accumulator prefix.
            let rem = chunks.into_remainder();
            if !rem.is_empty() {
                let width = rem.len();
                let mut acc = [0.0f64; LANES];
                for (k, &a) in a_row.iter().enumerate() {
                    if a == 0.0 {
                        continue;
                    }
                    let b = &other.row(k)[j..j + width];
                    for (acc_l, &b_l) in acc[..width].iter_mut().zip(b) {
                        *acc_l += a * b_l;
                    }
                }
                rem.copy_from_slice(&acc[..width]);
            }
        }
    }

    /// Matrix product `self * other`, computed serially by the lane
    /// kernel [`Self::matmul_rows_into`].
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        if self.cols != other.rows {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("({} x k) * (k x m)", self.rows),
                got: format!("({} x {}) * ({} x {})", self.rows, self.cols, other.rows, other.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, other.cols);
        self.matmul_rows_into(other, 0..self.rows, out.as_mut_slice());
        Ok(out)
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Result<Vec<f64>> {
        if self.cols != v.len() {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("vector of length {}", self.cols),
                got: format!("length {}", v.len()),
            });
        }
        Ok((0..self.rows).map(|i| crate::dot(self.row(i), v)).collect())
    }

    /// Element-wise sum; panics on shape mismatch (programmer error).
    pub fn add(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "add: shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a + b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Element-wise difference; panics on shape mismatch.
    pub fn sub(&self, other: &Matrix) -> Matrix {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols), "sub: shape mismatch");
        let data = self.data.iter().zip(&other.data).map(|(a, b)| a - b).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Scalar multiple.
    pub fn scale(&self, s: f64) -> Matrix {
        let data = self.data.iter().map(|a| a * s).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Apply a function to every element, returning a new matrix.
    pub fn map(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let data = self.data.iter().map(|&a| f(a)).collect();
        Matrix { rows: self.rows, cols: self.cols, data }
    }

    /// Frobenius norm.
    pub fn frobenius(&self) -> f64 {
        self.data.iter().map(|x| x * x).sum::<f64>().sqrt()
    }

    /// True when all elements are finite.
    pub fn is_finite(&self) -> bool {
        self.data.iter().all(|x| x.is_finite())
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    // The debug_assert documents the invariant; the release-mode flat
    // index is in range whenever (i, j) is, because
    // `data.len() == rows * cols`.
    #[allow(clippy::indexing_slicing)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &self.data[i * self.cols + j]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    // Same invariant as `Index`.
    #[allow(clippy::indexing_slicing)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols, "index ({i},{j}) out of bounds");
        &mut self.data[i * self.cols + j]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_common::SintelRng;

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i).unwrap(), a);
        assert_eq!(i.matmul(&a).unwrap(), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, Matrix::from_rows(&[vec![58.0, 64.0], vec![139.0, 154.0]]));
    }

    #[test]
    fn matmul_dimension_error() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(matches!(a.matmul(&b), Err(LinalgError::DimensionMismatch { .. })));
    }

    #[test]
    fn matvec_known() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.transpose().transpose(), a);
        assert_eq!(a.transpose()[(2, 1)], 6.0);
    }

    #[test]
    fn add_sub_scale() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0]]);
        let b = Matrix::from_rows(&[vec![3.0, 5.0]]);
        assert_eq!(a.add(&b), Matrix::from_rows(&[vec![4.0, 7.0]]));
        assert_eq!(b.sub(&a), Matrix::from_rows(&[vec![2.0, 3.0]]));
        assert_eq!(a.scale(2.0), Matrix::from_rows(&[vec![2.0, 4.0]]));
    }

    #[test]
    fn rows_cols_accessors() {
        let mut a = Matrix::zeros(2, 3);
        a.row_mut(1)[2] = 9.0;
        assert_eq!(a.row(1), &[0.0, 0.0, 9.0]);
        assert_eq!(a.col(2), vec![0.0, 9.0]);
        assert_eq!(a.rows(), 2);
        assert_eq!(a.cols(), 3);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        Matrix::from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn row_iter_matches_row() {
        let m = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let rows: Vec<&[f64]> = m.row_iter().collect();
        assert_eq!(rows, vec![m.row(0), m.row(1)]);
        assert_eq!(Matrix::zeros(3, 0).row_iter().count(), 0);
        assert_eq!(Matrix::zeros(0, 3).row_iter().count(), 0);
    }

    /// Random `r x c` matrix with entries uniform in `[-scale, scale)`.
    fn random_matrix(rng: &mut SintelRng, r: usize, c: usize, scale: f64) -> Matrix {
        let data = (0..r * c).map(|_| rng.uniform_range(-scale, scale)).collect();
        Matrix::from_vec(r, c, data)
    }

    #[test]
    fn prop_transpose_preserves_frobenius() {
        let mut rng = SintelRng::seed_from_u64(0x1111);
        for _ in 0..256 {
            let (r, c) = (1 + rng.index(5), 1 + rng.index(5));
            let m = random_matrix(&mut rng, r, c, 100.0);
            assert!((m.frobenius() - m.transpose().frobenius()).abs() < 1e-9);
        }
    }

    #[test]
    fn prop_matmul_identity() {
        let mut rng = SintelRng::seed_from_u64(0x1112);
        for _ in 0..256 {
            let (r, c) = (1 + rng.index(5), 1 + rng.index(5));
            let m = random_matrix(&mut rng, r, c, 100.0);
            let i = Matrix::identity(m.cols());
            assert_eq!(m.matmul(&i).unwrap(), m);
        }
    }

    #[test]
    fn prop_transpose_of_product() {
        let mut rng = SintelRng::seed_from_u64(0x1113);
        for _ in 0..256 {
            let (r, k, c) = (1 + rng.index(4), 1 + rng.index(4), 1 + rng.index(4));
            let a = random_matrix(&mut rng, r, k, 10.0);
            let b = random_matrix(&mut rng, k, c, 10.0);
            // (AB)^T == B^T A^T
            let lhs = a.matmul(&b).unwrap().transpose();
            let rhs = b.transpose().matmul(&a.transpose()).unwrap();
            assert!(lhs.sub(&rhs).frobenius() < 1e-8);
        }
    }
}
