//! Linear solvers: Gaussian elimination with partial pivoting and
//! Cholesky factorisation for symmetric positive-definite systems.

use crate::{LinalgError, Matrix, Result};

impl Matrix {
    /// Solve `self * x = b` for a square system using Gaussian elimination
    /// with partial pivoting. Used for ARIMA least squares (via the normal
    /// equations) and anywhere a general solve is needed.
    // Elimination indexes `x` (length n, checked above) with row/col < n.
    #[allow(clippy::indexing_slicing)]
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.rows();
        if self.cols() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: "square matrix".into(),
                got: format!("{} x {}", self.rows(), self.cols()),
            });
        }
        if b.len() != n {
            return Err(LinalgError::DimensionMismatch {
                expected: format!("rhs of length {n}"),
                got: format!("length {}", b.len()),
            });
        }
        // Augmented working copy.
        let mut a = self.clone();
        let mut x = b.to_vec();
        for col in 0..n {
            // Partial pivot: largest magnitude entry on/below the diagonal.
            let pivot_row = (col..n)
                .max_by(|&i, &j| a[(i, col)].abs().total_cmp(&a[(j, col)].abs()))
                .expect("non-empty pivot range");
            if a[(pivot_row, col)].abs() < 1e-12 {
                return Err(LinalgError::Singular);
            }
            if pivot_row != col {
                for j in 0..n {
                    let tmp = a[(col, j)];
                    a[(col, j)] = a[(pivot_row, j)];
                    a[(pivot_row, j)] = tmp;
                }
                x.swap(col, pivot_row);
            }
            let pivot = a[(col, col)];
            for row in (col + 1)..n {
                let factor = a[(row, col)] / pivot;
                if factor == 0.0 {
                    continue;
                }
                for j in col..n {
                    let v = a[(col, j)];
                    a[(row, j)] -= factor * v;
                }
                x[row] -= factor * x[col];
            }
        }
        // Back substitution.
        for col in (0..n).rev() {
            let mut sum = x[col];
            for j in (col + 1)..n {
                sum -= a[(col, j)] * x[j];
            }
            x[col] = sum / a[(col, col)];
        }
        Ok(x)
    }
}

/// Cholesky factorisation of a symmetric positive-definite matrix:
/// returns lower-triangular `L` with `L Lᵀ = a`.
pub fn cholesky(a: &Matrix) -> Result<Matrix> {
    let n = a.rows();
    if a.cols() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: "square matrix".into(),
            got: format!("{} x {}", a.rows(), a.cols()),
        });
    }
    let mut l = Matrix::zeros(n, n);
    for i in 0..n {
        for j in 0..=i {
            let mut sum = a[(i, j)];
            for k in 0..j {
                sum -= l[(i, k)] * l[(j, k)];
            }
            if i == j {
                if sum <= 0.0 {
                    return Err(LinalgError::NotPositiveDefinite);
                }
                l[(i, j)] = sum.sqrt();
            } else {
                l[(i, j)] = sum / l[(j, j)];
            }
        }
    }
    Ok(l)
}

/// Forward substitution: solve `L y = b` for lower-triangular `L`.
// `b` and `y` both have length n (checked/allocated above the loops);
// every index is < n.
#[allow(clippy::indexing_slicing)]
pub fn solve_lower(l: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = l.rows();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("rhs of length {n}"),
            got: format!("length {}", b.len()),
        });
    }
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for j in 0..i {
            sum -= l[(i, j)] * y[j];
        }
        if l[(i, i)].abs() < 1e-14 {
            return Err(LinalgError::Singular);
        }
        y[i] = sum / l[(i, i)];
    }
    Ok(y)
}

/// Back substitution: solve `U x = b` for upper-triangular `U`.
// Same invariant as `solve_lower`.
#[allow(clippy::indexing_slicing)]
pub fn solve_upper(u: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let n = u.rows();
    if b.len() != n {
        return Err(LinalgError::DimensionMismatch {
            expected: format!("rhs of length {n}"),
            got: format!("length {}", b.len()),
        });
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = b[i];
        for j in (i + 1)..n {
            sum -= u[(i, j)] * x[j];
        }
        if u[(i, i)].abs() < 1e-14 {
            return Err(LinalgError::Singular);
        }
        x[i] = sum / u[(i, i)];
    }
    Ok(x)
}

/// Solve the SPD system `a x = b` via Cholesky: `L Lᵀ x = b`.
pub fn solve_spd(a: &Matrix, b: &[f64]) -> Result<Vec<f64>> {
    let l = cholesky(a)?;
    let y = solve_lower(&l, b)?;
    solve_upper(&l.transpose(), &y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_common::SintelRng;

    #[test]
    fn solve_known_system() {
        // 2x + y = 5; x + 3y = 10 -> x = 1, y = 3
        let a = Matrix::from_rows(&[vec![2.0, 1.0], vec![1.0, 3.0]]);
        let x = a.solve(&[5.0, 10.0]).unwrap();
        assert_eq!(x.len(), 2);
        for (got, want) in x.iter().zip([1.0, 3.0]) {
            assert!((got - want).abs() < 1e-12, "{x:?}");
        }
    }

    #[test]
    fn solve_requires_pivoting() {
        // Zero on the leading diagonal forces a row swap.
        let a = Matrix::from_rows(&[vec![0.0, 1.0], vec![1.0, 0.0]]);
        let x = a.solve(&[2.0, 3.0]).unwrap();
        assert_eq!(x, vec![3.0, 2.0]);
    }

    #[test]
    fn solve_singular_detected() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 4.0]]);
        assert_eq!(a.solve(&[1.0, 2.0]).unwrap_err(), LinalgError::Singular);
    }

    #[test]
    fn cholesky_known() {
        let a = Matrix::from_rows(&[vec![4.0, 2.0], vec![2.0, 3.0]]);
        let l = cholesky(&a).unwrap();
        let recon = l.matmul(&l.transpose()).unwrap();
        assert!(recon.sub(&a).frobenius() < 1e-12);
    }

    #[test]
    fn cholesky_rejects_indefinite() {
        let a = Matrix::from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]);
        assert_eq!(cholesky(&a).unwrap_err(), LinalgError::NotPositiveDefinite);
    }

    #[test]
    fn spd_solve_matches_direct_solve() {
        let a = Matrix::from_rows(&[
            vec![6.0, 2.0, 1.0],
            vec![2.0, 5.0, 2.0],
            vec![1.0, 2.0, 4.0],
        ]);
        let b = [1.0, 2.0, 3.0];
        let x1 = a.solve(&b).unwrap();
        let x2 = solve_spd(&a, &b).unwrap();
        for (u, v) in x1.iter().zip(&x2) {
            assert!((u - v).abs() < 1e-10);
        }
    }

    #[test]
    fn least_squares_recovers_line() {
        // y = 3 + 2x with exact data, rows streamed into the normal
        // equations.
        let mut normal = crate::NormalEquations::new(2);
        for x in [0.0, 1.0, 2.0, 3.0, 4.0] {
            normal.push_row(&[1.0, x], 3.0 + 2.0 * x);
        }
        let beta = normal.solve(1e-9).unwrap();
        let want = [3.0, 2.0];
        assert_eq!(beta.len(), want.len());
        for (got, want) in beta.iter().zip(want) {
            assert!((got - want).abs() < 1e-6, "{beta:?}");
        }
    }

    /// Random SPD matrix as A = B Bᵀ + n·I.
    fn spd_matrix(rng: &mut SintelRng) -> Matrix {
        let n = 2 + rng.index(4);
        let d = (0..n * n).map(|_| rng.uniform_range(-3.0, 3.0)).collect();
        let b = Matrix::from_vec(n, n, d);
        let mut a = b.matmul(&b.transpose()).unwrap();
        for i in 0..n {
            a[(i, i)] += n as f64;
        }
        a
    }

    #[test]
    fn prop_cholesky_reconstructs() {
        let mut rng = SintelRng::seed_from_u64(0x2111);
        for _ in 0..256 {
            let a = spd_matrix(&mut rng);
            let l = cholesky(&a).unwrap();
            let recon = l.matmul(&l.transpose()).unwrap();
            assert!(recon.sub(&a).frobenius() < 1e-8 * (1.0 + a.frobenius()));
        }
    }

    #[test]
    fn prop_spd_solve_residual_small() {
        let mut rng = SintelRng::seed_from_u64(0x2112);
        for _ in 0..256 {
            let a = spd_matrix(&mut rng);
            let n = a.rows();
            let b: Vec<f64> = (0..n).map(|i| (i as f64) - 1.5).collect();
            let x = solve_spd(&a, &b).unwrap();
            let r = a.matvec(&x).unwrap();
            for (ri, bi) in r.iter().zip(&b) {
                assert!((ri - bi).abs() < 1e-6 * (1.0 + bi.abs() + a.frobenius()));
            }
        }
    }
}
