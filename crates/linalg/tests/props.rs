//! Property-based suite for the linear-algebra kernels, built on
//! `sintel_common::check`. Every failure prints a replayable case seed;
//! rerun with `SINTEL_CHECK_SEED=<root>` to reproduce a whole suite run.

use sintel_common::check::{forall, shrinks, Config};
use sintel_common::SintelRng;
use sintel_linalg::{cholesky, solve_spd, LinalgError, Matrix, NormalEquations};

/// Random matrix with entries in `[-2, 2]`.
fn random_matrix(rng: &mut SintelRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols).map(|_| rng.uniform_range(-2.0, 2.0)).collect();
    Matrix::from_vec(rows, cols, data)
}

/// Random symmetric positive-definite matrix: `BᵀB + n·I`.
fn random_spd(rng: &mut SintelRng, n: usize) -> Matrix {
    let b = random_matrix(rng, n, n);
    let bt_b = b.transpose().matmul(&b).expect("square dims agree");
    bt_b.add(&Matrix::identity(n).scale(n as f64))
}

/// Frobenius norm of the elementwise difference.
fn frobenius_diff(a: &Matrix, b: &Matrix) -> f64 {
    a.sub(b).frobenius()
}

#[test]
fn matmul_is_associative_up_to_rounding() {
    forall(
        "matmul associativity (A·B)·C ≈ A·(B·C)",
        &Config::default(),
        |rng| {
            let (r, k, m, n) = (
                rng.int_range(1, 7) as usize,
                rng.int_range(1, 7) as usize,
                rng.int_range(1, 7) as usize,
                rng.int_range(1, 7) as usize,
            );
            (random_matrix(rng, r, k), random_matrix(rng, k, m), random_matrix(rng, m, n))
        },
        shrinks::none,
        |(a, b, c)| {
            let left = a.matmul(b).map_err(|e| e.to_string())?.matmul(c);
            let right = a.matmul(&b.matmul(c).map_err(|e| e.to_string())?);
            let left = left.map_err(|e| e.to_string())?;
            let right = right.map_err(|e| e.to_string())?;
            let scale = left.frobenius().max(1.0);
            let diff = frobenius_diff(&left, &right);
            if diff <= 1e-9 * scale {
                Ok(())
            } else {
                Err(format!("associativity violated: ‖(AB)C - A(BC)‖ = {diff:e}"))
            }
        },
    );
}

#[test]
fn spd_solve_round_trips_a_x_eq_b() {
    forall(
        "solve_spd(A, A·x) ≈ x for SPD A",
        &Config::default(),
        |rng| {
            let n = rng.int_range(1, 9) as usize;
            let a = random_spd(rng, n);
            let x: Vec<f64> = (0..n).map(|_| rng.uniform_range(-3.0, 3.0)).collect();
            (a, x)
        },
        shrinks::none,
        |(a, x)| {
            let b = a.matvec(x).map_err(|e| e.to_string())?;
            let solved = solve_spd(a, &b).map_err(|e| e.to_string())?;
            let err: f64 = solved
                .iter()
                .zip(x)
                .map(|(s, t)| (s - t).abs())
                .fold(0.0, f64::max);
            let scale = x.iter().fold(1.0f64, |m, v| m.max(v.abs()));
            if err <= 1e-7 * scale {
                Ok(())
            } else {
                Err(format!("round-trip error {err:e} exceeds tolerance"))
            }
        },
    );
}

#[test]
fn cholesky_factor_reconstructs_a() {
    forall(
        "cholesky(A) gives L with L·Lᵀ ≈ A",
        &Config::default(),
        |rng| {
            let n = rng.int_range(1, 9) as usize;
            random_spd(rng, n)
        },
        shrinks::none,
        |a| {
            let l = cholesky(a).map_err(|e| e.to_string())?;
            let rebuilt = l.matmul(&l.transpose()).map_err(|e| e.to_string())?;
            let diff = frobenius_diff(a, &rebuilt);
            let scale = a.frobenius().max(1.0);
            if diff <= 1e-9 * scale {
                Ok(())
            } else {
                Err(format!("‖L·Lᵀ - A‖ = {diff:e}"))
            }
        },
    );
}

#[test]
fn lu_solve_round_trips_a_x_eq_b() {
    forall(
        "Matrix::solve(A·x) ≈ x for well-conditioned A",
        &Config::default(),
        |rng| {
            let n = rng.int_range(1, 9) as usize;
            // Diagonally dominant => nonsingular and well conditioned.
            let mut a = random_matrix(rng, n, n);
            for i in 0..n {
                let boost = 4.0 * n as f64;
                let v = a.row(i)[i] + boost;
                a.row_mut(i)[i] = v;
            }
            let x: Vec<f64> = (0..n).map(|_| rng.uniform_range(-3.0, 3.0)).collect();
            (a, x)
        },
        shrinks::none,
        |(a, x)| {
            let b = a.matvec(x).map_err(|e| e.to_string())?;
            let solved = a.solve(&b).map_err(|e| e.to_string())?;
            let err: f64 = solved
                .iter()
                .zip(x)
                .map(|(s, t)| (s - t).abs())
                .fold(0.0, f64::max);
            if err <= 1e-7 {
                Ok(())
            } else {
                Err(format!("LU round-trip error {err:e}"))
            }
        },
    );
}

/// Random matrix with ~20% exact zeros, so the kernels' `a == 0.0`
/// skip path is exercised alongside the dense path.
fn random_sparse_matrix(rng: &mut SintelRng, rows: usize, cols: usize) -> Matrix {
    let data: Vec<f64> = (0..rows * cols)
        .map(|_| if rng.index(5) == 0 { 0.0 } else { rng.uniform_range(-2.0, 2.0) })
        .collect();
    Matrix::from_vec(rows, cols, data)
}

/// Run the scalar reference kernel (the reduction-order specification
/// of DESIGN.md §4j) over all rows.
fn matmul_scalar_reference(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    a.matmul_rows_scalar_into(b, 0..a.rows(), out.as_mut_slice());
    out
}

/// Run the vectorized lane kernel over all rows (the serial path of
/// `Matrix::matmul`).
fn matmul_lane_kernel(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    a.matmul_rows_into(b, 0..a.rows(), out.as_mut_slice());
    out
}

fn assert_bitwise(name: &str, want: &Matrix, got: &Matrix) -> Result<(), String> {
    for (i, (w, g)) in want.as_slice().iter().zip(got.as_slice()).enumerate() {
        if w.to_bits() != g.to_bits() {
            return Err(format!("{name}: element {i} differs: reference {w:?} vs {g:?}"));
        }
    }
    Ok(())
}

/// The tentpole property: the lane-accumulator kernel is bitwise equal
/// to the scalar i-k-j reference at *every* shape — in particular at
/// remainder widths (`out_cols % MATMUL_LANES != 0`).
#[test]
fn lane_kernel_matches_scalar_reference_bitwise() {
    forall(
        "lane kernel == scalar reference, bitwise, any shape",
        &Config::default(),
        |rng| {
            let r = rng.int_range(1, 34) as usize;
            let k = rng.int_range(1, 12) as usize;
            // Half the cases force a remainder width; the rest roam,
            // covering exact multiples of the lane count too.
            let m = if rng.index(2) == 0 {
                let rem = 1 + rng.index(Matrix::MATMUL_LANES - 1);
                Matrix::MATMUL_LANES * rng.index(3) + rem
            } else {
                rng.int_range(1, 3 * Matrix::MATMUL_LANES as i64) as usize
            };
            (random_sparse_matrix(rng, r, k), random_sparse_matrix(rng, k, m))
        },
        shrinks::none,
        |(a, b)| {
            let reference = matmul_scalar_reference(a, b);
            assert_bitwise("serial lane kernel", &reference, &matmul_lane_kernel(a, b))
        },
    );
}

/// A matrix-product kernel under test.
type Kernel = fn(&Matrix, &Matrix) -> Matrix;

/// MUTANT (for the harness-sensitivity proof below): a lane kernel
/// that forgets the remainder columns, leaving them zero.
fn mutant_dropped_remainder(a: &Matrix, b: &Matrix) -> Matrix {
    const LANES: usize = Matrix::MATMUL_LANES;
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let out_cols = b.cols();
    for (i, out_row) in out.as_mut_slice().chunks_exact_mut(out_cols.max(1)).enumerate() {
        let mut j = 0usize;
        for out_chunk in out_row.chunks_exact_mut(LANES) {
            let mut acc = [0.0f64; LANES];
            for (k, &v) in a.row(i).iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                for (acc_l, &b_l) in acc.iter_mut().zip(&b.row(k)[j..j + LANES]) {
                    *acc_l += v * b_l;
                }
            }
            out_chunk.copy_from_slice(&acc);
            j += LANES;
        }
        // BUG: remainder columns never computed.
    }
    out
}

/// MUTANT: accumulates `k` *descending* — same math over the reals,
/// different floating-point reduction order.
fn mutant_reordered_reduction(a: &Matrix, b: &Matrix) -> Matrix {
    let mut out = Matrix::zeros(a.rows(), b.cols());
    let out_cols = b.cols();
    for (i, out_row) in out.as_mut_slice().chunks_exact_mut(out_cols.max(1)).enumerate() {
        for (k, &v) in a.row(i).iter().enumerate().rev() {
            if v == 0.0 {
                continue;
            }
            for (o, &b_l) in out_row.iter_mut().zip(b.row(k)) {
                *o += v * b_l;
            }
        }
    }
    out
}

/// Drive `forall` against a mutated kernel and return the panic report
/// it must produce.
fn catch_mutant_report(name: &'static str, mutant: Kernel) -> String {
    let result = std::panic::catch_unwind(|| {
        forall(
            name,
            &Config::default(),
            |rng| {
                let r = rng.int_range(1, 10) as usize;
                let k = rng.int_range(3, 12) as usize;
                // Guaranteed remainder width so the dropped-remainder
                // mutant has something to drop.
                let m = Matrix::MATMUL_LANES * rng.index(2) + 1 + rng.index(Matrix::MATMUL_LANES - 1);
                (random_sparse_matrix(rng, r, k), random_sparse_matrix(rng, k, m))
            },
            shrinks::none,
            |(a, b)| assert_bitwise(name, &matmul_scalar_reference(a, b), &mutant(a, b)),
        )
    });
    let payload = result.expect_err("the mutated kernel must be caught by the property");
    sintel_common::panic_message(payload.as_ref())
}

/// Extract `prefix <u64>` from a forall report.
fn parse_seed(report: &str, prefix: &str) -> u64 {
    let at = report.find(prefix).unwrap_or_else(|| panic!("report lacks `{prefix}`: {report}"));
    report[at + prefix.len()..]
        .split(|c: char| !c.is_ascii_digit())
        .next()
        .and_then(|digits| digits.parse().ok())
        .unwrap_or_else(|| panic!("unparseable seed after `{prefix}`: {report}"))
}

/// Seeded-mutation sensitivity proof: both kernel mutations are caught
/// by the bitwise property, the failure report carries a case seed and
/// a `SINTEL_CHECK_SEED` root, and replaying that exact seed fails
/// again — so a reported counterexample is reproducible forever.
#[test]
fn seeded_kernel_mutations_are_caught_and_replayable() {
    let mutants: [(&'static str, Kernel); 2] = [
        ("MUTANT dropped remainder lane", mutant_dropped_remainder),
        ("MUTANT reordered accumulator reduction", mutant_reordered_reduction),
    ];
    for (name, mutant) in mutants {
        let report = catch_mutant_report(name, mutant);
        assert!(
            report.contains(sintel_common::check::CHECK_SEED_ENV),
            "report must tell the user how to replay the run: {report}"
        );
        let root = parse_seed(&report, "root seed ");
        let case = parse_seed(&report, "case seed ");
        assert_eq!(
            root,
            Config::default().seed,
            "the printed root must be the suite seed SINTEL_CHECK_SEED would set"
        );
        // Replay the single failing case from its derived seed alone.
        let (_, replayed) = sintel_common::check::replay(
            case,
            |rng| {
                let r = rng.int_range(1, 10) as usize;
                let k = rng.int_range(3, 12) as usize;
                let m = Matrix::MATMUL_LANES * rng.index(2) + 1 + rng.index(Matrix::MATMUL_LANES - 1);
                (random_sparse_matrix(rng, r, k), random_sparse_matrix(rng, k, m))
            },
            |(a, b): &(Matrix, Matrix)| {
                assert_bitwise(name, &matmul_scalar_reference(a, b), &mutant(a, b))
            },
        );
        assert!(replayed.is_err(), "replaying case seed {case} must fail again ({name})");
    }
}

#[test]
fn transpose_is_an_involution() {
    forall(
        "A.transpose().transpose() == A, bitwise",
        &Config::default(),
        |rng| {
            let (r, c) = (rng.int_range(1, 16) as usize, rng.int_range(1, 16) as usize);
            random_matrix(rng, r, c)
        },
        shrinks::none,
        |a| {
            let round = a.transpose().transpose();
            if round.rows() != a.rows() || round.cols() != a.cols() {
                return Err("transpose round-trip changed shape".into());
            }
            for (i, (x, y)) in a.as_slice().iter().zip(round.as_slice()).enumerate() {
                if x.to_bits() != y.to_bits() {
                    return Err(format!("element {i} changed: {x:?} -> {y:?}"));
                }
            }
            Ok(())
        },
    );
}

/// The ridge normal-equations system, materialized: `Aᵀ`, then `AᵀA`
/// by `matmul` plus the ridge, and `Aᵀb` by `matvec`. The oracle for
/// `NormalEquations` (DESIGN.md §4j).
fn normal_system_reference(a: &Matrix, b: &[f64], ridge: f64) -> Result<(Matrix, Vec<f64>), LinalgError> {
    let at = a.transpose();
    let mut ata = at.matmul(a)?;
    for i in 0..ata.rows() {
        ata[(i, i)] += ridge;
    }
    let atb = at.matvec(b)?;
    Ok((ata, atb))
}

/// Ridge least squares by the materialized reference system.
fn least_squares_reference(a: &Matrix, b: &[f64], ridge: f64) -> Result<Vec<f64>, LinalgError> {
    let (ata, atb) = normal_system_reference(a, b, ridge)?;
    ata.solve(&atb)
}

/// One entry of a random design: mostly uniform, with exact zeros and
/// `-0.0` always possible and `±inf`/NaN when `special` is non-zero.
fn design_entry(rng: &mut SintelRng, special: f64) -> f64 {
    if rng.chance(special) {
        return *rng.choice(&[f64::INFINITY, f64::NEG_INFINITY, f64::NAN]);
    }
    match rng.index(8) {
        0 => 0.0,
        1 => -0.0,
        _ => rng.uniform_range(-3.0, 3.0),
    }
}

/// Bitwise equality, with every NaN equal to every other: Rust leaves
/// the sign and payload of a computed NaN unspecified, so only NaN-ness
/// is reproducible.
fn bits_equal(want: &[f64], got: &[f64]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!("length {} vs {}", want.len(), got.len()));
    }
    for (i, (w, g)) in want.iter().zip(got).enumerate() {
        if w.to_bits() != g.to_bits() && !(w.is_nan() && g.is_nan()) {
            return Err(format!("entry {i}: reference {w:?} vs streamed {g:?}"));
        }
    }
    Ok(())
}

/// The streamed normal equations solve to exactly the bits of the
/// materialized transpose·matmul·matvec·solve oracle, and fail with the
/// same error variant. Designs span one to 100 rows and up to 13
/// columns, with exact zeros and `-0.0` everywhere and, in half the
/// cases, `±inf`/NaN in the regressors or the targets.
#[test]
fn streamed_normal_equations_match_materialized_oracle_bitwise() {
    forall(
        "NormalEquations == transpose·matmul·matvec·solve, bitwise",
        &Config::default().cases(512),
        |rng| {
            let rows = match rng.index(4) {
                0 => 1,
                1 => rng.int_range(1, 8) as usize,
                _ => rng.int_range(1, 101) as usize,
            };
            let cols = rng.int_range(1, 14) as usize;
            let special = if rng.chance(0.5) { 0.0 } else { rng.uniform_range(0.0, 0.05) };
            // Sometimes a whole zero column, so the ridge-free solve is singular.
            let zero_col = rng.chance(0.1).then(|| rng.index(cols));
            let data: Vec<f64> = (0..rows * cols)
                .map(|k| {
                    if zero_col == Some(k % cols) {
                        0.0
                    } else {
                        design_entry(rng, special)
                    }
                })
                .collect();
            let b: Vec<f64> = (0..rows).map(|_| design_entry(rng, special)).collect();
            let ridge = *rng.choice(&[0.0, 1e-6, 1.0]);
            (Matrix::from_vec(rows, cols, data), b, ridge)
        },
        shrinks::none,
        |(a, b, ridge)| {
            let mut normal = NormalEquations::new(a.cols());
            for (row, &target) in a.row_iter().zip(b) {
                normal.push_row(row, target);
            }
            // The accumulated system itself, entry by entry: a wrong
            // entry must show even where the solve turns it into NaN.
            let (ata, atb) = normal_system_reference(a, b, *ridge).map_err(|e| format!("{e:?}"))?;
            let (got_ata, got_atb) = normal.clone().into_system(*ridge);
            bits_equal(ata.as_slice(), got_ata.as_slice()).map_err(|e| format!("XᵀX: {e}"))?;
            bits_equal(&atb, &got_atb).map_err(|e| format!("Xᵀb: {e}"))?;
            let want = least_squares_reference(a, b, *ridge);
            let got = normal.solve(*ridge);
            match (&want, &got) {
                (Ok(w), Ok(g)) => bits_equal(w, g),
                (Err(w), Err(g)) if std::mem::discriminant(w) == std::mem::discriminant(g) => {
                    Ok(())
                }
                _ => Err(format!("reference {want:?} vs streamed {got:?}")),
            }
        },
    );
}
