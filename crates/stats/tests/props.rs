//! Property-based suite for the statistical detectors, built on
//! `sintel_common::check`. Failures print a replayable case seed; rerun
//! a whole suite run with `SINTEL_CHECK_SEED=<root>`.

use sintel_common::check::{forall, shrinks, Config};
use sintel_common::SintelRng;
use sintel_linalg::Matrix;
use sintel_stats::{fixed_threshold, Arima, StatsError};

/// Random non-negative error series with a few injected spikes, the
/// shape `fixed_threshold` sees in the pipeline (absolute residuals).
fn random_errors(rng: &mut SintelRng) -> Vec<f64> {
    let n = rng.int_range(20, 200) as usize;
    let mut errors: Vec<f64> = (0..n).map(|_| rng.normal_std().abs()).collect();
    for _ in 0..rng.int_range(0, 4) {
        let i = rng.index(errors.len());
        errors[i] += rng.uniform_range(2.0, 10.0);
    }
    errors
}

/// Total number of samples covered by the detected spans.
fn flagged_samples(spans: &[sintel_stats::AnomalySpan]) -> usize {
    spans.iter().map(|s| s.end - s.start + 1).sum()
}

/// Raising the sigma multiplier `k` raises the threshold `µ + k·σ`, so
/// the set of flagged samples can only shrink — monotonicity in z. A
/// mutation that breaks threshold pruning (e.g. comparing with the
/// wrong inequality) fails this with a replayable seed.
#[test]
fn fixed_threshold_is_monotone_in_k() {
    forall(
        "fixed_threshold flags monotonically fewer samples as k grows",
        &Config::default(),
        |rng| {
            let errors = random_errors(rng);
            let k_lo = rng.uniform_range(0.0, 3.0);
            let k_hi = k_lo + rng.uniform_range(0.1, 3.0);
            (errors, k_lo, k_hi)
        },
        |(errors, k_lo, k_hi)| {
            shrinks::truncate_vec(errors)
                .into_iter()
                .map(|e| (e, *k_lo, *k_hi))
                .collect()
        },
        |(errors, k_lo, k_hi)| {
            let lo = fixed_threshold(errors, *k_lo).map_err(|e| e.to_string())?;
            let hi = fixed_threshold(errors, *k_hi).map_err(|e| e.to_string())?;
            let (n_lo, n_hi) = (flagged_samples(&lo), flagged_samples(&hi));
            if n_hi <= n_lo {
                Ok(())
            } else {
                Err(format!(
                    "k={k_hi} flagged {n_hi} samples but lower k={k_lo} flagged only {n_lo}"
                ))
            }
        },
    );
}

/// Every sample a fixed-threshold span covers must actually exceed the
/// threshold `µ + k·σ` somewhere in the span, and spans must be
/// in-bounds, ordered, and non-overlapping.
#[test]
fn fixed_threshold_spans_are_well_formed() {
    forall(
        "fixed_threshold spans are ordered, disjoint, in bounds",
        &Config::default(),
        |rng| (random_errors(rng), rng.uniform_range(0.5, 4.0)),
        |(errors, k)| {
            shrinks::truncate_vec(errors).into_iter().map(|e| (e, *k)).collect()
        },
        |(errors, k)| {
            let spans = fixed_threshold(errors, *k).map_err(|e| e.to_string())?;
            let mut prev_end: Option<usize> = None;
            for s in &spans {
                if s.start > s.end || s.end >= errors.len() {
                    return Err(format!("span {}..={} out of bounds", s.start, s.end));
                }
                if let Some(p) = prev_end {
                    if s.start <= p {
                        return Err(format!(
                            "span {}..={} overlaps or precedes previous end {p}",
                            s.start, s.end
                        ));
                    }
                }
                if !s.score.is_finite() || s.score < 0.0 {
                    return Err(format!("span score {} not finite/non-negative", s.score));
                }
                prev_end = Some(s.end);
            }
            Ok(())
        },
    );
}

/// Fit ARIMA on a random stationary AR(1) series and forecast: every
/// forecast value must be finite. Catches coefficient blow-ups and NaN
/// propagation in the two-stage Hannan–Rissanen fit.
#[test]
fn arima_forecasts_are_finite_on_stationary_series() {
    forall(
        "Arima::forecast is finite on random stationary AR(1) input",
        &Config::default().cases(48),
        |rng| {
            let n = rng.int_range(80, 240) as usize;
            let phi = rng.uniform_range(-0.8, 0.8);
            let mut x = 0.0f64;
            let series: Vec<f64> = (0..n)
                .map(|_| {
                    x = phi * x + rng.normal_std();
                    x
                })
                .collect();
            let horizon = rng.int_range(1, 12) as usize;
            (series, horizon)
        },
        shrinks::none,
        |(series, horizon)| {
            let model = Arima::fit(series, 2, 0, 1).map_err(|e| e.to_string())?;
            let forecast = model.forecast(series, *horizon).map_err(|e| e.to_string())?;
            if forecast.len() != *horizon {
                return Err(format!(
                    "asked for {horizon} steps, got {}",
                    forecast.len()
                ));
            }
            if let Some(bad) = forecast.iter().find(|v| !v.is_finite()) {
                return Err(format!("non-finite forecast value {bad}"));
            }
            Ok(())
        },
    );
}

/// Least squares by the materialized normal equations: `Aᵀ`, then
/// `AᵀA` by `matmul` and `Aᵀb` by `matvec`, ridge, solve.
fn materialized_least_squares(rows: &[Vec<f64>], b: &[f64], ridge: f64) -> Result<Vec<f64>, String> {
    let a = Matrix::from_rows(rows);
    let at = a.transpose();
    let mut ata = at.matmul(&a).map_err(|e| e.to_string())?;
    for i in 0..ata.rows() {
        ata[(i, i)] += ridge;
    }
    let atb = at.matvec(b).map_err(|e| e.to_string())?;
    ata.solve(&atb).map_err(|e| e.to_string())
}

/// Specification of `Arima::fit`: the Hannan–Rissanen fit with both
/// lag designs built as matrices and solved by
/// [`materialized_least_squares`]. Returns `(intercept, phi, theta)`,
/// or the `InsufficientData` bounds the fit must report.
#[allow(clippy::type_complexity)]
fn arima_spec(
    values: &[f64],
    p: usize,
    d: usize,
    q: usize,
) -> Result<(f64, Vec<f64>, Vec<f64>), Result<(usize, usize), String>> {
    let mut y = values.to_vec();
    for _ in 0..d {
        y = y.windows(2).map(|w| w[1] - w[0]).collect();
    }
    let long_order = (p + q + 3).max(6);
    let needed = long_order * 3 + p + q + 4;
    if y.len() < needed {
        return Err(Ok((needed, y.len())));
    }
    let (long_rows, long_target): (Vec<Vec<f64>>, Vec<f64>) = (long_order..y.len())
        .map(|t| {
            let mut row = vec![1.0];
            row.extend((1..=long_order).map(|k| y[t - k]));
            (row, y[t])
        })
        .unzip();
    let long = materialized_least_squares(&long_rows, &long_target, 1e-6).map_err(Err)?;
    let mut resid = vec![0.0; y.len()];
    for t in long_order..y.len() {
        let mut pred = long[0];
        for k in 1..=long_order {
            pred += long[k] * y[t - k];
        }
        resid[t] = y[t] - pred;
    }
    let start = long_order + q.max(p);
    let (rows, target): (Vec<Vec<f64>>, Vec<f64>) = (start..y.len())
        .map(|t| {
            let mut row = vec![1.0];
            row.extend((1..=p).map(|k| y[t - k]));
            row.extend((1..=q).map(|k| resid[t - k]));
            (row, y[t])
        })
        .unzip();
    let beta = materialized_least_squares(&rows, &target, 1e-6).map_err(Err)?;
    Ok((beta[0], beta[1..1 + p].to_vec(), beta[1 + p..].to_vec()))
}

/// Bitwise equality, with every NaN equal to every other (Rust leaves
/// a computed NaN's sign and payload unspecified).
fn same_bits(a: f64, b: f64) -> bool {
    a.to_bits() == b.to_bits() || (a.is_nan() && b.is_nan())
}

/// `Arima::fit` streams its lag rows through `NormalEquations`; its
/// coefficients must be bitwise those of the materialized-design
/// specification for every order the `arima` primitive accepts
/// (`p` 1–12, `d` 0–2, `q` 0–6), at lengths around the
/// `InsufficientData` boundary, and it must fail where the
/// specification fails. A few series carry exact zeros, runs of a
/// constant, or a non-finite sample.
#[test]
fn arima_fit_matches_materialized_design_spec_bitwise() {
    forall(
        "Arima::fit == materialized Hannan–Rissanen spec, bitwise",
        &Config::default().cases(256),
        |rng| {
            let p = rng.int_range(1, 13) as usize;
            let d = rng.int_range(0, 3) as usize;
            let q = rng.int_range(0, 7) as usize;
            let needed = (p + q + 3).max(6) * 3 + p + q + 4 + d;
            let n = (needed as i64 + rng.int_range(-3, 60)).max(0) as usize;
            let phi = rng.uniform_range(-0.9, 0.9);
            let mut x = 0.0f64;
            let mut series: Vec<f64> = (0..n)
                .map(|_| {
                    x = phi * x + rng.normal_std();
                    x
                })
                .collect();
            match rng.index(6) {
                0 if n > 0 => {
                    for _ in 0..n / 4 {
                        let i = rng.index(n);
                        series[i] = 0.0;
                    }
                }
                1 if n > 0 => {
                    let from = rng.index(n);
                    let len = rng.index(n - from) + 1;
                    series[from..from + len].fill(1.5);
                }
                2 if n > 0 => {
                    let i = rng.index(n);
                    series[i] = *rng.choice(&[f64::NAN, f64::INFINITY, f64::NEG_INFINITY]);
                }
                _ => {}
            }
            (series, p, d, q)
        },
        shrinks::none,
        |(series, p, d, q)| {
            let want = arima_spec(series, *p, *d, *q);
            let got = Arima::fit(series, *p, *d, *q);
            match (&want, &got) {
                (Ok((c, phi, theta)), Ok(model)) => {
                    let (gc, gphi, gtheta) = model.coefficients();
                    let same = same_bits(*c, gc)
                        && phi.len() == gphi.len()
                        && theta.len() == gtheta.len()
                        && phi.iter().zip(gphi).all(|(a, b)| same_bits(*a, *b))
                        && theta.iter().zip(gtheta).all(|(a, b)| same_bits(*a, *b));
                    if same {
                        Ok(())
                    } else {
                        Err(format!("spec ({c:?}, {phi:?}, {theta:?}) vs fit {:?}", model.coefficients()))
                    }
                }
                (Err(Ok((needed, got_len))), Err(StatsError::InsufficientData { needed: n, got: g }))
                    if needed == n && got_len == g =>
                {
                    Ok(())
                }
                (Err(Err(msg)), Err(StatsError::Numerical(m))) if msg == m => Ok(()),
                _ => Err(format!("spec {want:?} vs fit {got:?}")),
            }
        },
    );
}
