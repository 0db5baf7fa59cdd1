//! ARIMA(p, d, q) forecasting via the Hannan–Rissanen procedure.
//!
//! The paper's `arima` pipeline predicts each value from its recent past
//! and scores the discrepancy between prediction and observation. This
//! implementation:
//!
//! 1. differences the series `d` times;
//! 2. fits a long autoregression to estimate innovations;
//! 3. regresses the differenced series on its `p` lags and the `q` lagged
//!    innovations (ordinary least squares with a small ridge);
//! 4. produces rolling one-step-ahead forecasts, integrating the
//!    differences back to the original scale.
//!
//! Both regressions stream their lag rows straight from the series
//! through one reused row into [`NormalEquations`]: no design matrix is
//! built, so a fit makes the same few allocations at any length.

use std::borrow::Cow;

use sintel_linalg::NormalEquations;

use crate::{Result, StatsError};

/// A fitted ARIMA(p, d, q) model.
#[derive(Debug, Clone)]
pub struct Arima {
    p: usize,
    d: usize,
    q: usize,
    intercept: f64,
    /// AR coefficients (phi_1 … phi_p).
    phi: Vec<f64>,
    /// MA coefficients (theta_1 … theta_q).
    theta: Vec<f64>,
}

/// Difference `values` `d` times; `d = 0` borrows the input.
fn difference(values: &[f64], d: usize) -> Cow<'_, [f64]> {
    let mut out = Cow::Borrowed(values);
    for _ in 0..d {
        out = Cow::Owned(out.windows(2).map(|w| w[1] - w[0]).collect());
    }
    out
}

impl Arima {
    /// Fit ARIMA(p, d, q) to a series. Requires enough samples for the
    /// long-AR stage (`~ p + q + 20` after differencing).
    pub fn fit(values: &[f64], p: usize, d: usize, q: usize) -> Result<Self> {
        if p == 0 && q == 0 {
            return Err(StatsError::InvalidParameter("p and q cannot both be zero".into()));
        }
        if d > 2 {
            return Err(StatsError::InvalidParameter(format!("d={d} unsupported (max 2)")));
        }
        let y = difference(values, d);
        let long_order = (p + q + 3).max(6);
        let needed = long_order * 3 + p + q + 4;
        if y.len() < needed {
            return Err(StatsError::InsufficientData { needed, got: y.len() });
        }

        // Stage 1: long AR to estimate innovations.
        let long_coef = fit_ar(&y, long_order)?;
        let Some((long_intercept, long_lags)) = long_coef.split_first() else {
            return Err(StatsError::Numerical("empty long-AR coefficient vector".into()));
        };
        let mut resid = vec![0.0; y.len()];
        for t in long_order..y.len() {
            // Watchdogged runs poll for cancellation so an abandoned fit
            // stops instead of leaking its thread (amortised: the check
            // is off the flop path for all but 1 in 1024 iterations).
            if t % 1024 == 0 && sintel_common::cancelled() {
                return Err(StatsError::Cancelled);
            }
            let mut pred = *long_intercept;
            // Lags newest-first: y[t-1], y[t-2], … — same summation order
            // as explicit `y[t - 1 - k]` indexing, without the indexing.
            for (c, &lag) in long_lags.iter().zip(y[..t].iter().rev()) {
                pred += c * lag;
            }
            resid[t] = y[t] - pred;
        }

        // Stage 2: regress y_t on p lags of y and q lags of residuals.
        let start = long_order + q.max(p);
        let rows = y.len() - start;
        if rows < p + q + 2 {
            return Err(StatsError::InsufficientData { needed: start + p + q + 2, got: y.len() });
        }
        let mut normal = NormalEquations::new(1 + p + q);
        let mut row = Vec::with_capacity(1 + p + q);
        for (t, &target) in y.iter().enumerate().skip(start) {
            row.clear();
            row.push(1.0);
            // Lag columns newest-first, matching the prediction loops.
            row.extend(y[t - p..t].iter().rev());
            row.extend(resid[t - q..t].iter().rev());
            normal.push_row(&row, target);
        }
        let beta = normal.solve(1e-6).map_err(|e| StatsError::Numerical(e.to_string()))?;
        if beta.len() != 1 + p + q {
            return Err(StatsError::Numerical(format!(
                "least squares returned {} coefficients, expected {}",
                beta.len(),
                1 + p + q
            )));
        }

        Ok(Self {
            p,
            d,
            q,
            intercept: beta[0],
            phi: beta[1..1 + p].to_vec(),
            theta: beta[1 + p..1 + p + q].to_vec(),
        })
    }

    /// Model orders `(p, d, q)`.
    pub fn orders(&self) -> (usize, usize, usize) {
        (self.p, self.d, self.q)
    }

    /// Fitted `(intercept, phi, theta)`, for differential tests that
    /// compare a fit bitwise against a reference implementation.
    #[doc(hidden)]
    pub fn coefficients(&self) -> (f64, &[f64], &[f64]) {
        (self.intercept, &self.phi, &self.theta)
    }

    /// Rolling one-step-ahead forecast over `values`.
    ///
    /// Returns `(predictions, offset)`: `predictions[i]` forecasts
    /// `values[i + offset]` using only samples before it. The offset is
    /// the model's warm-up (`p + q + d`).
    pub fn predict_series(&self, values: &[f64]) -> Result<(Vec<f64>, usize)> {
        let offset = self.p.max(self.q) + self.d;
        if values.len() <= offset {
            return Err(StatsError::InsufficientData { needed: offset + 1, got: values.len() });
        }
        let y = difference(values, self.d);
        // Rolling residuals on the differenced scale.
        let mut resid = vec![0.0; y.len()];
        let warm = self.p.max(self.q);
        let mut preds = Vec::with_capacity(values.len() - offset);
        for t in warm..y.len() {
            if t % 1024 == 0 && sintel_common::cancelled() {
                return Err(StatsError::Cancelled);
            }
            let mut yhat = self.intercept;
            for (c, &lag) in self.phi.iter().zip(y[..t].iter().rev()) {
                yhat += c * lag;
            }
            for (c, &lag) in self.theta.iter().zip(resid[..t].iter().rev()) {
                yhat += c * lag;
            }
            resid[t] = y[t] - yhat;
            // Integrate back: with d=0 the forecast is yhat; with d=1 it
            // is previous original value + yhat; with d=2, accumulate.
            let pred_original = match self.d {
                0 => yhat,
                // y index t aligns with original t+1 target
                1 => match values.get(t) {
                    Some(&x) => x + yhat,
                    None => {
                        return Err(StatsError::Numerical(format!(
                            "integration index {t} out of range ({} values)",
                            values.len()
                        )))
                    }
                },
                _ => {
                    // d == 2: y_t = x_{t+2} - 2 x_{t+1} + x_t
                    match (values.get(t), values.get(t + 1)) {
                        (Some(&x0), Some(&x1)) => 2.0 * x1 - x0 + yhat,
                        _ => {
                            return Err(StatsError::Numerical(format!(
                                "integration index {} out of range ({} values)",
                                t + 1,
                                values.len()
                            )))
                        }
                    }
                }
            };
            preds.push(pred_original);
        }
        debug_assert_eq!(preds.len(), values.len() - offset);
        Ok((preds, offset))
    }
}

/// Fit an AR(`order`) model with intercept by least squares; returns
/// `[c, a_1 … a_order]`.
fn fit_ar(y: &[f64], order: usize) -> Result<Vec<f64>> {
    if y.len() < order * 2 + 2 {
        return Err(StatsError::InsufficientData { needed: order * 2 + 2, got: y.len() });
    }
    let mut normal = NormalEquations::new(order + 1);
    let mut row = Vec::with_capacity(order + 1);
    for (t, &target) in y.iter().enumerate().skip(order) {
        row.clear();
        row.push(1.0);
        row.extend(y[t - order..t].iter().rev());
        normal.push_row(&row, target);
    }
    normal.solve(1e-6).map_err(|e| StatsError::Numerical(e.to_string()))
}

impl Arima {
    /// Multi-step-ahead forecast: extend `history` by `horizon` values.
    ///
    /// Innovations beyond the observed history are taken as zero (their
    /// conditional expectation), so the forecast converges towards the
    /// process mean/trend as the MA memory runs out.
    pub fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>> {
        let warm = self.p.max(self.q);
        if history.len() < warm + self.d + 1 {
            return Err(StatsError::InsufficientData {
                needed: warm + self.d + 1,
                got: history.len(),
            });
        }
        // Differenced history and its rolling residuals.
        let mut x = history.to_vec();
        let mut y = difference(&x, self.d).into_owned();
        let mut resid = vec![0.0; y.len()];
        for t in warm..y.len() {
            let mut yhat = self.intercept;
            for (c, &lag) in self.phi.iter().zip(y[..t].iter().rev()) {
                yhat += c * lag;
            }
            for (c, &lag) in self.theta.iter().zip(resid[..t].iter().rev()) {
                yhat += c * lag;
            }
            resid[t] = y[t] - yhat;
        }
        let mut out = Vec::with_capacity(horizon);
        for _ in 0..horizon {
            let mut yhat = self.intercept;
            for (c, &lag) in self.phi.iter().zip(y.iter().rev()) {
                yhat += c * lag;
            }
            for (c, &lag) in self.theta.iter().zip(resid.iter().rev()) {
                yhat += c * lag;
            }
            // Integrate back to the original scale; the history-length
            // guard above means the tail patterns always match.
            let next = match (self.d, x.as_slice()) {
                (0, _) => yhat,
                (1, [.., last]) => last + yhat,
                (_, [.., prev, last]) => 2.0 * last - prev + yhat,
                _ => {
                    return Err(StatsError::InsufficientData { needed: 2, got: x.len() })
                }
            };
            y.push(yhat);
            resid.push(0.0); // future innovations expected zero
            x.push(next);
            out.push(next);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_common::SintelRng;

    fn ar1_series(phi: f64, n: usize, noise: f64, seed: u64) -> Vec<f64> {
        let mut rng = SintelRng::seed_from_u64(seed);
        let mut v = vec![0.0; n];
        for t in 1..n {
            v[t] = phi * v[t - 1] + rng.normal(0.0, noise);
        }
        v
    }

    #[test]
    fn recovers_ar1_coefficient() {
        let series = ar1_series(0.8, 2000, 0.5, 1);
        let model = Arima::fit(&series, 1, 0, 0).unwrap();
        assert!((model.phi[0] - 0.8).abs() < 0.05, "phi = {}", model.phi[0]);
    }

    #[test]
    fn predicts_ar1_better_than_mean() {
        let series = ar1_series(0.9, 1500, 0.3, 2);
        let (train, test) = series.split_at(1000);
        let model = Arima::fit(train, 2, 0, 1).unwrap();
        let (preds, offset) = model.predict_series(test).unwrap();
        let truth = &test[offset..];
        let model_mse = sintel_metricsless_mse(truth, &preds);
        let mean = sintel_common::mean(train);
        let mean_mse = truth.iter().map(|t| (t - mean) * (t - mean)).sum::<f64>()
            / truth.len() as f64;
        assert!(model_mse < mean_mse * 0.5, "model {model_mse} vs mean {mean_mse}");
    }

    // Local MSE to avoid a dev-dependency on sintel-metrics.
    fn sintel_metricsless_mse(a: &[f64], b: &[f64]) -> f64 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum::<f64>() / a.len() as f64
    }

    #[test]
    fn differencing_handles_trend() {
        // Linear trend + AR noise: d=1 should forecast well.
        let mut series = ar1_series(0.5, 1200, 0.2, 3);
        for (t, v) in series.iter_mut().enumerate() {
            *v += 0.05 * t as f64;
        }
        let model = Arima::fit(&series[..800], 2, 1, 0).unwrap();
        let (preds, offset) = model.predict_series(&series[800..]).unwrap();
        let truth = &series[800 + offset..];
        let mse = sintel_metricsless_mse(truth, &preds);
        assert!(mse < 0.5, "mse {mse}");
    }

    #[test]
    fn insufficient_data_rejected() {
        let err = Arima::fit(&[1.0; 10], 2, 0, 1).unwrap_err();
        assert!(matches!(err, StatsError::InsufficientData { .. }));
    }

    #[test]
    fn invalid_orders_rejected() {
        assert!(Arima::fit(&[1.0; 100], 0, 0, 0).is_err());
        assert!(Arima::fit(&ar1_series(0.5, 100, 0.1, 4), 1, 3, 0).is_err());
    }

    #[test]
    fn predict_alignment_offset() {
        let series = ar1_series(0.7, 600, 0.3, 5);
        let model = Arima::fit(&series, 3, 1, 1).unwrap();
        let (preds, offset) = model.predict_series(&series).unwrap();
        assert_eq!(offset, 4); // max(p, q) + d = 3 + 1
        assert_eq!(preds.len(), series.len() - offset);
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn forecast_extends_trend_and_converges() {
        // Damped AR(1): forecasts decay towards the mean.
        let series = ar1_series(0.8, 1500, 0.2, 7);
        let model = Arima::fit(&series, 1, 0, 0).unwrap();
        let fc = model.forecast(&series, 50).unwrap();
        assert_eq!(fc.len(), 50);
        assert!(fc.iter().all(|v| v.is_finite()));
        // Magnitude shrinks towards the process mean (~0).
        assert!(fc[49].abs() <= fc[0].abs() + 0.2);
        // Too-short history is rejected.
        assert!(model.forecast(&series[..1], 5).is_err());
    }

    #[test]
    fn forecast_with_differencing_follows_trend() {
        let mut series = ar1_series(0.3, 900, 0.05, 8);
        for (t, v) in series.iter_mut().enumerate() {
            *v += 0.1 * t as f64;
        }
        let model = Arima::fit(&series, 2, 1, 0).unwrap();
        let fc = model.forecast(&series, 20).unwrap();
        // The d=1 model keeps climbing with the trend (~0.1/step).
        let slope = (fc[19] - fc[0]) / 19.0;
        assert!((slope - 0.1).abs() < 0.05, "slope {slope}");
    }

    #[test]
    fn difference_helper() {
        assert_eq!(difference(&[1.0, 3.0, 6.0, 10.0], 1), vec![2.0, 3.0, 4.0]);
        assert_eq!(difference(&[1.0, 3.0, 6.0, 10.0], 2), vec![1.0, 1.0]);
        assert_eq!(difference(&[5.0], 0), vec![5.0]);
    }

    #[test]
    fn constant_series_fits_without_blowup() {
        // Degenerate input: ridge keeps the solve stable.
        let v = vec![3.0; 200];
        let model = Arima::fit(&v, 2, 0, 0).unwrap();
        let (preds, _) = model.predict_series(&v).unwrap();
        for p in preds {
            assert!((p - 3.0).abs() < 1e-3);
        }
    }
}
