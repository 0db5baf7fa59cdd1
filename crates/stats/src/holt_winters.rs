//! Holt–Winters additive triple exponential smoothing — the second
//! forecaster of the paper's ARIMA reference (Pena et al. \[37\] evaluate
//! "ARIMA and HWDS"), added to the hub as an extension pipeline.

use crate::{Result, StatsError};

/// A fitted additive Holt–Winters model.
#[derive(Debug, Clone)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    gamma: f64,
    period: usize,
}

impl HoltWinters {
    /// Create with smoothing factors in `(0, 1)` and a seasonal period.
    pub fn new(alpha: f64, beta: f64, gamma: f64, period: usize) -> Result<Self> {
        for (name, v) in [("alpha", alpha), ("beta", beta), ("gamma", gamma)] {
            if !(0.0..=1.0).contains(&v) {
                return Err(StatsError::InvalidParameter(format!("{name}={v} not in [0,1]")));
            }
        }
        if period < 2 {
            return Err(StatsError::InvalidParameter(format!("period {period} must be >= 2")));
        }
        Ok(Self { alpha, beta, gamma, period })
    }

    /// Rolling one-step-ahead forecasts over `values`.
    ///
    /// Returns `(predictions, offset)`: `predictions[i]` forecasts
    /// `values[i + offset]` using only earlier samples. The warm-up is
    /// one full season (plus one sample for the trend estimate).
    pub fn predict_series(&self, values: &[f64]) -> Result<(Vec<f64>, usize)> {
        let p = self.period;
        let offset = p + 1;
        if values.len() < offset + p {
            return Err(StatsError::InsufficientData { needed: offset + p, got: values.len() });
        }

        // Initial state from the first season.
        let mut level = sintel_common::mean(&values[..p]);
        let mut trend = (values[p] - values[0]) / p as f64;
        let mut season: Vec<f64> = values[..p].iter().map(|v| v - level).collect();

        let mut preds = Vec::with_capacity(values.len() - offset);
        for t in offset..values.len() {
            // Forecast before seeing values[t].
            let s = season[t % p];
            preds.push(level + trend + s);
            // Update with the observation.
            let x = values[t];
            let last_level = level;
            level = self.alpha * (x - s) + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - last_level) + (1.0 - self.beta) * trend;
            season[t % p] = self.gamma * (x - level) + (1.0 - self.gamma) * s;
        }
        Ok((preds, offset))
    }
}

impl HoltWinters {
    /// Multi-step-ahead forecast: run the smoothing state through
    /// `history`, then project `horizon` values ahead
    /// (`level + h*trend + season`).
    pub fn forecast(&self, history: &[f64], horizon: usize) -> Result<Vec<f64>> {
        let p = self.period;
        if history.len() < 2 * p + 1 {
            return Err(StatsError::InsufficientData { needed: 2 * p + 1, got: history.len() });
        }
        let mut level = sintel_common::mean(&history[..p]);
        let mut trend = (history[p] - history[0]) / p as f64;
        let mut season: Vec<f64> = history[..p].iter().map(|v| v - level).collect();
        for (t, &x) in history.iter().enumerate().skip(p + 1) {
            let s = season[t % p];
            let last_level = level;
            level = self.alpha * (x - s) + (1.0 - self.alpha) * (level + trend);
            trend = self.beta * (level - last_level) + (1.0 - self.beta) * trend;
            season[t % p] = self.gamma * (x - level) + (1.0 - self.gamma) * s;
        }
        let n = history.len();
        Ok((1..=horizon)
            .map(|h| level + h as f64 * trend + season[(n + h - 1) % p])
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_common::SintelRng;

    #[test]
    fn forecasts_seasonal_series_well() {
        let period = 24;
        let mut rng = SintelRng::seed_from_u64(7);
        let values: Vec<f64> = (0..600)
            .map(|t| {
                10.0 + 0.01 * t as f64
                    + 3.0 * (std::f64::consts::TAU * t as f64 / period as f64).sin()
                    + rng.normal(0.0, 0.1)
            })
            .collect();
        let hw = HoltWinters::new(0.3, 0.05, 0.2, period).unwrap();
        let (preds, offset) = hw.predict_series(&values).unwrap();
        let truth = &values[offset..];
        let mae: f64 = preds
            .iter()
            .zip(truth)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / preds.len() as f64;
        assert!(mae < 0.6, "mae {mae}");
    }

    #[test]
    fn parameter_validation() {
        assert!(HoltWinters::new(1.5, 0.1, 0.1, 12).is_err());
        assert!(HoltWinters::new(0.5, -0.1, 0.1, 12).is_err());
        assert!(HoltWinters::new(0.5, 0.1, 0.1, 1).is_err());
        let hw = HoltWinters::new(0.5, 0.1, 0.1, 12).unwrap();
        assert!(hw.predict_series(&[0.0; 20]).is_err());
    }

    #[test]
    fn forecast_continues_the_season() {
        let period = 24;
        let series: Vec<f64> = (0..480)
            .map(|t| 10.0 + 3.0 * (std::f64::consts::TAU * t as f64 / period as f64).sin())
            .collect();
        let hw = HoltWinters::new(0.3, 0.05, 0.3, period).unwrap();
        let fc = hw.forecast(&series, 48).unwrap();
        assert_eq!(fc.len(), 48);
        // The forecast should track the true continuation closely.
        let truth: Vec<f64> = (480..528)
            .map(|t| 10.0 + 3.0 * (std::f64::consts::TAU * t as f64 / period as f64).sin())
            .collect();
        let mae: f64 = fc.iter().zip(&truth).map(|(a, b)| (a - b).abs()).sum::<f64>() / 48.0;
        assert!(mae < 0.5, "mae {mae}");
        assert!(hw.forecast(&series[..10], 5).is_err());
    }

    #[test]
    fn alignment_offset() {
        let values: Vec<f64> =
            (0..200).map(|t| (std::f64::consts::TAU * t as f64 / 10.0).sin()).collect();
        let hw = HoltWinters::new(0.4, 0.1, 0.3, 10).unwrap();
        let (preds, offset) = hw.predict_series(&values).unwrap();
        assert_eq!(offset, 11);
        assert_eq!(preds.len(), values.len() - offset);
        assert!(preds.iter().all(|p| p.is_finite()));
    }
}
