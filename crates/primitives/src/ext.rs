//! Extension primitives beyond the paper's core pipeline set.
//!
//! These implement what §5 of the paper prescribes or references:
//!
//! * [`Detrend`] — seasonal-trend decomposition preprocessing ("feature
//!   shift-elimination techniques such as decomposition");
//! * [`RemoveLevelShifts`] — change-point segmentation preprocessing
//!   ("segmenting signals using change point detection"), the antidote
//!   to the Yahoo A4 distribution shift;
//! * [`MatrixProfilePrimitive`] — a Stumpy-style discord detector;
//! * [`HoltWintersPrimitive`] — the HWDS forecaster of reference \[37\].
//!
//! Because primitives are modular, each drops into existing pipelines
//! without modifying them — the extensibility claim (C2) in action.

use std::sync::OnceLock;

use sintel_stats::{change_points, decompose, estimate_period, matrix_profile, HoltWinters};
use sintel_timeseries::Signal;

use crate::context::{Context, Value};
use crate::hyper::{HyperSpec, HyperValue};
use crate::primitive::{Engine, Primitive, PrimitiveMeta};
use crate::{PrimitiveError, Result};

fn algo(e: impl std::fmt::Display) -> PrimitiveError {
    PrimitiveError::Algorithm(e.to_string())
}

// ---------------------------------------------------------------------
// detrend (decomposition preprocessing)
// ---------------------------------------------------------------------

/// Remove trend + seasonality from the signal, leaving residual + level.
///
/// `period = 0` auto-estimates the dominant seasonality from the
/// training signal's autocorrelation at fit time; if nothing periodic is
/// found, the primitive passes the signal through unchanged.
#[derive(Debug)]
pub struct Detrend {
    meta: &'static PrimitiveMeta,
    period: usize,
    fitted_period: Option<usize>,
}

impl Detrend {
    /// Create with automatic period estimation.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "detrend",
                    Engine::Preprocessing,
                    "subtract an STL-style trend + seasonal component",
                    &["signal"],
                    &["signal"],
                    vec![HyperSpec::int("period", 0, 10_000, 0).fixed()],
                )
            }),
            period: 0,
            fitted_period: None,
        }
    }
}

impl Default for Detrend {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for Detrend {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        self.period = value.as_int()? as usize;
        Ok(())
    }

    fn fit(&mut self, ctx: &Context) -> Result<()> {
        let signal = ctx.signal("signal")?;
        self.fitted_period = if self.period >= 2 {
            Some(self.period)
        } else {
            estimate_period(signal.values(), 4, signal.len() / 3)
        };
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let signal = ctx.signal("signal")?;
        let Some(period) = self.fitted_period else {
            // Nothing periodic: pass through.
            return Ok(vec![("signal".into(), Value::Signal(signal.clone()))]);
        };
        if signal.len() < 2 * period {
            return Ok(vec![("signal".into(), Value::Signal(signal.clone()))]);
        }
        let mut out = signal.clone();
        for c in 0..out.num_channels() {
            let level = sintel_common::mean(out.channel(c));
            let d = decompose(out.channel(c), period).map_err(algo)?;
            for (v, r) in out.channel_mut(c).iter_mut().zip(&d.residual) {
                *v = level + r;
            }
        }
        Ok(vec![("signal".into(), Value::Signal(out))])
    }
}

// ---------------------------------------------------------------------
// remove_level_shifts (change-point segmentation preprocessing)
// ---------------------------------------------------------------------

/// Detect change points and subtract each segment's mean, eliminating
/// permanent distribution shifts (Yahoo A4's failure mode, §5) while
/// leaving transient anomalies intact.
#[derive(Debug)]
pub struct RemoveLevelShifts {
    meta: &'static PrimitiveMeta,
    penalty: f64,
    max_points: usize,
    min_segment: usize,
}

impl RemoveLevelShifts {
    /// Create with a conservative penalty (only strong shifts removed).
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "remove_level_shifts",
                    Engine::Preprocessing,
                    "change-point segmentation + per-segment mean removal",
                    &["signal"],
                    &["signal"],
                    vec![
                        HyperSpec::float("penalty", 0.001, 1.0, 0.08),
                        HyperSpec::int("max_points", 1, 16, 4),
                        // Segments shorter than this are transient anomalies,
                        // not distribution shifts — leave them intact.
                        HyperSpec::int("min_segment", 8, 1000, 60),
                    ],
                )
            }),
            penalty: 0.08,
            max_points: 4,
            min_segment: 60,
        }
    }
}

impl Default for RemoveLevelShifts {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for RemoveLevelShifts {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match name {
            "penalty" => self.penalty = value.as_float()?,
            "max_points" => self.max_points = value.as_int()? as usize,
            "min_segment" => self.min_segment = value.as_int()? as usize,
            _ => unreachable!("validated above"),
        }
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let signal = ctx.signal("signal")?;
        let mut out = signal.clone();
        for c in 0..out.num_channels() {
            let global_mean = sintel_common::mean(out.channel(c));
            let cps = change_points(out.channel(c), self.penalty, self.max_points);
            // Keep only change points that leave both neighbouring
            // segments long: short segments are transient anomalies the
            // detector must still see, not distribution shifts.
            let mut bounds = vec![0usize];
            for &cp in &cps {
                if cp >= bounds.last().expect("non-empty") + self.min_segment
                    && cp + self.min_segment <= out.len()
                {
                    bounds.push(cp);
                }
            }
            bounds.push(out.len());
            let values = out.channel_mut(c);
            for w in bounds.windows(2) {
                let seg_mean = sintel_common::mean(&values[w[0]..w[1]]);
                for v in &mut values[w[0]..w[1]] {
                    *v = *v - seg_mean + global_mean;
                }
            }
        }
        Ok(vec![("signal".into(), Value::Signal(out))])
    }
}

// ---------------------------------------------------------------------
// matrix profile (modeling)
// ---------------------------------------------------------------------

/// Stumpy-style discord detection: the matrix profile *is* the error
/// series (distance to nearest neighbour), fed straight into the
/// thresholding postprocessing.
#[derive(Debug)]
pub struct MatrixProfilePrimitive {
    meta: &'static PrimitiveMeta,
    window: usize,
}

impl MatrixProfilePrimitive {
    /// Create with a 32-sample subsequence length.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "matrix_profile",
                    Engine::Modeling,
                    "nearest-neighbour subsequence distances (discord mining)",
                    &["signal"],
                    &["errors", "error_timestamps"],
                    vec![HyperSpec::int("window", 8, 256, 32)],
                )
            }),
            window: 32,
        }
    }
}

impl Default for MatrixProfilePrimitive {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for MatrixProfilePrimitive {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        self.window = value.as_int()? as usize;
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let signal = ctx.signal("signal")?;
        let mp = matrix_profile(signal.values(), self.window).map_err(algo)?;
        let ts = signal.timestamps()[..mp.profile.len()].to_vec();
        Ok(vec![
            ("errors".into(), Value::Series(mp.profile)),
            ("error_timestamps".into(), Value::Timestamps(ts)),
        ])
    }
}

// ---------------------------------------------------------------------
// Holt–Winters (modeling)
// ---------------------------------------------------------------------

/// Additive Holt–Winters one-step forecaster (HWDS of reference \[37\]).
/// `period = 0` auto-estimates the seasonality at fit time.
#[derive(Debug)]
pub struct HoltWintersPrimitive {
    meta: &'static PrimitiveMeta,
    alpha: f64,
    beta: f64,
    gamma: f64,
    period: usize,
    fitted: Option<HoltWinters>,
}

impl HoltWintersPrimitive {
    /// Create with conventional smoothing defaults and auto period.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "holt_winters",
                    Engine::Modeling,
                    "additive Holt-Winters one-step forecaster",
                    &["signal"],
                    &["predictions", "targets", "index_timestamps"],
                    vec![
                        HyperSpec::float("alpha", 0.01, 1.0, 0.3),
                        HyperSpec::float("beta", 0.0, 1.0, 0.05),
                        HyperSpec::float("gamma", 0.0, 1.0, 0.2),
                        HyperSpec::int("period", 0, 10_000, 0).fixed(),
                    ],
                )
            }),
            alpha: 0.3,
            beta: 0.05,
            gamma: 0.2,
            period: 0,
            fitted: None,
        }
    }
}

impl Default for HoltWintersPrimitive {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for HoltWintersPrimitive {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match name {
            "alpha" => self.alpha = value.as_float()?,
            "beta" => self.beta = value.as_float()?,
            "gamma" => self.gamma = value.as_float()?,
            "period" => self.period = value.as_int()? as usize,
            _ => unreachable!("validated above"),
        }
        Ok(())
    }

    fn fit(&mut self, ctx: &Context) -> Result<()> {
        let signal = ctx.signal("signal")?;
        let period = if self.period >= 2 {
            self.period
        } else {
            estimate_period(signal.values(), 4, signal.len() / 3).unwrap_or(24)
        };
        self.fitted = Some(
            HoltWinters::new(self.alpha, self.beta, self.gamma, period).map_err(algo)?,
        );
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let model =
            self.fitted.as_ref().ok_or_else(|| PrimitiveError::NotFitted("holt_winters".into()))?;
        let signal: &Signal = ctx.signal("signal")?;
        let (preds, offset) = model.predict_series(signal.values()).map_err(algo)?;
        Ok(vec![
            ("predictions".into(), Value::Series(preds)),
            ("targets".into(), Value::Series(signal.values()[offset..].to_vec())),
            (
                "index_timestamps".into(),
                Value::Timestamps(signal.timestamps()[offset..].to_vec()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_common::SintelRng;

    fn seasonal_with_shift() -> Signal {
        let mut rng = SintelRng::seed_from_u64(4);
        let mut values: Vec<f64> = (0..600)
            .map(|t| {
                (std::f64::consts::TAU * t as f64 / 24.0).sin() + rng.normal(0.0, 0.05)
            })
            .collect();
        for v in &mut values[400..] {
            *v += 5.0; // permanent level shift (A4-style change point)
        }
        Signal::from_values("shifty", values)
    }

    #[test]
    fn detrend_flattens_seasonality() {
        let signal = Signal::from_values(
            "s",
            (0..480)
                .map(|t| 10.0 + 3.0 * (std::f64::consts::TAU * t as f64 / 24.0).sin())
                .collect(),
        );
        let ctx = Context::from_signal(signal.clone());
        let mut prim = Detrend::new();
        prim.fit(&ctx).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let Value::Signal(flat) = &out[0].1 else { panic!() };
        assert!(
            sintel_common::stddev(flat.values()) < 0.3 * sintel_common::stddev(signal.values()),
            "seasonality not removed"
        );
    }

    #[test]
    fn detrend_passes_through_aperiodic_data() {
        let mut rng = SintelRng::seed_from_u64(8);
        let signal =
            Signal::from_values("noise", (0..300).map(|_| rng.normal(0.0, 1.0)).collect());
        let ctx = Context::from_signal(signal.clone());
        let mut prim = Detrend::new();
        prim.fit(&ctx).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let Value::Signal(same) = &out[0].1 else { panic!() };
        assert_eq!(same.values(), signal.values());
    }

    #[test]
    fn remove_level_shifts_eliminates_change_point() {
        let signal = seasonal_with_shift();
        let ctx = Context::from_signal(signal.clone());
        let mut prim = RemoveLevelShifts::new();
        let out = prim.produce(&ctx).unwrap();
        let Value::Signal(fixed) = &out[0].1 else { panic!() };
        // After removal the two halves have comparable means.
        let before = sintel_common::mean(&fixed.values()[..350]);
        let after = sintel_common::mean(&fixed.values()[450..]);
        assert!(
            (before - after).abs() < 0.5,
            "shift not removed: {before} vs {after}"
        );
        // The untreated signal's halves differ by ~5.
        let raw_diff = sintel_common::mean(&signal.values()[450..])
            - sintel_common::mean(&signal.values()[..350]);
        assert!(raw_diff > 4.0);
    }

    #[test]
    fn matrix_profile_primitive_flags_discord() {
        let mut values: Vec<f64> =
            (0..500).map(|t| (std::f64::consts::TAU * t as f64 / 25.0).sin()).collect();
        for v in &mut values[250..270] {
            *v = 2.0;
        }
        let ctx = Context::from_signal(Signal::from_values("s", values));
        let mut prim = MatrixProfilePrimitive::new();
        prim.set_hyperparam("window", HyperValue::Int(25)).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let Value::Series(errors) = &out[0].1 else { panic!() };
        let peak = sintel_common::argmax(errors).unwrap();
        assert!((225..=275).contains(&peak), "peak at {peak}");
    }

    #[test]
    fn holt_winters_primitive_fit_produce() {
        let signal = Signal::from_values(
            "s",
            (0..400)
                .map(|t| 5.0 + 2.0 * (std::f64::consts::TAU * t as f64 / 20.0).sin())
                .collect(),
        );
        let ctx = Context::from_signal(signal);
        let mut prim = HoltWintersPrimitive::new();
        assert!(matches!(prim.produce(&ctx), Err(PrimitiveError::NotFitted(_))));
        prim.fit(&ctx).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let (Value::Series(preds), Value::Series(targets)) = (&out[0].1, &out[1].1) else {
            panic!()
        };
        assert_eq!(preds.len(), targets.len());
        let mae: f64 = preds
            .iter()
            .zip(targets)
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / preds.len() as f64;
        assert!(mae < 0.3, "mae {mae}");
    }
}
