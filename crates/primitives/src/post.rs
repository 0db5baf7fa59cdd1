//! Postprocessing primitives: error calculation and anomaly extraction.

use std::sync::OnceLock;

use sintel_linalg::Matrix;
use sintel_common::{mean, stddev};
use sintel_stats::threshold::{dynamic_threshold, fixed_threshold, ThresholdParams};
use sintel_timeseries::window::overlap_average;
use sintel_timeseries::ScoredInterval;

use crate::context::{Context, Value};
use crate::hyper::{HyperSpec, HyperValue};
use crate::primitive::{Engine, Primitive, PrimitiveMeta};
use crate::{PrimitiveError, Result};

// ---------------------------------------------------------------------
// regression_errors
// ---------------------------------------------------------------------

/// Absolute point-wise difference `|x̂ - x|` between predictions and
/// targets (`regression_errors` of Figure 2a), optionally smoothed.
#[derive(Debug)]
pub struct RegressionErrors {
    meta: &'static PrimitiveMeta,
    smooth: bool,
    smoothing_window: usize,
}

impl RegressionErrors {
    /// Create with smoothing on.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "regression_errors",
                    Engine::Postprocessing,
                    "absolute point-wise prediction error",
                    &["predictions", "targets", "index_timestamps"],
                    &["errors", "error_timestamps"],
                    vec![
                        HyperSpec {
                            name: "smooth".into(),
                            range: crate::hyper::HyperRange::Flag,
                            default: HyperValue::Flag(true),
                            tunable: true,
                        },
                        HyperSpec::int("smoothing_window", 1, 200, 10),
                    ],
                )
            }),
            smooth: true,
            smoothing_window: 10,
        }
    }
}

impl Default for RegressionErrors {
    fn default() -> Self {
        Self::new()
    }
}

/// Centred moving average used for error smoothing.
fn smooth_series(xs: &[f64], window: usize) -> Vec<f64> {
    let n = xs.len();
    let w = window.max(1);
    let half = w / 2;
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            mean(&xs[lo..hi])
        })
        .collect()
}

impl Primitive for RegressionErrors {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match name {
            "smooth" => self.smooth = value.as_flag()?,
            "smoothing_window" => self.smoothing_window = value.as_int()? as usize,
            _ => unreachable!("validated above"),
        }
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let preds = ctx.series("predictions")?;
        let targets = ctx.series("targets")?;
        let ts = ctx.timestamps("index_timestamps")?;
        if preds.len() != targets.len() || preds.len() != ts.len() {
            return Err(PrimitiveError::Algorithm(format!(
                "misaligned predictions ({}) / targets ({}) / timestamps ({})",
                preds.len(),
                targets.len(),
                ts.len()
            )));
        }
        let mut errors: Vec<f64> =
            preds.iter().zip(targets).map(|(p, t)| (p - t).abs()).collect();
        if self.smooth {
            errors = smooth_series(&errors, self.smoothing_window);
        }
        Ok(vec![
            ("errors".into(), Value::Series(errors)),
            ("error_timestamps".into(), Value::Timestamps(ts.clone())),
        ])
    }
}

// ---------------------------------------------------------------------
// reconstruction_errors
// ---------------------------------------------------------------------

/// Per-sample reconstruction error: window reconstructions are unfolded
/// (overlap-averaged) back onto the signal, and `|x̂ - x|` computed. When
/// the modeling step also produced `critic_scores` (TadGAN), they are
/// blended in with weight `1 - alpha` after z-normalisation, mirroring
/// TadGAN's published scoring.
#[derive(Debug)]
pub struct ReconstructionErrors {
    meta: &'static PrimitiveMeta,
    alpha: f64,
    smoothing_window: usize,
}

impl ReconstructionErrors {
    /// Create with `alpha = 0.7` (reconstruction-dominant blend).
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "reconstruction_errors",
                    Engine::Postprocessing,
                    "overlap-averaged reconstruction error (critic-aware)",
                    &["reconstructions", "first_index", "signal"],
                    &["errors", "error_timestamps"],
                    vec![
                        HyperSpec::float("alpha", 0.0, 1.0, 0.7),
                        HyperSpec::int("smoothing_window", 1, 200, 10),
                    ],
                )
                // critic scores are blended in when a TadGAN-style model left
                // them in the context; plain autoencoders don't provide them.
                .optional_read("critic_scores")
            }),
            alpha: 0.7,
            smoothing_window: 10,
        }
    }
}

impl Default for ReconstructionErrors {
    fn default() -> Self {
        Self::new()
    }
}

fn znorm(xs: &[f64]) -> Vec<f64> {
    let mu = mean(xs);
    let sigma = stddev(xs).max(1e-12);
    xs.iter().map(|x| (x - mu) / sigma).collect()
}

impl Primitive for ReconstructionErrors {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match name {
            "alpha" => self.alpha = value.as_float()?,
            "smoothing_window" => self.smoothing_window = value.as_int()? as usize,
            _ => unreachable!("validated above"),
        }
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let recons = ctx.windows("reconstructions")?;
        let first_index = ctx.indices("first_index")?;
        let signal = ctx.signal("signal")?;
        if recons.rows() != first_index.len() {
            return Err(PrimitiveError::Algorithm(format!(
                "misaligned reconstructions ({}) / first_index ({})",
                recons.rows(),
                first_index.len()
            )));
        }
        if recons.rows() == 0 {
            return Ok(vec![
                ("errors".into(), Value::Series(Vec::new())),
                ("error_timestamps".into(), Value::Timestamps(Vec::new())),
            ]);
        }
        let channels = signal.num_channels();
        let window_size = recons.cols() / channels;
        // Unfold the first channel of the reconstructions into one flat
        // arena (rows x window_size) sized up front.
        let mut fc_flat = Vec::with_capacity(recons.rows() * window_size);
        for r in recons.row_iter() {
            fc_flat.extend(r.iter().step_by(channels).copied());
        }
        let first_channel = Matrix::from_vec(recons.rows(), window_size, fc_flat);
        let merged = overlap_average(&first_channel, first_index, signal.len());
        let mut errors: Vec<f64> = merged
            .iter()
            .zip(signal.values())
            .map(|(rec, actual)| if rec.is_nan() { 0.0 } else { (rec - actual).abs() })
            .collect();
        errors = smooth_series(&errors, self.smoothing_window);

        // Optional critic blend (TadGAN): spread each window's critic
        // score over its samples, z-normalise both parts, combine.
        if self.alpha < 1.0 {
            if let Ok(critics) = ctx.series("critic_scores") {
                if critics.len() == recons.rows() {
                    // Each window's critic score, spread over its samples.
                    let mut pw_flat = Vec::with_capacity(critics.len() * window_size);
                    for &c in critics {
                        pw_flat.extend(std::iter::repeat_n(c, window_size));
                    }
                    let per_window = Matrix::from_vec(critics.len(), window_size, pw_flat);
                    let critic_per_sample =
                        overlap_average(&per_window, first_index, signal.len());
                    let critic_filled: Vec<f64> = critic_per_sample
                        .iter()
                        .map(|c| if c.is_nan() { 0.0 } else { *c })
                        .collect();
                    // Critic outputs are high for "normal" windows; negate.
                    let critic_anom: Vec<f64> = znorm(&critic_filled).iter().map(|c| -c).collect();
                    let err_z = znorm(&errors);
                    errors = err_z
                        .iter()
                        .zip(&critic_anom)
                        .map(|(e, c)| self.alpha * e + (1.0 - self.alpha) * c)
                        .collect();
                    // Shift to non-negative for the thresholder.
                    let min = errors.iter().copied().fold(f64::INFINITY, f64::min);
                    errors.iter_mut().for_each(|e| *e -= min);
                }
            }
        }
        Ok(vec![
            ("errors".into(), Value::Series(errors)),
            ("error_timestamps".into(), Value::Timestamps(signal.timestamps().to_vec())),
        ])
    }
}

// ---------------------------------------------------------------------
// find_anomalies (dynamic threshold)
// ---------------------------------------------------------------------

/// Turn an error series into scored anomalous intervals using the
/// nonparametric dynamic threshold (`find_anomalies`, Hundman et al.).
#[derive(Debug)]
pub struct FindAnomalies {
    meta: &'static PrimitiveMeta,
    params: ThresholdParams,
    window_fraction: f64,
    padding: usize,
}

impl FindAnomalies {
    /// Create with Hundman-style defaults (3 windows per signal, a small
    /// detection buffer around each sequence).
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "find_anomalies",
                    Engine::Postprocessing,
                    "dynamic error threshold -> scored anomalous intervals",
                    &["errors", "error_timestamps"],
                    &["anomalies"],
                    vec![
                        HyperSpec::float("smoothing_alpha", 0.01, 1.0, 0.2),
                        HyperSpec::float("z_min", 1.0, 6.0, 2.0),
                        HyperSpec::float("z_max", 6.0, 14.0, 10.0),
                        HyperSpec::float("min_percent_drop", 0.0, 0.5, 0.1),
                        HyperSpec::float("window_fraction", 0.1, 1.0, 0.34),
                        // Error smoothing and forecast models reacting at
                        // anomaly *boundaries* shift detections by a few
                        // samples; Hundman-style buffering compensates.
                        HyperSpec::int("padding", 0, 50, 8),
                    ],
                )
            }),
            params: ThresholdParams::default(),
            window_fraction: 0.34,
            padding: 8,
        }
    }
}

impl Default for FindAnomalies {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for FindAnomalies {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match name {
            "smoothing_alpha" => self.params.smoothing_alpha = value.as_float()?,
            "z_min" => self.params.z_min = value.as_float()?,
            "z_max" => self.params.z_max = value.as_float()?,
            "min_percent_drop" => self.params.min_percent_drop = value.as_float()?,
            "window_fraction" => self.window_fraction = value.as_float()?,
            "padding" => self.padding = value.as_int()? as usize,
            _ => unreachable!("validated above"),
        }
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let errors = ctx.series("errors")?;
        let ts = ctx.timestamps("error_timestamps")?;
        if errors.len() != ts.len() {
            return Err(PrimitiveError::Algorithm(format!(
                "misaligned errors ({}) / timestamps ({})",
                errors.len(),
                ts.len()
            )));
        }
        let mut params = self.params;
        params.window_size = ((errors.len() as f64 * self.window_fraction).ceil() as usize)
            .clamp(1, errors.len().max(1));
        let spans = dynamic_threshold(errors, &params)
            .map_err(|e| PrimitiveError::Algorithm(e.to_string()))?;
        let anomalies: Vec<ScoredInterval> = spans
            .iter()
            .map(|s| {
                let start = s.start.saturating_sub(self.padding);
                let end = (s.end + self.padding).min(ts.len() - 1);
                ScoredInterval::new(ts[start], ts[end], s.score)
                    .expect("spans are ordered")
            })
            .collect();
        // Padding can make neighbours touch; merge them.
        let anomalies = sintel_timeseries::interval::merge_scored(&anomalies, 0);
        Ok(vec![("anomalies".into(), Value::Intervals(anomalies))])
    }
}

// ---------------------------------------------------------------------
// fixed threshold (ablation baseline)
// ---------------------------------------------------------------------

/// Fixed `µ + k·σ` threshold over the error series — the ablation
/// baseline for `find_anomalies` and the thresholding stage of the Azure
/// pipeline.
#[derive(Debug)]
pub struct FixedThresholdPrimitive {
    meta: &'static PrimitiveMeta,
    k: f64,
}

impl FixedThresholdPrimitive {
    /// Create with `k = 3`.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "fixed_threshold",
                    Engine::Postprocessing,
                    "fixed mean + k*std error threshold",
                    &["errors", "error_timestamps"],
                    &["anomalies"],
                    vec![HyperSpec::float("k", 0.5, 10.0, 3.0)],
                )
            }),
            k: 3.0,
        }
    }
}

impl Default for FixedThresholdPrimitive {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for FixedThresholdPrimitive {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        self.k = value.as_float()?;
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let errors = ctx.series("errors")?;
        let ts = ctx.timestamps("error_timestamps")?;
        if errors.len() != ts.len() {
            return Err(PrimitiveError::Algorithm("misaligned errors/timestamps".into()));
        }
        let spans = fixed_threshold(errors, self.k)
            .map_err(|e| PrimitiveError::Algorithm(e.to_string()))?;
        let anomalies: Vec<ScoredInterval> = spans
            .iter()
            .map(|s| {
                ScoredInterval::new(ts[s.start], ts[s.end], s.score)
                    .expect("spans are ordered")
            })
            .collect();
        Ok(vec![("anomalies".into(), Value::Intervals(anomalies))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_timeseries::Signal;

    #[test]
    fn regression_errors_abs_diff() {
        let mut ctx = Context::new();
        ctx.set("predictions", Value::Series(vec![1.0, 2.0, 3.0]));
        ctx.set("targets", Value::Series(vec![1.5, 2.0, 1.0]));
        ctx.set("index_timestamps", Value::Timestamps(vec![10, 20, 30]));
        let mut prim = RegressionErrors::new();
        prim.set_hyperparam("smooth", HyperValue::Flag(false)).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let Value::Series(errors) = &out[0].1 else { panic!() };
        assert_eq!(errors, &vec![0.5, 0.0, 2.0]);
    }

    #[test]
    fn regression_errors_smoothing_spreads_mass() {
        let mut ctx = Context::new();
        let mut preds = vec![0.0; 50];
        preds[25] = 10.0;
        ctx.set("predictions", Value::Series(preds));
        ctx.set("targets", Value::Series(vec![0.0; 50]));
        ctx.set("index_timestamps", Value::Timestamps((0..50).collect()));
        let mut prim = RegressionErrors::new();
        let out = prim.produce(&ctx).unwrap();
        let Value::Series(errors) = &out[0].1 else { panic!() };
        assert!(errors[25] < 10.0);
        assert!(errors[22] > 0.0);
    }

    #[test]
    fn regression_errors_misalignment_caught() {
        let mut ctx = Context::new();
        ctx.set("predictions", Value::Series(vec![1.0]));
        ctx.set("targets", Value::Series(vec![1.0, 2.0]));
        ctx.set("index_timestamps", Value::Timestamps(vec![1]));
        assert!(RegressionErrors::new().produce(&ctx).is_err());
    }

    #[test]
    fn reconstruction_errors_unfold() {
        // Signal 0..6, windows of 3, reconstruction == input -> zero error.
        let signal = Signal::from_values("s", (0..6).map(|i| i as f64).collect());
        let ws = sintel_timeseries::rolling_windows(&signal, 3, 1, false).unwrap();
        let mut ctx = Context::from_signal(signal);
        ctx.set("reconstructions", Value::Windows(ws.windows.clone()));
        ctx.set("first_index", Value::Indices(ws.first_index));
        let mut prim = ReconstructionErrors::new();
        prim.set_hyperparam("smoothing_window", HyperValue::Int(1)).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let Value::Series(errors) = &out[0].1 else { panic!() };
        assert_eq!(errors.len(), 6);
        assert!(errors.iter().all(|&e| e.abs() < 1e-12));
    }

    #[test]
    fn reconstruction_errors_with_critic_blend() {
        let signal = Signal::from_values("s", (0..8).map(|i| i as f64).collect());
        let ws = sintel_timeseries::rolling_windows(&signal, 3, 1, false).unwrap();
        let n_windows = ws.windows.rows();
        let mut ctx = Context::from_signal(signal);
        ctx.set("reconstructions", Value::Windows(ws.windows.clone()));
        ctx.set("first_index", Value::Indices(ws.first_index));
        // Critic dislikes the last window.
        let mut critics = vec![1.0; n_windows];
        critics[n_windows - 1] = -5.0;
        ctx.set("critic_scores", Value::Series(critics));
        let mut prim = ReconstructionErrors::new();
        prim.set_hyperparam("alpha", HyperValue::Float(0.5)).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let Value::Series(errors) = &out[0].1 else { panic!() };
        // The critic-flagged tail should carry the largest blended error.
        let peak = sintel_common::argmax(errors).unwrap();
        assert!(peak >= 5, "peak {peak}, errors {errors:?}");
        assert!(errors.iter().all(|&e| e >= 0.0));
    }

    #[test]
    fn find_anomalies_maps_to_timestamps() {
        let mut errors = vec![0.1; 300];
        // Mild noise so the threshold sweep has structure.
        for (i, e) in errors.iter_mut().enumerate() {
            *e += 0.01 * ((i % 7) as f64);
        }
        for e in &mut errors[100..110] {
            *e += 5.0;
        }
        let ts: Vec<i64> = (0..300).map(|i| 1000 + i * 10).collect();
        let mut ctx = Context::new();
        ctx.set("errors", Value::Series(errors));
        ctx.set("error_timestamps", Value::Timestamps(ts));
        let mut prim = FindAnomalies::new();
        let out = prim.produce(&ctx).unwrap();
        let Value::Intervals(anoms) = &out[0].1 else { panic!() };
        assert_eq!(anoms.len(), 1, "{anoms:?}");
        let iv = anoms[0].interval;
        assert!(iv.start >= 1900 && iv.start <= 2050, "{iv:?}");
        assert!(anoms[0].score > 0.0);
    }

    #[test]
    fn fixed_threshold_primitive() {
        let mut errors = vec![1.0; 100];
        errors[40] = 20.0;
        let mut ctx = Context::new();
        ctx.set("errors", Value::Series(errors));
        ctx.set("error_timestamps", Value::Timestamps((0..100).collect()));
        let mut prim = FixedThresholdPrimitive::new();
        let out = prim.produce(&ctx).unwrap();
        let Value::Intervals(anoms) = &out[0].1 else { panic!() };
        assert_eq!(anoms.len(), 1);
        assert_eq!(anoms[0].interval.start, 40);
    }

    #[test]
    fn empty_reconstructions_yield_empty_errors() {
        let signal = Signal::from_values("s", vec![1.0, 2.0]);
        let mut ctx = Context::from_signal(signal);
        ctx.set("reconstructions", Value::Windows(Matrix::zeros(0, 3)));
        ctx.set("first_index", Value::Indices(vec![]));
        let out = ReconstructionErrors::new().produce(&ctx).unwrap();
        let Value::Series(errors) = &out[0].1 else { panic!() };
        assert!(errors.is_empty());
    }
}
