//! Modeling primitives: wrappers exposing the `sintel-nn` and
//! `sintel-stats` models through the primitive interface.

use std::sync::OnceLock;

use sintel_linalg::Matrix;
use sintel_nn::{DenseAutoencoder, LstmAutoencoder, LstmRegressor, TadGan, TrainConfig};
use sintel_stats::{spectral, Arima};

use crate::context::{Context, Value};
use crate::hyper::{HyperSpec, HyperValue};
use crate::primitive::{Engine, Primitive, PrimitiveMeta};
use crate::{PrimitiveError, Result};

fn algo(e: impl std::fmt::Display) -> PrimitiveError {
    PrimitiveError::Algorithm(e.to_string())
}

/// Infer `(window_size, channels)` from the window matrix + the signal.
fn window_shape(ctx: &Context, windows: &Matrix) -> Result<(usize, usize)> {
    if windows.rows() == 0 {
        return Err(PrimitiveError::Algorithm("no training windows".into()));
    }
    let channels = ctx.signal("signal").map(|s| s.num_channels()).unwrap_or(1);
    let flat = windows.cols();
    if !flat.is_multiple_of(channels) {
        return Err(PrimitiveError::Algorithm(format!(
            "window length {flat} not divisible by {channels} channels"
        )));
    }
    Ok((flat / channels, channels))
}

/// Shared training hyperparameters for the deep models.
fn train_specs(default_epochs: i64) -> Vec<HyperSpec> {
    vec![
        HyperSpec::int("hidden", 4, 64, 20),
        HyperSpec::int("epochs", 1, 200, default_epochs),
        HyperSpec::log_float("learning_rate", 1e-4, 1e-1, 8e-3),
        HyperSpec::int("batch_size", 8, 256, 64).fixed(),
        HyperSpec::int("seed", 0, 1_000_000, 0).fixed(),
    ]
}

#[derive(Debug, Clone, Copy)]
struct TrainHypers {
    hidden: usize,
    epochs: usize,
    learning_rate: f64,
    batch_size: usize,
    seed: u64,
}

impl TrainHypers {
    fn new(epochs: usize) -> Self {
        Self { hidden: 20, epochs, learning_rate: 8e-3, batch_size: 64, seed: 0 }
    }

    fn set(&mut self, name: &str, value: &HyperValue) -> Result<bool> {
        match name {
            "hidden" => self.hidden = value.as_int()? as usize,
            "epochs" => self.epochs = value.as_int()? as usize,
            "learning_rate" => self.learning_rate = value.as_float()?,
            "batch_size" => self.batch_size = value.as_int()? as usize,
            "seed" => self.seed = value.as_int()? as u64,
            _ => return Ok(false),
        }
        Ok(true)
    }

    fn config(&self) -> TrainConfig {
        TrainConfig {
            epochs: self.epochs,
            batch_size: self.batch_size,
            learning_rate: self.learning_rate,
            seed: self.seed,
        }
    }
}

// ---------------------------------------------------------------------
// LSTM regressor (LSTM DT modeling step)
// ---------------------------------------------------------------------

/// Double-stacked LSTM next-value predictor (`keras.Sequential` stand-in
/// of Figure 2a).
pub struct LstmRegressorPrimitive {
    meta: &'static PrimitiveMeta,
    hypers: TrainHypers,
    model: Option<LstmRegressor>,
}

impl LstmRegressorPrimitive {
    /// Create with default hyperparameters.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "lstm_regressor",
                    Engine::Modeling,
                    "double-stacked LSTM predicting the next value of each window",
                    &["windows", "targets"],
                    &["predictions"],
                    train_specs(8),
                )
                // targets are only consumed while training; produce runs on
                // windows alone.
                .fit_only_read("targets")
                // window_shape probes the signal for its channel count.
                .optional_fit_read("signal")
            }),
            hypers: TrainHypers::new(8),
            model: None,
        }
    }
}

impl Default for LstmRegressorPrimitive {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for LstmRegressorPrimitive {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        self.hypers.set(name, &value)?;
        Ok(())
    }

    fn fit(&mut self, ctx: &Context) -> Result<()> {
        let windows = ctx.windows("windows")?;
        let targets = ctx.series("targets")?;
        let (window, channels) = window_shape(ctx, windows)?;
        let mut model =
            LstmRegressor::new(window, channels, self.hypers.hidden, self.hypers.seed);
        model.fit(windows, targets, &self.hypers.config()).map_err(algo)?;
        self.model = Some(model);
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let model =
            self.model.as_ref().ok_or_else(|| PrimitiveError::NotFitted("lstm_regressor".into()))?;
        let windows = ctx.windows("windows")?;
        // Batched forward: validates shapes up front and returns
        // predictions in window order through one reused scratch.
        let preds = model.predict_batch(windows).map_err(algo)?;
        Ok(vec![("predictions".into(), Value::Series(preds))])
    }
}

// ---------------------------------------------------------------------
// ARIMA
// ---------------------------------------------------------------------

/// ARIMA forecaster (operates on the preprocessed signal directly; emits
/// aligned predictions, targets and timestamps).
pub struct ArimaPrimitive {
    meta: &'static PrimitiveMeta,
    p: usize,
    d: usize,
    q: usize,
    model: Option<Arima>,
}

impl ArimaPrimitive {
    /// Create with ARIMA(5, 0, 1) defaults.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "arima",
                    Engine::Modeling,
                    "ARIMA(p, d, q) one-step-ahead forecaster",
                    &["signal"],
                    &["predictions", "targets", "index_timestamps"],
                    vec![
                        HyperSpec::int("p", 1, 12, 5),
                        HyperSpec::int("d", 0, 2, 0),
                        HyperSpec::int("q", 0, 6, 1),
                    ],
                )
            }),
            p: 5,
            d: 0,
            q: 1,
            model: None,
        }
    }
}

impl Default for ArimaPrimitive {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for ArimaPrimitive {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match name {
            "p" => self.p = value.as_int()? as usize,
            "d" => self.d = value.as_int()? as usize,
            "q" => self.q = value.as_int()? as usize,
            other => {
                return Err(crate::PrimitiveError::BadHyperparameter(format!(
                    "'arima' cannot apply hyperparameter '{other}'"
                )))
            }
        }
        Ok(())
    }

    fn fit(&mut self, ctx: &Context) -> Result<()> {
        let signal = ctx.signal("signal")?;
        let model = Arima::fit(signal.values(), self.p, self.d, self.q).map_err(algo)?;
        self.model = Some(model);
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let model = self.model.as_ref().ok_or_else(|| PrimitiveError::NotFitted("arima".into()))?;
        let signal = ctx.signal("signal")?;
        let (preds, offset) = model.predict_series(signal.values()).map_err(algo)?;
        let targets = signal.values()[offset..].to_vec();
        let ts = signal.timestamps()[offset..].to_vec();
        Ok(vec![
            ("predictions".into(), Value::Series(preds)),
            ("targets".into(), Value::Series(targets)),
            ("index_timestamps".into(), Value::Timestamps(ts)),
        ])
    }
}

// ---------------------------------------------------------------------
// Autoencoders
// ---------------------------------------------------------------------

macro_rules! autoencoder_primitive {
    ($name:ident, $model:ty, $reg_name:literal, $docstring:literal, $extra_latent:expr, $epochs:expr) => {
        #[doc = $docstring]
        pub struct $name {
            meta: &'static PrimitiveMeta,
            hypers: TrainHypers,
            // Only autoencoders with an explicit bottleneck read this.
            #[allow(dead_code)]
            latent: usize,
            model: Option<$model>,
        }

        impl $name {
            /// Create with default hyperparameters.
            pub fn new() -> Self {
                static META: OnceLock<PrimitiveMeta> = OnceLock::new();
                Self {
                    meta: META.get_or_init(|| {
                        let mut specs = train_specs($epochs);
                        if $extra_latent {
                            specs.push(HyperSpec::int("latent", 2, 32, 5));
                        }
                        PrimitiveMeta::new(
                            $reg_name,
                            Engine::Modeling,
                            $docstring,
                            &["windows"],
                            &["reconstructions"],
                            specs,
                        )
                        // window_shape probes the signal for its channel count.
                        .optional_fit_read("signal")
                    }),
                    hypers: TrainHypers::new($epochs as usize),
                    latent: 5,
                    model: None,
                }
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}

autoencoder_primitive!(
    LstmAutoencoderPrimitive,
    LstmAutoencoder,
    "lstm_autoencoder",
    "sequence-to-sequence LSTM autoencoder reconstructing each window",
    false,
    8
);

impl Primitive for LstmAutoencoderPrimitive {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        self.hypers.set(name, &value)?;
        Ok(())
    }

    fn fit(&mut self, ctx: &Context) -> Result<()> {
        let windows = ctx.windows("windows")?;
        let (window, channels) = window_shape(ctx, windows)?;
        let mut model =
            LstmAutoencoder::new(window, channels, self.hypers.hidden, self.hypers.seed);
        model.fit(windows, &self.hypers.config()).map_err(algo)?;
        self.model = Some(model);
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let model = self
            .model
            .as_ref()
            .ok_or_else(|| PrimitiveError::NotFitted("lstm_autoencoder".into()))?;
        let windows = ctx.windows("windows")?;
        // One flat arena for the whole batch: reconstructions have the
        // same shape as their inputs, so the output matrix is sized up
        // front and filled row by row (O(1) allocations modulo the
        // model's own scratch).
        let mut flat = Vec::with_capacity(windows.rows() * windows.cols());
        for w in windows.row_iter() {
            flat.extend_from_slice(&model.reconstruct(w).map_err(algo)?);
        }
        let recons = Matrix::from_vec(windows.rows(), windows.cols(), flat);
        Ok(vec![("reconstructions".into(), Value::Windows(recons))])
    }
}

autoencoder_primitive!(
    DenseAutoencoderPrimitive,
    DenseAutoencoder,
    "dense_autoencoder",
    "feed-forward autoencoder reconstructing each flattened window",
    true,
    12
);

impl Primitive for DenseAutoencoderPrimitive {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        if !self.hypers.set(name, &value)? && name == "latent" {
            self.latent = value.as_int()? as usize;
        }
        Ok(())
    }

    fn fit(&mut self, ctx: &Context) -> Result<()> {
        let windows = ctx.windows("windows")?;
        let (_, _) = window_shape(ctx, windows)?;
        let input_dim = windows.cols();
        let mut model =
            DenseAutoencoder::new(input_dim, self.hypers.hidden, self.latent, self.hypers.seed);
        model.fit(windows, &self.hypers.config()).map_err(algo)?;
        self.model = Some(model);
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let model = self
            .model
            .as_ref()
            .ok_or_else(|| PrimitiveError::NotFitted("dense_autoencoder".into()))?;
        let windows = ctx.windows("windows")?;
        // One flat arena for the whole batch: reconstructions have the
        // same shape as their inputs, so the output matrix is sized up
        // front and filled row by row (O(1) allocations modulo the
        // model's own scratch).
        let mut flat = Vec::with_capacity(windows.rows() * windows.cols());
        for w in windows.row_iter() {
            flat.extend_from_slice(&model.reconstruct(w).map_err(algo)?);
        }
        let recons = Matrix::from_vec(windows.rows(), windows.cols(), flat);
        Ok(vec![("reconstructions".into(), Value::Windows(recons))])
    }
}

// ---------------------------------------------------------------------
// TadGAN
// ---------------------------------------------------------------------

/// TadGAN adversarial reconstructor: emits reconstructions *and* critic
/// scores, blended downstream by `reconstruction_errors`.
pub struct TadGanPrimitive {
    meta: &'static PrimitiveMeta,
    hypers: TrainHypers,
    latent: usize,
    model: Option<TadGan>,
}

impl TadGanPrimitive {
    /// Create with default hyperparameters.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                let mut specs = train_specs(10);
                specs.push(HyperSpec::int("latent", 2, 32, 6));
                PrimitiveMeta::new(
                    "tadgan",
                    Engine::Modeling,
                    "TadGAN: encoder/generator with Wasserstein critics",
                    &["windows"],
                    &["reconstructions", "critic_scores"],
                    specs,
                )
                // window_shape probes the signal for its channel count.
                .optional_fit_read("signal")
            }),
            hypers: TrainHypers::new(10),
            latent: 6,
            model: None,
        }
    }
}

impl Default for TadGanPrimitive {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for TadGanPrimitive {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        if !self.hypers.set(name, &value)? && name == "latent" {
            self.latent = value.as_int()? as usize;
        }
        Ok(())
    }

    fn fit(&mut self, ctx: &Context) -> Result<()> {
        let windows = ctx.windows("windows")?;
        let (window, channels) = window_shape(ctx, windows)?;
        let mut model =
            TadGan::new(window, channels, self.hypers.hidden, self.latent, self.hypers.seed);
        model.fit(windows, &self.hypers.config()).map_err(algo)?;
        self.model = Some(model);
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let model =
            self.model.as_ref().ok_or_else(|| PrimitiveError::NotFitted("tadgan".into()))?;
        let windows = ctx.windows("windows")?;
        let mut flat = Vec::with_capacity(windows.rows() * windows.cols());
        let mut critics = Vec::with_capacity(windows.rows());
        for w in windows.row_iter() {
            flat.extend_from_slice(&model.reconstruct(w).map_err(algo)?);
            critics.push(model.critic_score(w).map_err(algo)?);
        }
        let recons = Matrix::from_vec(windows.rows(), windows.cols(), flat);
        Ok(vec![
            ("reconstructions".into(), Value::Windows(recons)),
            ("critic_scores".into(), Value::Series(critics)),
        ])
    }
}

// ---------------------------------------------------------------------
// MS Azure anomaly detection service (spectral residual stand-in)
// ---------------------------------------------------------------------

/// Local stand-in for the MS Azure Anomaly Detector pipeline: the
/// spectral-residual algorithm the service is built on (Ren et al., KDD
/// 2019). Consumes the signal, emits per-sample anomaly "errors" directly
/// (the service is a black box — no separate modeling/post stages).
pub struct AzureAnomalyService {
    meta: &'static PrimitiveMeta,
    filter_window: usize,
    score_window: usize,
}

impl AzureAnomalyService {
    /// Create with the published defaults (q = 3, z = 21).
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "azure_anomaly_service",
                    Engine::Modeling,
                    "spectral-residual saliency scoring (MS Azure AD stand-in)",
                    &["signal"],
                    &["errors", "error_timestamps"],
                    vec![
                        HyperSpec::int("filter_window", 1, 16, 3),
                        HyperSpec::int("score_window", 4, 256, 21),
                    ],
                )
            }),
            filter_window: 3,
            score_window: 21,
        }
    }
}

impl Default for AzureAnomalyService {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for AzureAnomalyService {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match name {
            "filter_window" => self.filter_window = value.as_int()? as usize,
            "score_window" => self.score_window = value.as_int()? as usize,
            other => {
                return Err(crate::PrimitiveError::BadHyperparameter(format!(
                    "'azure_anomaly_service' cannot apply hyperparameter '{other}'"
                )))
            }
        }
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let signal = ctx.signal("signal")?;
        let scores = spectral::spectral_residual_scores(
            signal.values(),
            self.filter_window,
            self.score_window,
        );
        Ok(vec![
            ("errors".into(), Value::Series(scores)),
            ("error_timestamps".into(), Value::Timestamps(signal.timestamps().to_vec())),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_timeseries::Signal;

    fn windowed_ctx(n: usize, window: usize, targets: bool) -> Context {
        let series: Vec<f64> =
            (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 24.0).sin()).collect();
        let signal = Signal::from_values("s", series);
        let ws = sintel_timeseries::rolling_windows(&signal, window, 1, targets).unwrap();
        let mut ctx = Context::from_signal(signal);
        ctx.set("windows", Value::Windows(ws.windows));
        ctx.set("targets", Value::Series(ws.targets));
        ctx.set("index_timestamps", Value::Timestamps(ws.index_timestamps));
        ctx.set("first_index", Value::Indices(ws.first_index));
        ctx
    }

    #[test]
    fn lstm_regressor_fit_and_predict() {
        let ctx = windowed_ctx(150, 10, true);
        let mut prim = LstmRegressorPrimitive::new();
        prim.set_hyperparam("epochs", HyperValue::Int(3)).unwrap();
        prim.set_hyperparam("hidden", HyperValue::Int(8)).unwrap();
        prim.fit(&ctx).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let Value::Series(preds) = &out[0].1 else { panic!() };
        assert_eq!(preds.len(), ctx.windows("windows").unwrap().rows());
        assert!(preds.iter().all(|p| p.is_finite()));
    }

    #[test]
    fn unfitted_model_errors() {
        let ctx = windowed_ctx(100, 8, true);
        let mut prim = LstmRegressorPrimitive::new();
        assert!(matches!(prim.produce(&ctx), Err(PrimitiveError::NotFitted(_))));
        let mut arima = ArimaPrimitive::new();
        assert!(matches!(arima.produce(&ctx), Err(PrimitiveError::NotFitted(_))));
    }

    #[test]
    fn arima_aligned_outputs() {
        let n = 400;
        let series: Vec<f64> =
            (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 30.0).sin()).collect();
        let ctx = Context::from_signal(Signal::from_values("s", series));
        let mut prim = ArimaPrimitive::new();
        prim.fit(&ctx).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let preds = out.iter().find(|(k, _)| k == "predictions").unwrap();
        let targets = out.iter().find(|(k, _)| k == "targets").unwrap();
        let ts = out.iter().find(|(k, _)| k == "index_timestamps").unwrap();
        let (Value::Series(p), Value::Series(t), Value::Timestamps(x)) =
            (&preds.1, &targets.1, &ts.1)
        else {
            panic!()
        };
        assert_eq!(p.len(), t.len());
        assert_eq!(p.len(), x.len());
        // ARIMA should track a clean sine closely.
        let mae: f64 =
            p.iter().zip(t).map(|(a, b)| (a - b).abs()).sum::<f64>() / p.len() as f64;
        assert!(mae < 0.05, "mae {mae}");
    }

    #[test]
    fn dense_autoencoder_reconstruction_shape() {
        let ctx = windowed_ctx(150, 12, false);
        let mut prim = DenseAutoencoderPrimitive::new();
        prim.set_hyperparam("epochs", HyperValue::Int(5)).unwrap();
        prim.fit(&ctx).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let Value::Windows(recons) = &out[0].1 else { panic!() };
        assert_eq!(recons.rows(), ctx.windows("windows").unwrap().rows());
        assert_eq!(recons.cols(), 12);
    }

    #[test]
    fn lstm_autoencoder_runs() {
        let ctx = windowed_ctx(80, 8, false);
        let mut prim = LstmAutoencoderPrimitive::new();
        prim.set_hyperparam("epochs", HyperValue::Int(2)).unwrap();
        prim.set_hyperparam("hidden", HyperValue::Int(6)).unwrap();
        prim.fit(&ctx).unwrap();
        let out = prim.produce(&ctx).unwrap();
        let Value::Windows(recons) = &out[0].1 else { panic!() };
        assert_eq!(recons.cols(), 8);
    }

    #[test]
    fn tadgan_emits_critic_scores() {
        let ctx = windowed_ctx(80, 8, false);
        let mut prim = TadGanPrimitive::new();
        prim.set_hyperparam("epochs", HyperValue::Int(2)).unwrap();
        prim.set_hyperparam("hidden", HyperValue::Int(8)).unwrap();
        prim.fit(&ctx).unwrap();
        let out = prim.produce(&ctx).unwrap();
        assert!(out.iter().any(|(k, _)| k == "reconstructions"));
        let critics = out.iter().find(|(k, _)| k == "critic_scores").unwrap();
        let Value::Series(c) = &critics.1 else { panic!() };
        assert_eq!(c.len(), ctx.windows("windows").unwrap().rows());
    }

    #[test]
    fn azure_service_scores_signal() {
        let n = 300;
        let mut series: Vec<f64> =
            (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 25.0).sin()).collect();
        series[200] += 10.0;
        let ctx = Context::from_signal(Signal::from_values("s", series));
        let mut prim = AzureAnomalyService::new();
        let out = prim.produce(&ctx).unwrap();
        let Value::Series(errors) = &out[0].1 else { panic!() };
        assert_eq!(errors.len(), n);
        let peak = sintel_common::argmax(errors).unwrap();
        assert!((peak as i64 - 200).abs() <= 3, "peak {peak}");
    }

    #[test]
    fn hyperparameter_validation() {
        let mut prim = LstmRegressorPrimitive::new();
        assert!(prim.set_hyperparam("hidden", HyperValue::Int(2)).is_err());
        assert!(prim.set_hyperparam("learning_rate", HyperValue::Float(0.5)).is_err());
        assert!(prim.set_hyperparam("learning_rate", HyperValue::Float(0.01)).is_ok());
    }
}
