//! Preprocessing primitives (Figure 2a, left of the LSTM block).

use std::sync::OnceLock;

use sintel_common::mean;
use sintel_timeseries::{resample, rolling_windows, Aggregation};

use crate::context::{Context, Value};
use crate::hyper::{HyperSpec, HyperValue};
use crate::primitive::{Engine, Primitive, PrimitiveMeta};
use crate::{PrimitiveError, Result};

fn algo(e: impl std::fmt::Display) -> PrimitiveError {
    PrimitiveError::Algorithm(e.to_string())
}

// ---------------------------------------------------------------------
// time_segments_aggregate
// ---------------------------------------------------------------------

/// Aggregate a raw signal into equi-spaced bins (`time_segments_aggregate`).
///
/// The `interval` hyperparameter of 0 means "auto": use the signal's
/// median sampling step, i.e. keep the native resolution while still
/// materialising gaps as NaN bins for the imputer.
#[derive(Debug)]
pub struct TimeSegmentsAggregate {
    meta: &'static PrimitiveMeta,
    interval: i64,
    agg: Aggregation,
}

impl TimeSegmentsAggregate {
    /// Create with defaults (`interval = auto`, mean aggregation).
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "time_segments_aggregate",
                    Engine::Preprocessing,
                    "aggregate a signal into equi-spaced time bins",
                    &["signal"],
                    &["signal"],
                    vec![
                        HyperSpec::int("interval", 0, 1_000_000, 0).fixed(),
                        HyperSpec::choice("method", &["mean", "median", "max", "min", "last"], "mean"),
                    ],
                )
            }),
            interval: 0,
            agg: Aggregation::Mean,
        }
    }
}

impl Default for TimeSegmentsAggregate {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for TimeSegmentsAggregate {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match name {
            "interval" => self.interval = value.as_int()?,
            "method" => {
                self.agg = Aggregation::parse(value.as_text()?).map_err(algo)?;
            }
            other => {
                return Err(crate::PrimitiveError::BadHyperparameter(format!(
                    "'time_segments_aggregate' cannot apply hyperparameter '{other}'"
                )))
            }
        }
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let signal = ctx.signal("signal")?;
        let interval = if self.interval == 0 {
            signal.median_step().max(1)
        } else {
            self.interval
        };
        let out = resample::time_segments_aggregate(signal, interval, self.agg).map_err(algo)?;
        Ok(vec![("signal".into(), Value::Signal(out))])
    }
}

// ---------------------------------------------------------------------
// SimpleImputer
// ---------------------------------------------------------------------

/// Fill missing (`NaN`) values (`SimpleImputer`). Strategies: `mean`
/// (signal mean, the paper's default), `interpolate` (linear), `zero`.
#[derive(Debug)]
pub struct SimpleImputer {
    meta: &'static PrimitiveMeta,
    strategy: String,
}

impl SimpleImputer {
    /// Create with the mean strategy.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "SimpleImputer",
                    Engine::Preprocessing,
                    "impute missing values",
                    &["signal"],
                    &["signal"],
                    vec![HyperSpec::choice("strategy", &["mean", "interpolate", "zero"], "mean")],
                )
            }),
            strategy: "mean".into(),
        }
    }
}

impl Default for SimpleImputer {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for SimpleImputer {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        self.strategy = value.as_text()?.to_string();
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let mut signal = ctx.signal("signal")?.clone();
        for c in 0..signal.num_channels() {
            match self.strategy.as_str() {
                "interpolate" => resample::interpolate_nans(signal.channel_mut(c)),
                "zero" => {
                    for v in signal.channel_mut(c) {
                        if v.is_nan() {
                            *v = 0.0;
                        }
                    }
                }
                _ => {
                    let finite: Vec<f64> =
                        signal.channel(c).iter().copied().filter(|v| v.is_finite()).collect();
                    let m = mean(&finite);
                    for v in signal.channel_mut(c) {
                        if v.is_nan() {
                            *v = m;
                        }
                    }
                }
            }
        }
        Ok(vec![("signal".into(), Value::Signal(signal))])
    }
}

// ---------------------------------------------------------------------
// MinMaxScaler / StandardScaler
// ---------------------------------------------------------------------

/// Scale each channel into `[-1, 1]` using ranges learned at fit time.
#[derive(Debug)]
pub struct MinMaxScaler {
    meta: &'static PrimitiveMeta,
    /// Per-channel `(min, max)` learned at fit time.
    ranges: Option<Vec<(f64, f64)>>,
}

impl MinMaxScaler {
    /// Create an unfitted scaler.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "MinMaxScaler",
                    Engine::Preprocessing,
                    "scale each channel into [-1, 1]",
                    &["signal"],
                    &["signal"],
                    vec![],
                )
            }),
            ranges: None,
        }
    }
}

impl Default for MinMaxScaler {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for MinMaxScaler {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)
    }

    fn fit(&mut self, ctx: &Context) -> Result<()> {
        let signal = ctx.signal("signal")?;
        let mut ranges = Vec::with_capacity(signal.num_channels());
        for c in 0..signal.num_channels() {
            let finite: Vec<f64> =
                signal.channel(c).iter().copied().filter(|v| v.is_finite()).collect();
            let lo = finite.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = finite.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            if !lo.is_finite() || !hi.is_finite() {
                return Err(PrimitiveError::Algorithm(
                    "cannot fit MinMaxScaler on all-NaN channel".into(),
                ));
            }
            ranges.push((lo, hi));
        }
        self.ranges = Some(ranges);
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let ranges = self
            .ranges
            .as_ref()
            .ok_or_else(|| PrimitiveError::NotFitted("MinMaxScaler".into()))?;
        let mut signal = ctx.signal("signal")?.clone();
        for (c, &(lo, hi)) in ranges.iter().enumerate().take(signal.num_channels()) {
            let span = (hi - lo).max(1e-12);
            for v in signal.channel_mut(c) {
                *v = 2.0 * (*v - lo) / span - 1.0;
            }
        }
        Ok(vec![("signal".into(), Value::Signal(signal))])
    }
}

/// Z-score standardisation per channel (`StandardScaler`) — the drop-in
/// replacement the paper uses to illustrate pipeline customisation.
#[derive(Debug)]
pub struct StandardScaler {
    meta: &'static PrimitiveMeta,
    stats: Option<Vec<(f64, f64)>>,
}

impl StandardScaler {
    /// Create an unfitted scaler.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "StandardScaler",
                    Engine::Preprocessing,
                    "z-score normalisation per channel",
                    &["signal"],
                    &["signal"],
                    vec![],
                )
            }),
            stats: None,
        }
    }
}

impl Default for StandardScaler {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for StandardScaler {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)
    }

    fn fit(&mut self, ctx: &Context) -> Result<()> {
        let signal = ctx.signal("signal")?;
        let mut stats = Vec::with_capacity(signal.num_channels());
        for c in 0..signal.num_channels() {
            let finite: Vec<f64> =
                signal.channel(c).iter().copied().filter(|v| v.is_finite()).collect();
            stats.push((mean(&finite), sintel_common::stddev(&finite).max(1e-12)));
        }
        self.stats = Some(stats);
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let stats = self
            .stats
            .as_ref()
            .ok_or_else(|| PrimitiveError::NotFitted("StandardScaler".into()))?;
        let mut signal = ctx.signal("signal")?.clone();
        for (c, &(mu, sigma)) in stats.iter().enumerate().take(signal.num_channels()) {
            for v in signal.channel_mut(c) {
                *v = (*v - mu) / sigma;
            }
        }
        Ok(vec![("signal".into(), Value::Signal(signal))])
    }
}

// ---------------------------------------------------------------------
// rolling_window_sequences
// ---------------------------------------------------------------------

/// Cut the signal into rolling windows (`rolling_window_sequences`).
///
/// With `targets = true` (prediction pipelines) each window is paired
/// with the next value; with `false` (reconstruction pipelines) the
/// windows stand alone.
#[derive(Debug)]
pub struct RollingWindowSequences {
    meta: &'static PrimitiveMeta,
    window_size: usize,
    step: usize,
    targets: bool,
}

impl RollingWindowSequences {
    /// Create with a 50-sample window, unit step and prediction targets.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "rolling_window_sequences",
                    Engine::Preprocessing,
                    "extract rolling windows (and optional next-value targets)",
                    &["signal"],
                    &["windows", "targets", "index_timestamps", "first_index"],
                    vec![
                        HyperSpec::int("window_size", 4, 500, 50),
                        HyperSpec::int("step", 1, 50, 1).fixed(),
                        HyperSpec {
                            name: "targets".into(),
                            range: crate::hyper::HyperRange::Flag,
                            default: HyperValue::Flag(true),
                            tunable: false,
                        },
                    ],
                )
                // `windows` is the main product; the other three slots are
                // alignment bookkeeping that only some downstream chains read.
                .auxiliary_write("targets")
                .auxiliary_write("index_timestamps")
                .auxiliary_write("first_index")
            }),
            window_size: 50,
            step: 1,
            targets: true,
        }
    }
}

impl Default for RollingWindowSequences {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for RollingWindowSequences {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match name {
            "window_size" => self.window_size = value.as_int()? as usize,
            "step" => self.step = value.as_int()? as usize,
            "targets" => self.targets = value.as_flag()?,
            other => {
                return Err(crate::PrimitiveError::BadHyperparameter(format!(
                    "'rolling_window_sequences' cannot apply hyperparameter '{other}'"
                )))
            }
        }
        Ok(())
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let signal = ctx.signal("signal")?;
        let ws = rolling_windows(signal, self.window_size, self.step, self.targets)
            .map_err(algo)?;
        Ok(vec![
            ("windows".into(), Value::Windows(ws.windows)),
            ("targets".into(), Value::Series(ws.targets)),
            ("index_timestamps".into(), Value::Timestamps(ws.index_timestamps)),
            ("first_index".into(), Value::Indices(ws.first_index)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_timeseries::Signal;

    fn signal_with_gap() -> Signal {
        Signal::univariate(
            "s",
            vec![0, 10, 20, 50, 60],
            vec![1.0, 2.0, 3.0, 6.0, 7.0],
        )
        .unwrap()
    }

    #[test]
    fn tsa_auto_interval_materialises_gaps() {
        let mut tsa = TimeSegmentsAggregate::new();
        let ctx = Context::from_signal(signal_with_gap());
        let out = tsa.produce(&ctx).unwrap();
        let Value::Signal(sig) = &out[0].1 else { panic!("expected signal") };
        assert_eq!(sig.median_step(), 10);
        assert!(sig.values().iter().any(|v| v.is_nan()), "gap should be NaN");
    }

    #[test]
    fn tsa_rejects_bad_method() {
        let mut tsa = TimeSegmentsAggregate::new();
        assert!(tsa.set_hyperparam("method", HyperValue::Text("median".into())).is_ok());
        assert!(tsa.set_hyperparam("method", HyperValue::Text("bogus".into())).is_err());
        assert!(tsa.set_hyperparam("nope", HyperValue::Int(1)).is_err());
    }

    #[test]
    fn imputer_mean_fills_nans() {
        let mut imp = SimpleImputer::new();
        let sig =
            Signal::univariate("s", vec![0, 1, 2], vec![1.0, f64::NAN, 3.0]).unwrap();
        let out = imp.produce(&Context::from_signal(sig)).unwrap();
        let Value::Signal(sig) = &out[0].1 else { panic!() };
        assert_eq!(sig.values(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn imputer_strategies() {
        let sig =
            Signal::univariate("s", vec![0, 1, 2, 3], vec![1.0, f64::NAN, f64::NAN, 4.0])
                .unwrap();
        let mut interp = SimpleImputer::new();
        interp.set_hyperparam("strategy", HyperValue::Text("interpolate".into())).unwrap();
        let out = interp.produce(&Context::from_signal(sig.clone())).unwrap();
        let Value::Signal(s) = &out[0].1 else { panic!() };
        assert_eq!(s.values(), &[1.0, 2.0, 3.0, 4.0]);

        let mut zero = SimpleImputer::new();
        zero.set_hyperparam("strategy", HyperValue::Text("zero".into())).unwrap();
        let out = zero.produce(&Context::from_signal(sig)).unwrap();
        let Value::Signal(s) = &out[0].1 else { panic!() };
        assert_eq!(s.values(), &[1.0, 0.0, 0.0, 4.0]);
    }

    #[test]
    fn minmax_scales_train_range_to_unit() {
        let mut sc = MinMaxScaler::new();
        let sig = Signal::from_values("s", vec![0.0, 5.0, 10.0]);
        let ctx = Context::from_signal(sig);
        sc.fit(&ctx).unwrap();
        let out = sc.produce(&ctx).unwrap();
        let Value::Signal(s) = &out[0].1 else { panic!() };
        assert_eq!(s.values(), &[-1.0, 0.0, 1.0]);
    }

    #[test]
    fn minmax_requires_fit() {
        let mut sc = MinMaxScaler::new();
        let ctx = Context::from_signal(Signal::from_values("s", vec![1.0]));
        assert!(matches!(sc.produce(&ctx), Err(PrimitiveError::NotFitted(_))));
    }

    #[test]
    fn minmax_applies_train_stats_to_new_data() {
        let mut sc = MinMaxScaler::new();
        let train = Context::from_signal(Signal::from_values("s", vec![0.0, 10.0]));
        sc.fit(&train).unwrap();
        let test = Context::from_signal(Signal::from_values("s", vec![20.0]));
        let out = sc.produce(&test).unwrap();
        let Value::Signal(s) = &out[0].1 else { panic!() };
        assert_eq!(s.values(), &[3.0]); // extrapolates beyond [-1, 1]
    }

    #[test]
    fn standard_scaler_zero_mean_unit_std() {
        let mut sc = StandardScaler::new();
        let sig = Signal::from_values("s", vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let ctx = Context::from_signal(sig);
        sc.fit(&ctx).unwrap();
        let out = sc.produce(&ctx).unwrap();
        let Value::Signal(s) = &out[0].1 else { panic!() };
        assert!(mean(s.values()).abs() < 1e-12);
        assert!((sintel_common::stddev(s.values()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rolling_windows_prediction_mode() {
        let mut rw = RollingWindowSequences::new();
        rw.set_hyperparam("window_size", HyperValue::Int(4)).unwrap();
        let ctx = Context::from_signal(Signal::from_values(
            "s",
            (0..10).map(|i| i as f64).collect(),
        ));
        let out = rw.produce(&ctx).unwrap();
        let ctx2 = {
            let mut c = ctx.clone();
            for (k, v) in out {
                c.set(k, v);
            }
            c
        };
        assert_eq!(ctx2.windows("windows").unwrap().rows(), 6);
        assert_eq!(ctx2.series("targets").unwrap(), &vec![4.0, 5.0, 6.0, 7.0, 8.0, 9.0]);
    }

    #[test]
    fn rolling_windows_reconstruction_mode() {
        let mut rw = RollingWindowSequences::new();
        rw.set_hyperparam("window_size", HyperValue::Int(4)).unwrap();
        rw.set_hyperparam("targets", HyperValue::Flag(false)).unwrap();
        let ctx = Context::from_signal(Signal::from_values(
            "s",
            (0..10).map(|i| i as f64).collect(),
        ));
        let out = rw.produce(&ctx).unwrap();
        let windows = out.iter().find(|(k, _)| k == "windows").unwrap();
        let Value::Windows(w) = &windows.1 else { panic!() };
        assert_eq!(w.rows(), 7);
    }

    #[test]
    fn window_size_range_enforced() {
        let mut rw = RollingWindowSequences::new();
        assert!(rw.set_hyperparam("window_size", HyperValue::Int(2)).is_err());
        assert!(rw.set_hyperparam("window_size", HyperValue::Int(1000)).is_err());
    }
}
