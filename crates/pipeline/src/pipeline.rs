//! The configured, executable pipeline ⟨V, E, λ⟩ with its fit / detect
//! lifecycle.

use std::panic::{catch_unwind, AssertUnwindSafe};

use sintel_obs::FieldValue;
use sintel_primitives::{Context, Engine, Primitive, Value};
use sintel_timeseries::{ScoredInterval, Signal};

use crate::profile::{PipelineProfile, StepProfile};
use crate::{PipelineError, Result};

/// Contract sanitizer (cargo feature `sanitizer`): every slot the
/// primitive actually read during `phase` must be declared — with the
/// matching phase flag — in its static contract.
#[cfg(feature = "sanitizer")]
fn sanitize_reads(
    contract: &sintel_primitives::Contract,
    step: &str,
    phase: &str,
    reads: Vec<String>,
) -> Result<()> {
    for slot in reads {
        let declared = contract
            .reads
            .iter()
            .any(|r| r.slot == slot && if phase == "fit" { r.fit } else { r.produce });
        if !declared {
            return Err(PipelineError::ContractViolation {
                step: step.to_string(),
                phase: phase.to_string(),
                access: "read".to_string(),
                slot,
            });
        }
    }
    Ok(())
}

/// Contract sanitizer: every slot the primitive emitted must be a
/// declared write.
#[cfg(feature = "sanitizer")]
fn sanitize_writes(
    contract: &sintel_primitives::Contract,
    step: &str,
    phase: &str,
    outputs: &[(String, Value)],
) -> Result<()> {
    for (slot, _) in outputs {
        if !contract.writes.iter().any(|w| &w.slot == slot) {
            return Err(PipelineError::ContractViolation {
                step: step.to_string(),
                phase: phase.to_string(),
                access: "write".to_string(),
                slot: slot.clone(),
            });
        }
    }
    Ok(())
}

/// True when every float a primitive emitted is finite. Timestamps and
/// indices are integral and cannot be poisoned; full signals are only
/// re-emitted by preprocessing, which is exempt from the guard.
fn value_is_finite(value: &Value) -> bool {
    match value {
        Value::Series(v) => v.iter().all(|x| x.is_finite()),
        Value::Windows(w) => w.is_finite(),
        Value::Intervals(ivs) => ivs.iter().all(|iv| iv.score.is_finite()),
        Value::Scalar(x) => x.is_finite(),
        Value::Timestamps(_) | Value::Indices(_) | Value::Signal(_) => true,
    }
}

/// An executable anomaly detection pipeline.
///
/// `fit(signal)` runs every primitive's `fit` then `produce` over the
/// training signal (modeling primitives need their preprocessing outputs
/// produced before they can fit, hence the interleaving). `detect(signal)`
/// runs `produce` only and extracts the `anomalies` slot.
/// `fit_detect_incremental(window)` interleaves `fit` with `update`
/// instead, fitting and detecting in one run.
pub struct Pipeline {
    name: String,
    steps: Vec<Box<dyn Primitive>>,
    fitted: bool,
    profile: PipelineProfile,
}

impl Pipeline {
    /// Assemble from instantiated primitives (usually via
    /// [`crate::Template::build`]).
    pub fn new(name: &str, steps: Vec<Box<dyn Primitive>>) -> Self {
        Self { name: name.to_string(), steps, fitted: false, profile: PipelineProfile::default() }
    }

    /// Pipeline name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Whether `fit` has completed.
    pub fn is_fitted(&self) -> bool {
        self.fitted
    }

    /// Primitive names, pipeline order.
    pub fn step_names(&self) -> Vec<&str> {
        self.steps.iter().map(|s| s.meta().name.as_str()).collect()
    }

    /// Profiling data of the most recent fit/detect run.
    pub fn profile(&self) -> &PipelineProfile {
        &self.profile
    }

    /// Execute the pipeline over a signal.
    ///
    /// All timing is span-based (see `sintel-obs`): the whole run is one
    /// span and every primitive `fit`/`produce` is a child span, so the
    /// per-step numbers in [`PipelineProfile`] and the exported trace
    /// come from the same clock and `primitive_time() <= total_time()`
    /// holds by construction.
    fn run(&mut self, signal: &Signal, do_fit: bool) -> Result<Context> {
        self.run_mode(signal, do_fit, false)
    }

    fn run_mode(&mut self, signal: &Signal, do_fit: bool, incremental: bool) -> Result<Context> {
        let mut ctx = Context::from_signal(signal.clone());
        if do_fit {
            self.profile = PipelineProfile::default();
        }
        let run_span = sintel_obs::span_with(
            match (do_fit, incremental) {
                (true, _) => "pipeline.fit",
                (false, false) => "pipeline.produce",
                (false, true) => "pipeline.update",
            },
            &[("pipeline", FieldValue::from(self.name.as_str()))],
        );
        for step in &mut self.steps {
            let meta_name = step.meta().name.clone();
            let engine = step.meta().engine;
            #[cfg(feature = "sanitizer")]
            let contract = step.meta().contract.clone();
            let mut fit_time = std::time::Duration::ZERO;
            if do_fit {
                // A failing step returns early; its span guard drops,
                // which closes the span, so the trace stays balanced.
                let fit_span = sintel_obs::span_with(
                    "primitive.fit",
                    &[
                        ("primitive", FieldValue::from(meta_name.as_str())),
                        ("engine", FieldValue::from(engine.to_string())),
                    ],
                );
                // Drain stale log entries so accesses attribute to this
                // step's fit alone.
                #[cfg(feature = "sanitizer")]
                drop(ctx.sanitizer_take_reads());
                catch_unwind(AssertUnwindSafe(|| step.fit(&ctx)))
                    .map_err(|payload| PipelineError::PrimitivePanic {
                        step: meta_name.clone(),
                        message: sintel_common::panic_message(payload.as_ref()),
                    })?
                    .map_err(|e| PipelineError::Step {
                        step: meta_name.clone(),
                        source: e.to_string(),
                    })?;
                #[cfg(feature = "sanitizer")]
                sanitize_reads(&contract, &meta_name, "fit", ctx.sanitizer_take_reads())?;
                fit_time = fit_span.close();
                sintel_obs::observe_duration("sintel_primitive_fit_seconds", fit_time);
            }
            let produce_span = sintel_obs::span_with(
                if incremental { "primitive.update" } else { "primitive.produce" },
                &[
                    ("primitive", FieldValue::from(meta_name.as_str())),
                    ("engine", FieldValue::from(engine.to_string())),
                ],
            );
            #[cfg(feature = "sanitizer")]
            drop(ctx.sanitizer_take_reads());
            let outputs = catch_unwind(AssertUnwindSafe(|| {
                if incremental {
                    step.update(&ctx)
                } else {
                    step.produce(&ctx)
                }
            }))
                .map_err(|payload| PipelineError::PrimitivePanic {
                    step: meta_name.clone(),
                    message: sintel_common::panic_message(payload.as_ref()),
                })?
                .map_err(|e| PipelineError::Step {
                    step: meta_name.clone(),
                    source: e.to_string(),
                })?;
            #[cfg(feature = "sanitizer")]
            {
                let phase = if incremental { "update" } else { "produce" };
                sanitize_reads(&contract, &meta_name, phase, ctx.sanitizer_take_reads())?;
                sanitize_writes(&contract, &meta_name, phase, &outputs)?;
            }
            let produce_time = produce_span.close();
            sintel_obs::observe_duration("sintel_primitive_produce_seconds", produce_time);
            // Inter-step output guard: NaN/Inf leaving a modeling or
            // postprocessing primitive would silently poison thresholding
            // downstream, so reject it here. Preprocessing is exempt —
            // time_segments_aggregate legitimately materialises gaps as NaN
            // for SimpleImputer to fill.
            if engine != Engine::Preprocessing {
                for (_, value) in &outputs {
                    if !value_is_finite(value) {
                        return Err(PipelineError::NonFinite { step: meta_name.clone() });
                    }
                }
            }
            for (slot, value) in outputs {
                ctx.set(slot, value);
            }
            if do_fit {
                self.profile.steps.push(StepProfile {
                    primitive: meta_name,
                    engine,
                    fit_time,
                    produce_time,
                });
            } else if let Some(rec) =
                self.profile.steps.iter_mut().find(|s| s.primitive == meta_name)
            {
                rec.produce_time += produce_time;
            }
        }
        // The run span encloses every step span on the same clock, so
        // the profile totals and the per-step times cannot disagree
        // (the Figure 7b overhead delta is computed from one clock).
        let run_time = run_span.close();
        if do_fit {
            self.profile.fit_total = run_time;
            sintel_obs::observe_duration("sintel_pipeline_fit_seconds", run_time);
        } else {
            self.profile.detect_total += run_time;
            sintel_obs::observe_duration("sintel_pipeline_detect_seconds", run_time);
        }
        self.profile.debug_assert_consistent();
        Ok(ctx)
    }

    /// Train the pipeline end-to-end on a signal (Figure 4a:
    /// `sintel.fit(train_data)`).
    pub fn fit(&mut self, signal: &Signal) -> Result<()> {
        self.run(signal, true)?;
        self.fitted = true;
        Ok(())
    }

    /// Detect anomalies in (new) data (Figure 4a:
    /// `sintel.detect(new_data)`). Returns scored intervals in timestamp
    /// space.
    pub fn detect(&mut self, signal: &Signal) -> Result<Vec<ScoredInterval>> {
        if !self.fitted {
            return Err(PipelineError::NotFitted(self.name.clone()));
        }
        let ctx = self.run(signal, false)?;
        self.anomalies(&ctx)
    }

    /// Detect anomalies through the incremental (`update`) path on an
    /// already-fitted pipeline: every step's [`Primitive::update`] runs
    /// instead of `produce`. The default `update` falls back to batch
    /// `produce` over the buffered window, so for stock primitives this
    /// is bitwise-identical to [`Pipeline::detect`] (enforced by the
    /// streaming purity test). The serving tier refits on every pass
    /// and goes through [`Pipeline::fit_detect_incremental`] instead.
    pub fn detect_incremental(&mut self, signal: &Signal) -> Result<Vec<ScoredInterval>> {
        if !self.fitted {
            return Err(PipelineError::NotFitted(self.name.clone()));
        }
        let ctx = self.run_mode(signal, false, true)?;
        self.anomalies(&ctx)
    }

    /// Fit on `window` and detect on it through the incremental path in
    /// one executor run: each step's `fit` is followed directly by its
    /// [`Primitive::update`], whose outputs feed the next step's `fit`.
    /// This is the serving tier's per-pass entry point. It returns the
    /// same intervals as [`Pipeline::fit`] followed by
    /// [`Pipeline::detect_incremental`] on the same window, without
    /// running every step's `produce` a second time (a differential
    /// oracle test pins the equality bitwise for every hub template).
    pub fn fit_detect_incremental(&mut self, window: &Signal) -> Result<Vec<ScoredInterval>> {
        let ctx = self.run_mode(window, true, true)?;
        self.fitted = true;
        self.anomalies(&ctx)
    }

    /// The `anomalies` slot of a finished run.
    fn anomalies(&self, ctx: &Context) -> Result<Vec<ScoredInterval>> {
        match ctx.get("anomalies") {
            Some(Value::Intervals(anoms)) => Ok(anoms.clone()),
            _ => Err(PipelineError::Step {
                step: self.name.clone(),
                source: "pipeline produced no 'anomalies' slot".into(),
            }),
        }
    }

    /// Convenience: fit on `train` then detect on `test`.
    pub fn fit_detect(
        &mut self,
        train: &Signal,
        test: &Signal,
    ) -> Result<Vec<ScoredInterval>> {
        self.fit(train)?;
        self.detect(test)
    }

    /// Run the pipeline *up to* (excluding) the postprocessing threshold
    /// stage and return the error series and timestamps — the signal-fit
    /// view the unsupervised tuner optimises (Figure 5, setting 1).
    pub fn errors(&mut self, signal: &Signal) -> Result<(Vec<f64>, Vec<i64>)> {
        if !self.fitted {
            return Err(PipelineError::NotFitted(self.name.clone()));
        }
        let ctx = self.run(signal, false)?;
        let errors = ctx
            .series("errors")
            .map_err(|e| PipelineError::Step { step: self.name.clone(), source: e.to_string() })?
            .clone();
        let ts = ctx
            .timestamps("error_timestamps")
            .map_err(|e| PipelineError::Step { step: self.name.clone(), source: e.to_string() })?
            .clone();
        Ok((errors, ts))
    }
}

impl std::fmt::Debug for Pipeline {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pipeline")
            .field("name", &self.name)
            .field("steps", &self.step_names())
            .field("fitted", &self.fitted)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::{StepSpec, Template};
    use sintel_primitives::HyperValue;

    /// A fast end-to-end template (ARIMA based) for executor tests.
    fn fast_template() -> Template {
        Template {
            name: "test_arima".into(),
            steps: vec![
                StepSpec::plain("time_segments_aggregate"),
                StepSpec::plain("SimpleImputer"),
                StepSpec::plain("MinMaxScaler"),
                StepSpec::with("arima", &[("p", HyperValue::Int(3)), ("q", HyperValue::Int(0))]),
                StepSpec::plain("regression_errors"),
                StepSpec::plain("find_anomalies"),
            ],
        }
    }

    fn spiky_signal(n: usize) -> Signal {
        let mut vals: Vec<f64> =
            (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 40.0).sin()).collect();
        for v in vals.iter_mut().skip(n / 2).take(6) {
            *v += 5.0;
        }
        Signal::from_values("spiky", vals)
    }

    #[test]
    fn fit_detect_finds_injected_spike() {
        let mut pipeline = fast_template().build_default().unwrap();
        let clean = Signal::from_values(
            "clean",
            (0..400).map(|t| (std::f64::consts::TAU * t as f64 / 40.0).sin()).collect(),
        );
        let test = spiky_signal(400);
        let anomalies = pipeline.fit_detect(&clean, &test).unwrap();
        assert!(!anomalies.is_empty(), "spike not detected");
        // The detection covers the injected region (timestamps == indices).
        assert!(
            anomalies.iter().any(|a| a.interval.start >= 180 && a.interval.start <= 215),
            "{anomalies:?}"
        );
    }

    #[test]
    fn detect_before_fit_errors() {
        let mut pipeline = fast_template().build_default().unwrap();
        let s = spiky_signal(100);
        assert!(matches!(pipeline.detect(&s), Err(PipelineError::NotFitted(_))));
        assert!(matches!(pipeline.errors(&s), Err(PipelineError::NotFitted(_))));
    }

    #[test]
    fn profile_populated_after_run() {
        let mut pipeline = fast_template().build_default().unwrap();
        let s = spiky_signal(400);
        pipeline.fit(&s).unwrap();
        pipeline.detect(&s).unwrap();
        let prof = pipeline.profile();
        assert_eq!(prof.steps.len(), 6);
        assert!(prof.fit_total > std::time::Duration::ZERO);
        assert!(prof.detect_total > std::time::Duration::ZERO);
        assert!(prof.total_time() >= prof.primitive_time());
    }

    /// Regression: repeated `detect`/`errors` calls accumulate both the
    /// per-step produce times and `detect_total` from the same clock,
    /// so the primitives' own time can never exceed the wall-clock
    /// (the old code overwrote `detect_total` while accumulating
    /// produce times, double-counting the Figure 7b overhead delta).
    #[test]
    fn repeated_runs_keep_profile_consistent() {
        let mut pipeline = fast_template().build_default().unwrap();
        let s = spiky_signal(400);
        pipeline.fit(&s).unwrap();
        for _ in 0..3 {
            pipeline.detect(&s).unwrap();
        }
        pipeline.errors(&s).unwrap();
        let prof = pipeline.profile();
        assert!(
            prof.primitive_time() <= prof.total_time(),
            "primitive {:?} > total {:?}",
            prof.primitive_time(),
            prof.total_time()
        );
        // detect_total accumulated across all four produce-only runs.
        assert!(prof.detect_total > std::time::Duration::ZERO);
    }

    /// The default `update` falls back to `produce`, so the incremental
    /// path must match batch detection bitwise for stock primitives.
    #[test]
    fn detect_incremental_matches_batch_bitwise() {
        let mut pipeline = fast_template().build_default().unwrap();
        let s = spiky_signal(400);
        pipeline.fit(&s).unwrap();
        let batch = pipeline.detect(&s).unwrap();
        let incremental = pipeline.detect_incremental(&s).unwrap();
        assert_eq!(batch.len(), incremental.len());
        for (a, b) in batch.iter().zip(&incremental) {
            assert_eq!(a.interval.start, b.interval.start);
            assert_eq!(a.interval.end, b.interval.end);
            assert_eq!(a.score.to_bits(), b.score.to_bits());
        }
        assert!(matches!(
            fast_template().build_default().unwrap().detect_incremental(&s),
            Err(PipelineError::NotFitted(_))
        ));
    }

    #[test]
    fn errors_view_exposes_series() {
        let mut pipeline = fast_template().build_default().unwrap();
        let s = spiky_signal(400);
        pipeline.fit(&s).unwrap();
        let (errors, ts) = pipeline.errors(&s).unwrap();
        assert_eq!(errors.len(), ts.len());
        assert!(!errors.is_empty());
    }

    #[test]
    fn step_names_in_order() {
        let pipeline = fast_template().build_default().unwrap();
        assert_eq!(
            pipeline.step_names(),
            vec![
                "time_segments_aggregate",
                "SimpleImputer",
                "MinMaxScaler",
                "arima",
                "regression_errors",
                "find_anomalies"
            ]
        );
    }
}
