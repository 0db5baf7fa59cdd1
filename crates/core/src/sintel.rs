//! The `Sintel` orchestrator — the user-facing API of Figure 4a.

use sintel_metrics::{overlapping_segment, weighted_segment, Scores};
use sintel_obs::FieldValue;
use sintel_pipeline::{hub, ParamId, Pipeline, PipelineProfile, Template};
use sintel_primitives::HyperValue;
use sintel_store::SintelDb;
use sintel_timeseries::{Interval, ScoredInterval, Signal};

use crate::benchmark::MetricKind;
use crate::policy::{run_guarded, run_with_policy, Failure, RunPolicy};
use crate::tune::{self, TuneReport, TuneSetting};
use crate::{Result, SintelError};

/// The end-to-end framework handle.
///
/// ```
/// use sintel::Sintel;
/// use sintel_datasets::load_signal;
///
/// let train = load_signal("S-2-train").unwrap();
/// let new_data = load_signal("S-2-new").unwrap();
///
/// let mut sintel = Sintel::new("arima").unwrap();
/// sintel.fit(&train.signal).unwrap();
/// let anomalies = sintel.detect(&new_data.signal).unwrap();
/// assert!(!anomalies.is_empty());
/// ```
pub struct Sintel {
    template: Template,
    pipeline: Pipeline,
    /// Hyperparameter configuration the pipeline is rebuilt with
    /// (empty = defaults; replaced by `tune`).
    lambda: Vec<(ParamId, HyperValue)>,
    policy: RunPolicy,
    db: Option<SintelDb>,
    signalrun_counter: u64,
}

impl Sintel {
    /// Create from a hub pipeline name (Figure 4a:
    /// `Sintel(pipeline="lstm_dynamic_threshold")`).
    pub fn new(pipeline: &str) -> Result<Self> {
        let template = hub::template_by_name(pipeline)?;
        let pipeline = template.build_default()?;
        Ok(Self {
            template,
            pipeline,
            lambda: Vec::new(),
            policy: RunPolicy::default(),
            db: None,
            signalrun_counter: 0,
        })
    }

    /// Create from a custom template (the "system builder" path).
    pub fn from_template(template: Template) -> Result<Self> {
        let pipeline = template.build_default()?;
        Ok(Self {
            template,
            pipeline,
            lambda: Vec::new(),
            policy: RunPolicy::default(),
            db: None,
            signalrun_counter: 0,
        })
    }

    /// Attach a knowledge base: every subsequent detection run persists
    /// its events (§3.5).
    pub fn with_db(mut self, db: SintelDb) -> Self {
        self.db = Some(db);
        self
    }

    /// Override the execution policy guarding `fit`/`detect` (watchdog
    /// timeout, retries, backoff).
    pub fn with_policy(mut self, policy: RunPolicy) -> Self {
        self.policy = policy;
        self
    }

    /// The active execution policy.
    pub fn policy(&self) -> &RunPolicy {
        &self.policy
    }

    /// The active pipeline's name.
    pub fn pipeline_name(&self) -> &str {
        self.pipeline.name()
    }

    /// Borrow the attached knowledge base, if any.
    pub fn db(&self) -> Option<&SintelDb> {
        self.db.as_ref()
    }

    /// Profiling data of the last fit/detect run.
    pub fn profile(&self) -> &PipelineProfile {
        self.pipeline.profile()
    }

    /// Train the pipeline (`sintel.fit(train_data)`).
    ///
    /// Runs under the fault-isolation layer: each attempt builds a
    /// fresh pipeline (so a poisoned half-fitted state never survives a
    /// retry) on a watchdog thread; panics are contained and a fit that
    /// exceeds [`RunPolicy::timeout`] is abandoned as an error.
    pub fn fit(&mut self, data: &Signal) -> Result<()> {
        let template = self.template.clone();
        let lambda = self.lambda.clone();
        let data = data.clone();
        let attempt = move || {
            // On the watchdog thread, so the pipeline spans nest inside.
            let _span = sintel_obs::span_with(
                "sintel.fit",
                &[
                    ("pipeline", FieldValue::from(template.name.as_str())),
                    ("signal", FieldValue::from(data.name())),
                ],
            );
            let mut pipeline = template.build(&lambda)?;
            pipeline.fit(&data)?;
            Ok::<_, Failure>(pipeline)
        };
        let (result, _attempts) = run_with_policy(&self.policy, attempt);
        match result {
            Ok(pipeline) => {
                self.pipeline = pipeline;
                Ok(())
            }
            Err(failure) => Err(SintelError::Pipeline(failure.to_string())),
        }
    }

    /// Detect anomalies (`sintel.detect(new_data)`), persisting events to
    /// the knowledge base when attached; a failed store write is
    /// returned as [`SintelError::Store`].
    ///
    /// Guarded by the watchdog: a panicking or hanging detection
    /// returns an error instead of taking the caller down. After such a
    /// failure the orchestrator holds a fresh *unfitted* pipeline —
    /// call [`Sintel::fit`] again before the next detection.
    pub fn detect(&mut self, data: &Signal) -> Result<Vec<ScoredInterval>> {
        let pipeline_name = self.pipeline_name().to_string();
        // The fitted pipeline moves onto the watchdog worker; a
        // step-less stand-in holds its place until it comes back.
        let stand_in = Pipeline::new(&pipeline_name, Vec::new());
        let fitted = std::mem::replace(&mut self.pipeline, stand_in);
        let data_owned = data.clone();
        let outcome = run_guarded(self.policy.timeout, move || {
            let _span = sintel_obs::span_with(
                "sintel.detect",
                &[
                    ("pipeline", FieldValue::from(pipeline_name.as_str())),
                    ("signal", FieldValue::from(data_owned.name())),
                ],
            );
            let mut pipeline = fitted;
            let result = pipeline.detect(&data_owned);
            (pipeline, result)
        });
        let (pipeline, result) = match outcome {
            Ok(done) => done,
            Err(failure) => {
                self.pipeline = self.template.build(&self.lambda)?;
                return Err(SintelError::Pipeline(failure.to_string()));
            }
        };
        self.pipeline = pipeline;
        let anomalies = result?;
        if let Some(db) = &self.db {
            self.signalrun_counter += 1;
            let run = db.add_signalrun(self.signalrun_counter, data.name(), "done")?;
            for a in &anomalies {
                db.add_event(run, data.name(), a.interval.start, a.interval.end, a.score)?;
            }
        }
        Ok(anomalies)
    }

    /// Fit on `train`, detect on `test`.
    pub fn fit_detect(&mut self, train: &Signal, test: &Signal) -> Result<Vec<ScoredInterval>> {
        self.fit(train)?;
        self.detect(test)
    }

    /// Detect and score against ground truth with the chosen metric.
    pub fn evaluate(
        &mut self,
        data: &Signal,
        ground_truth: &[Interval],
        metric: MetricKind,
    ) -> Result<Scores> {
        let detected = self.detect(data)?;
        let pred: Vec<Interval> = detected.iter().map(|d| d.interval).collect();
        Ok(score(ground_truth, &pred, metric))
    }

    /// AutoML (Figure 4b): search the template's joint hyperparameter
    /// space and adopt the best configuration found. Returns the tuning
    /// report; the orchestrator keeps the improved pipeline.
    pub fn tune(
        &mut self,
        data: &Signal,
        setting: TuneSetting,
        budget: usize,
    ) -> Result<TuneReport> {
        let report = tune::tune_template(&self.template, data, &setting, budget)?;
        self.lambda = report.best_lambda.clone();
        // `fit` rebuilds from template + λ* under the fault-isolation
        // layer, so the orchestrator keeps the improved pipeline.
        self.fit(data)?;
        Ok(report)
    }
}

/// Score predictions against ground truth with the given metric.
pub fn score(truth: &[Interval], pred: &[Interval], metric: MetricKind) -> Scores {
    if truth.is_empty() && pred.is_empty() {
        return Scores::perfect();
    }
    match metric {
        MetricKind::Overlap => overlapping_segment(truth, pred).scores(),
        MetricKind::Weighted => weighted_segment(truth, pred).scores(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SintelError;
    use sintel_datasets::load_signal;

    #[test]
    fn figure_4a_workflow_end_to_end() {
        // load -> pick pipeline -> fit -> detect, exactly Figure 4a.
        let train = load_signal("S-2-train").unwrap();
        let new_data = load_signal("S-2-new").unwrap();
        let mut sintel = Sintel::new("arima").unwrap();
        sintel.fit(&train.signal).unwrap();
        let anomalies = sintel.detect(&new_data.signal).unwrap();
        assert!(!anomalies.is_empty(), "S-2 anomalies not detected");
        // Quality against the demo ground truth.
        let pred: Vec<Interval> = anomalies.iter().map(|a| a.interval).collect();
        let s = score(&new_data.anomalies, &pred, MetricKind::Overlap);
        assert!(s.recall > 0.3, "recall {:?}", s);
    }

    #[test]
    fn unknown_pipeline_name() {
        assert!(matches!(Sintel::new("prophet"), Err(SintelError::Pipeline(_))));
    }

    #[test]
    fn detection_persists_events_to_db() {
        let train = load_signal("S-2-train").unwrap();
        let new_data = load_signal("S-2-new").unwrap();
        let mut sintel =
            Sintel::new("arima").unwrap().with_db(SintelDb::in_memory());
        sintel.fit(&train.signal).unwrap();
        let anomalies = sintel.detect(&new_data.signal).unwrap();
        let events = sintel.db().unwrap().events_for_signal("S-2");
        assert_eq!(events.len(), anomalies.len());
        assert!(!events.is_empty());
    }

    #[test]
    fn evaluate_returns_scores() {
        let full = load_signal("S-2").unwrap();
        let mut sintel = Sintel::new("arima").unwrap();
        sintel.fit(&full.signal).unwrap();
        let s = sintel
            .evaluate(&full.signal, &full.anomalies, MetricKind::Overlap)
            .unwrap();
        assert!(s.f1 > 0.0, "{s:?}");
        let sw = sintel
            .evaluate(&full.signal, &full.anomalies, MetricKind::Weighted)
            .unwrap();
        assert!(sw.accuracy >= 0.0);
    }

    #[test]
    fn score_empty_sets_is_perfect() {
        let s = score(&[], &[], MetricKind::Overlap);
        assert_eq!(s.f1, 1.0);
    }

    #[test]
    fn custom_template_path() {
        use sintel_pipeline::{StepSpec, Template};
        use sintel_primitives::HyperValue;
        let template = Template {
            name: "custom_zscore".into(),
            steps: vec![
                StepSpec::plain("time_segments_aggregate"),
                StepSpec::plain("SimpleImputer"),
                // The paper's customisation example: swap the scaler.
                StepSpec::plain("StandardScaler"),
                StepSpec::with("arima", &[("p", HyperValue::Int(3))]),
                StepSpec::plain("regression_errors"),
                StepSpec::plain("find_anomalies"),
            ],
        };
        let full = load_signal("S-2").unwrap();
        let mut sintel = Sintel::from_template(template).unwrap();
        sintel.fit(&full.signal).unwrap();
        assert_eq!(sintel.pipeline_name(), "custom_zscore");
        let anomalies = sintel.detect(&full.signal).unwrap();
        assert!(!anomalies.is_empty());
    }
}
