//! AutoML bridge: template hyperparameter spaces → the GP tuner
//! (paper §3.3, Figure 5).
//!
//! Two settings, as in the paper:
//!
//! * **Supervised** — ground-truth anomalies exist; the objective is the
//!   detection F1 (overlapping segment) of the *whole* pipeline.
//! * **Unsupervised** — no labels; the objective scores how well the
//!   modeling sub-pipeline reproduces the signal (negative mean error),
//!   so only the signal-fit is optimised.

use sintel_metrics::overlapping_segment;
use sintel_obs::FieldValue;
use sintel_pipeline::{ParamId, Template};
use sintel_primitives::{HyperRange, HyperSpec, HyperValue};
use sintel_timeseries::{Interval, Signal};
use sintel_tuner::{DimSpec, DimValue, GpTuner, Space, Tuner};

use crate::policy::{run_guarded, RunPolicy};
use crate::{Result, SintelError};

/// Log target of the tuner bridge.
const TARGET: &str = "sintel::tune";

/// Candidate λs evaluated concurrently per GP round. Fixed — never
/// derived from the thread count — so proposals, the GP's update
/// sequence and therefore the whole search trajectory are identical
/// at every `SINTEL_THREADS` value.
const TRIAL_BATCH: usize = 4;

/// Cost-gate threshold: a candidate whose statically estimated flops
/// exceed this multiple of the default configuration's estimate is
/// rejected without execution. Generous on purpose — the estimates are
/// order-of-magnitude bounds, and legitimate search moves (more epochs,
/// wider layers) routinely cost 10x the default; only configurations
/// that could eat the whole trial budget by themselves are cut.
const COST_EXPLOSION_FACTOR: f64 = 64.0;

/// Which objective drives the search (Figure 5's two conditions).
#[derive(Debug, Clone)]
pub enum TuneSetting {
    /// Maximise detection F1 against known anomalies.
    Supervised {
        /// Ground-truth anomalies of the tuning signal.
        ground_truth: Vec<Interval>,
    },
    /// Maximise signal reproduction (negative mean error).
    Unsupervised,
}

/// Outcome of a tuning run.
#[derive(Debug, Clone)]
pub struct TuneReport {
    /// Score of the default configuration (evaluated first).
    pub default_score: f64,
    /// Best score found.
    pub best_score: f64,
    /// The winning configuration λ*.
    pub best_lambda: Vec<(ParamId, HyperValue)>,
    /// Every `(score)` in evaluation order (for convergence plots).
    pub history: Vec<f64>,
    /// Names of the parameters that changed from their defaults in λ*.
    pub changed_params: Vec<ParamId>,
    /// Trials skipped because the static analyzer rejected the candidate
    /// λ before execution (scored `NEG_INFINITY`, counted in `history`).
    pub rejected_trials: usize,
}

/// Convert a primitive hyperparameter spec into a tuner dimension.
fn to_dim(spec: &HyperSpec) -> DimSpec {
    match &spec.range {
        HyperRange::Int { lo, hi } => DimSpec::Int { lo: *lo, hi: *hi },
        HyperRange::Float { lo, hi, log } => DimSpec::Float { lo: *lo, hi: *hi, log: *log },
        HyperRange::Choice(opts) => DimSpec::Choice(opts.len()),
        HyperRange::Flag => DimSpec::Flag,
    }
}

/// Convert a decoded tuner value back into a hyperparameter value.
fn to_hyper(spec: &HyperSpec, value: &DimValue) -> HyperValue {
    match (value, &spec.range) {
        (DimValue::F(v), _) => HyperValue::Float(*v),
        (DimValue::I(v), _) => HyperValue::Int(*v),
        (DimValue::B(v), _) => HyperValue::Flag(*v),
        (DimValue::Idx(i), HyperRange::Choice(opts)) => {
            HyperValue::Text(opts[(*i).min(opts.len() - 1)].clone())
        }
        (DimValue::Idx(i), _) => HyperValue::Int(*i as i64),
    }
}

/// Evaluate one configuration of the template against the objective.
fn evaluate_lambda(
    template: &Template,
    lambda: &[(ParamId, HyperValue)],
    data: &Signal,
    setting: &TuneSetting,
) -> f64 {
    let Ok(mut pipeline) = template.build(lambda) else {
        return f64::NEG_INFINITY;
    };
    if pipeline.fit(data).is_err() {
        return f64::NEG_INFINITY;
    }
    match setting {
        TuneSetting::Supervised { ground_truth } => match pipeline.detect(data) {
            Ok(anomalies) => {
                let pred: Vec<Interval> = anomalies.iter().map(|a| a.interval).collect();
                overlapping_segment(ground_truth, &pred).scores().f1
            }
            Err(_) => f64::NEG_INFINITY,
        },
        TuneSetting::Unsupervised => match pipeline.errors(data) {
            // Smaller mean error = the expected signal matches better.
            Ok((errors, _)) => -sintel_common::mean(&errors),
            Err(_) => f64::NEG_INFINITY,
        },
    }
}

/// Evaluate one configuration on a watchdog thread: a trial that
/// panics or hangs scores `NEG_INFINITY` instead of killing (or
/// stalling) the whole search.
fn evaluate_lambda_guarded(
    template: &Template,
    lambda: &[(ParamId, HyperValue)],
    data: &Signal,
    setting: &TuneSetting,
    policy: &RunPolicy,
) -> f64 {
    let template = template.clone();
    let lambda = lambda.to_vec();
    let data = data.clone();
    let setting = setting.clone();
    run_guarded(policy.timeout, move || evaluate_lambda(&template, &lambda, &data, &setting))
        .unwrap_or(f64::NEG_INFINITY)
}

/// Search the template's joint tunable space with the GP tuner.
///
/// The default configuration is always evaluated first (it is both the
/// warm-start observation and the baseline `default_score`); the best
/// configuration over `budget` further evaluations wins. Trials run
/// one attempt each under the default run budget — a failed trial is
/// informative, not worth repeating.
pub fn tune_template(
    template: &Template,
    data: &Signal,
    setting: &TuneSetting,
    budget: usize,
) -> Result<TuneReport> {
    tune_template_with_policy(
        template,
        data,
        setting,
        budget,
        &RunPolicy::single_attempt(RunPolicy::default().timeout),
    )
}

/// [`tune_template`] with an explicit per-trial execution budget.
pub fn tune_template_with_policy(
    template: &Template,
    data: &Signal,
    setting: &TuneSetting,
    budget: usize,
    policy: &RunPolicy,
) -> Result<TuneReport> {
    let space_specs = template.hyperparameter_space()?;
    if space_specs.is_empty() {
        return Err(SintelError::Tuning("template has no tunable hyperparameters".into()));
    }
    let space = Space::new(space_specs.iter().map(|(_, s)| to_dim(s)).collect());
    let decode = |unit: &[f64]| -> Vec<(ParamId, HyperValue)> {
        space
            .decode(unit)
            .iter()
            .zip(&space_specs)
            .map(|(dv, (pid, spec))| (pid.clone(), to_hyper(spec, dv)))
            .collect()
    };

    let mut rejected_trials = 0usize;

    let input_len = data.len();
    let default_cost = template.estimated_cost(input_len);

    // Pre-screen: a statically rejected configuration is never executed —
    // it scores NEG_INFINITY as a FailureKind::Rejected trial, not a crash.
    // Two gates, both free of pipeline execution:
    //   1. the analyzer's coded diagnostics, with the dataset length as
    //      the input bound so statically-empty outputs (SA007) reject;
    //   2. the static cost model — a candidate estimated at more than
    //      COST_EXPLOSION_FACTOR x the default's flops cannot pay for
    //      itself within the trial budget and is rejected unpriced.
    let mut screen = |lambda: &[(ParamId, HyperValue)], trial: u64| -> bool {
        let report = template.analyze_for_input_len(lambda, Some(input_len));
        let verdict = if report.has_errors() {
            Some(report.summary())
        } else {
            match (default_cost, template.estimated_cost_with(lambda, input_len)) {
                (Some(default), Some(candidate))
                    if candidate.flops > COST_EXPLOSION_FACTOR * default.flops.max(1.0) =>
                {
                    Some(format!(
                        "cost-explosive: ~{:.0}x the default configuration's estimated flops",
                        candidate.flops / default.flops.max(1.0)
                    ))
                }
                _ => None,
            }
        };
        let Some(diagnostics) = verdict else {
            return false;
        };
        rejected_trials += 1;
        sintel_obs::counter_add(
            &sintel_obs::labeled(
                "sintel_run_failures_total",
                &[("kind", crate::policy::FailureKind::Rejected.label())],
            ),
            1,
        );
        sintel_obs::counter_add("sintel_tune_rejected_trials_total", 1);
        sintel_obs::debug!(
            TARGET,
            "trial rejected by static analysis; recording penalty score",
            template = template.name.as_str(),
            trial = trial,
            diagnostics = diagnostics.as_str(),
        );
        true
    };

    // Baseline: default configuration.
    let default_score = if screen(&[], 0) {
        f64::NEG_INFINITY
    } else {
        let trial_span = sintel_obs::span_with(
            "tune.trial",
            &[
                ("template", FieldValue::from(template.name.as_str())),
                ("trial", FieldValue::from(0u64)),
            ],
        );
        let score = evaluate_lambda_guarded(template, &[], data, setting, policy);
        let elapsed = trial_span.close();
        sintel_obs::counter_add("sintel_tune_trials_total", 1);
        sintel_obs::observe_duration("sintel_tune_trial_seconds", elapsed);
        score
    };

    let mut tuner = GpTuner::new(space.clone(), 0xA1);
    let mut history = vec![default_score];
    let mut best_score = default_score;
    let mut best_lambda: Vec<(ParamId, HyperValue)> = Vec::new();

    // Trial spans open on worker threads; capture the caller's span so
    // they attach to it instead of appearing as per-worker roots.
    let parent_span = sintel_obs::current_span_id();

    let mut trial_no = 0usize;
    while trial_no < budget {
        let batch_size = (budget - trial_no).min(TRIAL_BATCH);
        // Propose the whole batch before evaluating any of it: each
        // proposal draws on the RNG and the history recorded so far,
        // both of which are independent of the thread count.
        let mut batch = Vec::with_capacity(batch_size);
        for b in 0..batch_size {
            let unit = tuner.propose()?;
            let lambda = decode(&unit);
            let screened = screen(&lambda, (trial_no + b) as u64 + 1);
            batch.push((unit, lambda, screened));
        }
        // Evaluate the surviving candidates concurrently. Each trial is
        // pure (watchdog-guarded pipeline run); spans and commutative
        // counters are the only side effects.
        let scores = sintel_common::par_map(batch.len(), |b| {
            // In range: `b` comes from `0..batch.len()`.
            #[allow(clippy::indexing_slicing)]
            let (_, lambda, screened) = &batch[b];
            if *screened {
                return None;
            }
            let trial_span = sintel_obs::span_with_parent(
                "tune.trial",
                &[
                    ("template", FieldValue::from(template.name.as_str())),
                    ("trial", FieldValue::from((trial_no + b) as u64 + 1)),
                ],
                parent_span,
            );
            let score = evaluate_lambda_guarded(template, lambda, data, setting, policy);
            let elapsed = trial_span.close();
            sintel_obs::counter_add("sintel_tune_trials_total", 1);
            sintel_obs::observe_duration("sintel_tune_trial_seconds", elapsed);
            Some(score)
        });
        // Record in proposal order — the GP's update sequence is fixed
        // regardless of which worker finished first.
        for (b, ((unit, lambda, _), evaluated)) in
            batch.into_iter().zip(scores).enumerate()
        {
            let Some(score) = evaluated else {
                history.push(f64::NEG_INFINITY);
                // Same strong penalty as a crashed trial: the GP steers
                // away from the rejected region without destroying its
                // numerics.
                tuner.record(unit, -1e6);
                continue;
            };
            if !score.is_finite() {
                sintel_obs::counter_add("sintel_tune_failed_trials_total", 1);
                sintel_obs::debug!(
                    TARGET,
                    "trial failed; recording penalty score",
                    template = template.name.as_str(),
                    trial = (trial_no + b) as u64 + 1,
                );
            }
            history.push(score);
            // NEG_INFINITY (failed builds) recorded as a strong penalty
            // so the GP steers away without destroying its numerics.
            tuner.record(unit, if score.is_finite() { score } else { -1e6 });
            if score > best_score {
                best_score = score;
                best_lambda = lambda;
            }
        }
        trial_no += batch_size;
    }

    let changed_params: Vec<ParamId> =
        best_lambda.iter().map(|(pid, _)| pid.clone()).collect();
    sintel_obs::info!(
        TARGET,
        "search finished",
        template = template.name.as_str(),
        trials = history.len(),
        default_score = default_score,
        best_score = best_score,
        changed_params = changed_params.len(),
        rejected_trials = rejected_trials,
    );
    Ok(TuneReport {
        default_score,
        best_score,
        best_lambda,
        history,
        changed_params,
        rejected_trials,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_pipeline::StepSpec;

    fn arima_template() -> Template {
        Template {
            name: "tune_arima".into(),
            steps: vec![
                StepSpec::plain("time_segments_aggregate"),
                StepSpec::plain("SimpleImputer"),
                StepSpec::plain("MinMaxScaler"),
                StepSpec::with("arima", &[("q", HyperValue::Int(0))]),
                StepSpec::plain("regression_errors"),
                StepSpec::plain("find_anomalies"),
            ],
        }
    }

    fn spiky_signal() -> (Signal, Vec<Interval>) {
        let n = 500;
        let mut vals: Vec<f64> =
            (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 40.0).sin()).collect();
        for v in &mut vals[250..260] {
            *v += 5.0;
        }
        (Signal::from_values("tune", vals), vec![Interval::new(250, 259).unwrap()])
    }

    #[test]
    fn supervised_tuning_never_worse_than_default() {
        let (signal, truth) = spiky_signal();
        let report = tune_template(
            &arima_template(),
            &signal,
            &TuneSetting::Supervised { ground_truth: truth },
            8,
        )
        .unwrap();
        assert!(report.best_score >= report.default_score);
        assert_eq!(report.history.len(), 9);
        assert!(report.best_score > 0.0, "{report:?}");
    }

    #[test]
    fn unsupervised_tuning_optimises_signal_fit() {
        let (signal, _) = spiky_signal();
        let report =
            tune_template(&arima_template(), &signal, &TuneSetting::Unsupervised, 6).unwrap();
        assert!(report.best_score >= report.default_score);
        // Unsupervised objective is a negative error: finite and <= 0.
        assert!(report.best_score <= 0.0 && report.best_score.is_finite());
    }

    #[test]
    fn dim_roundtrip_covers_all_kinds() {
        let specs = [
            HyperSpec::int("a", 1, 5, 2),
            HyperSpec::float("b", 0.0, 1.0, 0.5),
            HyperSpec::log_float("c", 1e-4, 1e-1, 1e-2),
            HyperSpec::choice("d", &["x", "y", "z"], "x"),
        ];
        let space = Space::new(specs.iter().map(to_dim).collect());
        let decoded = space.decode(&[0.5, 0.5, 0.5, 0.9]);
        assert_eq!(to_hyper(&specs[0], &decoded[0]), HyperValue::Int(3));
        assert!(matches!(to_hyper(&specs[1], &decoded[1]), HyperValue::Float(_)));
        assert!(matches!(to_hyper(&specs[2], &decoded[2]), HyperValue::Float(_)));
        assert_eq!(to_hyper(&specs[3], &decoded[3]), HyperValue::Text("z".into()));
    }

    #[test]
    fn crashing_trials_do_not_kill_the_search() {
        // Every trial of this template panics inside `fit`; the search
        // must record NEG_INFINITY scores and run to completion.
        let template = Template {
            name: "always_panics".into(),
            steps: vec![
                StepSpec::plain("time_segments_aggregate"),
                StepSpec::plain("SimpleImputer"),
                StepSpec::plain("MinMaxScaler"),
                StepSpec::plain("faulty_panic"),
            ],
        };
        let (signal, _) = spiky_signal();
        let report =
            tune_template(&template, &signal, &TuneSetting::Unsupervised, 3).unwrap();
        assert_eq!(report.history.len(), 4);
        assert!(report.history.iter().all(|s| *s == f64::NEG_INFINITY), "{report:?}");
    }

    #[test]
    fn statically_doomed_trials_are_rejected_not_executed() {
        // targets=false is a fixed override the tuner can never undo, and
        // lstm_regressor requires targets (SA005): every candidate λ —
        // including the default — is rejected by the pre-screen without a
        // single pipeline execution.
        let template = Template {
            name: "doomed".into(),
            steps: vec![
                StepSpec::plain("time_segments_aggregate"),
                StepSpec::plain("SimpleImputer"),
                StepSpec::plain("MinMaxScaler"),
                StepSpec::with(
                    "rolling_window_sequences",
                    &[("targets", HyperValue::Flag(false))],
                ),
                StepSpec::plain("lstm_regressor"),
                StepSpec::plain("regression_errors"),
                StepSpec::plain("find_anomalies"),
            ],
        };
        let (signal, _) = spiky_signal();
        let report =
            tune_template(&template, &signal, &TuneSetting::Unsupervised, 3).unwrap();
        assert_eq!(report.rejected_trials, 4, "default + 3 proposals");
        assert_eq!(report.history.len(), 4);
        assert!(report.history.iter().all(|s| *s == f64::NEG_INFINITY), "{report:?}");
    }

    #[test]
    fn cost_explosive_candidate_is_rejected_without_executing() {
        // epochs=200, hidden=64, window_size=500 prices out at far more
        // than 64x the default LSTM chain — the cost gate must cut it
        // before `evaluate_lambda_guarded` ever runs.
        let template = Template {
            name: "lstm_chain".into(),
            steps: vec![
                StepSpec::plain("time_segments_aggregate"),
                StepSpec::plain("SimpleImputer"),
                StepSpec::plain("MinMaxScaler"),
                StepSpec::plain("rolling_window_sequences"),
                StepSpec::plain("lstm_regressor"),
                StepSpec::plain("regression_errors"),
                StepSpec::plain("find_anomalies"),
            ],
        };
        let (signal, _) = spiky_signal();
        let n = signal.len();
        let pid = |step: usize, name: &str| ParamId { step, name: name.to_string() };
        let explosive: Vec<(ParamId, HyperValue)> = vec![
            (pid(3, "window_size"), HyperValue::Int(400)),
            (pid(4, "epochs"), HyperValue::Int(200)),
            (pid(4, "hidden"), HyperValue::Int(64)),
        ];
        let default = template.estimated_cost(n).expect("default priced");
        let candidate = template.estimated_cost_with(&explosive, n).expect("candidate priced");
        assert!(
            candidate.flops > COST_EXPLOSION_FACTOR * default.flops,
            "fixture must be explosive: {} vs {}",
            candidate.flops,
            default.flops
        );
        // Drive the gate itself (not the full search, which may or may
        // not propose this corner): the default survives, the explosive
        // candidate is a Rejected trial.
        let input_len = n;
        let default_cost = template.estimated_cost(input_len);
        let screen = |lambda: &[(ParamId, HyperValue)]| -> bool {
            let report = template.analyze_for_input_len(lambda, Some(input_len));
            report.has_errors()
                || matches!(
                    (default_cost, template.estimated_cost_with(lambda, input_len)),
                    (Some(d), Some(c)) if c.flops > COST_EXPLOSION_FACTOR * d.flops.max(1.0)
                )
        };
        assert!(!screen(&[]), "default configuration must pass the gate");
        assert!(screen(&explosive), "explosive candidate must be rejected");
    }

    #[test]
    fn shape_doomed_candidate_is_rejected_for_the_dataset_length() {
        // window_size larger than the dataset itself: the shape pass
        // proves the output statically empty (SA007) for this input and
        // the tuner rejects the trial without executing it.
        let template = Template {
            name: "shape_doomed".into(),
            steps: vec![
                StepSpec::plain("time_segments_aggregate"),
                StepSpec::plain("SimpleImputer"),
                StepSpec::plain("MinMaxScaler"),
                StepSpec::with("rolling_window_sequences", &[("window_size", HyperValue::Int(5_000))]),
                StepSpec::plain("lstm_regressor"),
                StepSpec::plain("regression_errors"),
                StepSpec::plain("find_anomalies"),
            ],
        };
        let (signal, _) = spiky_signal();
        let report =
            tune_template(&template, &signal, &TuneSetting::Unsupervised, 3).unwrap();
        assert_eq!(report.rejected_trials, 4, "default + 3 proposals: {report:?}");
        assert!(report.history.iter().all(|s| *s == f64::NEG_INFINITY), "{report:?}");
    }

    #[test]
    fn valid_searches_report_zero_rejections() {
        let (signal, _) = spiky_signal();
        let report =
            tune_template(&arima_template(), &signal, &TuneSetting::Unsupervised, 3).unwrap();
        assert_eq!(report.rejected_trials, 0);
    }

    #[test]
    fn empty_space_rejected() {
        // A template whose every hyperparameter is overridden has nothing
        // to tune.
        let template = Template {
            name: "fixed".into(),
            steps: vec![StepSpec::with(
                "fixed_threshold",
                &[("k", HyperValue::Float(3.0))],
            )],
        };
        let (signal, _) = spiky_signal();
        assert!(matches!(
            tune_template(&template, &signal, &TuneSetting::Unsupervised, 3),
            Err(SintelError::Tuning(_))
        ));
    }
}
