//! Contract-conformance sanitizer tests (cargo feature `sanitizer`).
//!
//! The sanitizer instruments `Context` slot access during execution and
//! fails a run whose primitive touches a slot its declared `Contract`
//! omits (SA009). Two obligations are covered here:
//!
//! 1. a seeded contract-drift mutation (`faulty_contract_drift`, cargo
//!    feature `faulty`) is caught deterministically, with a replayable
//!    error message;
//! 2. the full shipped primitive set runs clean — no primitive's code
//!    has drifted from its declared contract.
#![cfg(feature = "sanitizer")]

use sintel_pipeline::{
    available_pipelines, template_by_name, ParamId, PipelineError, StepSpec, Template,
};
use sintel_primitives::HyperValue;
use sintel_timeseries::Signal;

fn sine(n: usize) -> Signal {
    let mut vals: Vec<f64> =
        (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 40.0).sin()).collect();
    for v in vals.iter_mut().skip(n / 2).take(6) {
        *v += 5.0;
    }
    Signal::from_values("sine", vals)
}

fn drift_template(mode: &str) -> Template {
    Template {
        name: "seeded_drift".into(),
        steps: vec![
            StepSpec::plain("time_segments_aggregate"),
            StepSpec::plain("SimpleImputer"),
            StepSpec::with(
                "faulty_contract_drift",
                &[("mode", HyperValue::Text(mode.into()))],
            ),
            StepSpec::plain("fixed_threshold"),
        ],
    }
}

#[test]
fn seeded_write_drift_is_caught_and_replayable() {
    let run = || {
        let mut pipeline = drift_template("write").build_default().unwrap();
        pipeline.fit(&sine(64)).unwrap_err()
    };
    let err = run();
    match &err {
        PipelineError::ContractViolation { step, phase, access, slot } => {
            assert_eq!(step, "faulty_contract_drift");
            assert_eq!(phase, "produce");
            assert_eq!(access, "write");
            assert_eq!(slot, "drift_scores");
        }
        other => panic!("expected ContractViolation, got {other}"),
    }
    let rendered = err.to_string();
    assert!(rendered.contains("[SA009]"), "{rendered}");
    assert!(rendered.contains("faulty_contract_drift"), "{rendered}");
    assert!(rendered.contains("drift_scores"), "{rendered}");
    // Deterministic: replaying the exact run reproduces the finding.
    assert_eq!(run().to_string(), rendered);
}

#[test]
fn seeded_read_drift_is_caught() {
    let mut pipeline = drift_template("read").build_default().unwrap();
    let err = pipeline.fit(&sine(64)).unwrap_err();
    match &err {
        PipelineError::ContractViolation { step, phase, access, slot } => {
            assert_eq!(step, "faulty_contract_drift");
            assert_eq!(phase, "produce");
            assert_eq!(access, "read");
            assert_eq!(slot, "windows");
        }
        other => panic!("expected ContractViolation, got {other}"),
    }
}

/// A λ that makes deep models cheap without changing dataflow: one
/// epoch, minimum hidden width.
fn cheap_lambda(template: &Template) -> Vec<(ParamId, HyperValue)> {
    template
        .hyperparameter_space()
        .expect("hub template space")
        .into_iter()
        .filter_map(|(pid, _)| match pid.name.as_str() {
            "epochs" => Some((pid, HyperValue::Int(1))),
            "hidden" => Some((pid, HyperValue::Int(4))),
            _ => None,
        })
        .collect()
}

/// Every shipped hub/extension pipeline runs fit + detect, and the
/// serving tier's fused `fit_and_detect` pass, under the sanitizer
/// without a single contract violation: the primitives' code matches
/// their declared contracts in both phases, through both entry points.
#[test]
fn full_primitive_set_has_no_contract_drift() {
    let train = sine(400);
    let test = sine(400);
    for name in available_pipelines() {
        let template = template_by_name(name).unwrap();
        let lambda = cheap_lambda(&template);
        let mut pipeline = template.build(&lambda).unwrap();
        pipeline
            .fit_detect(&train, &test)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        template
            .build(&lambda)
            .unwrap()
            .fit_and_detect(test.clone())
            .unwrap_or_else(|e| panic!("{name} (fused pass): {e}"));
    }
}

/// `detrend` and `StandardScaler` are not in any hub template; sweep
/// them through a forecasting chain so the clean pass covers all 19
/// registered primitives.
#[test]
fn non_hub_preprocessing_is_drift_free_too() {
    let template = Template {
        name: "detrended_arima".into(),
        steps: vec![
            StepSpec::plain("time_segments_aggregate"),
            StepSpec::plain("SimpleImputer"),
            StepSpec::plain("StandardScaler"),
            StepSpec::plain("detrend"),
            StepSpec::with("arima", &[("p", HyperValue::Int(2)), ("q", HyperValue::Int(0))]),
            StepSpec::plain("regression_errors"),
            StepSpec::plain("find_anomalies"),
        ],
    };
    let mut pipeline = template.build_default().unwrap();
    pipeline.fit_detect(&sine(400), &sine(400)).unwrap();
}
