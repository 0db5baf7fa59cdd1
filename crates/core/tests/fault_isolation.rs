//! Fault-isolation integration tests: a benchmark sweep over
//! deliberately broken pipelines (cargo feature `faulty` of
//! `sintel-primitives`) must complete, classify every failure, leave
//! healthy pipelines' scores untouched, and quarantine repeat
//! offenders.

use std::time::Duration;

use sintel::benchmark::{
    benchmark, benchmark_with_db, render_table, BenchmarkConfig, MetricKind,
};
use sintel::policy::RunPolicy;
use sintel::{Sintel, SintelError};
use sintel_datasets::{DatasetConfig, DatasetId};
use sintel_pipeline::{StepSpec, Template};
use sintel_primitives::HyperValue;
use sintel_store::SintelDb;
use sintel_timeseries::Signal;

fn data_config() -> DatasetConfig {
    DatasetConfig { seed: 42, signal_scale: 0.05, length_scale: 0.08 }
}

fn test_policy() -> RunPolicy {
    RunPolicy {
        timeout: Duration::from_millis(700),
        max_retries: 1,
        backoff: Duration::from_millis(1),
    }
}

/// A pipeline whose modeling step is one of the fault-injection
/// primitives; preprocessing is the healthy standard stack.
fn faulty_template(primitive: &str, overrides: &[(&str, HyperValue)]) -> Template {
    Template {
        name: primitive.to_string(),
        steps: vec![
            StepSpec::plain("time_segments_aggregate"),
            StepSpec::plain("SimpleImputer"),
            StepSpec::plain("MinMaxScaler"),
            StepSpec::with(primitive, overrides),
        ],
    }
}

fn faulty_config() -> BenchmarkConfig {
    BenchmarkConfig {
        pipelines: vec!["arima".into()],
        extra_templates: vec![
            faulty_template("faulty_panic", &[]),
            faulty_template("faulty_nan", &[]),
            // Sleep well past the 700 ms watchdog budget.
            faulty_template("faulty_hang", &[("sleep_ms", HyperValue::Int(4_000))]),
        ],
        datasets: vec![DatasetId::Nab],
        data: data_config(),
        metric: MetricKind::Overlap,
        policy: test_policy(),
    }
}

#[test]
fn benchmark_survives_and_classifies_injected_faults() {
    let cfg = faulty_config();
    let rows = benchmark(&cfg).expect("fault-injected benchmark must complete");
    assert_eq!(rows.len(), 4, "{rows:?}");
    let row = |name: &str| rows.iter().find(|r| r.pipeline == name).unwrap();

    let healthy = row("arima");
    assert!(healthy.signals > 0);
    assert_eq!(healthy.failures.total(), 0, "{healthy:?}");

    // Every signal of each faulty pipeline fails, in its own class.
    let panic_row = row("faulty_panic");
    assert!(panic_row.failures.panic > 0, "{panic_row:?}");
    assert_eq!(panic_row.failures.total(), panic_row.failures.panic);
    assert_eq!(panic_row.signals, 0);

    let nan_row = row("faulty_nan");
    assert!(nan_row.failures.non_finite > 0, "{nan_row:?}");
    assert_eq!(nan_row.failures.total(), nan_row.failures.non_finite);

    let hang_row = row("faulty_hang");
    assert!(hang_row.failures.timeout > 0, "{hang_row:?}");
    assert_eq!(hang_row.failures.total(), hang_row.failures.timeout);

    // The failure classes show up in the rendered table.
    let table = render_table(&rows);
    assert!(table.contains("failures"));
    assert!(table.contains("panic"), "{table}");
    assert!(table.contains("timeout"), "{table}");
}

#[test]
fn healthy_scores_are_bitwise_identical_with_and_without_faults() {
    let faultless = BenchmarkConfig {
        pipelines: vec!["arima".into()],
        datasets: vec![DatasetId::Nab],
        data: data_config(),
        metric: MetricKind::Overlap,
        policy: test_policy(),
        ..BenchmarkConfig::default()
    };
    let baseline_rows = benchmark(&faultless).unwrap();
    let baseline = baseline_rows.iter().find(|r| r.pipeline == "arima").unwrap();

    let rows = benchmark(&faulty_config()).unwrap();
    let contested = rows.iter().find(|r| r.pipeline == "arima").unwrap();

    assert_eq!(baseline.signals, contested.signals);
    for (a, b) in [
        (baseline.mean.f1, contested.mean.f1),
        (baseline.mean.precision, contested.mean.precision),
        (baseline.mean.recall, contested.mean.recall),
        (baseline.std.f1, contested.std.f1),
    ] {
        assert_eq!(a.to_bits(), b.to_bits(), "healthy scores drifted: {a} vs {b}");
    }
}

#[test]
fn repeat_offenders_are_quarantined_on_the_next_sweep() {
    let mut cfg = faulty_config();
    // One fault class is enough to exercise the strike bookkeeping.
    cfg.extra_templates = vec![faulty_template("faulty_panic", &[])];

    let db = SintelDb::in_memory();
    let first = benchmark_with_db(&cfg, Some(&db)).unwrap();
    let first_faulty = first.iter().find(|r| r.pipeline == "faulty_panic").unwrap();
    assert!(first_faulty.failures.panic > 0);
    assert_eq!(first_faulty.quarantined, 0);

    // max_retries = 1 means each failed pair burned two attempts —
    // enough strikes to be quarantined for the next sweep.
    let signal = sintel_datasets::load(DatasetId::Nab, &cfg.data)
        .iter_signals()
        .next()
        .unwrap()
        .signal
        .name()
        .to_string();
    assert!(db.is_quarantined("faulty_panic", &signal));
    assert!(!db.is_quarantined("arima", &signal));

    let second = benchmark_with_db(&cfg, Some(&db)).unwrap();
    let second_faulty = second.iter().find(|r| r.pipeline == "faulty_panic").unwrap();
    assert_eq!(second_faulty.failures.total(), 0, "{second_faulty:?}");
    assert_eq!(second_faulty.quarantined, first_faulty.failures.total());

    // Healthy pipelines never hit the quarantine list.
    let second_healthy = second.iter().find(|r| r.pipeline == "arima").unwrap();
    assert_eq!(second_healthy.quarantined, 0);
    assert!(second_healthy.signals > 0);
}

/// A detection that outruns the watchdog fails without taking the
/// caller down and leaves the handle unfitted; refitting recovers it.
#[test]
fn failed_detection_leaves_an_unfitted_handle_that_refits() {
    // 10 ms per row: a 10-row training signal fits in ~0.1 s, a 500-row
    // detection signal would need ~5 s against a 1.5 s budget.
    let template = Template {
        name: "slow_detect".into(),
        steps: vec![
            StepSpec::with("faulty_slow", &[("ms_per_row", HyperValue::Int(10))]),
            StepSpec::plain("find_anomalies"),
        ],
    };
    let signal = |name: &str, n: usize| {
        Signal::from_values(name, (0..n).map(|t| (t as f64 / 3.0).sin()).collect())
    };
    let (short, long) = (signal("short", 10), signal("long", 500));
    let mut sintel = Sintel::from_template(template)
        .expect("template builds")
        .with_policy(RunPolicy::single_attempt(Duration::from_millis(1_500)));

    sintel.fit(&short).expect("a short signal fits within the budget");
    match sintel.detect(&long) {
        Err(SintelError::Pipeline(m)) => assert!(m.starts_with("timeout: "), "{m}"),
        other => panic!("expected a timed-out detection, got {other:?}"),
    }
    match sintel.detect(&short) {
        Err(SintelError::Pipeline(m)) => assert!(m.contains("is not fitted"), "{m}"),
        other => panic!("expected a not-fitted error, got {other:?}"),
    }
    sintel.fit(&short).expect("refit");
    sintel.detect(&short).expect("a refitted handle detects again");
}
