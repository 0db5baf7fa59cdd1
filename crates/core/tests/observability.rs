//! End-to-end observability tests: a benchmark sweep emits a complete
//! nested span trace, a metrics snapshot with failure-kind counters and
//! latency histograms, persists the snapshot to the knowledge base —
//! and changes **nothing** about the detection scores.
//!
//! Lives in its own integration binary because the trace buffer, log
//! level and metrics registry are process-global; `#[test]` functions
//! here serialize on a mutex.

use std::sync::Mutex;
use std::time::Duration;

use sintel::benchmark::{benchmark, benchmark_with_db, BenchmarkConfig, MetricKind};
use sintel::policy::RunPolicy;
use sintel_datasets::{DatasetConfig, DatasetId};
use sintel_pipeline::{StepSpec, Template};
use sintel_store::SintelDb;

/// Serializes tests touching the process-global obs state.
static GUARD: Mutex<()> = Mutex::new(());

fn tiny_config() -> BenchmarkConfig {
    BenchmarkConfig {
        pipelines: vec!["arima".into()],
        datasets: vec![DatasetId::Nab],
        data: DatasetConfig { seed: 42, signal_scale: 0.05, length_scale: 0.08 },
        metric: MetricKind::Overlap,
        rank: "f1",
        policy: RunPolicy {
            timeout: Duration::from_secs(30),
            max_retries: 0,
            backoff: Duration::ZERO,
        },
        ..BenchmarkConfig::default()
    }
}

fn panicky_template() -> Template {
    Template {
        name: "faulty_panic".into(),
        steps: vec![
            StepSpec::plain("time_segments_aggregate"),
            StepSpec::plain("SimpleImputer"),
            StepSpec::plain("MinMaxScaler"),
            StepSpec::plain("faulty_panic"),
        ],
    }
}

#[test]
fn benchmark_emits_nested_spans_for_every_primitive_step() {
    let _lock = GUARD.lock().unwrap();
    sintel_obs::global().reset();
    sintel_obs::tracing_start();
    let rows = benchmark(&tiny_config()).unwrap();
    let events = sintel_obs::tracing_stop();
    assert_eq!(rows.len(), 1);
    let signals = rows[0].signals;
    assert!(signals > 0);

    let closes = |name: &str| {
        events
            .iter()
            .filter(|e| e.kind == sintel_obs::EventKind::Close && e.name == name)
            .collect::<Vec<_>>()
    };
    // One row span, one trial span per signal, one fit + one produce
    // run per trial (fit_detect), and per-primitive spans inside those.
    assert_eq!(closes("benchmark.row").len(), 1);
    assert_eq!(closes("benchmark.trial").len(), signals);
    assert_eq!(closes("pipeline.fit").len(), signals);
    assert_eq!(closes("pipeline.produce").len(), signals);
    let arima_steps = 6;
    assert_eq!(closes("primitive.fit").len(), signals * arima_steps);
    // fit() also runs produce over the training data, so each trial
    // produces two produce passes per step.
    assert_eq!(closes("primitive.produce").len(), signals * arima_steps * 2);

    // Nesting: pipeline runs sit inside a trial span, primitives inside
    // a pipeline run — the whole tree is connected.
    let ids_of = |name: &str| {
        events.iter().filter(|e| e.name == name).map(|e| e.id).collect::<Vec<u64>>()
    };
    let trial_ids = ids_of("benchmark.trial");
    let run_ids: Vec<u64> = events
        .iter()
        .filter(|e| e.name.starts_with("pipeline."))
        .map(|e| e.id)
        .collect();
    for e in events.iter().filter(|e| e.name.starts_with("pipeline.")) {
        assert!(e.parent.is_some_and(|p| trial_ids.contains(&p)), "{e:?}");
    }
    for e in events.iter().filter(|e| e.name.starts_with("primitive.")) {
        assert!(e.parent.is_some_and(|p| run_ids.contains(&p)), "{e:?}");
    }

    // The JSONL export of the full run parses back losslessly.
    let parsed = sintel_obs::parse_jsonl(&sintel_obs::export_jsonl(&events)).unwrap();
    assert_eq!(parsed, events);

    // Latency histograms saw every primitive execution.
    let snapshot = sintel_obs::global().snapshot();
    let fit_hist = snapshot.histogram("sintel_primitive_fit_seconds").unwrap();
    assert_eq!(fit_hist.count(), (signals * arima_steps) as u64);
    let produce_hist = snapshot.histogram("sintel_primitive_produce_seconds").unwrap();
    assert_eq!(produce_hist.count(), (signals * arima_steps * 2) as u64);
    assert!(snapshot.histogram("sintel_pipeline_fit_seconds").unwrap().count() > 0);
}

#[test]
fn detection_scores_are_bitwise_identical_with_observability_on_and_off() {
    let _lock = GUARD.lock().unwrap();
    let cfg = tiny_config();

    // Instrumentation off: no tracing, logging disabled.
    sintel_obs::set_level(None);
    let off = benchmark(&cfg).unwrap();

    // Everything on: trace capture, trace-level logging into a capture
    // sink, fresh metrics registry.
    sintel_obs::global().reset();
    sintel_obs::set_level(Some(sintel_obs::Level::Trace));
    sintel_obs::capture_start();
    sintel_obs::tracing_start();
    let on = benchmark(&cfg).unwrap();
    let events = sintel_obs::tracing_stop();
    let logs = sintel_obs::capture_stop();
    sintel_obs::set_level(Some(sintel_obs::Level::Info));

    assert!(!events.is_empty());
    let _ = logs;
    assert_eq!(off.len(), on.len());
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(a.signals, b.signals);
        for (x, y) in [
            (a.mean.f1, b.mean.f1),
            (a.mean.precision, b.mean.precision),
            (a.mean.recall, b.mean.recall),
            (a.std.f1, b.std.f1),
            (a.std.precision, b.std.precision),
            (a.std.recall, b.std.recall),
        ] {
            assert_eq!(x.to_bits(), y.to_bits(), "scores drifted: {x} vs {y}");
        }
    }
}

#[test]
fn metrics_snapshot_counts_failures_and_persists_to_the_knowledge_base() {
    let _lock = GUARD.lock().unwrap();
    sintel_obs::global().reset();
    let mut cfg = tiny_config();
    cfg.extra_templates = vec![panicky_template()];
    let db = SintelDb::in_memory();
    let rows = benchmark_with_db(&cfg, Some(&db)).unwrap();
    let faulty = rows.iter().find(|r| r.pipeline == "faulty_panic").unwrap();
    assert!(faulty.failures.panic > 0);

    let snapshot = sintel_obs::global().snapshot();
    // Trial and failure-kind counters, including explicit zeros for the
    // kinds that never fired (pre-registered).
    assert_eq!(
        snapshot.counter("sintel_benchmark_trials_total"),
        Some((rows.iter().map(|r| r.signals).sum::<usize>() + faulty.failures.total()) as u64)
    );
    assert_eq!(
        snapshot.counter("sintel_benchmark_failures_total{kind=\"panic\"}"),
        Some(faulty.failures.panic as u64)
    );
    for kind in ["build", "timeout", "non_finite", "other"] {
        assert_eq!(
            snapshot.counter(&format!("sintel_benchmark_failures_total{{kind=\"{kind}\"}}")),
            Some(0),
            "missing pre-registered zero counter for {kind}"
        );
    }
    // run_with_policy's own counters fired too.
    assert!(snapshot.counter("sintel_run_attempts_total").unwrap() > 0);
    assert!(snapshot.counter("sintel_run_failures_total{kind=\"panic\"}").unwrap() > 0);

    // Health gauges summarize the sweep and the knowledge-base state.
    assert_eq!(snapshot.gauge("sintel_benchmark_rows"), Some(rows.len() as f64));
    assert_eq!(
        snapshot.gauge("sintel_benchmark_failure_breakdown{kind=\"panic\"}"),
        Some(faulty.failures.panic as f64)
    );
    assert!(snapshot.gauge("sintel_run_failure_records").unwrap() > 0.0);

    // The snapshot was persisted under the "benchmark" run label, in
    // both exporter formats.
    let stored = db.metrics_snapshots("benchmark");
    assert_eq!(stored.len(), 1);
    let prometheus = stored[0].get("prometheus").unwrap().as_str().unwrap();
    assert!(prometheus.contains("# TYPE sintel_benchmark_trials_total counter"));
    assert!(prometheus.contains("sintel_benchmark_failures_total{kind=\"panic\"}"));
    assert!(prometheus.contains("sintel_primitive_fit_seconds{quantile=\"0.99\"}"));
    let json = stored[0].get("json").unwrap().as_str().unwrap();
    assert!(json.contains("sintel_benchmark_trials_total"));
}

#[test]
fn policy_retries_are_counted_and_logged() {
    let _lock = GUARD.lock().unwrap();
    sintel_obs::global().reset();
    let mut cfg = tiny_config();
    cfg.pipelines = Vec::new();
    cfg.extra_templates = vec![panicky_template()];
    cfg.policy.max_retries = 2;

    sintel_obs::set_level(Some(sintel_obs::Level::Debug));
    sintel_obs::capture_start();
    let rows = benchmark(&cfg).unwrap();
    let logs = sintel_obs::capture_stop();
    sintel_obs::set_level(Some(sintel_obs::Level::Info));

    let faulty = &rows[0];
    assert!(faulty.failures.panic > 0);
    let snapshot = sintel_obs::global().snapshot();
    // Every trial burned 1 + max_retries attempts and 2 retries.
    let trials = faulty.failures.total() as u64;
    assert_eq!(snapshot.counter("sintel_run_attempts_total"), Some(3 * trials));
    assert_eq!(snapshot.counter("sintel_run_retries_total"), Some(2 * trials));

    // The structured log stream narrates the retries with fields.
    let retry_logs: Vec<_> = logs
        .iter()
        .filter(|r| r.target == "sintel::policy" && r.message.contains("retrying"))
        .collect();
    assert_eq!(retry_logs.len(), (2 * trials) as usize);
    assert!(retry_logs[0].render().contains("last_kind=panic"), "{}", retry_logs[0].render());
    assert!(logs
        .iter()
        .any(|r| r.target == "sintel::benchmark" && r.message.contains("exhausted")));
}

#[test]
fn tuner_trials_are_spanned_and_counted() {
    let _lock = GUARD.lock().unwrap();
    sintel_obs::global().reset();
    let template = Template {
        name: "tune_arima".into(),
        steps: vec![
            StepSpec::plain("time_segments_aggregate"),
            StepSpec::plain("SimpleImputer"),
            StepSpec::plain("MinMaxScaler"),
            StepSpec::plain("arima"),
            StepSpec::plain("regression_errors"),
            StepSpec::plain("find_anomalies"),
        ],
    };
    let vals: Vec<f64> =
        (0..400).map(|t| (std::f64::consts::TAU * t as f64 / 40.0).sin()).collect();
    let signal = sintel_timeseries::Signal::from_values("tune", vals);

    sintel_obs::tracing_start();
    let budget = 3;
    let report =
        sintel::tune::tune_template(&template, &signal, &sintel::tune::TuneSetting::Unsupervised, budget)
            .unwrap();
    let events = sintel_obs::tracing_stop();

    assert_eq!(report.history.len(), budget + 1);
    let trial_closes = events
        .iter()
        .filter(|e| e.kind == sintel_obs::EventKind::Close && e.name == "tune.trial")
        .count();
    assert_eq!(trial_closes, budget + 1);
    let snapshot = sintel_obs::global().snapshot();
    assert_eq!(snapshot.counter("sintel_tune_trials_total"), Some((budget + 1) as u64));
    let hist = snapshot.histogram("sintel_tune_trial_seconds").unwrap();
    assert_eq!(hist.count(), (budget + 1) as u64);
    assert!(hist.quantile(0.99) >= hist.quantile(0.5));
}
