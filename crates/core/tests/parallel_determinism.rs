//! The determinism contract of the parallel substrate, proven end to
//! end: a full benchmark sweep and a tuning run must produce **bitwise
//! identical** scores, rendered tables, persisted store bytes and trial
//! histories for *any* `SINTEL_THREADS` value.
//!
//! Work decomposition is a function of the input, never of the thread
//! count — these tests are the enforcement. Lives in its own
//! integration binary because the thread budget and the obs state are
//! process-global; tests serialize on a mutex.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use sintel::benchmark::{
    benchmark_report_with_db, persist_benchmark, render_table, BenchmarkConfig, MetricKind,
};
use sintel::policy::RunPolicy;
use sintel::tune::{tune_template, TuneSetting};
use sintel_datasets::{DatasetConfig, DatasetId};
use sintel_pipeline::{StepSpec, Template};
use sintel_primitives::HyperValue;
use sintel_store::SintelDb;
use sintel_timeseries::{Interval, Signal};

#[global_allocator]
static METER: sintel_common::alloc::Counting = sintel_common::alloc::Counting;

/// Serializes tests: the thread budget override is process-global.
static GUARD: Mutex<()> = Mutex::new(());

/// The contract holds for every value; 1 covers the serial path, 2 and
/// 8 cover under- and over-subscription of the cell grid.
const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn sweep_config() -> BenchmarkConfig {
    BenchmarkConfig {
        pipelines: vec!["arima".into(), "azure_anomaly_detection".into()],
        datasets: vec![DatasetId::Nab],
        data: DatasetConfig { seed: 42, signal_scale: 0.05, length_scale: 0.08 },
        metric: MetricKind::Overlap,
        policy: RunPolicy {
            timeout: Duration::from_secs(60),
            max_retries: 0,
            backoff: Duration::ZERO,
        },
        ..BenchmarkConfig::default()
    }
}

/// Run one sweep at a given thread budget, returning the rendered
/// table and the persisted store as scrubbed JSONL bytes.
fn sweep_at(threads: usize, dir: &PathBuf) -> (String, Vec<(String, String)>) {
    sintel_common::set_threads(Some(threads));
    let _ = std::fs::remove_dir_all(dir);
    let db = SintelDb::open(dir).expect("open store");
    let report = benchmark_report_with_db(&sweep_config(), Some(&db)).expect("sweep runs");
    assert_eq!(report.threads, threads);
    persist_benchmark(&db, &report.rows).expect("persist results");
    db.save().expect("persist store");
    (render_table(&report.rows), store_files(dir))
}

/// Wall-clock timings and metric histogram bodies are genuinely
/// scheduling-dependent; everything else in the store, the measured
/// memory column included, must be byte-identical. Scrub exactly those
/// fields, preserving structure.
const VOLATILE_FIELDS: [&str; 4] = ["train_seconds", "detect_seconds", "prometheus", "json"];

fn scrub_line(line: &str) -> String {
    let doc = sintel_common::json::from_json(line).expect("store line parses");
    let mut doc = doc;
    for field in VOLATILE_FIELDS {
        if doc.get(field).is_some() {
            doc = doc.with(field, "<volatile>");
        }
    }
    sintel_common::json::to_json(&doc)
}

/// Every persisted collection file, sorted by name, with volatile
/// fields masked line by line.
fn store_files(dir: &PathBuf) -> Vec<(String, String)> {
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("store dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|e| e == "jsonl"))
        .map(|p| {
            let name = p.file_name().expect("file name").to_string_lossy().into_owned();
            let raw = std::fs::read_to_string(&p).expect("collection readable");
            let scrubbed: String =
                raw.lines().map(|l| scrub_line(l) + "\n").collect();
            (name, scrubbed)
        })
        .collect();
    files.sort();
    files
}

#[test]
fn benchmark_is_bitwise_identical_at_every_thread_count() {
    let _lock = GUARD.lock().expect("guard");
    let dir = std::env::temp_dir().join(format!(
        "sintel-par-det-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));

    let (baseline_table, baseline_store) = sweep_at(THREAD_COUNTS[0], &dir);
    assert!(baseline_table.contains("arima"), "sweep produced no arima row");
    let results = baseline_store
        .iter()
        .find(|(name, _)| name == "benchmark_results.jsonl")
        .map(|(_, body)| body)
        .unwrap_or_else(|| {
            panic!(
                "store must contain persisted benchmark results: {:?}",
                baseline_store.iter().map(|(n, _)| n).collect::<Vec<_>>()
            )
        });
    for line in results.lines() {
        let doc = sintel_common::json::from_json(line).expect("result line parses");
        let peak = doc.get("peak_memory_bytes").and_then(|p| p.as_i64());
        assert!(peak.is_some_and(|p| p > 0), "no measured memory column in {line}");
    }

    for &threads in &THREAD_COUNTS[1..] {
        let (table, store) = sweep_at(threads, &dir);
        assert_eq!(
            table, baseline_table,
            "render_table differs between 1 and {threads} threads"
        );
        assert_eq!(
            store.len(),
            baseline_store.len(),
            "store collection set differs at {threads} threads"
        );
        for ((name_a, body_a), (name_b, body_b)) in baseline_store.iter().zip(&store) {
            assert_eq!(name_a, name_b);
            assert_eq!(
                body_a, body_b,
                "persisted bytes of {name_a} differ between 1 and {threads} threads"
            );
        }
    }

    sintel_common::set_threads(None);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Per-row scores, not just the rendered table: compare the raw f64
/// bits of every mean/std score across thread counts.
#[test]
fn benchmark_scores_are_bitwise_identical_at_every_thread_count() {
    let _lock = GUARD.lock().expect("guard");
    let cfg = sweep_config();

    let score_bits = |threads: usize| -> Vec<(String, [u64; 6])> {
        sintel_common::set_threads(Some(threads));
        let report = benchmark_report_with_db(&cfg, None).expect("sweep runs");
        report
            .rows
            .iter()
            .map(|r| {
                (
                    format!("{}/{}", r.dataset, r.pipeline),
                    [
                        r.mean.f1.to_bits(),
                        r.mean.precision.to_bits(),
                        r.mean.recall.to_bits(),
                        r.std.f1.to_bits(),
                        r.std.precision.to_bits(),
                        r.std.recall.to_bits(),
                    ],
                )
            })
            .collect()
    };

    let baseline = score_bits(THREAD_COUNTS[0]);
    assert!(!baseline.is_empty());
    for &threads in &THREAD_COUNTS[1..] {
        assert_eq!(
            score_bits(threads),
            baseline,
            "scores drifted between 1 and {threads} threads"
        );
    }
    sintel_common::set_threads(None);
}

/// A deep pipeline exercising the vectorized compute kernels
/// (DESIGN.md §4j) on the hot path: windowing fills the flat arena,
/// training runs the fused LSTM step + blocked matmul, and batched
/// inference fans out across threads above the 64-window threshold.
fn deep_fixture() -> (Template, Signal) {
    let n = 280;
    let mut vals: Vec<f64> =
        (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 30.0).sin()).collect();
    for v in &mut vals[140..146] {
        *v += 4.0;
    }
    let template = Template {
        name: "deep_lstm".into(),
        steps: vec![
            StepSpec::plain("time_segments_aggregate"),
            StepSpec::plain("SimpleImputer"),
            StepSpec::plain("MinMaxScaler"),
            StepSpec::with(
                "rolling_window_sequences",
                &[("window_size", HyperValue::Int(10)), ("targets", HyperValue::Flag(true))],
            ),
            StepSpec::with(
                "lstm_regressor",
                &[("epochs", HyperValue::Int(2)), ("hidden", HyperValue::Int(8))],
            ),
            StepSpec::plain("regression_errors"),
            StepSpec::plain("find_anomalies"),
        ],
    };
    (template, Signal::from_values("deep", vals))
}

/// The full deep pipeline — fit, per-sample error series and detected
/// intervals — is bitwise-identical at every thread count with the
/// vectorized kernels on the hot path.
#[test]
fn deep_pipeline_is_bitwise_identical_at_every_thread_count() {
    let _lock = GUARD.lock().expect("guard");
    let (template, signal) = deep_fixture();

    let run = |threads: usize| {
        sintel_common::set_threads(Some(threads));
        let mut pipeline = template.build_default().expect("pipeline builds");
        pipeline.fit(&signal).expect("fit runs");
        let (errors, ts) = pipeline.errors(&signal).expect("errors run");
        let anomalies = pipeline.detect(&signal).expect("detect runs");
        let error_bits: Vec<u64> = errors.iter().map(|e| e.to_bits()).collect();
        let intervals: Vec<(i64, i64, u64)> = anomalies
            .iter()
            .map(|a| (a.interval.start, a.interval.end, a.score.to_bits()))
            .collect();
        (error_bits, ts, intervals)
    };

    let baseline = run(THREAD_COUNTS[0]);
    assert!(!baseline.0.is_empty(), "deep pipeline produced no errors");
    assert!(!baseline.2.is_empty(), "deep pipeline found no anomalies");
    for &threads in &THREAD_COUNTS[1..] {
        let other = run(threads);
        assert_eq!(
            other.0, baseline.0,
            "error series drifted between 1 and {threads} threads"
        );
        assert_eq!(other.1, baseline.1, "timestamps drifted at {threads} threads");
        assert_eq!(
            other.2, baseline.2,
            "detected intervals drifted between 1 and {threads} threads"
        );
    }
    sintel_common::set_threads(None);
}

fn tune_fixture() -> (Template, Signal, Vec<Interval>) {
    let n = 500;
    let mut vals: Vec<f64> =
        (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 40.0).sin()).collect();
    for v in &mut vals[250..260] {
        *v += 5.0;
    }
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
    let truth = vec![Interval::new(250, 259).expect("valid interval")];
    (template, Signal::from_values("tune", vals), truth)
}

/// The batched GP tuner evaluates candidate batches concurrently but
/// must record them in proposal order: the full trial history — and
/// therefore every subsequent GP posterior — is identical at any
/// thread count.
#[test]
fn tuner_history_is_bitwise_identical_at_every_thread_count() {
    let _lock = GUARD.lock().expect("guard");
    let (template, signal, truth) = tune_fixture();
    let budget = 10;

    let run = |threads: usize| {
        sintel_common::set_threads(Some(threads));
        let report = tune_template(
            &template,
            &signal,
            &TuneSetting::Supervised { ground_truth: truth.clone() },
            budget,
        )
        .expect("tuning runs");
        let history_bits: Vec<u64> = report.history.iter().map(|s| s.to_bits()).collect();
        (
            history_bits,
            report.best_score.to_bits(),
            report.default_score.to_bits(),
            report.best_lambda.clone(),
            report.rejected_trials,
        )
    };

    let baseline = run(THREAD_COUNTS[0]);
    assert_eq!(baseline.0.len(), budget + 1, "history covers default + budget trials");
    for &threads in &THREAD_COUNTS[1..] {
        let other = run(threads);
        assert_eq!(
            other, baseline,
            "tuner trajectory drifted between 1 and {threads} threads"
        );
    }
    sintel_common::set_threads(None);
}
