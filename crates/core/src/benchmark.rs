//! The standardized benchmarking suite (paper §3.4, Figure 4c).
//!
//! One call compares any set of hub pipelines on any set of datasets
//! under identical conditions, reporting both **quality** (precision /
//! recall / F1 under the segment-based metrics of §2.3, mean ± std
//! across signals) and **computational performance** (training time,
//! pipeline latency, peak memory, per-primitive profile).
//!
//! Every signal runs under the fault-isolation layer ([`crate::policy`]):
//! a watchdog thread turns hangs into `Timeout` failures, contained
//! panics and non-finite outputs are classified per
//! [`FailureBreakdown`], and a `pipeline × signal` pair that keeps
//! failing is quarantined through the knowledge base so later sweeps
//! skip it instead of burning their budget again.

use std::time::Duration;

use sintel_datasets::{DatasetConfig, DatasetId};
use sintel_metrics::Scores;
use sintel_obs::FieldValue;
use sintel_pipeline::{hub, Template};
use sintel_store::schema::collections as schema_collections;
use sintel_store::{Doc, SintelDb};
use sintel_timeseries::Interval;

use crate::policy::{run_with_policy, Failure, FailureBreakdown, FailureKind, RunPolicy};
use crate::sintel::score;
use crate::{alloc, Result};

/// Which evaluation metric scores the detections (§2.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Overlapping segment (Algorithm 2) — the Table 3 metric.
    Overlap,
    /// Weighted segment (Algorithm 1).
    Weighted,
}

/// Benchmark configuration.
#[derive(Debug, Clone)]
pub struct BenchmarkConfig {
    /// Hub pipeline names to compare.
    pub pipelines: Vec<String>,
    /// Custom templates benchmarked alongside the hub pipelines (the
    /// fault-injection tests ride through here).
    pub extra_templates: Vec<Template>,
    /// Datasets to run on.
    pub datasets: Vec<DatasetId>,
    /// Dataset generation (seed + scale).
    pub data: DatasetConfig,
    /// Scoring metric.
    pub metric: MetricKind,
    /// Per-signal execution budget (watchdog timeout, retries, backoff).
    pub policy: RunPolicy,
}

impl Default for BenchmarkConfig {
    fn default() -> Self {
        Self {
            pipelines: hub::available_pipelines().iter().map(|s| s.to_string()).collect(),
            extra_templates: Vec::new(),
            datasets: vec![DatasetId::Nab, DatasetId::Nasa, DatasetId::Yahoo],
            data: DatasetConfig::small(),
            metric: MetricKind::Overlap,
            policy: RunPolicy::default(),
        }
    }
}

/// One pipeline × dataset result row.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// Pipeline name.
    pub pipeline: String,
    /// Dataset name.
    pub dataset: String,
    /// Mean scores across the dataset's signals.
    pub mean: Scores,
    /// Standard deviation across signals.
    pub std: Scores,
    /// Signals evaluated.
    pub signals: usize,
    /// Signals whose run failed (excluded from the scores), by class.
    pub failures: FailureBreakdown,
    /// Compact static-analysis preflight summary (`"clean"` or
    /// `SAxxx×n` counts). Rows with Error diagnostics never execute —
    /// every signal is recorded as [`FailureKind::Rejected`].
    pub diagnostics: String,
    /// Signals skipped because the pair was quarantined by earlier runs.
    pub quarantined: usize,
    /// Total training time over all signals.
    pub train_time: Duration,
    /// Total detection (latency) time over all signals.
    pub detect_time: Duration,
    /// Peak heap bytes observed during this row's runs (0 when the
    /// tracking allocator is not installed).
    pub peak_memory: usize,
    /// Sum of per-primitive self time (standalone baseline, Fig 7b).
    pub primitive_time: Duration,
}

impl BenchmarkRow {
    /// Framework overhead vs standalone primitives (Figure 7b).
    pub fn overhead_percent(&self) -> f64 {
        let prim = self.primitive_time.as_secs_f64();
        if prim <= 0.0 {
            return 0.0;
        }
        let total = (self.train_time + self.detect_time).as_secs_f64();
        100.0 * (total - prim).max(0.0) / prim
    }
}

/// Resolve the run list: hub pipelines by name, then custom templates.
fn resolve_templates(cfg: &BenchmarkConfig) -> Result<Vec<Template>> {
    let mut templates = Vec::with_capacity(cfg.pipelines.len() + cfg.extra_templates.len());
    for pipeline_name in &cfg.pipelines {
        templates.push(hub::template_by_name(pipeline_name)?);
    }
    templates.extend(cfg.extra_templates.iter().cloned());
    Ok(templates)
}

/// Strikes needed before a `pipeline × signal` pair is quarantined.
const QUARANTINE_STRIKES: usize = 2;

/// Log target of the benchmark runner.
const TARGET: &str = "sintel::benchmark";

/// Pre-register the benchmark's counters at zero so a clean run still
/// dumps explicit failure-kind counters (a dashboard reading the
/// snapshot can tell "no failures" from "not instrumented").
fn preregister_metrics() {
    for kind in FailureKind::ALL {
        sintel_obs::counter_add(
            &sintel_obs::labeled("sintel_benchmark_failures_total", &[("kind", kind.label())]),
            0,
        );
    }
    sintel_obs::counter_add("sintel_benchmark_trials_total", 0);
    sintel_obs::counter_add("sintel_benchmark_quarantine_skips_total", 0);
    sintel_obs::counter_add("sintel_benchmark_quarantine_added_total", 0);
}

/// Export the run's health — quarantine and failure-breakdown state —
/// as gauges, so a benchmark run is inspectable from the metrics
/// snapshot alone without reading the knowledge base.
fn export_health_gauges(rows: &[BenchmarkRow], db: Option<&SintelDb>) {
    let mut breakdown = FailureBreakdown::default();
    let (mut scored, mut skipped) = (0usize, 0usize);
    for row in rows {
        breakdown.merge(&row.failures);
        scored += row.signals;
        skipped += row.quarantined;
    }
    sintel_obs::gauge_set("sintel_benchmark_rows", rows.len() as f64);
    sintel_obs::gauge_set("sintel_benchmark_signals_scored", scored as f64);
    sintel_obs::gauge_set("sintel_benchmark_signals_failed", breakdown.total() as f64);
    sintel_obs::gauge_set("sintel_benchmark_signals_quarantine_skipped", skipped as f64);
    for kind in FailureKind::ALL {
        let count = match kind {
            FailureKind::Build => breakdown.build,
            FailureKind::Panic => breakdown.panic,
            FailureKind::NonFinite => breakdown.non_finite,
            FailureKind::Timeout => breakdown.timeout,
            FailureKind::Rejected => breakdown.rejected,
            FailureKind::Other => breakdown.other,
        };
        sintel_obs::gauge_set(
            &sintel_obs::labeled("sintel_benchmark_failure_breakdown", &[("kind", kind.label())]),
            count as f64,
        );
    }
    if let Some(db) = db {
        use sintel_store::Filter;
        sintel_obs::gauge_set(
            "sintel_quarantine_pairs",
            db.raw().count(schema_collections::QUARANTINE, &Filter::All) as f64,
        );
        sintel_obs::gauge_set(
            "sintel_run_failure_records",
            db.raw().count(schema_collections::RUN_FAILURES, &Filter::All) as f64,
        );
    }
}

/// Persist the global metrics registry's snapshot into the knowledge
/// base (`metrics_snapshots` collection) under a run label, in both
/// exporter formats. Returns the stored document id.
pub fn persist_metrics_snapshot(db: &SintelDb, run: &str) -> Result<u64> {
    let snapshot = sintel_obs::global().snapshot();
    Ok(db.add_metrics_snapshot(run, &snapshot.to_prometheus(), &snapshot.to_json())?)
}

/// Run the benchmark: every pipeline against every dataset
/// (`sintel.benchmark`, Figure 4c).
///
/// Unsupervised protocol, as in the paper: each pipeline is fitted on
/// the signal itself (no labels are used) and detection runs over the
/// same signal; scoring compares detections to the held-back ground
/// truth.
pub fn benchmark(cfg: &BenchmarkConfig) -> Result<Vec<BenchmarkRow>> {
    benchmark_with_db(cfg, None)
}

/// [`benchmark`], with failure bookkeeping in a knowledge base.
///
/// When `db` is given, every exhausted run is recorded in the
/// `run_failures` collection (one strike per attempt) and pairs
/// reaching `QUARANTINE_STRIKES` (2) are quarantined: later benchmark
/// calls against the same knowledge base skip them (with a logged
/// reason) instead of re-running a known-bad combination.
pub fn benchmark_with_db(
    cfg: &BenchmarkConfig,
    db: Option<&SintelDb>,
) -> Result<Vec<BenchmarkRow>> {
    Ok(benchmark_report_with_db(cfg, db)?.rows)
}

/// Benchmark rows plus the run's aggregate performance: `cpu_time` is
/// the sum of per-signal pipeline time (what a serial sweep would have
/// spent in pipelines), `wall_time` the actual elapsed time — their
/// ratio makes the parallel speedup visible.
#[derive(Debug, Clone)]
pub struct BenchmarkReport {
    /// The result rows, ranked as [`benchmark`] ranks them.
    pub rows: Vec<BenchmarkRow>,
    /// Elapsed wall-clock time of the whole sweep.
    pub wall_time: Duration,
    /// Summed pipeline (train + detect) time across all signals.
    pub cpu_time: Duration,
    /// Worker-thread budget the sweep ran with.
    pub threads: usize,
}

impl BenchmarkReport {
    /// `cpu_time / wall_time` — parallel efficiency of the sweep
    /// (≈1 serial, →`threads` under perfect scaling).
    pub fn speedup(&self) -> f64 {
        let wall = self.wall_time.as_secs_f64();
        if wall <= 0.0 {
            return 0.0;
        }
        self.cpu_time.as_secs_f64() / wall
    }
}

/// [`benchmark_with_db`], also reporting cpu/wall time and thread count.
pub fn benchmark_report(cfg: &BenchmarkConfig) -> Result<BenchmarkReport> {
    benchmark_report_with_db(cfg, None)
}

/// The full benchmark entry point: plan serially, execute cells on the
/// [`sintel_common::par`] pool, fold results serially in plan order.
pub fn benchmark_report_with_db(
    cfg: &BenchmarkConfig,
    db: Option<&SintelDb>,
) -> Result<BenchmarkReport> {
    let sweep_started = std::time::Instant::now();
    let templates = resolve_templates(cfg)?;
    preregister_metrics();

    // Group commit: every knowledge-base write of this run (preflight
    // diagnostics, run failures, quarantine strikes, the metrics
    // snapshot) is buffered and appended as ONE WAL record when the
    // run completes — one fsync per benchmark instead of one per
    // write, and a crash mid-run persists either the whole run's
    // bookkeeping or none of it. All writes happen in the serial plan
    // and fold sections, so the record's contents are identical at any
    // `SINTEL_THREADS`.
    let store_batch = db.map(SintelDb::batch);

    // Preflight: analyse each template once, up front. Warn-level
    // diagnostics are logged; Error-level ones mark the template as
    // rejected — its rows never execute a single signal. All diagnostics
    // are persisted to the knowledge base when one is attached.
    let preflights: Vec<sintel_analyze::Report> =
        templates.iter().map(|t| t.analyze()).collect();
    for report in &preflights {
        for diag in &report.diagnostics {
            sintel_obs::warn!(
                TARGET,
                format!("preflight diagnostic: {}", diag.message),
                pipeline = report.pipeline.as_str(),
                code = diag.code.as_str(),
                severity = diag.severity.label(),
                step = diag.step,
                primitive = diag.primitive.as_str(),
            );
            if let Some(db) = db {
                db.add_diagnostic(
                    &report.pipeline,
                    diag.code.as_str(),
                    diag.severity.label(),
                    &diag.primitive,
                    &diag.message,
                )?;
            }
        }
    }

    // ---- Plan (serial) -------------------------------------------------
    //
    // The sweep is decomposed into (dataset, pipeline, signal) cells up
    // front, on one thread. Every decision that depends on shared state
    // — preflight rejection, quarantine lookup — is made here, and every
    // shared-state *write* happens in the fold below, also on one
    // thread, in cell order. The parallel section in between executes
    // pure cells only, so the whole benchmark is bitwise-identical at
    // any `SINTEL_THREADS` value.
    let datasets: Vec<sintel_datasets::Dataset> =
        cfg.datasets.iter().map(|id| sintel_datasets::load(*id, &cfg.data)).collect();

    let run_span = sintel_obs::span_with(
        "benchmark.run",
        &[("threads", FieldValue::UInt(sintel_common::configured_threads() as u64))],
    );
    let run_id = run_span.id();

    /// What the plan decided for one signal of a row.
    enum SignalPlan {
        /// Template preflight has Error diagnostics: never executed.
        Rejected,
        /// Pair quarantined by earlier runs: skipped.
        Quarantined,
        /// Executable; index into the flat cell list.
        Execute(usize),
    }
    struct RowPlan {
        dataset_idx: usize,
        template_idx: usize,
        signals: Vec<SignalPlan>,
        span: sintel_obs::SpanGuard,
    }
    struct Cell<'a> {
        template: &'a Template,
        labeled: &'a sintel_datasets::LabeledSignal,
        row_span_id: u64,
    }

    let mut row_plans: Vec<RowPlan> = Vec::new();
    let mut cells: Vec<Cell<'_>> = Vec::new();
    for (dataset_idx, dataset) in datasets.iter().enumerate() {
        for (template_idx, (template, preflight)) in
            templates.iter().zip(&preflights).enumerate()
        {
            // Row spans are opened up front (they bracket their cells'
            // execution) with an explicit parent: several are open at
            // once, so stack-inferred nesting would chain them.
            let span = sintel_obs::span_with_parent(
                "benchmark.row",
                &[
                    ("pipeline", FieldValue::from(template.name.as_str())),
                    ("dataset", FieldValue::from(dataset.name.as_str())),
                ],
                Some(run_id),
            );
            let row_span_id = span.id();
            let mut signals = Vec::new();
            for labeled in dataset.iter_signals() {
                if preflight.has_errors() {
                    signals.push(SignalPlan::Rejected);
                    continue;
                }
                if let Some(db) = db {
                    if db.is_quarantined(&template.name, labeled.signal.name()) {
                        sintel_obs::counter_add("sintel_benchmark_quarantine_skips_total", 1);
                        sintel_obs::info!(
                            TARGET,
                            "skipping quarantined pair",
                            pipeline = template.name.as_str(),
                            signal = labeled.signal.name(),
                        );
                        signals.push(SignalPlan::Quarantined);
                        continue;
                    }
                }
                signals.push(SignalPlan::Execute(cells.len()));
                cells.push(Cell { template, labeled, row_span_id });
            }
            row_plans.push(RowPlan { dataset_idx, template_idx, signals, span });
        }
    }

    // ---- Execute (parallel) --------------------------------------------
    //
    // Each cell is pure: build → fit/detect → score, under the watchdog
    // policy. Trial spans are attributed to the cell's row span
    // explicitly (span stacks are thread-local; inference would attach
    // them to whatever the worker had open). Counter increments are
    // commutative, so totals are exact regardless of interleaving.
    alloc::reset_peak();
    let outcomes = sintel_common::par_try_map(cells.len(), |i| {
        // In range: `i` comes from `0..cells.len()`.
        #[allow(clippy::indexing_slicing)]
        let cell = &cells[i];
        sintel_obs::counter_add("sintel_benchmark_trials_total", 1);
        let task_template = cell.template.clone();
        let task_signal = cell.labeled.signal.clone();
        let row_span_id = cell.row_span_id;
        // The attempt (and therefore its `benchmark.trial` span and the
        // pipeline spans nested inside it) runs on the watchdog thread —
        // one trial span per attempt.
        let attempt = move || {
            let _trial = sintel_obs::span_with_parent(
                "benchmark.trial",
                &[
                    ("pipeline", FieldValue::from(task_template.name.as_str())),
                    ("signal", FieldValue::from(task_signal.name())),
                ],
                Some(row_span_id),
            );
            let mut pipeline = task_template.build_default()?;
            let anomalies = pipeline.fit_detect(&task_signal, &task_signal)?;
            let profile = pipeline.profile().clone();
            Ok::<_, Failure>((anomalies, profile))
        };
        let (result, attempts) = run_with_policy(&cfg.policy, attempt);
        let scored = result.map(|(anomalies, prof)| {
            let pred: Vec<Interval> = anomalies.iter().map(|a| a.interval).collect();
            (score(&cell.labeled.anomalies, &pred, cfg.metric), prof)
        });
        (scored, attempts)
    });
    let peak_memory = alloc::peak_bytes();
    // Each outcome is consumed exactly once by its planned cell below.
    let mut outcomes: Vec<Option<_>> = outcomes.into_iter().map(Some).collect();

    // ---- Fold (serial, in plan order) ----------------------------------
    //
    // All observable side effects — failure counters and logs,
    // knowledge-base writes, quarantine strikes — are applied here in
    // cell order, exactly as the serial sweep applied them.
    let mut rows = Vec::new();
    for row_plan in row_plans {
        // In range: plan indices come from the enumerations above.
        #[allow(clippy::indexing_slicing)]
        let (dataset, template, preflight) = (
            &datasets[row_plan.dataset_idx],
            &templates[row_plan.template_idx],
            &preflights[row_plan.template_idx],
        );
        let pipeline_name = template.name.clone();
        let mut per_signal = Vec::new();
        let mut failures = FailureBreakdown::default();
        let mut quarantined = 0usize;
        let mut train_time = Duration::ZERO;
        let mut detect_time = Duration::ZERO;
        let mut primitive_time = Duration::ZERO;

        // Plans were built in `iter_signals` order; zip restores the pairing.
        for (plan, labeled) in row_plan.signals.iter().zip(dataset.iter_signals()) {
            let cell_idx = match plan {
                SignalPlan::Rejected => {
                    // Statically rejected: never executed, not a crash.
                    failures.record(FailureKind::Rejected);
                    sintel_obs::counter_add(
                        &sintel_obs::labeled(
                            "sintel_benchmark_failures_total",
                            &[("kind", FailureKind::Rejected.label())],
                        ),
                        1,
                    );
                    continue;
                }
                SignalPlan::Quarantined => {
                    quarantined += 1;
                    continue;
                }
                SignalPlan::Execute(idx) => *idx,
            };
            let signal_name = labeled.signal.name().to_string();
            // A task panic outside the watchdog (scoring, bookkeeping)
            // is routed into the taxonomy instead of poisoning the run.
            // In range: every `Execute` index points into `outcomes`.
            #[allow(clippy::indexing_slicing)]
            let (result, attempts) = match outcomes[cell_idx].take() {
                Some(Ok(outcome)) => outcome,
                Some(Err(task_panic)) => {
                    (Err(Failure::new(FailureKind::Panic, task_panic.message)), 0)
                }
                None => (
                    Err(Failure::new(FailureKind::Other, "cell produced no outcome")),
                    0,
                ),
            };
            match result {
                Ok((scores, prof)) => {
                    per_signal.push(scores);
                    train_time += prof.fit_total;
                    detect_time += prof.detect_total;
                    primitive_time += prof.primitive_time();
                }
                Err(failure) => {
                    failures.record(failure.kind);
                    sintel_obs::counter_add(
                        &sintel_obs::labeled(
                            "sintel_benchmark_failures_total",
                            &[("kind", failure.kind.label())],
                        ),
                        1,
                    );
                    sintel_obs::warn!(
                        TARGET,
                        format!("signal run exhausted its policy: {}", failure.message),
                        pipeline = pipeline_name.as_str(),
                        signal = signal_name.as_str(),
                        kind = failure.kind.label(),
                        attempts = attempts,
                    );
                    if let Some(db) = db {
                        db.add_run_failure(
                            &pipeline_name,
                            &signal_name,
                            failure.kind.label(),
                            &failure.message,
                            attempts as usize,
                        )?;
                        let strikes = db.failure_strikes(&pipeline_name, &signal_name);
                        if strikes >= QUARANTINE_STRIKES
                            && !db.is_quarantined(&pipeline_name, &signal_name)
                        {
                            sintel_obs::counter_add(
                                "sintel_benchmark_quarantine_added_total",
                                1,
                            );
                            sintel_obs::warn!(
                                TARGET,
                                "quarantining pipeline × signal pair",
                                pipeline = pipeline_name.as_str(),
                                signal = signal_name.as_str(),
                                strikes = strikes,
                                reason = failure.to_string(),
                            );
                            db.add_quarantine(
                                &pipeline_name,
                                &signal_name,
                                &failure.to_string(),
                            )?;
                        }
                    }
                }
            }
        }
        row_plan.span.close();
        rows.push(BenchmarkRow {
            pipeline: pipeline_name,
            dataset: dataset.name.clone(),
            mean: Scores::mean(&per_signal),
            std: Scores::std(&per_signal),
            signals: per_signal.len(),
            failures,
            diagnostics: preflight.summary(),
            quarantined,
            train_time,
            detect_time,
            // Run-wide heap peak: per-row attribution is meaningless
            // once rows execute concurrently, and a run-wide number is
            // the same at every thread count's fold.
            peak_memory,
            primitive_time,
        });
    }
    run_span.close();
    rows.sort_by(|a, b| {
        a.dataset.cmp(&b.dataset).then(b.mean.f1.total_cmp(&a.mean.f1))
    });
    export_health_gauges(&rows, db);
    if let Some(db) = db {
        persist_metrics_snapshot(db, "benchmark")?;
    }
    if let Some(scope) = store_batch {
        scope.commit()?;
    }
    let cpu_time = rows.iter().map(|r| r.train_time + r.detect_time).sum();
    Ok(BenchmarkReport {
        rows,
        wall_time: sweep_started.elapsed(),
        cpu_time,
        threads: sintel_common::configured_threads(),
    })
}

/// Persist benchmark rows into the knowledge base as experiments.
/// Committed as one WAL batch: either every row's experiment+result
/// pair lands, or none do, and a failed commit is returned.
pub fn persist_benchmark(db: &SintelDb, rows: &[BenchmarkRow]) -> Result<()> {
    let scope = db.batch();
    for row in rows {
        let exp = db.add_experiment(
            &format!("benchmark/{}/{}", row.dataset, row.pipeline),
            &row.dataset,
            &row.pipeline,
        )?;
        let doc = Doc::obj()
            .with("experiment_id", exp)
            .with("f1", row.mean.f1)
            .with("precision", row.mean.precision)
            .with("recall", row.mean.recall)
            .with("f1_std", row.std.f1)
            .with("signals", row.signals)
            .with("failures", row.failures.total())
            .with("failures_build", row.failures.build)
            .with("failures_panic", row.failures.panic)
            .with("failures_non_finite", row.failures.non_finite)
            .with("failures_timeout", row.failures.timeout)
            .with("failures_rejected", row.failures.rejected)
            .with("failures_other", row.failures.other)
            .with("diagnostics", row.diagnostics.as_str())
            .with("quarantined", row.quarantined)
            .with("train_seconds", row.train_time.as_secs_f64())
            .with("detect_seconds", row.detect_time.as_secs_f64())
            .with("peak_memory_bytes", row.peak_memory);
        db.raw().insert("benchmark_results", doc)?;
    }
    Ok(scope.commit()?)
}

/// Render rows as a Table 3-style text table (mean ± std per dataset).
pub fn render_table(rows: &[BenchmarkRow]) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:<8} {:>14} {:>16} {:>14} {:>8} {:>18} {:>14}\n",
        "pipeline", "dataset", "F1", "precision", "recall", "signals", "failures", "diagnostics"
    ));
    for row in rows {
        let mut failures = row.failures.summary();
        if row.quarantined > 0 {
            if failures == "-" {
                failures.clear();
            } else {
                failures.push(' ');
            }
            failures.push_str(&format!("skip\u{d7}{}", row.quarantined));
        }
        out.push_str(&format!(
            "{:<26} {:<8} {:>6.3} ± {:<5.2} {:>8.3} ± {:<5.2} {:>6.3} ± {:<5.2} {:>5} {:>18} {:>14}\n",
            row.pipeline,
            row.dataset,
            row.mean.f1,
            row.std.f1,
            row.mean.precision,
            row.std.precision,
            row.mean.recall,
            row.std.recall,
            row.signals,
            failures,
            row.diagnostics,
        ));
    }
    out
}

/// Render the run's computational performance: per-row pipeline times
/// plus a footer with summed `cpu_time`, elapsed `wall_time`, the
/// speedup ratio and the thread budget.
///
/// Kept separate from [`render_table`]: quality tables are part of the
/// bitwise determinism contract (identical at every thread count),
/// while wall-clock numbers are inherently machine- and run-specific.
pub fn render_perf_table(report: &BenchmarkReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:<8} {:>12} {:>12} {:>12}\n",
        "pipeline", "dataset", "train", "detect", "cpu"
    ));
    for row in &report.rows {
        out.push_str(&format!(
            "{:<26} {:<8} {:>10.3}s {:>10.3}s {:>10.3}s\n",
            row.pipeline,
            row.dataset,
            row.train_time.as_secs_f64(),
            row.detect_time.as_secs_f64(),
            (row.train_time + row.detect_time).as_secs_f64(),
        ));
    }
    out.push_str(&format!(
        "cpu_time {:.3}s  wall_time {:.3}s  speedup {:.2}x  threads {}\n",
        report.cpu_time.as_secs_f64(),
        report.wall_time.as_secs_f64(),
        report.speedup(),
        report.threads,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> BenchmarkConfig {
        BenchmarkConfig {
            pipelines: vec!["arima".into(), "azure_anomaly_detection".into()],
            datasets: vec![DatasetId::Nab],
            data: DatasetConfig { seed: 42, signal_scale: 0.05, length_scale: 0.08 },
            metric: MetricKind::Overlap,
            ..BenchmarkConfig::default()
        }
    }

    #[test]
    fn benchmark_produces_rows_with_scores() {
        let rows = benchmark(&tiny_config()).unwrap();
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.dataset, "NAB");
            assert!(row.signals > 0, "{row:?}");
            assert_eq!(row.failures.total(), 0, "{row:?}");
            assert_eq!(row.diagnostics, "clean", "{row:?}");
            assert!(row.mean.f1 >= 0.0 && row.mean.f1 <= 1.0);
            assert!(row.train_time + row.detect_time > Duration::ZERO);
        }
        // Rows are ranked by F1 within a dataset.
        assert!(rows[0].mean.f1 >= rows[1].mean.f1);
    }

    #[test]
    fn render_table_contains_all_rows() {
        let rows = benchmark(&tiny_config()).unwrap();
        let table = render_table(&rows);
        assert!(table.contains("arima"));
        assert!(table.contains("azure_anomaly_detection"));
        assert!(table.contains("F1"));
        assert!(table.contains("failures"));
    }

    #[test]
    fn persist_benchmark_writes_results() {
        let rows = benchmark(&tiny_config()).unwrap();
        let db = SintelDb::in_memory();
        persist_benchmark(&db, &rows).unwrap();
        use sintel_store::Filter;
        assert_eq!(db.raw().count("benchmark_results", &Filter::All), rows.len());
        assert_eq!(
            db.raw().count(sintel_store::schema::collections::EXPERIMENTS, &Filter::All),
            rows.len()
        );
        let doc = db.raw().find("benchmark_results", &Filter::All).pop().unwrap();
        assert!(doc.get("failures_timeout").is_some());
        assert!(doc.get("quarantined").is_some());
    }

    #[test]
    fn extra_templates_benchmark_alongside_hub_pipelines() {
        let mut cfg = tiny_config();
        cfg.pipelines = vec!["arima".into()];
        cfg.extra_templates = vec![Template::from_names(
            "custom_std_arima",
            &[
                "time_segments_aggregate",
                "SimpleImputer",
                "StandardScaler",
                "arima",
                "regression_errors",
                "find_anomalies",
            ],
        )];
        let rows = benchmark(&cfg).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows.iter().any(|r| r.pipeline == "custom_std_arima"));
    }

    #[test]
    fn statically_broken_template_rows_are_rejected_not_executed() {
        let mut cfg = tiny_config();
        cfg.pipelines = vec!["arima".into()];
        // lstm_regressor with no rolling_window_sequences upstream:
        // SA001 dangling reads of 'windows'/'targets'.
        cfg.extra_templates = vec![Template::from_names(
            "miswired_lstm",
            &[
                "time_segments_aggregate",
                "SimpleImputer",
                "MinMaxScaler",
                "lstm_regressor",
                "regression_errors",
                "find_anomalies",
            ],
        )];
        let db = SintelDb::in_memory();
        let rows = benchmark_with_db(&cfg, Some(&db)).unwrap();
        let rejected = rows.iter().find(|r| r.pipeline == "miswired_lstm").unwrap();
        assert_eq!(rejected.signals, 0, "{rejected:?}");
        assert!(rejected.failures.rejected > 0, "{rejected:?}");
        assert_eq!(rejected.failures.total(), rejected.failures.rejected);
        assert!(rejected.diagnostics.contains("SA001"), "{rejected:?}");
        // The healthy pipeline still ran normally alongside it.
        let healthy = rows.iter().find(|r| r.pipeline == "arima").unwrap();
        assert!(healthy.signals > 0);
        assert_eq!(healthy.failures.total(), 0);
        // Diagnostics were persisted to the knowledge base, and the
        // rendered table carries the new column.
        assert!(!db.diagnostics_for_pipeline("miswired_lstm").is_empty());
        assert!(db.diagnostics_for_pipeline("arima").is_empty());
        let table = render_table(&rows);
        assert!(table.contains("diagnostics"));
        assert!(table.contains("SA001"));
    }
}
