//! The metric catalog: every `sintel_*` series the instrumented stack
//! registers, with its kind, label keys and meaning.
//!
//! The catalog is the single source of truth that `METRICS.md` (the
//! operator-facing reference) and the `metrics_doc` integration test
//! are checked against: a metric recorded anywhere in the workspace
//! must appear here, and every row here must appear in the doc. That
//! keeps "what the code emits" and "what the operator reads" from
//! drifting apart.

/// What kind of series a catalog entry describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// Monotonic counter in the cumulative registry.
    Counter,
    /// Last-write-wins gauge in the cumulative registry.
    Gauge,
    /// Log-bucket latency histogram in the cumulative registry.
    Histogram,
    /// Per-tick sum over the serving engine's window of its last 64
    /// ticks (`sintel_serve::slo::TickWindow`), served on `/metrics`.
    RollupDelta,
    /// Per-tick latency histograms merged over the same window.
    RollupObserve,
}

impl MetricKind {
    /// Stable lower-case label (used by METRICS.md and the sync test).
    pub fn as_str(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
            MetricKind::RollupDelta => "rollup-delta",
            MetricKind::RollupObserve => "rollup-observe",
        }
    }
}

/// One registered metric name.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Base series name (labels stripped).
    pub name: &'static str,
    /// Series kind.
    pub kind: MetricKind,
    /// Label keys the series carries (empty for unlabeled series).
    pub labels: &'static [&'static str],
    /// One-line semantics.
    pub help: &'static str,
}

/// Every registered `sintel_*` metric, sorted by name.
pub const METRICS: &[MetricDef] = &[
    MetricDef {
        name: "sintel_benchmark_failure_breakdown",
        kind: MetricKind::Gauge,
        labels: &["kind"],
        help: "Benchmark signal failures by failure kind, from the last finished run.",
    },
    MetricDef {
        name: "sintel_benchmark_failures_total",
        kind: MetricKind::Counter,
        labels: &["kind"],
        help: "Benchmark trial failures by failure kind.",
    },
    MetricDef {
        name: "sintel_benchmark_quarantine_added_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "(pipeline, signal) pairs newly quarantined during benchmarking.",
    },
    MetricDef {
        name: "sintel_benchmark_quarantine_skips_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Benchmark cells skipped because the pair was already quarantined.",
    },
    MetricDef {
        name: "sintel_benchmark_rows",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "Rows in the last finished benchmark report.",
    },
    MetricDef {
        name: "sintel_benchmark_signals_failed",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "Signals that failed in the last finished benchmark run.",
    },
    MetricDef {
        name: "sintel_benchmark_signals_quarantine_skipped",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "Signals skipped by quarantine in the last finished benchmark run.",
    },
    MetricDef {
        name: "sintel_benchmark_signals_scored",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "Signals scored in the last finished benchmark run.",
    },
    MetricDef {
        name: "sintel_benchmark_trials_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Benchmark (pipeline, signal) trials executed.",
    },
    MetricDef {
        name: "sintel_pipeline_detect_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of a full pipeline detect pass.",
    },
    MetricDef {
        name: "sintel_pipeline_fit_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of a full pipeline fit.",
    },
    MetricDef {
        name: "sintel_primitive_fit_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of a single primitive fit step.",
    },
    MetricDef {
        name: "sintel_primitive_produce_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of a single primitive produce step.",
    },
    MetricDef {
        name: "sintel_quarantine_pairs",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "Quarantined (pipeline, signal) pairs currently persisted in the store.",
    },
    MetricDef {
        name: "sintel_run_attempts_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Policy-supervised pipeline run attempts (including retries).",
    },
    MetricDef {
        name: "sintel_run_failure_records",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "Failure records currently persisted in the store.",
    },
    MetricDef {
        name: "sintel_run_failures_total",
        kind: MetricKind::Counter,
        labels: &["kind"],
        help: "Policy-supervised run failures by failure kind.",
    },
    MetricDef {
        name: "sintel_run_retries_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Policy-supervised run retries after a retryable failure.",
    },
    MetricDef {
        name: "sintel_serve_accepted_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Ingest events admitted into a tenant queue, added once per tick from its wide event.",
    },
    MetricDef {
        name: "sintel_serve_backlog",
        kind: MetricKind::Gauge,
        labels: &[],
        help: "Events across all tenant queues after the last tick drained.",
    },
    MetricDef {
        name: "sintel_serve_breaker_transitions_total",
        kind: MetricKind::Counter,
        labels: &["to"],
        help: "Circuit-breaker state transitions by destination state (open, half_open, closed, quarantined).",
    },
    MetricDef {
        name: "sintel_serve_breaker_trips_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Circuit-breaker trips (closed or half-open to open).",
    },
    MetricDef {
        name: "sintel_serve_checkpoint_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of the group-committed session checkpoint batch per tick.",
    },
    MetricDef {
        name: "sintel_serve_degraded_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Tenant degradations to the fallback template.",
    },
    MetricDef {
        name: "sintel_serve_emit_latency_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Queue residency of drained events: offer to tick pickup.",
    },
    MetricDef {
        name: "sintel_serve_emits_per_tick",
        kind: MetricKind::RollupDelta,
        labels: &[],
        help: "Anomaly events committed per tick over the engine's tick window.",
    },
    MetricDef {
        name: "sintel_serve_emitted_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Anomaly events committed by the serve tier, added once per tick from its wide event.",
    },
    MetricDef {
        name: "sintel_serve_events_per_tick",
        kind: MetricKind::RollupDelta,
        labels: &[],
        help: "Ingest events drained into sessions per tick over the engine's tick window.",
    },
    MetricDef {
        name: "sintel_serve_pass_failures_per_tick",
        kind: MetricKind::RollupDelta,
        labels: &[],
        help: "Detection-pass failures per tick over the engine's tick window.",
    },
    MetricDef {
        name: "sintel_serve_pass_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of one detection pass over a tenant window.",
    },
    MetricDef {
        name: "sintel_serve_pass_window_seconds",
        kind: MetricKind::RollupObserve,
        labels: &[],
        help: "Detection-pass latency distribution, `_self` passes included, over the engine's tick window (live p50/p90/p99).",
    },
    MetricDef {
        name: "sintel_serve_quarantined_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Tenants quarantined after repeated breaker trips.",
    },
    MetricDef {
        name: "sintel_serve_queue_depth",
        kind: MetricKind::Gauge,
        labels: &["tenant"],
        help: "Per-tenant queue depth drained by the last tick, set once per tick.",
    },
    MetricDef {
        name: "sintel_serve_retries_per_tick",
        kind: MetricKind::RollupDelta,
        labels: &[],
        help: "Backpressure Retry admissions per tick over the engine's tick window.",
    },
    MetricDef {
        name: "sintel_serve_retry_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Offers answered with backpressure Retry{after_ticks} (a full queue), added once per tick from its wide event.",
    },
    MetricDef {
        name: "sintel_serve_scrape_errors_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Status-server requests that failed to parse or hit an I/O error.",
    },
    MetricDef {
        name: "sintel_serve_scrapes_total",
        kind: MetricKind::Counter,
        labels: &["endpoint"],
        help: "Status-server requests served, by endpoint.",
    },
    MetricDef {
        name: "sintel_serve_self_events_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Anomaly events the self-monitor emitted on the engine's own operational streams, added once per tick from its wide event.",
    },
    MetricDef {
        name: "sintel_serve_shed_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Offers shed because the tenant is quarantined or by priority load shedding, added once per tick from its wide event.",
    },
    MetricDef {
        name: "sintel_serve_sheds_per_tick",
        kind: MetricKind::RollupDelta,
        labels: &[],
        help: "Shed offers per tick over the engine's tick window.",
    },
    MetricDef {
        name: "sintel_serve_tick_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of a full engine tick (drain, passes, checkpoint).",
    },
    MetricDef {
        name: "sintel_serve_tick_window_seconds",
        kind: MetricKind::RollupObserve,
        labels: &[],
        help: "Tick-duration distribution over the engine's tick window (live p50/p90/p99).",
    },
    MetricDef {
        name: "sintel_serve_ticks_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Engine ticks completed.",
    },
    MetricDef {
        name: "sintel_store_compaction_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of a WAL compaction.",
    },
    MetricDef {
        name: "sintel_store_compactions_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "WAL compactions performed.",
    },
    MetricDef {
        name: "sintel_store_corrupt_collections_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Collection snapshots discarded as corrupt during recovery.",
    },
    MetricDef {
        name: "sintel_store_orphans_removed_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Orphaned temp/snapshot files removed during recovery.",
    },
    MetricDef {
        name: "sintel_store_wal_append_errors_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "WAL append failures.",
    },
    MetricDef {
        name: "sintel_store_wal_append_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of a WAL append (including group-commit fsync).",
    },
    MetricDef {
        name: "sintel_store_wal_appended_bytes_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Bytes appended to the WAL.",
    },
    MetricDef {
        name: "sintel_store_wal_appends_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Mutation batches appended to the WAL.",
    },
    MetricDef {
        name: "sintel_store_wal_fsyncs_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "fsync calls issued by WAL group commit.",
    },
    MetricDef {
        name: "sintel_store_wal_replay_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of WAL replay at open.",
    },
    MetricDef {
        name: "sintel_store_wal_replayed_batches_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Batches replayed from the WAL at open.",
    },
    MetricDef {
        name: "sintel_store_wal_truncations_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Torn WAL tails truncated during recovery.",
    },
    MetricDef {
        name: "sintel_tune_failed_trials_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Tuner trials that failed under policy.",
    },
    MetricDef {
        name: "sintel_tune_rejected_trials_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Tuner candidates rejected by static analysis before execution.",
    },
    MetricDef {
        name: "sintel_tune_trial_seconds",
        kind: MetricKind::Histogram,
        labels: &[],
        help: "Wall time of one tuner trial.",
    },
    MetricDef {
        name: "sintel_tune_trials_total",
        kind: MetricKind::Counter,
        labels: &[],
        help: "Tuner trials executed.",
    },
];

/// Look up a catalog entry by base name (labels stripped by the
/// caller).
pub fn metric_def(name: &str) -> Option<&'static MetricDef> {
    METRICS
        .binary_search_by(|def| def.name.cmp(name))
        .ok()
        .map(|i| &METRICS[i])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_is_sorted_and_unique() {
        for pair in METRICS.windows(2) {
            assert!(
                pair[0].name < pair[1].name,
                "catalog out of order (binary search relies on it): {} >= {}",
                pair[0].name,
                pair[1].name
            );
        }
    }

    #[test]
    fn lookup_by_name() {
        assert!(metric_def("sintel_serve_accepted_total").is_some());
        assert!(metric_def("sintel_store_wal_fsyncs_total").is_some());
        assert!(metric_def("sintel_no_such_metric").is_none());
        let def = metric_def("sintel_serve_queue_depth").expect("known metric");
        assert_eq!(def.kind, MetricKind::Gauge);
        assert_eq!(def.labels, ["tenant"]);
    }

    #[test]
    fn every_entry_has_prefix_kind_string_and_help() {
        for def in METRICS {
            assert!(def.name.starts_with("sintel_"), "{}", def.name);
            assert!(!def.help.is_empty(), "{} lacks help text", def.name);
            assert!(!def.kind.as_str().is_empty());
        }
    }
}
