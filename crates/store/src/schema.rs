//! The Sintel knowledge-base schema (paper Figure 6).
//!
//! Entities and relationships:
//!
//! ```text
//! dataset 1—n signal
//! template 1—n pipeline
//! experiment n—1 dataset, n—1 pipeline      (a benchmark/detection run)
//! signalrun  n—1 experiment, n—1 signal     (one signal through one run)
//! event      n—1 signalrun                  (a detected anomaly)
//! annotation n—1 event, n—1 user            (expert feedback)
//! comment    n—1 event, n—1 user            (discussion panel)
//! ```
//!
//! [`SintelDb`] wraps the generic [`Database`] with typed helpers so the
//! core framework and the HIL subsystem store/retrieve these entities
//! consistently.

use std::path::Path;

use crate::db::{BatchScope, Database, RecoveryReport, StoreOptions};
use crate::query::Filter;
use crate::{Doc, Result};

/// Typed facade over the Sintel schema.
pub struct SintelDb {
    db: Database,
}

/// Collection names of the schema.
pub mod collections {
    /// Datasets (NAB, NASA, YAHOO…).
    pub const DATASETS: &str = "datasets";
    /// Signals, each belonging to a dataset.
    pub const SIGNALS: &str = "signals";
    /// Pipeline templates.
    pub const TEMPLATES: &str = "templates";
    /// Configured pipelines.
    pub const PIPELINES: &str = "pipelines";
    /// Experiments (detection / benchmark runs).
    pub const EXPERIMENTS: &str = "experiments";
    /// Per-signal runs within an experiment.
    pub const SIGNALRUNS: &str = "signalruns";
    /// Detected anomalous events.
    pub const EVENTS: &str = "events";
    /// Expert annotations on events.
    pub const ANNOTATIONS: &str = "annotations";
    /// Discussion comments on events.
    pub const COMMENTS: &str = "comments";
    /// Users (experts, operators).
    pub const USERS: &str = "users";
    /// Classified failures of benchmark/detection runs.
    pub const RUN_FAILURES: &str = "run_failures";
    /// Quarantined `pipeline × signal` pairs (skip on later runs).
    pub const QUARANTINE: &str = "quarantine";
    /// Observability metrics snapshots, one per instrumented run.
    pub const METRICS_SNAPSHOTS: &str = "metrics_snapshots";
    /// Static-analysis diagnostics recorded for benchmarked pipelines.
    pub const DIAGNOSTICS: &str = "diagnostics";
    /// Serving-tier session checkpoint metadata, one per tenant
    /// (breaker, counters and per-signal `ingested`/`emitted_until`/
    /// `len`; the window samples live in [`SERVE_CHUNKS`]).
    pub const SERVE_SESSIONS: &str = "serve_sessions";
    /// Serving-tier window samples: `{tenant, signal, first,
    /// timestamps, values}` chunks, one per signal per checkpoint that
    /// absorbed new samples (`first` is the absolute index of the
    /// chunk's first sample). Only a newest chunk shorter than a hop is
    /// ever rewritten.
    pub const SERVE_CHUNKS: &str = "serve_chunks";
    /// Serving-tier committed anomaly events (`seq` is per-tenant dense).
    pub const SERVE_EVENTS: &str = "serve_events";
    /// Serving-tier engine metadata (tick counter etc.).
    pub const SERVE_META: &str = "serve_meta";
    /// Serving-tier per-tick wide events (one structured record per
    /// tick: admissions, latencies, checkpoint cost).
    pub const SERVE_TICKS: &str = "serve_ticks";
}

impl SintelDb {
    /// In-memory knowledge base.
    pub fn in_memory() -> Self {
        let s = Self { db: Database::in_memory() };
        s.create_indexes();
        s
    }

    /// Persistent knowledge base under `dir`, with default durability
    /// (write-ahead logged, fsync per commit).
    pub fn open(dir: &Path) -> Result<Self> {
        let s = Self { db: Database::open(dir)? };
        s.create_indexes();
        Ok(s)
    }

    /// Persistent knowledge base under `dir` with explicit
    /// [`StoreOptions`] (durability level, compaction threshold).
    pub fn open_with(dir: &Path, opts: StoreOptions) -> Result<Self> {
        let s = Self { db: Database::open_with(dir, opts)? };
        s.create_indexes();
        Ok(s)
    }

    fn create_indexes(&self) {
        self.db.create_index(collections::SIGNALS, "dataset");
        self.db.create_index(collections::SIGNALRUNS, "experiment_id");
        self.db.create_index(collections::EVENTS, "signalrun_id");
        self.db.create_index(collections::EVENTS, "signal");
        self.db.create_index(collections::ANNOTATIONS, "event_id");
        self.db.create_index(collections::COMMENTS, "event_id");
        self.db.create_index(collections::RUN_FAILURES, "pipeline");
        self.db.create_index(collections::QUARANTINE, "pipeline");
        self.db.create_index(collections::METRICS_SNAPSHOTS, "run");
        self.db.create_index(collections::DIAGNOSTICS, "pipeline");
        self.db.create_index(collections::SERVE_SESSIONS, "tenant");
        self.db.create_index(collections::SERVE_CHUNKS, "tenant");
        self.db.create_index(collections::SERVE_EVENTS, "tenant");
        self.db.create_index(collections::SERVE_META, "kind");
        self.db.create_index(collections::SERVE_TICKS, "tick");
    }

    /// Access the raw database (escape hatch).
    pub fn raw(&self) -> &Database {
        &self.db
    }

    /// Persist to disk (no-op when in-memory).
    pub fn save(&self) -> Result<()> {
        self.db.save()
    }

    /// Open a group-commit scope: writes until `commit()` land as one
    /// WAL record (see [`Database::batch`]).
    pub fn batch(&self) -> BatchScope<'_> {
        self.db.batch()
    }

    /// What crash recovery found and repaired when this database was
    /// opened (see [`Database::recovery`]).
    pub fn recovery(&self) -> &RecoveryReport {
        self.db.recovery()
    }

    // ---- typed inserts -------------------------------------------------

    /// Register a dataset.
    pub fn add_dataset(&self, name: &str, entity: &str) -> Result<u64> {
        self.db.insert(
            collections::DATASETS,
            Doc::obj().with("name", name).with("entity", entity),
        )
    }

    /// Register a signal belonging to a dataset.
    pub fn add_signal(&self, name: &str, dataset: &str, start: i64, stop: i64) -> Result<u64> {
        self.db.insert(
            collections::SIGNALS,
            Doc::obj()
                .with("name", name)
                .with("dataset", dataset)
                .with("start_time", start)
                .with("stop_time", stop),
        )
    }

    /// Register a user.
    pub fn add_user(&self, name: &str, role: &str) -> Result<u64> {
        self.db.insert(collections::USERS, Doc::obj().with("name", name).with("role", role))
    }

    /// Register a pipeline (name + json-ish spec).
    pub fn add_pipeline(&self, name: &str, spec: Doc) -> Result<u64> {
        self.db.insert(
            collections::PIPELINES,
            Doc::obj().with("name", name).with("json", spec),
        )
    }

    /// Register an experiment over a dataset with a pipeline.
    pub fn add_experiment(&self, name: &str, dataset: &str, pipeline: &str) -> Result<u64> {
        self.db.insert(
            collections::EXPERIMENTS,
            Doc::obj().with("name", name).with("dataset", dataset).with("pipeline", pipeline),
        )
    }

    /// Register one signal's run within an experiment.
    pub fn add_signalrun(&self, experiment_id: u64, signal: &str, status: &str) -> Result<u64> {
        self.db.insert(
            collections::SIGNALRUNS,
            Doc::obj()
                .with("experiment_id", experiment_id)
                .with("signal", signal)
                .with("status", status),
        )
    }

    /// Record a detected event (anomaly interval + severity).
    pub fn add_event(
        &self,
        signalrun_id: u64,
        signal: &str,
        start: i64,
        stop: i64,
        severity: f64,
    ) -> Result<u64> {
        self.db.insert(
            collections::EVENTS,
            Doc::obj()
                .with("signalrun_id", signalrun_id)
                .with("signal", signal)
                .with("start_time", start)
                .with("stop_time", stop)
                .with("severity", severity)
                .with("status", "unreviewed")
                .with("source", "ML"),
        )
    }

    /// Record an expert annotation on an event.
    pub fn add_annotation(
        &self,
        event_id: u64,
        user_id: u64,
        action: &str,
        tag: &str,
    ) -> Result<u64> {
        self.db.insert(
            collections::ANNOTATIONS,
            Doc::obj()
                .with("event_id", event_id)
                .with("user_id", user_id)
                .with("action", action)
                .with("tag", tag),
        )
    }

    /// Record a discussion comment on an event.
    pub fn add_comment(&self, event_id: u64, user_id: u64, text: &str) -> Result<u64> {
        self.db.insert(
            collections::COMMENTS,
            Doc::obj().with("event_id", event_id).with("user_id", user_id).with("text", text),
        )
    }

    /// Record a classified run failure (`kind` is a stable label such as
    /// `panic`/`timeout`; `strikes` is how many attempts were burned).
    pub fn add_run_failure(
        &self,
        pipeline: &str,
        signal: &str,
        kind: &str,
        message: &str,
        strikes: usize,
    ) -> Result<u64> {
        self.db.insert(
            collections::RUN_FAILURES,
            Doc::obj()
                .with("pipeline", pipeline)
                .with("signal", signal)
                .with("kind", kind)
                .with("message", message)
                .with("strikes", strikes),
        )
    }

    /// Record a static-analysis diagnostic for a pipeline (`code` is a
    /// stable `SAxxx` code, `severity` is `error`/`warning`, `step` is
    /// the offending primitive's name).
    pub fn add_diagnostic(
        &self,
        pipeline: &str,
        code: &str,
        severity: &str,
        step: &str,
        message: &str,
    ) -> Result<u64> {
        self.db.insert(
            collections::DIAGNOSTICS,
            Doc::obj()
                .with("pipeline", pipeline)
                .with("code", code)
                .with("severity", severity)
                .with("step", step)
                .with("message", message),
        )
    }

    /// All diagnostics recorded for a pipeline.
    pub fn diagnostics_for_pipeline(&self, pipeline: &str) -> Vec<Doc> {
        self.db.find(collections::DIAGNOSTICS, &Filter::eq("pipeline", pipeline))
    }

    /// Total failed attempts recorded for a `pipeline × signal` pair.
    pub fn failure_strikes(&self, pipeline: &str, signal: &str) -> usize {
        self.db
            .find(collections::RUN_FAILURES, &Self::pair_filter(pipeline, signal))
            .iter()
            .filter_map(|doc| doc.get("strikes").and_then(|d| d.as_i64()))
            .sum::<i64>()
            .max(0) as usize
    }

    /// Quarantine a `pipeline × signal` pair so later runs skip it.
    pub fn add_quarantine(&self, pipeline: &str, signal: &str, reason: &str) -> Result<u64> {
        self.db.insert(
            collections::QUARANTINE,
            Doc::obj()
                .with("pipeline", pipeline)
                .with("signal", signal)
                .with("reason", reason),
        )
    }

    /// Whether a `pipeline × signal` pair has been quarantined.
    pub fn is_quarantined(&self, pipeline: &str, signal: &str) -> bool {
        self.db.count(collections::QUARANTINE, &Self::pair_filter(pipeline, signal)) > 0
    }

    /// Store a metrics snapshot for a run, in both exporter formats
    /// (Prometheus text dump and JSON).
    pub fn add_metrics_snapshot(&self, run: &str, prometheus: &str, json: &str) -> Result<u64> {
        self.db.insert(
            collections::METRICS_SNAPSHOTS,
            Doc::obj()
                .with("run", run)
                .with("prometheus", prometheus)
                .with("json", json),
        )
    }

    /// Metrics snapshots recorded under a run label, insertion order.
    pub fn metrics_snapshots(&self, run: &str) -> Vec<Doc> {
        self.db.find(collections::METRICS_SNAPSHOTS, &Filter::eq("run", run))
    }

    // ---- serving tier --------------------------------------------------

    /// Upsert a tenant's serving-session checkpoint metadata: update in
    /// place when `doc_id` is known, insert otherwise. Returns the
    /// document id (stable across updates, so the serving engine can
    /// keep checkpointing into the same slot).
    pub fn upsert_serve_session(&self, doc_id: Option<u64>, doc: Doc) -> Result<u64> {
        self.upsert(collections::SERVE_SESSIONS, doc_id, doc)
    }

    /// A tenant's persisted serving-session checkpoint metadata, if any.
    pub fn serve_session(&self, tenant: &str) -> Option<Doc> {
        self.db.find_one(collections::SERVE_SESSIONS, &Filter::eq("tenant", tenant))
    }

    /// Persist one window chunk of a tenant's signal: the samples with
    /// absolute indices `first..first + timestamps.len()`. Replaces
    /// chunk `id` when given, inserts a new one otherwise; returns the
    /// chunk's document id.
    pub fn upsert_serve_chunk(
        &self,
        id: Option<u64>,
        tenant: &str,
        signal: &str,
        first: u64,
        timestamps: &[i64],
        values: &[f64],
    ) -> Result<u64> {
        let doc = Doc::obj()
            .with("tenant", tenant)
            .with("signal", signal)
            .with("first", first)
            .with("timestamps", Doc::Arr(timestamps.iter().map(|&t| Doc::I64(t)).collect()))
            .with("values", Doc::Arr(values.iter().map(|&v| Doc::F64(v)).collect()));
        self.upsert(collections::SERVE_CHUNKS, id, doc)
    }

    /// Replace document `id` when given, insert otherwise; returns the
    /// document id.
    fn upsert(&self, collection: &str, id: Option<u64>, doc: Doc) -> Result<u64> {
        match id {
            Some(id) => {
                self.db.update(collection, id, doc)?;
                Ok(id)
            }
            None => self.db.insert(collection, doc),
        }
    }

    /// Drop a window chunk that slid out of its signal's window.
    pub fn delete_serve_chunk(&self, id: u64) -> Result<()> {
        self.db.delete(collections::SERVE_CHUNKS, id)
    }

    /// Every persisted window chunk of a tenant, `_id` order.
    pub fn serve_chunks(&self, tenant: &str) -> Vec<Doc> {
        self.db.find(collections::SERVE_CHUNKS, &Filter::eq("tenant", tenant))
    }

    /// Record a committed serving-tier anomaly event.
    #[allow(clippy::too_many_arguments)]
    pub fn add_serve_event(
        &self,
        tenant: &str,
        signal: &str,
        seq: u64,
        start: i64,
        stop: i64,
        severity: f64,
        pass: u64,
    ) -> Result<u64> {
        self.db.insert(
            collections::SERVE_EVENTS,
            Doc::obj()
                .with("tenant", tenant)
                .with("signal", signal)
                .with("seq", seq)
                .with("start_time", start)
                .with("stop_time", stop)
                .with("severity", severity)
                .with("pass", pass),
        )
    }

    /// Committed serving-tier events for a tenant, insertion order
    /// (which, by the engine's protocol, is also `seq` order).
    pub fn serve_events_for_tenant(&self, tenant: &str) -> Vec<Doc> {
        self.db.find(collections::SERVE_EVENTS, &Filter::eq("tenant", tenant))
    }

    /// Record one per-tick wide event (the caller builds the document;
    /// the engine's `TickWideEvent::to_doc` is the canonical shape).
    pub fn add_serve_tick(&self, doc: Doc) -> Result<u64> {
        self.db.insert(collections::SERVE_TICKS, doc)
    }

    /// All persisted wide events, insertion order (= tick order, since
    /// only the single-writer engine appends them).
    pub fn serve_ticks(&self) -> Vec<Doc> {
        self.db.find(collections::SERVE_TICKS, &Filter::All)
    }

    /// Wide events for one tick (normally 0 or 1).
    pub fn serve_ticks_at(&self, tick: u64) -> Vec<Doc> {
        self.db.find(collections::SERVE_TICKS, &Filter::eq("tick", tick))
    }

    fn pair_filter(pipeline: &str, signal: &str) -> Filter {
        Filter::And(vec![Filter::eq("pipeline", pipeline), Filter::eq("signal", signal)])
    }

    // ---- typed queries -------------------------------------------------

    /// Events detected on a signal.
    pub fn events_for_signal(&self, signal: &str) -> Vec<Doc> {
        self.db.find(collections::EVENTS, &Filter::eq("signal", signal))
    }

    /// Events of a signalrun.
    pub fn events_for_signalrun(&self, signalrun_id: u64) -> Vec<Doc> {
        self.db.find(collections::EVENTS, &Filter::eq("signalrun_id", signalrun_id))
    }

    /// Annotations attached to an event.
    pub fn annotations_for_event(&self, event_id: u64) -> Vec<Doc> {
        self.db.find(collections::ANNOTATIONS, &Filter::eq("event_id", event_id))
    }

    /// Comments attached to an event.
    pub fn comments_for_event(&self, event_id: u64) -> Vec<Doc> {
        self.db.find(collections::COMMENTS, &Filter::eq("event_id", event_id))
    }

    /// Signals of a dataset.
    pub fn signals_for_dataset(&self, dataset: &str) -> Vec<Doc> {
        self.db.find(collections::SIGNALS, &Filter::eq("dataset", dataset))
    }

    /// Update an event's review status (`unreviewed`, `confirmed`,
    /// `rejected`, `modified`, `created`…).
    pub fn set_event_status(&self, event_id: u64, status: &str) -> Result<()> {
        self.db.patch(collections::EVENTS, event_id, &[("status", Doc::from(status))])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk the whole Figure 6 graph: dataset -> signal -> experiment ->
    /// signalrun -> event -> annotation/comment.
    #[test]
    fn full_schema_walk() {
        let db = SintelDb::in_memory();
        db.add_dataset("NASA", "spacecraft").unwrap();
        db.add_signal("S-1", "NASA", 0, 10_000).unwrap();
        db.add_signal("S-2", "NASA", 0, 10_000).unwrap();
        let user = db.add_user("alice", "satellite engineer").unwrap();
        db.add_pipeline("lstm_dynamic_threshold", Doc::obj().with("window", 50i64)).unwrap();
        let exp = db.add_experiment("exp-1", "NASA", "lstm_dynamic_threshold").unwrap();
        let run = db.add_signalrun(exp, "S-1", "done").unwrap();
        let ev = db.add_event(run, "S-1", 100, 200, 0.9).unwrap();
        db.add_annotation(ev, user, "confirm", "anomaly").unwrap();
        db.add_comment(ev, user, "looks like a real thermal excursion").unwrap();

        assert_eq!(db.signals_for_dataset("NASA").len(), 2);
        assert_eq!(db.events_for_signal("S-1").len(), 1);
        assert_eq!(db.events_for_signalrun(run).len(), 1);
        assert_eq!(db.annotations_for_event(ev).len(), 1);
        assert_eq!(db.comments_for_event(ev).len(), 1);
        assert!(db.events_for_signal("S-2").is_empty());
    }

    #[test]
    fn event_status_lifecycle() {
        let db = SintelDb::in_memory();
        let run = db.add_signalrun(1, "S-1", "done").unwrap();
        let ev = db.add_event(run, "S-1", 0, 10, 0.5).unwrap();
        let doc = db.events_for_signal("S-1").pop().unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("unreviewed"));
        db.set_event_status(ev, "confirmed").unwrap();
        let doc = db.events_for_signal("S-1").pop().unwrap();
        assert_eq!(doc.get("status").unwrap().as_str(), Some("confirmed"));
    }

    #[test]
    fn failure_strikes_accumulate_into_quarantine() {
        let db = SintelDb::in_memory();
        assert_eq!(db.failure_strikes("arima", "S-1"), 0);
        assert!(!db.is_quarantined("arima", "S-1"));

        db.add_run_failure("arima", "S-1", "panic", "injected panic", 1).unwrap();
        assert_eq!(db.failure_strikes("arima", "S-1"), 1);
        db.add_run_failure("arima", "S-1", "timeout", "exceeded budget", 2).unwrap();
        assert_eq!(db.failure_strikes("arima", "S-1"), 3);
        // Strikes are per pair, not per pipeline or per signal.
        assert_eq!(db.failure_strikes("arima", "S-2"), 0);
        assert_eq!(db.failure_strikes("tadgan", "S-1"), 0);

        db.add_quarantine("arima", "S-1", "3 strikes").unwrap();
        assert!(db.is_quarantined("arima", "S-1"));
        assert!(!db.is_quarantined("arima", "S-2"));
    }

    #[test]
    fn diagnostics_round_trip() {
        let db = SintelDb::in_memory();
        assert!(db.diagnostics_for_pipeline("lstm_dynamic_threshold").is_empty());
        db.add_diagnostic(
            "lstm_dynamic_threshold",
            "SA001",
            "error",
            "lstm_regressor",
            "required input 'windows' (windows) is never produced by an upstream step",
        )
        .unwrap();
        db.add_diagnostic("arima", "SA002", "warning", "arima", "unused output").unwrap();
        let diags = db.diagnostics_for_pipeline("lstm_dynamic_threshold");
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].get("code").unwrap().as_str(), Some("SA001"));
        assert_eq!(diags[0].get("severity").unwrap().as_str(), Some("error"));
        assert_eq!(diags[0].get("step").unwrap().as_str(), Some("lstm_regressor"));
        assert_eq!(db.diagnostics_for_pipeline("arima").len(), 1);
        assert!(db.diagnostics_for_pipeline("tadgan").is_empty());
    }

    #[test]
    fn metrics_snapshots_round_trip() {
        let db = SintelDb::in_memory();
        assert!(db.metrics_snapshots("benchmark").is_empty());
        db.add_metrics_snapshot("benchmark", "# TYPE x counter\nx 1\n", "{\"x\":1}").unwrap();
        db.add_metrics_snapshot("tune", "# TYPE y counter\ny 2\n", "{\"y\":2}").unwrap();
        let snaps = db.metrics_snapshots("benchmark");
        assert_eq!(snaps.len(), 1);
        assert!(snaps[0]
            .get("prometheus")
            .and_then(|d| d.as_str())
            .is_some_and(|s| s.contains("x 1")));
        assert_eq!(db.metrics_snapshots("tune").len(), 1);
    }

    #[test]
    fn serve_schema_round_trip() {
        let db = SintelDb::in_memory();
        assert!(db.serve_session("acme").is_none());

        let id = db
            .upsert_serve_session(None, Doc::obj().with("tenant", "acme").with("next_seq", 0i64))
            .unwrap();
        let again = db
            .upsert_serve_session(
                Some(id),
                Doc::obj().with("tenant", "acme").with("next_seq", 3i64),
            )
            .unwrap();
        assert_eq!(id, again, "upsert must keep the same document id");
        let doc = db.serve_session("acme").unwrap();
        assert_eq!(doc.get("next_seq").unwrap().as_i64(), Some(3));
        // Only one checkpoint per tenant, not one per upsert.
        assert_eq!(db.raw().count(collections::SERVE_SESSIONS, &Filter::All), 1);

        db.add_serve_event("acme", "cpu", 0, 100, 120, 4.5, 2).unwrap();
        db.add_serve_event("acme", "cpu", 1, 300, 310, 2.0, 4).unwrap();
        db.add_serve_event("other", "mem", 0, 5, 6, 1.0, 1).unwrap();
        let events = db.serve_events_for_tenant("acme");
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].get("seq").unwrap().as_i64(), Some(0));
        assert_eq!(events[1].get("seq").unwrap().as_i64(), Some(1));
        assert_eq!(events[1].get("severity").unwrap().as_f64(), Some(2.0));
        assert_eq!(db.serve_events_for_tenant("other").len(), 1);
    }

    #[test]
    fn serve_ticks_round_trip() {
        let db = SintelDb::in_memory();
        assert!(db.serve_ticks().is_empty());
        db.add_serve_tick(Doc::obj().with("tick", 0u64).with("accepted", 5u64)).unwrap();
        db.add_serve_tick(Doc::obj().with("tick", 1u64).with("accepted", 9u64)).unwrap();
        let ticks = db.serve_ticks();
        assert_eq!(ticks.len(), 2);
        assert_eq!(ticks[0].get("tick").unwrap().as_i64(), Some(0));
        assert_eq!(ticks[1].get("accepted").unwrap().as_i64(), Some(9));
        let at = db.serve_ticks_at(1);
        assert_eq!(at.len(), 1);
        assert_eq!(at[0].get("accepted").unwrap().as_i64(), Some(9));
        assert!(db.serve_ticks_at(7).is_empty());
    }

    #[test]
    fn persistence_of_knowledge_base() {
        let dir = std::env::temp_dir().join(format!(
            "sintel-kb-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let db = SintelDb::open(&dir).unwrap();
            let run = db.add_signalrun(1, "S-1", "done").unwrap();
            db.add_event(run, "S-1", 5, 9, 0.4).unwrap();
            db.save().unwrap();
        }
        let db = SintelDb::open(&dir).unwrap();
        assert_eq!(db.events_for_signal("S-1").len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
