//! Integration tests for the persistent knowledge base across the whole
//! workflow: detection -> events -> annotations -> REST API -> restart.

use sintel_repro::sintel::api::{Request, Response, RestApi};
use sintel_repro::sintel::Sintel;
use sintel_repro::sintel_datasets::load_signal;
use sintel_repro::sintel_hil::event::{apply_action, persist_detected};
use sintel_repro::sintel_hil::{AnnotationAction, EventStatus};
use sintel_repro::sintel_store::{schema::collections, Doc, Filter, SintelDb};
use sintel_repro::sintel_timeseries::Interval;

fn tmpdir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "sintel-integration-{tag}-{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Detection events persist through the orchestrator, survive a process
/// "restart" (reopen from disk), and remain queryable via the REST API.
#[test]
fn detection_events_survive_restart_and_are_queryable() {
    let dir = tmpdir("restart");
    let data = load_signal("S-2").expect("demo signal");

    let detected = {
        let db = SintelDb::open(&dir).expect("open kb");
        let mut sintel = Sintel::new("arima").unwrap().with_db(db);
        sintel.fit(&data.signal).unwrap();
        let anomalies = sintel.detect(&data.signal).unwrap();
        sintel.db().unwrap().save().unwrap();
        anomalies.len()
    };
    assert!(detected > 0);

    // Restart: a fresh handle sees the same events.
    let api = RestApi::new(SintelDb::open(&dir).expect("reopen kb"));
    let Response::Ok(Doc::Arr(events)) = api.handle(&Request::get("/events")) else {
        panic!("expected event list")
    };
    assert_eq!(events.len(), detected);

    // And the typed query path agrees.
    assert_eq!(api.db().events_for_signal("S-2").len(), detected);
    std::fs::remove_dir_all(&dir).ok();
}

/// The full annotation lifecycle writes a coherent audit trail: every
/// action (confirm/modify/comment/tag) is traceable afterwards — the
/// paper's "trace back the decision-making process" requirement (§3.6).
#[test]
fn annotation_audit_trail_is_complete() {
    let db = SintelDb::in_memory();
    let alice = db.add_user("alice", "engineer").unwrap();
    let bob = db.add_user("bob", "program manager").unwrap();
    let run = db.add_signalrun(1, "CH-1", "done").unwrap();

    let mut event =
        persist_detected(&db, run, "CH-1", Interval::new(1000, 2000).unwrap(), 0.9).unwrap();
    apply_action(&db, &mut event, alice, &AnnotationAction::Confirm).unwrap();
    apply_action(
        &db,
        &mut event,
        alice,
        &AnnotationAction::Modify(Interval::new(900, 2100).unwrap()),
    )
    .unwrap();
    apply_action(&db, &mut event, bob, &AnnotationAction::Tag("thermal".into())).unwrap();
    apply_action(
        &db,
        &mut event,
        bob,
        &AnnotationAction::Comment("matches heater duty-cycle change".into()),
    )
    .unwrap();

    // Trace back: 3 annotations (confirm, modify, tag), 1 comment, final
    // state modified with widened bounds.
    assert_eq!(db.annotations_for_event(event.id).len(), 3);
    assert_eq!(db.comments_for_event(event.id).len(), 1);
    let stored = db.events_for_signal("CH-1").pop().unwrap();
    assert_eq!(stored.get("start_time").unwrap().as_i64(), Some(900));
    assert_eq!(stored.get("status").unwrap().as_str(), Some("modified"));
    assert_eq!(event.status, EventStatus::Modified);

    // Actions attribute to the right users.
    let annotations = db.annotations_for_event(event.id);
    let by_bob = annotations
        .iter()
        .filter(|a| a.get("user_id").unwrap().as_i64() == Some(bob as i64))
        .count();
    assert_eq!(by_bob, 1);
}

/// Knowledge reuse (§3.5): anomalies stored by one session annotate a new
/// signal without rerunning the model.
#[test]
fn stored_events_annotate_new_signals() {
    let db = SintelDb::in_memory();
    let run = db.add_signalrun(1, "CH-7", "done").unwrap();
    db.add_event(run, "CH-7", 5_000, 6_000, 0.8).unwrap();
    db.add_event(run, "CH-7", 9_000, 9_500, 0.6).unwrap();

    // A later session pulls the known anomalies instead of re-detecting.
    let known: Vec<Interval> = db
        .events_for_signal("CH-7")
        .iter()
        .map(|doc| {
            Interval::new(
                doc.get("start_time").unwrap().as_i64().unwrap(),
                doc.get("stop_time").unwrap().as_i64().unwrap(),
            )
            .unwrap()
        })
        .collect();
    assert_eq!(known.len(), 2);
    assert_eq!(known[0], Interval::new(5_000, 6_000).unwrap());
}

/// Benchmark results persist as first-class experiments.
#[test]
fn benchmark_results_are_persisted_experiments() {
    use sintel_repro::sintel::benchmark::{
        benchmark, persist_benchmark, BenchmarkConfig, MetricKind,
    };
    use sintel_repro::sintel_datasets::{DatasetConfig, DatasetId};
    let cfg = BenchmarkConfig {
        pipelines: vec!["azure_anomaly_detection".into()],
        datasets: vec![DatasetId::Yahoo],
        data: DatasetConfig { seed: 1, signal_scale: 0.01, length_scale: 0.1 },
        metric: MetricKind::Overlap,
        ..BenchmarkConfig::default()
    };
    let rows = benchmark(&cfg).unwrap();
    let db = SintelDb::in_memory();
    persist_benchmark(&db, &rows).unwrap();
    let experiments = db.raw().find(collections::EXPERIMENTS, &Filter::All);
    assert_eq!(experiments.len(), rows.len());
    let results = db.raw().find("benchmark_results", &Filter::All);
    assert_eq!(results.len(), rows.len());
    assert!(results[0].get("f1").unwrap().as_f64().is_some());
}
