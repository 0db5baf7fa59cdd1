//! The profile is a view over the span records: with tracing on, the
//! exported trace contains exactly the fit/produce spans the profile
//! reports, nested under the pipeline run spans.
//!
//! Lives in its own integration binary because the trace buffer is
//! process-global — unit tests running pipelines in parallel would
//! interleave their spans into the capture. The tests here serialize
//! on a mutex for the same reason.

use std::sync::Mutex;

use sintel_pipeline::Template;
use sintel_timeseries::Signal;

static GUARD: Mutex<()> = Mutex::new(());

fn arima_template() -> Template {
    Template::from_names(
        "trace_arima",
        &[
            "time_segments_aggregate",
            "SimpleImputer",
            "MinMaxScaler",
            "arima",
            "regression_errors",
            "find_anomalies",
        ],
    )
}

fn closes_of(events: &[sintel_obs::TraceEvent], name: &str) -> usize {
    events.iter().filter(|e| e.kind == sintel_obs::EventKind::Close && e.name == name).count()
}

fn spiky_signal(n: usize) -> Signal {
    let mut vals: Vec<f64> =
        (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 40.0).sin()).collect();
    for v in vals.iter_mut().skip(n / 2).take(6) {
        *v += 5.0;
    }
    Signal::from_values("spiky", vals)
}

#[test]
fn profile_matches_exported_trace() {
    let _lock = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let mut pipeline = arima_template().build_default().unwrap();
    let s = spiky_signal(400);
    sintel_obs::tracing_start();
    pipeline.fit(&s).unwrap();
    pipeline.detect(&s).unwrap();
    let events = sintel_obs::tracing_stop();
    let prof = pipeline.profile().clone();

    assert_eq!(closes_of(&events, "pipeline.fit"), 1);
    assert_eq!(closes_of(&events, "pipeline.produce"), 1);
    assert_eq!(closes_of(&events, "primitive.fit"), prof.steps.len());
    assert_eq!(closes_of(&events, "primitive.produce"), 2 * prof.steps.len());

    // Every primitive span's parent is a pipeline run span.
    let run_ids: Vec<u64> = events
        .iter()
        .filter(|e| e.name.starts_with("pipeline."))
        .map(|e| e.id)
        .collect();
    for e in events.iter().filter(|e| e.name.starts_with("primitive.")) {
        assert!(e.parent.is_some_and(|p| run_ids.contains(&p)), "{e:?}");
    }

    // The profile totals are the run spans' recorded durations.
    let close_duration = |name: &str| {
        events
            .iter()
            .find(|e| e.kind == sintel_obs::EventKind::Close && e.name == name)
            .and_then(|e| e.duration_ns)
            .unwrap()
    };
    assert_eq!(close_duration("pipeline.fit"), prof.fit_total.as_nanos() as u64);
    assert_eq!(
        close_duration("pipeline.produce"),
        prof.detect_total.as_nanos() as u64
    );

    // Round-trip: the JSONL export parses back to the same events.
    let parsed = sintel_obs::parse_jsonl(&sintel_obs::export_jsonl(&events)).unwrap();
    assert_eq!(parsed, events);
}

/// The serving tier's fused pass is a plain `fit` run: one
/// `pipeline.fit` span and, per step, one `primitive.fit` and one
/// `primitive.produce` span. No second run and no other span name.
#[test]
fn fused_pass_traces_one_fit_run() {
    let _lock = GUARD.lock().unwrap_or_else(|e| e.into_inner());
    let mut pipeline = arima_template().build_default().unwrap();
    sintel_obs::tracing_start();
    let anomalies = pipeline.fit_and_detect(spiky_signal(400)).unwrap();
    let events = sintel_obs::tracing_stop();
    assert!(!anomalies.is_empty(), "the spike went undetected");

    let steps = pipeline.profile().steps.len();
    assert_eq!(steps, 6);
    assert_eq!(closes_of(&events, "pipeline.fit"), 1);
    assert_eq!(closes_of(&events, "primitive.fit"), steps);
    assert_eq!(closes_of(&events, "primitive.produce"), steps);
    assert_eq!(events.len(), 2 * (1 + 2 * steps), "{events:?}");
    assert_eq!(pipeline.profile().detect_total, std::time::Duration::ZERO);
}
