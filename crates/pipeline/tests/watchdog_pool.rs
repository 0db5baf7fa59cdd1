//! Pooled watchdog workers carry nothing from one attempt to the next.
//!
//! `run_guarded` reuses long-lived worker threads. A reused thread must
//! look fresh to every attempt: no tripped cancel token, no span left
//! open on its span stack by an attempt that panicked, and never the
//! worker of an attempt that timed out. The idle list is process-wide,
//! so this binary holds a single test that owns it.

use std::sync::mpsc;
use std::thread::ThreadId;
use std::time::{Duration, Instant};

use sintel_obs::EventKind;
use sintel_pipeline::policy::{run_guarded, FailureKind};
use sintel_pipeline::template::{StepSpec, Template};
use sintel_primitives::HyperValue;
use sintel_timeseries::Signal;

fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .expect("read /proc/self/status")
        .lines()
        .find_map(|line| line.strip_prefix("Threads:"))
        .and_then(|rest| rest.trim().parse().ok())
        .expect("Threads: line")
}

fn signal() -> Signal {
    Signal::from_values("pool", (0..64).map(|t| (t as f64 / 5.0).sin()).collect())
}

/// What a healthy attempt saw on its worker.
#[derive(Debug)]
struct Seen {
    thread: ThreadId,
    cancelled: bool,
    open_span: Option<u64>,
}

fn healthy_attempt() -> Seen {
    run_guarded(Duration::from_secs(30), || {
        let seen = Seen {
            thread: std::thread::current().id(),
            cancelled: sintel_common::cancelled(),
            open_span: sintel_obs::current_span_id(),
        };
        let template = Template {
            name: "pool_healthy".into(),
            steps: vec![
                StepSpec::plain("time_segments_aggregate"),
                StepSpec::plain("SimpleImputer"),
                StepSpec::plain("MinMaxScaler"),
                StepSpec::plain("azure_anomaly_service"),
                StepSpec::plain("fixed_threshold"),
            ],
        };
        let mut pipeline = template.build_default().expect("builds");
        pipeline.fit_detect_incremental(&signal()).expect("healthy pass");
        seen
    })
    .unwrap_or_else(|failure| panic!("healthy attempt failed: {failure}"))
}

#[test]
fn reused_workers_start_every_attempt_clean() {
    let baseline = thread_count();
    let (thread_tx, thread_rx) = mpsc::channel::<ThreadId>();

    // 1. An attempt that panics with a span open on its worker.
    let tx = thread_tx.clone();
    let outcome = run_guarded(Duration::from_secs(30), move || -> u32 {
        tx.send(std::thread::current().id()).expect("send");
        let _span = sintel_obs::span("pool.doomed");
        panic!("injected panic with a span open");
    });
    let failure = outcome.expect_err("a panicking attempt fails");
    assert_eq!(failure.kind, FailureKind::Panic);
    assert!(failure.message.contains("injected"), "{failure}");
    let panicked_on = thread_rx.recv().expect("panicking attempt ran");

    // 2. A hung attempt that times out; its worker is retired.
    let tx = thread_tx.clone();
    let outcome = run_guarded(Duration::from_millis(200), move || {
        tx.send(std::thread::current().id()).expect("send");
        let template = Template {
            name: "pool_hang".into(),
            steps: vec![StepSpec::with("faulty_hang", &[("sleep_ms", HyperValue::Int(120_000))])],
        };
        let mut pipeline = template.build_default().expect("builds");
        pipeline.fit(&signal()).is_ok()
    });
    assert!(matches!(&outcome, Err(f) if f.kind == FailureKind::Timeout), "{outcome:?}");
    let hung_on = thread_rx.recv().expect("hung attempt ran");
    assert_eq!(hung_on, panicked_on, "the worker of a panicked attempt goes back to the pool");

    // 3. Two healthy attempts, traced.
    sintel_obs::tracing_start();
    let first = healthy_attempt();
    let second = healthy_attempt();
    let trace = sintel_obs::tracing_stop();

    for seen in [&first, &second] {
        assert!(!seen.cancelled, "a reused worker kept a tripped cancel token: {seen:?}");
        assert_eq!(seen.open_span, None, "a reused worker kept an open span: {seen:?}");
    }
    let fits: Vec<_> =
        trace.iter().filter(|e| e.kind == EventKind::Open && e.name == "pipeline.fit").collect();
    assert_eq!(fits.len(), 2, "{fits:?}");
    for open in fits {
        assert_eq!(open.parent, None, "stale span-stack entry as parent: {open:?}");
    }
    assert_eq!(first.thread, second.thread, "an idle worker must be reused");
    assert_ne!(first.thread, hung_on, "a timed-out worker must never be reused");

    // 4. The hung attempt polls its tripped token and unwinds; its
    //    worker then exits, leaving only the one idle worker.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = thread_count();
        if now <= baseline + 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "thread leak: baseline {baseline} + 1 idle worker, still {now} threads"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
