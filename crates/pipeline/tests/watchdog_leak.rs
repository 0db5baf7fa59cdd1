//! Regression test for the run-policy watchdog thread leak: a timed-out
//! pass used to leave both the watchdog and the hung worker thread
//! alive forever. With cooperative cancellation (the watchdog cancels
//! the worker's `CancelToken`, primitive hot loops poll it), every
//! thread must be reclaimed shortly after the timeout fires.

use std::time::{Duration, Instant};

use sintel_pipeline::policy::{run_with_policy, Failure, FailureKind, RunPolicy};
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

#[test]
fn watchdog_and_hung_worker_threads_are_reclaimed() {
    let template = Template {
        name: "hang".into(),
        steps: vec![StepSpec::with("faulty_hang", &[("sleep_ms", HyperValue::Int(120_000))])],
    };
    let signal = Signal::from_values("hung", (0..64).map(|t| (t as f64).sin()).collect());
    let policy = RunPolicy::single_attempt(Duration::from_millis(200));

    let baseline = thread_count();
    for _ in 0..3 {
        let template = template.clone();
        let signal = signal.clone();
        let (result, _attempts) = run_with_policy(&policy, move || -> Result<_, Failure> {
            let mut pipeline = template.build_default()?;
            pipeline.fit(&signal)?;
            Ok(pipeline.detect(&signal)?)
        });
        let failure = result.expect_err("a 120 s hang must time out in 200 ms");
        assert_eq!(failure.kind, FailureKind::Timeout);
    }

    // Cooperative cancellation: hung workers poll the cancel token every
    // few milliseconds, so both they and their watchdogs unwind quickly.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let now = thread_count();
        if now <= baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "thread leak: baseline {baseline}, still {now} after timeout + grace period"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
