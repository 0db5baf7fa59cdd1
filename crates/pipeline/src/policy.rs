//! Fault-isolated execution policy: watchdogs, retries and failure
//! taxonomy.
//!
//! A benchmark sweep, a tuning search or a long-running serving tier
//! runs hundreds of pipeline executions; one pathological primitive
//! must not take the whole run down (hang it, poison its scores, or
//! kill the process). This module is the single choke point every
//! caller routes pipeline executions through:
//!
//! * [`RunPolicy`] — how long a run may take, how often it is retried
//!   and how long to back off between attempts;
//! * [`run_guarded`] — one attempt on a pooled watchdog worker: panics
//!   are contained, and a run that exceeds the budget is abandoned and
//!   reported as a timeout. Workers are long-lived threads reused
//!   across attempts; one is started only when none is idle, and a
//!   worker that cannot be started is an `Other` failure, not a timeout.
//!   The abandoned worker is *cooperatively cancelled* and retired: a
//!   [`sintel_common::CancelToken`] is installed for each attempt and
//!   tripped at timeout, and primitive hot loops (LSTM epochs, ARIMA
//!   recursions, rolling windows) poll [`sintel_common::cancelled`] so
//!   the thread actually winds down instead of leaking until process
//!   exit;
//! * [`run_with_policy`] — retry loop over [`run_guarded`];
//! * [`Failure`] / [`FailureKind`] / [`FailureBreakdown`] — the typed
//!   failure taxonomy replacing anonymous failure counters, so benchmark
//!   rows can report *why* signals failed, not just how many. A guarded
//!   run fails with a [`Failure`], and a [`PipelineError`] converts into
//!   one with `?`.
//!
//! This module lives in `sintel-pipeline` (it classifies
//! [`PipelineError`]s and guards pipeline executions) and is re-exported
//! as `sintel::policy` for the framework-core callers.

use std::sync::{mpsc, Mutex, MutexGuard, PoisonError};
use std::time::Duration;

use sintel_common::CancelToken;

use crate::PipelineError;

/// Execution budget for one pipeline run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunPolicy {
    /// Wall-clock budget per attempt; exceeding it abandons the attempt
    /// as a [`FailureKind::Timeout`].
    pub timeout: Duration,
    /// Additional attempts after the first failure.
    pub max_retries: u32,
    /// Pause between attempts.
    pub backoff: Duration,
}

impl Default for RunPolicy {
    /// The documented defaults: 60 s per attempt, one retry, 100 ms
    /// backoff.
    fn default() -> Self {
        Self { timeout: Duration::from_secs(60), max_retries: 1, backoff: Duration::from_millis(100) }
    }
}

impl RunPolicy {
    /// A policy for interactive/tuning trials: same timeout, no
    /// retries (a failed trial is informative, not worth repeating).
    pub fn single_attempt(timeout: Duration) -> Self {
        Self { timeout, max_retries: 0, backoff: Duration::ZERO }
    }
}

/// Why a run failed — the benchmark's failure taxonomy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureKind {
    /// The pipeline could not even be constructed.
    Build,
    /// A primitive panicked (contained by the executor or the watchdog).
    Panic,
    /// A primitive emitted NaN/infinite output.
    NonFinite,
    /// The attempt exceeded [`RunPolicy::timeout`].
    Timeout,
    /// The configuration was refused by the static analyzer before any
    /// execution (`sintel-analyze` Error-level diagnostics) — a skipped
    /// trial/row, not a crash.
    Rejected,
    /// Any other typed error.
    Other,
}

impl FailureKind {
    /// Every failure class, for pre-registering metrics so a clean run
    /// still dumps explicit zero counters.
    pub const ALL: [FailureKind; 6] = [
        FailureKind::Build,
        FailureKind::Panic,
        FailureKind::NonFinite,
        FailureKind::Timeout,
        FailureKind::Rejected,
        FailureKind::Other,
    ];

    /// Short stable label (used in the knowledge base).
    pub fn label(&self) -> &'static str {
        match self {
            FailureKind::Build => "build",
            FailureKind::Panic => "panic",
            FailureKind::NonFinite => "non_finite",
            FailureKind::Timeout => "timeout",
            FailureKind::Rejected => "rejected",
            FailureKind::Other => "other",
        }
    }
}

impl std::fmt::Display for FailureKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A classified failure with its human-readable cause.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failure {
    /// Failure class.
    pub kind: FailureKind,
    /// Underlying error message.
    pub message: String,
}

impl Failure {
    /// Construct a failure.
    pub fn new(kind: FailureKind, message: impl Into<String>) -> Self {
        Self { kind, message: message.into() }
    }
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}: {}", self.kind, self.message)
    }
}

/// Classify a pipeline error into the failure taxonomy, keeping its
/// rendering as the message.
impl From<PipelineError> for Failure {
    fn from(e: PipelineError) -> Self {
        let kind = match &e {
            PipelineError::UnknownPipeline(_) | PipelineError::BadTemplate { .. } => {
                FailureKind::Build
            }
            PipelineError::PrimitivePanic { .. } => FailureKind::Panic,
            PipelineError::NonFinite { .. } => FailureKind::NonFinite,
            PipelineError::Step { .. } | PipelineError::NotFitted(_) => FailureKind::Other,
            // A sanitizer finding is a defect in the primitive's declaration,
            // not in the data — keep it out of the data-driven classes so
            // breaker/degradation statistics stay meaningful under test runs.
            #[cfg(feature = "sanitizer")]
            PipelineError::ContractViolation { .. } => FailureKind::Other,
        };
        Failure::new(kind, e.to_string())
    }
}

/// Per-class failure counts for one benchmark row.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FailureBreakdown {
    /// Pipeline construction failures.
    pub build: usize,
    /// Contained primitive panics.
    pub panic: usize,
    /// Non-finite output rejections.
    pub non_finite: usize,
    /// Watchdog timeouts.
    pub timeout: usize,
    /// Analyzer rejections (never executed).
    pub rejected: usize,
    /// Everything else.
    pub other: usize,
}

impl FailureBreakdown {
    /// Total failures across all classes.
    pub fn total(&self) -> usize {
        self.build + self.panic + self.non_finite + self.timeout + self.rejected + self.other
    }

    /// Record one failure of the given class.
    pub fn record(&mut self, kind: FailureKind) {
        match kind {
            FailureKind::Build => self.build += 1,
            FailureKind::Panic => self.panic += 1,
            FailureKind::NonFinite => self.non_finite += 1,
            FailureKind::Timeout => self.timeout += 1,
            FailureKind::Rejected => self.rejected += 1,
            FailureKind::Other => self.other += 1,
        }
    }

    /// Merge another breakdown into this one.
    pub fn merge(&mut self, other: &FailureBreakdown) {
        self.build += other.build;
        self.panic += other.panic;
        self.non_finite += other.non_finite;
        self.timeout += other.timeout;
        self.rejected += other.rejected;
        self.other += other.other;
    }

    /// Compact `class×count` rendering (`-` when clean), e.g.
    /// `panic×2 timeout×1`.
    pub fn summary(&self) -> String {
        if self.total() == 0 {
            return "-".to_string();
        }
        let mut parts = Vec::new();
        for (label, count) in [
            ("build", self.build),
            ("panic", self.panic),
            ("nan", self.non_finite),
            ("timeout", self.timeout),
            ("rejected", self.rejected),
            ("other", self.other),
        ] {
            if count > 0 {
                parts.push(format!("{label}\u{d7}{count}"));
            }
        }
        parts.join(" ")
    }
}

impl std::fmt::Display for FailureBreakdown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.summary())
    }
}

/// One attempt, type-erased for a pooled worker: it catches its own
/// unwind and sends its outcome back to the waiting [`run_guarded`].
type Job = Box<dyn FnOnce() + Send>;

/// A long-lived watchdog thread, addressed by its job channel. It runs
/// each job with the job's [`CancelToken`] installed and exits when the
/// channel closes.
struct Worker {
    jobs: mpsc::Sender<(Job, CancelToken)>,
}

/// Workers whose last attempt finished within its budget. A timed-out
/// worker never returns here, so the list holds at most the peak number
/// of concurrent attempts.
static IDLE: Mutex<Vec<Worker>> = Mutex::new(Vec::new());

fn idle_workers() -> MutexGuard<'static, Vec<Worker>> {
    // A Vec push/pop cannot leave the list inconsistent, so a poisoned
    // lock is still safe to use.
    IDLE.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Start one watchdog worker thread from `builder`. Its join handle is
/// dropped: the worker runs until its channel closes, and every job
/// catches its own panic, so there is no result to join. A thread that
/// cannot be started is an `Other` failure carrying the operating
/// system's error — never a timeout, which would move a healthy serve
/// tenant onto its fallback template.
fn start_worker(builder: std::thread::Builder) -> Result<Worker, Failure> {
    let (jobs, inbox) = mpsc::channel::<(Job, CancelToken)>();
    builder
        .spawn(move || {
            for (job, token) in inbox {
                sintel_common::with_cancel_token(token, job);
            }
        })
        .map_err(|e| {
            Failure::new(FailureKind::Other, format!("could not start a watchdog worker: {e}"))
        })?;
    Ok(Worker { jobs })
}

/// Run one attempt on a pooled watchdog worker with a wall-clock budget.
///
/// The task runs on an idle long-lived worker thread (one is started
/// only when none is idle); this call blocks at most `timeout`. If the
/// task finishes in time its value is returned and the worker goes back
/// on the idle list; if it panics the unwind is contained as a
/// [`FailureKind::Panic`]. If it hangs, the attempt fails as a
/// [`FailureKind::Timeout`], the task's [`CancelToken`] is tripped and
/// the worker is retired: Rust threads cannot be killed, but primitive
/// hot loops poll [`sintel_common::cancelled`] and abandon their work,
/// so the worker exits shortly after instead of leaking until the task
/// finishes naturally (or the process exits).
pub fn run_guarded<T, F>(timeout: Duration, task: F) -> Result<T, Failure>
where
    T: Send + 'static,
    F: FnOnce() -> T + Send + 'static,
{
    let (tx, rx) = mpsc::channel();
    let job: Job = Box::new(move || {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(task));
        // The receiver may be gone already (timeout) — ignore.
        let _ = tx.send(result);
    });
    let token = CancelToken::new();
    let mut message = (job, token.clone());
    let worker = loop {
        let pooled = idle_workers().pop();
        let worker = match pooled {
            Some(worker) => worker,
            None => start_worker(std::thread::Builder::new().name("sintel-watchdog".to_string()))?,
        };
        match worker.jobs.send(message) {
            Ok(()) => break worker,
            // The worker's thread is gone; the job comes back unrun.
            Err(mpsc::SendError(returned)) => message = returned,
        }
    };
    match rx.recv_timeout(timeout) {
        Ok(outcome) => {
            idle_workers().push(worker);
            outcome.map_err(|payload| {
                Failure::new(FailureKind::Panic, sintel_common::panic_message(payload.as_ref()))
            })
        }
        Err(_) => {
            token.cancel();
            // Dropping the job channel retires the worker: it exits
            // once the abandoned job unwinds.
            drop(worker);
            Err(Failure::new(FailureKind::Timeout, format!("exceeded the {timeout:?} run budget")))
        }
    }
}

/// Run a fallible attempt under the full policy: each attempt through
/// [`run_guarded`], up to `1 + max_retries` attempts with backoff in
/// between.
///
/// Returns the first success, or the *last* failure, plus the number of
/// attempts actually made (quarantine logic counts these as strikes).
///
/// Observability: every attempt increments `sintel_run_attempts_total`,
/// every retry `sintel_run_retries_total`, and every failed attempt
/// `sintel_run_failures_total{kind=…}`; failures and backoffs are
/// logged as structured `sintel::policy` events.
pub fn run_with_policy<T, F>(
    policy: &RunPolicy,
    attempt: F,
) -> (std::result::Result<T, Failure>, u32)
where
    T: Send + 'static,
    F: Fn() -> std::result::Result<T, Failure> + Send + Clone + 'static,
{
    const TARGET: &str = "sintel::policy";
    let mut last = Failure::new(FailureKind::Other, "no attempt was made");
    let mut attempts = 0u32;
    for round in 0..=policy.max_retries {
        if round > 0 {
            sintel_obs::counter_add("sintel_run_retries_total", 1);
            sintel_obs::debug!(
                TARGET,
                "retrying after failure",
                attempt = round + 1,
                backoff_seconds = policy.backoff,
                last_kind = last.kind.label(),
            );
            if !policy.backoff.is_zero() {
                std::thread::sleep(policy.backoff);
            }
        }
        attempts += 1;
        sintel_obs::counter_add("sintel_run_attempts_total", 1);
        let failure = match run_guarded(policy.timeout, attempt.clone()).and_then(|r| r) {
            Ok(value) => return (Ok(value), attempts),
            Err(failure) => failure,
        };
        sintel_obs::counter_add(
            &sintel_obs::labeled("sintel_run_failures_total", &[("kind", failure.kind.label())]),
            1,
        );
        sintel_obs::warn!(
            TARGET,
            format!("attempt failed: {}", failure.message),
            kind = failure.kind.label(),
            attempt = attempts,
            retries_left = policy.max_retries - round,
        );
        last = failure;
    }
    (Err(last), attempts)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn guarded_run_returns_value() {
        assert_eq!(run_guarded(Duration::from_secs(5), || 41 + 1), Ok(42));
    }

    #[test]
    fn guarded_run_contains_panics() {
        let failure = run_guarded(Duration::from_secs(5), || -> u32 { panic!("boom") })
            .expect_err("a panic is a failure");
        assert_eq!(failure.kind, FailureKind::Panic);
        assert!(failure.message.contains("boom"), "{failure}");
    }

    #[test]
    fn guarded_run_times_out_hung_tasks() {
        let result = run_guarded(Duration::from_millis(50), || {
            std::thread::sleep(Duration::from_millis(800));
            1u32
        });
        assert_eq!(result.map_err(|f| f.kind), Err(FailureKind::Timeout));
    }

    /// The leak fix: a timed-out worker that polls `cancelled()` stops
    /// promptly instead of running to its natural end.
    #[test]
    fn timed_out_worker_observes_cancellation() {
        let stopped = Arc::new(AtomicUsize::new(0));
        let seen = stopped.clone();
        let result = run_guarded(Duration::from_millis(30), move || {
            let t0 = std::time::Instant::now();
            while !sintel_common::cancelled() {
                if t0.elapsed() > Duration::from_secs(20) {
                    return false; // would be the old leak path
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            seen.fetch_add(1, Ordering::SeqCst);
            true
        });
        assert_eq!(result.map_err(|f| f.kind), Err(FailureKind::Timeout));
        // Give the abandoned worker a moment to poll the tripped token.
        let t0 = std::time::Instant::now();
        while stopped.load(Ordering::SeqCst) == 0 && t0.elapsed() < Duration::from_secs(5) {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(stopped.load(Ordering::SeqCst), 1, "worker never saw the cancel");
    }

    /// A worker that cannot be started is an `Other` failure carrying
    /// the operating system's error, never a timeout: a timeout would
    /// move a healthy serve tenant onto its fallback template. An
    /// exabyte stack cannot be mapped, so the spawn fails without
    /// starting a thread.
    #[test]
    fn worker_start_failure_is_not_a_timeout() {
        let builder = std::thread::Builder::new().stack_size(1 << 60);
        let Err(failure) = start_worker(builder) else {
            panic!("an exabyte stack must not start a thread");
        };
        assert_eq!(failure.kind, FailureKind::Other);
        assert!(failure.message.starts_with("could not start a watchdog worker: "), "{failure}");
        assert!(failure.message.contains("os error"), "{failure}");
    }

    /// `run_guarded` maps each way an attempt ends onto the taxonomy,
    /// and leaves the task's own result to the caller.
    #[test]
    fn run_guarded_maps_each_outcome() {
        let budget = Duration::from_millis(200);
        assert_eq!(run_guarded(budget, || Ok::<u32, Failure>(3)), Ok(Ok(3)));
        let kind = |r: Result<Result<u32, Failure>, Failure>| r.and_then(|r| r).unwrap_err().kind;
        assert_eq!(kind(run_guarded(budget, || panic!("boom"))), FailureKind::Panic);
        let hang = || {
            std::thread::sleep(Duration::from_millis(800));
            Ok(1)
        };
        assert_eq!(kind(run_guarded(Duration::from_millis(5), hang)), FailureKind::Timeout);
        let nan = || Err(Failure::new(FailureKind::NonFinite, "nan"));
        assert_eq!(kind(run_guarded(budget, nan)), FailureKind::NonFinite);
    }

    #[test]
    fn policy_retries_until_success() {
        let calls = Arc::new(AtomicUsize::new(0));
        let seen = calls.clone();
        let policy = RunPolicy {
            timeout: Duration::from_secs(5),
            max_retries: 2,
            backoff: Duration::from_millis(1),
        };
        let (result, attempts) = run_with_policy(&policy, move || {
            if seen.fetch_add(1, Ordering::SeqCst) < 2 {
                Err(Failure::new(FailureKind::Other, "flaky"))
            } else {
                Ok(7u32)
            }
        });
        assert_eq!(result.unwrap(), 7);
        assert_eq!(attempts, 3);
        assert_eq!(calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn policy_reports_last_failure_and_attempt_count() {
        let policy = RunPolicy {
            timeout: Duration::from_secs(5),
            max_retries: 1,
            backoff: Duration::ZERO,
        };
        let (result, attempts) = run_with_policy(&policy, || -> Result<(), Failure> {
            Err(Failure::new(FailureKind::NonFinite, "nan output"))
        });
        let failure = result.unwrap_err();
        assert_eq!(failure.kind, FailureKind::NonFinite);
        assert_eq!(attempts, 2);
    }

    #[test]
    fn breakdown_records_and_merges() {
        let mut a = FailureBreakdown::default();
        a.record(FailureKind::Panic);
        a.record(FailureKind::Timeout);
        let mut b = FailureBreakdown::default();
        b.record(FailureKind::Panic);
        b.merge(&a);
        assert_eq!(b.panic, 2);
        assert_eq!(b.timeout, 1);
        assert_eq!(b.total(), 3);
        assert!(b.summary().contains("panic"));
        assert_eq!(FailureBreakdown::default().summary(), "-");
    }

    #[test]
    fn pipeline_errors_classify_per_variant() {
        use crate::PipelineError as E;
        let kind = |e: E| Failure::from(e).kind;
        assert_eq!(
            kind(E::BadTemplate { code: "SA001".into(), step: "s".into(), message: "x".into() }),
            FailureKind::Build
        );
        assert_eq!(
            kind(E::PrimitivePanic { step: "s".into(), message: "m".into() }),
            FailureKind::Panic
        );
        assert_eq!(kind(E::NonFinite { step: "s".into() }), FailureKind::NonFinite);
        assert_eq!(kind(E::Step { step: "s".into(), source: "e".into() }), FailureKind::Other);
        let e = E::NonFinite { step: "s".into() };
        assert_eq!(Failure::from(e.clone()).message, e.to_string());
    }
}
