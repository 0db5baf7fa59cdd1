//! Deterministic parallel execution substrate.
//!
//! A fixed-size fan-out pool over an index space: [`par_map`] runs
//! `f(0..n)` on up to [`configured_threads`] workers and collects the
//! results **in input order**, so a parallel run is indistinguishable
//! from a serial one to every caller. The design rule that makes the
//! workspace-wide determinism contract hold is:
//!
//! > **Work decomposition is a function of the input, never of the
//! > thread count.** Thread count only changes *which worker* computes
//! > each index, not *what* is computed or in what order results are
//! > observed.
//!
//! Concretely:
//!
//! * Tasks are claimed from a shared atomic cursor (self-balancing),
//!   but each task's computation depends only on its index, and
//!   results are written into per-index slots — collection order is
//!   the index order regardless of scheduling.
//! * Workers are scoped ([`std::thread::scope`]): closures may borrow
//!   from the caller's stack, no `'static` bounds leak into callers,
//!   and the fan-out joins all workers before returning.
//! * A panicking task never poisons the pool: [`par_try_map`] captures
//!   each task's unwind as a [`TaskPanic`] (index + payload message)
//!   so callers can route it into their failure taxonomy. [`par_map`]
//!   re-raises the panic of the *lowest* failing index — exactly the
//!   panic a serial loop would have surfaced first.
//!
//! The worker budget comes from, in priority order: the process-wide
//! [`set_threads`] override (the CLI's `--threads` flag), the
//! `SINTEL_THREADS` environment variable, and finally
//! [`std::thread::available_parallelism`].

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Process-wide thread-count override (0 = unset, fall through to the
/// environment).
static THREAD_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Environment variable naming the worker budget (`>= 1`).
pub const THREADS_ENV: &str = "SINTEL_THREADS";

/// Override (`Some(n)`) or restore (`None`) the process-wide worker
/// budget. Takes precedence over `SINTEL_THREADS`; `n` is clamped to
/// at least 1. The CLI's `--threads` flag and the determinism
/// conformance tests route through this.
pub fn set_threads(n: Option<usize>) {
    THREAD_OVERRIDE.store(n.map_or(0, |v| v.max(1)), Ordering::SeqCst);
}

/// The effective worker budget: [`set_threads`] override, else a valid
/// `SINTEL_THREADS` value, else the machine's available parallelism.
/// Always at least 1.
pub fn configured_threads() -> usize {
    let forced = THREAD_OVERRIDE.load(Ordering::SeqCst);
    if forced > 0 {
        return forced;
    }
    if let Ok(raw) = std::env::var(THREADS_ENV) {
        if let Ok(n) = raw.trim().parse::<usize>() {
            if n >= 1 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A captured panic from one fan-out task.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaskPanic {
    /// Index of the task that panicked.
    pub index: usize,
    /// The panic payload rendered as a message (`&str`/`String`
    /// payloads verbatim, anything else a placeholder).
    pub message: String,
}

impl std::fmt::Display for TaskPanic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "task {} panicked: {}", self.index, self.message)
    }
}

/// A panic payload rendered as a message: `&str` and `String` payloads
/// verbatim, anything else a placeholder. Pass the payload itself
/// (`payload.as_ref()`), not a reference to its `Box`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Run `f(i)` for every `i in 0..n` on up to [`configured_threads`]
/// scoped workers; results are returned in index order with each
/// task's panic captured as a [`TaskPanic`].
///
/// With a budget of 1 (or `n <= 1`) this degenerates to a serial loop
/// over the same indices — the parallel and serial paths execute the
/// identical per-index computation.
pub fn par_try_map<T, F>(n: usize, f: F) -> Vec<Result<T, TaskPanic>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let run_one = |i: usize| -> Result<T, TaskPanic> {
        catch_unwind(AssertUnwindSafe(|| f(i)))
            .map_err(|p| TaskPanic { index: i, message: panic_message(p.as_ref()) })
    };
    let workers = configured_threads().min(n);
    if workers <= 1 {
        return (0..n).map(run_one).collect();
    }

    // One slot per index; each worker owns the slots of the indices it
    // claims, so there is no contention beyond the claim cursor.
    let slots: Vec<Mutex<Option<Result<T, TaskPanic>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let result = run_one(i);
                if let Ok(mut slot) = slots[i].lock() {
                    *slot = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|poisoned| poisoned.into_inner())
                .unwrap_or(Err(TaskPanic {
                    index: usize::MAX,
                    message: "task slot was never filled".to_string(),
                }))
        })
        .collect()
}

/// [`par_try_map`], re-raising the panic of the lowest failing index —
/// the same panic a serial `for` loop would have surfaced first.
pub fn par_map<T, F>(n: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    par_try_map(n, f)
        .into_iter()
        .map(|r| r.unwrap_or_else(|p| resume_unwind(Box::new(p.message))))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serialize tests that mutate the process-wide override.
    static OVERRIDE_GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn par_map_preserves_input_order() {
        let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(Some(4));
        let out = par_map(100, |i| i * i);
        set_threads(None);
        assert_eq!(out, (0..100).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn serial_and_parallel_results_are_identical() {
        let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let f = |i: usize| (i as f64).sqrt().sin();
        set_threads(Some(1));
        let serial = par_map(257, f);
        set_threads(Some(8));
        let parallel = par_map(257, f);
        set_threads(None);
        for (a, b) in serial.iter().zip(&parallel) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn panics_are_captured_per_task_not_poisoning_the_pool() {
        let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(Some(4));
        let out = par_try_map(10, |i| {
            if i == 3 || i == 7 {
                panic!("boom {i}");
            }
            i
        });
        set_threads(None);
        assert_eq!(out.len(), 10);
        for (i, r) in out.iter().enumerate() {
            match r {
                Ok(v) => {
                    assert_eq!(*v, i);
                    assert!(i != 3 && i != 7);
                }
                Err(p) => {
                    assert_eq!(p.index, i);
                    assert!(p.message.contains(&format!("boom {i}")), "{p:?}");
                }
            }
        }
    }

    #[test]
    fn par_map_reraises_lowest_failing_index() {
        let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(Some(4));
        let caught = catch_unwind(AssertUnwindSafe(|| {
            par_map(10, |i| if i >= 5 { panic!("first failure is {i}") } else { i })
        }));
        set_threads(None);
        let payload = caught.unwrap_err();
        let message = panic_message(payload.as_ref());
        assert!(message.contains("first failure is 5"), "{message}");
    }

    #[test]
    fn override_beats_environment_and_clamps() {
        let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(Some(0));
        assert_eq!(configured_threads(), 1, "override clamps to 1");
        set_threads(Some(3));
        assert_eq!(configured_threads(), 3);
        set_threads(None);
        assert!(configured_threads() >= 1);
    }

    #[test]
    fn empty_and_single_item_maps() {
        let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(Some(8));
        assert!(par_map(0, |i| i).is_empty());
        assert_eq!(par_map(1, |i| i + 41), vec![41]);
        set_threads(None);
    }

    #[test]
    fn workers_can_borrow_caller_stack() {
        let _g = OVERRIDE_GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_threads(Some(4));
        let data: Vec<u64> = (0..64).collect();
        // No 'static bound: the closure borrows `data` from this frame.
        let doubled = par_map(data.len(), |i| data[i] * 2);
        set_threads(None);
        assert_eq!(doubled[63], 126);
    }
}
