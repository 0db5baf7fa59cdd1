//! Fault-injection primitives (cargo feature `faulty`).
//!
//! Test-only building blocks that misbehave in the three ways the
//! fault-isolation layer must contain:
//!
//! * [`FaultyPanic`] — panics inside `fit`;
//! * [`FaultyNan`] — emits a NaN error series from `produce`;
//! * [`FaultyHang`] — sleeps past any reasonable run budget in `fit`
//!   (cancel-aware: the sleep is sliced and polls
//!   `sintel_common::cancelled`, so a timed-out watchdog worker winds
//!   down instead of leaking);
//! * [`FaultySlow`] — sleeps `ms_per_row` per signal sample in
//!   `produce`, for latency-based degradation/shedding tests;
//! * [`FaultyFlaky`] — fails the first `fail_first_n` runs of its
//!   process-wide `key`, then succeeds, for circuit-breaker half-open
//!   recovery tests (fresh instances share the counter, so per-pass
//!   pipeline rebuilds still observe the recovery);
//! * [`FaultyContractDrift`] — reads or writes context slots its
//!   declared contract omits, for contract-sanitizer (SA009) tests.
//!
//! They are modeling-engine primitives so the executor's non-finite
//! output guard applies to them, and they are only registered when the
//! `faulty` feature is enabled — production registries never see them.

use std::sync::OnceLock;

use crate::context::{Context, Value};
use crate::hyper::{HyperSpec, HyperValue};
use crate::primitive::{Engine, Primitive, PrimitiveMeta};
use crate::{PrimitiveError, Result};

/// Panics during `fit` — exercises `catch_unwind` containment.
pub struct FaultyPanic {
    meta: &'static PrimitiveMeta,
}

impl FaultyPanic {
    /// Construct with default (empty) hyperparameters.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "faulty_panic",
                    Engine::Modeling,
                    "fault injection: panics on fit",
                    &["signal"],
                    &[],
                    vec![],
                )
            }),
        }
    }
}

impl Default for FaultyPanic {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for FaultyPanic {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, _value: HyperValue) -> Result<()> {
        Err(PrimitiveError::BadHyperparameter(format!(
            "'faulty_panic' has no hyperparameter '{name}'"
        )))
    }

    fn fit(&mut self, _ctx: &Context) -> Result<()> {
        panic!("injected panic from faulty_panic");
    }

    fn produce(&mut self, _ctx: &Context) -> Result<Vec<(String, Value)>> {
        Ok(vec![])
    }
}

/// Emits a NaN-poisoned error series — exercises the non-finite guard.
pub struct FaultyNan {
    meta: &'static PrimitiveMeta,
}

impl FaultyNan {
    /// Construct with default (empty) hyperparameters.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "faulty_nan",
                    Engine::Modeling,
                    "fault injection: produces NaN errors",
                    &["signal"],
                    &["errors", "error_timestamps"],
                    vec![],
                )
            }),
        }
    }
}

impl Default for FaultyNan {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for FaultyNan {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, _value: HyperValue) -> Result<()> {
        Err(PrimitiveError::BadHyperparameter(format!(
            "'faulty_nan' has no hyperparameter '{name}'"
        )))
    }

    fn produce(&mut self, _ctx: &Context) -> Result<Vec<(String, Value)>> {
        Ok(vec![
            ("errors".to_string(), Value::Series(vec![f64::NAN; 16])),
            ("error_timestamps".to_string(), Value::Timestamps((0..16).collect())),
        ])
    }
}

/// Sleeps past the run budget in `fit` — exercises the watchdog timeout.
pub struct FaultyHang {
    meta: &'static PrimitiveMeta,
    sleep_ms: i64,
}

impl FaultyHang {
    /// Construct with the default 30 s sleep.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "faulty_hang",
                    Engine::Modeling,
                    "fault injection: sleeps past the run budget on fit",
                    &["signal"],
                    &[],
                    vec![HyperSpec::int("sleep_ms", 1, 3_600_000, 30_000)],
                )
            }),
            sleep_ms: 30_000,
        }
    }
}

impl Default for FaultyHang {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for FaultyHang {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match (name, value) {
            ("sleep_ms", HyperValue::Int(ms)) => {
                self.sleep_ms = ms;
                Ok(())
            }
            _ => Err(PrimitiveError::BadHyperparameter(format!(
                "'faulty_hang' cannot apply hyperparameter '{name}'"
            ))),
        }
    }

    fn fit(&mut self, _ctx: &Context) -> Result<()> {
        sliced_sleep(self.sleep_ms as u64)
    }

    fn produce(&mut self, _ctx: &Context) -> Result<Vec<(String, Value)>> {
        Ok(vec![])
    }
}

/// Sleep `total_ms` in short slices, polling the thread's cancel token
/// between slices so a watchdogged hang actually terminates after its
/// budget expires instead of leaking the worker thread.
fn sliced_sleep(total_ms: u64) -> Result<()> {
    const SLICE_MS: u64 = 5;
    let mut remaining = total_ms;
    while remaining > 0 {
        if sintel_common::cancelled() {
            return Err(PrimitiveError::Algorithm("cancelled by run budget".into()));
        }
        let chunk = remaining.min(SLICE_MS);
        std::thread::sleep(std::time::Duration::from_millis(chunk));
        remaining -= chunk;
    }
    Ok(())
}

/// Sleeps `ms_per_row` per signal sample in `produce` — a slow consumer
/// whose per-pass latency scales with the window, for latency-based
/// degradation and shedding tests. Emits a benign zero error series so
/// downstream thresholding keeps working.
pub struct FaultySlow {
    meta: &'static PrimitiveMeta,
    ms_per_row: i64,
}

impl FaultySlow {
    /// Construct with the default 1 ms/row delay.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "faulty_slow",
                    Engine::Modeling,
                    "fault injection: sleeps ms_per_row per sample on produce",
                    &["signal"],
                    &["errors", "error_timestamps"],
                    vec![HyperSpec::int("ms_per_row", 0, 10_000, 1)],
                )
            }),
            ms_per_row: 1,
        }
    }
}

impl Default for FaultySlow {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for FaultySlow {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match (name, value) {
            ("ms_per_row", HyperValue::Int(ms)) => {
                self.ms_per_row = ms;
                Ok(())
            }
            _ => Err(PrimitiveError::BadHyperparameter(format!(
                "'faulty_slow' cannot apply hyperparameter '{name}'"
            ))),
        }
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let signal = ctx.signal("signal")?;
        let rows = signal.len() as u64;
        sliced_sleep(rows.saturating_mul(self.ms_per_row.max(0) as u64))?;
        Ok(vec![
            ("errors".to_string(), Value::Series(vec![0.0; signal.len()])),
            (
                "error_timestamps".to_string(),
                Value::Timestamps(signal.timestamps().to_vec()),
            ),
        ])
    }
}

/// A primitive whose *declared* contract has drifted from what its code
/// actually does — the defect class the contract-conformance sanitizer
/// (pipeline `sanitizer` feature, SA009) exists to catch. Depending on
/// `mode` it either writes an undeclared `drift_scores` slot or reads
/// the undeclared `windows` slot during `produce`. Without the sanitizer
/// both drifts execute silently; static analysis cannot see them because
/// the declared contract is perfectly consistent.
pub struct FaultyContractDrift {
    meta: &'static PrimitiveMeta,
    mode: String,
}

impl FaultyContractDrift {
    /// Construct with the default `write` drift mode.
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "faulty_contract_drift",
                    Engine::Modeling,
                    "fault injection: accesses context slots its contract does not declare",
                    &["signal"],
                    &["errors", "error_timestamps"],
                    vec![HyperSpec::choice("mode", &["write", "read"], "write")],
                )
            }),
            mode: "write".to_string(),
        }
    }
}

impl Default for FaultyContractDrift {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for FaultyContractDrift {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        self.meta.validate_hyperparam(name, &value)?;
        match (name, value) {
            ("mode", HyperValue::Text(m)) => {
                self.mode = m;
                Ok(())
            }
            _ => Err(PrimitiveError::BadHyperparameter(format!(
                "'faulty_contract_drift' cannot apply hyperparameter '{name}'"
            ))),
        }
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        if self.mode == "read" {
            // Undeclared read: probes a slot absent from the contract.
            let _ = ctx.contains("windows");
        }
        let signal = ctx.signal("signal")?;
        let mut outputs = vec![
            ("errors".to_string(), Value::Series(vec![0.0; signal.len()])),
            (
                "error_timestamps".to_string(),
                Value::Timestamps(signal.timestamps().to_vec()),
            ),
        ];
        if self.mode == "write" {
            // Undeclared write: a slot the contract never mentions.
            outputs.push(("drift_scores".to_string(), Value::Series(vec![0.0; signal.len()])));
        }
        Ok(outputs)
    }
}

/// Process-wide attempt counters for [`FaultyFlaky`], keyed by the
/// primitive's `key` hyperparameter. The counter must survive pipeline
/// rebuilds (the serving tier constructs a fresh pipeline per detection
/// pass), otherwise "fail the first n runs, then recover" would reset
/// on every pass and the circuit breaker could never observe recovery.
mod flaky_counters {
    use std::collections::HashMap;
    use std::sync::Mutex;

    static COUNTERS: Mutex<Option<HashMap<String, u64>>> = Mutex::new(None);

    /// Increment and return the attempt number (1-based) for `key`.
    pub fn next_attempt(key: &str) -> u64 {
        let mut guard = COUNTERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let map = guard.get_or_insert_with(HashMap::new);
        let n = map.entry(key.to_string()).or_insert(0);
        *n += 1;
        *n
    }

    /// Reset the counter for `key` (test isolation).
    pub fn reset(key: &str) {
        let mut guard = COUNTERS.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        if let Some(map) = guard.as_mut() {
            map.remove(key);
        }
    }
}

/// Reset the process-wide flaky counter for `key` so tests sharing a
/// process do not interfere.
pub fn reset_flaky_counter(key: &str) {
    flaky_counters::reset(key);
}

/// Fails the first `fail_first_n` runs sharing its `key`, then behaves —
/// the transient-failure profile circuit-breaker half-open probes must
/// recover from. Emits a benign zero error series once healthy.
pub struct FaultyFlaky {
    meta: &'static PrimitiveMeta,
    fail_first_n: i64,
    key: String,
}

impl FaultyFlaky {
    /// Construct with defaults (`fail_first_n = 3`, key `"default"`).
    pub fn new() -> Self {
        static META: OnceLock<PrimitiveMeta> = OnceLock::new();
        Self {
            meta: META.get_or_init(|| {
                PrimitiveMeta::new(
                    "faulty_flaky",
                    Engine::Modeling,
                    "fault injection: fails the first n runs of its key, then succeeds",
                    &["signal"],
                    &["errors", "error_timestamps"],
                    vec![
                        HyperSpec::int("fail_first_n", 0, 1_000_000, 3),
                        HyperSpec::choice("key", &["default"], "default"),
                    ],
                )
            }),
            fail_first_n: 3,
            key: "default".to_string(),
        }
    }
}

impl Default for FaultyFlaky {
    fn default() -> Self {
        Self::new()
    }
}

impl Primitive for FaultyFlaky {
    fn meta(&self) -> &PrimitiveMeta {
        self.meta
    }

    fn set_hyperparam(&mut self, name: &str, value: HyperValue) -> Result<()> {
        match (name, value) {
            ("fail_first_n", HyperValue::Int(n)) => {
                self.meta.validate_hyperparam(name, &HyperValue::Int(n))?;
                self.fail_first_n = n;
                Ok(())
            }
            // The key is an open namespace (any test may pick a fresh
            // one), so it deliberately skips the enumerated-text range
            // check that `validate_hyperparam` would apply.
            ("key", HyperValue::Text(k)) => {
                self.key = k;
                Ok(())
            }
            (_, value) => {
                self.meta.validate_hyperparam(name, &value)?;
                Err(PrimitiveError::BadHyperparameter(format!(
                    "'faulty_flaky' cannot apply hyperparameter '{name}'"
                )))
            }
        }
    }

    fn produce(&mut self, ctx: &Context) -> Result<Vec<(String, Value)>> {
        let attempt = flaky_counters::next_attempt(&self.key);
        if attempt <= self.fail_first_n.max(0) as u64 {
            return Err(PrimitiveError::Algorithm(format!(
                "injected flaky failure {attempt}/{} (key '{}')",
                self.fail_first_n, self.key
            )));
        }
        let signal = ctx.signal("signal")?;
        Ok(vec![
            ("errors".to_string(), Value::Series(vec![0.0; signal.len()])),
            (
                "error_timestamps".to_string(),
                Value::Timestamps(signal.timestamps().to_vec()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn faulty_panic_panics_on_fit() {
        let mut prim = FaultyPanic::new();
        let ctx = Context::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| prim.fit(&ctx)));
        assert!(caught.is_err());
    }

    #[test]
    fn faulty_nan_output_is_poisoned() {
        let mut prim = FaultyNan::new();
        let out = prim.produce(&Context::new()).unwrap();
        let series = out.iter().find(|(slot, _)| slot == "errors").unwrap();
        match &series.1 {
            Value::Series(v) => assert!(v.iter().all(|x| x.is_nan())),
            other => panic!("unexpected value {other:?}"),
        }
    }

    fn signal_ctx(n: usize) -> Context {
        Context::from_signal(sintel_timeseries::Signal::from_values(
            "s",
            (0..n).map(|i| i as f64).collect(),
        ))
    }

    #[test]
    fn faulty_slow_delays_proportionally_to_rows() {
        let mut prim = FaultySlow::new();
        prim.set_hyperparam("ms_per_row", HyperValue::Int(2)).unwrap();
        let t0 = std::time::Instant::now();
        let out = prim.produce(&signal_ctx(20)).unwrap();
        assert!(t0.elapsed() >= std::time::Duration::from_millis(30));
        assert!(matches!(&out[0].1, Value::Series(v) if v.len() == 20));
        assert!(prim.set_hyperparam("ms_per_row", HyperValue::Int(-1)).is_err());
    }

    #[test]
    fn faulty_slow_stops_when_cancelled() {
        let mut prim = FaultySlow::new();
        prim.set_hyperparam("ms_per_row", HyperValue::Int(10_000)).unwrap();
        let token = sintel_common::CancelToken::new();
        token.cancel();
        let t0 = std::time::Instant::now();
        let result =
            sintel_common::with_cancel_token(token, || prim.produce(&signal_ctx(100)));
        assert!(result.is_err());
        assert!(t0.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn faulty_hang_stops_when_cancelled() {
        let mut prim = FaultyHang::new();
        prim.set_hyperparam("sleep_ms", HyperValue::Int(600_000)).unwrap();
        let token = sintel_common::CancelToken::new();
        token.cancel();
        let t0 = std::time::Instant::now();
        let result = sintel_common::with_cancel_token(token, || prim.fit(&Context::new()));
        assert!(result.is_err());
        assert!(t0.elapsed() < std::time::Duration::from_secs(2));
    }

    #[test]
    fn faulty_flaky_recovers_after_n_failures_across_instances() {
        reset_flaky_counter("test-recover");
        let run = || {
            let mut prim = FaultyFlaky::new();
            prim.set_hyperparam("fail_first_n", HyperValue::Int(2)).unwrap();
            prim.set_hyperparam("key", HyperValue::Text("test-recover".into())).unwrap();
            prim.produce(&signal_ctx(8))
        };
        // The counter survives instance rebuilds: two fresh instances
        // fail, the third succeeds.
        assert!(run().is_err());
        assert!(run().is_err());
        assert!(run().is_ok());
        assert!(run().is_ok());
        reset_flaky_counter("test-recover");
    }

    #[test]
    fn faulty_hang_sleep_is_configurable() {
        let mut prim = FaultyHang::new();
        prim.set_hyperparam("sleep_ms", HyperValue::Int(1)).unwrap();
        let t0 = std::time::Instant::now();
        prim.fit(&Context::new()).unwrap();
        assert!(t0.elapsed() < std::time::Duration::from_secs(5));
        assert!(prim.set_hyperparam("nope", HyperValue::Int(1)).is_err());
    }
}
