#![warn(missing_docs)]

//! # sintel-obs
//!
//! The observability substrate of the Sintel reproduction: structured
//! logging, nested spans with a replayable trace, and a metrics
//! registry. Like `sintel-store`, it is dependency-free and sits at the
//! bottom of the workspace graph so every other crate can instrument
//! itself without pulling anything in.
//!
//! Three layers, all sharing the [`FieldValue`] structured-field type:
//!
//! * [`log`] — a leveled (`error..trace`) structured logger with
//!   `key=value` fields. The level comes from `SINTEL_LOG` (or
//!   [`set_level`]); records go to stderr by default and to an
//!   in-memory buffer while a test capture ([`capture_start`]) is
//!   active.
//! * [`span`] — nested spans timed on one monotonic clock. Opening and
//!   closing a span emits one [`TraceEvent`] each into the process
//!   trace buffer (when [`tracing_start`] has been called), so a whole
//!   benchmark run can be exported as JSON lines ([`export_jsonl`])
//!   and replayed as a flamegraph-style timeline ([`parse_jsonl`]).
//!   [`SpanGuard::close`] returns the span's duration, so callers that
//!   need the number (e.g. `PipelineProfile`) read the *same*
//!   measurement the trace records — one clock, no double counting.
//! * [`metrics`] — a registry of counters, gauges and fixed-log-bucket
//!   latency histograms (p50/p90/p99), dumpable as Prometheus-style
//!   text ([`MetricsSnapshot::to_prometheus`]) or JSON
//!   ([`MetricsSnapshot::to_json`]).

pub mod catalog;
pub mod log;
pub mod metrics;
pub mod rollup;
pub mod span;

pub use crate::catalog::{metric_def, MetricDef, MetricKind, METRICS};
pub use crate::log::{
    capture_start, capture_stop, enabled, log, set_level, Level, LogRecord,
};
pub use crate::metrics::{
    counter_add, gauge_set, global, labeled, observe, observe_duration, Histogram, Metric,
    MetricsSnapshot, Registry,
};
pub use crate::rollup::{
    rollup_add, rollup_observe, rollup_tick, rollups, RollupSeries, RollupSnapshot, Rollups,
};
pub use crate::span::{
    current_span_id, export_jsonl, flush_trace, parse_jsonl, set_trace_capacity,
    set_trace_sink, span, span_with, span_with_parent, trace_tail,
    tracing_active, tracing_start, tracing_stop,
    EventKind, SpanGuard, TraceEvent, TraceFlushGuard,
};

/// A structured field value attached to log records, spans and trace
/// events.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// A string.
    Str(String),
    /// A signed integer.
    Int(i64),
    /// An unsigned integer.
    UInt(u64),
    /// A float.
    Float(f64),
    /// A boolean.
    Bool(bool),
}

impl FieldValue {
    /// Render as a JSON value fragment (non-finite floats become
    /// `null`, which keeps every exported line parseable).
    pub fn to_json(&self) -> String {
        match self {
            FieldValue::Str(s) => json_string(s),
            FieldValue::Int(v) => v.to_string(),
            FieldValue::UInt(v) => v.to_string(),
            FieldValue::Float(v) if v.is_finite() => format_f64(*v),
            FieldValue::Float(_) => "null".to_string(),
            FieldValue::Bool(b) => b.to_string(),
        }
    }
}

impl std::fmt::Display for FieldValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FieldValue::Str(s) => f.write_str(s),
            FieldValue::Int(v) => write!(f, "{v}"),
            FieldValue::UInt(v) => write!(f, "{v}"),
            FieldValue::Float(v) => write!(f, "{v}"),
            FieldValue::Bool(b) => write!(f, "{b}"),
        }
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}
impl From<&String> for FieldValue {
    fn from(v: &String) -> Self {
        FieldValue::Str(v.clone())
    }
}
impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}
impl From<i64> for FieldValue {
    fn from(v: i64) -> Self {
        FieldValue::Int(v)
    }
}
impl From<i32> for FieldValue {
    fn from(v: i32) -> Self {
        FieldValue::Int(v as i64)
    }
}
impl From<u64> for FieldValue {
    fn from(v: u64) -> Self {
        FieldValue::UInt(v)
    }
}
impl From<u32> for FieldValue {
    fn from(v: u32) -> Self {
        FieldValue::UInt(v as u64)
    }
}
impl From<usize> for FieldValue {
    fn from(v: usize) -> Self {
        FieldValue::UInt(v as u64)
    }
}
impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::Float(v)
    }
}
impl From<bool> for FieldValue {
    fn from(v: bool) -> Self {
        FieldValue::Bool(v)
    }
}
impl From<std::time::Duration> for FieldValue {
    fn from(v: std::time::Duration) -> Self {
        FieldValue::Float(v.as_secs_f64())
    }
}

/// Format an `f64` so it round-trips as JSON (always with enough
/// precision, never in a locale-dependent way).
pub(crate) fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        // Keep integral floats readable ("3" not "3.0" is invalid JSON
        // as a float marker is not required, but emit ".0" for clarity).
        format!("{v:.1}")
    } else {
        let s = format!("{v}");
        s
    }
}

/// JSON-escape a string, with surrounding quotes.
pub(crate) fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Render a field list as a JSON object fragment (`{"k":"v",...}`).
pub(crate) fn fields_to_json(fields: &[(String, FieldValue)]) -> String {
    let mut out = String::from("{");
    for (i, (k, v)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&json_string(k));
        out.push(':');
        out.push_str(&v.to_json());
    }
    out.push('}');
    out
}

/// Log at a level with structured fields:
/// `log_event!(Level::Warn, "sintel::policy", format!("attempt {n} failed"), kind = "panic", attempt = n)`.
///
/// The message expression is only evaluated when the level is enabled.
#[macro_export]
macro_rules! log_event {
    ($lvl:expr, $target:expr, $msg:expr $(, $k:ident = $v:expr)* $(,)?) => {
        if $crate::enabled($lvl) {
            $crate::log(
                $lvl,
                $target,
                $msg,
                vec![$((stringify!($k).to_string(), $crate::FieldValue::from($v))),*],
            );
        }
    };
}

/// [`log_event!`] at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($t:tt)*) => { $crate::log_event!($crate::Level::Error, $($t)*) };
}
/// [`log_event!`] at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($t:tt)*) => { $crate::log_event!($crate::Level::Warn, $($t)*) };
}
/// [`log_event!`] at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($t:tt)*) => { $crate::log_event!($crate::Level::Info, $($t)*) };
}
/// [`log_event!`] at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($t:tt)*) => { $crate::log_event!($crate::Level::Debug, $($t)*) };
}
/// [`log_event!`] at [`Level::Trace`].
#[macro_export]
macro_rules! trace {
    ($($t:tt)*) => { $crate::log_event!($crate::Level::Trace, $($t)*) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn field_value_json_fragments() {
        assert_eq!(FieldValue::from("a\"b").to_json(), "\"a\\\"b\"");
        assert_eq!(FieldValue::from(3i64).to_json(), "3");
        assert_eq!(FieldValue::from(2.5f64).to_json(), "2.5");
        assert_eq!(FieldValue::from(f64::NAN).to_json(), "null");
        assert_eq!(FieldValue::from(true).to_json(), "true");
        assert_eq!(
            FieldValue::from(std::time::Duration::from_millis(1500)),
            FieldValue::Float(1.5)
        );
    }

    #[test]
    fn json_string_escapes_controls() {
        assert_eq!(json_string("a\nb\t\u{1}"), "\"a\\nb\\t\\u0001\"");
    }

    #[test]
    fn fields_to_json_shape() {
        let fields =
            vec![("a".to_string(), FieldValue::Int(1)), ("b".to_string(), "x".into())];
        assert_eq!(fields_to_json(&fields), "{\"a\":1,\"b\":\"x\"}");
        assert_eq!(fields_to_json(&[]), "{}");
    }
}
