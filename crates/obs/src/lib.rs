#![warn(missing_docs)]

//! # sintel-obs
//!
//! The observability substrate of the Sintel reproduction: structured
//! logging, nested spans with a replayable trace, and a metrics
//! registry. It sits at the bottom of the workspace graph, above only
//! `sintel-common` (whose [`sintel_common::json`] codec writes and
//! reads every trace line and metrics dump), so every other crate can
//! instrument itself without pulling anything else in.
//!
//! Three layers, all sharing the [`FieldValue`] structured-field type:
//!
//! * [`mod@log`] — a leveled (`error..trace`) structured logger with
//!   `key=value` fields. The level comes from `SINTEL_LOG` (or
//!   [`set_level`]); records go to stderr by default and to an
//!   in-memory buffer while a test capture ([`capture_start`]) is
//!   active.
//! * [`mod@span`] — nested spans timed on one monotonic clock. Opening and
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

use sintel_common::json::Doc;

pub mod log;
pub mod metrics;
pub mod span;

pub use crate::log::{
    capture_start, capture_stop, enabled, log, set_level, Level, LogRecord,
};
pub use crate::metrics::{
    counter_add, gauge_set, global, labeled, observe, observe_duration, Histogram, Metric,
    MetricsSnapshot, Registry,
};
pub use crate::span::{
    current_span_id, export_jsonl, flush_trace, parse_jsonl, set_trace_sink, span,
    span_with, span_with_parent, trace_tail,
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

/// The JSON value of a field (a `UInt` above `i64::MAX` becomes a
/// float; the writer turns a non-finite float into `null`).
impl From<&FieldValue> for Doc {
    fn from(v: &FieldValue) -> Doc {
        match v {
            FieldValue::Str(s) => Doc::Str(s.clone()),
            FieldValue::Int(v) => Doc::I64(*v),
            FieldValue::UInt(v) => Doc::from(*v),
            FieldValue::Float(v) => Doc::F64(*v),
            FieldValue::Bool(b) => Doc::Bool(*b),
        }
    }
}

/// Format an `f64` as a Prometheus text sample value (never in a
/// locale-dependent way). JSON goes through [`sintel_common::json`].
pub fn format_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        // Integral values keep a ".0" so a sample reads as a float.
        format!("{v:.1}")
    } else {
        format!("{v}")
    }
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
    use sintel_common::json::to_json;

    fn json(v: impl Into<FieldValue>) -> String {
        to_json(&Doc::from(&v.into()))
    }

    #[test]
    fn field_value_json_fragments() {
        assert_eq!(json("a\"b"), "\"a\\\"b\"");
        assert_eq!(json(3i64), "3");
        assert_eq!(json(2.5f64), "2.5");
        assert_eq!(json(f64::NAN), "null");
        assert_eq!(json(true), "true");
        assert_eq!(json(u64::MAX), "1.8446744073709552e19");
        assert_eq!(
            FieldValue::from(std::time::Duration::from_millis(1500)),
            FieldValue::Float(1.5)
        );
    }

    #[test]
    fn field_strings_escape_controls() {
        assert_eq!(json("a\nb\t\u{1}"), "\"a\\nb\\t\\u0001\"");
    }

    #[test]
    fn trace_fields_render_as_one_object() {
        let mut event = TraceEvent {
            kind: EventKind::Open,
            id: 1,
            parent: None,
            name: "s".to_string(),
            ts_ns: 0,
            duration_ns: None,
            fields: vec![("a".to_string(), FieldValue::Int(1)), ("b".to_string(), "x".into())],
        };
        assert!(event.to_json().contains("\"fields\":{\"a\":1,\"b\":\"x\"}"));
        event.fields.clear();
        assert!(!event.to_json().contains("fields"));
    }
}
