//! Nested spans on one monotonic clock, with a JSON-lines trace.
//!
//! [`span_with`] opens a span; dropping (or [`SpanGuard::close`]-ing)
//! the guard closes it. Parent/child nesting is tracked per thread, so
//! a pipeline's `primitive.fit` spans nest under its `pipeline.fit`
//! span automatically. When tracing is active ([`tracing_start`]),
//! every open and close appends a [`TraceEvent`] to the process trace
//! buffer; [`export_jsonl`] renders the buffer one JSON object per
//! line and [`parse_jsonl`] reads it back, so a whole benchmark run
//! can be replayed as a flamegraph-style timeline.
//!
//! Timing: every span measures its duration with `Instant` regardless
//! of whether tracing is active, and [`SpanGuard::close`] returns it —
//! callers that need the number (e.g. `PipelineProfile`) therefore see
//! the *same* measurement the trace records.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use crate::{fields_to_json, json_string, FieldValue};

/// Process-wide monotonic anchor: all trace timestamps are nanoseconds
/// since the first span (or trace start) of the process.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static TRACING: AtomicBool = AtomicBool::new(false);

/// Max buffered trace events before the oldest are dropped (0 =
/// unbounded, the historical default for short batch runs).
static TRACE_CAP: AtomicUsize = AtomicUsize::new(0);

fn trace_buffer() -> &'static Mutex<Vec<TraceEvent>> {
    static BUF: OnceLock<Mutex<Vec<TraceEvent>>> = OnceLock::new();
    BUF.get_or_init(|| Mutex::new(Vec::new()))
}

fn buffer_lock() -> MutexGuard<'static, Vec<TraceEvent>> {
    trace_buffer().lock().unwrap_or_else(|e| e.into_inner())
}

fn trace_sink() -> &'static Mutex<Option<PathBuf>> {
    static SINK: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

/// Append one event to the buffer, honouring the capacity cap
/// (oldest-first eviction keeps the tail an operator asks for).
fn push_event(event: TraceEvent) {
    let cap = TRACE_CAP.load(Ordering::Relaxed);
    let mut buf = buffer_lock();
    if cap > 0 && buf.len() >= cap {
        let drop_n = buf.len() + 1 - cap;
        buf.drain(..drop_n);
    }
    buf.push(event);
}

/// Cap the in-memory trace buffer at `cap` events (0 = unbounded).
/// Long-running servers set a cap so `/trace` keeps a bounded recent
/// tail instead of growing without limit.
pub fn set_trace_capacity(cap: usize) {
    TRACE_CAP.store(cap, Ordering::SeqCst);
}

/// Route [`flush_trace`] output to `path` (append mode), or disable
/// flushing with `None`. Setting a sink does not start tracing —
/// callers still opt in with [`tracing_start`].
pub fn set_trace_sink(path: Option<PathBuf>) {
    *trace_sink().lock().unwrap_or_else(|e| e.into_inner()) = path;
}

/// Drain the trace buffer and append it (as JSONL) to the configured
/// sink. Returns the number of events written; with no sink configured
/// the buffer is left untouched and 0 is returned, so batch callers
/// using [`tracing_stop`] are unaffected. Tracing stays active — a
/// long-running engine can flush once per checkpoint.
pub fn flush_trace() -> Result<usize, String> {
    let sink = trace_sink().lock().unwrap_or_else(|e| e.into_inner()).clone();
    let Some(path) = sink else {
        return Ok(0);
    };
    let events = std::mem::take(&mut *buffer_lock());
    if events.is_empty() {
        return Ok(0);
    }
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| format!("open trace sink {}: {e}", path.display()))?;
    file.write_all(export_jsonl(&events).as_bytes())
        .map_err(|e| format!("write trace sink {}: {e}", path.display()))?;
    Ok(events.len())
}

/// The last `n` buffered trace events (oldest first), without
/// draining. This is what a `/trace` endpoint serves.
pub fn trace_tail(n: usize) -> Vec<TraceEvent> {
    let buf = buffer_lock();
    let start = buf.len().saturating_sub(n);
    buf[start..].to_vec()
}

/// Flushes the trace sink when dropped — including during a
/// panic-unwind — so a crashed engine still leaves a readable trace
/// tail on disk. Hold one for the lifetime of the instrumented work:
///
/// ```no_run
/// let _flush = sintel_obs::TraceFlushGuard::new();
/// ```
///
/// Errors during the drop flush are swallowed (there is no one to
/// report them to mid-unwind); call [`flush_trace`] directly on the
/// happy path to observe them.
#[derive(Debug, Default)]
#[must_use = "dropping the guard immediately flushes the trace"]
pub struct TraceFlushGuard {
    _private: (),
}

impl TraceFlushGuard {
    /// New guard; pair with [`set_trace_sink`].
    pub fn new() -> Self {
        Self { _private: () }
    }
}

impl Drop for TraceFlushGuard {
    fn drop(&mut self) {
        let _ = flush_trace();
    }
}

thread_local! {
    /// Open-span stack of this thread (ids, innermost last).
    static SPAN_STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Start recording trace events (clears any previous buffer).
pub fn tracing_start() {
    anchor();
    buffer_lock().clear();
    TRACING.store(true, Ordering::SeqCst);
}

/// Stop recording and drain the buffer.
pub fn tracing_stop() -> Vec<TraceEvent> {
    TRACING.store(false, Ordering::SeqCst);
    std::mem::take(&mut *buffer_lock())
}

/// Whether trace events are currently being recorded.
pub fn tracing_active() -> bool {
    TRACING.load(Ordering::SeqCst)
}

/// Open/close marker of a trace event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Open,
    /// Span closed; `duration_ns` is set.
    Close,
}

/// One line of the trace: a span opening or closing.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEvent {
    /// Open or close.
    pub kind: EventKind,
    /// Span id (unique within the process).
    pub id: u64,
    /// Enclosing span id, if any (same thread).
    pub parent: Option<u64>,
    /// Span name (dotted taxonomy, e.g. `primitive.fit`).
    pub name: String,
    /// Nanoseconds since the process trace anchor.
    pub ts_ns: u64,
    /// Span duration (close events only).
    pub duration_ns: Option<u64>,
    /// Structured fields (open events only).
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceEvent {
    /// Render as one JSON object (one line of the JSONL trace).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"event\":");
        out.push_str(match self.kind {
            EventKind::Open => "\"open\"",
            EventKind::Close => "\"close\"",
        });
        out.push_str(&format!(",\"id\":{}", self.id));
        match self.parent {
            Some(p) => out.push_str(&format!(",\"parent\":{p}")),
            None => out.push_str(",\"parent\":null"),
        }
        out.push_str(",\"name\":");
        out.push_str(&json_string(&self.name));
        out.push_str(&format!(",\"ts_ns\":{}", self.ts_ns));
        if let Some(d) = self.duration_ns {
            out.push_str(&format!(",\"duration_ns\":{d}"));
        }
        if !self.fields.is_empty() {
            out.push_str(",\"fields\":");
            out.push_str(&fields_to_json(&self.fields));
        }
        out.push('}');
        out
    }
}

/// Render events as a JSON-lines document (trailing newline included).
pub fn export_jsonl(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for event in events {
        out.push_str(&event.to_json());
        out.push('\n');
    }
    out
}

/// Guard of an open span; closes (and emits the close event) on drop.
#[must_use = "dropping the guard immediately closes the span"]
pub struct SpanGuard {
    id: u64,
    parent: Option<u64>,
    name: String,
    start: Instant,
    start_ns: u64,
    closed: bool,
}

/// Open a span with no fields.
pub fn span(name: &str) -> SpanGuard {
    span_with(name, &[])
}

/// Id of the innermost open span on *this thread*, if any.
///
/// Capture this before handing work to another thread and pass it to
/// [`span_with_parent`] on the worker: span stacks are thread-local,
/// so without an explicit parent a worker's spans would appear as
/// roots (or, worse, interleave under whatever that worker happened
/// to have open).
pub fn current_span_id() -> Option<u64> {
    SPAN_STACK.with(|stack| stack.borrow().last().copied())
}

/// Open a span with structured fields. The span nests under the
/// innermost open span *of this thread*.
pub fn span_with(name: &str, fields: &[(&str, FieldValue)]) -> SpanGuard {
    open_span(name, fields, None)
}

/// Open a span whose parent is set explicitly instead of taken from
/// this thread's stack — the cross-thread attribution primitive. The
/// new span is still pushed onto the *current* thread's stack, so
/// spans opened underneath it on this thread nest correctly.
pub fn span_with_parent(
    name: &str,
    fields: &[(&str, FieldValue)],
    parent: Option<u64>,
) -> SpanGuard {
    open_span(name, fields, Some(parent))
}

/// `forced_parent`: `None` = inherit this thread's innermost span,
/// `Some(p)` = record exactly `p` (which may itself be `None` for an
/// explicit root).
fn open_span(
    name: &str,
    fields: &[(&str, FieldValue)],
    forced_parent: Option<Option<u64>>,
) -> SpanGuard {
    let start = Instant::now();
    let start_ns = start.duration_since(anchor()).as_nanos() as u64;
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = SPAN_STACK.with(|stack| {
        let mut stack = stack.borrow_mut();
        let parent = forced_parent.unwrap_or_else(|| stack.last().copied());
        stack.push(id);
        parent
    });
    if tracing_active() {
        push_event(TraceEvent {
            kind: EventKind::Open,
            id,
            parent,
            name: name.to_string(),
            ts_ns: start_ns,
            duration_ns: None,
            fields: fields
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
    }
    SpanGuard { id, parent, name: name.to_string(), start, start_ns, closed: false }
}

impl SpanGuard {
    /// This span's id (to correlate with the exported trace).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Close the span now and return its duration — the same number
    /// the trace's close event records.
    pub fn close(mut self) -> Duration {
        self.finish()
    }

    fn finish(&mut self) -> Duration {
        if self.closed {
            return Duration::ZERO;
        }
        self.closed = true;
        let elapsed = self.start.elapsed();
        SPAN_STACK.with(|stack| {
            let mut stack = stack.borrow_mut();
            // Usually the top of the stack; be robust to out-of-order
            // closes (a kept guard outliving a child).
            if let Some(pos) = stack.iter().rposition(|open| *open == self.id) {
                stack.remove(pos);
            }
        });
        if tracing_active() {
            push_event(TraceEvent {
                kind: EventKind::Close,
                id: self.id,
                parent: self.parent,
                name: self.name.clone(),
                ts_ns: self.start_ns + elapsed.as_nanos() as u64,
                duration_ns: Some(elapsed.as_nanos() as u64),
                fields: Vec::new(),
            });
        }
        elapsed
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.finish();
    }
}

// ---- JSONL parsing (for replay and round-trip tests) -----------------

/// Deepest object nesting [`parse_jsonl`] accepts in one line. The
/// parser recurses once per level, so unbounded nesting would overflow
/// the stack; trace events nest two levels.
const MAX_DEPTH: usize = 128;

/// Parse a JSON-lines trace produced by [`export_jsonl`]. Blank lines
/// are skipped; any malformed line, including one nesting objects more
/// than `MAX_DEPTH` (128) levels deep, is an error naming its line
/// number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(
            parse_event(line).map_err(|e| format!("line {}: {e}", lineno + 1))?,
        );
    }
    Ok(events)
}

/// Minimal JSON value for the trace-event grammar.
#[derive(Debug, Clone, PartialEq)]
enum JsonValue {
    Null,
    Bool(bool),
    Int(i64),
    Float(f64),
    Str(String),
    Obj(Vec<(String, JsonValue)>),
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(s: &'a str) -> Self {
        Self { bytes: s.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(format!("expected '{}', found {other:?}", b as char)),
        }
    }

    /// Parse one value inside `depth` enclosing objects.
    fn parse_value(&mut self, depth: usize) -> Result<JsonValue, String> {
        match self.peek() {
            Some(b'{') if depth == MAX_DEPTH => Err("nesting too deep".to_string()),
            Some(b'{') => self.parse_object(depth + 1),
            Some(b'"') => Ok(JsonValue::Str(self.parse_string()?)),
            Some(b'n') => self.parse_keyword("null", JsonValue::Null),
            Some(b't') => self.parse_keyword("true", JsonValue::Bool(true)),
            Some(b'f') => self.parse_keyword("false", JsonValue::Bool(false)),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.parse_number(),
            other => Err(format!("unexpected {other:?}")),
        }
    }

    fn parse_keyword(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, String> {
        self.skip_ws();
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("expected '{word}'"))
        }
    }

    fn parse_number(&mut self) -> Result<JsonValue, String> {
        self.skip_ws();
        let start = self.pos;
        let mut is_float = false;
        while let Some(&c) = self.bytes.get(self.pos) {
            match c {
                b'-' | b'+' => self.pos += 1,
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?;
        if is_float {
            text.parse::<f64>().map(JsonValue::Float).map_err(|e| e.to_string())
        } else {
            text.parse::<i64>().map(JsonValue::Int).map_err(|e| e.to_string())
        }
    }

    fn parse_string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let Some(&c) = self.bytes.get(self.pos) else {
                return Err("unterminated string".to_string());
            };
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let Some(&esc) = self.bytes.get(self.pos) else {
                        return Err("dangling escape".to_string());
                    };
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .and_then(|h| std::str::from_utf8(h).ok())
                                .ok_or("truncated \\u escape")?;
                            self.pos += 4;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        other => return Err(format!("bad escape \\{}", other as char)),
                    }
                }
                // Multi-byte UTF-8: copy raw continuation bytes through.
                c => {
                    let width = match c {
                        0x00..=0x7f => 1,
                        0xc0..=0xdf => 2,
                        0xe0..=0xef => 3,
                        _ => 4,
                    };
                    let end = (self.pos - 1 + width).min(self.bytes.len());
                    let chunk = std::str::from_utf8(&self.bytes[self.pos - 1..end])
                        .map_err(|e| e.to_string())?;
                    out.push_str(chunk);
                    self.pos = end;
                }
            }
        }
    }

    fn parse_object(&mut self, depth: usize) -> Result<JsonValue, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Obj(entries));
        }
        loop {
            let key = self.parse_string()?;
            self.expect(b':')?;
            let value = self.parse_value(depth)?;
            entries.push((key, value));
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Obj(entries));
                }
                other => return Err(format!("expected ',' or '}}', found {other:?}")),
            }
        }
    }
}

fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let mut parser = Parser::new(line);
    let JsonValue::Obj(entries) = parser.parse_value(0)? else {
        return Err("trace line is not a JSON object".to_string());
    };
    let get = |key: &str| entries.iter().find(|(k, _)| k == key).map(|(_, v)| v);
    let kind = match get("event") {
        Some(JsonValue::Str(s)) if s == "open" => EventKind::Open,
        Some(JsonValue::Str(s)) if s == "close" => EventKind::Close,
        other => return Err(format!("bad event kind {other:?}")),
    };
    let int = |v: Option<&JsonValue>, what: &str| -> Result<i64, String> {
        match v {
            Some(JsonValue::Int(n)) => Ok(*n),
            other => Err(format!("bad {what}: {other:?}")),
        }
    };
    let id = int(get("id"), "id")? as u64;
    let parent = match get("parent") {
        Some(JsonValue::Null) | None => None,
        Some(JsonValue::Int(n)) => Some(*n as u64),
        other => return Err(format!("bad parent: {other:?}")),
    };
    let name = match get("name") {
        Some(JsonValue::Str(s)) => s.clone(),
        other => return Err(format!("bad name: {other:?}")),
    };
    let ts_ns = int(get("ts_ns"), "ts_ns")? as u64;
    let duration_ns = match get("duration_ns") {
        None => None,
        Some(JsonValue::Int(n)) => Some(*n as u64),
        other => return Err(format!("bad duration_ns: {other:?}")),
    };
    let fields = match get("fields") {
        None => Vec::new(),
        Some(JsonValue::Obj(entries)) => entries
            .iter()
            .map(|(k, v)| {
                let fv = match v {
                    JsonValue::Str(s) => FieldValue::Str(s.clone()),
                    JsonValue::Int(n) if *n >= 0 => FieldValue::UInt(*n as u64),
                    JsonValue::Int(n) => FieldValue::Int(*n),
                    JsonValue::Float(f) => FieldValue::Float(*f),
                    JsonValue::Bool(b) => FieldValue::Bool(*b),
                    JsonValue::Null => FieldValue::Float(f64::NAN),
                    JsonValue::Obj(_) => {
                        return Err("nested field objects are not supported".to_string())
                    }
                };
                Ok((k.clone(), fv))
            })
            .collect::<Result<Vec<_>, String>>()?,
        other => return Err(format!("bad fields: {other:?}")),
    };
    Ok(TraceEvent { kind, id, parent, name, ts_ns, duration_ns, fields })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The trace buffer is global; serialize the tests that use it.
    static GUARD: Mutex<()> = Mutex::new(());

    #[test]
    fn nesting_tracks_parents_and_ordering() {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        tracing_start();
        let outer = span_with("outer", &[("k", FieldValue::Int(1))]);
        let outer_id = outer.id();
        let inner = span("inner");
        let inner_id = inner.id();
        let inner_elapsed = inner.close();
        let outer_elapsed = outer.close();
        let events = tracing_stop();

        assert_eq!(events.len(), 4);
        assert_eq!(events[0].kind, EventKind::Open);
        assert_eq!(events[0].name, "outer");
        assert_eq!(events[0].parent, None);
        assert_eq!(events[1].name, "inner");
        assert_eq!(events[1].parent, Some(outer_id));
        // Close order: inner first, then outer.
        assert_eq!(events[2].kind, EventKind::Close);
        assert_eq!(events[2].id, inner_id);
        assert_eq!(events[3].id, outer_id);
        // The guard's returned duration is the trace's duration.
        assert_eq!(events[2].duration_ns, Some(inner_elapsed.as_nanos() as u64));
        assert_eq!(events[3].duration_ns, Some(outer_elapsed.as_nanos() as u64));
        // Children nest in time: inner opened after outer, closed before.
        assert!(events[1].ts_ns >= events[0].ts_ns);
        assert!(events[2].ts_ns <= events[3].ts_ns);
        assert!(inner_elapsed <= outer_elapsed);
    }

    #[test]
    fn drop_closes_and_siblings_share_parent() {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        tracing_start();
        {
            let _outer = span("outer");
            let _a = span("a");
            drop(_a);
            let _b = span("b");
        }
        let events = tracing_stop();
        let opens: Vec<_> =
            events.iter().filter(|e| e.kind == EventKind::Open).collect();
        assert_eq!(opens.len(), 3);
        assert_eq!(opens[1].parent, Some(opens[0].id));
        assert_eq!(opens[2].parent, Some(opens[0].id), "siblings share the outer parent");
        assert_eq!(events.iter().filter(|e| e.kind == EventKind::Close).count(), 3);
    }

    #[test]
    fn jsonl_round_trip() {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        tracing_start();
        let outer = span_with(
            "trial",
            &[
                ("pipeline", FieldValue::Str("arima \"x\"".into())),
                ("signal", FieldValue::Str("S-1".into())),
                ("attempt", FieldValue::UInt(2)),
                ("score", FieldValue::Float(0.25)),
                ("ok", FieldValue::Bool(true)),
            ],
        );
        let inner = span("primitive.fit");
        inner.close();
        outer.close();
        let events = tracing_stop();
        let text = export_jsonl(&events);
        assert_eq!(text.lines().count(), 4);
        let parsed = parse_jsonl(&text).unwrap();
        assert_eq!(parsed, events);
    }

    #[test]
    fn parse_rejects_garbage_with_line_number() {
        let err = parse_jsonl("{\"event\":\"open\"}\nnot json\n").unwrap_err();
        assert!(err.contains("line"), "{err}");
        assert!(parse_jsonl("").unwrap().is_empty());
        assert!(parse_jsonl("\n\n").unwrap().is_empty());
    }

    #[test]
    fn parse_nesting_depth_is_bounded() {
        let nested = |n: usize| "{\"a\":".repeat(n) + "1" + &"}".repeat(n);
        // Depth MAX_DEPTH parses; the line is rejected later for lacking
        // an event kind, not for its nesting.
        let err = parse_jsonl(&nested(MAX_DEPTH)).unwrap_err();
        assert!(err.contains("bad event kind"), "{err}");
        let err = parse_jsonl(&format!("\n{}", nested(MAX_DEPTH + 1))).unwrap_err();
        assert_eq!(err, "line 2: nesting too deep");
        // Deep enough to overflow the stack without the bound.
        let err = parse_jsonl(&"{\"a\":".repeat(1_000_000)).unwrap_err();
        assert_eq!(err, "line 1: nesting too deep");
    }

    #[test]
    fn trace_tail_and_capacity_keep_the_recent_end() {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_trace_capacity(6);
        tracing_start();
        for i in 0..10 {
            span(&format!("s{i}")).close();
        }
        let tail = trace_tail(4);
        assert_eq!(tail.len(), 4);
        // Each span contributes open+close; the newest close is last.
        assert_eq!(tail[3].kind, EventKind::Close);
        assert_eq!(tail[3].name, "s9");
        assert!(buffer_lock().len() <= 6, "cap must bound the buffer");
        // Tail does not drain: the buffer still holds the same events.
        assert_eq!(trace_tail(4), tail);
        assert!(trace_tail(100).len() <= 6);
        set_trace_capacity(0);
        tracing_stop();
    }

    #[test]
    fn flush_guard_writes_jsonl_even_on_panic_unwind() {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        let path = std::env::temp_dir().join(format!(
            "sintel-obs-flush-{}-{:?}.jsonl",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_file(&path);
        set_trace_sink(Some(path.clone()));
        tracing_start();

        let panicked = std::panic::catch_unwind(|| {
            let _flush = TraceFlushGuard::new();
            let _span = span("doomed.work");
            panic!("injected crash");
        });
        assert!(panicked.is_err());

        let text = std::fs::read_to_string(&path).expect("trace file must exist after panic");
        let events = parse_jsonl(&text).expect("flushed trace must parse");
        assert!(
            events.iter().any(|e| e.name == "doomed.work" && e.kind == EventKind::Close),
            "the panicked span's close event must be on disk: {events:?}"
        );
        // The flush drained the buffer; a second flush is a no-op.
        assert_eq!(flush_trace().expect("flush"), 0);

        set_trace_sink(None);
        tracing_stop();
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn flush_without_sink_leaves_buffer_for_tracing_stop() {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        set_trace_sink(None);
        tracing_start();
        span("kept").close();
        assert_eq!(flush_trace().expect("flush"), 0);
        let events = tracing_stop();
        assert_eq!(events.len(), 2, "no sink: tracing_stop still sees the events");
    }

    #[test]
    fn spans_without_tracing_still_time() {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        TRACING.store(false, Ordering::SeqCst);
        buffer_lock().clear();
        let s = span("untraced");
        std::thread::sleep(Duration::from_millis(2));
        let d = s.close();
        assert!(d >= Duration::from_millis(2));
        assert!(buffer_lock().is_empty());
    }
}
