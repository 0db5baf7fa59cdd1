//! Nested spans on one monotonic clock, with a JSON-lines trace.
//!
//! [`span_with`] opens a span; dropping (or [`SpanGuard::close`]-ing)
//! the guard closes it. Parent/child nesting is tracked per thread, so
//! a pipeline's `primitive.fit` spans nest under its `pipeline.fit`
//! span automatically. When tracing is active ([`tracing_start`]),
//! every open and close appends a [`TraceEvent`] to the process trace
//! buffer; [`export_jsonl`] renders the buffer one JSON object per
//! line and [`parse_jsonl`] reads it back, so a whole benchmark run
//! can be replayed as a flamegraph-style timeline. Span names are
//! `&'static str` literals of the dotted taxonomy, so a span opened
//! while tracing is off allocates nothing for its name.
//!
//! Timing: every span measures its duration with `Instant` regardless
//! of whether tracing is active, and [`SpanGuard::close`] returns it —
//! callers that need the number (e.g. `PipelineProfile`) therefore see
//! the *same* measurement the trace records.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

use sintel_common::json::{self, Doc};

use crate::FieldValue;

/// Process-wide monotonic anchor: all trace timestamps are nanoseconds
/// since the first span (or trace start) of the process.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static TRACING: AtomicBool = AtomicBool::new(false);

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
    /// Structured fields (open events only), sorted by key with each
    /// key once — the order and uniqueness of a JSON object, so an
    /// event survives [`export_jsonl`] → [`parse_jsonl`] unchanged.
    pub fields: Vec<(String, FieldValue)>,
}

impl TraceEvent {
    /// Render as one JSON object (one line of the JSONL trace), keys
    /// sorted. `duration_ns` and `fields` are omitted when empty.
    pub fn to_json(&self) -> String {
        let kind = match self.kind {
            EventKind::Open => "open",
            EventKind::Close => "close",
        };
        let mut doc = Doc::obj()
            .with("event", kind)
            .with("id", self.id)
            .with("parent", self.parent.map_or(Doc::Null, Doc::from))
            .with("name", self.name.as_str())
            .with("ts_ns", self.ts_ns);
        if let Some(d) = self.duration_ns {
            doc.set("duration_ns", d);
        }
        if !self.fields.is_empty() {
            let fields = self.fields.iter().map(|(k, v)| (k.clone(), Doc::from(v))).collect();
            doc.set("fields", Doc::Obj(fields));
        }
        json::to_json(&doc)
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
    name: &'static str,
    start: Instant,
    start_ns: u64,
    closed: bool,
}

/// Open a span with no fields.
pub fn span(name: &'static str) -> SpanGuard {
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
pub fn span_with(name: &'static str, fields: &[(&str, FieldValue)]) -> SpanGuard {
    open_span(name, fields, None)
}

/// Open a span whose parent is set explicitly instead of taken from
/// this thread's stack — the cross-thread attribution primitive. The
/// new span is still pushed onto the *current* thread's stack, so
/// spans opened underneath it on this thread nest correctly.
pub fn span_with_parent(
    name: &'static str,
    fields: &[(&str, FieldValue)],
    parent: Option<u64>,
) -> SpanGuard {
    open_span(name, fields, Some(parent))
}

/// `forced_parent`: `None` = inherit this thread's innermost span,
/// `Some(p)` = record exactly `p` (which may itself be `None` for an
/// explicit root).
fn open_span(
    name: &'static str,
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
        let mut fields: Vec<_> =
            fields.iter().map(|(k, v)| (k.to_string(), v.clone())).collect();
        fields.sort_by(|a, b| a.0.cmp(&b.0));
        fields.dedup_by(|later, earlier| later.0 == earlier.0);
        buffer_lock().push(TraceEvent {
            kind: EventKind::Open,
            id,
            parent,
            name: name.to_string(),
            ts_ns: start_ns,
            duration_ns: None,
            fields,
        });
    }
    SpanGuard { id, parent, name, start, start_ns, closed: false }
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
            buffer_lock().push(TraceEvent {
                kind: EventKind::Close,
                id: self.id,
                parent: self.parent,
                name: self.name.to_string(),
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

/// Parse a JSON-lines trace produced by [`export_jsonl`]. Blank lines
/// are skipped. Each line goes through [`sintel_common::json`]; any
/// malformed line — bad JSON (including objects nested more than
/// [`json::MAX_DEPTH`] levels deep), trailing characters, or an event
/// whose `id`, `parent`, `ts_ns` or `duration_ns` is not a
/// non-negative integer — is an error naming its line number.
pub fn parse_jsonl(text: &str) -> Result<Vec<TraceEvent>, String> {
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        events.push(parse_event(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(events)
}

/// A non-negative integer field of an event line.
fn uint(value: Option<&Doc>, what: &str) -> Result<u64, String> {
    match value {
        Some(Doc::I64(n)) if *n >= 0 => Ok(*n as u64),
        other => Err(format!("bad {what}: {other:?}")),
    }
}

fn parse_event(line: &str) -> Result<TraceEvent, String> {
    let doc = json::from_json(line).map_err(|e| e.message)?;
    if !matches!(doc, Doc::Obj(_)) {
        return Err("trace line is not a JSON object".to_string());
    }
    let kind = match doc.get("event").and_then(Doc::as_str) {
        Some("open") => EventKind::Open,
        Some("close") => EventKind::Close,
        _ => return Err(format!("bad event kind {:?}", doc.get("event"))),
    };
    let id = uint(doc.get("id"), "id")?;
    let parent = match doc.get("parent") {
        Some(Doc::Null) | None => None,
        some => Some(uint(some, "parent")?),
    };
    let name = match doc.get("name") {
        Some(Doc::Str(s)) => s.clone(),
        other => return Err(format!("bad name: {other:?}")),
    };
    let ts_ns = uint(doc.get("ts_ns"), "ts_ns")?;
    let duration_ns = match doc.get("duration_ns") {
        None => None,
        some => Some(uint(some, "duration_ns")?),
    };
    let fields = match doc.get("fields") {
        None => Vec::new(),
        Some(Doc::Obj(entries)) => entries
            .iter()
            .map(|(k, v)| {
                let fv = match v {
                    Doc::Str(s) => FieldValue::Str(s.clone()),
                    Doc::I64(n) if *n >= 0 => FieldValue::UInt(*n as u64),
                    Doc::I64(n) => FieldValue::Int(*n),
                    Doc::F64(f) => FieldValue::Float(*f),
                    Doc::Bool(b) => FieldValue::Bool(*b),
                    Doc::Null => FieldValue::Float(f64::NAN),
                    Doc::Arr(_) | Doc::Obj(_) => {
                        return Err(format!("field {k:?} is not a scalar"))
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
    use sintel_common::check::{self, gens, shrinks};
    use sintel_common::json::MAX_DEPTH;
    use sintel_common::SintelRng;
    use std::collections::BTreeMap;
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
    fn parse_rejects_ids_that_are_not_non_negative_integers() {
        let line = |key: &str, value: &str| {
            let mut fields = BTreeMap::from([
                ("event", "\"close\""),
                ("id", "1"),
                ("parent", "null"),
                ("name", "\"s\""),
                ("ts_ns", "5"),
                ("duration_ns", "2"),
            ]);
            fields.insert(key, value);
            let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            format!("{{{}}}", body.join(","))
        };
        assert!(parse_jsonl(&line("id", "1")).is_ok());
        for key in ["id", "parent", "ts_ns", "duration_ns"] {
            for bad in ["-1", "1.5", "1e30", "\"1\"", "true"] {
                let err = parse_jsonl(&format!("\n{}", line(key, bad))).unwrap_err();
                assert!(err.starts_with(&format!("line 2: bad {key}")), "{key}={bad}: {err}");
            }
        }
    }

    #[test]
    fn parse_rejects_trailing_characters() {
        let event = TraceEvent {
            kind: EventKind::Open,
            id: 3,
            parent: Some(1),
            name: "s".to_string(),
            ts_ns: 7,
            duration_ns: None,
            fields: Vec::new(),
        };
        let line = event.to_json();
        assert_eq!(parse_jsonl(&line).unwrap(), vec![event]);
        for tail in ["x", "}", ",{}", " {\"event\":\"open\"}"] {
            let err = parse_jsonl(&format!("{line}{tail}")).unwrap_err();
            assert_eq!(err, "line 1: trailing characters", "{tail:?}");
        }
    }

    /// Field floats a lossy writer gets wrong: integral values at and
    /// beyond 1e15, tiny exponents, signed zero, the extremes.
    const EDGE_FLOATS: &[f64] =
        &[1e15, 1e16, 1e20, 1e-7, -0.0, 0.0, 3.0, -2.5e300, f64::MAX, 5e-324];

    /// An integer in `0..=i64::MAX`, the range JSON carries exactly.
    fn random_uint(rng: &mut SintelRng) -> u64 {
        let any = rng.next_u64() >> 1;
        *rng.choice(&[0, i64::MAX as u64, any])
    }

    fn random_field(rng: &mut SintelRng) -> FieldValue {
        match rng.index(5) {
            0 => FieldValue::Str(gens::escape_heavy_string(rng)),
            1 => FieldValue::UInt(random_uint(rng)),
            2 => {
                let any = rng.next_u64() as i64;
                FieldValue::Int(*rng.choice(&[i64::MIN, -1, 0, any]))
            }
            3 if rng.chance(0.5) => FieldValue::Float(*rng.choice(EDGE_FLOATS)),
            3 => FieldValue::Float(rng.normal(0.0, 1e18)),
            _ => FieldValue::Bool(rng.chance(0.5)),
        }
    }

    /// A random event; its fields are sorted by key with each key once,
    /// as [`TraceEvent::fields`] documents.
    fn random_event(rng: &mut SintelRng) -> TraceEvent {
        let kind = if rng.chance(0.5) { EventKind::Open } else { EventKind::Close };
        let fields: BTreeMap<String, FieldValue> = (0..rng.index(5))
            .map(|_| (gens::escape_heavy_string(rng), random_field(rng)))
            .collect();
        TraceEvent {
            kind,
            id: random_uint(rng),
            parent: rng.chance(0.5).then(|| random_uint(rng)),
            name: gens::escape_heavy_string(rng),
            ts_ns: random_uint(rng),
            duration_ns: rng.chance(0.5).then(|| random_uint(rng)),
            fields: fields.into_iter().collect(),
        }
    }

    /// Field equality up to JSON's single integer type (a non-negative
    /// `Int(n)` reads back as `UInt(n)`); floats compare by bits.
    fn same_field(a: &FieldValue, b: &FieldValue) -> bool {
        match (a, b) {
            (FieldValue::Float(x), FieldValue::Float(y)) => x.to_bits() == y.to_bits(),
            (FieldValue::Int(n), FieldValue::UInt(m)) => *n >= 0 && *n as u64 == *m,
            _ => a == b,
        }
    }

    fn same_event(a: &TraceEvent, b: &TraceEvent) -> bool {
        let bare = |e: &TraceEvent| TraceEvent { fields: Vec::new(), ..e.clone() };
        bare(a) == bare(b)
            && a.fields.len() == b.fields.len()
            && a.fields.iter().zip(&b.fields).all(|((ka, va), (kb, vb))| {
                ka == kb && same_field(va, vb)
            })
    }

    #[test]
    fn prop_jsonl_round_trip_is_lossless() {
        check::forall(
            "parse_jsonl(export_jsonl(events)) == events",
            &check::Config::default().cases(256),
            |rng| (0..1 + rng.index(4)).map(|_| random_event(rng)).collect::<Vec<_>>(),
            |events| shrinks::truncate_vec(events),
            |events| {
                let text = export_jsonl(events);
                let back = parse_jsonl(&text).map_err(|e| format!("{e}\n{text}"))?;
                let same = events.iter().zip(&back).all(|(a, b)| same_event(a, b));
                if back.len() != events.len() || !same {
                    return Err(format!("round trip changed the events into {back:?}\n{text}"));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn trace_tail_keeps_the_recent_end() {
        let _guard = GUARD.lock().unwrap_or_else(|e| e.into_inner());
        tracing_start();
        const NAMES: [&str; 10] = ["s0", "s1", "s2", "s3", "s4", "s5", "s6", "s7", "s8", "s9"];
        for name in NAMES {
            span(name).close();
        }
        let tail = trace_tail(4);
        assert_eq!(tail.len(), 4);
        // Each span contributes open+close; the newest close is last.
        assert_eq!(tail[3].kind, EventKind::Close);
        assert_eq!(tail[3].name, "s9");
        // Tail does not drain: the buffer still holds the same events.
        assert_eq!(trace_tail(4), tail);
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
