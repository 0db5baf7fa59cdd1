//! Zero-dependency HTTP status server for live runtime introspection.
//!
//! A deliberately tiny HTTP/1.0-style server on [`std::net::TcpListener`]
//! — no framework, no async runtime, four read-only routes:
//!
//! * `GET /metrics`  — Prometheus text: the global registry plus the
//!   per-tick series of the engine's window of its last 64 ticks
//!   (`_last`, `_window_total`, `_window_per_tick`, and `_window_count`
//!   with p50/p90/p99 for latencies), read from the published snapshot;
//! * `GET /healthz`  — readiness JSON; answers 503 once every tenant is
//!   quarantined (see [`crate::slo::Readiness`]);
//! * `GET /tenants`  — per-tenant SLO summaries as a JSON array;
//! * `GET /trace?n=N` — the most recent `N` trace spans as JSONL
//!   (default 256).
//!
//! Determinism: the server thread only ever *reads* — the published
//! [`crate::slo::StatusSnapshot`] (an `Arc` swap), the global metrics
//! registry and the trace ring. It holds no engine lock and writes nothing the
//! engine's commit path reads, so scraping at any rate cannot perturb
//! committed emissions or persisted bytes; the scrape-under-load
//! property test pins that down bitwise. The only registry writes from
//! this thread are the scrape counters themselves
//! (`sintel_serve_scrapes_total{endpoint}` / `sintel_serve_scrape_errors_total`),
//! which exist outside the determinism boundary by design.
//!
//! Shutdown: [`StatusServer::stop`] (also run on drop) flips a flag and
//! pokes the listener with a loopback connection so the blocking
//! `accept` wakes immediately.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::slo::{current, SharedStatus};

/// Per-connection socket timeout: a stuck scraper cannot wedge the
/// status thread for longer than this.
const IO_TIMEOUT: Duration = Duration::from_secs(2);
/// Default span count for `/trace` when no `n` query is given.
const DEFAULT_TRACE_TAIL: usize = 256;
/// Hard cap on `/trace?n=` to bound response size.
const MAX_TRACE_TAIL: usize = 4096;
/// Longest request line read, terminator included.
const MAX_REQUEST_LINE: usize = 8 * 1024;
/// Most header bytes read after the request line, terminators included.
const MAX_HEADER_BYTES: usize = 16 * 1024;
/// Most header lines accepted.
const MAX_HEADERS: usize = 64;

/// The parts of a request the status server routes on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Request {
    /// Request method, e.g. `GET`.
    pub(crate) method: String,
    /// Request target: path plus optional `?query`.
    pub(crate) target: String,
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum RequestError {
    /// The connection ended before the blank line closing the headers.
    Truncated,
    /// The request line exceeded its byte cap.
    RequestLineTooLong,
    /// The header lines together exceeded their byte cap.
    HeadersTooLarge,
    /// More header lines than the cap.
    TooManyHeaders,
    /// The request line is not UTF-8.
    NotUtf8,
    /// The request line lacks a method or a target.
    Malformed,
    /// The socket failed or timed out mid-request.
    Io(String),
}

impl RequestError {
    /// HTTP status code and reason phrase answering this error.
    pub(crate) fn status(&self) -> (u16, &'static str) {
        match self {
            RequestError::HeadersTooLarge | RequestError::TooManyHeaders => {
                (431, "Request Header Fields Too Large")
            }
            _ => (400, "Bad Request"),
        }
    }
}

impl std::fmt::Display for RequestError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RequestError::Truncated => f.write_str("request ended before its headers did"),
            RequestError::RequestLineTooLong => {
                write!(f, "request line longer than {MAX_REQUEST_LINE} bytes")
            }
            RequestError::HeadersTooLarge => {
                write!(f, "headers longer than {MAX_HEADER_BYTES} bytes")
            }
            RequestError::TooManyHeaders => write!(f, "more than {MAX_HEADERS} headers"),
            RequestError::NotUtf8 => f.write_str("request line is not UTF-8"),
            RequestError::Malformed => f.write_str("request line lacks a method or target"),
            RequestError::Io(e) => write!(f, "read failed: {e}"),
        }
    }
}

/// Read one `\n`-terminated line of at most `cap` bytes into `line`.
/// Returns whether the line ended with `\n`: `false` means the input
/// ended first (`line.len() < cap`) or the cap was reached.
fn read_line_capped(
    reader: &mut impl BufRead,
    cap: usize,
    line: &mut Vec<u8>,
) -> Result<bool, RequestError> {
    line.clear();
    reader
        .by_ref()
        .take(cap as u64)
        .read_until(b'\n', line)
        .map_err(|e| RequestError::Io(e.to_string()))?;
    Ok(line.last() == Some(&b'\n'))
}

/// Parse a request's line and headers from `reader`, reading at most
/// [`MAX_REQUEST_LINE`] + [`MAX_HEADER_BYTES`] bytes. Headers are
/// counted and discarded; nothing after the blank line is read.
pub(crate) fn parse_request(mut reader: impl BufRead) -> Result<Request, RequestError> {
    let mut line = Vec::new();
    if !read_line_capped(&mut reader, MAX_REQUEST_LINE, &mut line)? {
        return Err(if line.len() == MAX_REQUEST_LINE {
            RequestError::RequestLineTooLong
        } else {
            RequestError::Truncated
        });
    }
    let text = std::str::from_utf8(&line).map_err(|_| RequestError::NotUtf8)?;
    let mut parts = text.split_whitespace();
    let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
        return Err(RequestError::Malformed);
    };
    let request = Request { method: method.to_string(), target: target.to_string() };

    let mut header_bytes = 0;
    let mut headers = 0;
    loop {
        let room = MAX_HEADER_BYTES - header_bytes;
        let complete = read_line_capped(&mut reader, room, &mut line)?;
        header_bytes += line.len();
        if !complete {
            return Err(if header_bytes == MAX_HEADER_BYTES {
                RequestError::HeadersTooLarge
            } else {
                RequestError::Truncated
            });
        }
        if line == b"\r\n" || line == b"\n" {
            return Ok(request);
        }
        headers += 1;
        if headers > MAX_HEADERS {
            return Err(RequestError::TooManyHeaders);
        }
    }
}

/// A running status server (see module docs). Stops on drop.
pub struct StatusServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl StatusServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// start serving the given status handle on a background thread.
    pub fn bind(addr: &str, status: SharedStatus) -> std::io::Result<StatusServer> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("sintel-status".to_string())
            .spawn(move || serve_loop(&listener, &flag, &status))?;
        Ok(StatusServer { addr: local, stop, handle: Some(handle) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting and join the server thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept; the connect itself may race the
        // thread already exiting, so its result is irrelevant.
        let _ = TcpStream::connect_timeout(&self.addr, IO_TIMEOUT);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for StatusServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve_loop(listener: &TcpListener, stop: &AtomicBool, status: &SharedStatus) {
    for conn in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match conn {
            Ok(stream) => {
                if handle_connection(stream, status).is_err() {
                    sintel_obs::counter_add("sintel_serve_scrape_errors_total", 1);
                }
            }
            Err(_) => {
                sintel_obs::counter_add("sintel_serve_scrape_errors_total", 1);
            }
        }
    }
}

fn handle_connection(stream: TcpStream, status: &SharedStatus) -> std::io::Result<()> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream);
    let parsed = parse_request(&mut reader);
    let mut stream = reader.into_inner();
    let request = match parsed {
        Ok(request) => request,
        Err(e) => {
            sintel_obs::counter_add("sintel_serve_scrape_errors_total", 1);
            let (code, reason) = e.status();
            // The client may be gone already; the error is counted.
            let _ = respond(&mut stream, code, reason, "text/plain", &format!("{e}\n"));
            return Ok(());
        }
    };
    let (method, target) = (request.method.as_str(), request.target.as_str());
    if method != "GET" {
        return respond(&mut stream, 405, "Method Not Allowed", "text/plain", "GET only\n");
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p, Some(q)),
        None => (target, None),
    };
    let endpoint = match path {
        "/metrics" | "/healthz" | "/tenants" | "/trace" => path.trim_start_matches('/'),
        _ => "unknown",
    };
    sintel_obs::counter_add(
        &sintel_obs::labeled("sintel_serve_scrapes_total", &[("endpoint", endpoint)]),
        1,
    );
    match path {
        "/metrics" => {
            let mut body = sintel_obs::global().snapshot().to_prometheus();
            body.push_str(&current(status).window.to_prometheus());
            respond(&mut stream, 200, "OK", "text/plain; version=0.0.4", &body)
        }
        "/healthz" => {
            let snapshot = current(status);
            let readiness = snapshot.readiness();
            let (code, reason) = match readiness.http_status() {
                200 => (200, "OK"),
                _ => (503, "Service Unavailable"),
            };
            respond(&mut stream, code, reason, "application/json", &snapshot.healthz_json())
        }
        "/tenants" => {
            let snapshot = current(status);
            respond(&mut stream, 200, "OK", "application/json", &snapshot.tenants_json())
        }
        "/trace" => {
            let n = query
                .and_then(|q| {
                    q.split('&').find_map(|pair| {
                        pair.strip_prefix("n=").and_then(|v| v.parse::<usize>().ok())
                    })
                })
                .unwrap_or(DEFAULT_TRACE_TAIL)
                .min(MAX_TRACE_TAIL);
            let body = sintel_obs::export_jsonl(&sintel_obs::trace_tail(n));
            respond(&mut stream, 200, "OK", "application/x-ndjson", &body)
        }
        _ => respond(&mut stream, 404, "Not Found", "text/plain", "not found\n"),
    }
}

fn respond(
    stream: &mut impl Write,
    code: u16,
    reason: &str,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let response = format!(
        "HTTP/1.1 {code} {reason}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::{publish, shared_status, StatusSnapshot};
    use sintel_common::check::{self, shrinks, Config};
    use sintel_common::SintelRng;
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::cell::Cell;
    use std::io::Cursor;

    fn get(addr: SocketAddr, path: &str) -> (u16, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: x\r\n\r\n").as_bytes())
            .expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        let code = raw
            .split_whitespace()
            .nth(1)
            .and_then(|c| c.parse().ok())
            .unwrap_or(0);
        let body = raw.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
        (code, body)
    }

    #[test]
    fn routes_respond_and_stop_joins() {
        let shared = shared_status();
        publish(&shared, StatusSnapshot { ticks: 5, ..StatusSnapshot::default() });
        let server = StatusServer::bind("127.0.0.1:0", Arc::clone(&shared)).expect("bind");
        let addr = server.local_addr();

        let (code, body) = get(addr, "/healthz");
        assert_eq!(code, 200);
        assert!(body.contains("\"ticks\":5"), "healthz body: {body}");

        let (code, body) = get(addr, "/tenants");
        assert_eq!(code, 200);
        assert_eq!(body.trim(), "[]");

        let (code, _body) = get(addr, "/metrics");
        assert_eq!(code, 200);

        let (code, _body) = get(addr, "/trace?n=8");
        assert_eq!(code, 200);

        let (code, _body) = get(addr, "/nope");
        assert_eq!(code, 404);

        server.stop();
    }

    /// Parse `bytes`; also return how many bytes the parser consumed.
    fn parse(bytes: &[u8]) -> (Result<Request, RequestError>, usize) {
        let mut cursor = Cursor::new(bytes);
        let result = parse_request(&mut cursor);
        (result, cursor.position() as usize)
    }

    fn with_headers(n: usize) -> Vec<u8> {
        let mut req = b"GET /metrics HTTP/1.1\r\n".to_vec();
        for i in 0..n {
            req.extend_from_slice(format!("X-H{i}: v\r\n").as_bytes());
        }
        req.extend_from_slice(b"\r\n");
        req
    }

    #[test]
    fn parses_line_and_stops_at_blank_line() {
        let raw = b"GET /trace?n=8 HTTP/1.1\r\nHost: x\r\nAccept: */*\r\n\r\nBODY";
        let (result, consumed) = parse(raw);
        let expected = Request { method: "GET".into(), target: "/trace?n=8".into() };
        assert_eq!(result, Ok(expected.clone()));
        assert_eq!(&raw[consumed..], b"BODY", "nothing after the headers is read");
        // Bare LF terminators and no headers at all are accepted too.
        assert_eq!(parse(b"GET /trace?n=8\n\n").0, Ok(expected));
    }

    #[test]
    fn oversized_request_line_is_refused_within_its_cap() {
        let mut raw = b"GET /".to_vec();
        raw.resize(3 * MAX_REQUEST_LINE, b'a');
        raw.extend_from_slice(b" HTTP/1.1\r\n\r\n");
        let (result, consumed) = parse(&raw);
        assert_eq!(result, Err(RequestError::RequestLineTooLong));
        assert_eq!(consumed, MAX_REQUEST_LINE);
        assert_eq!(RequestError::RequestLineTooLong.status().0, 400);
    }

    #[test]
    fn header_count_and_bytes_are_capped() {
        assert!(parse(&with_headers(MAX_HEADERS)).0.is_ok());
        assert_eq!(parse(&with_headers(MAX_HEADERS + 1)).0, Err(RequestError::TooManyHeaders));

        let mut raw = b"GET / HTTP/1.1\r\nX-Big: ".to_vec();
        raw.resize(4 * MAX_HEADER_BYTES, b'b');
        raw.extend_from_slice(b"\r\n\r\n");
        let (result, consumed) = parse(&raw);
        assert_eq!(result, Err(RequestError::HeadersTooLarge));
        assert_eq!(consumed, "GET / HTTP/1.1\r\n".len() + MAX_HEADER_BYTES);
        assert_eq!(RequestError::HeadersTooLarge.status().0, 431);
        assert_eq!(RequestError::TooManyHeaders.status().0, 431);
    }

    #[test]
    fn non_utf8_and_malformed_lines_are_typed() {
        assert_eq!(parse(b"GET /\xff\xfe HTTP/1.1\r\n\r\n").0, Err(RequestError::NotUtf8));
        assert_eq!(parse(b"GET\r\n\r\n").0, Err(RequestError::Malformed));
        assert_eq!(parse(b"\r\n\r\n").0, Err(RequestError::Malformed));
        assert_eq!(RequestError::NotUtf8.status().0, 400);
    }

    #[test]
    fn every_truncation_is_typed() {
        let raw = with_headers(3);
        for cut in 0..raw.len() {
            assert_eq!(parse(&raw[..cut]).0, Err(RequestError::Truncated), "cut at {cut}");
        }
        assert!(parse(&raw).0.is_ok());
    }

    /// A well-formed request, then 1–4 byte-level mutations.
    fn gen_mutated(rng: &mut SintelRng) -> Vec<u8> {
        let route = *rng.choice(&["/metrics", "/healthz", "/tenants", "/trace?n=3", "/x"]);
        let mut raw = format!("GET {route} HTTP/1.1\r\n").into_bytes();
        for i in 0..rng.index(6) {
            raw.extend_from_slice(format!("X-{i}: {}\r\n", rng.next_u64()).as_bytes());
        }
        raw.extend_from_slice(b"\r\n");
        for _ in 0..1 + rng.index(4) {
            let at = rng.index(raw.len() + 1);
            match rng.index(6) {
                0 if at < raw.len() => raw[at] = rng.next_u64() as u8,
                1 => raw.truncate(at),
                2 => {
                    let end = (at + 1 + rng.index(16)).min(raw.len());
                    raw.drain(at.min(end)..end);
                }
                3 => {
                    // A long run: reaches the line and header byte caps.
                    let byte = *rng.choice(&[b'a', b' ', b'\r', 0xff]);
                    let run = rng.index(3 * MAX_HEADER_BYTES);
                    raw.splice(at..at, std::iter::repeat_n(byte, run));
                }
                4 => {
                    // Many short lines: reaches the header count cap.
                    let lines = rng.index(2 * MAX_HEADERS);
                    raw.splice(at..at, b"A: b\r\n".repeat(lines));
                }
                _ => raw.insert(at, rng.next_u64() as u8),
            }
        }
        raw
    }

    /// Byte-mutated requests never panic, always get a typed answer,
    /// and never make the parser read past its caps. A failing case
    /// replays from `SINTEL_CHECK_SEED`.
    #[test]
    fn mutated_requests_get_typed_answers_within_the_caps() {
        let seen = std::cell::RefCell::new(std::collections::BTreeSet::new());
        check::forall(
            "mutated requests parse or fail typed",
            &Config::default().cases(512),
            gen_mutated,
            shrinks::none,
            |raw| {
                let (result, consumed) = parse(raw);
                if consumed > MAX_REQUEST_LINE + MAX_HEADER_BYTES {
                    return Err(format!("read {consumed} bytes, past the caps"));
                }
                match &result {
                    Ok(req) if req.method.is_empty() || req.target.is_empty() => {
                        return Err(format!("empty token in {req:?}"))
                    }
                    Ok(_) => {}
                    Err(e) => {
                        let code = e.status().0;
                        if code != 400 && code != 431 {
                            return Err(format!("{e:?} answers {code}"));
                        }
                    }
                }
                let label = match result {
                    Ok(_) => "ok".to_string(),
                    Err(RequestError::Io(_)) => return Err("a slice cannot fail to read".into()),
                    Err(e) => format!("{e:?}"),
                };
                seen.borrow_mut().insert(label);
                Ok(())
            },
        );
        let seen = seen.into_inner();
        for class in [
            "ok",
            "Truncated",
            "RequestLineTooLong",
            "HeadersTooLarge",
            "TooManyHeaders",
            "NotUtf8",
        ] {
            assert!(seen.contains(class), "the generator never reached {class}: {seen:?}");
        }
    }

    /// Counts the bytes each thread requests (`alloc`, `alloc_zeroed`
    /// and the new size of a `realloc`). It is the global allocator of
    /// this crate's whole unit-test binary.
    struct CountingAlloc;

    thread_local! {
        // `const` init: creating the counter must not allocate.
        static ALLOC_BYTES: Cell<u64> = const { Cell::new(0) };
    }

    fn bump(bytes: usize) {
        let _ = ALLOC_BYTES.try_with(|c| c.set(c.get() + bytes as u64));
    }

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            bump(layout.size());
            unsafe { System.alloc(layout) }
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            unsafe { System.dealloc(ptr, layout) }
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            bump(layout.size());
            unsafe { System.alloc_zeroed(layout) }
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            bump(new_size);
            unsafe { System.realloc(ptr, layout, new_size) }
        }
    }

    #[global_allocator]
    static COUNTER: CountingAlloc = CountingAlloc;

    /// Parsing allocates in proportion to the bytes it reads, and it
    /// reads no more than its caps, so no request makes it allocate
    /// more than a fixed amount.
    #[test]
    fn parsing_allocates_in_proportion_to_what_it_reads() {
        check::forall(
            "parse_request allocations <= 1 KiB + 32 x bytes read",
            &Config::default().cases(512),
            gen_mutated,
            shrinks::none,
            |raw| {
                let mut cursor = Cursor::new(&raw[..]);
                let before = ALLOC_BYTES.with(Cell::get);
                let _ = parse_request(&mut cursor);
                let allocated = ALLOC_BYTES.with(Cell::get) - before;
                let read = cursor.position();
                if allocated > 1024 + 32 * read {
                    return Err(format!("reading {read} bytes allocated {allocated}"));
                }
                Ok(())
            },
        );
    }

    #[test]
    fn oversized_request_gets_431_and_counts_a_scrape_error() {
        let errors = || {
            sintel_obs::global().snapshot().counter("sintel_serve_scrape_errors_total").unwrap_or(0)
        };
        let server = StatusServer::bind("127.0.0.1:0", shared_status()).expect("bind");
        let before = errors();
        let mut stream = TcpStream::connect(server.local_addr()).expect("connect");
        stream.write_all(&with_headers(MAX_HEADERS + 1)).expect("write");
        let mut raw = String::new();
        stream.read_to_string(&mut raw).expect("read");
        assert!(raw.starts_with("HTTP/1.1 431 "), "{raw}");
        server.stop();
        assert!(errors() > before, "the refused request must count as a scrape error");
    }
}
