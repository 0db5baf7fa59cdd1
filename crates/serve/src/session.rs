//! Per-tenant streaming sessions: sliding-window buffers, detection
//! passes, and incremental checkpoints with their recovery.
//!
//! The determinism contract of the serving tier lives here: **emissions
//! are a pure function of the accepted event sequence**. Two mechanisms
//! make that true:
//!
//! * passes fire at *event-count boundaries* (every `hop`-th sample
//!   absorbed into a signal's buffer), never at tick or wall-clock
//!   boundaries, so how callers batch `offer`/`tick` cannot change what
//!   is detected;
//! * every pass rebuilds and refits its pipeline on the buffered window
//!   (a pure function of the window), so a session recovered from a
//!   checkpoint produces byte-identical emissions to one that never
//!   crashed.
//!
//! Buffer appends are idempotent (stale timestamps are dropped), which
//! upgrades at-least-once ingest replay into exactly-once absorption —
//! the crash-recovery property test replays the *whole* stream from the
//! beginning and still gets an identical committed event sequence.

use std::collections::BTreeMap;

use sintel_obs::Histogram;
use sintel_pipeline::policy::{run_with_policy, Failure, FailureKind};
use sintel_pipeline::Template;
use sintel_store::{Doc, SintelDb};
use sintel_timeseries::Signal;

use crate::breaker::{Breaker, BreakerEvent, BreakerState};
use crate::engine::ServeConfig;
use crate::event::{AnomalyEvent, IngestEvent};
use crate::{Result, ServeError};

/// Sliding sample buffer for one signal of one tenant.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalBuffer {
    timestamps: Vec<i64>,
    values: Vec<f64>,
    /// Samples ever absorbed (drives the `hop` pass schedule; never
    /// decreases when the buffer slides).
    ingested: u64,
    /// Emission watermark: anomaly intervals ending at or before this
    /// timestamp have already been emitted. Deduplicates re-detections
    /// of the same anomaly on successive overlapping windows.
    emitted_until: i64,
}

impl SignalBuffer {
    fn new() -> Self {
        Self { timestamps: Vec::new(), values: Vec::new(), ingested: 0, emitted_until: i64::MIN }
    }

    /// Absorb one sample; returns `false` for stale/duplicate
    /// timestamps (idempotent replay). Slides the window past `window`
    /// samples.
    fn push(&mut self, timestamp: i64, value: f64, window: usize) -> bool {
        if self.timestamps.last().is_some_and(|&last| timestamp <= last) {
            return false;
        }
        self.timestamps.push(timestamp);
        self.values.push(value);
        self.ingested += 1;
        if self.timestamps.len() > window {
            let excess = self.timestamps.len() - window;
            self.timestamps.drain(..excess);
            self.values.drain(..excess);
        }
        true
    }

    /// Buffered sample count.
    pub fn len(&self) -> usize {
        self.timestamps.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.timestamps.is_empty()
    }

    /// Newest buffered timestamp.
    pub fn last_timestamp(&self) -> Option<i64> {
        self.timestamps.last().copied()
    }
}

/// Everything one tick of processing produced for one tenant, for the
/// engine to commit, count and expose as metrics.
#[derive(Debug, Default, Clone)]
pub struct PassReport {
    /// Newly emitted anomaly events, emission order.
    pub events: Vec<AnomalyEvent>,
    /// Samples actually absorbed into buffers.
    pub absorbed: u64,
    /// Stale/duplicate samples dropped by idempotent replay.
    pub stale_dropped: u64,
    /// Detection passes attempted.
    pub passes_run: u64,
    /// Scheduled passes skipped (breaker open or tenant quarantined).
    pub passes_skipped: u64,
    /// Attempted passes that failed their run policy.
    pub pass_failures: u64,
    /// Wall time of each detection pass (volatile: the only
    /// nondeterministic field in a report; never feeds back into
    /// emission decisions).
    pub pass_latency: Histogram,
    /// Breaker trips that happened this tick.
    pub tripped: u64,
    /// The tenant degraded to the fallback pipeline this tick.
    pub degraded_now: bool,
    /// The tenant was quarantined this tick.
    pub quarantined_now: bool,
}

/// Count one breaker state transition in the global metrics registry,
/// labelled by destination state. Purely observational: emission
/// decisions never read the registry back.
fn breaker_transition(to: &str) {
    sintel_obs::counter_add(
        &sintel_obs::labeled("sintel_serve_breaker_transitions_total", &[("to", to)]),
        1,
    );
}

/// One tenant's streaming session state.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSession {
    tenant: String,
    /// Scheduled detection passes so far (the breaker's logical clock).
    pass_counter: u64,
    /// Next emission sequence number.
    next_seq: u64,
    /// Running on the cheap fallback pipeline.
    degraded: bool,
    /// Permanently parked after repeated breaker trips.
    quarantined: bool,
    breaker: Breaker,
    buffers: BTreeMap<String, SignalBuffer>,
}

impl TenantSession {
    /// A fresh session for `tenant`.
    pub fn new(tenant: &str) -> Self {
        Self {
            tenant: tenant.to_string(),
            pass_counter: 0,
            next_seq: 0,
            degraded: false,
            quarantined: false,
            breaker: Breaker::new(),
            buffers: BTreeMap::new(),
        }
    }

    /// Tenant name.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// Scheduled pass count.
    pub fn pass_counter(&self) -> u64 {
        self.pass_counter
    }

    /// Next emission sequence number.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Whether the session runs the fallback pipeline.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Whether the session is permanently parked.
    pub fn is_quarantined(&self) -> bool {
        self.quarantined
    }

    /// The session's circuit breaker.
    pub fn breaker(&self) -> &Breaker {
        &self.breaker
    }

    /// Buffered signal names, sorted.
    pub fn signals(&self) -> Vec<&str> {
        self.buffers.keys().map(String::as_str).collect()
    }

    /// One signal's buffer, if any samples arrived for it.
    pub fn buffer(&self, signal: &str) -> Option<&SignalBuffer> {
        self.buffers.get(signal)
    }

    /// Switch to the fallback pipeline (graceful degradation). The
    /// engine calls this when a tenant's backlog exceeds the degrade
    /// depth; sessions also self-degrade on a pass timeout.
    pub fn degrade(&mut self, report: &mut PassReport) {
        if !self.degraded {
            self.degraded = true;
            report.degraded_now = true;
        }
    }

    /// Absorb one ingest event, running any detection pass that falls
    /// due at this event-count boundary. `template` is the tenant's
    /// configured pipeline; the fallback and all scheduling knobs come
    /// from `cfg`.
    pub fn absorb(
        &mut self,
        event: &IngestEvent,
        template: &Template,
        cfg: &ServeConfig,
        report: &mut PassReport,
    ) {
        let buffer = self.buffers.entry(event.signal.clone()).or_insert_with(SignalBuffer::new);
        if !buffer.push(event.timestamp, event.value, cfg.window) {
            report.stale_dropped += 1;
            return;
        }
        report.absorbed += 1;
        let due = buffer.ingested.is_multiple_of(cfg.hop) && buffer.len() >= cfg.min_points;
        if !due {
            return;
        }
        self.pass_counter += 1;
        if self.quarantined {
            report.passes_skipped += 1;
            return;
        }
        let was_open = matches!(self.breaker.state(), BreakerState::Open { .. });
        if !self.breaker.try_pass(self.pass_counter) {
            report.passes_skipped += 1;
            return;
        }
        if was_open {
            // Cooldown elapsed: Open -> HalfOpen, probe allowed through.
            breaker_transition("half_open");
        }
        self.run_pass(&event.signal, template, cfg, report);
    }

    /// One detection pass over `signal`'s buffered window, under the
    /// run policy. Success emits watermark-deduplicated events; failure
    /// feeds the breaker (and a timeout degrades the tenant first).
    fn run_pass(
        &mut self,
        signal: &str,
        template: &Template,
        cfg: &ServeConfig,
        report: &mut PassReport,
    ) {
        let pass = self.pass_counter;
        let Some(buffer) = self.buffers.get(signal) else {
            return;
        };
        // Buffer timestamps are strictly increasing by construction, so
        // this cannot fail; bail out defensively rather than unwrap.
        let Ok(snapshot) =
            Signal::univariate(signal, buffer.timestamps.clone(), buffer.values.clone())
        else {
            return;
        };
        let chosen = if self.degraded { cfg.fallback.clone() } else { template.clone() };
        let task = move || {
            let mut pipeline = chosen.build_default()?;
            Ok::<_, Failure>(pipeline.fit_and_detect(snapshot)?)
        };
        report.passes_run += 1;
        let span = sintel_obs::span_with(
            "serve.pass",
            &[("tenant", sintel_obs::FieldValue::from(self.tenant.as_str()))],
        );
        let (result, _attempts) = run_with_policy(&cfg.policy, task);
        let elapsed = span.close();
        sintel_obs::observe_duration("sintel_serve_pass_seconds", elapsed);
        report.pass_latency.observe(elapsed.as_secs_f64());
        match result {
            Ok(mut intervals) => {
                let was_half_open = matches!(self.breaker.state(), BreakerState::HalfOpen);
                self.breaker.on_success();
                if was_half_open {
                    breaker_transition("closed");
                }
                // find_anomalies returns sorted intervals; re-sort
                // defensively so emission order (and therefore seq
                // assignment) never depends on a primitive's internals.
                intervals.sort_by_key(|iv| (iv.interval.start, iv.interval.end));
                let Some(buffer) = self.buffers.get_mut(signal) else {
                    return;
                };
                for iv in intervals {
                    if iv.interval.end <= buffer.emitted_until {
                        continue;
                    }
                    report.events.push(AnomalyEvent {
                        tenant: self.tenant.clone(),
                        signal: signal.to_string(),
                        seq: self.next_seq,
                        start: iv.interval.start,
                        end: iv.interval.end,
                        severity: iv.score,
                        pass,
                    });
                    self.next_seq += 1;
                    buffer.emitted_until = iv.interval.end;
                }
            }
            Err(failure) => {
                report.pass_failures += 1;
                if failure.kind == FailureKind::Timeout && !self.degraded {
                    // Overload path: swap to the cheap fallback before
                    // burning breaker strikes — the tenant keeps
                    // getting (coarser) detections.
                    self.degrade(report);
                    return;
                }
                match self.breaker.on_failure(
                    pass,
                    cfg.breaker_threshold,
                    cfg.breaker_cooldown,
                    cfg.quarantine_trips,
                ) {
                    BreakerEvent::Tripped => {
                        report.tripped += 1;
                        breaker_transition("open");
                    }
                    BreakerEvent::Quarantined => {
                        report.tripped += 1;
                        self.quarantined = true;
                        report.quarantined_now = true;
                        breaker_transition("open");
                        breaker_transition("quarantined");
                    }
                    BreakerEvent::Counted => {}
                }
            }
        }
    }

    // ---- checkpoint and recovery ---------------------------------------

    /// Write this session's checkpoint into `slot`, in time proportional
    /// to the samples absorbed since the slot's last checkpoint, not to
    /// the window: per signal, one chunk holding those new samples is
    /// inserted, chunks that slid wholly out of the window (ending at or
    /// before `ingested - len`) are deleted, and the small metadata
    /// document is upserted. While the newest chunk holds fewer than
    /// `cfg.hop` samples it is extended in place instead, so a signal
    /// keeps at most ⌈window/hop⌉ + 1 chunks at any tick cadence and a
    /// checkpoint writes fewer than `hop` + new samples. Every other
    /// chunk is immutable. Called inside the engine's group commit;
    /// every store write surfaces its error.
    pub fn checkpoint(
        &self,
        db: &SintelDb,
        slot: &mut CheckpointSlot,
        cfg: &ServeConfig,
    ) -> Result<()> {
        for (signal, buffer) in &self.buffers {
            let live = slot.chunks.entry(signal.clone()).or_default();
            if slot.stale {
                for chunk in live.drain(..) {
                    db.delete_serve_chunk(chunk.id)?;
                }
            }
            let start = buffer.ingested.saturating_sub(buffer.len() as u64);
            let persisted = live.last().map_or(start, |c| c.end).max(start);
            if persisted < buffer.ingested {
                let short = live.last().filter(|c| c.first >= start && c.end - c.first < cfg.hop);
                let (id, first) = match short {
                    Some(c) => (Some(c.id), c.first),
                    None => (None, persisted),
                };
                let from = buffer.len() - (buffer.ingested - first) as usize;
                let id = db.upsert_serve_chunk(
                    id,
                    &self.tenant,
                    signal,
                    first,
                    &buffer.timestamps[from..],
                    &buffer.values[from..],
                )?;
                if short.is_some() {
                    live.pop();
                }
                live.push(ChunkRef { id, first, end: buffer.ingested });
            }
            let expired = live.iter().take_while(|c| c.end <= start).count();
            for chunk in live.drain(..expired) {
                db.delete_serve_chunk(chunk.id)?;
            }
        }
        slot.meta_id = Some(db.upsert_serve_session(slot.meta_id, self.meta_doc())?);
        slot.stale = false;
        Ok(())
    }

    /// The checkpoint metadata document: everything but the samples.
    fn meta_doc(&self) -> Doc {
        let (state, trips) = self.breaker.parts();
        let (label, consecutive, until) = match state {
            BreakerState::Closed { consecutive_failures } => {
                ("closed", consecutive_failures as i64, 0i64)
            }
            BreakerState::Open { until_pass } => ("open", 0, until_pass as i64),
            BreakerState::HalfOpen => ("half_open", 0, 0),
        };
        let signals: Vec<Doc> = self
            .buffers
            .iter()
            .map(|(name, b)| {
                Doc::obj()
                    .with("signal", name.as_str())
                    .with("ingested", b.ingested)
                    .with("emitted_until", b.emitted_until)
                    .with("len", b.len())
            })
            .collect();
        Doc::obj()
            .with("tenant", self.tenant.as_str())
            .with("pass_counter", self.pass_counter)
            .with("next_seq", self.next_seq)
            .with("degraded", self.degraded)
            .with("quarantined", self.quarantined)
            .with("breaker_state", label)
            .with("breaker_consecutive", consecutive)
            .with("breaker_until_pass", until)
            .with("breaker_trips", trips as i64)
            .with("signals", Doc::Arr(signals))
    }

    /// Recover `tenant`'s session and checkpoint slot from `db`: a fresh
    /// session and an empty slot when nothing was checkpointed. Each
    /// window is rebuilt from its signal's chunks sorted by `first`:
    /// those ending at or before the window start (`ingested - len`)
    /// are skipped, and the rest must form one contiguous run ending at
    /// `ingested` and covering the last `len` samples. Any other shape
    /// (gaps, overlaps, a short run, orphan chunks, malformed fields, or
    /// a store written with the earlier inline-window layout) is a
    /// [`ServeError::Checkpoint`], never a panic.
    pub fn recover(db: &SintelDb, tenant: &str) -> Result<(TenantSession, CheckpointSlot)> {
        let Some(meta) = db.serve_session(tenant) else {
            return Ok((TenantSession::new(tenant), CheckpointSlot::default()));
        };
        let mut runs: BTreeMap<String, Vec<Chunk>> = BTreeMap::new();
        for doc in db.serve_chunks(tenant) {
            let chunk = Chunk::decode(&doc)?;
            runs.entry(str_field(&doc, "signal")?).or_default().push(chunk);
        }
        let state = match str_field(&meta, "breaker_state")?.as_str() {
            "closed" => BreakerState::Closed {
                consecutive_failures: u64_field(&meta, "breaker_consecutive")?
                    .min(u64::from(u32::MAX)) as u32,
            },
            "open" => BreakerState::Open { until_pass: u64_field(&meta, "breaker_until_pass")? },
            "half_open" => BreakerState::HalfOpen,
            other => {
                return Err(ServeError::Checkpoint(format!("unknown breaker state '{other}'")))
            }
        };
        let trips = u64_field(&meta, "breaker_trips")?.min(u64::from(u32::MAX)) as u32;
        let mut session = TenantSession {
            tenant: str_field(&meta, "tenant")?,
            pass_counter: u64_field(&meta, "pass_counter")?,
            next_seq: u64_field(&meta, "next_seq")?,
            degraded: bool_field(&meta, "degraded")?,
            quarantined: bool_field(&meta, "quarantined")?,
            breaker: Breaker::from_parts(state, trips),
            buffers: BTreeMap::new(),
        };
        let mut slot =
            CheckpointSlot { meta_id: Some(u64_field(&meta, "_id")?), ..Default::default() };
        let signals = meta
            .get("signals")
            .and_then(Doc::as_arr)
            .ok_or_else(|| ServeError::Checkpoint("missing 'signals' array".to_string()))?;
        for entry in signals {
            let name = str_field(entry, "signal")?;
            let run = runs.remove(&name).unwrap_or_default();
            let (buffer, live) = rebuild_window(&name, run, entry)?;
            if session.buffers.insert(name.clone(), buffer).is_some() {
                return Err(ServeError::Checkpoint(format!("signal '{name}' listed twice")));
            }
            slot.chunks.insert(name, live);
        }
        if let Some(orphan) = runs.keys().next() {
            return Err(ServeError::Checkpoint(format!(
                "chunks for signal '{orphan}', which the checkpoint does not list"
            )));
        }
        Ok((session, slot))
    }
}

/// Where one session's checkpoint lives in the store: the metadata
/// document's id and, per signal, the live window chunks in `first`
/// order. Tenants and the `_self` monitor each own one slot, written
/// by [`TenantSession::checkpoint`] and rebuilt by
/// [`TenantSession::recover`].
#[derive(Debug, Clone, Default)]
pub struct CheckpointSlot {
    meta_id: Option<u64>,
    chunks: BTreeMap<String, Vec<ChunkRef>>,
    /// The store may lack chunks this slot lists (a commit failed after
    /// they were written), so the next checkpoint rewrites every window
    /// whole instead of appending to it.
    stale: bool,
}

impl CheckpointSlot {
    /// Mark the slot stale after a failed commit: the next checkpoint
    /// replaces every live chunk with one holding the whole window, so
    /// a later successful commit leaves a recoverable store.
    pub fn invalidate(&mut self) {
        self.stale = true;
    }
}

/// One live chunk of a slot: its document id and the absolute indices
/// of its first sample and one past its last.
#[derive(Debug, Clone, Copy)]
struct ChunkRef {
    id: u64,
    first: u64,
    end: u64,
}

/// A decoded `serve_chunks` document.
struct Chunk {
    id: u64,
    first: u64,
    timestamps: Vec<i64>,
    values: Vec<f64>,
}

impl Chunk {
    fn decode(doc: &Doc) -> Result<Chunk> {
        let array = |key: &str| {
            doc.get(key)
                .and_then(Doc::as_arr)
                .ok_or_else(|| ServeError::Checkpoint(format!("chunk lacks a '{key}' array")))
        };
        let timestamps = array("timestamps")?
            .iter()
            .map(Doc::as_i64)
            .collect::<Option<Vec<i64>>>()
            .ok_or_else(|| ServeError::Checkpoint("non-integer chunk timestamp".to_string()))?;
        // The JSON codec writes non-finite floats as null.
        let values = array("values")?
            .iter()
            .map(|v| if matches!(v, Doc::Null) { Some(f64::NAN) } else { v.as_f64() })
            .collect::<Option<Vec<f64>>>()
            .ok_or_else(|| ServeError::Checkpoint("non-numeric chunk value".to_string()))?;
        if timestamps.is_empty() || timestamps.len() != values.len() {
            return Err(ServeError::Checkpoint(format!(
                "chunk holds {} timestamps and {} values",
                timestamps.len(),
                values.len()
            )));
        }
        let (id, first) = (u64_field(doc, "_id")?, u64_field(doc, "first")?);
        Ok(Chunk { id, first, timestamps, values })
    }
}

/// Rebuild one signal's window from its chunks (see
/// [`TenantSession::recover`]), returning the buffer and the live
/// chunk list of its slot.
fn rebuild_window(
    signal: &str,
    mut run: Vec<Chunk>,
    entry: &Doc,
) -> Result<(SignalBuffer, Vec<ChunkRef>)> {
    let bad = |why: String| ServeError::Checkpoint(format!("signal '{signal}': {why}"));
    if entry.get("timestamps").is_some() {
        let why = "inline window of an earlier store layout; replay the stream into an empty store";
        return Err(bad(why.to_string()));
    }
    let ingested = u64_field(entry, "ingested")?;
    let len = u64_field(entry, "len")?;
    if len == 0 || len > ingested {
        return Err(bad(format!("window of {len} samples after {ingested} ingested")));
    }
    let start = ingested - len;
    // Chunks wholly before the window are expiries a failed commit
    // lost: skip them, and list them first so the next checkpoint
    // deletes them.
    let mut live: Vec<ChunkRef> = Vec::with_capacity(run.len());
    run.retain(|c| match c.first.checked_add(c.timestamps.len() as u64) {
        Some(end) if end <= start => {
            live.push(ChunkRef { id: c.id, first: c.first, end });
            false
        }
        _ => true,
    });
    run.sort_by_key(|c| c.first);
    let stored: usize = run.iter().map(|c| c.timestamps.len()).sum();
    let capacity = stored.min(usize::try_from(len).unwrap_or(usize::MAX));
    let mut end = match run.first() {
        Some(c) if c.first <= start => c.first,
        _ => return Err(bad(format!("chunks do not reach back to sample {start}"))),
    };
    let mut timestamps = Vec::with_capacity(capacity);
    let mut values = Vec::with_capacity(capacity);
    for chunk in run {
        if chunk.first != end {
            return Err(bad(format!("chunk at {} does not follow sample {end}", chunk.first)));
        }
        end = chunk
            .first
            .checked_add(chunk.timestamps.len() as u64)
            .ok_or_else(|| bad("chunk index overflow".to_string()))?;
        let skip = start.saturating_sub(chunk.first) as usize;
        timestamps.extend_from_slice(&chunk.timestamps[skip..]);
        values.extend_from_slice(&chunk.values[skip..]);
        live.push(ChunkRef { id: chunk.id, first: chunk.first, end });
    }
    if end != ingested {
        return Err(bad(format!("chunks end at sample {end}, not at {ingested}")));
    }
    if timestamps.windows(2).any(|w| w[0] >= w[1]) {
        return Err(bad("timestamps are not strictly increasing".to_string()));
    }
    let buffer = SignalBuffer {
        timestamps,
        values,
        ingested,
        emitted_until: i64_field(entry, "emitted_until")?,
    };
    Ok((buffer, live))
}

fn str_field(doc: &Doc, key: &str) -> Result<String> {
    doc.get(key)
        .and_then(Doc::as_str)
        .map(str::to_string)
        .ok_or_else(|| ServeError::Checkpoint(format!("missing string field '{key}'")))
}

fn i64_field(doc: &Doc, key: &str) -> Result<i64> {
    doc.get(key)
        .and_then(Doc::as_i64)
        .ok_or_else(|| ServeError::Checkpoint(format!("missing int field '{key}'")))
}

fn u64_field(doc: &Doc, key: &str) -> Result<u64> {
    u64::try_from(i64_field(doc, key)?)
        .map_err(|_| ServeError::Checkpoint(format!("negative int field '{key}'")))
}

fn bool_field(doc: &Doc, key: &str) -> Result<bool> {
    doc.get(key)
        .and_then(Doc::as_bool)
        .ok_or_else(|| ServeError::Checkpoint(format!("missing bool field '{key}'")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sintel_pipeline::template::StepSpec;
    use sintel_primitives::HyperValue;

    /// The cheapest end-to-end detector: spectral residual scoring plus
    /// a fixed threshold, no training state.
    fn cheap_template() -> Template {
        Template {
            name: "serve_test".into(),
            steps: vec![
                StepSpec::plain("azure_anomaly_service"),
                StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(2.0))]),
            ],
        }
    }

    fn cfg() -> ServeConfig {
        ServeConfig {
            window: 128,
            hop: 32,
            min_points: 32,
            ..ServeConfig::for_tests()
        }
    }

    fn feed(session: &mut TenantSession, cfg: &ServeConfig, n: usize) -> PassReport {
        let template = cheap_template();
        let mut report = PassReport::default();
        for t in 0..n {
            let value = (t as f64 / 8.0).sin() + if t == 70 { 6.0 } else { 0.0 };
            let ev = IngestEvent::new("acme", "cpu", t as i64, value);
            session.absorb(&ev, &template, cfg, &mut report);
        }
        report
    }

    #[test]
    fn passes_fire_at_hop_boundaries_and_emit_once() {
        let cfg = cfg();
        let mut session = TenantSession::new("acme");
        let report = feed(&mut session, &cfg, 128);
        // 128 samples / hop 32 => 4 scheduled passes.
        assert_eq!(session.pass_counter(), 4);
        assert_eq!(report.passes_run, 4);
        assert_eq!(report.absorbed, 128);
        assert!(!report.events.is_empty(), "spike at t=70 must be detected");
        // Every event is emitted exactly once: seq is dense and the
        // watermark advances monotonically.
        for (i, ev) in report.events.iter().enumerate() {
            assert_eq!(ev.seq, i as u64);
        }
        let mut ends: Vec<i64> = report.events.iter().map(|e| e.end).collect();
        let sorted = ends.clone();
        ends.sort_unstable();
        assert_eq!(ends, sorted, "watermark must advance monotonically");
    }

    #[test]
    fn stale_timestamps_are_idempotent() {
        let cfg = cfg();
        let mut session = TenantSession::new("acme");
        feed(&mut session, &cfg, 64);
        let snapshot = session.clone();
        // Replaying the same 64 events changes nothing at all.
        let report = feed(&mut session, &cfg, 64);
        assert_eq!(report.absorbed, 0);
        assert_eq!(report.stale_dropped, 64);
        assert!(report.events.is_empty());
        assert_eq!(session, snapshot);
    }

    #[test]
    fn window_slides_and_bounds_memory() {
        let cfg = ServeConfig { window: 40, hop: 16, min_points: 16, ..ServeConfig::for_tests() };
        let mut session = TenantSession::new("acme");
        let template = cheap_template();
        let mut report = PassReport::default();
        for t in 0..400 {
            let ev = IngestEvent::new("acme", "cpu", t, (t as f64 / 8.0).sin());
            session.absorb(&ev, &template, &cfg, &mut report);
        }
        let buffer = session.buffer("cpu").expect("buffer exists");
        assert_eq!(buffer.len(), 40, "buffer must slide, not grow");
        assert_eq!(buffer.last_timestamp(), Some(399));
    }

    /// Checkpoint `session` into a fresh slot of an in-memory store.
    fn checkpointed(session: &TenantSession) -> SintelDb {
        let db = SintelDb::in_memory();
        session.checkpoint(&db, &mut CheckpointSlot::default(), &cfg()).expect("checkpoint");
        db
    }

    #[test]
    fn checkpoint_round_trips_bitwise() {
        let cfg = cfg();
        let mut session = TenantSession::new("acme");
        feed(&mut session, &cfg, 100);
        // Also exercise non-default flags.
        let mut report = PassReport::default();
        session.degrade(&mut report);
        assert!(report.degraded_now);
        let db = checkpointed(&session);
        let (restored, _) = TenantSession::recover(&db, "acme").expect("recover");
        assert_eq!(restored, session);
        let (fresh, _) = TenantSession::recover(&db, "nobody").expect("recover");
        assert_eq!(fresh, TenantSession::new("nobody"));
    }

    #[test]
    fn incremental_checkpoints_write_only_new_samples() {
        let cfg = cfg();
        let db = SintelDb::in_memory();
        let mut slot = CheckpointSlot::default();
        let mut session = TenantSession::new("acme");
        let template = cheap_template();
        let mut report = PassReport::default();
        for t in 0..400i64 {
            let ev = IngestEvent::new("acme", "cpu", t, (t as f64 / 8.0).sin());
            session.absorb(&ev, &template, &cfg, &mut report);
            if (t + 1) % 48 == 0 {
                session.checkpoint(&db, &mut slot, &cfg).expect("checkpoint");
                let chunks = db.serve_chunks("acme");
                let newest = chunks.last().expect("a chunk per checkpoint");
                let samples = newest.get("timestamps").and_then(Doc::as_arr).map(<[Doc]>::len);
                assert_eq!(samples, Some(48), "a chunk holds only the new samples");
                // 128-sample window in 48-sample chunks: at most 4 live.
                assert!(chunks.len() <= 4, "{} live chunks", chunks.len());
                let (restored, _) = TenantSession::recover(&db, "acme").expect("recover");
                assert_eq!(restored, session);
            }
        }
    }

    #[test]
    fn short_chunks_are_coalesced_at_any_cadence() {
        // One sample per checkpoint: each chunk grows until it holds a
        // hop, so a 128-sample window at hop 32 keeps at most 5 chunks.
        let cfg = cfg();
        let db = SintelDb::in_memory();
        let mut slot = CheckpointSlot::default();
        let mut session = TenantSession::new("acme");
        let template = cheap_template();
        let mut report = PassReport::default();
        for t in 0..300i64 {
            let ev = IngestEvent::new("acme", "cpu", t, (t as f64 / 8.0).sin());
            session.absorb(&ev, &template, &cfg, &mut report);
            session.checkpoint(&db, &mut slot, &cfg).expect("checkpoint");
            let chunks = db.serve_chunks("acme").len();
            assert!(chunks <= 5, "{chunks} live chunks after sample {t}");
        }
        let (restored, _) = TenantSession::recover(&db, "acme").expect("recover");
        assert_eq!(restored, session);
    }

    #[test]
    fn invalidated_slot_rewrites_whole_windows() {
        let cfg = cfg();
        let db = SintelDb::in_memory();
        let mut slot = CheckpointSlot::default();
        let mut session = TenantSession::new("acme");
        feed(&mut session, &cfg, 100);
        session.checkpoint(&db, &mut slot, &cfg).expect("checkpoint");
        slot.invalidate();
        session.checkpoint(&db, &mut slot, &cfg).expect("checkpoint");
        let chunks = db.serve_chunks("acme");
        assert_eq!(chunks.len(), 1, "the stale chunk was replaced");
        assert_eq!(chunks[0].get("first").and_then(Doc::as_i64), Some(0));
        let (restored, _) = TenantSession::recover(&db, "acme").expect("recover");
        assert_eq!(restored, session);
    }

    #[test]
    fn corrupt_checkpoint_is_rejected() {
        use sintel_store::schema::collections;
        let db = SintelDb::in_memory();
        db.upsert_serve_session(None, Doc::obj().with("tenant", "t").with("pass_counter", 1i64))
            .expect("insert");
        assert!(matches!(TenantSession::recover(&db, "t"), Err(ServeError::Checkpoint(_))));

        // A store written with the earlier inline-window layout (samples
        // inside the session document, no `len`, no chunks) is refused.
        let mut session = TenantSession::new("old");
        feed(&mut session, &cfg(), 40);
        let mut inline = session.meta_doc();
        let signals = vec![Doc::obj()
            .with("signal", "cpu")
            .with("ingested", 40i64)
            .with("emitted_until", i64::MIN)
            .with("timestamps", Doc::from((0..40i64).collect::<Vec<_>>()))
            .with("values", Doc::from(vec![0.0; 40]))];
        inline.set("signals", Doc::Arr(signals));
        db.raw().insert(collections::SERVE_SESSIONS, inline).expect("insert");
        let refused = TenantSession::recover(&db, "old");
        assert!(
            matches!(&refused, Err(ServeError::Checkpoint(why)) if why.contains("earlier store layout")),
            "{refused:?}"
        );
    }

    #[test]
    fn recovered_session_continues_identically() {
        let cfg = cfg();
        // Uninterrupted run over 256 events.
        let mut full = TenantSession::new("acme");
        let full_report = feed(&mut full, &cfg, 256);

        // Interrupted at 100 events: checkpoint, restore, then replay
        // the whole stream (at-least-once) — absorbed idempotently.
        let mut first = TenantSession::new("acme");
        let early = feed(&mut first, &cfg, 100);
        let (mut resumed, _) =
            TenantSession::recover(&checkpointed(&first), "acme").expect("recover checkpoint");
        let late = feed(&mut resumed, &cfg, 256);

        assert_eq!(resumed, full, "recovered session state must converge");
        let mut combined = early.events;
        combined.extend(late.events);
        assert_eq!(combined, full_report.events, "emission sequence must be identical");
    }
}
