//! The multi-tenant serving engine: admission, deterministic parallel
//! pass execution, and group-committed checkpoints.
//!
//! The engine is single-writer: one owner calls [`ServeEngine::offer`]
//! to admit events and [`ServeEngine::tick`] to process them. A tick
//! drains every tenant's queue, runs the drained events through the
//! tenants' sessions in parallel (tenants are independent, so
//! [`sintel_common::par_map`] over them cannot change any output), and
//! then commits *one* [`sintel_store::Database::batch`] record holding
//! every updated session checkpoint, every newly detected anomaly event
//! and the advanced tick counter. Crash anywhere before that commit:
//! the store still holds the previous consistent cut, and replaying the
//! stream is safe because session buffers absorb stale timestamps
//! idempotently. Crash after the commit but before the caller sees the
//! returned events: the events are in the store with dense per-tenant
//! `seq` numbers, so a consumer resuming from
//! [`ServeEngine::committed_events`] neither loses nor duplicates them.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use sintel_obs::Histogram;
use sintel_pipeline::policy::RunPolicy;
use sintel_pipeline::template::StepSpec;
use sintel_pipeline::Template;
use sintel_primitives::HyperValue;
use sintel_store::schema::collections;
use sintel_store::{Doc, Filter, SintelDb};

use crate::event::{Admission, AnomalyEvent, IngestEvent};
use crate::queue::TenantQueue;
use crate::selfmon::{SelfMonitor, SELF_TENANT};
use crate::session::{CheckpointSlot, PassReport, TenantSession};
use crate::slo::{
    self, SharedStatus, StatusSnapshot, TenantSlo, TenantTickStats, TickRecord, TickWideEvent,
    TickWindow,
};
use crate::{Result, ServeError};

/// The cheap fallback pipeline used under graceful degradation:
/// spectral-residual scoring plus a fixed threshold — stateless, no
/// training, one FFT per pass.
pub fn fallback_template() -> Template {
    Template {
        name: "serve_fallback".to_string(),
        steps: vec![
            StepSpec::plain("azure_anomaly_service"),
            StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(3.0))]),
        ],
    }
}

/// Tuning knobs of the serving tier.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Sliding-window size (samples) kept per signal.
    pub window: usize,
    /// A detection pass fires every `hop`-th sample absorbed into a
    /// signal (the event-count clock that keeps emissions independent
    /// of tick batching).
    pub hop: u64,
    /// Minimum buffered samples before the first pass may fire.
    pub min_points: usize,
    /// Bound of each tenant's ingest queue (backpressure past it).
    pub queue_capacity: usize,
    /// Aggregate backlog (all queues) past which low-priority tenants
    /// are load-shed.
    pub high_water: usize,
    /// Tenants with `priority <` this floor are shed once the backlog
    /// passes [`ServeConfig::high_water`].
    pub priority_floor: u8,
    /// Draining at least this many events for one tenant in a single
    /// tick degrades it to the fallback pipeline (it cannot keep up
    /// with its own configured template).
    pub degrade_depth: usize,
    /// Consecutive pass failures that trip the circuit breaker.
    pub breaker_threshold: u32,
    /// Passes an open breaker skips before allowing a half-open probe.
    pub breaker_cooldown: u64,
    /// Breaker trips that permanently quarantine the tenant.
    pub quarantine_trips: u32,
    /// Run policy (timeout / retries / backoff) for each detection pass.
    pub policy: RunPolicy,
    /// Pipeline used once a tenant is degraded.
    pub fallback: Template,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            window: 512,
            hop: 64,
            min_points: 128,
            queue_capacity: 1024,
            high_water: 8192,
            priority_floor: 1,
            degrade_depth: 512,
            breaker_threshold: 3,
            breaker_cooldown: 8,
            quarantine_trips: 2,
            policy: RunPolicy::default(),
            fallback: fallback_template(),
        }
    }
}

impl ServeConfig {
    /// A small, non-interfering config for tests and examples: modest
    /// windows, effectively unlimited queues/high-water (so nothing is
    /// shed or degraded unless a test asks for it), single-attempt
    /// passes with a generous timeout.
    pub fn for_tests() -> Self {
        Self {
            window: 128,
            hop: 32,
            min_points: 32,
            queue_capacity: 1 << 20,
            high_water: usize::MAX,
            priority_floor: 0,
            degrade_depth: usize::MAX,
            breaker_threshold: 3,
            breaker_cooldown: 4,
            quarantine_trips: 2,
            policy: RunPolicy::single_attempt(Duration::from_secs(30)),
            fallback: fallback_template(),
        }
    }

    /// Validate invariants the engine depends on. Delegates to
    /// [`crate::analysis::analyze_deployment`] over an empty tenant
    /// roster, so every finding carries a coded (`SA0xx`) rustc-style
    /// rendering instead of an ad-hoc message.
    pub fn validate(&self) -> Result<()> {
        let report = crate::analysis::analyze_deployment(self, &[]);
        if report.has_errors() {
            return Err(ServeError::Config(report.render()));
        }
        Ok(())
    }
}

/// A registered tenant: name, load-shedding priority and pipeline.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Unique tenant name.
    pub name: String,
    /// Load-shedding priority (higher survives overload longer).
    pub priority: u8,
    /// The tenant's configured detection pipeline.
    pub template: Template,
}

impl TenantSpec {
    /// Construct a spec.
    pub fn new(name: &str, priority: u8, template: Template) -> Self {
        Self { name: name.to_string(), priority, template }
    }
}

/// Per-tenant counters, accumulated across the engine's lifetime
/// (not persisted; a recovered engine starts counting afresh, but
/// `degraded`/`quarantined` reflect the recovered session state).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Events admitted into the queue.
    pub accepted: u64,
    /// Events refused with [`Admission::Retry`] (queue full).
    pub retried: u64,
    /// Events dropped with [`Admission::Shed`].
    pub shed: u64,
    /// Samples absorbed into session buffers.
    pub absorbed: u64,
    /// Stale/duplicate samples dropped by idempotent replay.
    pub stale_dropped: u64,
    /// Committed anomaly events emitted.
    pub emitted: u64,
    /// Detection passes attempted.
    pub passes_run: u64,
    /// Scheduled passes skipped (breaker open / quarantined).
    pub passes_skipped: u64,
    /// Attempted passes that failed their run policy.
    pub pass_failures: u64,
    /// Circuit-breaker trips.
    pub breaker_trips: u64,
    /// Currently running the fallback pipeline.
    pub degraded: bool,
    /// Permanently parked.
    pub quarantined: bool,
}

/// Engine-wide statistics snapshot.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Ticks processed (including recovered history).
    pub ticks: u64,
    /// Per-tenant counters, keyed by tenant name.
    pub tenants: BTreeMap<String, TenantStats>,
}

struct TenantRuntime {
    spec: TenantSpec,
    queue: TenantQueue,
    session: Option<TenantSession>,
    slot: CheckpointSlot,
    stats: TenantStats,
    /// Snapshot of `stats` at the end of the previous tick; the wide
    /// event reports admission counters as deltas against it.
    prev_stats: TenantStats,
    pending_since: Option<Instant>,
    /// This tenant's `sintel_serve_queue_depth{tenant}` series name.
    depth_gauge: String,
}

/// The multi-tenant streaming engine (see module docs).
pub struct ServeEngine {
    cfg: ServeConfig,
    db: SintelDb,
    tenants: BTreeMap<String, TenantRuntime>,
    ticks: u64,
    meta_id: u64,
    /// Feeds the engine's own per-tick operational streams through a
    /// fallback-template detection pass under the reserved `_self`
    /// tenant (see [`crate::selfmon`]).
    self_monitor: SelfMonitor,
    /// Publish handle for the HTTP status server, once enabled.
    status: Option<SharedStatus>,
    /// The last committed tick's wide event.
    last_wide: Option<TickWideEvent>,
    /// The last [`slo::TICK_WINDOW`] ticks: the `/metrics` window and
    /// the self-monitor's differencing baseline.
    window: TickWindow,
    /// Commit duration of the previous tick's checkpoint batch — a
    /// tick's own commit time is unknowable until after its wide event
    /// is inside the batch, so each wide event carries its
    /// predecessor's.
    last_checkpoint_seconds: f64,
    /// Flushes any configured trace sink when the engine is dropped —
    /// including during panic unwinding — so the span tail survives a
    /// crash of the serving process.
    _trace_flush: sintel_obs::TraceFlushGuard,
}

impl ServeEngine {
    /// Open an engine over `db` with the given tenants. Doubles as
    /// crash recovery: tenants with a persisted session checkpoint
    /// resume from it (pass counters, emission sequence, breaker state
    /// and buffered windows intact); the rest start fresh.
    pub fn open(db: SintelDb, cfg: ServeConfig, specs: Vec<TenantSpec>) -> Result<Self> {
        // Whole-deployment static analysis gates the engine: a report
        // with errors (bad config domain, tenant collision, statically
        // dead fallback, cost-inverted degradation…) refuses to open;
        // warnings are logged and tolerated.
        let report = crate::analysis::analyze_deployment(&cfg, &specs);
        for warning in report.warnings() {
            sintel_obs::warn!(
                "sintel_serve::analysis",
                warning.message.clone(),
                code = warning.code.as_str(),
                hint = warning.hint.as_str(),
            );
        }
        if report.has_errors() {
            return Err(ServeError::Config(report.render()));
        }
        let meta = db.raw().find_one(collections::SERVE_META, &Filter::eq("kind", "engine"));
        let (meta_id, ticks) = match meta {
            Some(doc) => (
                doc.get("_id").and_then(Doc::as_i64).unwrap_or(0).max(0) as u64,
                doc.get("ticks").and_then(Doc::as_i64).unwrap_or(0).max(0) as u64,
            ),
            None => {
                let init = Doc::obj().with("kind", "engine").with("ticks", 0u64);
                (db.raw().insert(collections::SERVE_META, init)?, 0)
            }
        };
        let mut tenants = BTreeMap::new();
        for spec in specs {
            let (session, slot) = TenantSession::recover(&db, &spec.name)?;
            let stats = TenantStats {
                degraded: session.is_degraded(),
                quarantined: session.is_quarantined(),
                ..TenantStats::default()
            };
            let queue = TenantQueue::new(cfg.queue_capacity);
            let depth_gauge =
                sintel_obs::labeled("sintel_serve_queue_depth", &[("tenant", &spec.name)]);
            tenants.insert(
                spec.name.clone(),
                TenantRuntime {
                    spec,
                    queue,
                    session: Some(session),
                    slot,
                    prev_stats: stats.clone(),
                    stats,
                    pending_since: None,
                    depth_gauge,
                },
            );
        }
        let self_monitor = SelfMonitor::open(&db, &cfg)?;
        let window = TickWindow::recover(&db, ticks);
        Ok(Self {
            cfg,
            db,
            tenants,
            ticks,
            meta_id,
            self_monitor,
            status: None,
            last_wide: None,
            window,
            last_checkpoint_seconds: 0.0,
            _trace_flush: sintel_obs::TraceFlushGuard::new(),
        })
    }

    /// Offer one event for admission. The admission protocol:
    ///
    /// * [`Admission::Accepted`] — queued for the next tick;
    /// * [`Admission::Retry`] — the tenant's queue is full; run a tick
    ///   and re-offer (the caller keeps the event);
    /// * [`Admission::Shed`] — dropped: the tenant is quarantined, or
    ///   the aggregate backlog is past the high-water mark and this
    ///   tenant's priority is below the floor.
    pub fn offer(&mut self, event: &IngestEvent) -> Result<Admission> {
        let backlog = self.aggregate_depth();
        let high_water = self.cfg.high_water;
        let floor = self.cfg.priority_floor;
        let Some(runtime) = self.tenants.get_mut(&event.tenant) else {
            return Err(ServeError::UnknownTenant(event.tenant.clone()));
        };
        if runtime.stats.quarantined
            || (backlog >= high_water && runtime.spec.priority < floor)
        {
            runtime.stats.shed += 1;
            return Ok(Admission::Shed);
        }
        if !runtime.queue.try_push(event.clone()) {
            runtime.stats.retried += 1;
            return Ok(Admission::Retry { after_ticks: 1 });
        }
        runtime.stats.accepted += 1;
        if runtime.pending_since.is_none() {
            runtime.pending_since = Some(Instant::now());
        }
        Ok(Admission::Accepted)
    }

    /// Process every queued event: drain all tenant queues, run the
    /// sessions in parallel, group-commit the checkpoint cut, then
    /// return the newly committed anomaly events (tenant order, then
    /// emission order).
    pub fn tick(&mut self) -> Result<Vec<AnomalyEvent>> {
        #[cfg(feature = "faulty")]
        if crate::fault::take(crate::fault::CrashPoint::BeforeCheckpoint) {
            return Err(ServeError::Injected(
                crate::fault::CrashPoint::BeforeCheckpoint.label(),
            ));
        }
        let tick_span = sintel_obs::span("serve.tick");

        struct WorkItem<'a> {
            session: TenantSession,
            events: Vec<IngestEvent>,
            template: &'a Template,
            force_degrade: bool,
        }

        let mut slots: Vec<Mutex<Option<WorkItem>>> = Vec::with_capacity(self.tenants.len());
        for (name, runtime) in self.tenants.iter_mut() {
            let TenantRuntime { spec, queue, session, depth_gauge, .. } = runtime;
            let events = queue.drain_all();
            // Queue depth at its per-tick peak (just before the drain),
            // gauged once per tick: the offer path touches no registry.
            sintel_obs::gauge_set(depth_gauge, events.len() as f64);
            let session = session.take().unwrap_or_else(|| TenantSession::new(name));
            let force_degrade = events.len() >= self.cfg.degrade_depth;
            slots.push(Mutex::new(Some(WorkItem {
                session,
                events,
                template: &spec.template,
                force_degrade,
            })));
        }

        // Tenants are independent: each worker owns one tenant's session
        // and events, so parallelism cannot change any tenant's output.
        let cfg = &self.cfg;
        let outcomes: Vec<Option<(TenantSession, PassReport, u64)>> =
            sintel_common::par_map(slots.len(), |i| {
                let item = {
                    let mut guard = slots[i].lock().unwrap_or_else(|e| e.into_inner());
                    guard.take()
                }?;
                let WorkItem { mut session, events, template, force_degrade } = item;
                let mut report = PassReport::default();
                if force_degrade {
                    session.degrade(&mut report);
                }
                for event in &events {
                    session.absorb(event, template, cfg, &mut report);
                }
                Some((session, report, events.len() as u64))
            });

        // One group-committed cut: every checkpoint, every event, the
        // tick's wide event and the tick counter land (or are lost
        // together) atomically.
        self.ticks += 1;
        let mut emitted: Vec<AnomalyEvent> = Vec::new();
        let mut wide = TickWideEvent {
            tick: self.ticks,
            checkpoint_seconds: self.last_checkpoint_seconds,
            ..TickWideEvent::default()
        };
        if let Err(e) = self.commit_cut(outcomes, &mut wide, &mut emitted) {
            // The store may now lack writes the slots assume were
            // made: rewrite whole windows at the next checkpoint.
            for runtime in self.tenants.values_mut() {
                runtime.slot.invalidate();
            }
            self.self_monitor.invalidate();
            return Err(e);
        }

        #[cfg(feature = "faulty")]
        if crate::fault::take(crate::fault::CrashPoint::BetweenCheckpointAndEmit) {
            return Err(ServeError::Injected(
                crate::fault::CrashPoint::BetweenCheckpointAndEmit.label(),
            ));
        }
        sintel_obs::counter_add("sintel_serve_ticks_total", 1);
        sintel_obs::observe("sintel_serve_checkpoint_seconds", self.last_checkpoint_seconds);
        let tick_elapsed = tick_span.close();
        sintel_obs::observe_duration("sintel_serve_tick_seconds", tick_elapsed);
        self.window.time_newest(tick_elapsed.as_secs_f64());
        self.last_wide = Some(wide);
        self.publish_status();
        Ok(emitted)
    }

    /// Write one tick's cut inside a single batch and commit it: each
    /// tenant's checkpoint and events (folding its report into `wide`
    /// and `emitted`), the `_self` monitor's, the wide event and the
    /// tick counter. Once the wide event's counts are final, before the
    /// `_self` writes, the tick is recorded in the window and the
    /// cumulative counters: a failed commit still counts its offers.
    fn commit_cut(
        &mut self,
        outcomes: Vec<Option<(TenantSession, PassReport, u64)>>,
        wide: &mut TickWideEvent,
        emitted: &mut Vec<AnomalyEvent>,
    ) -> Result<()> {
        let scope = self.db.batch();
        let mut pass_latency = Histogram::new();
        let mut reports = Vec::with_capacity(outcomes.len());
        for ((name, runtime), outcome) in self.tenants.iter_mut().zip(outcomes) {
            let Some((session, report, drained)) = outcome else {
                reports.push(None);
                continue;
            };
            let stats = &mut runtime.stats;
            stats.absorbed += report.absorbed;
            stats.stale_dropped += report.stale_dropped;
            stats.passes_run += report.passes_run;
            stats.passes_skipped += report.passes_skipped;
            stats.pass_failures += report.pass_failures;
            stats.breaker_trips += report.tripped;
            stats.emitted += report.events.len() as u64;
            stats.degraded = session.is_degraded();
            stats.quarantined = session.is_quarantined();
            let tenant_tick = TenantTickStats {
                tenant: name.clone(),
                accepted: stats.accepted - runtime.prev_stats.accepted,
                retried: stats.retried - runtime.prev_stats.retried,
                shed: stats.shed - runtime.prev_stats.shed,
                drained,
                absorbed: report.absorbed,
                stale_dropped: report.stale_dropped,
                emitted: report.events.len() as u64,
                passes_run: report.passes_run,
                passes_skipped: report.passes_skipped,
                pass_failures: report.pass_failures,
                pass_seconds: report.pass_latency.sum(),
                breaker_state: session.breaker().state().label(),
                breaker_trips: stats.breaker_trips,
                degraded: stats.degraded,
                quarantined: stats.quarantined,
            };
            runtime.prev_stats = stats.clone();
            wide.accepted += tenant_tick.accepted;
            wide.retried += tenant_tick.retried;
            wide.shed += tenant_tick.shed;
            wide.drained += tenant_tick.drained;
            wide.absorbed += tenant_tick.absorbed;
            wide.emitted += tenant_tick.emitted;
            wide.passes_run += tenant_tick.passes_run;
            wide.pass_failures += tenant_tick.pass_failures;
            wide.pass_seconds += tenant_tick.pass_seconds;
            wide.tenants.push(tenant_tick);
            pass_latency.merge(&report.pass_latency);
            if report.tripped > 0 {
                sintel_obs::counter_add("sintel_serve_breaker_trips_total", report.tripped);
            }
            if report.degraded_now {
                sintel_obs::counter_add("sintel_serve_degraded_total", 1);
            }
            if report.quarantined_now {
                sintel_obs::counter_add("sintel_serve_quarantined_total", 1);
            }
            if !report.events.is_empty() {
                if let Some(since) = runtime.pending_since.take() {
                    sintel_obs::observe(
                        "sintel_serve_emit_latency_seconds",
                        since.elapsed().as_secs_f64(),
                    );
                }
            }
            runtime.session = Some(session);
            reports.push(Some(report.events));
        }
        // Every session is back in place before the first write, so a
        // failed write loses no in-memory state.
        for (runtime, events) in self.tenants.values_mut().zip(reports) {
            let Some(events) = events else { continue };
            if let Some(session) = &runtime.session {
                session.checkpoint(&self.db, &mut runtime.slot, &self.cfg)?;
            }
            for ev in &events {
                self.db.add_serve_event(
                    &ev.tenant, &ev.signal, ev.seq, ev.start, ev.end, ev.severity, ev.pass,
                )?;
            }
            emitted.extend(events);
        }

        // Self-monitoring: absorb this tick's operational measurements
        // (now final), differenced against the window's newest record,
        // through the `_self` session, committing its checkpoint and
        // any anomalies it raised in the same cut. Its events are
        // persisted, never returned.
        let self_report = self.self_monitor.observe_tick(self.ticks, wide, self.window.newest());
        pass_latency.merge(&self_report.pass_latency);
        wide.self_events = self_report.events.len() as u64;
        self.window.push(TickRecord::new(wide, pass_latency));
        for (counter, by) in [
            ("sintel_serve_accepted_total", wide.accepted),
            ("sintel_serve_retry_total", wide.retried),
            ("sintel_serve_shed_total", wide.shed),
            ("sintel_serve_emitted_total", wide.emitted),
            ("sintel_serve_self_events_total", wide.self_events),
        ] {
            sintel_obs::counter_add(counter, by);
        }
        self.self_monitor.checkpoint(&self.db)?;
        for ev in &self_report.events {
            self.db.add_serve_event(
                &ev.tenant, &ev.signal, ev.seq, ev.start, ev.end, ev.severity, ev.pass,
            )?;
        }
        self.db.add_serve_tick(wide.to_doc())?;

        let meta = Doc::obj().with("kind", "engine").with("ticks", self.ticks);
        self.db.raw().update(collections::SERVE_META, self.meta_id, meta)?;
        let commit_start = Instant::now();
        let committed = scope.commit();
        self.last_checkpoint_seconds = commit_start.elapsed().as_secs_f64();
        committed.map_err(ServeError::from)
    }

    /// Every committed anomaly event for `tenant`, in emission (`seq`)
    /// order — the durable stream a consumer resumes from after a
    /// crash.
    pub fn committed_events(&self, tenant: &str) -> Vec<AnomalyEvent> {
        self.db.serve_events_for_tenant(tenant).iter().filter_map(decode_event).collect()
    }

    /// Total events queued across all tenants.
    pub fn aggregate_depth(&self) -> usize {
        self.tenants.values().map(|r| r.queue.len()).sum()
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            ticks: self.ticks,
            tenants: self
                .tenants
                .iter()
                .map(|(name, r)| (name.clone(), r.stats.clone()))
                .collect(),
        }
    }

    /// Ticks processed so far (monotonic across recoveries).
    pub fn ticks(&self) -> u64 {
        self.ticks
    }

    /// Registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<&str> {
        self.tenants.keys().map(String::as_str).collect()
    }

    /// One tenant's live session (None for unknown tenants).
    pub fn session(&self, tenant: &str) -> Option<&TenantSession> {
        self.tenants.get(tenant).and_then(|r| r.session.as_ref())
    }

    /// The engine's configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// The last committed tick's wide event, if any tick has run.
    pub fn last_wide_event(&self) -> Option<&TickWideEvent> {
        self.last_wide.as_ref()
    }

    /// The self-monitoring session. Always `Some`: self-monitoring is
    /// unconditional, and the `Option` keeps the signature callers use.
    pub fn self_session(&self) -> Option<&TenantSession> {
        Some(self.self_monitor.session())
    }

    /// Every committed `_self` anomaly the self-monitor raised on the
    /// engine's own operational streams, in emission order.
    pub fn self_events(&self) -> Vec<AnomalyEvent> {
        self.committed_events(SELF_TENANT)
    }

    /// Turn on status publishing and return the handle a
    /// [`crate::http::StatusServer`] reads from. The engine republishes
    /// an immutable snapshot after every tick; calling this again
    /// returns the same handle.
    pub fn enable_status(&mut self) -> SharedStatus {
        if self.status.is_none() {
            self.status = Some(slo::shared_status());
        }
        self.publish_status();
        // The line above guarantees the handle exists; clone it out.
        self.status.clone().unwrap_or_else(slo::shared_status)
    }

    /// Build the current status snapshot (cheap: counters and clones of
    /// small per-tenant summaries).
    pub fn status_snapshot(&self) -> StatusSnapshot {
        StatusSnapshot {
            ticks: self.ticks,
            backlog: self.aggregate_depth() as u64,
            tenants: self
                .tenants
                .values()
                .map(|runtime| TenantSlo {
                    tenant: runtime.spec.name.clone(),
                    priority: runtime.spec.priority,
                    queue_depth: runtime.queue.len() as u64,
                    stats: runtime.stats.clone(),
                    breaker_state: runtime
                        .session
                        .as_ref()
                        .map_or("closed", |s| s.breaker().state().label()),
                })
                .collect(),
            last_tick: self.last_wide.clone(),
            window: self.window.clone(),
        }
    }

    fn publish_status(&self) {
        if let Some(shared) = &self.status {
            slo::publish(shared, self.status_snapshot());
        }
    }

    /// The underlying knowledge base.
    pub fn db(&self) -> &SintelDb {
        &self.db
    }

    /// Tear the engine down, returning the knowledge base — the
    /// in-memory crash simulation used by the recovery property tests
    /// (drop everything volatile, keep only what was committed).
    pub fn into_db(self) -> SintelDb {
        self.db
    }
}

fn decode_event(doc: &Doc) -> Option<AnomalyEvent> {
    Some(AnomalyEvent {
        tenant: doc.get("tenant")?.as_str()?.to_string(),
        signal: doc.get("signal")?.as_str()?.to_string(),
        seq: doc.get("seq")?.as_i64()?.max(0) as u64,
        start: doc.get("start_time")?.as_i64()?,
        end: doc.get("stop_time")?.as_i64()?,
        severity: doc.get("severity")?.as_f64()?,
        pass: doc.get("pass")?.as_i64()?.max(0) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::WindowSum;

    fn cheap_template() -> Template {
        Template {
            name: "serve_test".into(),
            steps: vec![
                StepSpec::plain("azure_anomaly_service"),
                StepSpec::with("fixed_threshold", &[("k", HyperValue::Float(2.0))]),
            ],
        }
    }

    fn value_at(t: i64) -> f64 {
        (t as f64 / 8.0).sin() + if t == 70 { 6.0 } else { 0.0 }
    }

    fn one_tenant_engine(cfg: ServeConfig) -> ServeEngine {
        ServeEngine::open(
            SintelDb::in_memory(),
            cfg,
            vec![TenantSpec::new("acme", 5, cheap_template())],
        )
        .expect("open")
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        assert!(ServeConfig { window: 0, ..ServeConfig::for_tests() }.validate().is_err());
        assert!(ServeConfig { hop: 0, ..ServeConfig::for_tests() }.validate().is_err());
        assert!(ServeConfig { min_points: 0, ..ServeConfig::for_tests() }.validate().is_err());
        assert!(ServeConfig { min_points: 200, window: 100, ..ServeConfig::for_tests() }
            .validate()
            .is_err());
        assert!(ServeConfig::for_tests().validate().is_ok());
        assert!(ServeConfig::default().validate().is_ok());
    }

    #[test]
    fn unknown_tenant_is_an_error() {
        let mut engine = one_tenant_engine(ServeConfig::for_tests());
        let err = engine.offer(&IngestEvent::new("ghost", "cpu", 0, 0.0));
        assert!(matches!(err, Err(ServeError::UnknownTenant(t)) if t == "ghost"));
    }

    #[test]
    fn full_queue_pushes_back_and_drains_on_tick() {
        let cfg = ServeConfig { queue_capacity: 2, ..ServeConfig::for_tests() };
        let mut engine = one_tenant_engine(cfg);
        assert_eq!(engine.offer(&IngestEvent::new("acme", "cpu", 0, 0.0)).unwrap(),
            Admission::Accepted);
        assert_eq!(engine.offer(&IngestEvent::new("acme", "cpu", 1, 0.0)).unwrap(),
            Admission::Accepted);
        assert_eq!(engine.offer(&IngestEvent::new("acme", "cpu", 2, 0.0)).unwrap(),
            Admission::Retry { after_ticks: 1 });
        engine.tick().expect("tick");
        assert_eq!(engine.offer(&IngestEvent::new("acme", "cpu", 2, 0.0)).unwrap(),
            Admission::Accepted, "tick must free queue capacity");
        let stats = engine.stats();
        assert_eq!(stats.tenants["acme"].accepted, 3);
        assert_eq!(stats.tenants["acme"].retried, 1);
    }

    #[test]
    fn overload_sheds_only_low_priority_tenants() {
        let cfg = ServeConfig {
            high_water: 1,
            priority_floor: 5,
            ..ServeConfig::for_tests()
        };
        let db = SintelDb::in_memory();
        let specs = vec![
            TenantSpec::new("batch", 0, cheap_template()),
            TenantSpec::new("prod", 9, cheap_template()),
        ];
        let mut engine = ServeEngine::open(db, cfg, specs).expect("open");
        // Backlog below high water: everyone is admitted.
        assert_eq!(engine.offer(&IngestEvent::new("batch", "cpu", 0, 0.0)).unwrap(),
            Admission::Accepted);
        // Backlog at high water: the low-priority tenant is shed...
        assert_eq!(engine.offer(&IngestEvent::new("batch", "cpu", 1, 0.0)).unwrap(),
            Admission::Shed);
        // ...while the high-priority tenant still gets in.
        assert_eq!(engine.offer(&IngestEvent::new("prod", "cpu", 0, 0.0)).unwrap(),
            Admission::Accepted);
        let stats = engine.stats();
        assert_eq!(stats.tenants["batch"].shed, 1);
        assert_eq!(stats.tenants["prod"].shed, 0);
    }

    #[test]
    fn end_to_end_emits_commits_and_recovers() {
        let mut engine = one_tenant_engine(ServeConfig::for_tests());
        let mut emitted = Vec::new();
        for t in 0..128 {
            let admission =
                engine.offer(&IngestEvent::new("acme", "cpu", t, value_at(t))).unwrap();
            assert_eq!(admission, Admission::Accepted);
            if (t + 1) % 16 == 0 {
                emitted.extend(engine.tick().expect("tick"));
            }
        }
        assert!(!emitted.is_empty(), "spike at t=70 must be detected");
        assert_eq!(engine.committed_events("acme"), emitted,
            "returned events and committed events must agree");
        let ticks = engine.ticks();
        assert_eq!(ticks, 8);

        // Reopen over the same store: session, tick counter and doc ids
        // all survive; replaying the whole stream changes nothing.
        let session_before = engine.session("acme").cloned().expect("session");
        let db = engine.into_db();
        let mut engine =
            ServeEngine::open(db, ServeConfig::for_tests(), vec![TenantSpec::new(
                "acme",
                5,
                cheap_template(),
            )])
            .expect("reopen");
        assert_eq!(engine.ticks(), ticks);
        assert_eq!(engine.session("acme"), Some(&session_before));
        for t in 0..128 {
            engine.offer(&IngestEvent::new("acme", "cpu", t, value_at(t))).unwrap();
        }
        let replayed = engine.tick().expect("tick");
        assert!(replayed.is_empty(), "full replay must be absorbed idempotently");
        assert_eq!(engine.committed_events("acme"), emitted);
    }

    #[test]
    fn tick_batching_does_not_change_emissions() {
        // Tick after every event...
        let mut fine = one_tenant_engine(ServeConfig::for_tests());
        let mut fine_events = Vec::new();
        for t in 0..160 {
            fine.offer(&IngestEvent::new("acme", "cpu", t, value_at(t))).unwrap();
            fine_events.extend(fine.tick().expect("tick"));
        }
        // ...versus one giant tick at the end.
        let mut coarse = one_tenant_engine(ServeConfig::for_tests());
        for t in 0..160 {
            coarse.offer(&IngestEvent::new("acme", "cpu", t, value_at(t))).unwrap();
        }
        let coarse_events = coarse.tick().expect("tick");
        assert_eq!(fine_events, coarse_events,
            "emissions must be a pure function of the accepted event sequence");
        assert_eq!(fine.session("acme"), coarse.session("acme"));
    }

    #[test]
    fn two_engines_keep_separate_windows() {
        let mut busy = one_tenant_engine(ServeConfig::for_tests());
        let mut quiet = one_tenant_engine(ServeConfig::for_tests());
        for t in 0..30 {
            busy.offer(&IngestEvent::new("acme", "cpu", t, value_at(t))).unwrap();
            if (t + 1) % 10 == 0 {
                busy.tick().expect("tick");
            }
        }
        let fresh = quiet.status_snapshot().window;
        assert!(fresh.newest().is_none(), "a new engine starts with an empty window");
        for t in 0..4 {
            quiet.offer(&IngestEvent::new("acme", "cpu", t, value_at(t))).unwrap();
        }
        quiet.tick().expect("tick");
        let busy_window = busy.status_snapshot().window;
        let quiet_window = quiet.status_snapshot().window;
        assert_eq!(
            busy_window.sum(|r| r.drained),
            WindowSum { last: 10, total: 30, ticks: 3, peak: 10 }
        );
        assert_eq!(
            quiet_window.sum(|r| r.drained),
            WindowSum { last: 4, total: 4, ticks: 1, peak: 4 }
        );
        assert_eq!(busy_window.tick_latency().count(), 3);
        assert_eq!(quiet_window.tick_latency().count(), 1);
    }

    #[test]
    fn offers_reach_the_window_only_when_ticked() {
        let cfg = ServeConfig { queue_capacity: 3, ..ServeConfig::for_tests() };
        let mut engine = one_tenant_engine(cfg);
        for t in 0..5 {
            engine.offer(&IngestEvent::new("acme", "cpu", t, value_at(t))).unwrap();
        }
        assert!(engine.status_snapshot().window.newest().is_none());
        engine.tick().expect("tick");
        let window = engine.status_snapshot().window;
        let wide = engine.last_wide_event().expect("a tick ran");
        let record = window.newest().expect("the tick is recorded");
        assert_eq!((record.drained, record.retried, record.shed), (3, 2, 0));
        assert_eq!(
            (record.drained, record.retried, record.emitted, record.pass_failures),
            (wide.drained, wide.retried, wide.emitted, wide.pass_failures)
        );
        assert!(record.tick_seconds >= 0.0, "a committed tick is timed");
    }
}
