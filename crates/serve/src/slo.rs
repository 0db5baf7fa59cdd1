//! Per-tenant SLO model and per-tick "wide events".
//!
//! Two observability shapes live here:
//!
//! * [`TickWideEvent`] — one structured record per engine tick: total
//!   and per-tenant admission deltas, drain/absorb/pass counts, pass
//!   wall time, the *previous* tick's checkpoint-commit duration (the
//!   current one is unknowable until after the record is committed).
//!   The engine persists it to the `serve_ticks` collection inside the
//!   same group commit as the session checkpoints, so post-hoc
//!   forensics can replay exactly what every committed tick looked
//!   like.
//! * [`TickWindow`] — the engine's ring of its last [`TICK_WINDOW`]
//!   ticks, one compact [`TickRecord`] per tick taken from its wide
//!   event plus the tick's wall time and pass latencies. It is the
//!   only windowed view of the serve counts: `/metrics` renders its
//!   per-tick series, and the self-monitor differences against its
//!   newest record.
//! * [`StatusSnapshot`] / [`TenantSlo`] — the read-only view the HTTP
//!   status server exposes. The engine publishes a fresh immutable
//!   snapshot behind a [`SharedStatus`] handle once per tick; scrapes
//!   clone an `Arc`, never touching engine state, which is how the
//!   endpoint stays invisible to the bitwise-determinism contract.
//!
//! Wall-clock fields (`pass_seconds`, `checkpoint_seconds`) are the
//! only nondeterministic values in a persisted wide event; byte-level
//! determinism tests mask exactly [`VOLATILE_TICK_FIELDS`].

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use sintel_obs::{format_f64, Histogram};
use sintel_store::{Doc, SintelDb};

use crate::engine::TenantStats;

/// Wide-event fields whose values are wall-clock measurements and so
/// legitimately differ between two otherwise identical runs. Byte
/// comparisons of `serve_ticks` documents must mask these (and only
/// these) fields, at both the tick and per-tenant level.
pub const VOLATILE_TICK_FIELDS: &[&str] = &["pass_seconds", "checkpoint_seconds"];

/// One tenant's slice of a [`TickWideEvent`]: per-tick deltas plus the
/// tenant's protection state after the tick.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantTickStats {
    /// Tenant name.
    pub tenant: String,
    /// Events admitted since the previous tick.
    pub accepted: u64,
    /// Offers answered `Retry` since the previous tick.
    pub retried: u64,
    /// Offers shed since the previous tick.
    pub shed: u64,
    /// Events drained out of the queue by this tick.
    pub drained: u64,
    /// Samples absorbed into session buffers this tick.
    pub absorbed: u64,
    /// Stale/duplicate samples dropped this tick.
    pub stale_dropped: u64,
    /// Anomaly events committed this tick.
    pub emitted: u64,
    /// Detection passes attempted this tick.
    pub passes_run: u64,
    /// Scheduled passes skipped this tick (breaker open/quarantined).
    pub passes_skipped: u64,
    /// Attempted passes that failed this tick.
    pub pass_failures: u64,
    /// Wall time spent in this tenant's detection passes this tick
    /// (volatile; masked in determinism tests).
    pub pass_seconds: f64,
    /// Breaker state after the tick (`closed`/`open`/`half_open`).
    pub breaker_state: &'static str,
    /// Cumulative breaker trips.
    pub breaker_trips: u64,
    /// Running the fallback pipeline after this tick.
    pub degraded: bool,
    /// Permanently parked after this tick.
    pub quarantined: bool,
}

impl TenantTickStats {
    /// Encode as a store document (nested under a wide event).
    pub fn to_doc(&self) -> Doc {
        Doc::obj()
            .with("tenant", self.tenant.as_str())
            .with("accepted", self.accepted)
            .with("retried", self.retried)
            .with("shed", self.shed)
            .with("drained", self.drained)
            .with("absorbed", self.absorbed)
            .with("stale_dropped", self.stale_dropped)
            .with("emitted", self.emitted)
            .with("passes_run", self.passes_run)
            .with("passes_skipped", self.passes_skipped)
            .with("pass_failures", self.pass_failures)
            .with("pass_seconds", self.pass_seconds)
            .with("breaker_state", self.breaker_state)
            .with("breaker_trips", self.breaker_trips)
            .with("degraded", self.degraded)
            .with("quarantined", self.quarantined)
    }
}

/// One structured record per engine tick (see module docs).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TickWideEvent {
    /// The tick this record describes (1-based, monotonic across
    /// recoveries).
    pub tick: u64,
    /// Events admitted since the previous tick, all tenants.
    pub accepted: u64,
    /// `Retry` answers since the previous tick, all tenants.
    pub retried: u64,
    /// Shed offers since the previous tick, all tenants.
    pub shed: u64,
    /// Events drained into sessions by this tick.
    pub drained: u64,
    /// Samples absorbed into buffers this tick.
    pub absorbed: u64,
    /// Anomaly events committed this tick (tenant streams only; the
    /// self-monitor's are counted in [`TickWideEvent::self_events`]).
    pub emitted: u64,
    /// Detection passes attempted this tick.
    pub passes_run: u64,
    /// Attempted passes that failed this tick.
    pub pass_failures: u64,
    /// Anomaly events the self-monitor emitted on the engine's own
    /// operational streams this tick.
    pub self_events: u64,
    /// Wall time spent in detection passes this tick, all tenants
    /// (volatile; masked in determinism tests).
    pub pass_seconds: f64,
    /// Commit duration of the *previous* tick's checkpoint batch
    /// (volatile; masked in determinism tests). The current tick's
    /// commit hasn't happened when this record is written into it.
    pub checkpoint_seconds: f64,
    /// Per-tenant slices, tenant-name order.
    pub tenants: Vec<TenantTickStats>,
}

impl TickWideEvent {
    /// Encode as a `serve_ticks` document.
    pub fn to_doc(&self) -> Doc {
        let tenants: Vec<Doc> = self.tenants.iter().map(TenantTickStats::to_doc).collect();
        Doc::obj()
            .with("tick", self.tick)
            .with("accepted", self.accepted)
            .with("retried", self.retried)
            .with("shed", self.shed)
            .with("drained", self.drained)
            .with("absorbed", self.absorbed)
            .with("emitted", self.emitted)
            .with("passes_run", self.passes_run)
            .with("pass_failures", self.pass_failures)
            .with("self_events", self.self_events)
            .with("pass_seconds", self.pass_seconds)
            .with("checkpoint_seconds", self.checkpoint_seconds)
            .with("tenants", Doc::Arr(tenants))
    }

    /// One JSON line (for `--tick-log` tailing).
    pub fn to_json_line(&self) -> String {
        sintel_common::json::to_json(&self.to_doc())
    }
}

/// Ticks a [`TickWindow`] keeps.
pub const TICK_WINDOW: usize = 64;

/// One tick in a [`TickWindow`]: the counts of its wide event, its
/// wall time and the latencies of its detection passes.
#[derive(Debug, Clone)]
pub struct TickRecord {
    /// Events drained into sessions.
    pub drained: u64,
    /// Shed offers.
    pub shed: u64,
    /// `Retry` answers.
    pub retried: u64,
    /// Tenant anomaly events committed.
    pub emitted: u64,
    /// Attempted passes that failed.
    pub pass_failures: u64,
    /// Wall time of the whole tick; NaN for a tick whose commit failed
    /// and for the record recovered from the store at open, which
    /// [`Histogram::observe`] skips.
    pub tick_seconds: f64,
    /// Latency of every detection pass the tick ran, `_self` included.
    pub pass_latency: Histogram,
}

impl TickRecord {
    /// The record of a tick whose wide event is `wide` (final except
    /// for `self_events`) and whose passes took `pass_latency`.
    pub(crate) fn new(wide: &TickWideEvent, pass_latency: Histogram) -> Self {
        Self {
            drained: wide.drained,
            shed: wide.shed,
            retried: wide.retried,
            emitted: wide.emitted,
            pass_failures: wide.pass_failures,
            tick_seconds: f64::NAN,
            pass_latency,
        }
    }
}

/// A per-tick count summed over a [`TickWindow`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WindowSum {
    /// The newest tick's count.
    pub last: u64,
    /// Sum over the window.
    pub total: u64,
    /// Ticks in the window.
    pub ticks: usize,
    /// Largest single-tick count in the window.
    pub peak: u64,
}

impl WindowSum {
    /// Mean count per tick (0 for an empty window).
    pub fn per_tick(&self) -> f64 {
        if self.ticks == 0 {
            0.0
        } else {
            self.total as f64 / self.ticks as f64
        }
    }
}

/// The engine's last [`TICK_WINDOW`] ticks, oldest first (see module
/// docs). Its storage is allocated once, when the window is made.
#[derive(Debug, Clone)]
pub struct TickWindow {
    records: VecDeque<TickRecord>,
}

impl Default for TickWindow {
    fn default() -> Self {
        Self { records: VecDeque::with_capacity(TICK_WINDOW) }
    }
}

impl TickWindow {
    /// The window of an engine reopened at `ticks`: the committed wide
    /// event of that tick, if any, as its one record. The self-monitor
    /// resumes differencing from it.
    pub(crate) fn recover(db: &SintelDb, ticks: u64) -> Self {
        let mut window = Self::default();
        if let Some(doc) = db.serve_ticks_at(ticks).first() {
            let field = |k: &str| doc.get(k).and_then(Doc::as_i64).unwrap_or(0).max(0) as u64;
            let wide = TickWideEvent {
                drained: field("drained"),
                shed: field("shed"),
                retried: field("retried"),
                emitted: field("emitted"),
                pass_failures: field("pass_failures"),
                ..TickWideEvent::default()
            };
            window.push(TickRecord::new(&wide, Histogram::new()));
        }
        window
    }

    /// Append the newest tick, evicting the oldest past [`TICK_WINDOW`].
    pub(crate) fn push(&mut self, record: TickRecord) {
        if self.records.len() == TICK_WINDOW {
            self.records.pop_front();
        }
        self.records.push_back(record);
    }

    /// The newest tick, if any.
    pub fn newest(&self) -> Option<&TickRecord> {
        self.records.back()
    }

    /// Set the newest tick's wall time once its commit has succeeded.
    pub(crate) fn time_newest(&mut self, seconds: f64) {
        if let Some(record) = self.records.back_mut() {
            record.tick_seconds = seconds;
        }
    }

    /// One per-tick count summed over the window.
    pub fn sum(&self, count: fn(&TickRecord) -> u64) -> WindowSum {
        let mut sum = WindowSum { ticks: self.records.len(), ..WindowSum::default() };
        for record in &self.records {
            let n = count(record);
            sum.total += n;
            sum.peak = sum.peak.max(n);
            sum.last = n;
        }
        sum
    }

    /// Every pass latency in the window, merged.
    pub fn pass_latency(&self) -> Histogram {
        let mut merged = Histogram::new();
        for record in &self.records {
            merged.merge(&record.pass_latency);
        }
        merged
    }

    /// The wall times of the window's timed ticks.
    pub fn tick_latency(&self) -> Histogram {
        let mut merged = Histogram::new();
        for record in &self.records {
            merged.observe(record.tick_seconds);
        }
        merged
    }

    /// The window's seven series as Prometheus gauges, in name order.
    /// A count `X` renders `X_last`, `X_window_total` and
    /// `X_window_per_tick`; a latency `X` renders `X_window_count` and
    /// `X_window_p50/p90/p99`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        render_sum(&mut out, "sintel_serve_emits_per_tick", self.sum(|r| r.emitted));
        render_sum(&mut out, "sintel_serve_events_per_tick", self.sum(|r| r.drained));
        render_sum(&mut out, "sintel_serve_pass_failures_per_tick", self.sum(|r| r.pass_failures));
        render_latency(&mut out, "sintel_serve_pass_window_seconds", &self.pass_latency());
        render_sum(&mut out, "sintel_serve_retries_per_tick", self.sum(|r| r.retried));
        render_sum(&mut out, "sintel_serve_sheds_per_tick", self.sum(|r| r.shed));
        render_latency(&mut out, "sintel_serve_tick_window_seconds", &self.tick_latency());
        out
    }
}

fn render_gauge(out: &mut String, name: &str, suffix: &str, value: &str) {
    out.push_str(&format!("# TYPE {name}_{suffix} gauge\n{name}_{suffix} {value}\n"));
}

fn render_sum(out: &mut String, name: &str, sum: WindowSum) {
    render_gauge(out, name, "last", &format_f64(sum.last as f64));
    render_gauge(out, name, "window_total", &format_f64(sum.total as f64));
    render_gauge(out, name, "window_per_tick", &format_f64(sum.per_tick()));
}

fn render_latency(out: &mut String, name: &str, latency: &Histogram) {
    render_gauge(out, name, "window_count", &latency.count().to_string());
    for (suffix, q) in [("window_p50", 0.5), ("window_p90", 0.9), ("window_p99", 0.99)] {
        render_gauge(out, name, suffix, &format_f64(latency.quantile(q)));
    }
}

/// The per-tenant SLO summary the `/tenants` endpoint serves:
/// cumulative counters plus derived ratios and protection state.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantSlo {
    /// Tenant name.
    pub tenant: String,
    /// Load-shedding priority.
    pub priority: u8,
    /// Queue depth at the last publish.
    pub queue_depth: u64,
    /// Cumulative admission / processing counters.
    pub stats: TenantStats,
    /// Breaker state (`closed`/`open`/`half_open`).
    pub breaker_state: &'static str,
}

impl TenantSlo {
    /// Offered events (accepted + retried + shed).
    pub fn offered(&self) -> u64 {
        self.stats.accepted + self.stats.retried + self.stats.shed
    }

    /// Fraction of offers shed (0 when nothing was offered).
    pub fn shed_ratio(&self) -> f64 {
        let offered = self.offered();
        if offered == 0 {
            0.0
        } else {
            self.stats.shed as f64 / offered as f64
        }
    }

    /// Fraction of attempted passes that failed (0 when none ran).
    pub fn failure_ratio(&self) -> f64 {
        if self.stats.passes_run == 0 {
            0.0
        } else {
            self.stats.pass_failures as f64 / self.stats.passes_run as f64
        }
    }

    /// Encode as one element of the `/tenants` JSON array.
    pub fn to_doc(&self) -> Doc {
        Doc::obj()
            .with("tenant", self.tenant.as_str())
            .with("priority", self.priority as i64)
            .with("queue_depth", self.queue_depth)
            .with("accepted", self.stats.accepted)
            .with("retried", self.stats.retried)
            .with("shed", self.stats.shed)
            .with("shed_ratio", self.shed_ratio())
            .with("absorbed", self.stats.absorbed)
            .with("emitted", self.stats.emitted)
            .with("passes_run", self.stats.passes_run)
            .with("passes_skipped", self.stats.passes_skipped)
            .with("pass_failures", self.stats.pass_failures)
            .with("failure_ratio", self.failure_ratio())
            .with("breaker_state", self.breaker_state)
            .with("breaker_trips", self.stats.breaker_trips)
            .with("degraded", self.stats.degraded)
            .with("quarantined", self.stats.quarantined)
    }
}

/// The immutable snapshot a status server reads. The engine swaps in a
/// fresh `Arc<StatusSnapshot>` once per tick; scrapes clone the `Arc`.
#[derive(Debug, Clone, Default)]
pub struct StatusSnapshot {
    /// Ticks committed so far.
    pub ticks: u64,
    /// Events queued across all tenants at the last publish.
    pub backlog: u64,
    /// Per-tenant SLO summaries, tenant-name order.
    pub tenants: Vec<TenantSlo>,
    /// The last committed wide event, if any tick has run.
    pub last_tick: Option<TickWideEvent>,
    /// The engine's window of its last ticks (the `/metrics` series).
    pub window: TickWindow,
}

/// Health classification of a [`StatusSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Readiness {
    /// Every tenant healthy.
    Ok,
    /// Serving, but some tenant is degraded, tripped or quarantined.
    Degraded,
    /// No tenant can be served (all quarantined): scrape targets
    /// should fail readiness.
    Unready,
}

impl Readiness {
    /// Stable lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Readiness::Ok => "ok",
            Readiness::Degraded => "degraded",
            Readiness::Unready => "unready",
        }
    }

    /// The HTTP status code `/healthz` answers with.
    pub fn http_status(self) -> u16 {
        match self {
            Readiness::Ok | Readiness::Degraded => 200,
            Readiness::Unready => 503,
        }
    }
}

impl StatusSnapshot {
    /// Breaker/quarantine-aware readiness (see [`Readiness`]).
    pub fn readiness(&self) -> Readiness {
        if !self.tenants.is_empty() && self.tenants.iter().all(|t| t.stats.quarantined) {
            return Readiness::Unready;
        }
        let impaired = self.tenants.iter().any(|t| {
            t.stats.quarantined || t.stats.degraded || t.breaker_state != "closed"
        });
        if impaired {
            Readiness::Degraded
        } else {
            Readiness::Ok
        }
    }

    /// The `/healthz` JSON body.
    pub fn healthz_json(&self) -> String {
        let readiness = self.readiness();
        let quarantined = self.tenants.iter().filter(|t| t.stats.quarantined).count();
        let degraded = self.tenants.iter().filter(|t| t.stats.degraded).count();
        let open = self.tenants.iter().filter(|t| t.breaker_state != "closed").count();
        let doc = Doc::obj()
            .with("status", readiness.as_str())
            .with("ticks", self.ticks)
            .with("backlog", self.backlog)
            .with("tenants", self.tenants.len())
            .with("quarantined", quarantined)
            .with("degraded", degraded)
            .with("breakers_not_closed", open);
        sintel_common::json::to_json(&doc)
    }

    /// The `/tenants` JSON body (array, tenant-name order).
    pub fn tenants_json(&self) -> String {
        let docs: Vec<Doc> = self.tenants.iter().map(TenantSlo::to_doc).collect();
        sintel_common::json::to_json(&Doc::Arr(docs))
    }
}

/// The handle the engine publishes snapshots through and the status
/// server reads from. Double-`Arc`: the outer one is shared between
/// engine and server threads, the inner one makes each published
/// snapshot immutable and cheap to hand to a scrape.
pub type SharedStatus = Arc<Mutex<Arc<StatusSnapshot>>>;

/// A fresh handle holding an empty snapshot.
pub fn shared_status() -> SharedStatus {
    Arc::new(Mutex::new(Arc::new(StatusSnapshot::default())))
}

/// Publish a new snapshot (engine side).
pub fn publish(shared: &SharedStatus, snapshot: StatusSnapshot) {
    *shared.lock().unwrap_or_else(|e| e.into_inner()) = Arc::new(snapshot);
}

/// Read the current snapshot (server side).
pub fn current(shared: &SharedStatus) -> Arc<StatusSnapshot> {
    shared.lock().unwrap_or_else(|e| e.into_inner()).clone()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slo(name: &str, quarantined: bool, degraded: bool, breaker: &'static str) -> TenantSlo {
        TenantSlo {
            tenant: name.to_string(),
            priority: 5,
            queue_depth: 0,
            stats: TenantStats { quarantined, degraded, ..TenantStats::default() },
            breaker_state: breaker,
        }
    }

    #[test]
    fn readiness_classification() {
        let mut snap = StatusSnapshot::default();
        assert_eq!(snap.readiness(), Readiness::Ok, "no tenants: engine itself is up");

        snap.tenants = vec![slo("a", false, false, "closed"), slo("b", false, false, "closed")];
        assert_eq!(snap.readiness(), Readiness::Ok);

        snap.tenants[1].stats.degraded = true;
        assert_eq!(snap.readiness(), Readiness::Degraded);
        assert_eq!(snap.readiness().http_status(), 200);

        snap.tenants[1] = slo("b", false, false, "open");
        assert_eq!(snap.readiness(), Readiness::Degraded);

        snap.tenants = vec![slo("a", true, false, "closed"), slo("b", true, false, "closed")];
        assert_eq!(snap.readiness(), Readiness::Unready);
        assert_eq!(snap.readiness().http_status(), 503);

        // One healthy tenant keeps the engine ready.
        snap.tenants.push(slo("c", false, false, "closed"));
        assert_eq!(snap.readiness(), Readiness::Degraded);
    }

    #[test]
    fn slo_ratios() {
        let mut t = slo("a", false, false, "closed");
        assert_eq!(t.shed_ratio(), 0.0);
        assert_eq!(t.failure_ratio(), 0.0);
        t.stats.accepted = 6;
        t.stats.shed = 2;
        t.stats.retried = 0;
        assert!((t.shed_ratio() - 0.25).abs() < 1e-12);
        t.stats.passes_run = 4;
        t.stats.pass_failures = 1;
        assert!((t.failure_ratio() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn wide_event_doc_shape_and_json_line() {
        let wide = TickWideEvent {
            tick: 3,
            accepted: 10,
            drained: 10,
            absorbed: 9,
            emitted: 1,
            passes_run: 2,
            tenants: vec![TenantTickStats {
                tenant: "acme".to_string(),
                accepted: 10,
                drained: 10,
                absorbed: 9,
                emitted: 1,
                passes_run: 2,
                breaker_state: "closed",
                ..TenantTickStats::default()
            }],
            ..TickWideEvent::default()
        };
        let doc = wide.to_doc();
        assert_eq!(doc.get("tick").unwrap().as_i64(), Some(3));
        assert_eq!(doc.get("tenants").unwrap().as_arr().unwrap().len(), 1);
        let line = wide.to_json_line();
        assert!(line.contains("\"tick\":3"));
        assert!(line.contains("\"tenant\":\"acme\""));
        assert!(!line.contains('\n'));
        for field in VOLATILE_TICK_FIELDS {
            assert!(line.contains(&format!("\"{field}\":")), "volatile field {field} present");
        }
    }

    #[test]
    fn healthz_and_tenants_json_render() {
        let snap = StatusSnapshot {
            ticks: 7,
            backlog: 2,
            tenants: vec![slo("acme", false, true, "closed")],
            ..StatusSnapshot::default()
        };
        let health = snap.healthz_json();
        assert!(health.contains("\"status\":\"degraded\""));
        assert!(health.contains("\"ticks\":7"));
        assert!(health.contains("\"degraded\":1"));
        let tenants = snap.tenants_json();
        assert!(tenants.starts_with('['));
        assert!(tenants.contains("\"tenant\":\"acme\""));
        assert!(tenants.contains("\"breaker_state\":\"closed\""));
    }

    #[test]
    fn shared_status_publish_and_read() {
        let shared = shared_status();
        assert_eq!(current(&shared).ticks, 0);
        publish(&shared, StatusSnapshot { ticks: 42, ..StatusSnapshot::default() });
        assert_eq!(current(&shared).ticks, 42);
    }

    fn record(drained: u64, passes: &[f64]) -> TickRecord {
        let mut pass_latency = Histogram::new();
        for &seconds in passes {
            pass_latency.observe(seconds);
        }
        TickRecord::new(&TickWideEvent { drained, ..TickWideEvent::default() }, pass_latency)
    }

    #[test]
    fn window_sums_last_total_per_tick_and_peak() {
        let mut window = TickWindow::default();
        for drained in [1, 5, 2, 4] {
            window.push(record(drained, &[]));
        }
        let sum = window.sum(|r| r.drained);
        assert_eq!(sum, WindowSum { last: 4, total: 12, ticks: 4, peak: 5 });
        assert!((sum.per_tick() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn window_evicts_after_64_ticks() {
        let mut window = TickWindow::default();
        let capacity = window.records.capacity();
        assert!(capacity >= TICK_WINDOW, "the ring is allocated when the window is made");
        for drained in 1..=TICK_WINDOW as u64 + 10 {
            window.push(record(drained, &[]));
        }
        let sum = window.sum(|r| r.drained);
        assert_eq!(sum.ticks, TICK_WINDOW);
        assert_eq!(sum.last, 74);
        assert_eq!(sum.peak, 74);
        assert_eq!(sum.total, (11..=74).sum::<u64>(), "only the last 64 ticks survive");
        assert_eq!(window.records.capacity(), capacity, "pushing never reallocates");
    }

    #[test]
    fn window_merges_pass_latency_quantiles() {
        let mut window = TickWindow::default();
        window.push(record(0, &[0.001]));
        window.push(record(0, &[0.001, 1.0]));
        let merged = window.pass_latency();
        assert_eq!(merged.count(), 3);
        assert!(merged.quantile(0.5) < 0.01);
        assert!(merged.quantile(0.99) > 1.0, "the slow pass dominates p99");
        for _ in 1..TICK_WINDOW {
            window.push(record(0, &[]));
        }
        assert_eq!(window.pass_latency().count(), 2, "the first tick's pass is evicted");
    }

    #[test]
    fn empty_ticks_read_as_zero() {
        let mut window = TickWindow::default();
        assert_eq!(window.sum(|r| r.shed), WindowSum::default());
        assert_eq!(window.sum(|r| r.shed).per_tick(), 0.0);
        assert_eq!(window.pass_latency().quantile(0.99), 0.0);
        window.push(record(0, &[]));
        window.push(record(0, &[]));
        assert_eq!(window.sum(|r| r.shed), WindowSum { ticks: 2, ..WindowSum::default() });
        assert_eq!(window.tick_latency().count(), 0, "an untimed tick is no observation");
        window.time_newest(0.25);
        assert_eq!(window.tick_latency().count(), 1);
    }

    #[test]
    fn window_renders_prometheus_gauges() {
        let mut window = TickWindow::default();
        window.push(record(3, &[0.01]));
        window.time_newest(0.02);
        let text = window.to_prometheus();
        assert!(text.contains(concat!(
            "# TYPE sintel_serve_events_per_tick_last gauge\n",
            "sintel_serve_events_per_tick_last 3.0\n",
        )));
        assert!(text.contains("sintel_serve_events_per_tick_window_total 3.0\n"));
        assert!(text.contains("sintel_serve_events_per_tick_window_per_tick 3.0\n"));
        assert!(text.contains("sintel_serve_sheds_per_tick_last 0.0\n"));
        assert!(text.contains("sintel_serve_pass_window_seconds_window_count 1\n"));
        assert!(text.contains("sintel_serve_pass_window_seconds_window_p99"));
        assert!(text.contains("sintel_serve_tick_window_seconds_window_count 1\n"));
        // Five counts of three gauges and two latencies of four, each
        // sample preceded by its TYPE line.
        assert_eq!(text.lines().count(), 2 * (5 * 3 + 2 * 4));
        assert_eq!(TickWindow::default().to_prometheus().lines().count(), 2 * (5 * 3 + 2 * 4));
    }
}
