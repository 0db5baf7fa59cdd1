//! Self-monitoring: the engine watches itself with its own machinery.
//!
//! Every committed tick produces a handful of operational measurements
//! (events drained, offers shed, pass failures). Instead of
//! bolting an ad-hoc alerting rule onto those numbers, the engine feeds
//! them through the exact same path a tenant's telemetry takes: a
//! [`TenantSession`] under the reserved [`SELF_TENANT`] name, running
//! the cheap fallback template (spectral residual + fixed threshold,
//! one FFT per pass). A burst of load shedding or a failure streak then
//! surfaces as an ordinary committed anomaly event under `_self`,
//! queryable with the same store API as any tenant's stream.
//!
//! The monitored value is each stream's **first difference** (this
//! tick's count minus the previous tick's), not the raw level: a
//! steady workload — even a heavy one — is a constant stream, and
//! constant nonzero input provokes boundary artifacts from the
//! spectral-residual detector. Differencing maps "steady" to an
//! all-zero stream (provably quiet) while a burst becomes a ± spike
//! pair the fallback template flags reliably.
//!
//! Determinism: the input streams are per-tick counts of *committed*
//! work, clocked by the logical tick counter — pure functions of the
//! offer/tick sequence, never wall clock. Two runs with the same offers
//! and the same tick cadence emit bitwise-identical `_self` events at
//! any thread count; the scrape-purity suite relies on that. The
//! session checkpoints through the same [`TenantSession::checkpoint`]
//! into the same collections, inside the same group commit as tenant
//! cuts. The differencing baseline is the newest record of the
//! engine's [`crate::slo::TickWindow`], which a reopened engine
//! recovers from the last committed wide event, so a recovered
//! self-monitor continues exactly where the committed cut left it.
//!
//! Isolation: `_self` is not a registered tenant. It cannot be offered
//! events, is invisible in [`crate::engine::ServeStats::tenants`], and
//! its emissions are never returned from
//! [`crate::engine::ServeEngine::tick`] — they are only persisted (and
//! counted in the tick's wide event), so existing purity/recovery
//! contracts over tenant streams are untouched.

use crate::engine::ServeConfig;
use crate::event::IngestEvent;
use crate::session::{CheckpointSlot, PassReport, TenantSession};
use crate::slo::{TickRecord, TickWideEvent};
use crate::Result;
use sintel_store::SintelDb;

/// The reserved tenant name the engine's own anomalies are filed
/// under. Rejected as a registered tenant name.
pub const SELF_TENANT: &str = "_self";

/// The monitored streams, in feed order. Values are per-tick first
/// differences of: events drained, offers shed, pass failures.
const STREAMS: [&str; 3] = ["events_per_tick", "sheds_per_tick", "pass_failures_per_tick"];

/// The engine's self-observation session (see module docs).
#[derive(Debug)]
pub struct SelfMonitor {
    session: TenantSession,
    slot: CheckpointSlot,
    cfg: ServeConfig,
}

impl SelfMonitor {
    /// Sliding window kept per operational stream (ticks).
    const WINDOW: usize = 128;
    /// A detection pass fires every `HOP`-th tick per stream.
    const HOP: u64 = 16;
    /// Ticks buffered before the first pass may fire.
    const MIN_POINTS: usize = 32;

    /// Open the self-monitor over `db`, recovering a checkpointed
    /// `_self` session if one was committed. Scheduling knobs are fixed
    /// — the streams are one sample per tick — while the run policy and
    /// fallback template are inherited from the engine's config.
    pub fn open(db: &SintelDb, base: &ServeConfig) -> Result<SelfMonitor> {
        let cfg = ServeConfig {
            window: Self::WINDOW,
            hop: Self::HOP,
            min_points: Self::MIN_POINTS,
            ..base.clone()
        };
        let (session, slot) = TenantSession::recover(db, SELF_TENANT)?;
        Ok(SelfMonitor { session, slot, cfg })
    }

    /// Absorb one committed tick's operational measurements as first
    /// differences against `previous`, the tick before it (none before
    /// the first tick: the first differences are then 0), running any
    /// detection pass that falls due. Timestamps are logical ticks, so
    /// replaying an already-observed tick after recovery is dropped
    /// idempotently like any stale sample (the caller's baseline still
    /// advances, keeping replays convergent).
    pub fn observe_tick(
        &mut self,
        tick: u64,
        wide: &TickWideEvent,
        previous: Option<&TickRecord>,
    ) -> PassReport {
        let timestamp = tick.min(i64::MAX as u64) as i64;
        let mut report = PassReport::default();
        let template = self.cfg.fallback.clone();
        let now = [wide.drained, wide.shed, wide.pass_failures];
        let base = previous.map_or(now, |r| [r.drained, r.shed, r.pass_failures]);
        for ((signal, now), base) in STREAMS.into_iter().zip(now).zip(base) {
            let event = IngestEvent::new(SELF_TENANT, signal, timestamp, now as f64 - base as f64);
            self.session.absorb(&event, &template, &self.cfg, &mut report);
        }
        report
    }

    /// The underlying session (checkpointed by the engine each tick).
    pub fn session(&self) -> &TenantSession {
        &self.session
    }

    /// Checkpoint the session into its slot (inside the engine's group
    /// commit), exactly as a tenant's session is checkpointed.
    pub fn checkpoint(&mut self, db: &SintelDb) -> Result<()> {
        self.session.checkpoint(db, &mut self.slot, &self.cfg)
    }

    /// Rewrite whole windows at the next checkpoint (after a failed
    /// commit; see [`CheckpointSlot::invalidate`]).
    pub fn invalidate(&mut self) {
        self.slot.invalidate();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slo::TickWindow;
    use sintel_obs::Histogram;

    fn wide(tick: u64, drained: u64, shed: u64, failures: u64) -> TickWideEvent {
        TickWideEvent {
            tick,
            drained,
            shed,
            pass_failures: failures,
            ..TickWideEvent::default()
        }
    }

    /// Observe one tick, then record it in `window`, as the engine does.
    fn step(
        monitor: &mut SelfMonitor,
        window: &mut TickWindow,
        wide: &TickWideEvent,
    ) -> PassReport {
        let report = monitor.observe_tick(wide.tick, wide, window.newest());
        window.push(TickRecord::new(wide, Histogram::new()));
        report
    }

    fn open(db: &SintelDb) -> SelfMonitor {
        SelfMonitor::open(db, &ServeConfig::for_tests()).expect("open")
    }

    #[test]
    fn quiet_workload_emits_no_self_anomalies() {
        let db = SintelDb::in_memory();
        let mut monitor = open(&db);
        let mut window = TickWindow::default();
        let mut emitted = Vec::new();
        for tick in 1..=96 {
            // Heavy but perfectly steady: differencing keeps it silent.
            let report = step(&mut monitor, &mut window, &wide(tick, 500, 0, 0));
            emitted.extend(report.events);
        }
        assert!(emitted.is_empty(), "steady per-tick streams must stay quiet: {emitted:?}");
        assert_eq!(monitor.session().signals().len(), STREAMS.len());
        // Passes fire on the hop schedule once min_points is buffered.
        assert!(monitor.session().pass_counter() > 0);
    }

    #[test]
    fn shed_burst_surfaces_as_self_anomaly() {
        let db = SintelDb::in_memory();
        let mut monitor = open(&db);
        let mut window = TickWindow::default();
        let mut events = Vec::new();
        for tick in 1..=128 {
            // One violent shed burst mid-stream.
            let shed = if (70..74).contains(&tick) { 500 } else { 0 };
            let report = step(&mut monitor, &mut window, &wide(tick, 8, shed, 0));
            events.extend(report.events);
        }
        assert!(
            events.iter().any(|e| e.signal == "sheds_per_tick"),
            "a shed burst must be detected on the engine's own stream: {events:?}"
        );
        assert!(events.iter().all(|e| e.tenant == SELF_TENANT));
    }

    #[test]
    fn observation_is_idempotent_and_deterministic() {
        let feed = |monitor: &mut SelfMonitor, from: u64, to: u64| {
            let mut window = TickWindow::default();
            let mut events = Vec::new();
            for tick in from..=to {
                let shed = if tick == 60 { 300 } else { 0 };
                events.extend(step(monitor, &mut window, &wide(tick, 4, shed, 0)).events);
            }
            events
        };

        let mut full = open(&SintelDb::in_memory());
        let full_events = feed(&mut full, 1, 100);

        // Crash at tick 50, recover from the checkpoint, replay the
        // whole tick stream: stale ticks are absorbed idempotently and
        // the emission sequence converges bitwise.
        let db = SintelDb::in_memory();
        let mut first = open(&db);
        let early = feed(&mut first, 1, 50);
        first.checkpoint(&db).expect("checkpoint");
        let mut resumed = open(&db);
        let late = feed(&mut resumed, 1, 100);

        assert_eq!(resumed.session(), full.session());
        let mut combined = early;
        combined.extend(late);
        assert_eq!(combined, full_events);
    }

    #[test]
    fn recovery_reseeds_differencing_baseline_from_wide_event() {
        // A run whose load steps up to a new steady level right before
        // the crash: the reopened engine's window must resume from the
        // committed level, or the first post-crash delta would differ
        // from the one the uninterrupted run saw.
        let db = SintelDb::in_memory();
        let mut monitor = open(&db);
        let mut window = TickWindow::default();
        for tick in 1..=40u64 {
            step(&mut monitor, &mut window, &wide(tick, 100, 0, 0));
        }
        monitor.checkpoint(&db).expect("checkpoint");
        db.add_serve_tick(wide(40, 100, 0, 0).to_doc()).expect("wide event");

        let recovered = TickWindow::recover(&db, 40);
        let counts = |r: &TickRecord| (r.drained, r.shed, r.pass_failures);
        assert_eq!(recovered.newest().map(counts), window.newest().map(counts));
        assert_eq!(recovered.sum(|r| r.drained).ticks, 1);
        // Without a committed wide event at that tick, the window starts
        // empty (the first post-recovery delta is then 0 — still quiet,
        // not a spike).
        assert!(TickWindow::recover(&db, 39).newest().is_none());
        assert!(TickWindow::recover(&db, 0).newest().is_none());
    }
}
