//! Self-monitoring: the engine watches itself with its own machinery.
//!
//! Every committed tick produces a handful of operational measurements
//! (events drained, offers shed, pass failures, backlog). Instead of
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
//! cuts, and the differencing baseline is re-seeded from the last
//! committed wide event on recovery, so a recovered self-monitor
//! continues exactly where the committed cut left it.
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
use crate::slo::TickWideEvent;
use crate::Result;
use sintel_store::{Doc, SintelDb};

/// The reserved tenant name the engine's own anomalies are filed
/// under. Rejected as a registered tenant name.
pub const SELF_TENANT: &str = "_self";

/// The monitored streams, in feed order. Values are per-tick first
/// differences of: events drained, offers shed, pass failures, backlog.
const STREAMS: [&str; 4] =
    ["events_per_tick", "sheds_per_tick", "pass_failures_per_tick", "backlog"];

/// The engine's self-observation session (see module docs).
#[derive(Debug)]
pub struct SelfMonitor {
    session: TenantSession,
    slot: CheckpointSlot,
    cfg: ServeConfig,
    /// Raw stream values at the previously observed tick (the
    /// differencing baseline); `None` until the first observation.
    last_raw: Option<[f64; 4]>,
}

impl SelfMonitor {
    /// Sliding window kept per operational stream (ticks).
    const WINDOW: usize = 128;
    /// A detection pass fires every `HOP`-th tick per stream.
    const HOP: u64 = 16;
    /// Ticks buffered before the first pass may fire.
    const MIN_POINTS: usize = 32;

    /// Open the self-monitor over `db`, recovering a checkpointed
    /// `_self` session if one was committed. `ticks` is the engine's
    /// recovered tick counter: the differencing baseline is re-seeded
    /// from that tick's committed wide event (written in the same
    /// batch as the session checkpoint, so the two always agree).
    /// Scheduling knobs are fixed — the streams are one sample per
    /// tick — while the run policy and fallback template are inherited
    /// from the engine's config.
    pub fn open(db: &SintelDb, base: &ServeConfig, ticks: u64) -> Result<SelfMonitor> {
        let cfg = ServeConfig {
            window: Self::WINDOW,
            hop: Self::HOP,
            min_points: Self::MIN_POINTS,
            ..base.clone()
        };
        let (session, slot) = TenantSession::recover(db, SELF_TENANT)?;
        let last_raw = if ticks > 0 {
            db.serve_ticks_at(ticks).first().map(|doc| {
                let field = |k: &str| {
                    doc.get(k).and_then(Doc::as_i64).unwrap_or(0).max(0) as f64
                };
                [field("drained"), field("shed"), field("pass_failures"), field("backlog")]
            })
        } else {
            None
        };
        Ok(SelfMonitor { session, slot, cfg, last_raw })
    }

    /// Absorb one committed tick's operational measurements, running
    /// any detection pass that falls due. Timestamps are logical ticks,
    /// so replaying an already-observed tick after recovery is dropped
    /// idempotently like any stale sample (the differencing baseline
    /// still advances, keeping replays convergent).
    pub fn observe_tick(&mut self, tick: u64, wide: &TickWideEvent) -> PassReport {
        let timestamp = tick.min(i64::MAX as u64) as i64;
        let mut report = PassReport::default();
        let template = self.cfg.fallback.clone();
        let raw = [
            wide.drained as f64,
            wide.shed as f64,
            wide.pass_failures as f64,
            wide.backlog as f64,
        ];
        let base = self.last_raw.unwrap_or(raw);
        self.last_raw = Some(raw);
        for (i, signal) in STREAMS.into_iter().enumerate() {
            let delta = raw[i] - base[i];
            let event = IngestEvent::new(SELF_TENANT, signal, timestamp, delta);
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

    fn wide(tick: u64, drained: u64, shed: u64, failures: u64) -> TickWideEvent {
        TickWideEvent {
            tick,
            drained,
            shed,
            pass_failures: failures,
            ..TickWideEvent::default()
        }
    }

    #[test]
    fn quiet_workload_emits_no_self_anomalies() {
        let db = SintelDb::in_memory();
        let mut monitor = SelfMonitor::open(&db, &ServeConfig::for_tests(), 0).expect("open");
        let mut emitted = Vec::new();
        for tick in 1..=96 {
            // Heavy but perfectly steady: differencing keeps it silent.
            let report = monitor.observe_tick(tick, &wide(tick, 500, 0, 0));
            emitted.extend(report.events);
        }
        assert!(emitted.is_empty(), "steady per-tick streams must stay quiet: {emitted:?}");
        assert_eq!(monitor.session().signals().len(), 4);
        // Passes fire on the hop schedule once min_points is buffered.
        assert!(monitor.session().pass_counter() > 0);
    }

    #[test]
    fn shed_burst_surfaces_as_self_anomaly() {
        let db = SintelDb::in_memory();
        let mut monitor = SelfMonitor::open(&db, &ServeConfig::for_tests(), 0).expect("open");
        let mut events = Vec::new();
        for tick in 1..=128 {
            // One violent shed burst mid-stream.
            let shed = if (70..74).contains(&tick) { 500 } else { 0 };
            let report = monitor.observe_tick(tick, &wide(tick, 8, shed, 0));
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
        let db = SintelDb::in_memory();
        let feed = |monitor: &mut SelfMonitor, from: u64, to: u64| {
            let mut events = Vec::new();
            for tick in from..=to {
                let shed = if tick == 60 { 300 } else { 0 };
                events.extend(monitor.observe_tick(tick, &wide(tick, 4, shed, 0)).events);
            }
            events
        };

        let mut full = SelfMonitor::open(&db, &ServeConfig::for_tests(), 0).expect("open");
        let full_events = feed(&mut full, 1, 100);

        // Crash at tick 50, recover from the checkpoint, replay the
        // whole tick stream: stale ticks are absorbed idempotently and
        // the emission sequence converges bitwise.
        let db2 = SintelDb::in_memory();
        let mut first = SelfMonitor::open(&db2, &ServeConfig::for_tests(), 0).expect("open");
        let early = feed(&mut first, 1, 50);
        first.checkpoint(&db2).expect("checkpoint");
        let mut resumed = SelfMonitor::open(&db2, &ServeConfig::for_tests(), 0).expect("recover");
        let late = feed(&mut resumed, 1, 100);

        assert_eq!(resumed.session(), full.session());
        let mut combined = early;
        combined.extend(late);
        assert_eq!(combined, full_events);
    }

    #[test]
    fn recovery_reseeds_differencing_baseline_from_wide_event() {
        // A run whose load steps up to a new steady level right before
        // the crash: without baseline re-seeding, recovery would see
        // the post-crash level as a fresh spike.
        let db = SintelDb::in_memory();
        let mut monitor = SelfMonitor::open(&db, &ServeConfig::for_tests(), 0).expect("open");
        for tick in 1..=40u64 {
            monitor.observe_tick(tick, &wide(tick, 100, 0, 0));
        }
        monitor.checkpoint(&db).expect("checkpoint");
        db.add_serve_tick(wide(40, 100, 0, 0).to_doc()).expect("wide event");

        let recovered = SelfMonitor::open(&db, &ServeConfig::for_tests(), 40).expect("recover");
        assert_eq!(recovered.last_raw, Some([100.0, 0.0, 0.0, 0.0]));
        // Without a committed wide event at that tick, the baseline
        // stays unseeded (first post-recovery delta is then 0 by the
        // `unwrap_or(raw)` rule — still quiet, not a spike).
        let fresh = SelfMonitor::open(&db, &ServeConfig::for_tests(), 39).expect("recover");
        assert_eq!(fresh.last_raw, None);
    }
}
