//! Serve-level crash-point injection (the `faulty` feature's chaos
//! hooks), mirroring `sintel_store::wal::fault` one layer up: these
//! points crash the *engine tick* rather than the durability path, so
//! the chaos suite can simulate `kill -9` at the exact moments the
//! checkpoint protocol is supposed to protect.

use std::cell::Cell;

/// Where in the tick the simulated crash strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// Before any queue is drained or anything is written: the whole
    /// tick (queued events included, if the process dies) is lost —
    /// exactly one uncommitted checkpoint interval.
    BeforeCheckpoint,
    /// After the checkpoint batch has committed but before the events
    /// are returned to the caller: the store holds the events, the
    /// consumer never saw them. Recovery must neither lose nor
    /// duplicate them.
    BetweenCheckpointAndEmit,
}

impl CrashPoint {
    /// All crash points, for exhaustive harness sweeps.
    pub const ALL: [CrashPoint; 2] =
        [CrashPoint::BeforeCheckpoint, CrashPoint::BetweenCheckpointAndEmit];

    /// Stable label (used in the injected error and in logs).
    pub fn label(self) -> &'static str {
        match self {
            CrashPoint::BeforeCheckpoint => "before-checkpoint",
            CrashPoint::BetweenCheckpointAndEmit => "between-checkpoint-and-emit",
        }
    }
}

thread_local! {
    /// The armed point is per thread: a tick checks its crash points on
    /// the thread that called it, so tests arming points in parallel
    /// threads of one test binary never crash each other's engines.
    static ARMED: Cell<Option<CrashPoint>> = const { Cell::new(None) };
}

/// Arm one crash point; the next tick on this thread reaching it
/// crashes (once).
pub fn arm(point: CrashPoint) {
    ARMED.with(|armed| armed.set(Some(point)));
}

/// Disarm any crash point armed on this thread.
pub fn disarm() {
    ARMED.with(|armed| armed.set(None));
}

/// True (and disarms) when `point` is this thread's armed crash point.
pub(crate) fn take(point: CrashPoint) -> bool {
    ARMED.with(|armed| {
        let hit = armed.get() == Some(point);
        if hit {
            armed.set(None);
        }
        hit
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arm_take_disarm_cycle() {
        disarm();
        assert!(!take(CrashPoint::BeforeCheckpoint));
        arm(CrashPoint::BetweenCheckpointAndEmit);
        assert!(!take(CrashPoint::BeforeCheckpoint), "wrong point must not fire");
        assert!(take(CrashPoint::BetweenCheckpointAndEmit));
        assert!(!take(CrashPoint::BetweenCheckpointAndEmit), "points fire once");
        arm(CrashPoint::BeforeCheckpoint);
        disarm();
        assert!(!take(CrashPoint::BeforeCheckpoint));
    }

    #[test]
    fn labels_are_stable() {
        for point in CrashPoint::ALL {
            assert!(!point.label().is_empty());
        }
    }
}
