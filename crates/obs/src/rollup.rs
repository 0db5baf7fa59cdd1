//! Windowed per-tick rollups — live rates, deltas and per-window
//! latency quantiles over the last N *logical* ticks.
//!
//! The cumulative [`crate::metrics`] registry answers "how many events
//! ever"; an operator watching a live engine needs "how many events
//! *per tick*, lately". A [`Rollups`] registry keeps, per series, an
//! accumulator for the tick in progress plus a ring buffer of the last
//! `window` completed ticks. Producers record into the accumulator
//! ([`rollup_add`] / [`rollup_observe`]); the engine advances the
//! clock once per tick ([`rollup_tick`]), which seals every
//! accumulator into its ring. Snapshots then answer events/tick,
//! sheds/tick, and p99-over-the-last-window without any background
//! thread — the clock is logical, driven by the instrumented loop
//! itself, so rollups stay deterministic and scrape-independent.
//!
//! Two series kinds:
//!
//! * **delta** — a `u64` sum per tick (events admitted, sheds, …).
//! * **observe** — a [`Histogram`] per tick (pass latency, …), merged
//!   across the window for quantiles.
//!
//! Like the metrics registry, there is a process [`rollups`] registry,
//! and tests can own private [`Rollups`] instances.

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Mutex, MutexGuard, OnceLock};

use crate::metrics::Histogram;
use crate::format_f64;

/// Default number of completed ticks a ring retains.
pub const DEFAULT_WINDOW: usize = 64;

#[derive(Debug, Clone)]
enum Series {
    /// Per-tick sums.
    Delta { current: u64, ring: VecDeque<u64> },
    /// Per-tick histograms.
    Observe { current: Histogram, ring: VecDeque<Histogram> },
}

impl Series {
    fn seal(&mut self, window: usize) {
        match self {
            Series::Delta { current, ring } => {
                ring.push_back(std::mem::take(current));
                while ring.len() > window {
                    ring.pop_front();
                }
            }
            Series::Observe { current, ring } => {
                ring.push_back(std::mem::take(current));
                while ring.len() > window {
                    ring.pop_front();
                }
            }
        }
    }
}

#[derive(Debug)]
struct Inner {
    window: usize,
    ticks: u64,
    series: BTreeMap<String, Series>,
}

/// A registry of windowed per-tick series (see module docs).
#[derive(Debug)]
pub struct Rollups {
    inner: Mutex<Inner>,
}

impl Default for Rollups {
    fn default() -> Self {
        Self {
            inner: Mutex::new(Inner {
                window: DEFAULT_WINDOW,
                ticks: 0,
                series: BTreeMap::new(),
            }),
        }
    }
}

impl Rollups {
    /// New empty registry with the default window.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Set the ring length (completed ticks retained); clamps to ≥ 1
    /// and truncates existing rings from the oldest end.
    pub fn set_window(&self, window: usize) {
        let mut inner = self.lock();
        inner.window = window.max(1);
        let window = inner.window;
        for series in inner.series.values_mut() {
            match series {
                Series::Delta { ring, .. } => {
                    while ring.len() > window {
                        ring.pop_front();
                    }
                }
                Series::Observe { ring, .. } => {
                    while ring.len() > window {
                        ring.pop_front();
                    }
                }
            }
        }
    }

    /// Add to a delta series' current-tick sum (creating the series on
    /// first use; `add(name, 0)` pre-registers it).
    pub fn add(&self, name: &str, by: u64) {
        let mut inner = self.lock();
        match inner
            .series
            .entry(name.to_string())
            .or_insert_with(|| Series::Delta { current: 0, ring: VecDeque::new() })
        {
            Series::Delta { current, .. } => *current += by,
            other => *other = Series::Delta { current: by, ring: VecDeque::new() },
        }
    }

    /// Record an observation (seconds) into an observe series'
    /// current-tick histogram.
    pub fn observe(&self, name: &str, seconds: f64) {
        let mut inner = self.lock();
        match inner.series.entry(name.to_string()).or_insert_with(|| Series::Observe {
            current: Histogram::new(),
            ring: VecDeque::new(),
        }) {
            Series::Observe { current, .. } => current.observe(seconds),
            other => {
                let mut h = Histogram::new();
                h.observe(seconds);
                *other = Series::Observe { current: h, ring: VecDeque::new() };
            }
        }
    }

    /// Advance the logical clock: seal every series' accumulator into
    /// its ring (dropping ticks beyond the window) and return the
    /// number of completed ticks.
    pub fn tick(&self) -> u64 {
        let mut inner = self.lock();
        let window = inner.window;
        for series in inner.series.values_mut() {
            series.seal(window);
        }
        inner.ticks += 1;
        inner.ticks
    }

    /// Remove every series and reset the clock (between runs / tests).
    pub fn reset(&self) {
        let mut inner = self.lock();
        inner.series.clear();
        inner.ticks = 0;
    }

    /// Freeze the completed-tick state (the in-progress accumulator is
    /// excluded: it is not a finished tick yet).
    pub fn snapshot(&self) -> RollupSnapshot {
        let inner = self.lock();
        let series = inner
            .series
            .iter()
            .map(|(name, series)| {
                let summary = match series {
                    Series::Delta { ring, .. } => {
                        let window_total: u64 = ring.iter().sum();
                        let ticks_covered = ring.len();
                        RollupSeries::Delta {
                            last: ring.back().copied().unwrap_or(0),
                            window_total,
                            ticks_covered,
                            per_tick: if ticks_covered == 0 {
                                0.0
                            } else {
                                window_total as f64 / ticks_covered as f64
                            },
                            peak: ring.iter().copied().max().unwrap_or(0),
                        }
                    }
                    Series::Observe { ring, .. } => {
                        let mut merged = Histogram::new();
                        for h in ring {
                            merged.merge(h);
                        }
                        RollupSeries::Observe {
                            last_count: ring.back().map(|h| h.count()).unwrap_or(0),
                            ticks_covered: ring.len(),
                            window: merged,
                        }
                    }
                };
                (name.clone(), summary)
            })
            .collect();
        RollupSnapshot { window: inner.window, ticks: inner.ticks, series }
    }
}

/// The process-wide rollup registry.
pub fn rollups() -> &'static Rollups {
    static GLOBAL: OnceLock<Rollups> = OnceLock::new();
    GLOBAL.get_or_init(Rollups::default)
}

/// [`Rollups::add`] on the process registry.
pub fn rollup_add(name: &str, by: u64) {
    rollups().add(name, by);
}

/// [`Rollups::observe`] on the process registry.
pub fn rollup_observe(name: &str, seconds: f64) {
    rollups().observe(name, seconds);
}

/// [`Rollups::tick`] on the process registry.
pub fn rollup_tick() -> u64 {
    rollups().tick()
}

/// One series in a [`RollupSnapshot`].
#[derive(Debug, Clone, PartialEq)]
pub enum RollupSeries {
    /// Per-tick sums over the window.
    Delta {
        /// Sum of the most recent completed tick.
        last: u64,
        /// Sum across the whole window.
        window_total: u64,
        /// Completed ticks in the ring (≤ window).
        ticks_covered: usize,
        /// `window_total / ticks_covered` (0 when empty).
        per_tick: f64,
        /// Largest single-tick sum in the window.
        peak: u64,
    },
    /// Per-tick histograms merged across the window.
    Observe {
        /// Observation count of the most recent completed tick.
        last_count: u64,
        /// Completed ticks in the ring (≤ window).
        ticks_covered: usize,
        /// All window observations merged (quantiles, count, sum).
        window: Histogram,
    },
}

/// An immutable copy of a [`Rollups`] registry's completed-tick state.
#[derive(Debug, Clone)]
pub struct RollupSnapshot {
    /// Ring length the registry was configured with.
    pub window: usize,
    /// Completed ticks since start/reset.
    pub ticks: u64,
    /// Series name → windowed summary.
    pub series: BTreeMap<String, RollupSeries>,
}

impl RollupSnapshot {
    /// Fetch a series by name.
    pub fn get(&self, name: &str) -> Option<&RollupSeries> {
        self.series.get(name)
    }

    /// Prometheus-style gauges derived from the window. Every sample
    /// is a gauge: rates go up *and* down, unlike the cumulative
    /// registry's counters. A delta series `X` renders `X_last`,
    /// `X_window_total` and `X_window_per_tick`; an observe series
    /// renders `X_window_count` and `X_window_p50/p90/p99`.
    pub fn to_prometheus(&self) -> String {
        let mut out = String::new();
        for (name, series) in &self.series {
            match series {
                RollupSeries::Delta { last, window_total, per_tick, .. } => {
                    for (suffix, value) in [
                        ("last", *last as f64),
                        ("window_total", *window_total as f64),
                        ("window_per_tick", *per_tick),
                    ] {
                        out.push_str(&format!("# TYPE {name}_{suffix} gauge\n"));
                        out.push_str(&format!("{name}_{suffix} {}\n", format_f64(value)));
                    }
                }
                RollupSeries::Observe { window, .. } => {
                    out.push_str(&format!("# TYPE {name}_window_count gauge\n"));
                    out.push_str(&format!("{name}_window_count {}\n", window.count()));
                    for (suffix, q) in [("p50", 0.5), ("p90", 0.9), ("p99", 0.99)] {
                        out.push_str(&format!("# TYPE {name}_window_{suffix} gauge\n"));
                        out.push_str(&format!(
                            "{name}_window_{suffix} {}\n",
                            format_f64(window.quantile(q))
                        ));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delta_rollup_windows_and_rates() {
        let r = Rollups::new();
        r.set_window(3);
        for tick in 0..5u64 {
            r.add("events", tick + 1); // 1, 2, 3, 4, 5
            r.tick();
        }
        let snap = r.snapshot();
        assert_eq!(snap.ticks, 5);
        match snap.get("events") {
            Some(RollupSeries::Delta { last, window_total, ticks_covered, per_tick, peak }) => {
                assert_eq!(*last, 5);
                assert_eq!(*window_total, 3 + 4 + 5, "only the last 3 ticks survive");
                assert_eq!(*ticks_covered, 3);
                assert!((*per_tick - 4.0).abs() < 1e-12);
                assert_eq!(*peak, 5);
            }
            other => panic!("expected delta series, got {other:?}"),
        }
    }

    #[test]
    fn in_progress_tick_is_not_visible_until_sealed() {
        let r = Rollups::new();
        r.add("events", 7);
        match r.snapshot().get("events") {
            Some(RollupSeries::Delta { last, window_total, .. }) => {
                assert_eq!((*last, *window_total), (0, 0));
            }
            other => panic!("expected delta series, got {other:?}"),
        }
        r.tick();
        match r.snapshot().get("events") {
            Some(RollupSeries::Delta { last, .. }) => assert_eq!(*last, 7),
            other => panic!("expected delta series, got {other:?}"),
        }
    }

    #[test]
    fn observe_rollup_merges_window_histograms() {
        let r = Rollups::new();
        r.set_window(2);
        r.observe("lat", 0.001);
        r.tick();
        r.observe("lat", 0.001);
        r.observe("lat", 1.0);
        r.tick();
        match r.snapshot().get("lat") {
            Some(RollupSeries::Observe { last_count, ticks_covered, window }) => {
                assert_eq!(*last_count, 2);
                assert_eq!(*ticks_covered, 2);
                assert_eq!(window.count(), 3);
                assert!(window.quantile(0.99) > 1.0, "slow outlier dominates p99");
            }
            other => panic!("expected observe series, got {other:?}"),
        }
        // A third tick evicts the first; only 2 observations remain.
        r.tick();
        match r.snapshot().get("lat") {
            Some(RollupSeries::Observe { window, .. }) => assert_eq!(window.count(), 2),
            other => panic!("expected observe series, got {other:?}"),
        }
    }

    #[test]
    fn empty_ticks_are_recorded_as_zero() {
        let r = Rollups::new();
        r.add("sheds", 0); // pre-register
        r.tick();
        r.tick();
        match r.snapshot().get("sheds") {
            Some(RollupSeries::Delta { ticks_covered, window_total, .. }) => {
                assert_eq!(*ticks_covered, 2);
                assert_eq!(*window_total, 0);
            }
            other => panic!("expected delta series, got {other:?}"),
        }
    }

    #[test]
    fn shrinking_the_window_truncates_oldest_ticks() {
        let r = Rollups::new();
        for i in 0..10u64 {
            r.add("n", i);
            r.tick();
        }
        r.set_window(2);
        match r.snapshot().get("n") {
            Some(RollupSeries::Delta { window_total, ticks_covered, .. }) => {
                assert_eq!(*ticks_covered, 2);
                assert_eq!(*window_total, 8 + 9);
            }
            other => panic!("expected delta series, got {other:?}"),
        }
    }

    #[test]
    fn renders_prometheus_gauges_and_json() {
        let r = Rollups::new();
        r.add("sintel_serve_events_per_tick", 3);
        r.observe("sintel_serve_pass_window_seconds", 0.01);
        r.tick();
        let snap = r.snapshot();
        let text = snap.to_prometheus();
        assert!(text.contains("# TYPE sintel_serve_events_per_tick_last gauge"));
        assert!(text.contains("sintel_serve_events_per_tick_last 3.0"));
        assert!(text.contains("sintel_serve_events_per_tick_window_per_tick 3.0"));
        assert!(text.contains("sintel_serve_pass_window_seconds_window_count 1"));
        assert!(text.contains("sintel_serve_pass_window_seconds_window_p99"));
    }

    #[test]
    fn reset_clears_series_and_clock() {
        let r = Rollups::new();
        r.add("x", 1);
        r.tick();
        r.reset();
        let snap = r.snapshot();
        assert_eq!(snap.ticks, 0);
        assert!(snap.series.is_empty());
    }
}
