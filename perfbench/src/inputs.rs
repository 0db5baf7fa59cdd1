//! Seeded workload inputs: labelled `sintel-datasets` signals, built
//! before any timing starts. The program under test only ever sees the
//! generated signals and events.

use sintel_datasets::{DatasetConfig, DatasetId, LabeledSignal};
use sintel_serve::IngestEvent;
use sintel_timeseries::{Interval, Signal};

/// A labelled signal cut to a fixed length, so every seed asks the
/// program for the same amount of work per op.
#[derive(Debug, Clone)]
pub struct Labelled {
    /// The signal.
    pub signal: Signal,
    /// Ground-truth intervals inside the signal's span.
    pub labels: Vec<Interval>,
}

/// `count` Yahoo-S5-like signals of exactly `len` points, taken round
/// robin across the A1–A4 subsets. `salt` separates the streams of
/// different workloads drawn from one seed.
pub fn signals(seed: u64, salt: u64, count: usize, len: usize) -> Vec<Labelled> {
    // Generate at a length whose shortest signal (the generator jitters
    // lengths by ±25% and never goes below half the mean) still holds
    // `len` points.
    let avg = 2.0 * len as f64;
    let config = DatasetConfig {
        seed: seed ^ salt,
        // A1, the smallest subset, has 67 signals: give it a quarter.
        signal_scale: count.div_ceil(4) as f64 / 67.0,
        length_scale: avg / 1561.0,
    };
    let dataset = sintel_datasets::load(DatasetId::Yahoo, &config);
    let subsets: Vec<&Vec<LabeledSignal>> = dataset.subsets.iter().map(|s| &s.signals).collect();
    let depth = subsets.iter().map(|s| s.len()).max().unwrap_or(0);
    let round_robin = (0..depth).flat_map(|i| subsets.iter().filter_map(move |s| s.get(i)));
    round_robin.take(count).map(|ls| crop(ls, len)).collect()
}

fn crop(ls: &LabeledSignal, len: usize) -> Labelled {
    let n = len.min(ls.signal.len());
    let signal = ls
        .signal
        .slice_index(0, n)
        .expect("crop lies inside the generated signal");
    let (lo, hi) = (signal.timestamps()[0], signal.timestamps()[n - 1]);
    let labels = ls
        .anomalies
        .iter()
        .filter_map(|iv| iv.clip(lo, hi))
        .collect();
    Labelled { signal, labels }
}

/// One streaming tenant: a labelled signal replayed end to end, its
/// timestamps (and labels) shifted by one signal span per replay.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// Tenant name.
    pub name: String,
    /// Hub pipeline the tenant runs.
    pub pipeline: &'static str,
    /// The replayed signal.
    pub source: Labelled,
}

impl Tenant {
    fn period(&self) -> (usize, i64) {
        let ts = self.source.signal.timestamps();
        let step = if ts.len() > 1 { ts[1] - ts[0] } else { 1 };
        (ts.len(), step)
    }

    /// The tenant's `k`-th event.
    pub fn event(&self, k: usize) -> IngestEvent {
        let (len, step) = self.period();
        let t0 = self.source.signal.timestamps()[0];
        let ts = t0 + k as i64 * step;
        IngestEvent::new(
            &self.name,
            "value",
            ts,
            self.source.signal.values()[k % len],
        )
    }

    /// Labels covering the first `events` events.
    pub fn truth(&self, events: usize) -> Vec<Interval> {
        if events == 0 {
            return Vec::new();
        }
        let (len, step) = self.period();
        let t0 = self.source.signal.timestamps()[0];
        let last = t0 + (events as i64 - 1) * step;
        let mut out = Vec::new();
        for replay in 0..events.div_ceil(len) {
            let shift = (replay * len) as i64 * step;
            for iv in &self.source.labels {
                if let Some(clipped) = Interval::new(iv.start + shift, iv.end + shift)
                    .ok()
                    .and_then(|s| s.clip(t0, last))
                {
                    out.push(clipped);
                }
            }
        }
        out
    }
}

/// `count` tenants alternating `arima` and `azure_anomaly_detection`,
/// each replaying its own signal of `len` points.
pub fn roster(seed: u64, count: usize, len: usize) -> Vec<Tenant> {
    signals(seed, 0x5354_5245_414D, count, len) // "STREAM"
        .into_iter()
        .enumerate()
        .map(|(i, source)| Tenant {
            name: format!("tenant-{i}"),
            pipeline: if i % 2 == 0 {
                "arima"
            } else {
                "azure_anomaly_detection"
            },
            source,
        })
        .collect()
}

/// The events of each tick: one hop of events per tenant, tenant by
/// tenant.
pub fn ticks(roster: &[Tenant], hop: usize, count: usize) -> Vec<Vec<IngestEvent>> {
    (0..count)
        .map(|t| {
            roster
                .iter()
                .flat_map(|tenant| (t * hop..(t + 1) * hop).map(|k| tenant.event(k)))
                .collect()
        })
        .collect()
}

/// Shift each group's intervals onto its own stretch of the time axis,
/// so one overlap-segment score over the concatenation sums the
/// per-group confusion counts (micro-averaged F1).
pub fn disjoint(groups: &[Vec<Interval>]) -> Vec<Interval> {
    const LANE: i64 = 1 << 40;
    groups
        .iter()
        .enumerate()
        .flat_map(|(g, ivs)| {
            ivs.iter().map(move |iv| {
                Interval::new(iv.start + g as i64 * LANE, iv.end + g as i64 * LANE)
                    .expect("a shift keeps the interval ordered")
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_seed_stable_and_fixed_length() {
        let a = signals(7, 1, 6, 240);
        let b = signals(7, 1, 6, 240);
        assert_eq!(a.len(), 6);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.signal.len(), 240);
            assert_eq!(x.signal.values(), y.signal.values());
            assert_eq!(x.labels, y.labels);
        }
        let c = signals(8, 1, 6, 240);
        assert_ne!(a[0].signal.values(), c[0].signal.values());
    }

    #[test]
    fn replay_shifts_timestamps_and_labels() {
        let tenant = roster(3, 2, 100).remove(0);
        let (e0, e100) = (tenant.event(0), tenant.event(100));
        assert_eq!(e0.value, e100.value);
        assert!(e100.timestamp > tenant.event(99).timestamp);
        let once = tenant.truth(100);
        let twice = tenant.truth(200);
        assert_eq!(twice.len(), 2 * once.len());
    }
}
