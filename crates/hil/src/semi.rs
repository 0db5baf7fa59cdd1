//! The semi-/supervised detection pipeline of Figure 2b: a window
//! classifier trained on expert-verified anomalous / normal sequences.
//!
//! The model is deliberately feature-based (statistical descriptors of
//! each window feeding a small MLP with a sigmoid head): with only a
//! handful of annotated events, raw-sequence deep models would overfit
//! instantly, while descriptor features let a few labels generalise —
//! which is exactly the regime of Figure 8a.

use sintel_common::{mean, stddev, SintelRng};
use sintel_nn::{Activation, Dense};
use sintel_timeseries::{merge_overlapping, Interval, ScoredInterval, Signal};

use crate::{HilError, Result};

/// Number of descriptor features per window.
const N_FEATURES: usize = 8;

/// Descriptor features of one window, designed to separate spikes, level
/// shifts, flatlines and amplitude changes from normal behaviour.
fn features(window: &[f64], global_mean: f64, global_std: f64) -> [f64; N_FEATURES] {
    let gs = global_std.max(1e-9);
    let m = mean(window);
    let s = stddev(window);
    let max = window.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let min = window.iter().copied().fold(f64::INFINITY, f64::min);
    let diffs: Vec<f64> = window.windows(2).map(|w| w[1] - w[0]).collect();
    let max_jump = diffs.iter().copied().map(f64::abs).fold(0.0, f64::max);
    let diff_energy = diffs.iter().map(|d| d * d).sum::<f64>() / diffs.len().max(1) as f64;
    [
        (m - global_mean) / gs,                   // level offset
        s / gs,                                   // local volatility
        (max - global_mean) / gs,                 // peak height
        (min - global_mean) / gs,                 // trough depth
        (max - min) / gs,                         // range
        max_jump / gs,                            // sharpest step
        diff_energy.sqrt() / gs,                  // roughness
        (window.last().unwrap_or(&m) - window.first().unwrap_or(&m)) / gs, // drift
    ]
}

/// A labelled training example (features + label).
#[derive(Debug, Clone)]
struct Example {
    x: [f64; N_FEATURES],
    y: f64,
}

/// The semi-supervised window classifier.
pub struct SemiSupervisedDetector {
    window: usize,
    step: usize,
    l1: Dense,
    l2: Dense,
    examples: Vec<Example>,
    /// Global normalisation learned from the first signal seen.
    norm: Option<(f64, f64)>,
    seed: u64,
}

impl SemiSupervisedDetector {
    /// Create with the given window length and stride.
    pub fn new(window: usize, step: usize, seed: u64) -> Self {
        let mut rng = SintelRng::seed_from_u64(seed);
        Self {
            window,
            step: step.max(1),
            l1: Dense::new(N_FEATURES, 16, Activation::Tanh, &mut rng),
            l2: Dense::new(16, 1, Activation::Sigmoid, &mut rng),
            examples: Vec::new(),
            norm: None,
            seed,
        }
    }

    /// Number of labelled examples accumulated so far.
    pub fn num_examples(&self) -> usize {
        self.examples.len()
    }

    fn norm_of(&mut self, signal: &Signal) -> (f64, f64) {
        *self
            .norm
            .get_or_insert_with(|| (mean(signal.values()), stddev(signal.values()).max(1e-9)))
    }

    /// Ingest one annotated region: windows overlapping `interval` become
    /// examples with the given label (`true` = anomalous).
    pub fn add_labeled_region(&mut self, signal: &Signal, interval: Interval, anomalous: bool) {
        let (gm, gs) = self.norm_of(signal);
        let lo = signal.index_at(interval.start).saturating_sub(self.window / 2);
        let hi = (signal.index_at(interval.end) + self.window / 2).min(signal.len());
        let values = signal.values();
        let mut start = lo;
        let mut added = false;
        while start + self.window <= hi {
            self.examples.push(Example {
                x: features(&values[start..start + self.window], gm, gs),
                y: if anomalous { 1.0 } else { 0.0 },
            });
            start += self.step.min(self.window / 2).max(1);
            added = true;
        }
        if !added && signal.len() >= self.window {
            // Short region: take the single window centred on it.
            let centre = signal.index_at((interval.start + interval.end) / 2);
            let start = centre.saturating_sub(self.window / 2).min(signal.len() - self.window);
            self.examples.push(Example {
                x: features(&values[start..start + self.window], gm, gs),
                y: if anomalous { 1.0 } else { 0.0 },
            });
        }
    }

    /// Sample `count` background (assumed-normal) windows that do not
    /// overlap the given intervals — the "verified normal" sequences the
    /// pipeline trains on alongside confirmed anomalies.
    pub fn add_background(&mut self, signal: &Signal, avoid: &[Interval], count: usize) {
        let (gm, gs) = self.norm_of(signal);
        if signal.len() < self.window {
            return;
        }
        let mut rng = SintelRng::seed_from_u64(self.seed ^ 0xBAC6);
        let values = signal.values();
        let ts = signal.timestamps();
        let mut added = 0usize;
        let mut attempts = 0usize;
        while added < count && attempts < count * 20 {
            attempts += 1;
            let start = rng.index(signal.len() - self.window + 1);
            let span = Interval::new(ts[start], ts[start + self.window - 1])
                .expect("ordered timestamps");
            if avoid.iter().any(|a| a.overlaps(&span)) {
                continue;
            }
            self.examples.push(Example {
                x: features(&values[start..start + self.window], gm, gs),
                y: 0.0,
            });
            added += 1;
        }
    }

    /// Retrain from scratch on the accumulated examples (class-balanced
    /// via oversampling). Returns the final training loss.
    pub fn retrain(&mut self, epochs: usize) -> Result<f64> {
        if self.examples.is_empty() {
            return Err(HilError::Invalid("no labelled examples to train on".into()));
        }
        let mut rng = SintelRng::seed_from_u64(self.seed ^ 0x7EA1);
        // Reset weights so stale annotations do not linger.
        self.l1 = Dense::new(N_FEATURES, 16, Activation::Tanh, &mut rng);
        self.l2 = Dense::new(16, 1, Activation::Sigmoid, &mut rng);

        // Oversample the minority class into a balanced index list.
        let pos: Vec<usize> =
            (0..self.examples.len()).filter(|&i| self.examples[i].y > 0.5).collect();
        let neg: Vec<usize> =
            (0..self.examples.len()).filter(|&i| self.examples[i].y <= 0.5).collect();
        let mut order: Vec<usize> = Vec::new();
        let target = pos.len().max(neg.len()).max(1);
        for class in [&pos, &neg] {
            if class.is_empty() {
                continue;
            }
            for k in 0..target {
                order.push(class[k % class.len()]);
            }
        }

        // Activation and gradient rows reused by every example.
        let (mut h, mut y) = (vec![0.0; self.l1.out_dim()], vec![0.0; 1]);
        let (mut dh, mut dx) = (vec![0.0; self.l1.out_dim()], vec![0.0; N_FEATURES]);
        let mut last_loss = 0.0;
        for _ in 0..epochs {
            rng.shuffle(&mut order);
            last_loss = 0.0;
            for chunk in order.chunks(16) {
                for &idx in chunk {
                    let ex = &self.examples[idx];
                    self.l1.forward_into(&ex.x, &mut h);
                    self.l2.forward_into(&h, &mut y);
                    let p = y[0].clamp(1e-7, 1.0 - 1e-7);
                    last_loss += -(ex.y * p.ln() + (1.0 - ex.y) * (1.0 - p).ln());
                    // d(BCE)/d(sigmoid output) — the Dense layer applies
                    // the sigmoid derivative itself.
                    let dy = (p - ex.y) / (p * (1.0 - p));
                    self.l2.backward_into(&h, &y, &[dy], &mut dh);
                    self.l1.backward_into(&ex.x, &h, &dh, &mut dx);
                }
                self.l1.step(0.02, chunk.len());
                self.l2.step(0.02, chunk.len());
            }
            last_loss /= order.len() as f64;
        }
        Ok(last_loss)
    }

    /// Score one window in `[0, 1]` (probability of being anomalous).
    pub fn score_window(&mut self, signal: &Signal, start: usize) -> f64 {
        let (gm, gs) = self.norm_of(signal);
        let x = features(&signal.values()[start..start + self.window], gm, gs);
        let h = self.l1.forward(&x);
        self.l2.forward(&h)[0]
    }

    /// Detect anomalous intervals: slide windows, threshold scores at
    /// 0.5, merge flagged windows into events.
    pub fn detect(&mut self, signal: &Signal) -> Vec<ScoredInterval> {
        if signal.len() < self.window {
            return Vec::new();
        }
        let ts = signal.timestamps().to_vec();
        let mut flagged: Vec<(Interval, f64)> = Vec::new();
        let mut start = 0usize;
        while start + self.window <= signal.len() {
            let p = self.score_window(signal, start);
            if p > 0.5 {
                let iv = Interval::new(ts[start], ts[start + self.window - 1])
                    .expect("ordered timestamps");
                flagged.push((iv, p));
            }
            start += self.step;
        }
        if flagged.is_empty() {
            return Vec::new();
        }
        let merged = merge_overlapping(
            &flagged.iter().map(|(iv, _)| *iv).collect::<Vec<_>>(),
            0,
        );
        merged
            .into_iter()
            .map(|iv| {
                let score = flagged
                    .iter()
                    .filter(|(f, _)| f.overlaps(&iv))
                    .map(|(_, p)| *p)
                    .fold(0.0, f64::max);
                ScoredInterval { interval: iv, score }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sine with two level-shift anomalies.
    fn labelled_signal() -> (Signal, Vec<Interval>) {
        let n = 1200;
        let mut vals: Vec<f64> =
            (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 48.0).sin()).collect();
        for v in &mut vals[300..340] {
            *v += 4.0;
        }
        // Same anomaly family as the first: a classifier trained on one
        // positive level shift is only expected to generalise to others
        // of the same shape class.
        for v in &mut vals[800..850] {
            *v += 4.0;
        }
        let truth = vec![Interval::new(300, 339).unwrap(), Interval::new(800, 849).unwrap()];
        (Signal::from_values("sig", vals), truth)
    }

    #[test]
    fn learns_from_annotations_and_detects() {
        let (signal, truth) = labelled_signal();
        let mut det = SemiSupervisedDetector::new(24, 6, 1);
        det.add_labeled_region(&signal, truth[0], true);
        det.add_background(&signal, &truth, 60);
        assert!(det.num_examples() > 20);
        det.retrain(60).unwrap();
        let detections = det.detect(&signal);
        // Both anomalies share the same shape class: training on the
        // first should find the second too.
        assert!(
            detections.iter().any(|d| d.interval.overlaps(&truth[0])),
            "{detections:?}"
        );
        assert!(
            detections.iter().any(|d| d.interval.overlaps(&truth[1])),
            "second anomaly missed: {detections:?}"
        );
        // And not flood the signal with false alarms.
        assert!(detections.len() <= 6, "{detections:?}");
    }

    #[test]
    fn untrained_detector_errors_on_retrain() {
        let mut det = SemiSupervisedDetector::new(16, 4, 0);
        assert!(det.retrain(5).is_err());
    }

    #[test]
    fn short_signal_yields_no_detections() {
        let mut det = SemiSupervisedDetector::new(32, 4, 0);
        let s = Signal::from_values("tiny", vec![0.0; 10]);
        assert!(det.detect(&s).is_empty());
    }

    #[test]
    fn background_avoids_anomalies() {
        let (signal, truth) = labelled_signal();
        let mut det = SemiSupervisedDetector::new(24, 6, 2);
        det.add_background(&signal, &truth, 40);
        // All background examples are labelled normal.
        assert!(det.num_examples() > 0);
        det.add_labeled_region(&signal, truth[0], true);
        let pos = det.examples.iter().filter(|e| e.y > 0.5).count();
        assert!(pos > 0);
    }

    #[test]
    fn features_are_finite_and_scale_free() {
        let w: Vec<f64> = (0..16).map(|i| i as f64).collect();
        let f = features(&w, 7.5, 4.6);
        assert!(f.iter().all(|v| v.is_finite()));
        // Scaling the data and the stats together leaves features fixed.
        let w2: Vec<f64> = w.iter().map(|v| v * 10.0).collect();
        let f2 = features(&w2, 75.0, 46.0);
        for (a, b) in f.iter().zip(&f2) {
            assert!((a - b).abs() < 1e-9);
        }
    }
}
