//! The LSTM DT model (Hundman et al. [24]): a double-stacked LSTM that
//! predicts the next value of the signal from a rolling window. The
//! pipeline computes `regression_errors = |x̂ - x|` downstream and feeds
//! them to the dynamic threshold.

use sintel_common::SintelRng;
use sintel_linalg::Matrix;

use crate::activation::Activation;
use crate::dense::Dense;
use crate::lstm::{HiddenGrad, Lstm, LstmState, LstmTape, Seq};
use crate::models::{check_batch_size, TrainConfig};
use crate::{NnError, Result};

/// Double-stacked LSTM next-value predictor.
#[derive(Debug, Clone)]
pub struct LstmRegressor {
    l1: Lstm,
    l2: Lstm,
    head: Dense,
    window: usize,
    channels: usize,
}

/// Reusable buffers for one inference stream through the stacked
/// network (DESIGN.md §4j): every window of a batch runs through the
/// same scratch, so a batch costs O(1) allocations, not O(windows).
struct PredictScratch {
    s1: LstmState,
    s2: LstmState,
    /// Flat hidden sequence out of the first layer (`window * hidden`).
    hs1: Vec<f64>,
    /// Head output (a single predicted value).
    y: Vec<f64>,
}

impl LstmRegressor {
    /// Build with the given window length, channel count and hidden size.
    pub fn new(window: usize, channels: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = SintelRng::seed_from_u64(seed);
        Self {
            l1: Lstm::new(channels, hidden, &mut rng),
            l2: Lstm::new(hidden, hidden, &mut rng),
            head: Dense::new(hidden, 1, Activation::Linear, &mut rng),
            window,
            channels,
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.l1.param_count() + self.l2.param_count() + self.head.param_count()
    }

    /// Every parameter buffer in a fixed order (bottom LSTM, top LSTM,
    /// head weights, head bias) — exposed for the property suite only.
    #[doc(hidden)]
    pub fn params(&self) -> Vec<&[f64]> {
        let [hw, hb] = self.head.params();
        vec![self.l1.weights(), self.l2.weights(), hw, hb]
    }

    fn check_window(&self, w: &[f64]) -> Result<()> {
        if w.len() != self.window * self.channels {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} values", self.window * self.channels),
                got: format!("{}", w.len()),
            });
        }
        Ok(())
    }

    /// Fresh per-batch scratch: both layer states, the flat hidden
    /// sequence between them, and the head output.
    fn scratch(&self) -> PredictScratch {
        PredictScratch {
            s1: self.l1.state(),
            s2: self.l2.state(),
            hs1: Vec::with_capacity(self.window * self.l1.hidden_size()),
            y: vec![0.0; 1],
        }
    }

    /// One forward pass on the flat inference path, reusing `scratch`.
    /// Bitwise-identical to the tape forward used in training: both run
    /// the same fused LSTM step and Dense kernel.
    fn predict_with(&self, window: &[f64], scratch: &mut PredictScratch) -> f64 {
        self.l1.forward_flat(window, &mut scratch.s1, Some(&mut scratch.hs1));
        self.l2.forward_flat(&scratch.hs1, &mut scratch.s2, None);
        self.head.forward_into(scratch.s2.hidden(), &mut scratch.y);
        // In range: the head is built with out_dim 1.
        #[allow(clippy::indexing_slicing)]
        scratch.y[0]
    }

    /// Predict the value following the window (first channel).
    pub fn predict(&self, window: &[f64]) -> Result<f64> {
        self.check_window(window)?;
        Ok(self.predict_with(window, &mut self.scratch()))
    }

    /// Predict the next value for every window of a batch.
    ///
    /// The shared shape is validated once up front so a bad batch fails
    /// before any work runs. Each prediction is a pure `&self` forward
    /// pass on the flat inference path through one reused scratch, so
    /// the batch performs O(1) allocations instead of O(windows).
    pub fn predict_batch(&self, windows: &Matrix) -> Result<Vec<f64>> {
        if windows.rows() > 0 && windows.cols() != self.window * self.channels {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} values per window", self.window * self.channels),
                got: format!("{}", windows.cols()),
            });
        }
        let mut scratch = self.scratch();
        Ok(windows.row_iter().map(|w| self.predict_with(w, &mut scratch)).collect())
    }

    /// Train on `(window, next value)` pairs; returns the mean training
    /// loss per epoch.
    ///
    /// Both layers train through one reusable [`LstmTape`] each, the
    /// top layer reading the bottom one's hidden states in place, so
    /// training allocates nothing per step (DESIGN.md §4j).
    pub fn fit(
        &mut self,
        windows: &Matrix,
        targets: &[f64],
        cfg: &TrainConfig,
    ) -> Result<Vec<f64>> {
        check_batch_size(cfg)?;
        if windows.rows() != targets.len() {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} targets", windows.rows()),
                got: format!("{}", targets.len()),
            });
        }
        if windows.rows() == 0 {
            return Err(NnError::InsufficientData { needed: 1, got: 0 });
        }
        self.check_window(windows.row(0))?;
        let hidden = self.l1.hidden_size();
        let mut rng = SintelRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..windows.rows()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        let (mut tape1, mut tape2) = (LstmTape::new(), LstmTape::new());
        // Gradient into the bottom layer's hidden states (`T x H`).
        let mut dh1 = vec![0.0; self.window * hidden];
        let (mut y, mut dlast) = (vec![0.0; 1], vec![0.0; hidden]);

        for _ in 0..cfg.epochs {
            // Cooperative cancellation: a watchdogged run whose budget
            // expired must stop burning CPU, not finish all epochs.
            if sintel_common::cancelled() {
                return Err(NnError::Cancelled);
            }
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(cfg.batch_size) {
                for &idx in chunk {
                    let xs = Seq::flat(windows.row(idx), self.channels);
                    self.l1.forward_tape(xs, &mut tape1);
                    let hs1 = Seq::flat(tape1.hidden_states(), hidden);
                    self.l2.forward_tape(hs1, &mut tape2);
                    self.head.forward_into(tape2.last_hidden(), &mut y);
                    let err = y[0] - targets[idx];
                    epoch_loss += err * err;

                    // Backward: head -> top LSTM (last step) -> bottom LSTM.
                    self.head.backward_into(tape2.last_hidden(), &y, &[2.0 * err], &mut dlast);
                    self.l2.backward_tape(
                        hs1,
                        &mut tape2,
                        HiddenGrad::Last(&dlast),
                        Some(&mut dh1),
                    );
                    self.l1.backward_tape(xs, &mut tape1, HiddenGrad::Every(&dh1), None);
                }
                self.l1.step(cfg.learning_rate, chunk.len());
                self.l2.step(cfg.learning_rate, chunk.len());
                self.head.step(cfg.learning_rate, chunk.len());
            }
            epoch_losses.push(epoch_loss / windows.rows() as f64);
        }
        Ok(epoch_losses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Windows over a clean sine: the regressor must learn to predict the
    /// next sample far better than predicting the mean.
    #[test]
    fn learns_sine_continuation() {
        let n = 300;
        let series: Vec<f64> =
            (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 25.0).sin()).collect();
        let window = 12;
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        for start in 0..(n - window - 1) {
            rows.push(series[start..start + window].to_vec());
            targets.push(series[start + window]);
        }
        let windows = Matrix::from_rows(&rows);
        let mut model = LstmRegressor::new(window, 1, 10, 3);
        let losses = model.fit(&windows, &targets, &TrainConfig::fast_test()).unwrap();
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.2),
            "loss did not drop: {losses:?}"
        );
        // Point predictions are close.
        let mut err = 0.0;
        for (w, t) in windows.row_iter().zip(&targets) {
            let p = model.predict(w).unwrap();
            err += (p - t).abs();
        }
        err /= windows.rows() as f64;
        assert!(err < 0.15, "mean abs error {err}");
    }

    #[test]
    fn shape_errors() {
        let mut model = LstmRegressor::new(8, 1, 4, 0);
        assert!(model.predict(&[0.0; 7]).is_err());
        let one = Matrix::from_rows(&[vec![0.0; 8]]);
        assert!(model.fit(&one, &[1.0, 2.0], &TrainConfig::fast_test()).is_err());
        assert!(model.fit(&Matrix::zeros(0, 8), &[], &TrainConfig::fast_test()).is_err());
        // Wrong window width fails fit and predict_batch up front.
        let bad = Matrix::from_rows(&[vec![0.0; 5]]);
        assert!(model.fit(&bad, &[1.0], &TrainConfig::fast_test()).is_err());
        assert!(model.predict_batch(&bad).is_err());
    }

    #[test]
    fn zero_batch_size_is_rejected_before_training() {
        let mut model = LstmRegressor::new(4, 1, 3, 0);
        let before: Vec<Vec<f64>> = model.params().iter().map(|p| p.to_vec()).collect();
        let windows = Matrix::from_rows(&[vec![0.1; 4], vec![0.2; 4]]);
        let cfg = TrainConfig { batch_size: 0, ..TrainConfig::fast_test() };
        let got = model.fit(&windows, &[0.0, 1.0], &cfg);
        assert!(matches!(got, Err(NnError::InvalidParameter(_))), "{got:?}");
        let after: Vec<Vec<f64>> = model.params().iter().map(|p| p.to_vec()).collect();
        assert_eq!(before, after, "a rejected fit must leave the weights untouched");
    }

    #[test]
    fn deterministic_from_seed() {
        let a = LstmRegressor::new(6, 1, 4, 42);
        let b = LstmRegressor::new(6, 1, 4, 42);
        let w = vec![0.1; 6];
        assert_eq!(a.predict(&w).unwrap(), b.predict(&w).unwrap());
    }

    #[test]
    fn multichannel_input() {
        let model = LstmRegressor::new(4, 2, 3, 1);
        let w = vec![0.1; 8];
        assert!(model.predict(&w).unwrap().is_finite());
    }

    #[test]
    fn predict_batch_matches_serial_predict_bitwise() {
        let model = LstmRegressor::new(6, 1, 4, 9);
        let mut rng = SintelRng::seed_from_u64(77);
        let rows: Vec<Vec<f64>> = (0..73)
            .map(|_| (0..6).map(|_| rng.uniform_range(-1.0, 1.0)).collect())
            .collect();
        let windows = Matrix::from_rows(&rows);
        let batch = model.predict_batch(&windows).unwrap();
        assert_eq!(batch.len(), windows.rows());
        for (w, &b) in windows.row_iter().zip(&batch) {
            assert_eq!(model.predict(w).unwrap().to_bits(), b.to_bits());
        }
        assert!(model.predict_batch(&Matrix::zeros(0, 6)).unwrap().is_empty());
    }
}
