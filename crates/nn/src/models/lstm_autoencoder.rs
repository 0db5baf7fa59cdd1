//! The LSTM AE model (Malhotra et al. [34]): a sequence-to-sequence
//! autoencoder. The encoder compresses the window into its final hidden
//! state; the decoder, fed that state at every step (RepeatVector style),
//! reconstructs the window. Reconstruction error feeds the dynamic
//! threshold downstream.

use sintel_common::SintelRng;
use sintel_linalg::Matrix;

use crate::activation::Activation;
use crate::dense::Dense;
use crate::lstm::{HiddenGrad, Lstm, LstmTape, Seq};
use crate::models::{check_batch_size, TrainConfig};
use crate::{NnError, Result};

/// Sequence-to-sequence LSTM autoencoder.
#[derive(Debug, Clone)]
pub struct LstmAutoencoder {
    enc: Lstm,
    dec: Lstm,
    head: Dense,
    window: usize,
    channels: usize,
}

impl LstmAutoencoder {
    /// Build with the given window length, channel count and hidden size
    /// (the hidden state doubles as the latent code).
    pub fn new(window: usize, channels: usize, hidden: usize, seed: u64) -> Self {
        let mut rng = SintelRng::seed_from_u64(seed);
        Self {
            enc: Lstm::new(channels, hidden, &mut rng),
            dec: Lstm::new(hidden, hidden, &mut rng),
            head: Dense::new(hidden, channels, Activation::Linear, &mut rng),
            window,
            channels,
        }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.enc.param_count() + self.dec.param_count() + self.head.param_count()
    }

    /// Every parameter buffer in a fixed order (encoder, decoder, head
    /// weights, head bias) — exposed for the property suite only.
    #[doc(hidden)]
    pub fn params(&self) -> Vec<&[f64]> {
        let [hw, hb] = self.head.params();
        vec![self.enc.weights(), self.dec.weights(), hw, hb]
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

    /// Reconstruct a window; returns the flattened reconstruction.
    pub fn reconstruct(&self, window: &[f64]) -> Result<Vec<f64>> {
        self.check_window(window)?;
        let (mut enc_tape, mut dec_tape) = (LstmTape::new(), LstmTape::new());
        self.enc.forward_tape(Seq::flat(window, self.channels), &mut enc_tape);
        self.dec.forward_tape(Seq::repeat(enc_tape.last_hidden(), self.window), &mut dec_tape);
        let mut out = vec![0.0; window.len()];
        let hidden = self.enc.hidden_size();
        for (h, y) in
            dec_tape.hidden_states().chunks_exact(hidden).zip(out.chunks_exact_mut(self.channels))
        {
            self.head.forward_into(h, y);
        }
        Ok(out)
    }

    /// Train on windows (reconstruction target = input); returns mean
    /// loss per epoch. Encoder and decoder train through one reusable
    /// [`LstmTape`] each (DESIGN.md §4j).
    pub fn fit(&mut self, windows: &Matrix, cfg: &TrainConfig) -> Result<Vec<f64>> {
        check_batch_size(cfg)?;
        if windows.rows() == 0 {
            return Err(NnError::InsufficientData { needed: 1, got: 0 });
        }
        self.check_window(windows.row(0))?;
        let (hidden, channels, t_len) = (self.enc.hidden_size(), self.channels, self.window);
        let mut rng = SintelRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..windows.rows()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        let (mut enc_tape, mut dec_tape) = (LstmTape::new(), LstmTape::new());
        let mut code = vec![0.0; hidden];
        let mut dcode = vec![0.0; hidden];
        let mut dh_dec = vec![0.0; t_len * hidden];
        let mut dx_dec = vec![0.0; t_len * hidden];
        let (mut y, mut dy) = (vec![0.0; channels], vec![0.0; channels]);

        for _ in 0..cfg.epochs {
            if sintel_common::cancelled() {
                return Err(NnError::Cancelled);
            }
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(cfg.batch_size) {
                for &idx in chunk {
                    let window = windows.row(idx);
                    let xs = Seq::flat(window, channels);
                    self.enc.forward_tape(xs, &mut enc_tape);
                    code.copy_from_slice(enc_tape.last_hidden());
                    let dec_in = Seq::repeat(&code, t_len);
                    self.dec.forward_tape(dec_in, &mut dec_tape);

                    // Per-step reconstruction + gradient through the head.
                    let steps = dec_tape
                        .hidden_states()
                        .chunks_exact(hidden)
                        .zip(window.chunks_exact(channels))
                        .zip(dh_dec.chunks_exact_mut(hidden));
                    for ((h, x_t), dh) in steps {
                        self.head.forward_into(h, &mut y);
                        for ((d, &yc), &xc) in dy.iter_mut().zip(&y).zip(x_t) {
                            let err = yc - xc;
                            epoch_loss += err * err;
                            *d = 2.0 * err / t_len as f64;
                        }
                        dh.copy_from_slice(&self.head.backward(h, &y, &dy));
                    }
                    // Through the decoder; its input at every step is the
                    // code, so the code's gradient is the sum over steps.
                    self.dec.backward_tape(
                        dec_in,
                        &mut dec_tape,
                        HiddenGrad::Every(&dh_dec),
                        Some(&mut dx_dec),
                    );
                    dcode.fill(0.0);
                    for dx in dx_dec.chunks_exact(hidden) {
                        for (d, v) in dcode.iter_mut().zip(dx) {
                            *d += v;
                        }
                    }
                    // Through the encoder (gradient only at the last step).
                    self.enc.backward_tape(xs, &mut enc_tape, HiddenGrad::Last(&dcode), None);
                }
                self.enc.step(cfg.learning_rate, chunk.len());
                self.dec.step(cfg.learning_rate, chunk.len());
                self.head.step(cfg.learning_rate, chunk.len());
            }
            epoch_losses.push(epoch_loss / (windows.rows() * self.window) as f64);
        }
        Ok(epoch_losses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconstruction_improves_with_training() {
        // Two distinct window shapes drawn from a sine.
        let n = 240;
        let series: Vec<f64> =
            (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 20.0).sin()).collect();
        let window = 10;
        let rows: Vec<Vec<f64>> =
            (0..n - window).map(|s| series[s..s + window].to_vec()).collect();
        let windows = Matrix::from_rows(&rows);
        let mut model = LstmAutoencoder::new(window, 1, 8, 5);
        let losses = model.fit(&windows, &TrainConfig::fast_test()).unwrap();
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.5),
            "loss did not halve: first {} last {}",
            losses[0],
            losses.last().unwrap()
        );
        let rec = model.reconstruct(windows.row(3)).unwrap();
        assert_eq!(rec.len(), window);
        let err: f64 = rec
            .iter()
            .zip(windows.row(3))
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / window as f64;
        assert!(err < 0.4, "reconstruction error {err}");
    }

    #[test]
    fn anomalous_window_reconstructs_worse_than_normal() {
        let n = 300;
        let series: Vec<f64> =
            (0..n).map(|t| (std::f64::consts::TAU * t as f64 / 24.0).sin()).collect();
        let window = 12;
        let rows: Vec<Vec<f64>> =
            (0..n - window).map(|s| series[s..s + window].to_vec()).collect();
        let windows = Matrix::from_rows(&rows);
        let mut model = LstmAutoencoder::new(window, 1, 10, 6);
        model
            .fit(&windows, &TrainConfig { epochs: 25, ..TrainConfig::fast_test() })
            .unwrap();
        let normal = &windows.row(7).to_vec();
        let mut weird = normal.clone();
        for v in weird.iter_mut().take(6) {
            *v += 3.0; // inject a level shift the AE never saw
        }
        let err = |w: &Vec<f64>| {
            let r = model.reconstruct(w).unwrap();
            r.iter().zip(w).map(|(a, b)| (a - b) * (a - b)).sum::<f64>()
        };
        assert!(err(&weird) > 2.0 * err(normal), "weird {} normal {}", err(&weird), err(normal));
    }

    #[test]
    fn shape_validation() {
        let mut model = LstmAutoencoder::new(8, 1, 4, 0);
        assert!(model.reconstruct(&[0.0; 5]).is_err());
        assert!(model.fit(&Matrix::zeros(0, 8), &TrainConfig::fast_test()).is_err());
    }

    #[test]
    fn zero_batch_size_is_rejected_before_training() {
        let mut model = LstmAutoencoder::new(4, 1, 3, 0);
        let windows = Matrix::from_rows(&[vec![0.1; 4], vec![0.2; 4]]);
        let cfg = TrainConfig { batch_size: 0, ..TrainConfig::fast_test() };
        let got = model.fit(&windows, &cfg);
        assert!(matches!(got, Err(NnError::InvalidParameter(_))), "{got:?}");
    }
}
