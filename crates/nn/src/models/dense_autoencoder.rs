//! The Dense AE model: a plain feed-forward autoencoder over flattened
//! windows (the paper's lightest reconstruction pipeline).

use sintel_common::SintelRng;
use sintel_linalg::Matrix;

use crate::activation::Activation;
use crate::dense::Dense;
use crate::models::{check_batch_size, TrainConfig};
use crate::{NnError, Result};

/// Feed-forward autoencoder `in -> h -> z -> h -> in`.
#[derive(Debug, Clone)]
pub struct DenseAutoencoder {
    layers: Vec<Dense>,
    input_dim: usize,
}

impl DenseAutoencoder {
    /// Build with hidden size `hidden` and bottleneck `latent`.
    pub fn new(input_dim: usize, hidden: usize, latent: usize, seed: u64) -> Self {
        let mut rng = SintelRng::seed_from_u64(seed);
        let layers = vec![
            Dense::new(input_dim, hidden, Activation::Relu, &mut rng),
            Dense::new(hidden, latent, Activation::Linear, &mut rng),
            Dense::new(latent, hidden, Activation::Relu, &mut rng),
            Dense::new(hidden, input_dim, Activation::Linear, &mut rng),
        ];
        Self { layers, input_dim }
    }

    /// Total trainable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Dense::param_count).sum()
    }

    fn check(&self, w: &[f64]) -> Result<()> {
        if w.len() != self.input_dim {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} values", self.input_dim),
                got: format!("{}", w.len()),
            });
        }
        Ok(())
    }

    fn forward_all(&self, x: &[f64]) -> Vec<Vec<f64>> {
        // activations[0] = input, activations[k] = output of layer k-1.
        let mut acts = Vec::with_capacity(self.layers.len() + 1);
        acts.push(x.to_vec());
        for layer in &self.layers {
            let y = layer.forward(acts.last().expect("non-empty"));
            acts.push(y);
        }
        acts
    }

    /// Reconstruct a window.
    pub fn reconstruct(&self, window: &[f64]) -> Result<Vec<f64>> {
        self.check(window)?;
        Ok(self.forward_all(window).pop().expect("non-empty"))
    }

    /// Latent code of a window (bottleneck output).
    pub fn encode(&self, window: &[f64]) -> Result<Vec<f64>> {
        self.check(window)?;
        let mut acts = self.forward_all(window);
        acts.truncate(3); // input, h, z
        Ok(acts.pop().expect("non-empty"))
    }

    /// Train on windows (target = input); returns mean loss per epoch.
    pub fn fit(&mut self, windows: &Matrix, cfg: &TrainConfig) -> Result<Vec<f64>> {
        check_batch_size(cfg)?;
        if windows.rows() == 0 {
            return Err(NnError::InsufficientData { needed: 1, got: 0 });
        }
        self.check(windows.row(0))?;
        let mut rng = SintelRng::seed_from_u64(cfg.seed);
        let mut order: Vec<usize> = (0..windows.rows()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        for _ in 0..cfg.epochs {
            if sintel_common::cancelled() {
                return Err(NnError::Cancelled);
            }
            rng.shuffle(&mut order);
            let mut epoch_loss = 0.0;
            for chunk in order.chunks(cfg.batch_size) {
                for &idx in chunk {
                    let x = windows.row(idx);
                    let acts = self.forward_all(x);
                    let y = acts.last().expect("non-empty");
                    let mut dy: Vec<f64> = y
                        .iter()
                        .zip(x.iter())
                        .map(|(p, t)| {
                            let d = p - t;
                            epoch_loss += d * d;
                            2.0 * d / x.len() as f64
                        })
                        .collect();
                    // Backprop through the stack.
                    for (k, layer) in self.layers.iter_mut().enumerate().rev() {
                        dy = layer.backward(&acts[k], &acts[k + 1], &dy);
                    }
                }
                for layer in &mut self.layers {
                    layer.step(cfg.learning_rate, chunk.len());
                }
            }
            epoch_losses.push(epoch_loss / (windows.rows() * self.input_dim) as f64);
        }
        Ok(epoch_losses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sine_windows(n: usize, window: usize, period: f64) -> Matrix {
        let series: Vec<f64> =
            (0..n).map(|t| (std::f64::consts::TAU * t as f64 / period).sin()).collect();
        let rows: Vec<Vec<f64>> =
            (0..n - window).map(|s| series[s..s + window].to_vec()).collect();
        Matrix::from_rows(&rows)
    }

    #[test]
    fn loss_decreases_and_reconstruction_is_close() {
        let windows = sine_windows(300, 16, 25.0);
        let mut model = DenseAutoencoder::new(16, 12, 4, 9);
        let losses = model
            .fit(&windows, &TrainConfig { epochs: 60, ..TrainConfig::fast_test() })
            .unwrap();
        assert!(losses.last().unwrap() < &(losses[0] * 0.2), "{losses:?}");
        let rec = model.reconstruct(windows.row(5)).unwrap();
        let err: f64 = rec
            .iter()
            .zip(windows.row(5))
            .map(|(a, b)| (a - b).abs())
            .sum::<f64>()
            / 16.0;
        assert!(err < 0.25, "err {err}");
    }

    #[test]
    fn bottleneck_dimension() {
        let model = DenseAutoencoder::new(16, 8, 3, 0);
        let z = model.encode(&[0.2; 16]).unwrap();
        assert_eq!(z.len(), 3);
    }

    #[test]
    fn anomaly_scores_higher() {
        let windows = sine_windows(400, 16, 20.0);
        let mut model = DenseAutoencoder::new(16, 12, 4, 2);
        model
            .fit(&windows, &TrainConfig { epochs: 80, ..TrainConfig::fast_test() })
            .unwrap();
        let normal = &windows.row(11).to_vec();
        let mut weird = normal.clone();
        weird[8] += 4.0;
        let err = |w: &Vec<f64>| -> f64 {
            let r = model.reconstruct(w).unwrap();
            r.iter().zip(w).map(|(a, b)| (a - b) * (a - b)).sum()
        };
        assert!(err(&weird) > err(normal) * 3.0);
    }

    #[test]
    fn shape_validation() {
        let mut model = DenseAutoencoder::new(8, 4, 2, 0);
        assert!(model.reconstruct(&[0.0; 3]).is_err());
        assert!(model.encode(&[0.0; 9]).is_err());
        assert!(model.fit(&Matrix::zeros(0, 8), &TrainConfig::fast_test()).is_err());
    }

    #[test]
    fn zero_batch_size_is_rejected_before_training() {
        let mut model = DenseAutoencoder::new(4, 3, 2, 0);
        let windows = Matrix::from_rows(&[vec![0.1; 4], vec![0.2; 4]]);
        let cfg = TrainConfig { batch_size: 0, ..TrainConfig::fast_test() };
        let got = model.fit(&windows, &cfg);
        assert!(matches!(got, Err(NnError::InvalidParameter(_))), "{got:?}");
    }

    #[test]
    fn param_count_formula() {
        let model = DenseAutoencoder::new(10, 6, 2, 0);
        // (10*6+6) + (6*2+2) + (2*6+6) + (6*10+10) = 66+14+18+70
        assert_eq!(model.param_count(), 168);
    }
}
