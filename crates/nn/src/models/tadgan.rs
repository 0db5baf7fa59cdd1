//! TadGAN (Geiger et al. [21]): adversarial reconstruction for anomaly
//! detection.
//!
//! Faithful to the original's architecture, four networks train
//! together:
//!
//! * encoder `E`: an LSTM over the window, projected to a latent code;
//! * generator `G`: the latent code repeated per step through an LSTM
//!   decoder, projected back to the signal space;
//! * critic `Cx`: an MLP judging windows (real vs generated);
//! * critic `Cz`: an MLP judging latent codes (prior vs encoded).
//!
//! Training alternates Wasserstein critic updates (weight clipping) with
//! encoder/generator updates driven by a cycle-consistency
//! reconstruction loss plus the adversarial terms. The anomaly score
//! blends reconstruction error with the critic's judgement
//! (`alpha * recon + (1 - alpha) * critic`), as in the original.
//!
//! Four networks, two of them recurrent, with multiple critic passes per
//! batch: this is by far the heaviest model in the hub, reproducing the
//! paper's computational-performance finding that TadGAN dominates both
//! training time and output latency (Figure 7a).

use sintel_common::SintelRng;

use sintel_linalg::Matrix;

use crate::activation::Activation;
use crate::dense::Dense;
use crate::lstm::{HiddenGrad, Lstm, LstmTape, Seq};
use crate::models::{check_batch_size, TrainConfig};
use crate::{NnError, Result};

/// Number of critic updates per encoder/generator update (WGAN-style).
const N_CRITIC: usize = 3;
/// WGAN weight-clipping bound.
const CLIP: f64 = 0.1;
/// Weight of the cycle-consistency reconstruction loss.
const RECON_WEIGHT: f64 = 10.0;

/// A two-layer perceptron used for the two critics.
#[derive(Debug, Clone)]
struct Mlp {
    l1: Dense,
    l2: Dense,
}

impl Mlp {
    fn new(input: usize, hidden: usize, rng: &mut SintelRng) -> Self {
        Self {
            l1: Dense::new(input, hidden, Activation::LeakyRelu, rng),
            l2: Dense::new(hidden, 1, Activation::Linear, rng),
        }
    }

    fn forward(&self, x: &[f64]) -> (Vec<f64>, Vec<f64>) {
        let h = self.l1.forward(x);
        let y = self.l2.forward(&h);
        (h, y)
    }

    /// Backward; returns dx. Gradients accumulate in both layers.
    fn backward(&mut self, x: &[f64], h: &[f64], y: &[f64], dy: &[f64]) -> Vec<f64> {
        let dh = self.l2.backward(h, y, dy);
        self.l1.backward(x, h, &dh)
    }

    fn step(&mut self, lr: f64, batch: usize) {
        self.l1.step(lr, batch);
        self.l2.step(lr, batch);
    }

    fn zero_grad(&mut self) {
        self.l1.zero_grad();
        self.l2.zero_grad();
    }

    fn clip_weights(&mut self, c: f64) {
        self.l1.clip_weights(c);
        self.l2.clip_weights(c);
    }

    fn param_count(&self) -> usize {
        self.l1.param_count() + self.l2.param_count()
    }

    fn params(&self) -> [&[f64]; 4] {
        let [w1, b1] = self.l1.params();
        let [w2, b2] = self.l2.params();
        [w1, b1, w2, b2]
    }
}

/// Reusable training buffers: one [`LstmTape`] per recurrent network
/// plus the decoder's gradient buffers (DESIGN.md §4j).
struct Scratch {
    enc: LstmTape,
    gen: LstmTape,
    /// Gradient into the generator's hidden states (`window x hidden`).
    dh_dec: Vec<f64>,
    /// Gradient into the generator's inputs (`window x latent`).
    dx_dec: Vec<f64>,
    /// The latent code's gradient, summed over the generator's steps.
    dz: Vec<f64>,
}

/// The TadGAN model over flattened windows.
pub struct TadGan {
    // Encoder: LSTM + projection to latent.
    enc_lstm: Lstm,
    enc_head: Dense,
    // Generator: LSTM decoder fed the repeated code + per-step output.
    gen_lstm: Lstm,
    gen_head: Dense,
    critic_x: Mlp,
    critic_z: Mlp,
    window: usize,
    channels: usize,
    latent: usize,
    seed: u64,
}

impl TadGan {
    /// Build for flattened windows of `window * channels` values, with
    /// LSTM hidden width `hidden` and latent size `latent`.
    pub fn new(window: usize, channels: usize, hidden: usize, latent: usize, seed: u64) -> Self {
        let mut rng = SintelRng::seed_from_u64(seed);
        let input_dim = window * channels;
        Self {
            enc_lstm: Lstm::new(channels, hidden, &mut rng),
            enc_head: Dense::new(hidden, latent, Activation::Linear, &mut rng),
            gen_lstm: Lstm::new(latent, hidden, &mut rng),
            gen_head: Dense::new(hidden, channels, Activation::Linear, &mut rng),
            critic_x: Mlp::new(input_dim, hidden, &mut rng),
            critic_z: Mlp::new(latent, hidden, &mut rng),
            window,
            channels,
            latent,
            seed,
        }
    }

    /// Total trainable parameters across the four networks.
    pub fn param_count(&self) -> usize {
        self.enc_lstm.param_count()
            + self.enc_head.param_count()
            + self.gen_lstm.param_count()
            + self.gen_head.param_count()
            + self.critic_x.param_count()
            + self.critic_z.param_count()
    }

    /// Every parameter buffer in a fixed order (encoder LSTM and head,
    /// generator LSTM and head, critic `Cx`, critic `Cz`; each dense
    /// layer as weights then bias) — exposed for the property suite
    /// only.
    #[doc(hidden)]
    pub fn params(&self) -> Vec<&[f64]> {
        let mut out = vec![self.enc_lstm.weights()];
        out.extend(self.enc_head.params());
        out.push(self.gen_lstm.weights());
        out.extend(self.gen_head.params());
        out.extend(self.critic_x.params());
        out.extend(self.critic_z.params());
        out
    }

    fn check(&self, w: &[f64]) -> Result<()> {
        if w.len() != self.window * self.channels {
            return Err(NnError::ShapeMismatch {
                expected: format!("{} values", self.window * self.channels),
                got: format!("{}", w.len()),
            });
        }
        Ok(())
    }

    /// Encode a window to its latent code.
    fn encode(&self, window: &[f64], tape: &mut LstmTape) -> Vec<f64> {
        self.enc_lstm.forward_tape(Seq::flat(window, self.channels), tape);
        self.enc_head.forward(tape.last_hidden())
    }

    /// Decode a latent code to a flattened window.
    fn decode(&self, z: &[f64], tape: &mut LstmTape) -> Vec<f64> {
        self.gen_lstm.forward_tape(Seq::repeat(z, self.window), tape);
        let mut out = vec![0.0; self.window * self.channels];
        let hidden = self.gen_lstm.hidden_size();
        for (h, y) in
            tape.hidden_states().chunks_exact(hidden).zip(out.chunks_exact_mut(self.channels))
        {
            self.gen_head.forward_into(h, y);
        }
        out
    }

    /// Cycle reconstruction `G(E(x))`.
    pub fn reconstruct(&self, window: &[f64]) -> Result<Vec<f64>> {
        self.check(window)?;
        let mut tape = LstmTape::new();
        let z = self.encode(window, &mut tape);
        Ok(self.decode(&z, &mut tape))
    }

    /// Raw critic output for a window: *lower* means the critic finds the
    /// window less like the training data (more anomalous).
    pub fn critic_score(&self, window: &[f64]) -> Result<f64> {
        self.check(window)?;
        Ok(self.critic_x.forward(window).1[0])
    }

    /// Combined anomaly score: `alpha * recon_error + (1 - alpha) *
    /// (-critic)` on the given window.
    pub fn anomaly_score(&self, window: &[f64], alpha: f64) -> Result<f64> {
        let rec = self.reconstruct(window)?;
        let recon_err = rec
            .iter()
            .zip(window)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            / window.len() as f64;
        let critic = self.critic_score(window)?;
        Ok(alpha * recon_err + (1.0 - alpha) * (-critic))
    }

    /// Encoder/generator backward pass for the reconstruction objective;
    /// accumulates gradients in all four E/G components and returns the
    /// per-window reconstruction MSE.
    fn backward_reconstruction(&mut self, window: &[f64], s: &mut Scratch) -> f64 {
        let hidden = self.enc_lstm.hidden_size();
        let xs = Seq::flat(window, self.channels);
        self.enc_lstm.forward_tape(xs, &mut s.enc);
        let z = self.enc_head.forward(s.enc.last_hidden());
        let dec_in = Seq::repeat(&z, self.window);
        self.gen_lstm.forward_tape(dec_in, &mut s.gen);

        let n = window.len() as f64;
        let mut recon = 0.0;
        let steps = s
            .gen
            .hidden_states()
            .chunks_exact(hidden)
            .zip(window.chunks_exact(self.channels))
            .zip(s.dh_dec.chunks_exact_mut(hidden));
        for ((h, x_t), dh) in steps {
            let y = self.gen_head.forward(h);
            let mut dy = Vec::with_capacity(self.channels);
            for (&yc, &xc) in y.iter().zip(x_t) {
                let err = yc - xc;
                recon += err * err;
                dy.push(RECON_WEIGHT * 2.0 * err / n);
            }
            dh.copy_from_slice(&self.gen_head.backward(h, &y, &dy));
        }
        self.gen_lstm.backward_tape(
            dec_in,
            &mut s.gen,
            HiddenGrad::Every(&s.dh_dec),
            Some(&mut s.dx_dec),
        );
        s.dz.fill(0.0);
        for dx in s.dx_dec.chunks_exact(self.latent) {
            for (d, v) in s.dz.iter_mut().zip(dx) {
                *d += v;
            }
        }
        let dh_enc_last = self.enc_head.backward(s.enc.last_hidden(), &z, &s.dz);
        self.enc_lstm.backward_tape(xs, &mut s.enc, HiddenGrad::Last(&dh_enc_last), None);
        recon / n
    }

    /// Adversarial training; returns the mean reconstruction loss per epoch.
    pub fn fit(&mut self, windows: &Matrix, cfg: &TrainConfig) -> Result<Vec<f64>> {
        check_batch_size(cfg)?;
        if windows.rows() < 2 {
            return Err(NnError::InsufficientData { needed: 2, got: windows.rows() });
        }
        self.check(windows.row(0))?;
        let hidden = self.enc_lstm.hidden_size();
        let mut rng = SintelRng::seed_from_u64(cfg.seed ^ self.seed);
        let mut order: Vec<usize> = (0..windows.rows()).collect();
        let mut epoch_losses = Vec::with_capacity(cfg.epochs);
        let mut s = Scratch {
            enc: LstmTape::new(),
            gen: LstmTape::new(),
            dh_dec: vec![0.0; self.window * hidden],
            dx_dec: vec![0.0; self.window * self.latent],
            dz: vec![0.0; self.latent],
        };

        for _ in 0..cfg.epochs {
            if sintel_common::cancelled() {
                return Err(NnError::Cancelled);
            }
            rng.shuffle(&mut order);
            let mut epoch_recon = 0.0;
            for chunk in order.chunks(cfg.batch_size) {
                // ---- critic updates (E and G frozen: forwards only) ----
                for _ in 0..N_CRITIC {
                    for &idx in chunk {
                        let x = windows.row(idx);
                        let z_prior: Vec<f64> =
                            (0..self.latent).map(|_| rng.normal(0.0, 1.0)).collect();
                        // Cx: maximise Cx(x) - Cx(G(z)).
                        let (hx, yx) = self.critic_x.forward(x);
                        self.critic_x.backward(x, &hx, &yx, &[-1.0]);
                        let fake_x = self.decode(&z_prior, &mut s.gen);
                        let (hf, yf) = self.critic_x.forward(&fake_x);
                        self.critic_x.backward(&fake_x, &hf, &yf, &[1.0]);
                        // Cz: maximise Cz(z_prior) - Cz(E(x)).
                        let (hz, yz) = self.critic_z.forward(&z_prior);
                        self.critic_z.backward(&z_prior, &hz, &yz, &[-1.0]);
                        let enc_z = self.encode(x, &mut s.enc);
                        let (he, ye) = self.critic_z.forward(&enc_z);
                        self.critic_z.backward(&enc_z, &he, &ye, &[1.0]);
                    }
                    self.critic_x.step(cfg.learning_rate, chunk.len());
                    self.critic_z.step(cfg.learning_rate, chunk.len());
                    self.critic_x.clip_weights(CLIP);
                    self.critic_z.clip_weights(CLIP);
                }

                // ---- encoder / generator update ----
                for &idx in chunk {
                    let x = windows.row(idx);
                    epoch_recon += self.backward_reconstruction(x, &mut s);

                    // Generator fools Cx: minimise -Cx(G(z_prior)).
                    let z_prior: Vec<f64> =
                        (0..self.latent).map(|_| rng.normal(0.0, 1.0)).collect();
                    let dec_in = Seq::repeat(&z_prior, self.window);
                    self.gen_lstm.forward_tape(dec_in, &mut s.gen);
                    let mut fake_x = Vec::with_capacity(self.window * self.channels);
                    for h in s.gen.hidden_states().chunks_exact(hidden) {
                        fake_x.extend(self.gen_head.forward(h));
                    }
                    let (hc, yc) = self.critic_x.forward(&fake_x);
                    let dfake = self.critic_x.backward(&fake_x, &hc, &yc, &[-1.0]);
                    self.critic_x.zero_grad(); // critic frozen in this phase
                    let steps = s
                        .gen
                        .hidden_states()
                        .chunks_exact(hidden)
                        .zip(dfake.chunks_exact(self.channels))
                        .zip(s.dh_dec.chunks_exact_mut(hidden));
                    for ((h, dy), dh) in steps {
                        let y = self.gen_head.forward(h);
                        dh.copy_from_slice(&self.gen_head.backward(h, &y, dy));
                    }
                    self.gen_lstm.backward_tape(
                        dec_in,
                        &mut s.gen,
                        HiddenGrad::Every(&s.dh_dec),
                        None,
                    );

                    // Encoder fools Cz: minimise -Cz(E(x)).
                    let xs = Seq::flat(x, self.channels);
                    self.enc_lstm.forward_tape(xs, &mut s.enc);
                    let z2 = self.enc_head.forward(s.enc.last_hidden());
                    let (hcz, ycz) = self.critic_z.forward(&z2);
                    let dz2 = self.critic_z.backward(&z2, &hcz, &ycz, &[-1.0]);
                    self.critic_z.zero_grad();
                    let dh_last = self.enc_head.backward(s.enc.last_hidden(), &z2, &dz2);
                    self.enc_lstm.backward_tape(xs, &mut s.enc, HiddenGrad::Last(&dh_last), None);
                }
                self.enc_lstm.step(cfg.learning_rate, chunk.len());
                self.enc_head.step(cfg.learning_rate, chunk.len());
                self.gen_lstm.step(cfg.learning_rate, chunk.len());
                self.gen_head.step(cfg.learning_rate, chunk.len());
            }
            epoch_losses.push(epoch_recon / windows.rows() as f64);
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
    fn reconstruction_loss_decreases() {
        let windows = sine_windows(160, 12, 24.0);
        let mut model = TadGan::new(12, 1, 10, 4, 1);
        let losses = model
            .fit(
                &windows,
                &TrainConfig { epochs: 15, learning_rate: 0.01, ..TrainConfig::fast_test() },
            )
            .unwrap();
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.6),
            "first {} last {}",
            losses[0],
            losses.last().unwrap()
        );
    }

    #[test]
    fn anomalous_window_scores_higher() {
        let windows = sine_windows(200, 12, 20.0);
        let mut model = TadGan::new(12, 1, 10, 4, 3);
        model
            .fit(
                &windows,
                &TrainConfig { epochs: 20, learning_rate: 0.01, ..TrainConfig::fast_test() },
            )
            .unwrap();
        let normal = &windows.row(9).to_vec();
        let mut weird = normal.clone();
        for v in weird.iter_mut().take(6) {
            *v += 3.5;
        }
        let s_normal = model.anomaly_score(normal, 0.7).unwrap();
        let s_weird = model.anomaly_score(&weird, 0.7).unwrap();
        assert!(s_weird > s_normal, "weird {s_weird} normal {s_normal}");
    }

    #[test]
    fn critic_clipping_keeps_outputs_bounded() {
        let windows = sine_windows(80, 8, 16.0);
        let mut model = TadGan::new(8, 1, 6, 3, 5);
        model.fit(&windows, &TrainConfig { epochs: 3, ..TrainConfig::fast_test() }).unwrap();
        for w in windows.row_iter() {
            let c = model.critic_score(w).unwrap();
            assert!(c.is_finite() && c.abs() < 100.0, "critic {c}");
        }
    }

    #[test]
    fn shape_validation() {
        let mut model = TadGan::new(8, 1, 6, 3, 0);
        assert!(model.reconstruct(&[0.0; 4]).is_err());
        assert!(model.critic_score(&[0.0; 9]).is_err());
        assert!(model.fit(&Matrix::from_rows(&[vec![0.0; 8]]), &TrainConfig::fast_test()).is_err());
    }

    #[test]
    fn zero_batch_size_is_rejected_before_training() {
        let mut model = TadGan::new(4, 1, 3, 2, 0);
        let windows = Matrix::from_rows(&[vec![0.1; 4], vec![0.2; 4]]);
        let cfg = TrainConfig { batch_size: 0, ..TrainConfig::fast_test() };
        let got = model.fit(&windows, &cfg);
        assert!(matches!(got, Err(NnError::InvalidParameter(_))), "{got:?}");
    }

    #[test]
    fn multichannel_windows() {
        let mut model = TadGan::new(6, 2, 6, 3, 2);
        let rows: Vec<Vec<f64>> =
            (0..30).map(|k| (0..12).map(|i| ((k + i) as f64 * 0.3).sin()).collect()).collect();
        let windows = Matrix::from_rows(&rows);
        model.fit(&windows, &TrainConfig { epochs: 2, ..TrainConfig::fast_test() }).unwrap();
        let rec = model.reconstruct(windows.row(0)).unwrap();
        assert_eq!(rec.len(), 12);
    }
}
