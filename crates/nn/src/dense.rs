//! Fully-connected layer with hand-derived backpropagation.

use sintel_common::SintelRng;

use crate::activation::Activation;
use crate::adam::Adam;

/// A dense layer `y = act(W x + b)`.
///
/// Weights are stored row-major `(out_dim x in_dim)`. Gradients are
/// *accumulated* across [`Dense::backward`] calls (one per sample in a
/// batch) and applied by [`Dense::step`], which also clears them.
#[derive(Debug, Clone)]
pub struct Dense {
    in_dim: usize,
    out_dim: usize,
    act: Activation,
    w: Vec<f64>,
    b: Vec<f64>,
    gw: Vec<f64>,
    gb: Vec<f64>,
    adam_w: Adam,
    adam_b: Adam,
}

impl Dense {
    /// Create with Xavier/Glorot-uniform initialisation.
    pub fn new(in_dim: usize, out_dim: usize, act: Activation, rng: &mut SintelRng) -> Self {
        assert!(in_dim > 0 && out_dim > 0, "dense dims must be positive");
        let bound = (6.0 / (in_dim + out_dim) as f64).sqrt();
        let w = (0..in_dim * out_dim).map(|_| rng.uniform_range(-bound, bound)).collect();
        Self {
            in_dim,
            out_dim,
            act,
            w,
            b: vec![0.0; out_dim],
            gw: vec![0.0; in_dim * out_dim],
            gb: vec![0.0; out_dim],
            adam_w: Adam::new(in_dim * out_dim),
            adam_b: Adam::new(out_dim),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Raw weight (row-major `out_dim x in_dim`) and bias buffers —
    /// exposed for the property suite only.
    #[doc(hidden)]
    pub fn params(&self) -> [&[f64]; 2] {
        [&self.w, &self.b]
    }

    /// Forward pass for one sample.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = vec![0.0; self.out_dim];
        self.forward_into(x, &mut y);
        y
    }

    /// Allocation-free forward pass into a caller-owned buffer of
    /// length `out_dim` — the hot inference path reuses one buffer per
    /// batch. Runs the exact arithmetic of [`Self::forward`] (it *is*
    /// the kernel `forward` calls), so the two are bitwise-identical.
    pub fn forward_into(&self, x: &[f64], y: &mut [f64]) {
        debug_assert_eq!(x.len(), self.in_dim, "dense forward: input size");
        debug_assert_eq!(y.len(), self.out_dim, "dense forward: output size");
        for ((row, &b), y_o) in
            self.w.chunks_exact(self.in_dim).zip(&self.b).zip(y.iter_mut())
        {
            let z = sintel_linalg::dot(row, x) + b;
            *y_o = self.act.apply(z);
        }
    }

    /// Backward pass for one sample: given the input `x` used in the
    /// forward pass, the produced output `y`, and `dy = ∂L/∂y`,
    /// accumulates parameter gradients and returns `∂L/∂x`.
    pub fn backward(&mut self, x: &[f64], y: &[f64], dy: &[f64]) -> Vec<f64> {
        debug_assert_eq!(dy.len(), self.out_dim);
        let mut dx = vec![0.0; self.in_dim];
        for o in 0..self.out_dim {
            let dz = dy[o] * self.act.deriv_from_output(y[o]);
            if dz == 0.0 {
                continue;
            }
            self.gb[o] += dz;
            let wrow = &self.w[o * self.in_dim..(o + 1) * self.in_dim];
            let grow = &mut self.gw[o * self.in_dim..(o + 1) * self.in_dim];
            for i in 0..self.in_dim {
                grow[i] += dz * x[i];
                dx[i] += dz * wrow[i];
            }
        }
        dx
    }

    /// Apply an Adam update scaled by `1/batch` and clear gradients.
    pub fn step(&mut self, lr: f64, batch: usize) {
        let scale = 1.0 / batch.max(1) as f64;
        if scale != 1.0 {
            self.gw.iter_mut().for_each(|g| *g *= scale);
            self.gb.iter_mut().for_each(|g| *g *= scale);
        }
        self.adam_w.step(&mut self.w, &self.gw, lr);
        self.adam_b.step(&mut self.b, &self.gb, lr);
        self.zero_grad();
    }

    /// Clear accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
        self.gb.iter_mut().for_each(|g| *g = 0.0);
    }

    /// Clamp every weight and bias into `[-c, c]` (WGAN weight clipping).
    pub fn clip_weights(&mut self, c: f64) {
        for w in self.w.iter_mut().chain(self.b.iter_mut()) {
            *w = w.clamp(-c, c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SintelRng {
        SintelRng::seed_from_u64(7)
    }

    #[test]
    fn forward_shape_and_determinism() {
        let layer = Dense::new(3, 2, Activation::Tanh, &mut rng());
        let y1 = layer.forward(&[0.1, -0.2, 0.3]);
        let y2 = layer.forward(&[0.1, -0.2, 0.3]);
        assert_eq!(y1.len(), 2);
        assert_eq!(y1, y2);
        assert!(y1.iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn gradient_check_against_finite_differences() {
        let mut layer = Dense::new(4, 3, Activation::Tanh, &mut rng());
        let x = [0.3, -0.7, 0.2, 0.9];
        let target = [0.1, -0.4, 0.6];
        // Loss: 0.5 * ||y - t||^2  ->  dy = y - t.
        let loss = |layer: &Dense| {
            let y = layer.forward(&x);
            y.iter().zip(&target).map(|(a, b)| 0.5 * (a - b) * (a - b)).sum::<f64>()
        };
        let y = layer.forward(&x);
        let dy: Vec<f64> = y.iter().zip(&target).map(|(a, b)| a - b).collect();
        let dx = layer.backward(&x, &y, &dy);

        // Check weight gradients numerically.
        let eps = 1e-6;
        for idx in [0usize, 5, 11] {
            let mut plus = layer.clone();
            plus.w[idx] += eps;
            let mut minus = layer.clone();
            minus.w[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            assert!(
                (numeric - layer.gw[idx]).abs() < 1e-6,
                "w[{idx}]: numeric {numeric} vs analytic {}",
                layer.gw[idx]
            );
        }
        // Check input gradient numerically.
        for i in 0..x.len() {
            let mut xp = x;
            xp[i] += eps;
            let mut xm = x;
            xm[i] -= eps;
            let yp = layer.forward(&xp);
            let ym = layer.forward(&xm);
            let lp: f64 =
                yp.iter().zip(&target).map(|(a, b)| 0.5 * (a - b) * (a - b)).sum();
            let lm: f64 =
                ym.iter().zip(&target).map(|(a, b)| 0.5 * (a - b) * (a - b)).sum();
            let numeric = (lp - lm) / (2.0 * eps);
            assert!((numeric - dx[i]).abs() < 1e-6, "x[{i}]");
        }
    }

    #[test]
    fn learns_linear_map() {
        // y = 2x0 - x1 learned by a linear layer.
        let mut layer = Dense::new(2, 1, Activation::Linear, &mut rng());
        let mut rng = rng();
        for _ in 0..400 {
            let mut batch_n = 0;
            for _ in 0..8 {
                let x = [rng.uniform_range(-1.0, 1.0), rng.uniform_range(-1.0, 1.0)];
                let t = 2.0 * x[0] - x[1];
                let y = layer.forward(&x);
                layer.backward(&x, &y, &[y[0] - t]);
                batch_n += 1;
            }
            layer.step(0.02, batch_n);
        }
        let y = layer.forward(&[0.5, 0.25]);
        assert!((y[0] - 0.75).abs() < 0.02, "y = {}", y[0]);
    }

    #[test]
    fn clip_weights_bounds_everything() {
        let mut layer = Dense::new(4, 4, Activation::Linear, &mut rng());
        layer.w[0] = 5.0;
        layer.b[1] = -3.0;
        layer.clip_weights(0.1);
        assert!(layer.w.iter().chain(layer.b.iter()).all(|w| w.abs() <= 0.1));
    }

    #[test]
    fn param_count() {
        let layer = Dense::new(3, 2, Activation::Linear, &mut rng());
        assert_eq!(layer.param_count(), 8);
    }
}
