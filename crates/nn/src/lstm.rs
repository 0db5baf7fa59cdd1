//! LSTM layer with full backpropagation through time.
//!
//! Gate layout follows the classic formulation:
//!
//! ```text
//! z_t = W · [x_t ; h_{t-1} ; 1]          (4H rows: i, f, g, o)
//! i = σ(z_i)   f = σ(z_f)   g = tanh(z_g)   o = σ(z_o)
//! c_t = f ⊙ c_{t-1} + i ⊙ g
//! h_t = o ⊙ tanh(c_t)
//! ```
//!
//! Training runs through a flat, reusable [`LstmTape`]
//! ([`Lstm::forward_tape`] / [`Lstm::backward_tape`]) with
//! register-blocked kernels. The per-step cache path
//! ([`Lstm::forward`] / [`Lstm::backward`]) survives only as the
//! specification the tape is proven bitwise-equal to (DESIGN.md §4j).
//!
//! The backward pass is hand-derived and validated against numerical
//! gradients in the test suite — the single most important test in this
//! crate, since every deep pipeline trains through it.

use std::ops::Range;

use sintel_common::SintelRng;

use crate::activation::sigmoid;
use crate::adam::Adam;

/// Gate rows (and weight-gradient rows) one blocked kernel pass keeps
/// in registers: four independent accumulator chains. `4H` is always a
/// multiple of it.
const ROW_BLOCK: usize = 4;

/// Columns one input-gradient pass keeps in registers.
const INPUT_GRAD_COLS: usize = 8;

/// Columns of one weight-gradient tile (`ROW_BLOCK` rows × this).
const TILE_COLS: usize = 4;

/// An LSTM layer mapping an input sequence to a hidden-state sequence.
#[derive(Debug, Clone)]
pub struct Lstm {
    input_dim: usize,
    hidden: usize,
    /// Weights, row-major `(4H x (I + H + 1))`; the final column is the bias.
    w: Vec<f64>,
    gw: Vec<f64>,
    adam: Adam,
}

/// Saved activations of the specification forward pass
/// ([`Lstm::forward`]): one fresh vector per step and quantity.
#[doc(hidden)]
#[derive(Debug, Clone)]
pub struct LstmCache {
    /// Inputs per step.
    xs: Vec<Vec<f64>>,
    /// Gate activations per step: `[i, f, g, o]` each of length H.
    gates: Vec<Vec<f64>>,
    /// Cell states per step.
    cs: Vec<Vec<f64>>,
    /// Hidden states per step.
    hs: Vec<Vec<f64>>,
}

/// Reusable per-step buffers for inference-path forward passes.
///
/// Holds the running hidden/cell state plus the fused `4H`
/// pre-activation vector, so a batch of windows can stream through one
/// layer without a single allocation per window (DESIGN.md §4j).
#[derive(Debug, Clone)]
pub struct LstmState {
    /// Gate vector, `[i, f, g, o]` quarters, each of length H.
    gates: Vec<f64>,
    /// Cell state (length H).
    c: Vec<f64>,
    /// `tanh` of the cell state (length H).
    tc: Vec<f64>,
    /// Hidden state (length H).
    h: Vec<f64>,
}

impl LstmState {
    fn new(hidden: usize) -> Self {
        Self {
            gates: vec![0.0; 4 * hidden],
            c: vec![0.0; hidden],
            tc: vec![0.0; hidden],
            h: vec![0.0; hidden],
        }
    }

    /// Zero the recurrent state (start of a new sequence). The gate
    /// and `tanh(c)` buffers need no reset — every step overwrites them.
    pub fn reset(&mut self) {
        self.c.iter_mut().for_each(|v| *v = 0.0);
        self.h.iter_mut().for_each(|v| *v = 0.0);
    }

    /// Current hidden state (the last step's output after a forward).
    pub fn hidden(&self) -> &[f64] {
        &self.h
    }
}

impl LstmCache {
    /// Hidden state sequence (one vector per time step).
    pub fn hidden_states(&self) -> &[Vec<f64>] {
        &self.hs
    }

    /// Final hidden state (panics on empty sequences).
    pub fn last_hidden(&self) -> &[f64] {
        self.hs.last().expect("non-empty sequence")
    }

    /// Sequence length.
    pub fn len(&self) -> usize {
        self.hs.len()
    }

    /// True for zero-length sequences.
    pub fn is_empty(&self) -> bool {
        self.hs.is_empty()
    }
}

/// A layer's input sequence, borrowed from the caller: [`Seq::len`]
/// steps of the same width. Training never copies its input — a window
/// row or the layer below's [`LstmTape::hidden_states`] is read in
/// place, and a RepeatVector decoder reads one row at every step.
#[derive(Debug, Clone, Copy)]
pub struct Seq<'a> {
    data: &'a [f64],
    /// Values per step.
    dim: usize,
    /// Offset between consecutive steps: `dim`, or 0 for a repeated row.
    stride: usize,
    steps: usize,
}

impl<'a> Seq<'a> {
    /// A flat, time-major sequence of `data.len() / dim` steps.
    pub fn flat(data: &'a [f64], dim: usize) -> Self {
        assert!(
            dim > 0 && data.len().is_multiple_of(dim),
            "seq: length is not a multiple of the step width"
        );
        Self { data, dim, stride: dim, steps: data.len() / dim }
    }

    /// `row` at each of `steps` steps.
    pub fn repeat(row: &'a [f64], steps: usize) -> Self {
        Self { data: row, dim: row.len(), stride: 0, steps }
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps
    }

    /// True for zero-length sequences.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// Step `t`'s row.
    fn step(&self, t: usize) -> &'a [f64] {
        let at = t * self.stride;
        &self.data[at..at + self.dim]
    }

    /// The same steps narrowed to columns `c0..c0 + width`.
    fn columns(&self, c0: usize, width: usize) -> Seq<'a> {
        Seq { data: &self.data[c0..], dim: width, ..*self }
    }
}

/// The loss gradient with respect to a layer's hidden states, as
/// handed to [`Lstm::backward_tape`].
#[derive(Debug, Clone, Copy)]
pub enum HiddenGrad<'a> {
    /// `∂L/∂h` at the last step only (`H` values); every earlier step's
    /// own gradient is zero — a many-to-one regressor or an encoder.
    Last(&'a [f64]),
    /// `∂L/∂h_t` at every step, flat time-major `T x H`.
    Every(&'a [f64]),
}

/// The flat, reusable BPTT arena of one layer (DESIGN.md §4j).
///
/// [`Lstm::forward_tape`] fills it and [`Lstm::backward_tape`] consumes
/// it; one tape serves every sample of every epoch, so training costs
/// no allocation per sample or per step once the buffers have grown.
/// The layer input is not stored: the caller hands the same [`Seq`] to
/// both passes.
#[derive(Debug, Clone, Default)]
pub struct LstmTape {
    hidden: usize,
    steps: usize,
    /// `T x 4H`: the activated gates after the forward pass, overwritten
    /// in place by the pre-activation gradients during the backward pass.
    gates: Vec<f64>,
    /// `(T + 1) x H` cell states; row 0 is the zero initial state and
    /// row `t + 1` is step `t`'s.
    c: Vec<f64>,
    /// `T x H`: `tanh(c_t)`, so the backward pass never recomputes it.
    tc: Vec<f64>,
    /// `(T + 1) x H` hidden states, laid out like `c`.
    h: Vec<f64>,
    /// Backward scratch (`H`): the gradient reaching `h_t` from step `t + 1`.
    dh: Vec<f64>,
    /// Backward scratch (`H`): the gradient reaching `c_t` from step `t + 1`.
    dc: Vec<f64>,
    /// Backward scratch (`I + H`): one step's gradient w.r.t. `[x_t ; h_{t-1}]`.
    dxh: Vec<f64>,
}

impl LstmTape {
    /// An empty tape; the first forward pass sizes it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Every step's hidden state, flat time-major `T x H` — the input
    /// of a stacked layer (`Seq::flat(tape.hidden_states(), H)`).
    pub fn hidden_states(&self) -> &[f64] {
        self.h.get(self.hidden..).unwrap_or_default()
    }

    /// The last step's hidden state (the zero state for `T = 0`).
    pub fn last_hidden(&self) -> &[f64] {
        self.h.get(self.steps * self.hidden..).unwrap_or_default()
    }

    /// Number of steps of the last forward pass.
    pub fn len(&self) -> usize {
        self.steps
    }

    /// True before any forward pass, or after a zero-length one.
    pub fn is_empty(&self) -> bool {
        self.steps == 0
    }

    /// Size every buffer for `steps` steps of a layer and zero the
    /// initial state row.
    fn prepare(&mut self, steps: usize, input_dim: usize, hidden: usize) {
        self.steps = steps;
        self.hidden = hidden;
        self.gates.resize(steps * 4 * hidden, 0.0);
        self.c.resize((steps + 1) * hidden, 0.0);
        self.tc.resize(steps * hidden, 0.0);
        self.h.resize((steps + 1) * hidden, 0.0);
        self.dh.resize(hidden, 0.0);
        self.dc.resize(hidden, 0.0);
        self.dxh.resize(input_dim + hidden, 0.0);
        self.c[..hidden].fill(0.0);
        self.h[..hidden].fill(0.0);
    }
}

impl Lstm {
    /// Create with Xavier-uniform weights (forget-gate bias +1 for
    /// healthy gradient flow early in training).
    pub fn new(input_dim: usize, hidden: usize, rng: &mut SintelRng) -> Self {
        assert!(input_dim > 0 && hidden > 0, "lstm dims must be positive");
        let cols = input_dim + hidden + 1;
        let rows = 4 * hidden;
        let bound = (6.0 / (input_dim + 2 * hidden) as f64).sqrt();
        let mut w: Vec<f64> =
            (0..rows * cols).map(|_| rng.uniform_range(-bound, bound)).collect();
        // Forget-gate bias (+1): rows H..2H, last column.
        for r in hidden..2 * hidden {
            w[r * cols + cols - 1] = 1.0;
        }
        Self { input_dim, hidden, gw: vec![0.0; rows * cols], w, adam: Adam::new(rows * cols) }
    }

    /// Hidden size.
    pub fn hidden_size(&self) -> usize {
        self.hidden
    }

    /// Input size.
    pub fn input_size(&self) -> usize {
        self.input_dim
    }

    /// Number of trainable parameters.
    pub fn param_count(&self) -> usize {
        self.w.len()
    }

    /// A fresh zeroed scratch state sized for this layer.
    pub fn state(&self) -> LstmState {
        LstmState::new(self.hidden)
    }

    /// Raw weight buffer, row-major `(4H x (I + H + 1))` — exposed for
    /// the property suite and benchmarks only.
    #[doc(hidden)]
    pub fn weights(&self) -> &[f64] {
        &self.w
    }

    /// Mutable raw weight buffer — exposed for the property suite only
    /// (planting non-finite weights).
    #[doc(hidden)]
    pub fn weights_mut(&mut self) -> &mut [f64] {
        &mut self.w
    }

    /// Accumulated weight gradients, laid out like [`Self::weights`] —
    /// exposed for the property suite only.
    #[doc(hidden)]
    pub fn grads(&self) -> &[f64] {
        &self.gw
    }

    /// Gate pre-activations of one step into `gates` (`4H`).
    ///
    /// Reduction order per row is part of the determinism contract
    /// (DESIGN.md §4j): `bias`, then input terms with `i` ascending,
    /// then recurrent terms with `j` ascending. Rows run
    /// [`ROW_BLOCK`] at a time with one independent accumulator each,
    /// so four dependency chains overlap instead of one; no accumulator
    /// is ever folded into another, so each row's sum is exactly the
    /// one-row-at-a-time sum.
    fn preactivate(&self, x: &[f64], h_prev: &[f64], gates: &mut [f64]) {
        let n_in = self.input_dim;
        let cols = n_in + self.hidden + 1;
        let bias = cols - 1;
        for (rows, z) in
            self.w.chunks_exact(ROW_BLOCK * cols).zip(gates.chunks_exact_mut(ROW_BLOCK))
        {
            let (r0, rest) = rows.split_at(cols);
            let (r1, rest) = rest.split_at(cols);
            let (r2, r3) = rest.split_at(cols);
            let (mut a0, mut a1, mut a2, mut a3) = (r0[bias], r1[bias], r2[bias], r3[bias]);
            let inputs = r0[..n_in].iter().zip(&r1[..n_in]).zip(&r2[..n_in]).zip(&r3[..n_in]);
            for ((((&w0, &w1), &w2), &w3), &xi) in inputs.zip(x) {
                a0 += w0 * xi;
                a1 += w1 * xi;
                a2 += w2 * xi;
                a3 += w3 * xi;
            }
            let recurrent = r0[n_in..bias]
                .iter()
                .zip(&r1[n_in..bias])
                .zip(&r2[n_in..bias])
                .zip(&r3[n_in..bias]);
            for ((((&w0, &w1), &w2), &w3), &hj) in recurrent.zip(h_prev) {
                a0 += w0 * hj;
                a1 += w1 * hj;
                a2 += w2 * hj;
                a3 += w3 * hj;
            }
            z.copy_from_slice(&[a0, a1, a2, a3]);
        }
    }

    /// One fused LSTM step: `state.{h, c}` hold the previous step's
    /// state on entry and the new state on return.
    ///
    /// This is the *only* step kernel outside the specification: the
    /// flat inference path ([`Self::forward_flat`]) runs it, and the
    /// training tape ([`Self::forward_tape`]) runs the same two halves
    /// ([`Self::preactivate`], then [`activate`]) on tape rows, so the
    /// two are bitwise-identical by construction.
    fn step_fused(&self, x: &[f64], state: &mut LstmState) {
        let LstmState { gates, c, tc, h } = state;
        self.preactivate(x, h, gates);
        activate(gates, c, tc, h);
    }

    /// The specification step: the pre-tape kernel, one gate row at a
    /// time, run only by [`Self::forward`].
    fn step_spec(&self, x: &[f64], state: &mut LstmState) {
        let h_dim = self.hidden;
        let cols = self.input_dim + h_dim + 1;
        debug_assert_eq!(x.len(), self.input_dim, "lstm forward: input size");
        let LstmState { gates, c, h, .. } = state;
        for (row, z) in self.w.chunks_exact(cols).zip(gates.iter_mut()) {
            let (xw, rest) = row.split_at(self.input_dim);
            let (hw, bias) = rest.split_at(h_dim);
            let mut acc = bias[0];
            for (&w, &xi) in xw.iter().zip(x) {
                acc += w * xi;
            }
            for (&w, &hj) in hw.iter().zip(h.iter()) {
                acc += w * hj;
            }
            *z = acc;
        }
        let (ig, rest) = gates.split_at_mut(h_dim);
        let (fg, rest) = rest.split_at_mut(h_dim);
        let (gg, og) = rest.split_at_mut(h_dim);
        let lanes = ig
            .iter_mut()
            .zip(fg.iter_mut())
            .zip(gg.iter_mut())
            .zip(og.iter_mut())
            .zip(c.iter_mut().zip(h.iter_mut()));
        for ((((i_z, f_z), g_z), o_z), (ck, hk)) in lanes {
            let i_g = sigmoid(*i_z);
            let f_g = sigmoid(*f_z);
            let g_g = g_z.tanh();
            let o_g = sigmoid(*o_z);
            *i_z = i_g;
            *f_z = f_g;
            *g_z = g_g;
            *o_z = o_g;
            let c_new = f_g * *ck + i_g * g_g;
            *ck = c_new;
            *hk = o_g * c_new.tanh();
        }
    }

    /// Specification forward pass: runs the sequence one unblocked step
    /// at a time and clones every step's gates, cell and hidden state
    /// into a fresh cache. Kept as the oracle [`Self::forward_tape`] is
    /// tested against, like `Matrix::matmul_rows_scalar_into`.
    #[doc(hidden)]
    pub fn forward(&self, xs: &[Vec<f64>]) -> LstmCache {
        let mut state = self.state();
        let mut cache = LstmCache {
            xs: xs.to_vec(),
            gates: Vec::with_capacity(xs.len()),
            cs: Vec::with_capacity(xs.len()),
            hs: Vec::with_capacity(xs.len()),
        };
        for x in xs {
            self.step_spec(x, &mut state);
            cache.gates.push(state.gates.clone());
            cache.cs.push(state.c.clone());
            cache.hs.push(state.h.clone());
        }
        cache
    }

    /// Inference-only forward over a flat, time-major sequence
    /// (`xs.len()` must be a multiple of the input size).
    ///
    /// Reuses `state`'s buffers across calls — no allocation beyond
    /// the first growth of `hs_out` — and leaves the final
    /// hidden/cell state in `state`. When `hs_out` is given it is
    /// cleared and filled with every step's hidden state
    /// (`t_len * hidden` values). Bitwise-identical to
    /// [`Self::forward_tape`] and to the specification [`Self::forward`].
    pub fn forward_flat(&self, xs: &[f64], state: &mut LstmState, mut hs_out: Option<&mut Vec<f64>>) {
        debug_assert_eq!(xs.len() % self.input_dim, 0, "lstm forward_flat: sequence length");
        state.reset();
        if let Some(out) = hs_out.as_deref_mut() {
            out.clear();
        }
        for x in xs.chunks_exact(self.input_dim) {
            self.step_fused(x, state);
            if let Some(out) = hs_out.as_deref_mut() {
                out.extend_from_slice(&state.h);
            }
        }
    }

    /// Training forward pass: run `xs` from the zero state and record
    /// every step's gates, cell state, `tanh(c)` and hidden state on
    /// `tape`, for [`Self::backward_tape`] with the same `xs`.
    pub fn forward_tape(&self, xs: Seq<'_>, tape: &mut LstmTape) {
        assert_eq!(xs.dim, self.input_dim, "lstm forward: input size");
        let h_dim = self.hidden;
        tape.prepare(xs.len(), self.input_dim, h_dim);
        let LstmTape { gates, c, tc, h, .. } = tape;
        let steps = gates.chunks_exact_mut(4 * h_dim).zip(tc.chunks_exact_mut(h_dim));
        for (t, (g, tc_t)) in steps.enumerate() {
            let (c_prev, c_next) = c.split_at_mut((t + 1) * h_dim);
            let c_t = &mut c_next[..h_dim];
            c_t.copy_from_slice(&c_prev[t * h_dim..]);
            let (h_prev, h_next) = h.split_at_mut((t + 1) * h_dim);
            self.preactivate(xs.step(t), &h_prev[t * h_dim..], g);
            activate(g, c_t, tc_t, &mut h_next[..h_dim]);
        }
    }

    /// Specification BPTT: given `dh[t] = ∂L/∂h_t` for every step,
    /// accumulate weight gradients and return `∂L/∂x_t` per step. Kept
    /// as the oracle [`Self::backward_tape`] is tested against.
    #[doc(hidden)]
    pub fn backward(&mut self, cache: &LstmCache, dh: &[Vec<f64>]) -> Vec<Vec<f64>> {
        let t_len = cache.len();
        assert_eq!(dh.len(), t_len, "lstm backward: dh length");
        let h_dim = self.hidden;
        let cols = self.input_dim + h_dim + 1;

        let mut dxs = vec![vec![0.0; self.input_dim]; t_len];
        let mut dh_next = vec![0.0; h_dim];
        let mut dc_next = vec![0.0; h_dim];

        for t in (0..t_len).rev() {
            let gates = &cache.gates[t];
            let c = &cache.cs[t];
            let c_prev: &[f64] = if t == 0 { &[] } else { &cache.cs[t - 1] };
            let h_prev: &[f64] = if t == 0 { &[] } else { &cache.hs[t - 1] };
            let x = &cache.xs[t];

            let mut dgates = vec![0.0; 4 * h_dim]; // pre-activation grads
            let mut dc_prev = vec![0.0; h_dim];
            for k in 0..h_dim {
                let i_g = gates[k];
                let f_g = gates[h_dim + k];
                let g_g = gates[2 * h_dim + k];
                let o_g = gates[3 * h_dim + k];
                let tanh_c = c[k].tanh();
                let dht = dh[t][k] + dh_next[k];
                let dc = dht * o_g * (1.0 - tanh_c * tanh_c) + dc_next[k];
                let cp = if t == 0 { 0.0 } else { c_prev[k] };
                // Pre-activation gate gradients.
                dgates[k] = dc * g_g * i_g * (1.0 - i_g);
                dgates[h_dim + k] = dc * cp * f_g * (1.0 - f_g);
                dgates[2 * h_dim + k] = dc * i_g * (1.0 - g_g * g_g);
                dgates[3 * h_dim + k] = dht * tanh_c * o_g * (1.0 - o_g);
                dc_prev[k] = dc * f_g;
            }

            // Accumulate weight gradients and propagate to x and h_prev,
            // row by row in ascending order.
            let mut dh_prev = vec![0.0; h_dim];
            let dx_t = &mut dxs[t];
            let rows = dgates
                .iter()
                .zip(self.w.chunks_exact(cols))
                .zip(self.gw.chunks_exact_mut(cols));
            for ((&dz, wrow), grow) in rows {
                if dz == 0.0 {
                    continue;
                }
                let (xw, wrest) = wrow.split_at(self.input_dim);
                let (hw, _) = wrest.split_at(h_dim);
                let (gx, grest) = grow.split_at_mut(self.input_dim);
                let (gh, gbias) = grest.split_at_mut(h_dim);
                for ((g, dx), (&w, &xi)) in
                    gx.iter_mut().zip(dx_t.iter_mut()).zip(xw.iter().zip(x))
                {
                    *g += dz * xi;
                    *dx += dz * w;
                }
                if t > 0 {
                    for ((g, dh), (&w, &hj)) in
                        gh.iter_mut().zip(dh_prev.iter_mut()).zip(hw.iter().zip(h_prev))
                    {
                        *g += dz * hj;
                        *dh += dz * w;
                    }
                } else {
                    // h_prev is zero; only dh flows nowhere further.
                    for (dh, &w) in dh_prev.iter_mut().zip(hw) {
                        *dh += dz * w;
                    }
                }
                gbias[0] += dz;
            }
            dh_next = dh_prev;
            dc_next = dc_prev;
        }
        dxs
    }

    /// Training BPTT over the sequence [`Self::forward_tape`] recorded
    /// from the same `xs`: accumulate weight gradients and, when `dx`
    /// is given (`T x I`, overwritten), write `∂L/∂x_t` for every step.
    ///
    /// Bitwise-equal to the specification [`Self::backward`]
    /// (DESIGN.md §4j):
    /// - gate gradients are the same element-wise expressions, with
    ///   `tanh(c)` read from the tape (the same libm call on the same
    ///   input);
    /// - `∂L/∂x_t` and the gradient into `h_{t-1}` sum the gate rows in
    ///   ascending order, eight columns at a time in registers;
    /// - weight gradients are deferred to the end of the sample: each
    ///   4 × 4 tile starts from the current gradient and adds the steps
    ///   in descending order, which is each element's order in the
    ///   step-by-step specification.
    ///
    /// Everywhere, a gate row whose gradient is exactly zero contributes
    /// nothing, as in the specification: the skip is semantic, keeping
    /// `0 · inf` and `-0.0` terms out of the sums.
    pub fn backward_tape(
        &mut self,
        xs: Seq<'_>,
        tape: &mut LstmTape,
        dh: HiddenGrad<'_>,
        mut dx: Option<&mut [f64]>,
    ) {
        let (n_in, h_dim) = (self.input_dim, self.hidden);
        let t_len = tape.steps;
        assert_eq!(xs.len(), t_len, "lstm backward: sequence length");
        assert_eq!(tape.hidden, h_dim, "lstm backward: tape from another layer");
        let LstmTape { gates, c, tc, h, dh: dh_next, dc, dxh, .. } = tape;
        dh_next.fill(0.0);
        dc.fill(0.0);
        for t in (0..t_len).rev() {
            let g = &mut gates[t * 4 * h_dim..(t + 1) * 4 * h_dim];
            let c_prev = &c[t * h_dim..(t + 1) * h_dim];
            let tc_t = &tc[t * h_dim..(t + 1) * h_dim];
            let own = match dh {
                HiddenGrad::Every(d) => Some(&d[t * h_dim..(t + 1) * h_dim]),
                HiddenGrad::Last(d) => (t + 1 == t_len).then_some(d),
            };
            match own {
                Some(d) => gate_grads(g, c_prev, tc_t, d.iter().copied(), dh_next, dc),
                None => gate_grads(g, c_prev, tc_t, std::iter::repeat(0.0), dh_next, dc),
            }
            // At t = 0 the gradient into h_{-1} leads nowhere.
            let width = if t > 0 { n_in + h_dim } else { n_in };
            self.input_grads(g, &mut dxh[..width]);
            if let Some(dx) = dx.as_deref_mut() {
                dx[t * n_in..(t + 1) * n_in].copy_from_slice(&dxh[..n_in]);
            }
            if t > 0 {
                dh_next.copy_from_slice(&dxh[n_in..]);
            }
        }
        let dz = Seq { data: gates, dim: 4 * h_dim, stride: 4 * h_dim, steps: t_len };
        // Step t's recurrent input h_{t-1} is tape row t.
        let h_prev = Seq { data: h, dim: h_dim, stride: h_dim, steps: t_len };
        self.weight_grads(xs, dz, h_prev);
    }

    /// `out[j] = Σ_r dz_r · w[r][j]` over the first `out.len()` weight
    /// columns: rows ascending, zero `dz` rows skipped, each output an
    /// independent register accumulator starting at `0.0`.
    fn input_grads(&self, dz: &[f64], out: &mut [f64]) {
        let (cols, width) = (self.input_dim + self.hidden + 1, out.len());
        let mut j = 0;
        while j + INPUT_GRAD_COLS <= width {
            dot_columns::<INPUT_GRAD_COLS>(dz, &self.w, cols, j, &mut out[j..j + INPUT_GRAD_COLS]);
            j += INPUT_GRAD_COLS;
        }
        if j + 4 <= width {
            dot_columns::<4>(dz, &self.w, cols, j, &mut out[j..j + 4]);
            j += 4;
        }
        while j < width {
            dot_columns::<1>(dz, &self.w, cols, j, &mut out[j..j + 1]);
            j += 1;
        }
    }

    /// Add one sample's weight gradients: for each gate row `r` and
    /// column `j`, the steps' `dz[t][r] · input_t[j]` in descending `t`,
    /// zero `dz` skipped. Input columns read `x_t` over every step,
    /// recurrent columns `h_{t-1}` over `t ≥ 1` (at `t = 0` it is the
    /// zero state, which the specification never adds), and the bias
    /// column `dz` itself.
    fn weight_grads(&mut self, xs: Seq<'_>, dz: Seq<'_>, h_prev: Seq<'_>) {
        let (n_in, h_dim) = (self.input_dim, self.hidden);
        let cols = n_in + h_dim + 1;
        let t_len = dz.len();
        for (r0, tile) in (0..).step_by(ROW_BLOCK).zip(self.gw.chunks_exact_mut(ROW_BLOCK * cols)) {
            let dz = dz.columns(r0, ROW_BLOCK);
            tile_columns(tile, cols, 0, dz, xs, 0..t_len);
            tile_columns(tile, cols, n_in, dz, h_prev, 1..t_len);
            let mut acc = [0.0; ROW_BLOCK];
            for (a, row) in acc.iter_mut().zip(tile.chunks_exact(cols)) {
                *a = row[cols - 1];
            }
            for t in (0..t_len).rev() {
                for (a, &d) in acc.iter_mut().zip(dz.step(t)) {
                    if d != 0.0 {
                        *a += d;
                    }
                }
            }
            for (&a, row) in acc.iter().zip(tile.chunks_exact_mut(cols)) {
                row[cols - 1] = a;
            }
        }
    }

    /// Apply an Adam update scaled by `1/batch` and clear gradients.
    pub fn step(&mut self, lr: f64, batch: usize) {
        let scale = 1.0 / batch.max(1) as f64;
        if scale != 1.0 {
            self.gw.iter_mut().for_each(|g| *g *= scale);
        }
        self.adam.step(&mut self.w, &self.gw, lr);
        self.zero_grad();
    }

    /// Clear accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.gw.iter_mut().for_each(|g| *g = 0.0);
    }
}

/// Gate activations and the cell/hidden update of one step, fused over
/// the contiguous gate quarters: `gates` turns from pre-activations into
/// `[i, f, g, o]` (σ, σ, tanh, σ), `c` from `c_{t-1}` into
/// `c_t = f⊙c_{t-1} + i⊙g`, and `tc`/`h` receive `tanh(c_t)` and
/// `h_t = o⊙tanh(c_t)`. Element-wise only, so the per-element order is
/// the whole story.
fn activate(gates: &mut [f64], c: &mut [f64], tc: &mut [f64], h: &mut [f64]) {
    let h_dim = c.len();
    let (ig, rest) = gates.split_at_mut(h_dim);
    let (fg, rest) = rest.split_at_mut(h_dim);
    let (gg, og) = rest.split_at_mut(h_dim);
    let lanes = ig
        .iter_mut()
        .zip(fg.iter_mut())
        .zip(gg.iter_mut())
        .zip(og.iter_mut())
        .zip(c.iter_mut().zip(tc.iter_mut()).zip(h.iter_mut()));
    for ((((i_z, f_z), g_z), o_z), ((ck, tk), hk)) in lanes {
        let i_g = sigmoid(*i_z);
        let f_g = sigmoid(*f_z);
        let g_g = g_z.tanh();
        let o_g = sigmoid(*o_z);
        *i_z = i_g;
        *f_z = f_g;
        *g_z = g_g;
        *o_z = o_g;
        let c_new = f_g * *ck + i_g * g_g;
        *ck = c_new;
        let tanh_c = c_new.tanh();
        *tk = tanh_c;
        *hk = o_g * tanh_c;
    }
}

/// Pre-activation gate gradients of one step, element by element:
/// `g` holds the activated gates on entry and the gradients on return;
/// `dc` holds the cell gradient from step `t + 1` on entry and the one
/// into `c_{t-1}` on return. `own` yields the step's own `∂L/∂h_t`.
fn gate_grads(
    g: &mut [f64],
    c_prev: &[f64],
    tc: &[f64],
    own: impl Iterator<Item = f64>,
    dh_next: &[f64],
    dc: &mut [f64],
) {
    let h_dim = dc.len();
    let (ig, rest) = g.split_at_mut(h_dim);
    let (fg, rest) = rest.split_at_mut(h_dim);
    let (gg, og) = rest.split_at_mut(h_dim);
    let lanes = ig
        .iter_mut()
        .zip(fg.iter_mut())
        .zip(gg.iter_mut())
        .zip(og.iter_mut())
        .zip(c_prev.iter().zip(tc).zip(own.zip(dh_next)).zip(dc.iter_mut()));
    for ((((i_z, f_z), g_z), o_z), (((&cp, &tanh_c), (own_k, &dh_k)), dck)) in lanes {
        let (i_g, f_g, g_g, o_g) = (*i_z, *f_z, *g_z, *o_z);
        let dht = own_k + dh_k;
        let dc_t = dht * o_g * (1.0 - tanh_c * tanh_c) + *dck;
        *i_z = dc_t * g_g * i_g * (1.0 - i_g);
        *f_z = dc_t * cp * f_g * (1.0 - f_g);
        *g_z = dc_t * i_g * (1.0 - g_g * g_g);
        *o_z = dht * tanh_c * o_g * (1.0 - o_g);
        *dck = dc_t * f_g;
    }
}

/// `out = Σ_r dz_r · w[r][c0..c0 + N]` with rows ascending and zero
/// `dz` rows skipped, in `N` register accumulators that start at `0.0`.
#[inline]
fn dot_columns<const N: usize>(dz: &[f64], w: &[f64], cols: usize, c0: usize, out: &mut [f64]) {
    let mut acc = [0.0; N];
    for (&d, row) in dz.iter().zip(w.chunks_exact(cols)) {
        if d == 0.0 {
            continue;
        }
        for (a, &wv) in acc.iter_mut().zip(&row[c0..c0 + N]) {
            *a += d * wv;
        }
    }
    out.copy_from_slice(&acc);
}

/// Weight-gradient tiles over one block of gate rows: for every column
/// `j` of `input`, add `Σ_t dz[t][k] · input[t][j]` (steps `ts`
/// descending, zero `dz` skipped) to `tile[k][col + j]`,
/// [`TILE_COLS`] columns at a time.
fn tile_columns(
    tile: &mut [f64],
    cols: usize,
    col: usize,
    dz: Seq<'_>,
    input: Seq<'_>,
    ts: Range<usize>,
) {
    let width = input.dim;
    let mut j = 0;
    while j + TILE_COLS <= width {
        tile_acc::<TILE_COLS>(tile, cols, col + j, dz, input.columns(j, TILE_COLS), ts.clone());
        j += TILE_COLS;
    }
    while j < width {
        tile_acc::<1>(tile, cols, col + j, dz, input.columns(j, 1), ts.clone());
        j += 1;
    }
}

/// One `ROW_BLOCK × N` weight-gradient tile held in registers: start
/// from the current gradient, add the steps `ts` in descending order,
/// store back once.
#[inline]
fn tile_acc<const N: usize>(
    tile: &mut [f64],
    cols: usize,
    col: usize,
    dz: Seq<'_>,
    input: Seq<'_>,
    ts: Range<usize>,
) {
    let mut acc = [[0.0; N]; ROW_BLOCK];
    for (a, row) in acc.iter_mut().zip(tile.chunks_exact(cols)) {
        a.copy_from_slice(&row[col..col + N]);
    }
    for t in ts.rev() {
        let x = input.step(t);
        for (a, &d) in acc.iter_mut().zip(dz.step(t)) {
            if d == 0.0 {
                continue;
            }
            for (aj, &xj) in a.iter_mut().zip(x) {
                *aj += d * xj;
            }
        }
    }
    for (a, row) in acc.iter().zip(tile.chunks_exact_mut(cols)) {
        row[col..col + N].copy_from_slice(a);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rng() -> SintelRng {
        SintelRng::seed_from_u64(11)
    }

    #[test]
    fn forward_shapes() {
        let lstm = Lstm::new(2, 5, &mut rng());
        let xs = vec![vec![0.1, 0.2], vec![-0.1, 0.4], vec![0.0, 0.0]];
        let cache = lstm.forward(&xs);
        assert_eq!(cache.len(), 3);
        assert_eq!(cache.last_hidden().len(), 5);
        assert!(!cache.is_empty());
        assert!(cache.hidden_states().iter().all(|h| h.iter().all(|v| v.abs() <= 1.0)));
    }

    #[test]
    fn empty_sequence() {
        let lstm = Lstm::new(1, 3, &mut rng());
        let cache = lstm.forward(&[]);
        assert!(cache.is_empty());
    }

    /// The critical test: BPTT gradients match finite differences on both
    /// weights and inputs, for a loss that reads *every* hidden state.
    #[test]
    fn gradient_check_full_bptt() {
        let mut lstm = Lstm::new(2, 3, &mut rng());
        let xs = vec![vec![0.5, -0.3], vec![0.1, 0.8], vec![-0.6, 0.2], vec![0.3, 0.3]];
        // Loss = 0.5 * sum over t, k of h[t][k]^2  ->  dh = h.
        let loss = |lstm: &Lstm| -> f64 {
            let c = lstm.forward(&xs);
            c.hidden_states().iter().flatten().map(|h| 0.5 * h * h).sum()
        };
        let cache = lstm.forward(&xs);
        let dh: Vec<Vec<f64>> = cache.hidden_states().to_vec();
        let dxs = lstm.backward(&cache, &dh);

        let eps = 1e-6;
        // Sample a spread of weight indices (including biases).
        let cols = 2 + 3 + 1;
        let probe: Vec<usize> =
            vec![0, 3, cols - 1, 3 * cols + 2, 6 * cols + 4, 11 * cols + cols - 1];
        for idx in probe {
            let mut plus = lstm.clone();
            plus.w[idx] += eps;
            let mut minus = lstm.clone();
            minus.w[idx] -= eps;
            let numeric = (loss(&plus) - loss(&minus)) / (2.0 * eps);
            let analytic = lstm.gw[idx];
            assert!(
                (numeric - analytic).abs() < 1e-5 * (1.0 + numeric.abs()),
                "w[{idx}]: numeric {numeric} vs analytic {analytic}"
            );
        }
        // Input gradients.
        for t in 0..xs.len() {
            for i in 0..2 {
                let mut xp = xs.clone();
                xp[t][i] += eps;
                let mut xm = xs.clone();
                xm[t][i] -= eps;
                let lp: f64 = {
                    let c = lstm.forward(&xp);
                    c.hidden_states().iter().flatten().map(|h| 0.5 * h * h).sum()
                };
                let lm: f64 = {
                    let c = lstm.forward(&xm);
                    c.hidden_states().iter().flatten().map(|h| 0.5 * h * h).sum()
                };
                let numeric = (lp - lm) / (2.0 * eps);
                assert!(
                    (numeric - dxs[t][i]).abs() < 1e-6 * (1.0 + numeric.abs()),
                    "x[{t}][{i}]: numeric {numeric} vs analytic {}",
                    dxs[t][i]
                );
            }
        }
    }

    #[test]
    fn learns_to_remember_first_input() {
        // Task: output at the last step should equal the *first* input —
        // requires carrying information across the sequence. Trains
        // through the tape, one tape reused for every sample.
        let mut lstm = Lstm::new(1, 8, &mut rng());
        let mut head = crate::dense::Dense::new(8, 1, crate::Activation::Linear, &mut rng());
        let mut data_rng = SintelRng::seed_from_u64(99);
        let seq_len = 6;
        let mut tape = LstmTape::new();
        let mut dlast = vec![0.0; head.in_dim()];
        let mut final_loss = f64::INFINITY;
        for _ in 0..300 {
            let mut batch_loss = 0.0;
            let batch = 8;
            for _ in 0..batch {
                let first = data_rng.uniform_range(-1.0, 1.0);
                let mut vals = vec![first];
                for _ in 1..seq_len {
                    vals.push(data_rng.uniform_range(-0.2, 0.2));
                }
                let xs = Seq::flat(&vals, 1);
                lstm.forward_tape(xs, &mut tape);
                let y = head.forward(tape.last_hidden());
                let err = y[0] - first;
                batch_loss += 0.5 * err * err;
                head.backward_into(tape.last_hidden(), &y, &[err], &mut dlast);
                lstm.backward_tape(xs, &mut tape, HiddenGrad::Last(&dlast), None);
            }
            lstm.step(0.01, batch);
            head.step(0.01, batch);
            final_loss = batch_loss / batch as f64;
        }
        assert!(final_loss < 0.01, "loss = {final_loss}");
    }

    #[test]
    fn tape_shapes_and_reuse() {
        let lstm = Lstm::new(2, 3, &mut rng());
        let mut tape = LstmTape::new();
        assert!(tape.is_empty() && tape.hidden_states().is_empty());
        let long = [0.1, 0.2, -0.1, 0.4, 0.0, 0.3];
        lstm.forward_tape(Seq::flat(&long, 2), &mut tape);
        assert_eq!(tape.len(), 3);
        assert_eq!(tape.hidden_states().len(), 9);
        assert_eq!(tape.last_hidden(), &tape.hidden_states()[6..]);
        // A shorter sequence through the same tape starts from the zero
        // state again: its hidden states are the long run's prefix.
        let prefix = tape.hidden_states()[..3].to_vec();
        lstm.forward_tape(Seq::flat(&long[..2], 2), &mut tape);
        assert_eq!(tape.len(), 1);
        assert_eq!(tape.hidden_states(), &prefix[..]);
        lstm.forward_tape(Seq::flat(&[], 2), &mut tape);
        assert!(tape.is_empty());
        assert_eq!(tape.last_hidden(), &[0.0; 3]);
    }
}
